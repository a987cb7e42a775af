"""Seeded benchmark of hodgeheight: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
(it need not be installed).  Workloads: fresh-structures, orbit-limits,
variation-sweep (see ``workloads.py`` and ``README.md``).

With ``--trace 0`` the end-to-end metrics are measured with tracing off:
set-up time (median of five fresh processes, three on orbit-limits, each
timed from its start to its first timed item), goodput, p50/p90 item
latency and peak RSS of the workload process.  With ``--trace 1`` a fixed
block of items runs alternately untraced and traced, and the per-layer call
counts, self times and ratios are reported.  Each run prints its provenance,
the input digest and details as JSON lines, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

An item fails when it raises or when its output misses its tolerance.  A
run is ``correct`` when no output missed its tolerance by more than a factor
of 1000 and no item raised anything but the library's typed ``HodgeError``;
typed errors and near misses count as failures without making the run
incorrect.  The timed items are inputs on which the library answers today;
the inputs of its known defects are checked after the measured phase, and
the details line reports how many of them still fail (``known_defects``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import REF_SLICE_S
from tracer import STRUCTURE_METHODS, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fresh-structures", "orbit-limits", "variation-sweep")
# set-up is timed in this many fresh processes; orbit-limits has the longest
# set-up by far, and three keep its runs short
SETUP_SAMPLES = {"fresh-structures": 5, "orbit-limits": 3, "variation-sweep": 5}
DEADLINE_S = 170.0         # the whole run ends within this many seconds
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("HODGE_TOL", None)       # the library's default tolerance
    env.pop("PYTHONPATH", None)      # the worker imports src/ of this checkout
    # bytecode is cached as for any user; only the first process compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_worker(args, mode: str, deadline: float):
    """Start one worker; return (process, set-up seconds, digest).  A timer
    kills the worker if it is still running at the deadline.  Set-up time is
    wall time from the start of the process to its READY line, less the
    worker's reference slices, as (raw, at reference speed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    start = time.perf_counter()
    # unbuffered, so that reading the READY line reads nothing beyond it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            bufsize=0)
    proc.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    proc.watchdog.start()
    line = proc.stdout.readline().decode()
    setup_s = time.perf_counter() - start
    if not line.startswith("READY "):
        finish(proc)
        raise BenchError(f"{mode} worker failed during set-up (exit {proc.returncode})")
    _, digest, cal_s, cal_mean = line.split()
    raw = setup_s - float(cal_s)
    return proc, (raw, raw * REF_SLICE_S / float(cal_mean)), digest


def finish(proc) -> str:
    """Wait for the worker to end; return the rest of its output."""
    try:
        out = proc.stdout.read().decode()
        proc.wait()
    finally:
        proc.watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def last_json(out: str) -> dict:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def provenance() -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": tree_digest(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": module_version("numpy"),
        "mpmath": module_version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def module_version(name: str) -> str | None:
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version(name)
    except PackageNotFoundError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, deadline: float):
    setups, digests = [], []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        proc, setup_s, digest = start_worker(args, "setup", deadline)
        last_json(finish(proc))
        setups.append(setup_s)
        digests.append(digest)
    proc, setup_s, digest = start_worker(args, "measure", deadline)
    res = last_json(finish(proc))
    setups.append(setup_s)
    digests.append(digest)
    if res["passed"] == 0:
        raise BenchError("no item passed its check")
    metrics = {
        "setup_s": metric(statistics.median(ref for _, ref in setups), "s"),
        "goodput_items_per_s": metric(res["goodput_items_per_s"], "items/s"),
        "item_p50_ms": metric(res["item_p50_ms"], "ms"),
        "item_p90_ms": metric(res["item_p90_ms"], "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    details = {k: res[k] for k in ("attempted", "passed", "failed", "typed_errors",
                                   "inaccurate", "wrong",
                                   "unexpected", "errors", "pool", "pool_wraps", "wall_s",
                                   "samples_beyond_p90", "calibration_s", "host_speed",
                                   "raw_goodput_items_per_s", "raw_item_p50_ms",
                                   "raw_item_p90_ms")}
    details["error_rate"] = res["failed"] / res["attempted"]
    details["known_defects"] = res["known_defects"]
    details["setup_samples_raw_s"] = [raw for raw, _ in setups]
    details["setup_samples_ref_s"] = [ref for _, ref in setups]
    return res, metrics, details, digests


def run_traced(args, deadline: float):
    proc, setup_s, digest = start_worker(args, "trace", deadline)
    res = last_json(finish(proc))
    calls, self_s = res["calls"], res["self_s"]
    metrics = {}
    for name in metric_names():
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    structures = res["structures"]
    for name in STRUCTURE_METHODS:
        metrics[f"{name}.per_structure"] = metric(
            calls.get(name, 0) / structures if structures else 0.0, "calls/structure")
    rref = calls.get("linalg.rref_exact", 0) + calls.get("linalg.rref_float", 0)
    metrics["linalg.rref.exact_share"] = metric(
        calls.get("linalg.rref_exact", 0) / rref if rref else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = metric(res["overhead_ratio"], "ratio")
    metrics["error_rate"] = metric(res["failed"] / res["attempted"], "ratio")
    metrics["known_defects.failed"] = metric(res["known_defects"]["failed"], "count")
    details = {k: res[k] for k in ("passes", "block", "calls_repeat", "binding_sites",
                                   "missing", "errors", "failed", "pool", "structures",
                                   "known_defects")}
    details["setup_raw_s"], details["setup_ref_s"] = setup_s
    return res, metrics, details, [digest]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hodgeheight" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            res, metrics, details, digests = run_traced(args, deadline)
        else:
            res, metrics, details, digests = run_untraced(args, deadline)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wrong = (res["wrong"] + res.get("unexpected", 0) + res["warmup_wrong"]
             + res["known_defects"]["wrong"])
    digests_agree = len(set(digests)) == 1
    if args.trace:
        correct = wrong == 0 and digests_agree and res["calls_repeat"]
    else:
        correct = wrong == 0 and digests_agree
    print(json.dumps({"provenance": provenance()}, sort_keys=True))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "input_digest": digests[0], "digests_agree": digests_agree,
                      "details": details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
