"""One workload process: set-up, then a timed or a traced phase.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --seconds S

MODE is ``setup`` (set up, report, exit), ``measure`` (closed loop over the
item pool for S seconds, tracing off) or ``trace`` (a fixed block of items,
alternately untraced and traced, until S seconds have passed).  After a
measured or traced phase the worker checks the known-defect inputs of
``workloads.defect_probe()``.  The process prints ``READY <digest>
<calibration seconds> <mean slice seconds>`` as soon as set-up is done, so
that the parent can time set-up from process start, and prints one JSON
object as its last line.  ``run.py`` starts this process; it is not meant
to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

import calibrate

CAL_SHARE = 0.2    # reference-slice time per second of item time
LOCAL_S = 0.1      # an item's speed comes from the slices this close to it
# During set-up a reference slice runs this long after the last one, from a
# timer, so that the slices cover the library import too; a slice takes
# 0.6-1 ms, about a fifth of this.
SETUP_SLICE_EVERY_S = 0.004
MIN_PASSED = 100   # so that p90 has at least 10 samples beyond it
# An output that misses its tolerance by at most this factor is inaccurate
# (a failure, like a typed error); beyond it, it is wrong (the run is not
# correct).
WRONG_FACTOR = 1e3

# reference slices from here to the end of set-up; only the interpreter
# start and the numpy import run before
SETUP_SLICES = calibrate.TimerSlices(SETUP_SLICE_EVERY_S)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hodgeheight.errors import HodgeError  # noqa: E402

import workloads  # noqa: E402


class Outcome:
    """Counts of one pass: attempted, passed, raised a typed error, returned
    a value outside its tolerance (inaccurate) or far outside it (wrong), or
    raised an unexpected exception."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.typed_errors = 0
        self.inaccurate = 0
        self.wrong = 0
        self.unexpected = 0
        self.errors: dict[str, int] = {}

    @property
    def failed(self) -> int:
        return self.typed_errors + self.inaccurate + self.wrong + self.unexpected

    def count_error(self, key: str) -> None:
        self.errors[key] = self.errors.get(key, 0) + 1


def run_item(item, outcome: Outcome) -> float | None:
    """Run and check one item; return the latency of its library calls when
    it passed, else None."""
    run, check = workloads.KINDS[item.kind]
    outcome.attempted += 1
    start = perf_counter()
    try:
        out = run(item.payload)
    except HodgeError as exc:
        outcome.typed_errors += 1
        outcome.count_error(f"{item.kind}:{type(exc).__name__}")
        return None
    except Exception as exc:  # any other exception is a wrong result
        outcome.unexpected += 1
        outcome.count_error(f"{item.kind}:{type(exc).__name__}")
        return None
    elapsed = perf_counter() - start
    miss = check(out, item.expected)
    if miss <= 1.0:
        outcome.passed += 1
        return elapsed
    if miss <= WRONG_FACTOR:
        outcome.inaccurate += 1
        outcome.count_error(f"{item.kind}:inaccurate")
    else:   # also NaN
        outcome.wrong += 1
        outcome.count_error(f"{item.kind}:wrong")
    return None


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


class TimedLoop:
    """Runs items one after another.  After each item, reference slices run
    until they have taken CAL_SHARE of the item time, so that they sample
    the host's speed in proportion to time."""

    def __init__(self):
        self.runs = []              # (start, end, latency or None)
        self.slice_at = []          # end time of each slice
        self.slice_cum = [0.0]      # cumulative slice time
        self._debt = 0.0

    def run(self, item, outcome: Outcome) -> None:
        t0 = perf_counter()
        latency = run_item(item, outcome)
        t1 = perf_counter()
        self.runs.append((t0, t1, latency))
        self._debt += CAL_SHARE * (t1 - t0)
        while self._debt > 0:
            d = calibrate.reference_slice()
            self.slice_at.append(perf_counter())
            self.slice_cum.append(self.slice_cum[-1] + d)
            self._debt -= d

    def scaled(self):
        """(item seconds, latency or None, speed) per item; multiplied by
        speed, a time is at reference speed.  The speed comes from the mean
        slice within LOCAL_S seconds of the item."""
        for t0, t1, latency in self.runs:
            lo = bisect_left(self.slice_at, t0 - LOCAL_S)
            # at least the slice that follows the item
            hi = max(bisect_left(self.slice_at, t1 + LOCAL_S), lo + 1)
            slices_s = self.slice_cum[hi] - self.slice_cum[lo]
            yield t1 - t0, latency, calibrate.REF_SLICE_S * (hi - lo) / slices_s

    def seconds(self) -> tuple[float, float]:
        """Item time, raw and at reference speed."""
        raw = ref = 0.0
        for item_s, _, speed in self.scaled():
            raw += item_s
            ref += item_s * speed
        return raw, ref


def measure(wl, seconds: float) -> dict:
    """Closed loop over the pool until `seconds` have passed and MIN_PASSED
    items have passed their checks (at most 4 * `seconds`)."""
    outcome = Outcome()
    items = wl.items
    loop = TimedLoop()
    start = perf_counter()
    deadline, last_call = start + seconds, start + 4 * seconds
    i = 0
    while perf_counter() < deadline or (outcome.passed < MIN_PASSED
                                        and perf_counter() < last_call):
        loop.run(items[i % len(items)], outcome)
        i += 1
    wall = perf_counter() - start

    lat, ref_lat = [], []
    for _, latency, speed in loop.scaled():
        if latency is not None:
            lat.append(latency)
            ref_lat.append(latency * speed)
    item_s, ref_item_s = loop.seconds()
    p90 = _p90(lat)
    return {
        "wall_s": wall,
        "attempted": outcome.attempted,
        "passed": outcome.passed,
        "failed": outcome.failed,
        "typed_errors": outcome.typed_errors,
        "inaccurate": outcome.inaccurate,
        "wrong": outcome.wrong,
        "unexpected": outcome.unexpected,
        "errors": outcome.errors,
        "pool_wraps": i // len(items),
        "calibration_s": loop.slice_cum[-1],
        "host_speed": ref_item_s / item_s,
        "raw_goodput_items_per_s": outcome.passed / item_s,
        "raw_item_p50_ms": statistics.median(lat) * 1e3,
        "raw_item_p90_ms": p90 * 1e3,
        "goodput_items_per_s": outcome.passed / ref_item_s,
        "item_p50_ms": statistics.median(ref_lat) * 1e3,
        "item_p90_ms": _p90(ref_lat) * 1e3,
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
    }


def trace(wl, seconds: float) -> dict:
    """Pairs of passes over a fixed block, untraced then traced, while
    another pair fits in `seconds`.  Self times and the overhead ratio are
    at reference speed, like the end-to-end times."""
    import tracer

    block = wl.items[: wl.trace_block]
    tr = tracer.Tracer(extra_modules=(workloads, sys.modules[__name__]))
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start + pair_s <= seconds:
        pair_start = perf_counter()
        plain, plain_loop = Outcome(), TimedLoop()
        for item in block:
            plain_loop.run(item, plain)
        traced, traced_loop = Outcome(), TimedLoop()
        tr.reset()
        tr.install()
        try:
            for item in block:
                traced_loop.run(item, traced)
            sites = tr.binding_sites
        finally:
            tr.remove()
        raw, ref = traced_loop.seconds()
        passes.append({
            "overhead_ratio": ref / plain_loop.seconds()[1],
            "calls": {k: v.calls for k, v in tr.stats.items()},
            "self_s": {k: v.self_s * ref / raw for k, v in tr.stats.items()},
            "structures": tr.structures,
            "failed": traced.failed,
            "wrong": traced.wrong + traced.unexpected + plain.wrong + plain.unexpected,
            "errors": traced.errors,
            "binding_sites": sites,
        })
        pair_s = perf_counter() - pair_start
    first = passes[0]
    return {
        "passes": len(passes),
        "block": len(block),
        "calls": first["calls"],
        "calls_repeat": all(p["calls"] == first["calls"] for p in passes),
        "self_s": {k: statistics.median(p["self_s"][k] for p in passes)
                   for k in first["self_s"]},
        "structures": first["structures"],
        "overhead_ratio": statistics.median(p["overhead_ratio"] for p in passes),
        "attempted": len(block),
        "failed": first["failed"],
        "wrong": sum(p["wrong"] for p in passes),
        "errors": first["errors"],
        "binding_sites": first["binding_sites"],
        "missing": tr.missing,
    }


def probe() -> dict:
    """Check the inputs of the known defects, untimed and untraced."""
    outcome = Outcome()
    for item in workloads.defect_probe():
        run_item(item, outcome)
    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "wrong": outcome.wrong + outcome.unexpected, "errors": outcome.errors}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    # set-up: the library import, the inputs and one warm-up item per kind,
    # with reference slices all through it that give the host's speed
    wl = workloads.build(args.workload, args.seed)
    warm = Outcome()
    for item in wl.warmup:
        run_item(item, warm)
    slices = SETUP_SLICES.stop()
    print(f"READY {wl.digest} {sum(slices)!r} {statistics.mean(slices)!r}", flush=True)

    result = {"digest": wl.digest, "pool": len(wl.items),
              "warmup_wrong": warm.wrong + warm.unexpected}
    if args.mode == "measure":
        result.update(measure(wl, args.seconds))
    elif args.mode == "trace":
        result.update(trace(wl, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode != "setup":
        result["known_defects"] = probe()
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
