"""Command-line front end.

    hodgeheight validate FILE
    hodgeheight compute FILE --what {bigrading,delta,height,limit-height}
    hodgeheight scenario NAME [params] [--format {json,csv}]
    hodgeheight sweep FILE --z-start Z --z-end Z --count N

Global flags, before or after the subcommand: --tol, --out.  An orbit file
is read as the variation of its one N with Gamma = 0 (schemas.parse_variation):
validate checks its limit (a limit that is no MHS is a failure of the
report), compute and sweep its fibers at z_j = z and s_j = e^{2 pi i z}.

Exit codes, mapped once in main: 0 success; 1 for any HodgeError (a
structure that fails an axiom, a document that lacks a key or holds a
malformed entry, a file of the wrong kind); 2 for NoConvergence, a numerical
tolerance failure; 3 for a file that is missing, unreadable or not JSON.
Bad arguments, including a malformed number for a complex parameter, a --tol
that is not a finite positive number and a --count below 1, are usage
errors: argparse prints the usage and exits with status 2.  Every decision
of a command, from the document parse on, is taken at --tol (default 1e-9).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .config import DEFAULT_TOL
from .errors import HodgeError, LengthTooSmall, NoConvergence, NotAnMHS, NotHodgeTate
from .height import OrientedMHS, height
from .limits import limit_height
from .schemas import (
    detect_kind,
    dumps,
    load,
    parse_mhs,
    parse_orientation,
    parse_variation,
)
from .splitting import deligne_delta
from . import scenarios
from .variations import LocalVariation, check_asymptotics, fiber, height_sweep

OK, FAIL, NUMERICAL, IOERR = 0, 1, 2, 3


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_csv(args, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    _emit(args, buf.getvalue().rstrip("\n"))


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _read(args, needs: str | None = None, orientation: bool = True):
    """(object, orientation or None) of the file at --tol: a LocalVariation for
    an orbit or variation file (schemas.parse_variation), which the command
    named by needs requires, oriented; else a MixedHodgeStructure, whose
    orientation orientation=False leaves unread."""
    doc = load(args.path)
    if detect_kind(doc) == "mhs":
        if needs is not None:
            raise HodgeError(f"{needs} needs an orbit or variation file")
        return parse_mhs(doc, args.tol), parse_orientation(doc) if orientation else None
    v = parse_variation(doc, args.tol)
    if needs is not None and v.orientation is None:
        raise HodgeError("orbit file has no orientation")
    return v, v.orientation


def _points(v: LocalVariation, zs) -> list:
    """The points z_j = z, s_j = e^{2 pi i z} of a variation, as Python complex."""
    k = len(v.nilpotents)
    return [([z] * k, [complex(np.exp(2j * np.pi * z))] * k) for z in zs]


def cmd_validate(args) -> int:
    obj, _ = _read(args, orientation=False)
    try:
        H = obj.limit_structure(args.tol) if isinstance(obj, LocalVariation) else obj
        ok, failures = (report := H.validate(args.tol)).ok, report.failures
    except NotAnMHS as exc:   # the axioms the limit fails, which limits.limit_mhs raises
        ok, failures = False, [f"the limit (M(N, W), F_inf) is not a mixed Hodge structure: {exc}"]
    _emit(args, dumps({"ok": ok, "failures": failures}))
    return OK if ok else FAIL


def cmd_compute(args) -> int:
    if args.what == "limit-height":
        v, orient = _read(args, "limit-height")
        _emit(args, dumps({"limit_height": limit_height(v.cone, orient, args.tol)}))
        return OK
    obj, orient = _read(args)
    H = fiber(obj, *_points(obj, [args.z])[0], args.tol) if isinstance(obj, LocalVariation) else obj
    if args.what == "bigrading":
        B = H.bigrading(args.tol)
        comps = {f"{p},{q}": [[[x.real, x.imag] for x in row] for row in B.components[(p, q)].basis]
                 for (p, q) in sorted(B.components)}
        _emit(args, dumps({"components": comps}))
    elif args.what == "delta":
        spl = deligne_delta(H, args.tol)
        _emit(args, dumps({"delta": [[float(x) for x in row] for row in spl.delta],
                           "residual": spl.residual}))
    else:
        if orient is None:
            raise HodgeError("height needs an orientation")
        _emit(args, dumps({"height": height(OrientedMHS(H, orient), args.tol)}))
    return OK


def _scenario_rows(name: str, args) -> tuple[list[tuple[str, float, float]], bool]:
    """Rows of (label, computed, expected); second value reports overall pass."""
    tol = args.tol
    if name == "dilog":
        r = scenarios.scenario_dilog(args.s, tol)
        rows = [("height_general", r.height_general, r.expected),
                ("height_biextension", r.height_biextension, r.expected)]
        return rows, r.bigrading_ok and all(abs(c - e) <= 1e-9 for _, c, e in rows)
    if name == "orbit6iii":
        r = scenarios.scenario_orbit6iii(args.z, tol)
        rows = [("fiber_height", r.fiber_height, r.expected_fiber),
                ("limit_height", r.limit_height, 0.0)]
        return rows, all(abs(c - e) <= 1e-9 for _, c, e in rows)
    if name == "family":
        r = scenarios.scenario_family(args.t)
        rows = [("height", r.height, r.reduced_form),
                ("closed_form", r.closed_form, r.reduced_form)]
        ok = all(abs(c - e) <= 1e-9 for _, c, e in rows)
        for label, val in sorted(r.limit_values.items()):
            rows.append((f"limit[{label}]", val, 0.0))
            ok = ok and abs(val) < 1e-4
        return rows, ok
    if name == "dim0":
        r = scenarios.scenario_dim0(args.a, args.b, tol)
        rows = [("height", r.height, 0.0),
                ("delta1[0]", r.extracted.delta1[0], r.spec.delta1[0]),
                ("delta1[1]", r.extracted.delta1[1], r.spec.delta1[1])]
        return rows, r.roundtrip_ok and abs(r.height) <= 1e-9
    if name == "triangle":
        T = scenarios.TriangleData(
            a=tuple(args.a_coeffs), b=tuple(args.b_coeffs), c=tuple(args.c_coeffs),
            alpha=args.alpha, beta=args.beta)
        r = scenarios.scenario_triangle(T, tol)
        rows = [("ht_nine", r.ht_nine, r.ht_six),
                ("ht_six", r.ht_six, r.ht_nine),
                ("machinery_height", r.machinery_height, r.ht_nine)]
        return rows, r.consistent and r.roundtrip_ok and \
            abs(r.machinery_height - r.ht_nine) <= 1e-9
    raise HodgeError(f"unknown scenario {name!r}")


def cmd_scenario(args) -> int:
    rows, ok = _scenario_rows(args.name, args)
    if args.format == "json":
        doc = {"scenario": args.name, "pass": ok,
               "rows": [{"label": l, "computed": c, "expected": e} for l, c, e in rows]}
        _emit(args, dumps(doc))
    else:
        _emit_csv(args, ["label", "computed", "expected"],
                  [[l, _fmt(c), _fmt(e)] for l, c, e in rows])
    if not ok:
        print("scenario mismatch", file=sys.stderr)
    return OK if ok else FAIL


def cmd_sweep(args) -> int:
    v, _ = _read(args, "sweep")
    z0, z1 = args.z_start, args.z_end
    pts = _points(v, [z0 + (z1 - z0) * t for t in np.linspace(0.0, 1.0, args.count).tolist()])
    try:
        report = check_asymptotics(v, pts, args.tol)
        rows = [(complex(p.z[0]).imag, p.height, p.identity_residual) for p in report.points]
    except (NotHodgeTate, LengthTooSmall):
        rows = [(p, h, float("nan")) for p, h in height_sweep(v, pts, args.tol)]
    _emit_csv(args, ["param", "height", "identity_residual"],
              [[_fmt(p), _fmt(h), "" if np.isnan(r) else _fmt(r)] for p, h, r in rows])
    return OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_global_flags(ap: argparse.ArgumentParser, suppress: bool) -> None:
    def default(value):
        return argparse.SUPPRESS if suppress else value

    ap.add_argument("--tol", type=float, default=default(DEFAULT_TOL),
                    help="comparison tolerance, finite and positive")
    ap.add_argument("--out", default=default(None),
                    help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand; the
    # subcommand copies use SUPPRESS defaults so they only override when given
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)

    ap = argparse.ArgumentParser(prog="hodgeheight",
                                 description="heights and splittings of mixed Hodge structures")
    _add_global_flags(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure file", parents=[common])
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compute", help="bigrading, delta or heights from a file",
                       parents=[common])
    p.add_argument("path")
    p.add_argument("--what", required=True,
                   choices=["bigrading", "delta", "height", "limit-height"])
    p.add_argument("--z", type=complex, default=2j,
                   help="fiber parameter for orbit/variation files")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("scenario", help="run a named worked example", parents=[common])
    p.add_argument("name", choices=["dilog", "triangle", "family", "dim0", "orbit6iii"])
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--s", type=complex, default=0.5 + 0.5j)
    p.add_argument("--z", type=complex, default=1j)
    p.add_argument("--t", type=complex, default=-1j)
    p.add_argument("--a", type=complex, default=2)
    p.add_argument("--b", type=complex, default=3)
    p.add_argument("--a-coeffs", type=complex, nargs=3, default=[1, 2j, 1])
    p.add_argument("--b-coeffs", type=complex, nargs=3, default=[1, 1, 2j])
    p.add_argument("--c-coeffs", type=complex, nargs=3, default=[2j, 1, 1])
    p.add_argument("--alpha", type=complex, default=1)
    p.add_argument("--beta", type=complex, default=1)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("sweep", help="heights along a ray in z-space (CSV)",
                       parents=[common])
    p.add_argument("path")
    p.add_argument("--z-start", type=complex, default=0.5j)
    p.add_argument("--z-end", type=complex, default=5j)
    p.add_argument("--count", type=_positive_int, default=10)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        ap.error(f"the tolerance must be finite and positive, got {args.tol}")
    try:
        return args.func(args)
    except NoConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL
    except HodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IOERR


if __name__ == "__main__":
    sys.exit(main())
