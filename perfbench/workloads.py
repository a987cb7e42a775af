"""Seeded inputs, timed items and output checks of the three workloads.

Every input is generated here, in set-up, from the workload seed; the timed
items only call the library.  Each item is one ``Item(kind, payload,
expected)``; ``KINDS[kind]`` gives the function that runs it (the timed part)
and the function that checks its output against a value computed in set-up
(not timed).  Checks use plain numpy, never the library's own linear algebra,
so that they add no spans to a traced run.

Workloads (one closed-loop caller, items in a fixed cyclic order):

* ``fresh-structures``: seeded random biextensions (dim <= 6) built,
  validated, measured with both height paths and read back with
  ``extract_invariants``; every fourth item is a dilog-fiber scenario.
  Every structure is new.
* ``orbit-limits``: limit heights of the cubic orbit moved by exp(lambda N),
  parsed from its JSON document; relative weight filtration plus Deligne
  grading of permuted ``random_deligne_system`` inputs; limit heights of
  biextension orbits with a (-1,-1) lowering morphism as N.
* ``variation-sweep``: fibers along rays that share W, F_inf and N: the
  cubic-orbit ray y in [0.5, 55], ``random_hodge_tate`` asymptotics with
  y in [1, 10], and ``dilog_variation(60)`` fibers.

The timed pools hold only inputs on which the library answers today, so a
run fails no item.  Inputs on which it is known to fail make up
``defect_probe()``, which every run checks after its measured phase.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import pi

import numpy as np

import hodgeheight as hh
from hodgeheight.biextension import BiextensionSpec, random_spec
from hodgeheight.height import OrientedMHS
from hodgeheight.limits import NilpotentOrbit, random_deligne_system
from hodgeheight.linalg import expm_nilpotent
from hodgeheight.scenarios import cubic_orbit, scenario_dilog
from hodgeheight.schemas import parse_orbit
from hodgeheight.splitting import lowering_morphisms
from hodgeheight.variations import dilog_variation

WORKLOADS = ("fresh-structures", "orbit-limits", "variation-sweep")
INF = float("inf")

# Timed pools are sized well past what one run consumes today, so that a
# faster library still sees fresh inputs; the runner reports any wrap-around.
POOL_SIZE = {"fresh-structures": 4000, "orbit-limits": 450, "variation-sweep": 1800}
# Items per traced pass: a fixed count, so that call counts repeat exactly.
TRACE_BLOCK = {"fresh-structures": 120, "orbit-limits": 15, "variation-sweep": 48}

# The shapes of the inputs come from fixed streams, independent of --seed;
# the seed chooses every number in them.  An item's cost depends mostly on
# its shape, and shapes drawn per seed would make the cost of a run depend on
# the seed.  So: biextension weights and middle types follow a fixed
# random_spec stream (the seed draws the splitting blocks and the height);
# the base Deligne systems are a fixed catalogue (the seed draws the
# permutation of coordinates of each item); the Hodge-Tate variations are
# fixed (the seed draws the points of each ray).
SHAPE_SEED = 20070603
DELIGNE_CATALOGUE_SIZE = 8
# (ranks, library seed); (1,2,2,1) takes seed 3 because seed 2 is a known
# defect (PROBE_HT below)
HT_VARIATIONS = (((1, 2, 1), 1), ((1, 2, 1), 2), ((1, 2, 2, 1), 1), ((1, 2, 2, 1), 3),
                 ((1, 3, 1), 1), ((1, 3, 1), 2))
# the cubic ray is sampled one point per stratum of CUBIC_RAY in each block;
# it stops short of the frontier at y ~ 57.5, where fibers raise NotAnMHS
CUBIC_RAY = (0.5, 55.0)
CUBIC_STRATA = 20
# each Hodge-Tate variation is sampled likewise in [1, 10]; the cost of a
# point depends on y, and strata keep the mix of costs alike between runs
HT_STRATA = 10
# warm-up items come from this seed, so that set-up does the same work for
# every --seed
WARMUP_SEED = 0

# Known defects, checked after the measured phase of every run; each input
# fails at the seed commit.  The cubic ray past its frontier raises NotAnMHS;
# the (1,2,2,1) Hodge-Tate variation of library seed 2 has depth-one
# residuals of 1.4e-8 to 5.4e-8 at these points, against the 1e-9 asked for.
PROBE_CUBIC_Y = (60.0, 70.0, 80.0, 90.0, 100.0)
PROBE_HT = ((1, 2, 2, 1), 2)
PROBE_HT_Y = (2.95, 3.05, 3.1)


@dataclass
class Item:
    kind: str
    payload: object
    expected: object


@dataclass
class Workload:
    items: list[Item]
    warmup: list[Item]
    trace_block: int
    digest: str


# ---------------------------------------------------------------------------
# timed parts and their checks


def run_biextension(spec: BiextensionSpec):
    om = hh.build_biextension(spec)
    report = hh.validate(om.mhs)
    return (report.ok, hh.height(om), hh.height_biextension(om),
            hh.extract_invariants(om))


# Each check returns the output's error as a multiple of its tolerance:
# at most 1 passes, inf marks a structural mismatch.


def check_biextension(out, spec: BiextensionSpec) -> float:
    ok, h1, h2, back = out
    if not ok or back.weights != spec.weights or back.middle != spec.middle:
        return INF
    err = max(abs(h1 - spec.ht), abs(h2 - spec.ht), abs(back.ht - spec.ht),
              _maxdiff(back.delta1, spec.delta1), _maxdiff(back.delta2, spec.delta2))
    return err / 1e-9


def run_dilog_scenario(s: complex):
    r = scenario_dilog(s)
    return r.height_general, r.height_biextension


def check_dilog_scenario(out, expected: float) -> float:
    return max(abs(h - expected) for h in out) / 1e-9


def run_cubic_limit(text: str):
    orbit, orient = parse_orbit(json.loads(text))
    return hh.limit_height(orbit, orient)


def check_cubic_limit(value, expected: float) -> float:
    return abs(value - expected) / 1e-10


def run_biextension_limit(payload):
    spec, N = payload
    om = hh.build_biextension(spec)
    orbit = NilpotentOrbit(om.mhs.W, N, om.mhs.F)
    return hh.limit_height(orbit, om.orientation)


def run_deligne(payload):
    W, N, Y = payload
    return hh.relative_weight_filtration(N, W), hh.deligne_system_grading(W, N, Y)


def check_deligne(out, expected) -> float:
    """M is the eigenvalue filtration of Y, the bracket identities hold to
    1e-10, and Y' is the base system's Y' in the permuted coordinates."""
    M, ds = out
    m_ref, yprime_ref = expected
    if M.indices != sorted(m_ref) or not all(
            _same_span(M.at(k).basis, rows) for k, rows in m_ref.items()):
        return INF
    N, Y, Yp = ds.N, ds.Y, ds.Yprime
    N0, H, N0p = ds.sl2
    comps = ds.N_components
    brackets = [Y @ Yp - Yp @ Y,
                sum(comps.values()) - N if comps else N,
                H @ N0 - N0 @ H + 2 * N0,
                N0p @ N0 - N0 @ N0p - H,
                H @ N0p - N0p @ H - 2 * N0p,
                (N - N0) @ N0p - N0p @ (N - N0)]
    brackets += [Yp @ part - part @ Yp + j * part for j, part in comps.items()]
    return max(max(_maxabs(b) for b in brackets) / 1e-10,
               _maxabs(Yp - yprime_ref) / (1e-9 * max(1.0, _maxabs(yprime_ref))))


def run_cubic_fiber(payload):
    orbit, orient, y = payload
    return hh.height(OrientedMHS(orbit.fiber(1j * y), orient))


def check_relative(value, expected: float) -> float:
    return abs(value - expected) / (1e-9 * abs(expected))


def run_dilog_variation(payload):
    v, z, s = payload
    return hh.height(OrientedMHS(hh.fiber(v, [z], [s]), v.orientation))


def check_absolute(value, expected: float) -> float:
    return abs(value - expected) / 1e-9


def run_asymptotics(payload):
    v, points = payload
    return hh.check_asymptotics(v, points)


def check_asymptotics_report(report, expected: int) -> float:
    if len(report.points) != expected:
        return INF
    return max(p.identity_residual for p in report.points) / 1e-9


KINDS = {
    "biextension": (run_biextension, check_biextension),
    "dilog-scenario": (run_dilog_scenario, check_dilog_scenario),
    "cubic-limit": (run_cubic_limit, check_cubic_limit),
    "biextension-limit": (run_biextension_limit, check_absolute),
    "deligne-system": (run_deligne, check_deligne),
    "cubic-fiber": (run_cubic_fiber, check_relative),
    "dilog-variation": (run_dilog_variation, check_absolute),
    "ht-asymptotics": (run_asymptotics, check_asymptotics_report),
}


def _maxdiff(a, b) -> float:
    if len(a) != len(b):
        return INF
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _maxabs(A) -> float:
    A = np.asarray(A)
    return float(np.abs(A).max()) if A.size else 0.0


def _rank(A: np.ndarray) -> int:
    sv = np.linalg.svd(A, compute_uv=False)
    return int((sv > 1e-8 * max(1.0, sv.max(initial=0.0))).sum())


def _same_span(A, B) -> bool:
    """Row spans agree; the references carry rounding of order 1e-15."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    return _rank(A) == _rank(B) == _rank(np.vstack([A, B]))


# ---------------------------------------------------------------------------
# generators (set-up only)


def _rng(seed: int, stream: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, key])


def _dilog_s(rng: np.random.Generator) -> complex:
    """Fiber parameter in the range of acceptance criterion 3."""
    while True:
        s = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(s) < 0.9 and abs(s.imag) >= 0.05:
            return s


def _spec(shapes: np.random.Generator, rng: np.random.Generator) -> BiextensionSpec:
    """A random_spec with its shape from the shape stream and its splitting
    blocks and height drawn from rng (dimension at most 6)."""
    shape = random_spec(shapes, max_middle=4)
    return BiextensionSpec(
        weights=shape.weights, middle=shape.middle,
        delta1=tuple(float(rng.normal()) if x else 0.0 for x in shape.delta1),
        delta2=tuple(float(rng.normal()) if x else 0.0 for x in shape.delta2),
        ht=float(rng.normal()))


def _shapes(stream: str) -> np.random.Generator:
    return _rng(SHAPE_SEED, stream)


def _fresh_items(rng: np.random.Generator, count: int, shapes) -> list[Item]:
    items = []
    for i in range(count):
        if i % 4 == 3:
            s = _dilog_s(rng)
            items.append(Item("dilog-scenario", s, -hh.bloch_wigner(s)))
        else:
            spec = _spec(shapes, rng)
            items.append(Item("biextension", spec, spec))
    return items


def _orbit_doc(orbit, orient, lam: complex) -> str:
    """JSON document of the cubic orbit with F_inf moved by exp(lam N)."""
    G = expm_nilpotent(lam * orbit.N)
    F = orbit.F_inf.map_spaces(lambda sp: sp.image_under(G))
    doc = {
        "dimension": orbit.dim,
        "weight_filtration": [
            {"weight": k, "basis": [[str(Fraction(x)) for x in row] for row in s.exact]}
            for k, s in orbit.W.steps],
        "f_infinity": [
            {"level": p, "basis": [[[x.real, x.imag] for x in row] for row in s.basis]}
            for p, s in F.steps],
        "nilpotent": [[str(int(x)) for x in row] for row in np.real(orbit.N)],
        "orientation": {"top": [str(int(x.real)) for x in orient.top],
                        "bottom": [str(int(x.real)) for x in orient.bottom]},
    }
    return json.dumps(doc, sort_keys=True)


def _eigen_filtration(Y: np.ndarray) -> dict[int, np.ndarray]:
    """M_k = span of the eigenvectors of Y with eigenvalue <= k (Y is
    diagonalizable with integer eigenvalues)."""
    n = Y.shape[0]
    evs = sorted({int(round(x.real)) for x in np.linalg.eigvals(Y)})
    out, rows = {}, []
    for mu in evs:
        _, sv, vh = np.linalg.svd(Y - mu * np.eye(n))
        rank = int((sv > 1e-9 * max(1.0, sv[0])).sum())
        rows.extend(vh[rank:].conj())
        out[mu] = np.array(rows)
    return out


def _integral(A: np.ndarray) -> np.ndarray:
    """The integer matrix that A approximates.  The generator conjugates
    integer matrices by a unimodular integer matrix through a float inverse,
    which can leave ~1e-15 noise; without it the input is rational and takes
    the exact path this workload is meant to exercise."""
    R = np.round(np.real(A))
    if np.abs(A - R).max(initial=0.0) > 1e-9:
        raise ValueError("generator returned a non-integral matrix")
    return R


def _deligne_catalogue():
    rng = _shapes("deligne-catalogue")
    out = []
    for _ in range(DELIGNE_CATALOGUE_SIZE):
        W, N, Y = random_deligne_system(rng, max_dim=6)
        N, Y = _integral(N), _integral(Y)
        ds = hh.deligne_system_grading(W, N, Y)
        out.append((W, N, Y, _eigen_filtration(Y), ds.Yprime))
    return out


def _permuted_system(rng: np.random.Generator, base) -> Item:
    """A base system in permuted coordinates, with its references moved
    along; a permutation keeps the entries of the generator's output."""
    W, N, Y, m_ref, yprime = base
    P = np.eye(W.ambient_dim)[rng.permutation(W.ambient_dim)]
    W2 = W.map_spaces(lambda sp: sp.image_under(P))
    m2 = {k: rows @ P.T for k, rows in m_ref.items()}
    return Item("deligne-system", (W2, P @ N @ P.T, P @ Y @ P.T), (m2, P @ yprime @ P.T))


def _orbit_items(rng: np.random.Generator, count: int, shapes, catalogue) -> list[Item]:
    orbit, orient = cubic_orbit()
    items = []
    for i in range(count):
        if i % 3 == 0:
            lam = complex(rng.normal(), rng.normal())
            items.append(Item("cubic-limit", _orbit_doc(orbit, orient, lam), 0.0))
        elif i % 3 == 1:
            spec = _spec(shapes, rng)
            basis = lowering_morphisms(hh.build_biextension(spec).mhs)
            coeffs = rng.integers(1, 3, size=min(2, len(basis)))
            N = sum(int(c) * basis[j] for j, c in enumerate(coeffs))
            items.append(Item("biextension-limit", (spec, N), spec.ht))
        else:
            items.append(_permuted_system(rng, catalogue[(i // 3) % len(catalogue)]))
    return items


def _sweep_items(rng: np.random.Generator, count: int) -> list[Item]:
    orbit, orient = cubic_orbit()
    dv = dilog_variation(60)
    variations = [hh.random_hodge_tate(ranks, 1, seed=s) for ranks, s in HT_VARIATIONS]
    strata = []
    ht_strata = [[] for _ in variations]
    items = []
    n_ht = 0
    # kinds cycle cubic, HT, HT, dilog, HT, HT.  Item latencies form one
    # cluster per kind and rank tuple; with this mix p50 falls inside the
    # joint cluster of the (1,2,1) and (1,3,1) variations and p90 inside the
    # costliest, (1,2,2,1), rather than on the edge of one, where a
    # percentile would jump between runs
    for i in range(count):
        if i % 6 == 0:
            if not strata:
                strata = list(rng.permutation(CUBIC_STRATA))
            lo, hi = CUBIC_RAY
            y = lo + (hi - lo) * (strata.pop() + float(rng.uniform())) / CUBIC_STRATA
            items.append(Item("cubic-fiber", (orbit, orient, y), -(2.0 / 3.0) * y ** 3))
        elif i % 6 == 3:
            r = float(np.exp(rng.uniform(np.log(0.05), np.log(0.7))))
            while True:
                theta = rng.uniform(-pi, pi)
                if abs(np.sin(theta)) * r >= 0.05:
                    break
            s = complex(r * np.cos(theta), r * np.sin(theta))
            z = complex(np.log(s) / (2j * pi))
            items.append(Item("dilog-variation", (dv, z, s),
                              hh.bloch_wigner(s) / (4 * pi ** 2)))
        else:
            k = n_ht % len(variations)
            n_ht += 1
            ys = []
            for _ in range(2):
                if not ht_strata[k]:
                    ht_strata[k] = list(rng.permutation(HT_STRATA))
                ys.append(1.0 + 9.0 * (ht_strata[k].pop() + float(rng.uniform())) / HT_STRATA)
            ys.sort()
            v = variations[k]
            points = [([1j * y], [np.exp(-2 * pi * y)]) for y in ys]
            items.append(Item("ht-asymptotics", (v, points), len(points)))
    return items


def defect_probe() -> list[Item]:
    """The fixed inputs of the known defects, independent of the seed."""
    orbit, orient = cubic_orbit()
    items = [Item("cubic-fiber", (orbit, orient, y), -(2.0 / 3.0) * y ** 3)
             for y in PROBE_CUBIC_Y]
    v = hh.random_hodge_tate(PROBE_HT[0], 1, seed=PROBE_HT[1])
    items += [Item("ht-asymptotics", (v, [([1j * y], [np.exp(-2 * pi * y)])]), 1)
              for y in PROBE_HT_Y]
    return items


def build(name: str, seed: int) -> Workload:
    if name == "fresh-structures":
        items = _fresh_items(_rng(seed, name), POOL_SIZE[name], _shapes(name))
        warmup = _fresh_items(_rng(WARMUP_SEED, name + "/warmup"), 4,
                              _shapes(name + "/warmup"))[2:]
    elif name == "orbit-limits":
        catalogue = _deligne_catalogue()
        items = _orbit_items(_rng(seed, name), POOL_SIZE[name], _shapes(name), catalogue)
        warmup = _orbit_items(_rng(WARMUP_SEED, name + "/warmup"), 3, _shapes(name + "/warmup"),
                              catalogue)
    elif name == "variation-sweep":
        items = _sweep_items(_rng(seed, name), POOL_SIZE[name])
        warmup = _sweep_items(_rng(WARMUP_SEED, name + "/warmup"), 3)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(items, warmup, TRACE_BLOCK[name], input_digest(items))


# ---------------------------------------------------------------------------
# input digest


def input_digest(items: list[Item]) -> str:
    """sha256 of every generated input and reference, in pool order."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.kind.encode())
        _feed(h, item.payload)
        _feed(h, item.expected)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj, dtype=complex)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    elif isinstance(obj, dict):
        for k in sorted(obj):
            _feed(h, k)
            _feed(h, obj[k])
    elif isinstance(obj, (str, int, float, complex, np.number, Fraction)):
        h.update(repr(obj).encode())
    elif isinstance(obj, BiextensionSpec):
        _feed(h, (obj.weights, obj.middle, obj.delta1, obj.delta2, obj.ht))
    elif hasattr(obj, "steps") and hasattr(obj, "increasing"):   # Filtration
        _feed(h, [(k, s.basis) for k, s in obj.steps])
    elif hasattr(obj, "F_inf"):              # NilpotentOrbit or LocalVariation
        _feed(h, (obj.W, obj.F_inf, getattr(obj, "N", None),
                  getattr(obj, "nilpotents", None),
                  [t for t in getattr(getattr(obj, "gamma", None), "terms", ())]))
    elif hasattr(obj, "top") and hasattr(obj, "bottom"):   # Orientation
        _feed(h, (obj.top, obj.bottom))
    elif obj is None:
        h.update(b"None")
    else:
        raise TypeError(f"no digest rule for {type(obj).__name__}")
