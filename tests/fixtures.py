"""Seeded structures, oracles and helpers that only the tests use.

embed_into_padded builds a biextension together with its inclusion into the
same build with extra split middle coordinates; component_support names the
Hodge components of a splitting that are nonzero.  dual_oriented,
conjugate_oriented and rescale_fiber are the oriented functorial
constructions the height identities are checked on; mhs_to_doc writes a
structure document that the parsers read back, fraction_reading reads an
orbit document with a Fraction per rational entry (the oracle of the
parsers' int rows), and run_cli runs the command line in a fresh process.
mp_li2 and mp_bloch_wigner
evaluate the dilogarithm with mpmath at a chosen working precision, the
oracle for the double-precision hodgeheight.dilog.  general_route and
mp_hodge_tate_height are the oracles of Hodge-Tate structures, which the
library reads off their period matrix, and hodge_tate_orbits draws orbits
with a Hodge-Tate limit for them.  The generators that the benchmark also
draws from (random_spec, random_deligne_system, random_hodge_tate) stay in
the library.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

import mpmath
import numpy as np

import hodgeheight
from hodgeheight.biextension import BiextensionSpec, _mdim, assemble_delta, build_biextension
from hodgeheight.config import DEFAULT_TOL
from hodgeheight.errors import HodgeError
from hodgeheight.height import Orientation, OrientedMHS, _check_oriented
from hodgeheight.limits import NilpotentOrbit
from hodgeheight.linalg import Frame, Subspace, expm_nilpotent, maxabs
from hodgeheight.mhs import (DeligneBigrading, MixedHodgeStructure, conjugate, dual,
                             hodge_filtration, weight_filtration)
from hodgeheight.splitting import _solve_splitting, lowering_morphisms
from hodgeheight.variations import GammaPoly, LocalVariation

CATALAN = 0.915965594177219015054603514932384110774


def mp_li2(z: complex, precision_bits: int) -> complex:
    """mpmath evaluation; the principal branch matches ours off the cut.  On
    the cut [1, inf) the arg = -pi convention picks the limit from above."""
    with mpmath.workprec(precision_bits + 10):
        w = mpmath.mpc(z.real, z.imag)
        if z.imag == 0.0 and z.real > 1.0:
            w = mpmath.mpc(z.real, abs(mpmath.mpf(2) ** (-precision_bits - 5)))
        val = mpmath.polylog(2, w)
        return complex(val)


def mp_bloch_wigner(z: complex, precision_bits: int) -> float:
    """Im(Li2) + arg(1-z) log|z| at the given working precision, off the
    real axis."""
    with mpmath.workprec(precision_bits + 10):
        w = mpmath.mpc(z.real, z.imag)
        val = mpmath.im(mpmath.polylog(2, w)) + \
            mpmath.arg(1 - w) * mpmath.log(abs(w))
        return float(val)


def component_support(components: dict[tuple[int, int], np.ndarray],
                      tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
    """Keys of the components that are nonzero at the working tolerance."""
    scale = max([maxabs(m) for m in components.values()] + [1.0])
    return sorted(k for k, m in components.items() if maxabs(m) > tol * scale)


def embed_into_padded(om_spec: BiextensionSpec, extra: int = 1):
    """Inclusion of a built biextension into the same build with extra split
    middle coordinates: a morphism with d_max = d_min = 1 and equal heights."""
    two_a, b, two_c = om_spec.weights
    if b % 2:
        pad_type = ((b + 1) // 2, (b - 1) // 2)
    else:
        pad_type = (b // 2, b // 2)
    mids = dict(om_spec.middle)
    mids[pad_type] = mids.get(pad_type, 0) + extra
    middle_big = tuple(sorted(mids.items()))
    # place the small delta entries at the coordinates of the matching type
    # copies inside the (sorted) enlarged middle; padded columns stay zero
    skeleton = BiextensionSpec(weights=om_spec.weights, middle=middle_big,
                               delta1=(0.0,) * _mdim(middle_big),
                               delta2=(0.0,) * _mdim(middle_big), ht=om_spec.ht)
    small_cols = _type_positions(om_spec)
    big_cols = _type_positions(skeleton)
    d1 = np.zeros(skeleton.middle_dim)
    d2 = np.zeros(skeleton.middle_dim)
    n_a, n_b = om_spec.dim, skeleton.dim
    f = np.zeros((n_b, n_a))
    f[0, 0] = 1.0
    f[n_b - 1, n_a - 1] = 1.0
    for t, src_positions in small_cols.items():
        for s_i, dst in zip(src_positions, big_cols[t]):
            d1[dst] = om_spec.delta1[s_i]
            d2[dst] = om_spec.delta2[s_i]
            f[1 + dst, 1 + s_i] = 1.0
    big = BiextensionSpec(weights=om_spec.weights, middle=middle_big,
                          delta1=tuple(d1), delta2=tuple(d2), ht=om_spec.ht)
    A = build_biextension(om_spec)
    B = build_biextension(big)
    return f, A, B


def _type_positions(spec: BiextensionSpec) -> dict[tuple[int, int], list[int]]:
    pos: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(spec.coordinate_types):
        pos.setdefault(t, []).append(i)
    return pos


# ---------------------------------------------------------------------------
# oriented functorial constructions


def dual_oriented(om: OrientedMHS, tol: float = DEFAULT_TOL) -> OrientedMHS:
    """Dual structure with the pairing-normalized orientation
    <1_H, 1_H*^vee> = 1 and <1_H^vee, 1_H*> = 1, under which Ht flips sign."""
    H = om.mhs
    _check_oriented(H.W, om.orientation, tol)
    Hd = dual(H, tol)
    # top generator of the dual: a functional taking value 1 on the bottom
    bottom = om.orientation.bottom
    lam = np.conj(bottom) / np.vdot(bottom, bottom)
    # bottom generator of the dual: the annihilator line of W_{max-1}, the last
    # column of T^-1 (T the adapted basis of W), taking value 1 on the top generator
    mu = H.W.adapted_basis().inverse[:, -1]
    mu = mu / (om.orientation.top @ mu)
    return OrientedMHS(Hd, Orientation.of(lam, mu))


def conjugate_oriented(om: OrientedMHS) -> OrientedMHS:
    """Conjugate the structure the way a real form acts on everything at once:
    F is conjugated entrywise and the graded end generators pick up the signs
    (-1)^(max/2) and (-1)^(min/2) of the canonical rank-one generators.  With
    this convention Ht multiplies by (-1)^(length/2 + 1); keeping the rational
    generators fixed instead always flips the sign."""
    H = conjugate(om.mhs)
    smax = (-1) ** ((max(om.mhs.weights) // 2) % 2)
    smin = (-1) ** ((min(om.mhs.weights) // 2) % 2)
    return OrientedMHS(H, Orientation.of(smax * om.orientation.top,
                                         smin * om.orientation.bottom))


def rescale_fiber(om: OrientedMHS, N: np.ndarray, t: complex,
                  tol: float = DEFAULT_TOL) -> OrientedMHS:
    """(exp(tN) . F, W) with the same orientation, for a lowering morphism N."""
    G = expm_nilpotent(complex(t) * np.asarray(N, dtype=complex))
    F = om.mhs.F.map_spaces(lambda s: s.image_under(G, tol))
    return OrientedMHS(MixedHodgeStructure(om.mhs.W, F), om.orientation)


# ---------------------------------------------------------------------------
# oracles for Hodge-Tate structures


def general_route(H: MixedHodgeStructure, tol: float = DEFAULT_TOL):
    """The bigrading and splitting of H by the general route, also on a
    Hodge-Tate structure, which the library reads off its period matrix:
    the lattice's pieces and their frame (linalg.Frame.of), the axiom
    checks of validate and the residual verdict of
    splitting._solve_splitting, which raises NoConvergence."""
    comps = dict(H._component_candidates(tol)[0])
    frame = Frame.of({key: s.basis for key, s in comps.items()})
    assert sum(s.dim for s in comps.values()) == H.dim
    assert not H._axiom_failures(comps, frame, tol)
    B = DeligneBigrading(comps, H.dim, frame)
    return B, _solve_splitting(B, tol)



def mp_hodge_tate_height(v, z, s, P_inf=None, dps: int = 60) -> float:
    """The height of the fiber of the Hodge-Tate variation v at (z, s), at
    dps digits, from the variation's data alone: no step of the fiber is read.

    In the coordinates c = x T^-1 of the adapted basis T of W, which must be
    a permutation (W made of coordinate steps), L = log(conj(P_inf)^-1
    exp(-conj Gamma(s)) exp(2i sum_j Im(z_j) N_j) exp(Gamma(s)) P_inf), each
    exponential and the log a finite series, and the height is (1/2) Im
    L[0, n-1] times the ratio of the top generator's last coordinate to the
    bottom generator's first.  Gamma(s) is summed term by term at dps
    digits.  P_inf is the limit's period matrix in those coordinates, exact
    rational entries, unit on each weight block; None is a split limit."""
    n = v.dim
    T = v.W.adapted_basis().T.real
    assert set(np.abs(T).sum(axis=0)) == {1.0} and set(np.abs(T).sum(axis=1)) == {1.0}
    with mpmath.workdps(dps):
        def mat(A):
            return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in A])

        Tm = mat(T)

        def adapted(A):
            return Tm * A * Tm.T

        def conj(A):
            return A.apply(mpmath.conj)

        def exp(A):
            out, term = mpmath.eye(n), mpmath.eye(n)
            for k in range(1, n):
                term = term * A / k
                out += term
            return out

        svals = [mpmath.mpc(complex(x)) for x in np.atleast_1d(s)]
        gamma = mpmath.zeros(n, n)
        for expo, coeff in v.gamma.terms:
            mono = mpmath.fprod(x ** e for x, e in zip(svals, expo))
            gamma += mono * mat(coeff)
        iy = mpmath.zeros(n, n)
        for zj, N in zip(np.atleast_1d(z), v.nilpotents):
            iy += mpmath.mpc(0, 2 * complex(zj).imag) * mat(N)
        gamma, iy = adapted(gamma), adapted(iy)
        P = mpmath.eye(n) if P_inf is None else mat(P_inf)
        X = conj(P) ** -1 * exp(-conj(gamma)) * exp(iy) * exp(gamma) * P - mpmath.eye(n)
        L, power = mpmath.zeros(n, n), mpmath.eye(n)
        for k in range(1, n):
            power = power * X
            L += power * (mpmath.mpf((-1) ** (k + 1)) / k)
        top = mat([v.orientation.top]) * Tm.T
        bottom = mat([v.orientation.bottom]) * Tm.T
        return float(mpmath.im(L[0, n - 1]) / 2 * mpmath.re(top[0, n - 1] / bottom[0, 0]))


def hodge_tate_orbits(seed: int, count: int) -> list[tuple]:
    """count seeded (orbit, variation, P_inf) whose limit is Hodge-Tate by
    construction, no draw filtered through the library: F_inf is that of
    build_biextension with weights (0, -2, -4) and middle ((-1, -1), m), m
    in 1..3, so every Gr^W is of Hodge-Tate type, and N a positive integer
    combination of its lowering_morphisms, cut to the entries that lower W
    by two, so that the limit is (W, F_inf).  The variation is the orbit's
    N with Gamma = 0, and P_inf = exp(i delta) in the coordinates of the
    adapted basis T of W, the limit's period matrix, as mp_hodge_tate_height
    reads them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 4))
        spec = BiextensionSpec(weights=(0, -2, -4), middle=(((-1, -1), m),),
                               delta1=tuple(rng.normal(size=m)),
                               delta2=tuple(rng.normal(size=m)), ht=float(rng.normal()))
        om = build_biextension(spec)
        basis = lowering_morphisms(om.mhs)
        N = sum(int(c) * B for c, B in zip(rng.integers(1, 4, len(basis)), basis))
        # the null space leaves a rounding residue of about 1e-16 on entries
        # that do not lower W by two; it moves the height itself like y^2
        # (1.6e-7 relative at y = 1e3 on some draws), which is the data's
        # conditioning, not the route's, so N is cut to lower W by two
        weights = np.array([0] + [-2] * m + [-4])
        N = np.where(weights[:, None] <= weights - 2, N, 0.0)
        W, F = om.mhs.W, om.mhs.F
        T = W.adapted_basis().T.real
        out.append((NilpotentOrbit(W, N, F),
                    LocalVariation(W=W, F_inf=F, nilpotents=(N,), gamma=GammaPoly.zero(1),
                                   orientation=om.orientation),
                    T @ expm_nilpotent(1j * assemble_delta(spec)) @ T.T))
    return out


# ---------------------------------------------------------------------------
# serialization


def mhs_to_doc(H: MixedHodgeStructure, orientation: Orientation | None = None) -> dict:
    doc: dict[str, Any] = {
        "dimension": H.dim,
        "weight_filtration": [
            {"weight": k,
             "basis": [[_rat_str(x) for x in row] for row in _exact_rows(s)]}
            for k, s in H.W.steps
        ],
        "hodge_filtration": [
            {"level": p, "basis": [[_dump_complex(x) for x in row] for row in s.basis]}
            for p, s in H.F.steps
        ],
    }
    if orientation is not None:
        doc["orientation"] = {
            "top": [_rat_str(x) for x in np.real(orientation.top)],
            "bottom": [_rat_str(x) for x in np.real(orientation.bottom)],
        }
    return doc


def _exact_rows(s: Subspace):
    if s.is_exact():
        # the leading-one rows: each int row over its pivot entry
        return [[Fraction(x, row[p]) for x in row] for row, p in zip(s.exact, s.pivots)]
    if np.abs(np.imag(s.basis)).max(initial=0.0) > 0:
        raise HodgeError("weight filtration must be rational to serialize")
    return [[Fraction(float(x)).limit_denominator(10 ** 12) for x in row]
            for row in np.real(s.basis)]


def _rat_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    f = Fraction(float(x)).limit_denominator(10 ** 12)
    return str(f)


def _dump_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """`python -W error::RuntimeWarning -m hodgeheight.cli *argv` in a fresh
    process, in this process's environment updated by env, with the source
    tree of hodgeheight on PYTHONPATH ahead of any path env names there.  Its
    stdout and stderr come back as the text written, line ends untranslated."""
    extra = dict(env or {})
    src = str(Path(hodgeheight.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, extra.pop("PYTHONPATH", None)]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hodgeheight.cli",
                           *argv], env={**os.environ, **extra, "PYTHONPATH": path},
                          capture_output=True, timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout.decode("utf-8"),
                                       proc.stderr.decode("utf-8"))


def fraction_reading(doc: dict, tol: float = DEFAULT_TOL) -> tuple[NilpotentOrbit, Orientation]:
    """An orbit document read with a Fraction per rational entry, each W step
    spanned by Subspace.from_rows and N given as its Fraction rows: the
    orbit and orientation schemas.parse_orbit builds from int rows."""
    n = doc["dimension"]

    def fractions(rows):
        return [[Fraction(x) for x in row] for row in rows]

    W = weight_filtration([(step["weight"], Subspace.from_rows(fractions(step["basis"]), n, tol))
                           for step in doc["weight_filtration"]], n, tol)
    F = hodge_filtration([(step["level"], Subspace.from_rows(
        np.array([[complex(float(re), float(im)) for re, im in row] for row in step["basis"]],
                 dtype=complex), n, tol)) for step in doc["f_infinity"]], n, tol)
    o = doc.get("orientation")
    orientation = o and Orientation.of(*([float(x) for x in fractions([o[k]])[0]]
                                         for k in ("top", "bottom")))
    return NilpotentOrbit(W, fractions(doc["nilpotent"]), F, tol), orientation


# N = 0 + J3 (e1 -> e2 -> e3) on W of weights (0, 2, 2, 2), with F_inf of
# levels (0, 2, 1, 0) on e0 .. e3: the Jordan block of size 3 above the bottom
# weight has M = <e0, e3>, <e0, e2, e3>, all at 0, 2, 4, and the limit is a
# mixed Hodge structure
J3_DOC = {
    "dimension": 4,
    "weight_filtration": [
        {"weight": 0, "basis": [["1", "0", "0", "0"]]},
        {"weight": 2, "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
                                ["0", "0", "0", "1"]]}],
    "f_infinity": [
        {"level": 2, "basis": [[[0, 0], [1, 0], [0, 0], [0, 0]]]},
        {"level": 1, "basis": [[[0, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]]},
        {"level": 0, "basis": [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]],
                               [[0, 0], [0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]}],
    "nilpotent": [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"]],
}
