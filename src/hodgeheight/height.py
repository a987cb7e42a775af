"""Signed heights of oriented mixed Hodge structures.

An orientation is a choice of rational generators for the rank-one top and
bottom weight-graded pieces.  The height is the coefficient, against the
bottom generator, of the deepest diagonal Hodge component of the splitting
applied to the canonical lift of the top generator:

    delta^{r,r}(e) = Ht * e_vee,    r = -length/2.

For structures with at most three nonzero weights (generalized biextensions)
the same number falls out of one conjugation:

    Ht * e_vee = (1/2) Im( Pi_min(e - conj e) ).

Heights depend on the orientation: scaling the bottom generator by c scales
the height by 1/c, which is why each scenario pins its own generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .config import default_tol
from .errors import (
    NotAMorphism,
    NotGeneralizedBiextension,
    NotInjectiveOnEnds,
    NotOriented,
    ZeroBottomPairing,
)
from .linalg import maxabs, quotient_coordinates
from .mhs import MixedHodgeStructure, conjugate, dual, is_morphism
from .splitting import deligne_delta


@dataclass(frozen=True)
class Orientation:
    top: np.ndarray     # represents the generator of Gr^W_max
    bottom: np.ndarray  # spans W_min

    @staticmethod
    def of(top, bottom) -> "Orientation":
        return Orientation(np.asarray(top, dtype=complex),
                           np.asarray(bottom, dtype=complex))


@dataclass(frozen=True)
class OrientedMHS:
    mhs: MixedHodgeStructure
    orientation: Orientation
    # per resolved tol: the read-only top lift, filled by top_lift
    _lifts: dict[float, np.ndarray] = field(default_factory=dict, init=False,
                                            compare=False, repr=False)

    @property
    def max_weight(self) -> int:
        return max(self.mhs.weights)

    @property
    def min_weight(self) -> int:
        return min(self.mhs.weights)

    @property
    def length(self) -> int:
        return self.max_weight - self.min_weight


def _check_oriented(om: OrientedMHS, tol: float) -> None:
    H = om.mhs
    wmax, wmin = om.max_weight, om.min_weight
    below_top = H.W.at(wmax - 1)
    if H.dim - below_top.dim != 1:
        raise NotOriented("top weight-graded piece is not of rank one")
    if H.W.at(wmin).dim != 1:
        raise NotOriented("bottom weight-graded piece is not of rank one")
    if wmax % 2 or wmin % 2:
        raise NotOriented("top and bottom weights must be even")
    top, bottom = om.orientation.top, om.orientation.bottom
    if maxabs(top) == 0 or maxabs(bottom) == 0:
        raise NotOriented("orientation generators must be nonzero")
    if below_top.contains_vector(top, tol):
        raise NotOriented("top generator projects to zero in the top graded piece")
    if not H.W.at(wmin).contains_vector(bottom, tol):
        raise NotOriented("bottom generator must span the lowest weight step")


def top_lift(om: OrientedMHS, tol: float | None = None) -> np.ndarray:
    """The unique element of I^{a,a} (2a = max weight) projecting to the top
    generator modulo lower weights; checked and computed once per resolved
    tol, and read-only because every caller shares it.

    The top weight piece is rank one, so it is I^{a,a}, and the other pieces
    span W_(max-1): the lift is the top weight projection of the generator."""
    tol = default_tol() if tol is None else tol
    if tol not in om._lifts:
        _check_oriented(om, tol)
        P = om.mhs.bigrading(tol).weight_projector(om.max_weight)
        e = P @ om.orientation.top
        e.setflags(write=False)
        om._lifts[tol] = e
    return om._lifts[tol]


def _coefficient_against_bottom(vector: np.ndarray, bottom: np.ndarray,
                                tol: float, scale: float) -> float:
    j = int(np.argmax(np.abs(bottom)))
    coeff = vector[j] / bottom[j]
    if maxabs(vector - coeff * np.asarray(bottom, dtype=complex)) > 100 * tol * max(scale, abs(coeff), 1.0):
        raise ZeroBottomPairing("extracted vector is not proportional to the bottom generator")
    if abs(coeff.imag) > 100 * tol * max(scale, abs(coeff), 1.0):
        raise ZeroBottomPairing("height coefficient has a nonreal part")
    return float(coeff.real)


def height(om: OrientedMHS, tol: float | None = None) -> float:
    """Signed height via the deepest diagonal component of the splitting.

    Its error is absolute, on the scale of the splitting, not of the height:
    for dilog fibers as |s| -> infinity, -D2(s) -> 0 and the error is ~1e-14."""
    tol = default_tol() if tol is None else tol
    H = om.mhs
    e = top_lift(om, tol)
    r = -(om.length // 2)
    if r == 0:
        return 0.0
    spl = deligne_delta(H, tol)
    block = spl.component(r, r)
    vec = block @ e
    return _coefficient_against_bottom(vec, om.orientation.bottom, tol,
                                       max(maxabs(vec), maxabs(spl.delta)))


def height_biextension(om: OrientedMHS, tol: float | None = None) -> float:
    """Fast path for structures with at most three nonzero weights."""
    tol = default_tol() if tol is None else tol
    H = om.mhs
    if len(H.weights) > 3:
        raise NotGeneralizedBiextension(
            f"{len(H.weights)} nonzero weights, at most three allowed")
    e = top_lift(om, tol)
    B = H.bigrading(tol)
    v = B.weight_projector(om.min_weight) @ (e - np.conj(e))
    half_im = (v - np.conj(v)) / 4j
    if maxabs(half_im) == 0.0:
        return 0.0
    return _coefficient_against_bottom(half_im, om.orientation.bottom, tol, maxabs(e))


def rho2(v: complex) -> float:
    """Im(v / (2 pi i)^2); the normalization identifying C/(2 pi i)^2 R with R."""
    return float((complex(v) / (2j * pi) ** 2).imag)


@dataclass
class FunctorialityReport:
    d_max: float
    d_min: float
    height_a: float
    height_b: float
    residual: float


def check_functoriality(f: np.ndarray, A: OrientedMHS, B: OrientedMHS,
                        tol: float | None = None) -> FunctorialityReport:
    """Verify ht(A) d_min(f) = ht(B) d_max(f) for a morphism f: A -> B that is
    injective on the top and bottom graded pieces."""
    tol = default_tol() if tol is None else tol
    f = np.asarray(f, dtype=complex)
    if A.max_weight != B.max_weight or A.min_weight != B.min_weight:
        raise NotAMorphism("top/bottom weights of source and target differ")
    if not is_morphism(f, A.mhs, B.mhs, tol):
        raise NotAMorphism("matrix does not respect both filtrations")
    _check_oriented(A, tol)
    _check_oriented(B, tol)

    # d_max: f(1_A) = d_max 1_B in the top graded piece, read as the ratio of
    # their one coordinate modulo W_(max-1), which 1_B does not lie in
    W = B.mhs.W
    image, top = quotient_coordinates(np.array([f @ A.orientation.top, B.orientation.top]),
                                      W.at(B.max_weight), W.at(B.max_weight - 1))
    d_max = image[0] / top[0]
    # d_min: f(bottom_A) = d_min bottom_B inside the rank-one bottom step
    img = f @ A.orientation.bottom
    d_min = _coefficient_against_bottom(img, B.orientation.bottom, tol, maxabs(img)) \
        if maxabs(img) > tol else 0.0
    if abs(d_max) <= tol or abs(d_min) <= tol:
        raise NotInjectiveOnEnds("morphism kills a graded end generator")
    if abs(d_max.imag) > 100 * tol * abs(d_max):
        raise NotAMorphism("top scaling factor is not real")
    d_max = float(d_max.real)
    ht_a = height(A, tol)
    ht_b = height(B, tol)
    return FunctorialityReport(d_max=d_max, d_min=d_min, height_a=ht_a, height_b=ht_b,
                               residual=abs(ht_a * d_min - ht_b * d_max))


# ---------------------------------------------------------------------------
# oriented functorial constructions


def dual_oriented(om: OrientedMHS, tol: float | None = None) -> OrientedMHS:
    """Dual structure with the pairing-normalized orientation
    <1_H, 1_H*^vee> = 1 and <1_H^vee, 1_H*> = 1, under which Ht flips sign."""
    tol = default_tol() if tol is None else tol
    H = om.mhs
    Hd = dual(H, tol)
    n = H.dim
    # top generator of the dual: a functional taking value 1 on the bottom
    bottom = om.orientation.bottom
    lam = np.conj(bottom) / np.vdot(bottom, bottom)
    # bottom generator of the dual: the annihilator line of W_{max-1}, scaled
    # to take value 1 on the top generator
    ann = H.W.at(om.max_weight - 1).annihilator(tol)
    if ann.dim != 1:
        raise NotOriented("dual bottom piece is not of rank one")
    mu = ann.basis[0]
    mu = mu / (mu @ om.orientation.top)
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
                  tol: float | None = None) -> OrientedMHS:
    """(exp(tN) . F, W) with the same orientation, for a lowering morphism N."""
    from .linalg import expm_nilpotent

    G = expm_nilpotent(complex(t) * np.asarray(N, dtype=complex))
    F = om.mhs.F.map_spaces(lambda s: s.image_under(G, tol))
    return OrientedMHS(MixedHodgeStructure(om.mhs.W, F), om.orientation)
