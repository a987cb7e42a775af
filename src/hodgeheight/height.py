"""Signed heights of oriented mixed Hodge structures.

An orientation is a choice of rational generators for the rank-one top and
bottom weight-graded pieces.  The height is the coefficient, against the
bottom generator, of the deepest part of the splitting on the top generator:

    P_min delta P_max (top) = Ht * bottom,

P_k the projectors of a grading of W by weight: those of the bigrading for
height (the bottom piece is I^{c,c} alone, so this is delta^{r,r} on the top
lift, r = -length/2), those of the Deligne system's Y' for
limits.limit_height.  Both check the orientation against W first, on every
call: a cheap read of coordinates, so no check or top lift is cached.  On a
Hodge-Tate structure (mhs.Period) P is unit on the end blocks, so the read
is (1/2) Im L[bottom, top] against the generators' end coordinates in the
adapted basis T of W, and no entry of delta is formed.

For structures with at most three nonzero weights (generalized biextensions)
the same number falls out of one conjugation:

    Ht * e_vee = (1/2) Im( Pi_min(e - conj e) ).

Heights depend on the orientation: scaling the bottom generator by c scales
the height by 1/c, which is why each scenario pins its own generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Mapping

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    NotAMorphism,
    NotGeneralizedBiextension,
    NotInjectiveOnEnds,
    NotOriented,
    ZeroBottomPairing,
)
from .linalg import maxabs
from .mhs import Filtration, MixedHodgeStructure, is_morphism
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

    @property
    def max_weight(self) -> int:
        return max(self.mhs.weights)

    @property
    def min_weight(self) -> int:
        return min(self.mhs.weights)

    @property
    def length(self) -> int:
        return self.max_weight - self.min_weight


def _check_oriented(W: Filtration, orientation: Orientation, tol: float) -> None:
    """Raise NotOriented unless the generators orient W, read on the adapted
    basis of W: W_(max-1) is all coordinates but the last, W_min the first."""
    flag = W.adapted_basis()
    below_top = flag.dims[-2] if len(flag.dims) > 1 else 0
    if W.ambient_dim - below_top != 1:
        raise NotOriented("top weight-graded piece is not of rank one")
    if flag.dims[0] != 1:
        raise NotOriented("bottom weight-graded piece is not of rank one")
    if W.indices[-1] % 2 or W.indices[0] % 2:
        raise NotOriented("top and bottom weights must be even")
    top, bottom = orientation.top, orientation.bottom
    if np.shape(top) != (W.ambient_dim,) or np.shape(bottom) != (W.ambient_dim,):
        raise DimensionMismatch(f"orientation generators must have {W.ambient_dim} entries")
    if maxabs(top) == 0 or maxabs(bottom) == 0:
        raise NotOriented("orientation generators must be nonzero")
    if flag.depth(top, tol) <= below_top:
        raise NotOriented("top generator projects to zero in the top graded piece")
    if flag.depth(bottom, tol) > 1:
        raise NotOriented("bottom generator must span the lowest weight step")


def top_lift(om: OrientedMHS, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The element of I^{a,a} (2a = max weight) congruent to the top generator
    modulo W_(max-1), after the orientation check: the top weight piece is
    rank one, so it is I^{a,a}, and the lift is the generator's projection."""
    _check_oriented(om.mhs.W, om.orientation, tol)
    return om.mhs.bigrading(tol).weight_projectors[om.max_weight] @ om.orientation.top


def _coefficient_against_bottom(vector: np.ndarray, bottom: np.ndarray,
                                tol: float, scale: float) -> float:
    j = int(np.argmax(np.abs(bottom)))
    coeff = vector[j] / bottom[j]
    bound = 100 * tol * max(scale, abs(coeff), 1.0)
    # written as "not <=" so that a NaN vector fails both guards
    if not maxabs(vector - coeff * np.asarray(bottom, dtype=complex)) <= bound:
        raise ZeroBottomPairing("extracted vector is not proportional to the bottom generator")
    if not abs(coeff.imag) <= bound:
        raise ZeroBottomPairing("height coefficient has a nonreal part")
    return float(coeff.real)


def _deep_coefficient(delta: np.ndarray, projectors: Mapping[int, np.ndarray],
                      orientation: Orientation, tol: float) -> float:
    """The height read: P_min delta P_max on the top generator, against the
    bottom generator, for the projectors (weight -> P) of a grading of W."""
    lo, hi = min(projectors), max(projectors)
    vec = projectors[lo] @ delta @ projectors[hi] @ orientation.top
    return _coefficient_against_bottom(vec, orientation.bottom, tol,
                                       max(maxabs(vec), maxabs(delta)))


def height(om: OrientedMHS, tol: float = DEFAULT_TOL) -> float:
    """Signed height via the deepest part of the splitting.

    Its error is absolute, on the scale of the splitting, not of the height:
    for dilog fibers as |s| -> infinity, -D2(s) -> 0 and the error is ~1e-14."""
    _check_oriented(om.mhs.W, om.orientation, tol)
    B = om.mhs.bigrading(tol)
    if B.period is None:
        return _deep_coefficient(deligne_delta(om.mhs, tol).delta, B.weight_projectors,
                                 om.orientation, tol)
    return _period_height(B.period.L[0, -1], om.mhs.W, om.orientation, tol)


def _period_height(L_bt: complex, W: Filtration, orientation: Orientation, tol: float) -> float:
    """The height read off L[bottom, top] of a Hodge-Tate Period: P_min delta
    P_max = C E_min (-(i/2) L) E_max C^-1, C = T^T P, and P is unipotent with
    end blocks of rank one, so C[:, 0] = T[0] and C^-1[-1] = T^-T[-1]."""
    flag = W.adapted_basis()
    vec = -0.5j * L_bt * (orientation.top @ flag.inverse[:, -1]) * flag.T[0]
    return _coefficient_against_bottom(vec, orientation.bottom, tol, maxabs(vec))


def height_biextension(om: OrientedMHS, tol: float = DEFAULT_TOL) -> float:
    """Fast path for structures with at most three nonzero weights."""
    H = om.mhs
    if len(H.weights) > 3:
        raise NotGeneralizedBiextension(
            f"{len(H.weights)} nonzero weights, at most three allowed")
    e = top_lift(om, tol)
    B = H.bigrading(tol)
    v = B.weight_projectors[om.min_weight] @ (e - np.conj(e))
    half_im = (v - np.conj(v)) / 4j
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
                        tol: float = DEFAULT_TOL) -> FunctorialityReport:
    """Verify ht(A) d_min(f) = ht(B) d_max(f) for a morphism f: A -> B that is
    injective on the top and bottom graded pieces."""
    f = np.asarray(f, dtype=complex)
    if A.max_weight != B.max_weight or A.min_weight != B.min_weight:
        raise NotAMorphism("top/bottom weights of source and target differ")
    if not is_morphism(f, A.mhs, B.mhs, tol):
        raise NotAMorphism("matrix does not respect both filtrations")
    _check_oriented(A.mhs.W, A.orientation, tol)
    _check_oriented(B.mhs.W, B.orientation, tol)

    # d_max: f(1_A) = d_max 1_B in the top graded piece, read as the ratio of
    # their last coordinates c[n-1], c = v T^-1 for the adapted basis T of W:
    # the one coordinate modulo W_(max-1), which 1_B does not lie in
    last = B.mhs.W.adapted_basis().inverse[:, -1]
    d_max = (f @ A.orientation.top) @ last / (B.orientation.top @ last)
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

