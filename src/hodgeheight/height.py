"""Signed heights of oriented mixed Hodge structures.

An orientation is a choice of rational generators for the rank-one top and
bottom weight-graded pieces.  The height is the coefficient, against the
bottom generator, of the deepest part of the splitting on the top generator:

    P_min delta P_max (top) = Ht * bottom,

P_k the projectors of a grading of W by weight: those of the bigrading for
height (the bottom piece is I^{c,c} alone, so this is delta^{r,r} on the top
lift, r = -length/2), those of the Deligne system's Y' for
limits.limit_height.  Both check the orientation against W first.

For structures with at most three nonzero weights (generalized biextensions)
the same number falls out of one conjugation:

    Ht * e_vee = (1/2) Im( Pi_min(e - conj e) ).

Heights depend on the orientation: scaling the bottom generator by c scales
the height by 1/c, which is why each scenario pins its own generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import pi
from typing import Mapping

import numpy as np

from .config import default_tol
from .errors import (
    NotAMorphism,
    NotGeneralizedBiextension,
    NotInjectiveOnEnds,
    NotOriented,
    ZeroBottomPairing,
)
from .linalg import maxabs
from .mhs import Filtration, MixedHodgeStructure, conjugate, dual, is_morphism
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
    # per resolved tol: the read-only top lift, filled by top_lift, and the
    # tolerances the orientation check has passed at (_check_oriented_once)
    _lifts: dict[float, np.ndarray] = field(default_factory=dict, init=False,
                                            compare=False, repr=False)
    _oriented: set[float] = field(default_factory=set, init=False,
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


def _check_oriented(W: Filtration, orientation: Orientation, tol: float) -> None:
    """Raise NotOriented unless the generators orient W."""
    wmin, wmax = W.indices[0], W.indices[-1]
    below_top = W.at(wmax - 1)
    if W.ambient_dim - below_top.dim != 1:
        raise NotOriented("top weight-graded piece is not of rank one")
    if W.at(wmin).dim != 1:
        raise NotOriented("bottom weight-graded piece is not of rank one")
    if wmax % 2 or wmin % 2:
        raise NotOriented("top and bottom weights must be even")
    top, bottom = orientation.top, orientation.bottom
    if maxabs(top) == 0 or maxabs(bottom) == 0:
        raise NotOriented("orientation generators must be nonzero")
    if below_top.contains_vector(top, tol):
        raise NotOriented("top generator projects to zero in the top graded piece")
    if not W.at(wmin).contains_vector(bottom, tol):
        raise NotOriented("bottom generator must span the lowest weight step")


def _check_oriented_once(om: OrientedMHS, tol: float) -> None:
    """_check_oriented on the structure's W, run once per resolved tol."""
    if tol not in om._oriented:
        _check_oriented(om.mhs.W, om.orientation, tol)
        om._oriented.add(tol)


def top_lift(om: OrientedMHS, tol: float | None = None) -> np.ndarray:
    """The unique element of I^{a,a} (2a = max weight) projecting to the top
    generator modulo lower weights; checked and computed once per resolved
    tol, and read-only because every caller shares it.

    The top weight piece is rank one, so it is I^{a,a}, and the other pieces
    span W_(max-1): the lift is the top weight projection of the generator."""
    tol = default_tol() if tol is None else tol
    if tol not in om._lifts:
        _check_oriented_once(om, tol)
        P = om.mhs.bigrading(tol).weight_projector(om.max_weight)
        e = P @ om.orientation.top
        e.setflags(write=False)
        om._lifts[tol] = e
    return om._lifts[tol]


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


def height(om: OrientedMHS, tol: float | None = None) -> float:
    """Signed height via the deepest part of the splitting.

    Its error is absolute, on the scale of the splitting, not of the height:
    for dilog fibers as |s| -> infinity, -D2(s) -> 0 and the error is ~1e-14."""
    tol = default_tol() if tol is None else tol
    top_lift(om, tol)  # the orientation check, once per resolved tol
    return _deep_coefficient(deligne_delta(om.mhs, tol).delta,
                             om.mhs.bigrading(tol).weight_projectors, om.orientation, tol)


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
    _check_oriented_once(A, tol)
    _check_oriented_once(B, tol)

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


# ---------------------------------------------------------------------------
# oriented functorial constructions


def dual_oriented(om: OrientedMHS, tol: float | None = None) -> OrientedMHS:
    """Dual structure with the pairing-normalized orientation
    <1_H, 1_H*^vee> = 1 and <1_H^vee, 1_H*> = 1, under which Ht flips sign."""
    tol = default_tol() if tol is None else tol
    H = om.mhs
    _check_oriented_once(om, tol)
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
                  tol: float | None = None) -> OrientedMHS:
    """(exp(tN) . F, W) with the same orientation, for a lowering morphism N."""
    from .linalg import expm_nilpotent

    G = expm_nilpotent(complex(t) * np.asarray(N, dtype=complex))
    F = om.mhs.F.map_spaces(lambda s: s.image_under(G, tol))
    return OrientedMHS(MixedHodgeStructure(om.mhs.W, F), om.orientation)
