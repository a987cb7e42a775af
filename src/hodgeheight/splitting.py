"""The splitting operator delta of a mixed Hodge structure.

delta is the unique real endomorphism, with all Hodge components in bidegrees
(a, b) with a < 0 and b < 0, conjugating the grading Y onto its complex
conjugate:

    conj(Y) = Ad(exp(-2i delta)) Y.

The solver runs a fixed-point iteration on the nilpotent group element w with
Ad(exp(w)) Y = conj(Y), peeling the mismatch depth by depth along the ad-Y
eigenvalues (all <= -1 on the relevant subalgebra, so each depth is solvable
by division); nilpotency makes the iteration terminate after at most the
weight span.  Realness, the bidegree constraint and the defining relation are
verified post hoc, once, by _solve_splitting: an iteration that stops short
of the relation fails that check, so the splitting has one NoConvergence
verdict.  An iterate that overflows to inf or NaN stays non-finite, so the
iteration raises that verdict at the first one.  The inverse of exp(w) is
exp(-w), so no matrix is inverted.  Both splittings of a matrix by degree
come from linalg.graded_parts over projectors the bigrading already holds:
each step takes every negative ad-Y part of the mismatch in one call over
the weight projectors, and gl_hodge_components is the same call over the
(p, q) ones; the Hodge components a Splitting holds are those of its real
delta, so they sum to it.

deligne_delta computes the Splitting once per structure and resolved
tolerance and caches it on the MixedHodgeStructure, next to the lattice,
report and bigrading caches; the cached Splitting is shared by every caller,
so it is frozen and its arrays are read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .config import default_tol
from .errors import NoConvergence
from .linalg import graded_parts, maxabs, nullspace_float
from .mhs import DeligneBigrading, MixedHodgeStructure


def gl_hodge_components(B: DeligneBigrading, M: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Decompose a square matrix by Hodge bidegree: the (a, b) part maps each
    I^{c,d} into I^{a+c, b+d}.  The components resolve M: their sum is M."""
    M = np.asarray(M, dtype=complex)
    n = B.ambient_dim
    if M.shape != (n, n):
        raise ValueError("matrix must be square of the ambient dimension")
    return graded_parts(B.projectors, M)


def component_support(components: dict[tuple[int, int], np.ndarray],
                      tol: float | None = None) -> list[tuple[int, int]]:
    """Keys of the components that are nonzero at the working tolerance."""
    tol = default_tol() if tol is None else tol
    scale = max([maxabs(m) for m in components.values()] + [1.0])
    return sorted(k for k, m in components.items() if maxabs(m) > tol * scale)


@dataclass(frozen=True)
class Splitting:
    delta: np.ndarray                            # real in rational coordinates
    hodge_components: Mapping[tuple[int, int], np.ndarray]
    residual: float                              # max-abs defect of the defining relation

    def component(self, a: int, b: int) -> np.ndarray:
        n = self.delta.shape[0]
        return self.hodge_components.get((a, b), np.zeros((n, n), dtype=complex))


def _ad_exp(w: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """exp(w) Y exp(-w) for a nilpotent w: both factors sum the terms w^k / k!,
    exp(-w) with alternating signs, so no matrix is inverted.  An overflow
    gives inf or NaN silently; both callers' verdicts fail on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [np.eye(len(w), dtype=complex)]
        while len(terms) <= len(w) and terms[-1].any():
            terms.append(terms[-1] @ w / len(terms))
        return sum(terms) @ Y @ sum((-1) ** k * t for k, t in enumerate(terms))


def _solve_group_element_fixed_point(B: DeligneBigrading, tol: float) -> np.ndarray:
    """w with Ad(exp(w)) Y = conj(Y), found depth by depth; the caller
    verifies the relation.  Raises NoConvergence at the first mismatch that
    is not finite."""
    Y = B.Y
    Ybar = np.conj(Y)
    n = B.ambient_dim
    weights = B.weights
    span = max(weights) - min(weights)
    scale = max(maxabs(Y), 1.0)
    w = np.zeros((n, n), dtype=complex)
    for _ in range(span + 3):
        R = Ybar - _ad_exp(w, Y)
        err = maxabs(R)
        if err <= 1e-3 * tol * scale:
            return w
        # an iterate that overflowed stays non-finite, so stop at the first
        if not np.isfinite(err):
            raise NoConvergence(f"splitting iterate is not finite (residual {err})")
        # each negative-weight part of R is solvable by division by -m
        w = w + sum(P / -m for m, P in graded_parts(B.weight_projectors, R).items() if m < 0)
    return w


def deligne_delta(H: MixedHodgeStructure, tol: float | None = None) -> Splitting:
    """The splitting of a valid mixed Hodge structure, computed once per
    resolved tol and cached on H."""
    tol = default_tol() if tol is None else tol
    if tol not in H._splittings:
        H._splittings[tol] = _solve_splitting(H.bigrading(tol), tol)
    return H._splittings[tol]


def _solve_splitting(B: DeligneBigrading, tol: float) -> Splitting:
    w = _solve_group_element_fixed_point(B, tol)
    solved = 0.5j * w
    delta = solved.real.astype(float)
    # the components resolve the real delta the Splitting holds: their sum is it
    comps = gl_hodge_components(B, delta)
    scale = max(maxabs(solved), 1.0)

    # post-hoc verification: realness, bidegree support, defining relation
    # (exp(-2i delta) = exp(w)); np.max keeps a NaN that Python's max drops
    rel = np.conj(B.Y) - _ad_exp(w, B.Y)
    residual = float(np.max([maxabs(solved.imag) / scale,
                             *(maxabs(m) / scale for (a, b), m in comps.items()
                               if a >= 0 or b >= 0),
                             maxabs(rel) / max(maxabs(B.Y), 1.0)]))
    if not (np.isfinite(solved).all() and residual <= tol):
        raise NoConvergence(f"splitting residual {residual:.3e} exceeds tolerance {tol:.3e}")
    for m in (delta, *comps.values()):
        m.setflags(write=False)
    return Splitting(delta=delta, hodge_components=MappingProxyType(comps), residual=residual)


def lowering_morphisms(H: MixedHodgeStructure, tol: float | None = None) -> list[np.ndarray]:
    """Basis of the (-1,-1)-morphisms: real matrices N with N W_k <= W_{k-2}
    and N F^p <= F^{p-1}.

    Filtration compatibility of a real matrix forces pure Hodge type by
    functoriality of the bigrading, so no extra type constraint is needed.
    """
    tol = default_tol() if tol is None else tol
    n = H.dim
    rows = []
    # a . (N v) = 0 for annihilator rows a of the target and basis vectors v of
    # the source; coefficient of N_ij in row-major vec(N) is a_i v_j.
    for filt, shift in ((H.W, -2), (H.F, -1)):
        for k in filt.indices:
            tgt_ann = filt.at(k + shift).annihilator(tol)
            for avec in tgt_ann.basis:
                for v in filt.at(k).basis:
                    rows.append(np.kron(avec, v))
    M = np.array(rows)
    M = np.vstack([M.real, M.imag]).astype(complex)
    flat = nullspace_float(M, tol).real
    return [row.reshape(n, n) for row in flat]
