"""The splitting operator delta of a mixed Hodge structure.

delta is the unique real endomorphism, with all Hodge components in bidegrees
(a, b) with a < 0 and b < 0, conjugating the grading Y onto its complex
conjugate:

    conj(Y) = Ad(exp(-2i delta)) Y.

It is computed in closed form.  W is real, so conj(Y) grades W too, and
exp(W_-1 gl) acts simply transitively on the gradings of W.  With P_k the
weight projectors of Y, u = sum_k conj(P_k) P_k maps each weight piece of Y
onto that of conj(Y) and u - 1 lowers W, so u is the one element of that
group with Ad(u) Y = conj(Y), and delta = (i/2) log u, a finite series
(linalg.logm_unipotent): no iteration, no inverse.  Realness, the bidegree
constraint, the defining relation and finiteness are verified post hoc, once,
by _solve_splitting; rounding in the projectors of an ill-conditioned
bigrading fails that check, so the splitting has one NoConvergence verdict.
gl_hodge_components is linalg.graded_parts over the (p, q) projectors; the
Hodge components a Splitting holds are those of its real delta, so they sum
to it.

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
from .linalg import graded_parts, logm_unipotent, maxabs, nullspace_float
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
    gives inf or NaN silently; the verdict of _solve_splitting fails on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [np.eye(len(w), dtype=complex)]
        while len(terms) <= len(w) and terms[-1].any():
            terms.append(terms[-1] @ w / len(terms))
        return sum(terms) @ Y @ sum((-1) ** k * t for k, t in enumerate(terms))


def deligne_delta(H: MixedHodgeStructure, tol: float | None = None) -> Splitting:
    """The splitting of a valid mixed Hodge structure, computed once per
    resolved tol and cached on H."""
    tol = default_tol() if tol is None else tol
    if tol not in H._splittings:
        H._splittings[tol] = _solve_splitting(H.bigrading(tol), tol)
    return H._splittings[tol]


def _group_element(B: DeligneBigrading) -> np.ndarray:
    """w = log sum_k conj(P_k) P_k, so Ad(exp(w)) Y = conj(Y); unverified."""
    return logm_unipotent(sum(np.conj(P) @ P for P in B.weight_projectors.values()))


def _solve_splitting(B: DeligneBigrading, tol: float) -> Splitting:
    w = _group_element(B)
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
