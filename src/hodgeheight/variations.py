"""Local variations: period maps exp(N(z)) exp(Gamma(s)) . F_inf.

A LocalVariation holds commuting rational nilpotents, a matrix-coefficient
polynomial Gamma with Gamma(0) = 0 satisfying the tameness divisibility
s_j | [N_j, Gamma(s)], and an oriented limit structure.  Fibers take z and s
as independent inputs; the covering relation s_j = exp(2 pi i z_j) is applied
only by the sweep drivers, which lets the exact identity

    delta^{-1,-1}(z, s) = N(Im z) + Im(Gamma(s))^{-1,-1} + delta^{-1,-1}

be probed at arbitrary points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .config import default_tol
from .errors import (
    HodgeError,
    InfeasibleRanks,
    LengthTooSmall,
    NotAnMHS,
    NotHodgeTate,
)
from .height import Orientation, OrientedMHS, height
from .limits import NilpotentOrbit
from .linalg import Subspace, expm_nilpotent, maxabs
from .mhs import MixedHodgeStructure, hodge_filtration, is_hodge_tate, weight_filtration
from .splitting import deligne_delta, gl_hodge_components


@dataclass(frozen=True)
class GammaPoly:
    """Finite polynomial in s_1..s_k with square-matrix coefficients."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    @staticmethod
    def of(nvars: int, terms: dict) -> "GammaPoly":
        clean = []
        for expo, mat in sorted(terms.items()):
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise HodgeError(f"bad exponent tuple {expo}")
            if all(e == 0 for e in expo):
                raise HodgeError("Gamma(0) = 0 requires no constant term")
            clean.append((expo, np.asarray(mat, dtype=complex)))
        return GammaPoly(nvars, tuple(clean))

    @staticmethod
    def zero(nvars: int) -> "GammaPoly":
        return GammaPoly(nvars, ())

    def __call__(self, s) -> np.ndarray:
        s = [complex(x) for x in np.atleast_1d(s)]
        if len(s) != self.nvars:
            raise HodgeError(f"expected {self.nvars} parameters, got {len(s)}")
        if not self.terms:
            return np.zeros((0, 0), dtype=complex)
        n = self.terms[0][1].shape[0]
        out = np.zeros((n, n), dtype=complex)
        for expo, mat in self.terms:
            mono = 1.0 + 0j
            for e, x in zip(expo, s):
                mono *= x ** e
            out = out + mono * mat
        return out


@dataclass(frozen=True)
class LocalVariation:
    W: "object"                      # weight filtration
    F_inf: "object"                  # limit Hodge filtration
    nilpotents: tuple[np.ndarray, ...]
    gamma: GammaPoly
    orientation: Orientation
    # the oriented limit pair (F_inf, W), built once so that the caches of its
    # structure (lattice, bigrading, splitting) serve every call
    _limit: OrientedMHS = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tol = default_tol()
        for N in self.nilpotents:
            NilpotentOrbit(self.W, N, self.F_inf, tol)
        for A in self.nilpotents:
            for B in self.nilpotents:
                if maxabs(np.asarray(A) @ B - np.asarray(B) @ A) > tol:
                    raise HodgeError("monodromy logarithms must commute")
        if self.gamma.nvars != len(self.nilpotents):
            raise HodgeError("Gamma must have one variable per divisor")
        if not self.is_tame(tol):
            raise HodgeError("tameness divisibility s_j | [N_j, Gamma] fails")
        object.__setattr__(self, "_limit", OrientedMHS(MixedHodgeStructure(self.W, self.F_inf),
                                                       self.orientation))

    @property
    def dim(self) -> int:
        return self.W.ambient_dim

    @property
    def length(self) -> int:
        return max(self.W.indices) - min(self.W.indices)

    def is_tame(self, tol: float | None = None) -> bool:
        """s_j | [N_j, Gamma]: every coefficient with a zero j-th exponent must
        commute with N_j, exactly as a polynomial identity."""
        tol = default_tol() if tol is None else tol
        for j, N in enumerate(self.nilpotents):
            N = np.asarray(N, dtype=complex)
            for expo, mat in self.gamma.terms:
                if expo[j] == 0 and maxabs(N @ mat - mat @ N) > tol * max(1.0, maxabs(mat)):
                    return False
        return True

    def n_of(self, z) -> np.ndarray:
        z = [complex(x) for x in np.atleast_1d(z)]
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        for zj, N in zip(z, self.nilpotents):
            out = out + zj * np.asarray(N, dtype=complex)
        return out

    def limit_structure(self) -> MixedHodgeStructure:
        return self._limit.mhs


def fiber(v: LocalVariation, z, s, tol: float | None = None) -> MixedHodgeStructure:
    """(exp(N(z)) exp(Gamma(s)) . F_inf, W); raises NotAnMHS outside the region
    where the pair is a mixed Hodge structure."""
    tol = default_tol() if tol is None else tol
    G = expm_nilpotent(v.n_of(z))
    gm = v.gamma(s)
    if gm.size:
        G = G @ expm_nilpotent(gm)
    F = v.F_inf.map_spaces(lambda sp: sp.image_under(G, tol))
    H = MixedHodgeStructure(v.W, F)
    report = H.validate(tol)
    if not report.ok:
        raise NotAnMHS(f"fiber at z={z}, s={s}: " + "; ".join(report.failures))
    return H


def oriented_fiber(v: LocalVariation, z, s, tol: float | None = None) -> OrientedMHS:
    return OrientedMHS(fiber(v, z, s, tol), v.orientation)


def height_sweep(v: LocalVariation, path, tol: float | None = None) -> list[tuple[float, float]]:
    """Heights along a list of (z, s) pairs, keyed by the point index's
    parameter |Im z_1| when available, else the index."""
    tol = default_tol() if tol is None else tol
    out = []
    for idx, (z, s) in enumerate(path):
        try:
            h = height(oriented_fiber(v, z, s, tol), tol)
        except NotAnMHS as exc:
            raise NotAnMHS(f"sweep point {idx}: {exc}") from exc
        z0 = np.atleast_1d(z)[0]
        param = float(np.imag(z0)) if np.iscomplexobj(np.atleast_1d(z)) else float(idx)
        out.append((param, h))
    return out


@dataclass
class AsymptoticsPoint:
    z: tuple[complex, ...]
    s: tuple[complex, ...]
    height: float
    height_gap: float
    identity_residual: float


@dataclass
class AsymptoticsReport:
    points: list[AsymptoticsPoint]
    limit_height: float
    identity_ok: bool


def check_asymptotics(v: LocalVariation, sequence, tol: float | None = None) -> AsymptoticsReport:
    """For a Hodge-Tate variation of length >= 4: per sampled point, the fiber
    height Ht(fiber), the gap |Ht(fiber) - Ht(limit)| and the residual of the
    depth-one identity
    delta^{-1,-1}(z,s) = N(Im z) + Im(Gamma(s))^{-1,-1} + delta^{-1,-1}."""
    tol = default_tol() if tol is None else tol
    limit = v.limit_structure()
    # Hodge-Tate variations have relative filtration equal to W, so the pair
    # (F_inf, W) must itself be a structure with diagonal bigrading
    if not limit.validate(tol).ok or not is_hodge_tate(limit, tol):
        raise NotHodgeTate("limit pair (F_inf, W) is not a Hodge-Tate structure")
    if v.length < 4:
        raise LengthTooSmall("asymptotic statement needs length at least 4")
    B_lim = limit.bigrading(tol)
    d11_lim = deligne_delta(limit, tol).component(-1, -1)
    n = v.dim
    ht_lim = height(v._limit, tol)

    points = []
    for z, s in sequence:
        H = fiber(v, z, s, tol)
        spl = deligne_delta(H, tol)
        comps = gl_hodge_components(B_lim, spl.delta.astype(complex))
        d11 = comps.get((-1, -1), np.zeros((n, n)))
        imz = [complex(x).imag for x in np.atleast_1d(z)]
        gm = v.gamma(s)
        im_gamma = (gm - np.conj(gm)) / 2j if gm.size else np.zeros((n, n))
        im_gamma_comps = gl_hodge_components(B_lim, im_gamma.astype(complex))
        predicted = v.n_of([1j * y for y in imz]).imag + \
            im_gamma_comps.get((-1, -1), np.zeros((n, n))).real + d11_lim.real
        resid = maxabs(d11.real - predicted)
        ht = height(OrientedMHS(H, v.orientation), tol)
        points.append(AsymptoticsPoint(z=tuple(np.atleast_1d(z)), s=tuple(np.atleast_1d(s)),
                                       height=ht, height_gap=abs(ht - ht_lim),
                                       identity_residual=float(resid)))
    ok = all(p.identity_residual < tol for p in points)
    return AsymptoticsReport(points=points, limit_height=ht_lim, identity_ok=ok)


# ---------------------------------------------------------------------------
# generators


def random_hodge_tate(ranks, nil_count: int, seed: int) -> LocalVariation:
    """Seeded variation with even Hodge-Tate graded pieces of the given ranks
    (ends of rank one), commuting rational nilpotents in the lowering algebra
    of the split reference, and Gamma(s) = sum_j s_j G_j tame by construction."""
    ranks = [int(r) for r in ranks]
    if len(ranks) < 2 or ranks[0] != 1 or ranks[-1] != 1 or any(r < 1 for r in ranks):
        raise InfeasibleRanks("ranks must start and end at one")
    if nil_count < 0:
        raise InfeasibleRanks("nil_count must be nonnegative")
    rng = np.random.default_rng(seed)
    n = sum(ranks)
    # weight blocks 0, -2, -4, ... with the given ranks
    offsets = np.cumsum([0] + ranks)
    blocks = [(0 - 2 * i, list(range(offsets[i], offsets[i + 1])))
              for i in range(len(ranks))]
    wsteps = []
    acc: list[int] = []
    for k, cols in reversed(blocks):
        acc = cols + acc
        wsteps.append((k, Subspace.from_rows([np.eye(n)[i] for i in acc], n)))
    W = weight_filtration(wsteps, n)
    fsteps = []
    for i, (k, cols) in enumerate(blocks):
        rows = []
        for kk, cc in blocks[: i + 1]:
            rows.extend(np.eye(n)[j] for j in cc)
        fsteps.append((k // 2, Subspace.from_rows(rows, n)))
    F = hodge_filtration(fsteps, n)

    def random_lowering(lo: int = -2, hi: int = 3, adjacent_only: bool = False) -> np.ndarray:
        M = np.zeros((n, n))
        for bi in range(len(blocks) - 1):
            _, src = blocks[bi]
            for bj in range(bi + 1, len(blocks)):
                if adjacent_only and bj != bi + 1:
                    continue
                _, dst = blocks[bj]
                for i_dst in dst:
                    for j_src in src:
                        M[i_dst, j_src] = float(rng.integers(lo, hi))
        return M

    def end_to_end() -> np.ndarray:
        # a block supported only on Gr_top -> Gr_bottom commutes with every
        # lowering matrix, which keeps multi-divisor Gamma tame
        M = np.zeros((n, n))
        M[n - 1, 0] = float(rng.integers(1, 4))
        return M

    nil = []
    if nil_count >= 1:
        # monodromy logarithms must be horizontal: adjacent weight blocks
        # only; insist on coupling both graded ends so that fiber heights
        # genuinely move along degeneration rays
        def couples_ends(M: np.ndarray) -> bool:
            return maxabs(M[:, 0]) > 0 and maxabs(M[n - 1, :]) > 0

        N1 = random_lowering(adjacent_only=True)
        while not couples_ends(N1):
            N1 = random_lowering(adjacent_only=True)
        nil.append(N1)
        for _ in range(nil_count - 1):
            # integer multiples commute and stay horizontal
            nil.append(N1 * float(rng.integers(1, 4)))
    if nil_count:
        gterms = {}
        for j in range(nil_count):
            expo = tuple(1 if t == j else 0 for t in range(nil_count))
            if nil_count == 1:
                # single divisor: any coefficient is tame; a generic complex
                # block keeps Im(Gamma) nonzero along real-s rays, so the
                # height decay is visible well above float noise
                G = random_lowering(20, 61).astype(complex) \
                    + 1j * random_lowering(20, 61)
            else:
                G = end_to_end().astype(complex)
            gterms[expo] = G
        gamma = GammaPoly.of(nil_count, gterms)
    else:
        gamma = GammaPoly.zero(0)
    top = np.eye(n)[0]
    bottom = np.eye(n)[n - 1]
    return LocalVariation(W=W, F_inf=F, nilpotents=tuple(nil), gamma=gamma,
                          orientation=Orientation.of(top, bottom))


def dilog_variation(degree: int = 60) -> LocalVariation:
    """The rank-3 variation in flat rational coordinates, with the holomorphic
    correction truncated to the given polynomial degree.

    Gamma's two entries are the series of log(1-s)/(2 pi i) and -Li2(s)/(2 pi i)^2,
    so fibers approximate the exact structure to roughly |s|^degree accuracy;
    heights in these coordinates equal D2(s)/(4 pi^2) (the bottom generator is
    (2 pi i)^2 times the canonical one)."""
    n = 3
    N = np.zeros((n, n))
    N[2, 1] = -1.0
    W = weight_filtration([
        (-4, Subspace.from_rows([[0, 0, 1]], n)),
        (-2, Subspace.from_rows([[0, 1, 0], [0, 0, 1]], n)),
        (0, Subspace.full(n)),
    ], n)
    F = hodge_filtration([
        (0, Subspace.from_rows([[1, 0, 0]], n)),
        (-1, Subspace.from_rows([[1, 0, 0], [0, 1, 0]], n)),
        (-2, Subspace.full(n)),
    ], n)
    tp = 2j * pi
    terms = {}
    for k in range(1, degree + 1):
        mat = np.zeros((n, n), dtype=complex)
        mat[1, 0] = -1.0 / (k * tp)            # log(1-s) = -sum s^k / k
        mat[2, 0] = -1.0 / (k * k * tp * tp)   # -Li2(s) / (2 pi i)^2
        terms[(k,)] = mat
    gamma = GammaPoly.of(1, terms)
    return LocalVariation(W=W, F_inf=F, nilpotents=(N,), gamma=gamma,
                          orientation=Orientation.of([1, 0, 0], [0, 0, 1]))


def slope_fit(params: np.ndarray, heights: np.ndarray) -> dict[str, float]:
    """Least-squares diagnostic: fit heights against log|s| and (log|s|)^3."""
    x = np.asarray(params, dtype=float)
    y = np.asarray(heights, dtype=float)
    A = np.vstack([np.ones_like(x), x, x ** 3]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return {"constant": float(coef[0]), "linear": float(coef[1]), "cubic": float(coef[2])}
