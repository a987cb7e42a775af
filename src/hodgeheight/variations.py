"""Local variations: period maps exp(N(z)) exp(Gamma(s)) . F_inf.

A LocalVariation holds commuting rational nilpotents, a matrix-coefficient
polynomial Gamma with Gamma(0) = 0 satisfying the tameness divisibility
s_j | [N_j, Gamma(s)], and an orientation; its limit is (M(N, W), F_inf) of
the cone orbit N = sum_j N_j (limits.limit_mhs), and an orbit is the
variation of its one N with Gamma = 0, whose fibers are the orbit's.  Each
N_j and Gamma coefficient must preserve W (mhs.lowers), so that every fiber
has the Hodge numbers of the limit.  Fibers take z and s as independent
inputs; the covering relation s_j = exp(2 pi i z_j) is applied only by the
sweep drivers, which lets the exact identity

    delta^{-1,-1}(z, s) = N(Im z) + Im(Gamma(s))^{-1,-1} + delta^{-1,-1}

be probed at arbitrary points.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import reduce
from math import pi
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    HodgeError,
    InfeasibleRanks,
    LengthTooSmall,
    MalformedFiltration,
    NotHodgeTate,
)
from .height import Orientation, OrientedMHS, _check_oriented, _period_height, height
from .limits import NilpotentOrbit, limit_height, limit_mhs, moved_fiber
from .linalg import ExactMatrix, bch, expm_nilpotent, integer, maxabs
from .mhs import MixedHodgeStructure, is_hodge_tate, lowers, split_filtration


@dataclass(frozen=True)
class GammaPoly:
    """Finite polynomial in s_1..s_k with square-matrix coefficients."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    # the exponents and the coefficients, stacked for one contraction per call
    _stacked: tuple[np.ndarray, np.ndarray] = field(init=False, compare=False, repr=False)

    @staticmethod
    def of(nvars: int, terms: dict) -> "GammaPoly":
        clean = []
        for expo, mat in sorted(terms.items()):
            expo = tuple(integer(e, "exponent") for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise HodgeError(f"bad exponent tuple {expo}")
            if all(e == 0 for e in expo):
                raise HodgeError("Gamma(0) = 0 requires no constant term")
            clean.append((expo, np.asarray(mat, dtype=complex)))
        return GammaPoly(nvars, tuple(clean))

    @staticmethod
    def zero(nvars: int) -> "GammaPoly":
        return GammaPoly(nvars, ())

    def __post_init__(self) -> None:
        exponents = np.array([e for e, _ in self.terms], dtype=int).reshape(len(self.terms), self.nvars)
        object.__setattr__(self, "_stacked", (exponents, np.array([m for _, m in self.terms])))

    def __call__(self, s) -> np.ndarray:
        """Gamma at a point of nvars values, or as (m, n, n) at each row of an
        (m, nvars) stack; a row's value does not depend on the stack it is in."""
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        if s.shape[-1] != self.nvars:
            raise HodgeError(f"expected {self.nvars} parameters, got {s.shape[-1]}")
        if not self.terms:
            return np.zeros((*s.shape[:-1], 0, 0), dtype=complex)
        exponents, coefficients = self._stacked
        # a value past the float range is inf or NaN, which fibers reject
        with np.errstate(all="ignore"):
            monomials = np.prod(s[..., None, :] ** exponents, axis=-1)[..., None, :]
            flat = monomials @ coefficients.reshape(len(coefficients), -1)
        return flat.reshape(*s.shape[:-1], *coefficients.shape[1:])


def _commute(A: np.ndarray, B: np.ndarray, tol: float) -> bool:
    """[A, B] = 0 to tol * max(1, |A| |B|), the scale of the bracket's entries."""
    return maxabs(A @ B - B @ A) <= tol * max(1.0, maxabs(A) * maxabs(B))


@dataclass(frozen=True)
class LocalVariation:
    W: "object"                      # weight filtration
    F_inf: "object"                  # limit Hodge filtration
    nilpotents: tuple                # arrays, or linalg.ExactMatrix as a document gives them
    gamma: GammaPoly
    orientation: Orientation | None  # None only for an orbit document without one
    tol: InitVar[float] = DEFAULT_TOL    # of the nilpotent, commutation and tameness checks
    # one NilpotentOrbit per N_j, whose power table gives exp(z_j N_j)
    _orbits: tuple[NilpotentOrbit, ...] = field(init=False, compare=False, repr=False)
    # the orbit of N = sum_j N_j (N = 0 for none; exact when each N_j is): the variation's limit
    cone: NilpotentOrbit = field(init=False, compare=False, repr=False)
    # per tol: the Hodge-Tate route of _moves or None (_transport); the
    # Hodge-Tate limit's bigrading and height (check_asymptotics)
    _transports: dict = field(init=False, default_factory=dict, compare=False, repr=False)
    _asymptotics: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self, tol: float):
        orbits = tuple(NilpotentOrbit(self.W, N, self.F_inf, tol) for N in self.nilpotents)
        object.__setattr__(self, "_orbits", orbits)
        if not all(_commute(a.N, b.N, tol) for i, a in enumerate(orbits) for b in orbits[:i]):
            raise HodgeError("monodromy logarithms must commute")
        if self.gamma.nvars != len(self.nilpotents):
            raise HodgeError("Gamma must have one variable per divisor")
        if not self.is_tame(tol):
            raise HodgeError("tameness divisibility s_j | [N_j, Gamma] fails")
        flag = self.W.adapted_basis()
        if not all(lowers(self.W, flag.operator(m), 0, tol) for _, m in self.gamma.terms):
            raise HodgeError("Gamma coefficients must preserve the weight filtration")
        exact = all(isinstance(o.monodromy, ExactMatrix) for o in orbits)
        N = sum((Fraction(1, o.monodromy.den) * np.array(o.monodromy.num, dtype=object)
                 if exact else o.N for o in orbits), np.zeros((self.dim, self.dim), int))
        object.__setattr__(self, "cone", orbits[0] if len(orbits) == 1 else NilpotentOrbit(
            self.W, N, self.F_inf, tol))

    def _transport(self, tol: float) -> tuple | None:
        """Once per tol: (N_j in the coordinates of W, P_inf, log P_inf) when
        every N_j and Gamma coefficient lowers W by 2 and the cone orbit has
        a Hodge-Tate base (limits.NilpotentOrbit._base); else None."""
        if tol not in self._transports:
            flag = self.W.adapted_basis()
            ops = [flag.operator(A) for A in (*(o.N for o in self._orbits),
                                              *(m for _, m in self.gamma.terms))]
            base = all(lowers(self.W, A, 2, tol) for A in ops) and self.cone._base(tol)
            self._transports[tol] = ((ops[:len(self.nilpotents)], *base)
                                     if base and len(base) == 2 else None)
        return self._transports[tol]

    @property
    def dim(self) -> int:
        return self.W.ambient_dim

    @property
    def length(self) -> int:
        return max(self.W.indices) - min(self.W.indices)

    def is_tame(self, tol: float = DEFAULT_TOL) -> bool:
        """s_j | [N_j, Gamma]: every coefficient with a zero j-th exponent must
        commute with N_j (_commute), exactly as a polynomial identity."""
        return all(_commute(orbit.N, mat, tol) for j, orbit in enumerate(self._orbits)
                   for expo, mat in self.gamma.terms if expo[j] == 0)

    def limit_structure(self, tol: float = DEFAULT_TOL) -> MixedHodgeStructure:
        """The limit (M(N, W), F_inf) of the cone orbit, as limits.limit_mhs
        builds it once per tol, and raises where there is none."""
        return limit_mhs(self.cone, tol)


def fiber(v: LocalVariation, z, s, tol: float = DEFAULT_TOL) -> MixedHodgeStructure:
    """(exp(N(z)) exp(Gamma(s)) . F_inf, W), one point of _moves: a structure at
    every point of a Hodge-Tate variation, |s| > 1 included; on the general
    route NotAnMHS where a step of F loses rank at the working tolerance.  A z
    or s of the wrong length, or a Gamma(s) or move that is not finite, raises
    as in _moves."""
    return _fiber(v, next(_moves(v, [(z, s)], tol)), tol)


class Move(NamedTuple):
    """A point (z, s), Gamma(s), g = exp(N(z)) exp(Gamma(s)) and the (P, L) of a
    Hodge-Tate fiber; where opens the point's errors."""
    z: object
    s: object
    gamma: np.ndarray
    g: np.ndarray
    period: tuple[np.ndarray, np.ndarray] | None
    where = property(lambda self: f"fiber at z={self.z}, s={self.s}: ")


def _fiber(v: LocalVariation, move: Move, tol: float) -> MixedHodgeStructure:
    """A move's fiber: for one N and Gamma = 0 the orbit's, on the route its
    base decides; else moved_fiber, with the move's period if it has one."""
    if len(v._orbits) == 1 and not v.gamma.terms:
        return v._orbits[0].fiber(complex(np.atleast_1d(move.z)[0]), tol)
    return moved_fiber(v.W, v.F_inf, move.g, move.where, tol, move.period)


def _moves(v: LocalVariation, points: list, tol: float):
    """The Move of each point (z, s), in order, all evaluated on stacked arrays:
    exp(N(z)) = prod_j exp(z_j N_j) off the orbits' power tables (the N_j
    commute).  On the Hodge-Tate route (_transport) g lies in exp(W_-2 gl), so
    a fiber's period matrix is g P_inf and L the commutator series (linalg.bch)
    of (-log conj(P_inf), -conj(Gamma), 2i sum_j Im(z_j) N_j, Gamma, log P_inf)
    in the coordinates of W.  Each point is checked after those before it,
    with no warning: a z or s of the wrong length raises HodgeError, a Gamma(s),
    g or period that is not finite MalformedFiltration."""
    k, n, transport = len(v.nilpotents), v.dim, v._transport(tol)
    z_rows, s_rows = ([np.atleast_1d(p[i]) for p in points] for i in (0, 1))
    m = next((i for i, (z, s) in enumerate(zip(z_rows, s_rows))
              if len(z) != k or len(s) != v.gamma.nvars), len(points))
    zs = np.array(z_rows[:m], dtype=complex).reshape(m, k)
    gm = (v.gamma(np.array(s_rows[:m], dtype=complex).reshape(m, v.gamma.nvars))
          if v.gamma.terms else np.zeros((m, n, n), dtype=complex))
    with np.errstate(all="ignore"):
        G = reduce(np.matmul, [orbit.exp(zs[:, j]) for j, orbit in enumerate(v._orbits)]
                   + [expm_nilpotent(gm)])
        moves = [G if G.ndim == 3 else np.broadcast_to(G, (m, n, n))]   # 2-d if k = 0
        if transport is not None:
            (N, P, logP), flag = transport, v.W.adapted_basis()
            gam = flag.operator(gm)
            iy = sum((2j * zs[:, j, None, None].imag * Nj for j, Nj in enumerate(N)),
                     np.zeros_like(P))
            L = bch([-logP.conj(), -gam.conj(), iy, gam, logP])   # 2-d if no stack enters
            moves += [flag.operator(moves[0]) @ P,
                      L if L.ndim == 3 else np.broadcast_to(L, (m, n, n))]
    finite = [np.isfinite(x).all((-2, -1)) for x in (gm, *moves)]
    periods = zip(*moves[1:]) if transport is not None else [None] * m
    for (z, s), gz, g, period, ok, *ok_move in zip(points, gm, moves[0], periods, *finite):
        move = Move(z, s, gz, g, period)
        if not ok:
            raise MalformedFiltration(move.where + "Gamma(s) is not finite")
        if not all(ok_move):
            raise MalformedFiltration(move.where + "the move is not finite")
        yield move
    if m < len(points):
        v.gamma(s_rows[m])   # raises HodgeError on an s of the wrong length
        raise HodgeError(f"expected {k} values of z, got {len(z_rows[m])}")


def _sweep(v: LocalVariation, points: list, tol: float, hodge_tate: bool) -> list[tuple]:
    """(Move, L, height) per point, the Hodge-Tate route reading L off _moves
    and checking the orientation once; else L is the fiber's, or None (then
    NotHodgeTate if hodge_tate).  A typed error names its point's index."""
    out, moves = [], _moves(v, points, tol)
    try:
        if v._transport(tol) is not None:
            _check_oriented(v.W, v.orientation, tol)
            for move in moves:
                L = move.period[1]
                out.append((move, L, _period_height(L[0, -1], v.W, v.orientation, tol)))
        else:
            for move in moves:
                H = _fiber(v, move, tol)
                period = H.bigrading(tol).period
                if hodge_tate and period is None:
                    raise NotHodgeTate(move.where + "not a Hodge-Tate structure")
                out.append((move, period and period.L, height(OrientedMHS(H, v.orientation), tol)))
    except HodgeError as exc:
        raise type(exc)(f"sweep point {len(out)}: {exc}") from exc
    return out


def oriented_fiber(v: LocalVariation, z, s, tol: float = DEFAULT_TOL) -> OrientedMHS:
    return OrientedMHS(fiber(v, z, s, tol), v.orientation)


def height_sweep(v: LocalVariation, path, tol: float = DEFAULT_TOL) -> list[tuple[float, float]]:
    """Heights along a list of (z, s) pairs, each keyed by Im z_1, signed,
    when z is complex, else by the point's index (_sweep)."""
    path = list(path)
    return [(float(z[0].imag) if np.iscomplexobj(z := np.atleast_1d(p[0])) else float(i), h)
            for i, (p, (_, _, h)) in enumerate(zip(path, _sweep(v, path, tol, False)))]


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


def check_asymptotics(v: LocalVariation, sequence, tol: float = DEFAULT_TOL) -> AsymptoticsReport:
    """For a Hodge-Tate variation of length >= 4: per sampled point, the fiber
    height Ht(fiber), the gap |Ht(fiber) - Ht(limit)| and the residual of the
    depth-one identity
    delta^{-1,-1}(z,s) = N(Im z) + Im(Gamma(s))^{-1,-1} + delta^{-1,-1},
    with only the (-1,-1) parts taken, and Ht(limit) limits.limit_height of the
    cone orbit.  A limit that is no Hodge-Tate structure, or whose M is not W
    (the cone N lowers W by 2), raises NotHodgeTate.  Each fiber has the
    Hodge numbers of the limit, so it is Hodge-Tate by its counts; one that
    is not at the working tolerance raises NotHodgeTate naming its point."""
    if tol not in v._asymptotics:
        try:
            limit = v.limit_structure(tol)
        except HodgeError as exc:
            raise NotHodgeTate(f"the limit is not a Hodge-Tate structure: {exc}") from exc
        if not (is_hodge_tate(limit, tol) and limit.W is v.W):
            raise NotHodgeTate("the limit (M, F_inf) is not a Hodge-Tate structure with M = W")
        if v.length < 4:
            raise LengthTooSmall("asymptotic statement needs length at least 4")
        v._asymptotics[tol] = limit.bigrading(tol), limit_height(v.cone, v.orientation, tol)
    points, n, (B, ht_lim) = list(sequence), v.dim, v._asymptotics[tol]
    rows = _sweep(v, points, tol, True)
    y = np.reshape([np.atleast_1d(z) for z, _ in points], (len(points), len(v.nilpotents))).imag
    # a fiber's P is P_inf times a unipotent that lowers W, so its
    # delta^{-1,-1} is the limit frame's lift of the (-1,-1) entries of -(i/2) L
    X = -0.5j * (np.reshape([L for _, L, _ in rows], (-1, n, n)) - B.period.L)
    gm = np.reshape([move.gamma for move, _, _ in rows], (-1, n, n))
    X = X - B.frame.coordinates((gm - gm.conj()) / 2j)
    N_y = sum((y[:, j, None, None] * o.N.real for j, o in enumerate(v._orbits)),
              np.zeros((n, n)))
    resid = np.abs(B.frame.lift(X, (-1, -1)).real - N_y).max((1, 2), initial=0.0)
    out = [AsymptoticsPoint(z=tuple(np.atleast_1d(z)), s=tuple(np.atleast_1d(s)), height=ht,
                            height_gap=abs(ht - ht_lim), identity_residual=float(r))
           for (z, s), (_, _, ht), r in zip(points, rows, resid)]
    ok = all(p.identity_residual < tol for p in out)
    return AsymptoticsReport(points=out, limit_height=ht_lim, identity_ok=ok)


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
    weights = [k for k, cols in blocks for _ in cols]
    W = split_filtration(weights, True)
    F = split_filtration([k // 2 for k in weights], False)

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


# The weight filtration (0, -2, -4) of the dilog variation, on the flat
# rational basis u0, u1, u2.  It is one object, shared by every dilog
# variation and by scenarios.dilog_fiber, so all their fibers read one
# adapted basis.
DILOG_W = split_filtration([0, -2, -4], True)


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
    F = split_filtration([0, -1, -2], False)
    tp = 2j * pi
    terms = {}
    for k in range(1, degree + 1):
        mat = np.zeros((n, n), dtype=complex)
        mat[1, 0] = -1.0 / (k * tp)            # log(1-s) = -sum s^k / k
        mat[2, 0] = -1.0 / (k * k * tp * tp)   # -Li2(s) / (2 pi i)^2
        terms[(k,)] = mat
    gamma = GammaPoly.of(1, terms)
    return LocalVariation(W=DILOG_W, F_inf=F, nilpotents=(N,), gamma=gamma,
                          orientation=Orientation.of([1, 0, 0], [0, 0, 1]))
