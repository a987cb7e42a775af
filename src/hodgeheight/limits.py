"""Nilpotent orbits, relative weight filtrations and limit heights.

Each function of the orbit path takes one n x n N (linalg.as_operator;
DimensionMismatch otherwise): an ExactMatrix when every entry is rational,
else a complex array, its powers from one table (linalg.nilpotent_powers).
So rational N with rational W stays over the integers throughout, and no
rank decision on it involves a threshold.  A NilpotentOrbit maps its N into
the coordinates of W once, where limit_mhs reads it; horizontality, N F^p <=
F^(p-1), is mhs.lowers by -1 on F_inf.

relative_weight_filtration(N, W) is the unique M with N M_j <= M_(j-2) that
induces on each Gr^W_k the monodromy filtration of N there, centered at k;
monodromy_weight_filtration(N, c) is M for the W with the one step W_c, which
exists for every nilpotent N (a failed check there raises NotNilpotent).
Both run in the coordinates c of v = c T, T the flag of W (mhs.Filtration):
W_k is the span of the first d_k = dim W_k coordinates, N acts by N'
(Filtration.operator), and N preserves W exactly when N' vanishes below its
diagonal blocks (lowers).  N on W_k is then the leading d_k x d_k block of
N', and N on Gr^W_k the k-th diagonal block, whose powers are the blocks of
the powers of N' (_block_powers cuts each block's table at its own m, N^m = 0).

M is peeled weight by weight from the empty M.  With M' the filtration of
the step of W below (zero at the bottom weight), padded with zero
coordinates to C^(d_k) = W_k, and j running from m-1 down,

    M_(k+m-1) = W_k,   M_(k-j) = N^j M_(k+j) + M'_(k-j)   (j >= 1),
    M_(k+j) = preimage of M_(k-j-2) under N^(j+1)         (j >= 0),

where M_(k-j-2) reads M_(k+j+2), known by then; past this window of 2m-1
indices M_(k+j) = W_k and M_(k-j) = M'_(k-j).  Over Q, N^j is read off the
table; on a float N it is j steps of N (_under), since the rounding of a
float N^j grows with |N|^j and moves the rank decisions of ill-conditioned
conjugates.  M goes back by c -> c T.  None of this runs when N' lowers W
by two: M is W itself (Steenbrink-Zucker 1985), as that is the first axiom
and N induces 0 on each Gr^W_k, whose monodromy filtration is the one step k.

Both axioms are verified on a peeled M (DoesNotExist otherwise).  The graded
one compares, on each Gr^W_k and for j in [k-2n, k+2n], dim (M_j cap W_k) /
(M_j cap W_(k-1)), the rows of the right echelon of M_j (linalg.right_echelon)
with pivot in d_(k-1) .. d_k - 1, with dim Gr_j W(B) at center k, B the
diagonal block, read off B's Jordan type: b_e = dim ker B^e - dim ker
B^(e-1) blocks of size >= e (NotNilpotent if b_e grows), one of size s
adding one to Gr_(k+s-1-2i), i < s.  Both sides are step functions of j, so
they are compared at the lower end and at every jump of M or the reference.

deligne_system_grading builds the unique grading Y' of W commuting with a
given grading Y of M such that the zero eigencomponent N0 of N completes to an
sl2-triple (N0, H = Y - Y', N0+) commuting with the deeper components of N.
One body, _deligne_system, serves it and limit_height: it takes Y and its
weight frame (of Y's eigenspaces, or the limit's), checks [Y, N] = -2N and
reads each column's W-weight once, that of its last coordinate in T above the
bound of Filtration.depth.  If each column's weight is its degree, Y grades
W, N lowers W by two, so M = W and Y' = Y (Cattani-Kaplan-Schmid 1986), and
the projectors are the frame's.  Else the pass starts from a grading of W by
eigenvectors of Y: the columns by weight, each cut to W_k, if they count dim
Gr^W_k per weight; else per eigenspace E, the rows of the right echelon of E
against T with pivot in d_(k-1) .. d_k - 1, mapped back by T and made
orthogonal to E cap W_(k-1).  It runs in the coordinates of its frame of
unit columns, C^-1 Y C = diag(a), C^-1 Y' C = diag(b), where the brackets
select the entries that may be nonzero: b_i = b_j, a_i - a_j = 2 for N0+;
a_i = a_j, b_i - b_j = -j0 for gamma; a_i - a_j = -2 for N.  [N0+, N0] = H =
diag(a - b), or ad N0+ ad N0 gamma = R_(-j0) for the defect R = [N - N0, N0+]
at its first depth j0, is solved by least squares on their unit matrices;
exp(gamma) moves the frame to (C exp(gamma), exp(-gamma) C^-1).  _grades and
every bracket identity verify the result in the caller's coordinates.

An orbit fiber takes the route of the orbit's base (NilpotentOrbit._base),
decided once per tol.  If N lowers W by two and the limit is Hodge-Tate of
length at most 8, every fiber is Hodge-Tate with period exp(zN) P_inf and L
= bch(-log conj(P_inf), 2iy N', log P_inf) in the coordinates of W, as a
variation's (variations._moves).  Else, for y > 0, it is the fiber at i moved
by the real g = exp(xN) y^(-Y/2), Y the weight grading of the limit (Schmid
1973; Cattani-Kaplan-Schmid 1986), once Y is checked real, W-preserving and
with [Y, N] = -2N: each fiber keeps its literal F and takes the bigrading at
i moved by g (Frame.moved), checked by its conjugation residual alone, and
the splitting's group element w_z = g w_i g^-1.  Any other point or orbit
takes the lattice of moved_fiber.
"""
from __future__ import annotations

from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import accumulate
from math import factorial
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    ConstructionFailed,
    DoesNotExist,
    HodgeError,
    MalformedFiltration,
    NotAnMHS,
    NotNilpotent,
)
from .height import _check_oriented, _deep_coefficient
from .linalg import (
    ExactMatrix,
    Frame,
    Subspace,
    as_operator,
    bch,
    check_nilpotent,
    check_square,
    expm_nilpotent,
    logm_unipotent,
    maxabs,
    nilpotent_powers,
    nullspace_float,
    right_echelon,
    rref_exact,
    rref_float,
)
from .mhs import Filtration, MixedHodgeStructure, lowers, split_filtration, weight_filtration
from .splitting import deligne_delta

# ---------------------------------------------------------------------------
# monodromy and relative weight filtrations


def monodromy_weight_filtration(N, center: int = 0,
                                tol: float = DEFAULT_TOL) -> Filtration:
    """The unique filtration with N W_k <= W_{k-2} and N^j : Gr_{c+j} ~ Gr_{c-j}:
    M(N, W) for W with the one step W_c (module docstring)."""
    N = as_operator(N)
    try:
        return relative_weight_filtration(N, split_filtration([center] * len(N), True), tol)
    except DoesNotExist as exc:
        raise NotNilpotent(f"monodromy filtration check failed: {exc}") from exc


def relative_weight_filtration(N, W: Filtration, tol: float = DEFAULT_TOL) -> Filtration:
    N = check_square(as_operator(N), W.ambient_dim)
    return _relative_from_operator(W.operator(N), W, tol)


def _relative_from_operator(Np, W: Filtration, tol: float) -> Filtration:
    """relative_weight_filtration from its N' = W.operator(N)."""
    if lowers(W, Np, 2, tol):
        return W   # M = W (module docstring)
    powers = nilpotent_powers(Np, tol)
    if not lowers(W, Np, 0, tol):
        raise DoesNotExist("N does not preserve the weight filtration")
    M_steps = _relative_rec(powers, W.indices, W.dims, tol)
    try:
        filt = _steps_to_filtration(M_steps, W.ambient_dim, tol)
    except MalformedFiltration as exc:
        # the downward/upward passes only interlock when the filtration exists
        raise DoesNotExist(f"candidate family is not a filtration: {exc}") from exc
    _verify_relative(filt, powers, W.indices, W.dims, tol)
    return filt.map_spaces(lambda s: W.lift(s, tol))


def _block(A, lo: int, hi: int):
    """The diagonal block of rows and columns lo .. hi-1 of an ExactMatrix or an array."""
    if isinstance(A, ExactMatrix):
        return ExactMatrix([row[lo:hi] for row in A.num[lo:hi]], A.den)
    return A[lo:hi, lo:hi]


def _block_powers(powers: list, lo: int, hi: int, tol: float) -> list:
    """The diagonal blocks lo .. hi-1 of N'^0 .. N'^m (the powers of that block
    of N', which preserves W) up to the first power nilpotent_powers would
    stop at on the block; failing that, the block's own table."""
    table = [_block(p, lo, hi) for p in powers]
    exact = isinstance(table[1], ExactMatrix)
    scale = 1.0 if exact else max(maxabs(table[1]), 1.0)
    for j in range(1, len(table)):
        if (not any(map(any, table[j].num))) if exact else maxabs(table[j]) <= tol * scale ** j:
            return table[:j + 1]
    return nilpotent_powers(table[1], tol)


def _pad(S: Subspace, d: int) -> Subspace:
    """S in C^d by appending zero coordinates, which keeps its echelon rows
    (and an exact S without a float basis until one is read)."""
    zeros = [0] * (d - S.ambient_dim)
    if S.is_exact():
        return Subspace(None, d, S.pivots, exact=[row + zeros for row in S.exact])
    return Subspace(np.hstack([S.basis, np.zeros((S.dim, len(zeros)), dtype=complex)]), d, S.pivots)


def _relative_rec(powers: list, weights: list[int], dims: tuple[int, ...],
                  tol: float) -> dict[int, Subspace]:
    """M in the coordinates of T from the power table of N' (module docstring),
    as a map k -> M_k read as the step function of its largest key <= j."""
    M: dict[int, Subspace] = {}
    for k_top, d in zip(weights, dims):
        keys = sorted(M)
        Msub = {k: _pad(M[k], d) for k in keys}
        P = _block_powers(powers, 0, d, tol)
        m = len(P) - 1

        def msub_at(j: int) -> Subspace:
            i = bisect_right(keys, j)
            return Msub[keys[i - 1]] if i else Subspace.zero(d)

        M = {k: Msub[k] for k in keys if k <= k_top - m}
        # top down: M_(k+j) = N^-(j+1) M_(k-j-2), everything from j = m-1 on;
        # M_(k-j) = N^j M_(k+j) + M'_(k-j), which is M'_(k-j) from j = m on
        down = {j: msub_at(k_top - j) for j in (m, m + 1)}
        for j in range(m - 1, -1, -1):
            M[k_top + j] = up = (Subspace.full(d) if j == m - 1 else
                                 _under(Subspace.preimage_under, down[j + 2], P, j + 1, tol))
            if j:
                M[k_top - j] = down[j] = _under(Subspace.image_under, up, P, j, tol).add(
                    msub_at(k_top - j), tol)
    return M


def _under(op, S: Subspace, P: list, e: int, tol: float) -> Subspace:
    """op(S, N^e), op Subspace.image_under or preimage_under: N^e off the
    table P over Q, e steps of N on a float N (module docstring)."""
    for A in [P[e]] if isinstance(P[1], ExactMatrix) else [P[1]] * e:
        S = op(S, A, tol)
    return S


def _steps_to_filtration(M: dict[int, Subspace], n: int,
                         tol: float = DEFAULT_TOL) -> Filtration:
    """The weight filtration of the steps of M where its dimension grows."""
    keys = sorted(M)
    tops = accumulate((M[k].dim for k in keys), max, initial=0)
    return weight_filtration([(k, M[k]) for k, top in zip(keys, tops) if M[k].dim > top], n, tol)


def _jordan_graded(powers: list, center: int, tol: float) -> dict[int, int]:
    """j -> dim Gr_j of W(N) at center, off N's Jordan type (module docstring)."""
    n, m = len(powers[0]), len(powers) - 1
    # kappa_e = dim ker N^e; the rounding of a float N^e is of the order of
    # scale^e, so its rank is decided against tol * scale^e, the bound at
    # which nilpotent_powers takes a power to be zero
    scale = 1.0 if isinstance(powers[1], ExactMatrix) else max(maxabs(powers[1]), 1.0)
    kappa = [0, *(n - len((rref_exact(P.num) if isinstance(P, ExactMatrix) else
                           rref_float(P / scale ** e, tol))[1])
                  for e, P in enumerate(powers[1:m], 1)), n]
    b = [*(y - x for x, y in zip(kappa, kappa[1:])), 0]   # b[e-1]: blocks of size >= e
    if any(y > x for x, y in zip(b, b[1:])):
        raise NotNilpotent("kernel dimensions of the powers of N admit no Jordan type")
    # b[s-1] - b[s] blocks of size s, each adding one to Gr_j, j = c+s-1, c+s-3, .., c-s+1
    return {j: sum(b[s - 1] - b[s] for s in range(abs(j - center) + 1, m + 1, 2))
            for j in range(center - m + 1, center + m)}


def _verify_relative(M: Filtration, powers: list, weights: list[int], dims: tuple[int, ...],
                     tol: float) -> None:
    """Both axioms of M = M(N, W) in the coordinates of T, from the power
    table of N'; the graded one by pivot counts (see the module docstring)."""
    for k in M.indices:
        if not M.at(k - 2).contains(M.at(k).image_under(powers[1], tol), tol):
            raise DoesNotExist("candidate filtration is not lowered by two under N")
    n = len(powers[0])
    keys = M.indices
    pivots = [right_echelon(s.exact if s.is_exact() else s.basis, tol)[1] for _, s in M.steps]
    for lo, k, d in zip((0, *dims), weights, dims):
        ref = _jordan_graded(_block_powers(powers, lo, d, tol), k, tol)   # j -> dim Gr_j
        first, last = k - 2 * n, k + 2 * n
        for j in sorted({first, *(i for i in [*keys, *ref] if first < i <= last)}):
            i = bisect_right(keys, j)
            got = sum(lo <= p < d for p in pivots[i - 1]) if i else 0
            if got != sum(g for x, g in ref.items() if x <= j):
                raise DoesNotExist(
                    f"induced filtration on Gr_{k} differs from the monodromy filtration")


# ---------------------------------------------------------------------------
# Deligne systems


@dataclass
class DeligneSystem:
    W: Filtration
    N: np.ndarray
    Y: np.ndarray
    Yprime: np.ndarray
    N_components: dict[int, np.ndarray]   # j -> N_{-j}
    sl2: tuple[np.ndarray, np.ndarray, np.ndarray]  # (N0, H, N0+)
    residual: float
    # eigenprojectors of Y' on the weights of W, read-only
    projectors: MappingProxyType = field(repr=False)


def _eigenspaces(Y: np.ndarray, levels, tol: float) -> dict[int, np.ndarray]:
    """Bases (rows) of the nonzero eigenspaces of Y at the given integer eigenvalues."""
    spaces = {k: nullspace_float(Y - k * np.eye(len(Y)), tol) for k in levels}
    return {k: E for k, E in spaces.items() if len(E)}


def _grades(pieces: dict[int, np.ndarray], W: Filtration, tol: float) -> bool:
    """Whether the pieces (weight -> basis rows) grade W: their rows, each scaled
    to a largest entry of 1, have no singular value <= tol, each piece k lies in
    W_k (Filtration.depth), and the pieces with key <= k count dim W_k rows."""
    rows = np.vstack(list(pieces.values()))
    size = np.abs(rows).max(1, keepdims=True)
    return (np.isfinite(rows).all()
            and np.linalg.matrix_rank(rows / np.where(size > 0, size, 1.0), tol) == len(rows)
            and all(W.depth(b, tol) <= W.dim_at(j) for j, b in pieces.items())
            and all(sum(len(b) for j, b in pieces.items() if j <= k) == W.dim_at(k)
                    for k in W.indices))


def _initial_w_grading(W: Filtration, eigenspaces, tol: float) -> dict[int, np.ndarray]:
    """The pieces (weight -> basis rows) of a grading of W commuting with Y,
    from the bases (rows) of Y's eigenspaces (see the module docstring)."""
    parts: dict[int, list] = {k: [] for k in W.indices}
    for E in eigenspaces:
        rows, piv = W.reduce(E, tol)
        # group the rows by the step of W of their pivot; each group is made
        # orthogonal to those below, which starts the corrections nearer Y'
        steps, below = [bisect_right(W.dims, c) for c in piv], None
        for s in sorted(set(steps)):
            d = W.dims[s]
            piece = rows[[i for i, t in enumerate(steps) if t == s], :d] @ W.T[:d]
            if below is not None:
                Q = np.linalg.qr(below.T)[0]
                piece = piece - piece @ Q.conj() @ Q.T
            parts[W.indices[s]].append(piece)
            below = piece if below is None else np.vstack([below, piece])
    pieces = {k: np.vstack(b) for k, b in parts.items() if b}
    if sum(len(b) for b in pieces.values()) != W.ambient_dim:
        raise ConstructionFailed("initial grading construction did not span")
    return pieces


def _solve_on_entries(mask, op, rhs, bound: float, failure: str) -> np.ndarray:
    """The least-squares X, zero off the mask, of the linear op(X) = rhs (op
    maps stacks of matrices) over the unit matrices e_i e_j^T of the mask;
    ConstructionFailed(failure) if op(X) misses rhs by more than bound."""
    basis = np.eye(mask.size, dtype=complex)[mask.ravel()].reshape(-1, *mask.shape)
    X = np.zeros(mask.shape, dtype=complex)
    X[mask] = np.linalg.lstsq(op(basis).reshape(len(basis), rhs.size).T, rhs.ravel(), rcond=None)[0]
    if maxabs(op(X) - rhs) > bound:
        raise ConstructionFailed(failure)
    return X


def deligne_system_grading(W: Filtration, N: np.ndarray, Y: np.ndarray,
                           tol: float = DEFAULT_TOL) -> DeligneSystem:
    """The unique grading Y' of W commuting with Y whose sl2 completion
    satisfies [N - N0, N0+] = 0; all invariants re-verified before returning."""
    Y = check_square(np.asarray(Y, dtype=complex), W.ambient_dim, "Y")
    if not np.isfinite(Y).all():
        raise ConstructionFailed("Y has an entry that is not finite")
    spaces = _eigenspaces(Y, sorted({int(round(x.real)) for x in np.linalg.eigvals(Y)}), tol)
    if sum(len(E) for E in spaces.values()) != len(Y):
        raise ConstructionFailed("initial grading construction did not span")
    return _deligne_system(W, N, Y, Frame.of(spaces), tol)


def _deligne_system(W: Filtration, N, Y: np.ndarray, frame: Frame, tol: float,
                    nilpotent: bool = False) -> DeligneSystem:
    """The body of deligne_system_grading and limit_height (module docstring);
    nilpotent: N's nilpotency is decided already, as an orbit's is."""
    N = check_square(np.asarray(N, dtype=complex), W.ambient_dim)
    scale = max(maxabs(N), maxabs(Y), 1.0)
    if (bracket := maxabs(Y @ N - N @ Y + 2 * N)) > 1e3 * tol * scale:
        raise ConstructionFailed("[Y, N] = -2N fails on the input")
    zero = np.zeros_like(N)
    # each column's W-weight: of its last coordinate in T above Filtration.depth's bound
    w = W.adapted_weights
    mag = np.abs(K := frame.C.T @ W.inverse)
    weights = np.where(mag <= tol * mag.max(1, initial=1.0)[:, None], w[0], w).max(1)
    if (weights == frame.degrees).all():   # Y grades W: M = W, Y' = Y
        return DeligneSystem(W, N, Y, Y, {2: N} if maxabs(N) > tol * scale else {},
                             (zero, zero, zero), bracket / scale, frame.projectors)
    if not nilpotent:
        check_nilpotent(N, tol)
    if sorted(weights.tolist()) == w.tolist():   # the columns grade W, each cut to its W_k
        frame = Frame((np.where(w > weights[:, None], 0, K) @ W.T).T, None, weights)
    else:
        spaces = [frame.C[:, frame.degrees == k].T for k in sorted(set(frame.degrees.tolist()))]
        frame = Frame.of(_initial_w_grading(W, spaces, tol))
    frame = Frame(frame.C / np.linalg.norm(frame.C, axis=0), None, frame.degrees)
    b, span, bound = frame.degrees, W.indices[-1] - W.indices[0], 1e3 * tol * scale
    a = np.rint(np.diag(frame.coordinates(Y)).real)
    da, db = a[:, None] - a, b[:, None] - b

    def ad(A, X):
        return A @ X - X @ A

    for _ in range(span + 3):
        # frame coordinates: C^-1 Y C ~ diag(a), C^-1 Y' C = diag(b), N on a_i - a_j = -2
        Nc = frame.coordinates(N)
        N0 = np.where((da == -2) & (db == 0), Nc, 0)
        # Jacobson-Morozov: [Y',X] = 0, [H,X] = 2X select entries; [X,N0] = H = diag(a - b)
        N0p = _solve_on_entries((db == 0) & (da == 2), lambda X: X @ N0 - N0 @ X,
                                np.diag(a - b), bound, "sl2 completion system is inconsistent")
        R = ad(Nc - N0, N0p)
        if maxabs(frame.lift(R)) <= 10 * tol * scale:
            break
        R_parts = frame.parts(R)
        j0 = next((j for j in range(1, span + 1)
                   if maxabs(R_parts.get(-j, zero)) > 10 * tol * scale), None)
        if j0 is None:
            break
        # correction: [Y,g] = 0, [Y',g] = -j0 g select entries; ad N0+ ad N0 g = R_{-j0}
        g = _solve_on_entries((da == 0) & (db == -j0), lambda X: ad(N0p, ad(N0, X)),
                              np.where(db == -j0, R, 0), bound,
                              "depth correction system is inconsistent")
        frame = Frame(frame.C @ expm_nilpotent(g), expm_nilpotent(-g) @ frame.C_inv, b)
    else:
        raise ConstructionFailed("grading iteration did not converge")

    # each exit of the loop comes before the frame moves: Nc and N0+ are the final frame's
    N_parts = frame.parts(np.where(da == -2, Nc, 0))
    comps = {j: N_parts[-j] for j in range(0, span + 1)
             if -j in N_parts and maxabs(N_parts[-j]) > tol * scale}
    N0, N0p, Yp = comps.get(0, zero), frame.lift(N0p), frame.grading
    H = Y - Yp

    # np.max keeps a NaN that Python's max would drop, and the verdict fails on it
    residual = float(np.max([
        maxabs(Y @ Yp - Yp @ Y),
        maxabs(sum(comps.values()) - N) if comps else maxabs(N),
        *(maxabs(Yp @ part - part @ Yp + j * part) for j, part in comps.items()),
        maxabs(H @ N0 - N0 @ H + 2 * N0),
        maxabs(N0p @ N0 - N0 @ N0p - H),
        maxabs(H @ N0p - N0p @ H - 2 * N0p),
        maxabs((N - N0) @ N0p - N0p @ (N - N0)),
    ])) / scale
    if not _grades({k: frame.C.T[b == k] for k in W.indices}, W, tol):
        raise ConstructionFailed("result does not grade the weight filtration")
    if not (np.isfinite(Yp).all() and residual <= 1e3 * tol):
        raise ConstructionFailed(f"bracket identities fail at {residual:.3e}")
    return DeligneSystem(W=W, N=N, Y=Y, Yprime=Yp, N_components=comps,
                         sl2=(N0, H, N0p), residual=float(residual),
                         projectors=frame.projectors)


# ---------------------------------------------------------------------------
# nilpotent orbits


class NilpotentOrbit:
    """(W, N, F_inf) with N nilpotent, preserving W and horizontal for F_inf."""

    def __init__(self, W: Filtration, N, F_inf: Filtration, tol: float = DEFAULT_TOL):
        self.W, self.F_inf, self.dim = W, F_inf, W.ambient_dim
        # the one N of the orbit path, n x n, and its complex copy
        self.monodromy = check_square(as_operator(N), self.dim)
        self.N = np.array(self.monodromy, dtype=complex)
        # the table of the nilpotency check, N^0 .. N^m; exp builds N^k / k! off it once
        self._powers, self._series = nilpotent_powers(self.monodromy, tol), None
        # N' = N in the coordinates of W, which limit_mhs reads, checked at tol
        self.operator = W.operator(self.monodromy)
        if not lowers(W, self.operator, 0, tol):
            raise NotNilpotent("N must preserve the weight filtration")
        if not lowers(F_inf, F_inf.operator(self.monodromy), -1, tol):
            raise NotNilpotent("N must shift the Hodge filtration by one (horizontality)")
        self._bases: dict = {}   # per tol, by the first fiber: _base's frames or None
        self._limits: dict = {}  # per tol, by limit_mhs: the limit (M, F_inf)

    def exp(self, z) -> np.ndarray:
        """exp(zN) = sum_k z^k N^k / k!, for a z or, as (m, n, n), for a stack
        of m; not finite past the float range."""
        z = np.asarray(z, dtype=complex)[..., None, None]
        if self._series is None:
            self._series = [np.array(P, dtype=complex) / factorial(k)
                            for k, P in enumerate(self._powers)]
        with np.errstate(all="ignore"):
            return sum(z ** k * P for k, P in enumerate(self._series))

    def fiber(self, z: complex, tol: float = DEFAULT_TOL) -> MixedHodgeStructure:
        """(W, exp(zN) F_inf) on the route of the orbit's base (_base): at every
        z, the period of exp(zN) P_inf on a Hodge-Tate base; for y > 0, the
        bigrading and group element at i moved by g on an R-split one; else the
        literal lattice of moved_fiber (module docstring)."""
        x, y, known, w = complex(z).real, complex(z).imag, None, None
        where = f"orbit fiber at z = {z} is not a mixed Hodge structure: "
        g, E, E_inv = self.exp([z, x, -x])   # exp(zN), exp(xN), exp(-xN)
        base, W = self._base(tol), self.W
        with np.errstate(all="ignore"):
            if base and len(base) == 2:   # Hodge-Tate
                P, logP = base
                known = (W.operator(g) @ P, bch([-logP.conj(), 2j * y * W.operator(self.N), logP]))
            elif base and y > 0:   # y^(Y/2) = C diag(y^(deg/2)) C^-1, lim's C
                lim, at_i, w_i = base
                s = y ** (lim.degrees / 2)
                G = E @ (lim.C / s) @ lim.C_inv
                G_inv = (lim.C * s) @ lim.C_inv @ E_inv
                known, w = at_i.moved(G, G_inv), G @ w_i @ G_inv
                known, w = (known, w) if np.isfinite([known.C, known.C_inv]).all() else (None, None)
        # a period g P_inf is not finite where g is not
        if not np.isfinite(known if isinstance(known, tuple) else g).all():
            raise MalformedFiltration(where + "the move is not finite")
        return moved_fiber(self.W, self.F_inf, g, where, tol, known, w)

    def _base(self, tol: float) -> tuple | None:
        """Once per tol, the fibers' route: (P_inf, log P_inf) if N lowers W by
        two and the limit is Hodge-Tate of length <= 8 (linalg.bch); else the
        limit's weight frame, the frame at i and w_i = -2i delta at i, if N and
        Y are real, Y preserves W, [Y, N] = -2N, the fiber at i is not
        Hodge-Tate and its splitting holds; else None."""
        if tol not in self._bases:
            self._bases[tol] = None
            with suppress(HodgeError):
                Hlim = limit_mhs(self, tol)
                period, lim = Hlim.bigrading(tol).period, Hlim.bigrading(tol).weight_frame
                Y, N = lim.grading, self.N
                if period and Hlim.W is self.W and self.W.indices[-1] - self.W.indices[0] <= 8:
                    self._bases[tol] = period.P, logm_unipotent(period.P)
                elif (max(maxabs(Y.imag), maxabs(N.imag), maxabs(Y @ N - N @ Y + 2 * N))
                        <= tol * max(maxabs(Y), maxabs(N), 1.0)
                        and lowers(self.W, self.W.operator(Y), 0, tol)):
                    H = moved_fiber(self.W, self.F_inf, self.exp(1j), "", tol)
                    if not (at_i := H.bigrading(tol)).period:
                        self._bases[tol] = (lim, at_i.frame, -2j * deligne_delta(H, tol).delta)
        return self._bases[tol]


def moved_fiber(W: Filtration, F_inf: Filtration, g: np.ndarray, where: str,
                tol: float = DEFAULT_TOL,
                known: tuple[np.ndarray, np.ndarray] | Frame | None = None,
                group: np.ndarray | None = None) -> MixedHodgeStructure:
    """(W, g F_inf), F_inf moved as one flag (Filtration.moved): the fiber of an
    orbit and of a variation, NotAnMHS (opened by where) if it is no MHS.  g and
    known (MixedHodgeStructure) come checked finite (NilpotentOrbit.fiber, variations._moves)."""
    H = MixedHodgeStructure(W, F_inf.moved(g, tol), known, group)
    if not (report := H.validate(tol)).ok:
        raise NotAnMHS(where + "; ".join(report.failures))
    return H


def limit_mhs(orbit: NilpotentOrbit, tol: float = DEFAULT_TOL) -> MixedHodgeStructure:
    """The limit (M(N, W), F_inf), built once per orbit and tol, which limit_height
    and the fibers' base share; a limit that is none raises on every call."""
    if tol not in orbit._limits:
        M = _relative_from_operator(orbit.operator, orbit.W, tol)
        H = MixedHodgeStructure(M, orbit.F_inf)
        H.bigrading(tol)   # NotAnMHS naming the failed axioms
        orbit._limits[tol] = H
    return orbit._limits[tol]


def limit_height(orbit: NilpotentOrbit, orientation, tol: float = DEFAULT_TOL) -> float:
    """Height of the orbit: the height read of height.py, the coefficient of
    P_min delta P_max on the top generator against the bottom generator.

    The generators orient W and are checked against it as a fiber's are;
    delta is the splitting of the limit (M, F_inf), and P_k the projectors of
    the Y' that the Deligne-system body builds from the limit's Y and weight
    frame: Y' = Y and P_k the limit's weight projectors when M = W."""
    _check_oriented(orbit.W, orientation, tol)
    Hlim = limit_mhs(orbit, tol)
    frame = Hlim.bigrading(tol).weight_frame
    projectors = _deligne_system(orbit.W, orbit.N, frame.grading, frame, tol, True).projectors
    return _deep_coefficient(deligne_delta(Hlim, tol).delta, projectors, orientation, tol)


# ---------------------------------------------------------------------------
# seeded generator for admissible systems (test vectors)


def random_deligne_system(rng: np.random.Generator, max_dim: int = 6,
                          tol: float = DEFAULT_TOL):
    """A random Deligne system (W, N, Y), built from weighted shift strings and
    conjugated by a random rational change of basis; retries until the grading
    data verifies as admissible."""
    for _ in range(200):
        strings = []
        total = 0
        while total < max_dim - 1 and (total == 0 or rng.random() < 0.7):
            length = int(rng.integers(1, min(4, max_dim - total) + 1))
            strings.append(length)
            total += length
        n = total
        Wlev = []
        Mlev = []
        N = np.zeros((n, n))
        idx = 0
        for length in strings:
            top_m = int(rng.integers(-1, 2)) * 2 + (length - 1)
            kind = rng.random()
            for j in range(length):
                mu = top_m - 2 * j
                Mlev.append(mu)
                if kind < 0.45:
                    Wlev.append(mu)           # Hodge-Tate-like: W follows M
                elif kind < 0.8:
                    Wlev.append(top_m - (length - 1))   # pure W block
                else:
                    Wlev.append(mu + int(rng.integers(0, 2)) * 2 - 1)
                if j + 1 < length:
                    N[idx + j + 1, idx + j] = 1.0
            idx += length
        Y = np.diag(np.array(Mlev, dtype=float))
        W = split_filtration(Wlev, True)
        try:
            # raises DoesNotExist when N does not preserve W
            M = relative_weight_filtration(N, W, tol)
        except DoesNotExist:
            continue
        # Y must grade M
        if [int(x) for x in sorted(set(Mlev))] != M.indices:
            continue
        Mref = split_filtration(Mlev, True)
        if not all(Mref.at(k).equals(M.at(k), tol) for k in M.indices):
            continue
        # random rational coordinate change preserving nothing in particular
        g = np.eye(n) + np.triu(rng.integers(-2, 3, size=(n, n)), 1).astype(float)
        perm = rng.permutation(n)
        g = g[perm][:, perm]
        ginv = np.linalg.inv(g)
        N2 = g @ N @ ginv
        Y2 = g @ Y @ ginv
        W2 = W.map_spaces(lambda s: s.image_under(g, tol))
        return W2, N2, Y2
    raise ConstructionFailed("random system generation failed repeatedly")
