"""Nilpotent orbits, relative weight filtrations and limit heights.

monodromy_weight_filtration is the classical unique filtration W(N) with
N W_k <= W_{k-2} and N^j inducing isomorphisms between the graded pieces at
center+j and center-j; it is computed by the closed formula

    W(N)_k = sum_j N^j ( ker N^(k+2j+1) )

and verified against both axioms afterwards.

Each function of the orbit path takes one N (linalg.as_operator): Fraction
rows when every entry is rational, otherwise a complex array, with its
powers from one table (linalg.nilpotent_powers).  So rational N with
rational W stays in exact arithmetic throughout, and no rank
decision on it involves a threshold; only N that is not rational (real N
that depends on F, say) takes the float path.

relative_weight_filtration(N, W) runs in the coordinates c of v = c T, T the
adapted basis of W (linalg.AdaptedBasis), where W_k is the span of the
first d_k = dim W_k coordinates and N acts by N' (AdaptedBasis.operator).
N preserves W exactly when N' vanishes below its diagonal blocks; N on W_k
is then the leading d_k x d_k block of N' (and N^j the leading block of
N'^j, so one power table serves every level), and N on Gr^W_k is the k-th
diagonal block.  The recursion peels the top weight k of W: with M'
computed on W_k' (k' the weight below) and carried up to C^(d_k) by
appending zero coordinates,

    M_(k+j)  = preimage of M'_(k-j-2) under N^(j+1)      (j >= 0)
    M_(k-j)  = N^j( M_(k+j) ) + M'_(k-j)                 (j >= 1)

with every preimage taken inside C^(d_k) = W_k.  With m the nilpotency
index (N^m = 0), only the 2m-1 indices k-m+1 .. k+m-1 of each peeled
weight are live: from j = m-1 on the preimage under N^(j+1) = 0 is
everything, so M_(k+j) = W_k, and from j = m on the push N^j M_(k+j) is
zero, so M_(k-j) = M'_(k-j).  The recursion therefore computes M_(k+j) for
j = 0..m-2 and M_(k-j) for j = 1..m-1, sets M_(k+m-1) = W_k and carries the
entries of M' at or below k-m over unchanged.  The base case is the
monodromy filtration of the bottom block.  M goes back by c -> c T.

The two characterizing axioms are re-verified on the result; failure raises
DoesNotExist (admissibility failure).  The graded axiom compares, on each
Gr^W_k, dim (M_j cap W_k) / (M_j cap W_(k-1)) with the dimension of the
monodromy filtration of the diagonal block for j in [k-2n, k+2n] (for the
bottom piece that is the base case, computed once).  The first dimension
is a count: each step of M is row-reduced once with its pivots taken from
the right (linalg.right_echelon), and it is the number of rows with pivot
in d_(k-1) .. d_k - 1.  Both are step functions of j that change only at
jumps of M or of the reference, so evaluating them at the lower end of the
range and at every such jump inside it is the same check as evaluating
them at every integer.

deligne_system_grading builds the unique grading Y' of W commuting with a
given grading Y of M such that the zero eigencomponent N0 of N completes to
an sl2-triple (N0, H = Y - Y', N0+) commuting with the deeper components of
N.  It starts from pieces (weight -> basis rows) of a grading of W: in each
eigenspace E of Y (computed once, there) a complement of E cap W_(k-1) in
E cap W_k, read off one echelon of E in the coordinates of T.  The defect
[N - N0, N0+] is then killed depth by depth with corrections exp(gamma),
[Y, gamma] = 0; nilpotency bounds the number of steps.  A correction moves
each piece by G = exp(gamma) (rows B become B G^T), so every row stays an
eigenvector of Y.  With C the matrix of the rows as columns, C^-1 Y C and
C^-1 Y' C are diagonal, diag(a) and diag(b), so ad Y and ad Y' act on the
entries of C^-1 X C by a_i - a_j and b_i - b_j, and their bracket conditions
only select the entries that may be nonzero: b_i = b_j and a_i - a_j = 2
for N0+, a_i = a_j and b_i - b_j = -j0 for gamma.  What remains,
[N0+, N0] = H or ad N0+ ad N0 gamma = R_(-j0), is solved by least squares on
those entries.  Each step takes the projectors of the pieces from
linalg.graded_projectors, sets Y' = sum k P_k and takes every degree part of
N and of the defect in one linalg.graded_parts call each.  That the final
pieces grade W and all bracket identities are verified post hoc.  The final
projectors stay on the DeligneSystem, read-only, for the limit_height read.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .config import default_tol
from .errors import (
    ConstructionFailed,
    DoesNotExist,
    MalformedFiltration,
    NotAnMHS,
    NotNilpotent,
)
from .height import _check_oriented, _deep_coefficient
from .linalg import (
    AdaptedBasis,
    Subspace,
    as_operator,
    check_nilpotent,
    expm_nilpotent,
    graded_parts,
    graded_projectors,
    maxabs,
    nilpotent_powers,
    nullspace_exact,
    nullspace_float,
    right_echelon,
)
from .mhs import Filtration, MixedHodgeStructure, weight_filtration
from .splitting import deligne_delta

# ---------------------------------------------------------------------------
# monodromy weight filtration


def monodromy_weight_filtration(N, center: int = 0,
                                tol: float | None = None) -> Filtration:
    """The unique filtration with N W_k <= W_{k-2} and N^j : Gr_{c+j} ~ Gr_{c-j}."""
    tol = default_tol() if tol is None else tol
    N = as_operator(N)
    n = len(N)
    powers = nilpotent_powers(N, tol)
    m = len(powers) - 1

    def kernel(e: int) -> Subspace:
        if isinstance(N, list):
            return Subspace.from_rows(nullspace_exact(powers[e], n), n)
        return Subspace.from_rows(nullspace_float(powers[e], tol), n, tol)

    # ker N^e for e = 0..m, each computed once: zero at e = 0, everything at m
    kernels = [Subspace.zero(n), *(kernel(e) for e in range(1, m)), Subspace.full(n)]
    images: dict[tuple[int, int], Subspace] = {}   # (e, j) -> N^j ker N^e

    sums: dict[int, Subspace] = {}
    for k in range(-m, m + 1):
        total = Subspace.zero(n)
        for j in range(0, m + 1):
            e = min(max(k + 2 * j + 1, 0), m)
            if (e, j) not in images:
                images[(e, j)] = kernels[e].image_under(powers[j], tol) if j else kernels[e]
            total = total.add(images[(e, j)], tol)
        sums[k + center] = total
    filt = _steps_to_filtration(sums, n)
    _verify_centered(filt, powers, center, tol)
    return filt


def _verify_centered(filt: Filtration, powers: list, center: int, tol: float) -> None:
    m = len(powers) - 1
    for k in filt.indices:
        moved = filt.at(k).image_under(powers[1], tol)
        if not filt.at(k - 2).contains(moved, tol):
            raise NotNilpotent("monodromy filtration axiom N W_k <= W_{k-2} failed")
    for j in range(1, m + 1):
        hi = _gr_dim(filt, center + j)
        lo = _gr_dim(filt, center - j)
        if hi != lo:
            raise NotNilpotent("graded pieces are not symmetric around the center")
        if hi:
            # N^j must drop Gr_{c+j} isomorphically onto Gr_{c-j}
            img = filt.at(center + j).image_under(powers[j], tol)
            covered = img.add(filt.at(center - j - 1), tol)
            if covered.dim - filt.at(center - j - 1).dim != hi:
                raise NotNilpotent("N^j does not induce an isomorphism on graded pieces")


def _gr_dim(filt: Filtration, k: int) -> int:
    return filt.at(k).dim - filt.at(k - 1).dim


# ---------------------------------------------------------------------------
# relative weight filtration


def relative_weight_filtration(N, W: Filtration, tol: float | None = None) -> Filtration:
    tol = default_tol() if tol is None else tol
    flag = W.adapted_basis()
    Np = flag.operator(as_operator(N))
    powers = nilpotent_powers(Np, tol)
    if not _preserves(flag, Np, tol):
        raise DoesNotExist("N does not preserve the weight filtration")
    base, M_steps = _relative_rec(powers, W.indices, flag.dims, tol)
    try:
        filt = _steps_to_filtration(M_steps, W.ambient_dim)
    except MalformedFiltration as exc:
        # the downward/upward passes only interlock when the filtration exists
        raise DoesNotExist(f"candidate family is not a filtration: {exc}") from exc
    _verify_relative(filt, Np, W.indices, flag.dims, base, tol)
    return filt.map_spaces(lambda s: flag.lift(s, tol))


def _preserves(flag: AdaptedBasis, Np, tol: float) -> bool:
    """Whether Np = flag.operator(N) vanishes below its diagonal blocks: exactly,
    or up to tol * max(max |Np|, 1) as the rref_float pivot threshold."""
    n = len(Np)
    block = [sum(d <= i for d in flag.dims) for i in range(n)]
    lower = [Np[i][j] for i in range(n) for j in range(n) if block[i] > block[j]]
    if isinstance(Np, list):
        return not any(lower)
    return max(map(abs, lower), default=0.0) <= tol * max(maxabs(Np), 1.0)


def _block(A, lo: int, hi: int):
    """The diagonal block of rows and columns lo .. hi-1 of Fraction rows or an array."""
    return [row[lo:hi] for row in A[lo:hi]] if isinstance(A, list) else A[lo:hi, lo:hi]


def _pad(S: Subspace, d: int) -> Subspace:
    """S in C^d by appending zero coordinates, which keeps its echelon rows."""
    zeros = [Fraction(0)] * (d - S.ambient_dim)
    basis = np.hstack([S.basis, np.zeros((S.dim, len(zeros)), dtype=complex)])
    return Subspace(basis, d, pivots=S.pivots,
                    exact=None if S.exact is None else [row + zeros for row in S.exact])


def _relative_rec(powers: list, weights: list[int], dims: tuple[int, ...],
                  tol: float) -> tuple[Filtration, dict[int, Subspace]]:
    """(base, M) from the power table of N': the monodromy filtration of the
    bottom block, and M in the coordinates of T as a map k -> M_k, read as
    the step function of its largest key <= j (see the module docstring)."""
    m = len(powers) - 1
    base = monodromy_weight_filtration(_block(powers[1], 0, dims[0]), weights[0], tol)
    M = dict(base.steps)
    for k_top, d in zip(weights[1:], dims[1:]):
        keys = sorted(M)
        Msub = {k: _pad(M[k], d) for k in keys}
        P = [_block(p, 0, d) for p in powers]

        def msub_at(j: int) -> Subspace:
            i = bisect_right(keys, j)
            return Msub[keys[i - 1]] if i else Subspace.zero(d)

        # upward: M_(k+j) = N^-(j+1) M'_(k-j-2); N^(j+1) = 0 from j = m-1 on
        up = [msub_at(k_top - j - 2).preimage_under(P[j + 1], tol) for j in range(m - 1)]
        up.append(Subspace.full(d))
        M = {k: Msub[k] for k in keys if k <= k_top - m}
        # downward: M_(k-j) = N^j M_(k+j) + M'_(k-j); N^j = 0 from j = m on
        for j in range(1, m):
            M[k_top - j] = up[j].image_under(P[j], tol).add(msub_at(k_top - j), tol)
        for j, space in enumerate(up):
            M[k_top + j] = space
    return base, M


def _steps_to_filtration(M: dict[int, Subspace], n: int) -> Filtration:
    steps = []
    prev = -1
    for k in sorted(M):
        if M[k].dim > prev and M[k].dim > 0:
            steps.append((k, M[k]))
            prev = M[k].dim
    return weight_filtration(steps, n)


def _verify_relative(M: Filtration, Np, weights: list[int], dims: tuple[int, ...],
                     base: Filtration, tol: float) -> None:
    """Both axioms of M = M(N, W) in the coordinates of T, Np = N'; the
    graded one by pivot counts (see the module docstring)."""
    for k in M.indices:
        if not M.at(k - 2).contains(M.at(k).image_under(Np, tol), tol):
            raise DoesNotExist("candidate filtration is not lowered by two under N")
    n = len(Np)
    keys = M.indices
    pivots = [right_echelon(s.exact if s.is_exact() else s.basis, tol)[1] for _, s in M.steps]
    lo = 0
    for k, d in zip(weights, dims):
        ref = monodromy_weight_filtration(_block(Np, lo, d), k, tol) if lo else base
        first, last = k - 2 * n, k + 2 * n
        for j in sorted({first, *(i for i in keys + ref.indices if first < i <= last)}):
            i = bisect_right(keys, j)
            got = sum(lo <= p < d for p in pivots[i - 1]) if i else 0
            if got != ref.at(j).dim:
                raise DoesNotExist(
                    f"induced filtration on Gr_{k} differs from the monodromy filtration")
        lo = d


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

    @property
    def N0(self) -> np.ndarray:
        return self.sl2[0]


def _eigenspaces(Y: np.ndarray, levels, tol: float) -> dict[int, Subspace]:
    """The nonzero eigenspaces of Y at the given integer eigenvalues."""
    n = Y.shape[0]
    spaces = {}
    for k in levels:
        E = Subspace.from_rows(nullspace_float(Y - k * np.eye(n), tol), n, tol)
        if E.dim:
            spaces[k] = E
    return spaces


def _grades(pieces: dict[int, np.ndarray], W: Filtration, tol: float) -> bool:
    """Whether the pieces (weight -> basis rows) grade W: their rows are
    independent, each piece k lies in W_k (read by AdaptedBasis.depth) and,
    for every weight k, the pieces with key <= k count dim W_k rows."""
    rows = np.vstack(list(pieces.values()))
    flag = W.adapted_basis()
    return (Subspace.from_rows(rows, W.ambient_dim, tol).dim == len(rows)
            and all(flag.depth(b, tol) <= W.at(j).dim for j, b in pieces.items())
            and all(sum(len(b) for j, b in pieces.items() if j <= k) == W.at(k).dim
                    for k in W.indices))


def _initial_w_grading(W: Filtration, Y: np.ndarray, tol: float) -> dict[int, np.ndarray]:
    """The pieces (weight -> basis rows) of a grading of W commuting with Y:
    in each eigenspace E of Y an echelon complement of E cap W_(k-1) in
    E cap W_k, with E reduced once against the flag of W and E cap W_k read
    off it (AdaptedBasis.meet)."""
    n = W.ambient_dim
    evs = sorted({int(round(x.real)) for x in np.linalg.eigvals(Y)})
    flag = W.adapted_basis()
    parts: dict[int, list] = {k: [] for k in W.indices}
    for E in _eigenspaces(Y, evs, tol).values():
        reduced = flag.reduce(E, tol)
        prev = Subspace.zero(n)
        for k, Wk in W.steps:
            meet = flag.meet(E, reduced, Wk, tol)
            parts[k].append(prev.complement_in(meet, tol).basis)
            prev = meet
    pieces = {k: np.vstack(b) for k, b in parts.items()}
    if sum(len(b) for b in pieces.values()) != n:
        raise ConstructionFailed("initial grading construction did not span")
    return pieces


def _solve_on_support(C: np.ndarray, Cinv: np.ndarray, support: np.ndarray, op,
                      rhs: np.ndarray, bound: float, failure: str) -> np.ndarray:
    """The least-squares X = C Z C^-1, Z zero off the mask support, of the
    linear op(X) = rhs (op maps stacks of matrices); raises
    ConstructionFailed(failure) when op(X) misses rhs by more than bound."""
    i, j = np.nonzero(support)
    basis = C.T[i][:, :, None] * Cinv[j][:, None, :]   # C e_i e_j^T C^-1
    z = np.linalg.lstsq(op(basis).reshape(len(i), rhs.size).T, rhs.ravel(), rcond=None)[0]
    X = np.tensordot(z, basis, 1)
    if maxabs(op(X) - rhs) > bound:
        raise ConstructionFailed(failure)
    return X


def deligne_system_grading(W: Filtration, N: np.ndarray, Y: np.ndarray,
                           tol: float | None = None) -> DeligneSystem:
    """The unique grading Y' of W commuting with Y whose sl2 completion
    satisfies [N - N0, N0+] = 0; all invariants re-verified before returning."""
    tol = default_tol() if tol is None else tol
    N = np.asarray(N, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    n = W.ambient_dim
    scale = max(maxabs(N), maxabs(Y), 1.0)
    if maxabs(Y @ N - N @ Y + 2 * N) > 1e3 * tol * scale:
        raise ConstructionFailed("[Y, N] = -2N fails on the input")
    check_nilpotent(N, tol)

    pieces = _initial_w_grading(W, Y, tol)
    span = W.indices[-1] - W.indices[0]

    def ad(A, X):
        return A @ X - X @ A

    zero = np.zeros((n, n), dtype=complex)
    for _ in range(span + 3):
        proj = graded_projectors(pieces)
        Yp = sum(k * P for k, P in proj.items())
        N_parts = graded_parts(proj, N)
        N0 = N_parts.get(0, zero)
        H = Y - Yp
        # the rows of the pieces as columns: C^-1 Y C = diag(a), C^-1 Y' C = diag(b)
        keys = sorted(pieces)
        C = np.vstack([pieces[k] for k in keys]).T
        Cinv = np.linalg.inv(C)
        a = np.rint(np.diag(Cinv @ Y @ C).real)
        b = np.concatenate([np.full(len(pieces[k]), k) for k in keys])
        da, db = a[:, None] - a, b[:, None] - b
        # Jacobson-Morozov: [Y',X] = 0, [H,X] = 2X select entries; [X,N0] = H
        N0p = _solve_on_support(C, Cinv, (db == 0) & (da == 2), lambda X: -ad(N0, X), H,
                                1e3 * tol * scale, "sl2 completion system is inconsistent")
        R = ad(N - N0, N0p)
        if maxabs(R) <= 10 * tol * scale:
            break
        R_parts = graded_parts(proj, R)
        j0 = next((j for j in range(1, span + 1)
                   if maxabs(R_parts.get(-j, zero)) > 10 * tol * scale), None)
        if j0 is None:
            break
        # correction: [Y,g] = 0, [Y',g] = -j0 g select entries; ad N0+ ad N0 g = R_{-j0}
        g = _solve_on_support(C, Cinv, (da == 0) & (db == -j0),
                              lambda X: ad(N0p, ad(N0, X)), R_parts[-j0],
                              1e3 * tol * scale, "depth correction system is inconsistent")
        # Ad(exp(gamma)) Y' grades by the pieces moved by exp(gamma)
        G = expm_nilpotent(g)
        pieces = {k: rows @ G.T for k, rows in pieces.items()}
    else:
        raise ConstructionFailed("grading iteration did not converge")

    # every exit of the loop above comes before the pieces move, so proj, Yp
    # and N_parts belong to the final pieces
    comps = {j: N_parts[-j] for j in range(0, span + 1)
             if -j in N_parts and maxabs(N_parts[-j]) > tol * scale}
    N0 = comps.get(0, zero)

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
    if not _grades(pieces, W, tol):
        raise ConstructionFailed("result does not grade the weight filtration")
    if not (np.isfinite(Yp).all() and residual <= 1e3 * tol):
        raise ConstructionFailed(f"bracket identities fail at {residual:.3e}")
    return DeligneSystem(W=W, N=N, Y=Y, Yprime=Yp, N_components=comps,
                         sl2=(N0, H, N0p), residual=float(residual),
                         projectors=MappingProxyType(proj))


# ---------------------------------------------------------------------------
# nilpotent orbits


class NilpotentOrbit:
    """(W, N, F_inf) with N nilpotent, preserving W and horizontal for F_inf."""

    def __init__(self, W: Filtration, N, F_inf: Filtration, tol: float | None = None):
        tol = default_tol() if tol is None else tol
        self.W = W
        self.F_inf = F_inf
        self.dim = W.ambient_dim
        # the one N of the orbit path, and its complex copy for exp(zN)
        self.monodromy = as_operator(N)
        self.N = np.array(self.monodromy, dtype=complex)
        check_nilpotent(self.monodromy, tol)
        flag = W.adapted_basis()
        if not _preserves(flag, flag.operator(self.monodromy), tol):
            raise NotNilpotent("N must preserve the weight filtration")
        for p in F_inf.indices:
            moved = F_inf.at(p).image_under(self.monodromy, tol)
            if not F_inf.at(p - 1).contains(moved, tol):
                raise NotNilpotent("N must shift the Hodge filtration by one (horizontality)")

    def fiber(self, z: complex, tol: float | None = None) -> MixedHodgeStructure:
        G = expm_nilpotent(complex(z) * self.N)
        F = self.F_inf.map_spaces(lambda s: s.image_under(G, tol))
        H = MixedHodgeStructure(self.W, F)
        if not H.validate(tol).ok:
            raise NotAnMHS(f"orbit fiber at z = {z} is not a mixed Hodge structure")
        return H


def limit_mhs(orbit: NilpotentOrbit, tol: float | None = None) -> MixedHodgeStructure:
    M = relative_weight_filtration(orbit.monodromy, orbit.W, tol)
    H = MixedHodgeStructure(M, orbit.F_inf)
    report = H.validate(tol)
    if not report.ok:
        raise NotAnMHS("; ".join(report.failures))
    return H


def limit_height(orbit: NilpotentOrbit, orientation, tol: float | None = None) -> float:
    """Height of the orbit: the height read of height.py, the coefficient of
    P_min delta P_max on the top generator against the bottom generator.

    The generators orient W and are checked against it as a fiber's are; the
    projectors P_k are those of the Deligne system's grading Y' of W, and
    delta is the splitting of the limit structure (F_inf, M)."""
    tol = default_tol() if tol is None else tol
    _check_oriented(orbit.W, orientation, tol)
    Hlim = limit_mhs(orbit, tol)
    system = deligne_system_grading(orbit.W, orbit.N, Hlim.bigrading(tol).Y, tol)
    return _deep_coefficient(deligne_delta(Hlim, tol).delta, system.projectors,
                             orientation, tol)


# ---------------------------------------------------------------------------
# seeded generator for admissible systems (test vectors)


def random_deligne_system(rng: np.random.Generator, max_dim: int = 6,
                          tol: float | None = None):
    """A random Deligne system (W, N, Y), built from weighted shift strings and
    conjugated by a random rational change of basis; retries until the grading
    data verifies as admissible."""
    tol = default_tol() if tol is None else tol
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
        wvals = sorted(set(Wlev))
        steps = []
        for k in wvals:
            rows = [np.eye(n)[i] for i in range(n) if Wlev[i] <= k]
            steps.append((k, Subspace.from_rows(rows, n)))
        try:
            W = weight_filtration(steps, n)
        except Exception:
            continue
        flag = W.adapted_basis()
        if not _preserves(flag, flag.operator(as_operator(N)), tol):
            continue
        try:
            M = relative_weight_filtration(N, W, tol)
        except DoesNotExist:
            continue
        # Y must grade M
        if [int(x) for x in sorted(set(Mlev))] != M.indices:
            continue
        good = True
        for k in M.indices:
            span = Subspace.from_rows([np.eye(n)[i] for i in range(n) if Mlev[i] <= k], n)
            if not span.equals(M.at(k), tol):
                good = False
                break
        if not good:
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
