"""Mixed Hodge structures and their Deligne bigrading.

A mixed Hodge structure is a pair of filtrations on a fixed coordinate space:
an increasing rational weight filtration W and a decreasing Hodge filtration F
on the complexification.  The rational structure is the coordinate basis, so
Betti conjugation is entrywise conjugation.

The canonical bigrading splits the complexified space as a direct sum of
pieces I^{p,q} with

    I^{p,q} = F^p  cap  W_{p+q}  cap  ( conj(F^q) cap W_{p+q} + conj(U^{q-1}_{p+q-2}) ),
    U^r_s   = sum_j F^{r-j} cap W_{s-j},

from which F and W are recovered by summing components.  Validity of the pair
(F, W) as a mixed Hodge structure is exactly the statement that this
decomposition works.

A Filtration is a flag: rows T whose first dim W_k rows span W_k.  In the
coordinates v T^-1 of the flag of W, the first dim F^p rows of the flag of
F are row-reduced once, pivots from the right (over Q when both flags are
exact), and every F^p cap W_k is read off that echelon, its dimension a
count of pivots (MixedHodgeStructure._component_candidates).  The counts
give the Hodge numbers h^{a,b}; only pieces with h^{a,b} != 0 are built, and
one with h^{a,b} = dim F^a cap W_{a+b} is that space itself.

A Hodge-Tate structure, whose counts give h^{a,a} = dim Gr^W_2a, is valid
by the counts alone: F^a cap W_2a maps onto Gr^W_2a and F^{a+1} cap W_2a
lies in W_{2a-1}, so I^{a,a} = F^a cap W_2a and the pieces are direct.  It
is kept as a Period: P in the coordinates of T, whose block 2a is the basis
of I^{a,a} unit on that block (the echelon rows of F^a with pivots there),
and L = log(conj(P)^-1 P); its linalg.Frame is C = T^T P, degree (a, a) on
block 2a.  A g that preserves W (lowers) keeps the Hodge numbers, and one in
exp(W_-2 gl) carries the bigrading along, so a fiber moved from a Hodge-Tate
limit comes with its period (limits.NilpotentOrbit.fiber, variations.fiber).
Only pairs with no known period take the plain log of conj(P)^-1 P: hand-
built and document structures, limits, and fibers of a Hodge-Tate limit of
length > 8 or with an N_j or Gamma that does not lower W by two.  A real g
that preserves W moves the whole bigrading, so a moved frame needs only its
conjugation check.

Any other pair is validated in two stages.  First the candidates must form
a direct sum: their dimensions add to n and their stacked bases have rank n.
Each candidate I^{a,b} lies in F^a cap W_{a+b}, so once the sum is direct the
F- and W-axioms reduce to the dimension equalities

    sum_{a >= p} dim I^{a,b} = dim F^p,    sum_{a+b <= k} dim I^{a,b} = dim W_k.

This is the bigrading of Deligne's splitting lemma (Cattani-Kaplan-Schmid,
Degeneration of Hodge structures, Ann. Math. 1986, section 2), whose pieces
have dim I^{a,b} = h^{a,b} and which is unique, so skipping the pieces with
h^{a,b} = 0, and taking F^a cap W_{a+b} whole where its dimension is
h^{a,b}, loses nothing on a mixed Hodge structure and lets no other pair
pass.  The conjugation axiom, conj I^{a,b} inside I^{b,a} + sum_{x<b, y<a}
I^{x,y}, is one residual per piece, ||(1 - P_target) conj(B)^T||_max <= tol
* max(1, ||B||_max) for the echelon basis B of the piece, P_target the
projector of the pieces' frame onto the target pieces: linear in B, so the
bound scales with the basis, as the pivot threshold of rref_float does.

A MixedHodgeStructure is immutable.  It caches per tolerance the
ValidationReport and, when the axioms hold, the DeligneBigrading with the
frame validation built, whose projectors, weight projectors and grading Y
are read once, read-only; the splitting (splitting.deligne_delta) is
cached next to it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import lcm
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, MalformedFiltration, NotAnMHS
from .linalg import (ExactMatrix, Frame, LazyMapping, Subspace, _combination, as_operator,
                     echelonize, integer, logm_unipotent, maxabs, right_echelon, rref_exact)

if TYPE_CHECKING:
    from .splitting import Splitting

# ---------------------------------------------------------------------------
# filtrations


class Filtration:
    """A filtration as its flag: rows T whose first dims[i] rows span its
    i-th smallest step, and the int indices (linalg.integer) where it jumps.
    Between jumps W_k is the step at the largest index <= k and F^p the one at
    the smallest index >= p; past the ends, the zero space.

    Built from steps (weight_filtration, hodge_filtration, map_spaces), it
    keeps them, checked to nest but by map_spaces, and takes T from them on
    first read (_flag_of).  Built from a flag (split_filtration, moved,
    shift, dual, mhs.conjugate), it keeps the rows, exactly rational ones as an
    ExactMatrix, and builds a step from its rows on first read at its tol,
    MalformedFiltration if they lost rank; it checks nothing up front.

    In the coordinates c = v T^-1 the step of dimension d is the span of the
    first d, so v lies in it when c vanishes past d (depth), N acts there by
    N' (operator) and rows c go back by c T (lift), over Q when T (exact) and
    N are exact."""

    def __init__(self, steps: Iterable[tuple[int, Subspace]], increasing: bool,
                 ambient_dim: int, tol: float = DEFAULT_TOL):
        up = self._of_steps(steps, increasing, ambient_dim, tol)
        # each step, smallest first, must lie in the next
        if not all(b.contains(a, tol) for a, b in zip(up, up[1:])):
            raise MalformedFiltration(self._not_strict())

    def _settle(self, indices, dims, increasing: bool, ambient_dim: int, tol: float) -> None:
        if not dims:
            raise MalformedFiltration("a filtration needs at least one step")
        self._indices = [integer(k, "filtration index") for k in indices]
        self._dims = [*dims, 0]
        self.increasing, self.ambient_dim, self.tol = bool(increasing), int(ambient_dim), tol
        self.dims = tuple(dims if self.increasing else dims[::-1])   # smallest first
        self._spaces: list[Subspace | None] = [*(None for _ in dims), Subspace.zero(ambient_dim)]

    def _of_steps(self, steps, increasing: bool, ambient_dim: int, tol: float) -> list:
        """Store the sorted steps, check all but their nesting: smallest first."""
        steps = sorted(((integer(k, "filtration index"), s) for k, s in steps), key=lambda t: t[0])
        spaces = [s for _, s in steps]
        self._settle([k for k, _ in steps], [s.dim for s in spaces], increasing, ambient_dim, tol)
        self._spaces[:-1] = spaces
        if any(s.ambient_dim != self.ambient_dim for s in spaces):
            raise MalformedFiltration("step has wrong ambient dimension")
        if not all(s.is_exact() or np.isfinite(s.basis).all() for s in spaces):
            raise MalformedFiltration("step basis has an entry that is not finite")
        up = spaces if self.increasing else spaces[::-1]   # smallest step first
        if any(b.dim <= a.dim for a, b in zip(up, up[1:])):
            raise MalformedFiltration(self._not_strict())
        if up[-1].dim != self.ambient_dim:
            raise MalformedFiltration("weight filtration must top out at the full space"
                                      if self.increasing else
                                      "Hodge filtration must start at the full space")
        if up[0].dim == 0:
            raise MalformedFiltration("bottom jump of W must be nonzero" if self.increasing else
                                      "top jump of F must be nonzero")
        return up

    @classmethod
    def _of_flag(cls, indices, dims, increasing: bool, rows, tol: float) -> "Filtration":
        """Step i spanned by the first dims[i] rows, which must be finite."""
        filt = cls.__new__(cls)
        filt._settle(indices, dims, increasing, len(rows), tol)
        exact = rows if isinstance(rows := as_operator(rows), ExactMatrix) else None
        if exact is None and not np.isfinite(rows).all():
            raise MalformedFiltration("step basis has an entry that is not finite")
        filt.T, filt.exact = rows if exact is None else np.array(exact, dtype=complex), exact
        filt.T.setflags(write=False)
        return filt

    def _reflag(self, rows, tol: float, by: int = 0) -> "Filtration":
        """Flag rows with these step dimensions, full step and zero space."""
        filt = Filtration._of_flag([k + by for k in self._indices], self._dims[:-1],
                                   self.increasing, rows, tol)
        filt._spaces = [*(self._step(i) if d == self.ambient_dim else None
                          for i, d in enumerate(self._dims[:-1])), self._spaces[-1]]
        return filt

    def _not_strict(self) -> str:
        return ("weight filtration steps must strictly increase" if self.increasing else
                "Hodge filtration steps must strictly decrease")

    @property
    def indices(self) -> list[int]:
        return list(self._indices)

    @property
    def steps(self) -> tuple[tuple[int, Subspace], ...]:
        return tuple((k, self._step(i)) for i, k in enumerate(self._indices))

    def _step(self, i: int) -> Subspace:
        """The step at position i, from its flag prefix on first read."""
        s = self._spaces[i]
        if s is None:
            d, n = self._dims[i], self.ambient_dim
            rows = None if self.exact is None else self.exact.num[:d]
            # unit rows e_c are the step's echelon rows, by column; copied as an echelon
            # does, since perfbench's calibration reads the garbage (ROADMAP item 1)
            units = rows and len({r.index(1) for r in rows if r.count(0) == n - 1 and 1 in r}) == d
            s = (Subspace.full(n) if d == n else Subspace.from_rows(self.T[:d], n, self.tol)
                 if rows is None else Subspace(None, n, sorted(r.index(1) for r in rows),
                                               exact=[[*r] for r in sorted(rows, reverse=True)])
                 if units else Subspace.from_integer_rows(rows, n))
            if s.dim < d:
                raise MalformedFiltration(self._not_strict())
            self._spaces[i] = s
        return s

    def at(self, k: int) -> Subspace:
        i = bisect_right(self._indices, k) - 1 if self.increasing else bisect_left(self._indices, k)
        return self._spaces[i] or self._step(i)

    def dim_at(self, k: int) -> int:
        """dim at(k), read off the step dimensions without building a step."""
        return self._dims[bisect_right(self._indices, k) - 1 if self.increasing else
                          bisect_left(self._indices, k)]

    def __getattr__(self, name: str):
        """T, the flag rows (read-only), and exact, T over Q or None, taken on
        first read from the steps (a filtration built from a flag has them)."""
        if name not in ("T", "exact"):
            raise AttributeError(name)
        self.T, self.exact = _flag_of(sorted(self._spaces[:-1], key=lambda s: s.dim))
        return getattr(self, name)

    @cached_property
    def exact_inverse(self) -> ExactMatrix | None:
        """T^-1 over Q when the flag is exact: [T den | den 1] row-reduces to
        rows g_i [e_i | row i of T^-1]."""
        if (E := self.exact) is None:
            return None
        n = len(E)
        R, _ = rref_exact([row + [E.den * (i == j) for j in range(n)]
                           for i, row in enumerate(E.num)])
        G = lcm(*(row[i] for i, row in enumerate(R)))
        return ExactMatrix([[x * (G // row[i]) for x in row[n:]] for i, row in enumerate(R)], G)

    @cached_property
    def inverse(self) -> np.ndarray:
        """T^-1, read-only, rounded once from exact_inverse on an exact flag."""
        inv = np.linalg.inv(self.T) if self.exact is None else np.array(self.exact_inverse)
        inv.setflags(write=False)
        return inv

    @cached_property
    def adapted_weights(self) -> np.ndarray:
        """The weight of each row of T (k on W_k, -p on F^p), read-only."""
        levels = self._indices if self.increasing else [-p for p in reversed(self._indices)]
        w = np.array([k for k, a, b in zip(levels, (0, *self.dims), self.dims)
                      for _ in range(b - a)])
        w.setflags(write=False)
        return w

    def reduce(self, rows, tol: float = DEFAULT_TOL):
        """The right echelon of the rows v T^-1: over Q when the rows (a list
        of int rows) and the flag are exact."""
        if isinstance(rows, list) and self.exact is not None:
            return right_echelon([_combination(v, self.exact_inverse.num, len(v)) for v in rows])
        return right_echelon(np.asarray(rows, dtype=complex) @ self.inverse, tol)

    def operator(self, N):
        """N' = T^-T N T^T (column j: N on row j of T, in coordinates), for an N
        or a stack of them: an ExactMatrix when N (as_operator) and T are."""
        if isinstance(N, ExactMatrix) and self.exact is not None:
            n, cols, inv = len(N), list(zip(*N.num)), self.exact_inverse
            images = [_combination(t, cols, n) for t in self.exact.num]
            coords = [_combination(v, inv.num, n) for v in images]
            return ExactMatrix([list(c) for c in zip(*coords)], self.exact.den * N.den * inv.den)
        return np.swapaxes(self.T @ np.swapaxes(np.asarray(N, dtype=complex), -1, -2)
                           @ self.inverse, -1, -2)

    def depth(self, rows, tol: float = DEFAULT_TOL) -> int:
        """One past the last coordinate of the rows c = v T^-1 above the
        pivot threshold tol * max(max |c|, 1) of rref_float (a NaN is above
        it): the rows lie in the step of dimension d iff their depth is <= d."""
        c = np.abs(np.asarray(rows) @ self.inverse)
        # scanned as a list: numpy reductions cost more on these few columns
        c = (c.max(axis=0, initial=0.0) if c.ndim == 2 else c).tolist()
        bound, d = tol * max(1.0, *c), len(c)
        while d and c[d - 1] <= bound:
            d -= 1
        return d

    def lift(self, S: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
        """The subspace of the rows c T for c in a subspace S of coordinates."""
        n = S.ambient_dim
        if S.is_exact() and self.exact is not None:
            return Subspace.full(n) if S.dim == n else Subspace.from_integer_rows(
                [_combination(c, self.exact.num, n) for c in S.exact], n)
        return Subspace.from_rows(S.basis @ self.T, n, tol)

    def meet(self, reduced, step: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
        """S cap step, off reduced = reduce(S): the reduced rows with pivot < d =
        dim step, cut to d coordinates and mapped back by T, span it."""
        rows, piv = reduced
        d, n = step.dim, step.ambient_dim
        keep = [i for i, c in enumerate(piv) if c < d]
        if len(keep) == d:
            return step
        if not keep:
            return Subspace.zero(n)
        if isinstance(rows, list):
            return Subspace.from_integer_rows([_combination(rows[i][:d], self.exact.num[:d], n)
                                               for i in keep], n)
        return Subspace.from_rows(rows[keep, :d] @ self.T[:d], n, tol)

    def moved(self, g, tol: float = DEFAULT_TOL) -> "Filtration":
        """g F for an invertible g: the flag rows times g^T, one product; a g
        that is not finite raises MalformedFiltration, with no warning."""
        with np.errstate(all="ignore"):
            rows = self.T @ np.asarray(g, dtype=complex).T
            scale = np.abs(rows).max(axis=1, keepdims=True)   # each row to unit max-norm
            return self._reflag(rows / np.where(scale > 0, scale, 1.0), tol)

    def shift(self, by: int) -> "Filtration":
        """The same flag and steps re-indexed by by."""
        filt = self._reflag(self.exact or self.T, self.tol, by)
        filt._spaces = list(self._spaces)
        return filt

    def dual(self, tol: float = DEFAULT_TOL) -> "Filtration":
        """The annihilators on the dual space, W_k(V*) = ann W_(-k-1), F^p(V*) =
        ann F^(1-p): rows d.. of T^-T annihilate T[:d], so the flag is T^-T reversed."""
        E, n = self.exact_inverse, self.ambient_dim
        rows = (self.inverse.T[::-1] if E is None else
                ExactMatrix([list(col) for col in zip(*E.num)][::-1], E.den))
        ks, below = self._indices[::-1], -1 if self.increasing else 1
        return Filtration._of_flag([-k for k in ks], [n - self.dim_at(k + below) for k in ks],
                                   self.increasing, rows, tol)

    def map_spaces(self, fn) -> "Filtration":
        """The steps moved by fn, a (conjugate-)linear map such as image_under,
        lift or conj, which keeps each step inside the next."""
        filt = Filtration.__new__(Filtration)
        filt._of_steps([(k, fn(s)) for k, s in self.steps], self.increasing, self.ambient_dim,
                       self.tol)
        return filt

    def __repr__(self) -> str:
        kind = "W" if self.increasing else "F"
        body = ", ".join(f"{k}:{d}" for k, d in zip(self._indices, self._dims))
        return f"Filtration[{kind}]({body})"


def _flag_of(steps: list[Subspace]) -> tuple[np.ndarray, ExactMatrix | None]:
    """T of steps given smallest first, and T over Q when they are exact: the
    echelon rows of each step at the pivots the step below lacks, with no
    tolerance; where float pivots do not nest, at those _covered_pivots frees."""
    picked: list[tuple[Subspace, int]] = []
    below: set[int] = set()
    for prev, s in zip((None, *steps), steps):
        if not below <= set(s.pivots):
            below = _covered_pivots(prev, s)
        picked += [(s, i) for i, p in enumerate(s.pivots) if p not in below]
        below = set(s.pivots)
    T = np.array([s.basis[i] for s, i in picked], dtype=complex)
    T.setflags(write=False)
    if not all(s.is_exact() for s in steps):
        return T, None
    # the leading-one rows over L, the lcm of the pivot entries a
    lead = [s.exact[i][s.pivots[i]] for s, i in picked]
    L = lcm(*lead)
    rows = [[x * (L // a) for x in s.exact[i]] for (s, i), a in zip(picked, lead)]
    return T, ExactMatrix(rows, L)


def _covered_pivots(sub: Subspace, top: Subspace) -> set[int]:
    """dim sub pivots of top whose echelon rows, swapped for the rows of
    sub, still span top: complete pivoting on the coordinates of sub in the
    rows of top, for a fixed count and so without a threshold."""
    C = np.array(sub.basis[:, top.pivots], dtype=complex)
    cols = set()
    for _ in range(sub.dim):
        i, j = np.unravel_index(int(np.argmax(np.abs(C))), C.shape)
        cols.add(top.pivots[j])
        C = C - np.outer(C[:, j] / C[i, j], C[i])
    return cols


def weight_filtration(steps: Iterable[tuple[int, Subspace]], dim: int,
                      tol: float = DEFAULT_TOL) -> Filtration:
    return Filtration(steps, increasing=True, ambient_dim=dim, tol=tol)


def hodge_filtration(steps: Iterable[tuple[int, Subspace]], dim: int,
                     tol: float = DEFAULT_TOL) -> Filtration:
    return Filtration(steps, increasing=False, ambient_dim=dim, tol=tol)


def split_filtration(levels: Sequence[int], increasing: bool, basis=None,
                     tol: float = DEFAULT_TOL) -> Filtration:
    """Step k spans the rows of basis (default: the coordinate basis) of
    level <= k (increasing) or >= k (decreasing): the flag of the rows taken
    by level, the step's own first, in basis order within a level."""
    n = len(levels)
    order = sorted(range(n), key=lambda i: levels[i] if increasing else -levels[i])
    ks = sorted(set(levels))
    return Filtration._of_flag(
        ks, [sum(lev <= k if increasing else lev >= k for lev in levels) for k in ks], increasing,
        (np.eye(n) if basis is None else np.asarray(basis))[order], tol)


# ---------------------------------------------------------------------------
# the bigrading


class Period(NamedTuple):
    """A Hodge-Tate structure in the coordinates of the flag T of W
    (module docstring): P and L = log(conj(P)^-1 P).  Its frame is C = T^T
    P, C^-1 = P^-1 T^-T, which inverts only the unipotent P."""
    P: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class DeligneBigrading:
    """The decomposition V_C = (+) I^{p,q} and its linalg.Frame, degree (p,
    q) on the columns of I^{p,q}: the component bases validation stacked and
    inverted, or a Period's C.  The projectors, weight projectors and grading
    Y (k on the weight-k piece) are read off it once, read-only."""

    components: Mapping[tuple[int, int], Subspace]
    ambient_dim: int
    frame: Frame = field(repr=False)
    period: Period | None = field(default=None, repr=False)

    @cached_property
    def weight_frame(self) -> Frame:   # graded by weight p + q
        return Frame(self.frame.C, self.frame.C_inv, self.frame.degrees.sum(1))

    @property
    def projectors(self) -> Mapping[tuple[int, int], np.ndarray]:
        return self.frame.projectors

    @property
    def weight_projectors(self) -> Mapping[int, np.ndarray]:
        return self.weight_frame.projectors

    @property
    def Y(self) -> np.ndarray:
        return self.weight_frame.grading


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


class MixedHodgeStructure:
    """A pair (F, W) of filtrations on a fixed rational coordinate space;
    known, the (P, L) of a Hodge-Tate pair or a moved Frame of pieces, is a
    bigrading known by construction, which skips the lattice, and group is the
    splitting's group element w of a moved Frame, verified (module docstring)."""

    def __init__(self, W: Filtration, F: Filtration,
                 known: tuple[np.ndarray, np.ndarray] | Frame | None = None,
                 group: np.ndarray | None = None):
        if W.ambient_dim != F.ambient_dim:
            raise MalformedFiltration("W and F live on different spaces")
        if not W.increasing or F.increasing:
            raise MalformedFiltration("W must be increasing and F decreasing")
        self.W, self.F, self.dim, self._known, self._group = W, F, W.ambient_dim, known, group
        # per tol: the report and, when it is ok, the bigrading
        self._validated: dict[float, tuple[ValidationReport, DeligneBigrading | None]] = {}
        # per tol: the Splitting, filled by splitting.deligne_delta
        self._splittings: dict[float, Splitting] = {}

    # -- ranges ---------------------------------------------------------------

    @property
    def weights(self) -> list[int]:
        return self.W.indices

    @property
    def levels(self) -> list[int]:
        return self.F.indices

    def __repr__(self) -> str:
        return f"MixedHodgeStructure(dim={self.dim}, W={self.weights}, F={self.levels})"

    # -- bigrading -------------------------------------------------------------

    def _component_candidates(self, tol: float) -> tuple[Mapping, np.ndarray | None]:
        """The candidate pieces I^{a,b} with h^{a,b} != 0, once per tol
        (validate caches the outcome), off one echelon of the flag of F^p
        against the flag of W (Filtration.meet): dim F^p cap W_k is the count
        of its rows with pivot < dim W_k, so h^{a,b} = dim F^a Gr_k - dim
        F^{a+1} Gr_k, k = a + b, takes no rank decision, and is 0 unless F
        jumps at a and W at k.  A Hodge-Tate structure's pieces are built on
        first read, next to its period matrix P, else P is None (module
        docstring)."""
        n = self.dim
        pmin, pmax = min(self.levels), max(self.levels)
        weights = self.weights
        F, W = self.F, self.W

        @cache
        def echelon(p: int) -> tuple:
            # the first dim F^p rows of the flag of F, in the coordinates of W's
            d = F.dim_at(p)
            return W.reduce(F.T[:d] if F.exact is None else F.exact.num[:d], tol)

        @cache
        def dim_FW(p: int, k: int) -> int:
            # dim F^p cap W_k: the pivots < dim W_k of the echelon FW reads
            f, d = F.dim_at(p), W.dim_at(k)
            if f in (0, n) or d in (0, n):
                return min(f, d)
            return sum(c < d for c in echelon(p)[1])

        @cache
        def FW(p: int, k: int) -> Subspace:
            # F^p cap W_k, read off the one echelon of F^p against the W-flag
            c = dim_FW(p, k)
            return (F.at(p) if c == F.dim_at(p) else
                    W.at(k) if c == W.dim_at(k) else W.meet(echelon(p), W.at(k), tol))

        @cache
        def U(r: int, s: int) -> Subspace:
            # U(r, s) = (F^r cap W_s) + U(r-1, s-1), zero below the bottom weight
            return Subspace.zero(n) if s < weights[0] else FW(r, s).add(U(r - 1, s - 1), tol)

        hodge: dict[tuple[int, int], int] = {}
        for a in self.levels:
            for k in (k for k in weights if pmin <= k - a <= pmax):
                h = dim_FW(a, k) - dim_FW(a, k - 1) - dim_FW(a + 1, k) + dim_FW(a + 1, k - 1)
                if h:
                    hodge[(a, k - a)] = h
        if all(k % 2 == 0 and hodge.get((k // 2, k // 2)) == W.dim_at(k) - W.dim_at(k - 1)
               for k in weights):
            P = np.eye(n, dtype=complex)
            for k in weights[1:]:
                lo, (rows, piv) = W.dim_at(k - 1), echelon(k // 2)
                for row, c in zip(rows, piv):
                    if lo <= c < W.dim_at(k):
                        P[:lo, c] = np.asarray(row[:lo], dtype=complex) / row[c]
            return LazyMapping(lambda: {(k // 2, k // 2): FW(k // 2, k) for k in weights}), P
        comps: dict[tuple[int, int], Subspace] = {}
        for (a, b), h in hodge.items():
            k = a + b
            if dim_FW(a, k) == h:
                # I^{a,b} lies in F^a cap W_k and has dimension h^{a,b}
                comps[(a, b)] = FW(a, k)
            else:
                # W is real, so conj(F^b) cap W_k = conj(F^b cap W_k)
                rhs = FW(b, k).add(U(b - 1, k - 2), tol).conj()
                piece = FW(a, k).intersect(rhs, tol)
                if piece.dim > 0:
                    comps[(a, b)] = piece
        return comps, None

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        """Check the three bigrading axioms; ok iff all hold: the direct sum,
        then the F- and W-axioms as dimension counts and the conjugation
        residual of each piece (module docstring).  When all hold, the
        bigrading is built from the same pieces and their frame and cached
        with the report.  A Hodge-Tate pair is valid by its Hodge numbers
        alone, and its bigrading is read off its Period; a known Frame, by
        construction a direct sum meeting the F- and W-axioms, by its
        conjugation residual."""
        if tol in self._validated:
            return self._validated[tol][0]
        n, known = self.dim, self._known
        comps, P = ((self._frame_components(known, tol), None) if isinstance(known, Frame) else
                    (None, known[0]) if known else self._component_candidates(tol))
        bigrading, failures, frame = None, [], None
        if P is not None:
            bigrading = self._hodge_tate(P, comps, tol)
        elif isinstance(known, Frame):
            frame, failures = known, _conjugation_failures(known, tol)
        elif (total := sum(s.dim for s in comps.values())) != n:
            failures = [f"direct-sum: component dimensions add to {total}, expected {n}"]
        elif echelonize(np.vstack([comps[k].basis for k in sorted(comps)]), n, tol).dim != n:
            failures = ["direct-sum: components are not independent"]
        else:
            frame = Frame.of({key: s.basis for key, s in comps.items()})
            failures = self._axiom_failures(comps, frame, tol)
        if frame is not None and not failures:
            bigrading = DeligneBigrading(comps, n, frame)
        report = ValidationReport(ok=not failures, failures=tuple(failures))
        self._validated[tol] = (report, bigrading)
        return report

    def _hodge_tate(self, P: np.ndarray, comps, tol: float) -> DeligneBigrading:
        """The bigrading of the Period of P; comps, if None, is built from C."""
        W = self.W
        L = self._known[1] if self._known else logm_unipotent(np.linalg.solve(P.conj(), P))
        frame = Frame(W.T.T @ P, np.linalg.inv(P) @ W.inverse.T,
                      np.outer(W.adapted_weights // 2, [1, 1]))
        for m in (P, L, frame.C, frame.C_inv):
            m.setflags(write=False)
        return DeligneBigrading(self._frame_components(frame, tol) if comps is None else comps,
                                self.dim, frame, Period(P, L))

    def _frame_components(self, frame: Frame, tol: float) -> LazyMapping:
        """The pieces of a frame, its columns by degree, built on first read."""
        keys = list(dict.fromkeys(map(tuple, frame.degrees.tolist())))
        return LazyMapping(lambda: {key: Subspace.from_rows(
            frame.C[:, (frame.degrees == key).all(1)].T, self.dim, tol) for key in keys})

    def _axiom_failures(self, comps: dict[tuple[int, int], Subspace], frame: Frame,
                        tol: float) -> list[str]:
        """The F-, W- and conjugation-axiom failures of a direct-sum lattice
        with its frame."""
        return [*(f"F-axiom: F^{p} is not the span of components with p >= {p}"
                  for p in range(min(self.levels), max(self.levels) + 1)
                  if sum(s.dim for (a, _), s in comps.items() if a >= p) != self.F.dim_at(p)),
                *(f"W-axiom: W_{k} is not the span of components with p+q <= {k}"
                  for k in self.weights
                  if sum(s.dim for (a, b), s in comps.items() if a + b <= k) != self.W.dim_at(k)),
                *_conjugation_failures(frame, tol)]

    def bigrading(self, tol: float = DEFAULT_TOL) -> DeligneBigrading:
        if tol not in self._validated:
            self.validate(tol)
        report, bigrading = self._validated[tol]
        if bigrading is None:
            raise NotAnMHS("; ".join(report.failures))
        return bigrading


def _conjugation_failures(frame: Frame, tol: float) -> list[str]:
    """validate's conjugation residual per piece of a frame: conj of its columns cut to the
    columns outside the target I^{b,a} + sum_{x<b, y<a} I^{x,y}; one not finite fails."""
    x, y = frame.degrees.T
    target = ((x[:, None] == y) & (y[:, None] == x)) | ((x[:, None] < y) & (y[:, None] < x))
    escaped = np.abs(frame.C @ np.where(target, 0, frame.C_inv @ frame.C.conj())).max(0)
    return [f"conjugation-axiom: conj I^{(a, b)} escapes I^{(b, a)} + lower terms"
            for a, b in dict.fromkeys(zip(x.tolist(), y.tolist()))
            if not escaped[(x == a) & (y == b)].max() <= tol * max(1.0, maxabs(
                frame.C[:, (x == a) & (y == b)]))]


def deligne_bigrading(H: MixedHodgeStructure, tol: float = DEFAULT_TOL) -> DeligneBigrading:
    return H.bigrading(tol)


def validate(H: MixedHodgeStructure, tol: float = DEFAULT_TOL) -> ValidationReport:
    return H.validate(tol)


# ---------------------------------------------------------------------------
# functorial constructions


def rational_mhs(a: int = 0) -> MixedHodgeStructure:
    """The rank-one structure of weight -2a with Hodge level -a."""
    return MixedHodgeStructure(split_filtration([-2 * a], True), split_filtration([-a], False))


def tate_twist(H: MixedHodgeStructure, a: int) -> MixedHodgeStructure:
    """Shift weights by -2a and Hodge levels by -a (components move by (-a, -a))."""
    return MixedHodgeStructure(H.W.shift(-2 * a), H.F.shift(-a))


def conjugate(H: MixedHodgeStructure) -> MixedHodgeStructure:
    """Entrywise conjugation of F (of its flag) in the rational coordinates; W is real."""
    F = H.F
    return MixedHodgeStructure(H.W, F._reflag(F.exact or F.T.conj(), F.tol))


def dual(H: MixedHodgeStructure, tol: float = DEFAULT_TOL) -> MixedHodgeStructure:
    """The dual structure on the dual coordinate space (Filtration.dual).

    W_k(V*) annihilates W_{-k-1}(V) and F^p(V*) annihilates F^{1-p}(V); the
    dual bigrading is the annihilator pattern with weights negated.
    """
    return MixedHodgeStructure(H.W.dual(tol), H.F.dual(tol))


def is_morphism(T: np.ndarray, A: MixedHodgeStructure, B: MixedHodgeStructure,
                tol: float = DEFAULT_TOL) -> bool:
    """True when the real matrix T respects both filtrations (type (0,0));
    T A.W_k in B.W_k is read at the steps of A.W on the flag of B.W.  A T
    not of shape (dim B, dim A) raises DimensionMismatch."""
    T = np.asarray(T, dtype=complex)
    if T.shape != (B.dim, A.dim):
        raise DimensionMismatch(f"T must be {B.dim} x {A.dim}, got shape {T.shape}")
    if maxabs(T.imag) > tol * max(1.0, maxabs(T)):
        return False
    for k, step in A.W.steps:
        if B.W.depth(step.basis @ T.T, tol) > B.W.dim_at(k):
            return False
    for p in sorted(set(A.levels) | set(B.levels)):
        if not B.F.at(p).contains(A.F.at(p).image_under(T, tol), tol):
            return False
    return True


def is_hodge_tate(H: MixedHodgeStructure, tol: float = DEFAULT_TOL) -> bool:
    return H.bigrading(tol).period is not None


def lowers(W: Filtration, A, by: int, tol: float = DEFAULT_TOL) -> bool:
    """Whether A in the coordinates of W (Filtration.operator) lowers W by
    at least by (preserves it, by = 0): its entries (i, j) with w_i > w_j - by
    vanish, exactly on an ExactMatrix, else to tol * max(max |A|, 1).  On a
    decreasing F, by = -1 is Griffiths transversality, A F^p <= F^(p-1)."""
    w = W.adapted_weights
    if isinstance(A, ExactMatrix):
        # w ascends, so the entries of row i with w_i > w_j - by are a prefix
        ws = w.tolist()
        return not any(any(row[:bisect_left(ws, k + by)]) for row, k in zip(A.num, ws))
    return maxabs(A[w[:, None] > w - by]) <= tol * max(maxabs(A), 1.0)

