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

W carries an adapted basis T (linalg.AdaptedBasis) whose first dim W_k rows
span W_k, so in the coordinates v T^-1 each W_k is the span of the first
dim W_k coordinates.  There each F^p is row-reduced once, with pivots from
the right, and every F^p cap W_k is read off that echelon, its dimension a
count of pivots (MixedHodgeStructure._component_candidates).  An exact F^p
against an exact W stays exact, since T and T^-1 are then kept over Q, and a
moved F (Filtration.moved) is reduced from its moved rows as they are.
Those counts give the Hodge numbers h^{a,b} of Gr^W_{a+b}; only the pieces
with h^{a,b} != 0 are built, and a piece with h^{a,b} = dim F^a cap W_{a+b}
is that space itself.

A Hodge-Tate structure, whose counts give h^{a,a} = dim Gr^W_2a, is valid
by the counts alone: F^a cap W_2a then maps onto Gr^W_2a, and F^{a+1} cap
W_2a lies in W_{2a-1}, so I^{a,a} = F^a cap W_2a and the pieces are direct.
It is kept as a Period: P, in the coordinates of T, whose block 2a is the
basis of I^{a,a} that is unit on that block (the echelon rows of F^a with
pivots there), and L = log(conj(P)^-1 P).  Its linalg.Frame is C = T^T P,
degree (a, a) on block 2a, and no direct-sum echelon or conjugation check
is made.  A g that preserves W (lowers, the one such test) acts on each
Gr^W and keeps the Hodge numbers; one in exp(W_-2 gl) carries the
bigrading along, so a fiber moved from a Hodge-Tate limit comes with its
period and needs no lattice (limits.NilpotentOrbit.fiber, variations.fiber).
Only pairs with no known period take the plain log of conj(P)^-1 P: hand-
built and document structures, limits, and fibers of a Hodge-Tate limit of
length > 8 or with an N_j or Gamma that does not lower W by two.  A real g
that preserves W moves the whole bigrading, so a moved frame needs only its
conjugation check.

Any other pair is validated in two stages.  First the candidates must
form a direct sum: their dimensions add to n and their stacked bases have
rank n.  Each candidate I^{a,b} is built inside F^a cap W_{a+b}, so the sum
of the pieces with a >= p lies in F^p and the sum of the pieces with
a + b <= k lies in W_k; once the sum is direct, those spans have the summed
dimensions, so the F- and W-axioms reduce to the dimension equalities

    sum_{a >= p} dim I^{a,b} = dim F^p,    sum_{a+b <= k} dim I^{a,b} = dim W_k.

This is the bigrading of Deligne's splitting lemma (Cattani-Kaplan-Schmid,
Degeneration of Hodge structures, Ann. Math. 1986, section 2), whose pieces
have dim I^{a,b} = h^{a,b}.  Pieces inside F^a cap W_{a+b} that pass all
checks are that bigrading, which is unique.  So skipping the pieces with
h^{a,b} = 0, and taking F^a cap W_{a+b} whole where its dimension is
h^{a,b}, loses nothing on a mixed Hodge structure and lets no other pair
pass.  The conjugation axiom, conj I^{a,b} inside I^{b,a} + sum_{x<b, y<a}
I^{x,y}, is one residual per piece, ||(1 - P_target) conj(B)^T||_max <= tol
* max(1, ||B||_max) for the echelon basis B of the piece, with P_target the
projector of the pieces' frame onto the target pieces.  The residual is
linear in B, so the bound scales with the entries of the basis, as the pivot
threshold of linalg.rref_float scales with the entries of its matrix.

A MixedHodgeStructure is immutable: W and F are fixed at construction.  It
caches per tolerance the ValidationReport and, when the axioms hold, the
DeligneBigrading, which keeps the frame validation built; its projectors,
weight projectors and grading Y are read off that frame once, read-only,
and every grading fact downstream is read off them.  The splitting
(splitting.deligne_delta) is cached next to it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from copy import copy
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOL
from .errors import MalformedFiltration, NotAnMHS
from .linalg import (AdaptedBasis, ExactMatrix, Frame, LazyMapping, Subspace, echelonize,
                     logm_unipotent, maxabs)

if TYPE_CHECKING:
    from .splitting import Splitting

# ---------------------------------------------------------------------------
# filtrations


class Filtration:
    """A filtration stored at its jump indices only.

    Queries between jumps resolve to the nearest stored subspace: for an
    increasing filtration, W_k is the largest stored index <= k (zero space
    below the bottom jump); for a decreasing one, F^p is the smallest stored
    index >= p (zero space above the top jump).

    A moved one (moved) keeps rows whose first d span its step of dimension d.
    """

    def __init__(self, steps: Iterable[tuple[int, Subspace]], increasing: bool,
                 ambient_dim: int, tol: float = DEFAULT_TOL):
        self._settle(steps, increasing, ambient_dim)
        # each step, smallest first, must lie in the next
        up = self._spaces[:-1][:: 1 if self.increasing else -1]
        if not all(b.contains(a, tol) for a, b in zip(up, up[1:])):
            raise MalformedFiltration(self._not_strict())

    def _settle(self, steps, increasing: bool, ambient_dim: int) -> None:
        """Store the sorted steps and check all but their nesting."""
        steps = sorted(((int(k), s) for k, s in steps), key=lambda t: t[0])
        self.increasing = bool(increasing)
        self.ambient_dim = int(ambient_dim)
        self._adapted: AdaptedBasis | None = None
        self._rows: np.ndarray | None = None
        if not steps:
            raise MalformedFiltration("a filtration needs at least one step")
        spaces = [s for _, s in steps]
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
        # at() bisects the indices; a query outside the steps lands on the zero
        # space stored last, at position -1 (below W) or len(steps) (above F)
        self._indices = [k for k, _ in steps]
        self._spaces: list[Subspace | None] = [*spaces, Subspace.zero(self.ambient_dim)]
        self._dims = [s.dim for s in self._spaces]

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
        """The step at position i, built from the moved rows on first read, at
        the tolerance of the move; rows that lost rank make no filtration."""
        s = self._spaces[i]
        if s is None:
            d = self._dims[i]
            s = Subspace.from_rows(self._rows[:d], self.ambient_dim, self._tol)
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

    def adapted_basis(self) -> AdaptedBasis:
        """The linalg.AdaptedBasis of the steps taken by increasing
        dimension, built on first use; the steps are fixed, so every
        structure on this filtration, and every move of it, shares it."""
        if self._adapted is None:
            self._adapted = AdaptedBasis(sorted((s for _, s in self.steps), key=lambda s: s.dim))
        return self._adapted

    def moved(self, g, tol: float = DEFAULT_TOL) -> "Filtration":
        """g F for an invertible complex g: the rows of the adapted basis times
        g^T, one product, each scaled to unit max-norm, with the same step
        dimensions.  No step is row-reduced; the full step is this one's C^n.
        A g that is not finite raises MalformedFiltration, with no warning."""
        with np.errstate(all="ignore"):
            rows = self.adapted_basis().T @ np.asarray(g, dtype=complex).T
        if not np.isfinite(rows).all():
            raise MalformedFiltration("step basis has an entry that is not finite")
        scale = np.abs(rows).max(axis=1, keepdims=True)
        out = copy(self)
        out._rows, out._tol, out._adapted = rows / np.where(scale > 0, scale, 1.0), tol, None
        out._spaces = [s if d in (0, self.ambient_dim) else None
                       for s, d in zip(self._spaces, self._dims)]
        return out

    def shift(self, by: int) -> "Filtration":
        """The same steps re-indexed by by, which changes no subspace."""
        return Filtration._nested([(k + by, s) for k, s in self.steps], self.increasing,
                                  self.ambient_dim)

    @classmethod
    def _nested(cls, steps, increasing: bool, ambient_dim: int) -> "Filtration":
        """Steps that nest by construction: every check of __init__ but nesting."""
        filt = cls.__new__(cls)
        filt._settle(steps, increasing, ambient_dim)
        return filt

    def map_spaces(self, fn) -> "Filtration":
        """The steps moved by fn, a (conjugate-)linear map such as image_under,
        lift or conj, which keeps each step inside the next."""
        return Filtration._nested([(k, fn(s)) for k, s in self.steps], self.increasing,
                                  self.ambient_dim)

    def __repr__(self) -> str:
        kind = "W" if self.increasing else "F"
        body = ", ".join(f"{k}:{d}" for k, d in zip(self._indices, self._dims))
        return f"Filtration[{kind}]({body})"


def weight_filtration(steps: Iterable[tuple[int, Subspace]], dim: int,
                      tol: float = DEFAULT_TOL) -> Filtration:
    return Filtration(steps, increasing=True, ambient_dim=dim, tol=tol)


def hodge_filtration(steps: Iterable[tuple[int, Subspace]], dim: int,
                     tol: float = DEFAULT_TOL) -> Filtration:
    return Filtration(steps, increasing=False, ambient_dim=dim, tol=tol)


def split_filtration(levels: Sequence[int], increasing: bool, basis=None,
                     tol: float = DEFAULT_TOL) -> Filtration:
    """Step k spans the rows of basis of level <= k (increasing) or >= k
    (decreasing); the step of all n rows is Subspace.full(n).  The default
    basis is the coordinate one, whose unit rows in coordinate order are
    already reduced echelon rows, so no step of it is row-reduced.  The
    rows of an explicit basis (G v with G unipotent in build_biextension,
    the triangular e0, e1, u2 of dilog_fiber) are, per step at tol.  Each
    step spans a superset of the rows of the step inside it, so the steps
    nest by construction and are not checked."""
    n = len(levels)
    steps = []
    for k in sorted(set(levels)):
        on = [i for i, lev in enumerate(levels) if (lev <= k if increasing else lev >= k)]
        steps.append((k, Subspace.full(n) if len(on) == n else
                      Subspace.from_rows(basis[on], n, tol) if basis is not None else
                      Subspace(None, n, on, exact=[[int(i == j) for j in range(n)] for i in on])))
    return Filtration._nested(steps, increasing, n)


# ---------------------------------------------------------------------------
# the bigrading


class Period(NamedTuple):
    """A Hodge-Tate structure in the coordinates of the adapted basis T of W
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
        (validate caches the outcome; the module docstring says why it stays
        sound).  F^p cap W_k is read off one echelon of F^p against the
        adapted basis of W (AdaptedBasis.meet), and its dimension is the
        count of rows with pivot < dim W_k, so the Hodge numbers h^{a,b} =
        dim F^a Gr_k - dim F^{a+1} Gr_k, k = a + b, take no rank decision;
        they are 0 unless F jumps at a and W at k.  A piece whose h^{a,b} is
        dim F^a cap W_k is F^a cap W_k; any other is Deligne's formula.  A
        Hodge-Tate structure's pieces are built on first read, next to its
        period matrix P, else P is None (module docstring)."""
        n = self.dim
        pmin, pmax = min(self.levels), max(self.levels)
        weights = self.weights
        F, W = self.F, self.W
        flag = W.adapted_basis()

        @cache
        def echelon(p: int) -> tuple:
            # the rows of a moved F as they are, else the echelon basis of F^p
            return flag.reduce(F.at(p) if F._rows is None else F._rows[:F.dim_at(p)], tol)

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
                    W.at(k) if c == W.dim_at(k) else flag.meet(echelon(p), W.at(k), tol))

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
        """Check the three bigrading axioms; ok iff all hold.

        After the direct-sum check (dimensions add to n, stacked bases of
        rank n) the F- and W-axioms are dimension counts, which suffice
        because each candidate lies in F^a cap W_{a+b} by construction.  The
        conjugation axiom holds for a piece with echelon basis B when
        ||(1 - P_target) conj(B)^T||_max <= tol * max(1, ||B||_max), where
        P_target projects onto I^{b,a} + sum_{x<b, y<a} I^{x,y} along the
        other pieces; the bound is relative to the basis entries because the
        residual is linear in B.  See the module docstring.  When all hold,
        the bigrading is built from the same pieces and their frame and
        cached with the report.  A Hodge-Tate pair is valid by its Hodge
        numbers alone, and its bigrading is read off its Period; a known
        Frame, by construction a direct sum meeting the F- and W-axioms, by
        its conjugation residual."""
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
        flag, w = self.W.adapted_basis(), adapted_weights(self.W)
        L = self._known[1] if self._known else logm_unipotent(np.linalg.solve(P.conj(), P))
        frame = Frame(flag.T.T @ P, np.linalg.inv(P) @ flag.inverse.T, np.outer(w // 2, [1, 1]))
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
                  if sum(s.dim for (a, b), s in comps.items() if a + b <= k) != self.W.at(k).dim),
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
    """Entrywise conjugation of F in the rational coordinates (W is real)."""
    return MixedHodgeStructure(H.W, H.F.map_spaces(lambda s: s.conj()))


def dual(H: MixedHodgeStructure, tol: float = DEFAULT_TOL) -> MixedHodgeStructure:
    """The dual structure on the dual coordinate space.

    W_k(V*) annihilates W_{-k-1}(V) and F^p(V*) annihilates F^{1-p}(V); the
    dual bigrading is the annihilator pattern with weights negated.
    """
    W = weight_filtration([(-k, H.W.at(k - 1).annihilator(tol)) for k in H.weights], H.dim, tol)
    F = hodge_filtration([(-p, H.F.at(p + 1).annihilator(tol)) for p in H.levels], H.dim, tol)
    return MixedHodgeStructure(W, F)


def is_morphism(T: np.ndarray, A: MixedHodgeStructure, B: MixedHodgeStructure,
                tol: float = DEFAULT_TOL) -> bool:
    """True when the real matrix T respects both filtrations (type (0,0));
    T A.W_k in B.W_k is read at the steps of A.W on the adapted basis of B.W."""
    T = np.asarray(T, dtype=complex)
    if maxabs(T.imag) > tol * max(1.0, maxabs(T)):
        return False
    flag = B.W.adapted_basis()
    for k, step in A.W.steps:
        if flag.depth(step.basis @ T.T, tol) > B.W.at(k).dim:
            return False
    for p in sorted(set(A.levels) | set(B.levels)):
        if not B.F.at(p).contains(A.F.at(p).image_under(T, tol), tol):
            return False
    return True


def is_hodge_tate(H: MixedHodgeStructure, tol: float = DEFAULT_TOL) -> bool:
    return H.bigrading(tol).period is not None


def adapted_weights(W: Filtration) -> np.ndarray:
    """The weight of each coordinate of the adapted basis of W (-p on F^p)."""
    dims = W.adapted_basis().dims
    levels = W.indices if W.increasing else [-p for p in reversed(W.indices)]
    return np.array([k for k, a, b in zip(levels, (0, *dims), dims) for _ in range(b - a)])


def lowers(W: Filtration, A, by: int, tol: float = DEFAULT_TOL) -> bool:
    """Whether A in the coordinates of W (AdaptedBasis.operator) lowers W by
    at least by (preserves it, by = 0): its entries (i, j) with w_i > w_j - by
    vanish, exactly on an ExactMatrix, else to tol * max(max |A|, 1).  On a
    decreasing F, by = -1 is Griffiths transversality, A F^p <= F^(p-1)."""
    w = adapted_weights(W)
    off = w[:, None] > w - by
    if isinstance(A, ExactMatrix):
        return not any(A.num[i][j] for i, j in zip(*np.nonzero(off)))
    return maxabs(A[off]) <= tol * max(maxabs(A), 1.0)

