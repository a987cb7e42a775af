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

Every F^p cap W_k of the lattice is read off one echelon form of F^p per
level, not intersected step by step.  W carries an adapted basis T (see
linalg.AdaptedBasis), whose first dim W_k rows span W_k, so in the
coordinates v T^-1 each W_k is the span of the first dim W_k coordinates.
There F^p is row-reduced once with its pivots taken from the right: each row
is zero after its pivot and at the other pivots, so a combination of rows
vanishes past coordinate d exactly when its coefficients on the rows with
pivot >= d are zero.  F^p cap W_k is thus the span of the rows with pivot
< dim W_k, mapped back by T, and its dimension is that count, read without
a rank decision.  An exact F^p against an exact W stays exact, since T and
T^-1 are then kept over Q.  Those counts give the Hodge numbers h^{a,b} of
Gr^W_{a+b}, and only the pieces with h^{a,b} != 0 are built.

Validation checks that statement in two stages.  First the candidates must
form a direct sum: their dimensions add to n and their stacked bases have
rank n.  Each candidate I^{a,b} is built inside F^a cap W_{a+b}, so the sum
of the pieces with a >= p lies in F^p and the sum of the pieces with
a + b <= k lies in W_k; once the sum is direct, those spans have the summed
dimensions, so the F- and W-axioms reduce to the dimension equalities

    sum_{a >= p} dim I^{a,b} = dim F^p,    sum_{a+b <= k} dim I^{a,b} = dim W_k.

This is the bigrading of Deligne's splitting lemma (Cattani-Kaplan-Schmid,
Degeneration of Hodge structures, Ann. Math. 1986, section 2), whose pieces
have dim I^{a,b} = h^{a,b}.  Pieces inside F^a cap W_{a+b} that pass all
checks are that bigrading, which is unique, so skipping the pieces with
h^{a,b} = 0 loses nothing on a mixed Hodge structure and lets no other pair
pass.  The
conjugation axiom, conj I^{a,b} inside I^{b,a} + sum_{x<b, y<a} I^{x,y}, is
one residual per piece, ||(1 - P_target) conj(B)^T||_max <= tol * max(1,
||B||_max) for the echelon basis B of the piece, with P_target the sum of
the direct-sum projectors onto the target pieces.  The residual is linear
in B, so the bound scales with the entries of the basis, as the pivot
threshold of linalg.rref_float scales with the entries of its matrix.

A MixedHodgeStructure is immutable: W and F are fixed at construction.  It
keeps one cache, per resolved tolerance: the ValidationReport and, when the
axioms hold, the DeligneBigrading, which validate builds from the same
candidate pieces and the one linalg.graded_projectors call the conjugation
check made.  So validate(tol) followed by bigrading(tol) builds the lattice
and the projectors once, while a call at another tol computes afresh.  A
DeligneBigrading builds its weight projectors and its grading Y once, when
it is made, and keeps them read-only; every grading fact downstream (the top
lift of an oriented structure, the splitting) is read off these projectors.
The splitting (see splitting.deligne_delta) is cached next to it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .config import default_tol
from .errors import MalformedFiltration, NotAnMHS
from .linalg import AdaptedBasis, Subspace, echelonize, graded_projectors, maxabs

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
    """

    def __init__(self, steps: Iterable[tuple[int, Subspace]], increasing: bool,
                 ambient_dim: int):
        self._settle(steps, increasing, ambient_dim)
        # each step, smallest first, must lie in the next
        up = [s for _, s in self.steps][:: 1 if self.increasing else -1]
        if not all(b.contains(a) for a, b in zip(up, up[1:])):
            raise MalformedFiltration("weight filtration steps must strictly increase"
                                      if self.increasing else
                                      "Hodge filtration steps must strictly decrease")

    def _settle(self, steps, increasing: bool, ambient_dim: int) -> None:
        """Store the sorted steps and check all but their nesting."""
        self.steps = tuple(sorted(((int(k), s) for k, s in steps), key=lambda t: t[0]))
        self.increasing = bool(increasing)
        self.ambient_dim = int(ambient_dim)
        self._adapted: AdaptedBasis | None = None
        if not self.steps:
            raise MalformedFiltration("a filtration needs at least one step")
        spaces = [s for _, s in self.steps]
        if any(s.ambient_dim != self.ambient_dim for s in spaces):
            raise MalformedFiltration("step has wrong ambient dimension")
        if self.increasing:
            if any(b.dim <= a.dim for a, b in zip(spaces, spaces[1:])):
                raise MalformedFiltration("weight filtration steps must strictly increase")
            if spaces[-1].dim != self.ambient_dim:
                raise MalformedFiltration("weight filtration must top out at the full space")
            if spaces[0].dim == 0:
                raise MalformedFiltration("bottom jump of W must be nonzero")
        else:
            if any(a.dim <= b.dim for a, b in zip(spaces, spaces[1:])):
                raise MalformedFiltration("Hodge filtration steps must strictly decrease")
            if spaces[0].dim != self.ambient_dim:
                raise MalformedFiltration("Hodge filtration must start at the full space")
            if spaces[-1].dim == 0:
                raise MalformedFiltration("top jump of F must be nonzero")
        # at() bisects the indices; every query outside the steps shares one zero
        self._indices = [k for k, _ in self.steps]
        self._zero = Subspace.zero(self.ambient_dim)

    @property
    def indices(self) -> list[int]:
        return list(self._indices)

    def at(self, k: int) -> Subspace:
        if self.increasing:
            i = bisect_right(self._indices, k) - 1
            return self.steps[i][1] if i >= 0 else self._zero
        i = bisect_left(self._indices, k)
        return self.steps[i][1] if i < len(self.steps) else self._zero

    def adapted_basis(self) -> AdaptedBasis:
        """The linalg.AdaptedBasis of the steps of an increasing filtration,
        built on first use; the steps are fixed, so every structure on this
        filtration shares it."""
        if self._adapted is None:
            self._adapted = AdaptedBasis([s for _, s in self.steps])
        return self._adapted

    def shift(self, by: int) -> "Filtration":
        return Filtration([(k + by, s) for k, s in self.steps], self.increasing,
                          self.ambient_dim)

    def map_spaces(self, fn) -> "Filtration":
        """The steps moved by fn, a (conjugate-)linear map such as image_under,
        lift or conj, which keeps each step inside the next."""
        moved = Filtration.__new__(Filtration)
        moved._settle([(k, fn(s)) for k, s in self.steps], self.increasing, self.ambient_dim)
        return moved

    def __repr__(self) -> str:
        kind = "W" if self.increasing else "F"
        body = ", ".join(f"{k}:{s.dim}" for k, s in self.steps)
        return f"Filtration[{kind}]({body})"


def weight_filtration(steps: Iterable[tuple[int, Subspace]], dim: int) -> Filtration:
    return Filtration(steps, increasing=True, ambient_dim=dim)


def hodge_filtration(steps: Iterable[tuple[int, Subspace]], dim: int) -> Filtration:
    return Filtration(steps, increasing=False, ambient_dim=dim)


# ---------------------------------------------------------------------------
# the bigrading


@dataclass(frozen=True)
class DeligneBigrading:
    """The decomposition V_C = (+) I^{p,q} with its projectors and grading.

    The projectors onto each I^{p,q} are those of linalg.graded_projectors on
    the components, which validation has already built.  The projectors onto
    each weight piece (the sum over p + q = k) and the grading Y (k on the
    weight-k piece) are built once at construction.  All are read-only,
    because the cached bigrading is shared."""

    components: Mapping[tuple[int, int], Subspace]
    ambient_dim: int
    projectors: Mapping[tuple[int, int], np.ndarray] = field(repr=False)
    weight_projectors: Mapping[int, np.ndarray] = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_weight: dict[int, np.ndarray] = {}
        for (p, q), P in self.projectors.items():
            by_weight[p + q] = by_weight[p + q] + P if p + q in by_weight else P
        Y = sum(k * P for k, P in by_weight.items())
        for m in (Y, *by_weight.values()):
            m.setflags(write=False)
        object.__setattr__(self, "projectors", MappingProxyType(self.projectors))
        object.__setattr__(self, "weight_projectors", MappingProxyType(by_weight))
        object.__setattr__(self, "Y", Y)

    @property
    def keys(self) -> list[tuple[int, int]]:
        return sorted(self.components)

    @property
    def weights(self) -> list[int]:
        return sorted(self.weight_projectors)

    def projector(self, p: int, q: int) -> np.ndarray:
        return self.projectors[(p, q)]

    def weight_projector(self, k: int) -> np.ndarray:
        n = self.ambient_dim
        return self.weight_projectors.get(k, np.zeros((n, n), dtype=complex))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


class MixedHodgeStructure:
    """A pair (F, W) of filtrations on a fixed rational coordinate space."""

    def __init__(self, W: Filtration, F: Filtration):
        if W.ambient_dim != F.ambient_dim:
            raise MalformedFiltration("W and F live on different spaces")
        if not W.increasing or F.increasing:
            raise MalformedFiltration("W must be increasing and F decreasing")
        self.W = W
        self.F = F
        self.dim = W.ambient_dim
        # per resolved tol: the report and, when it is ok, the bigrading
        self._validated: dict[float, tuple[ValidationReport, DeligneBigrading | None]] = {}
        # per resolved tol: the Splitting, filled by splitting.deligne_delta
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

    def _component_candidates(self, tol: float) -> dict[tuple[int, int], Subspace]:
        """Build the candidate pieces I^{a,b} with h^{a,b} != 0, once per tol
        (validate caches the outcome; the module docstring says why it stays
        sound).  F^p cap W_k is read off one echelon of F^p against the
        adapted basis of W (AdaptedBasis.meet), and its dimension is the
        count of rows with pivot < dim W_k, so the Hodge numbers h^{a,b} =
        dim F^a Gr_k - dim F^{a+1} Gr_k, k = a + b, take no rank decision;
        they are 0 unless F jumps at a and W at k."""
        n = self.dim
        pmin, pmax = min(self.levels), max(self.levels)
        weights = self.weights
        flag = self.W.adapted_basis()

        @cache
        def echelon(p: int) -> tuple:
            return flag.reduce(self.F.at(p), tol)

        @cache
        def dim_FW(p: int, k: int) -> int:
            # dim F^p cap W_k: the pivots < dim W_k of the echelon FW reads
            f, d = self.F.at(p).dim, self.W.at(k).dim
            if f in (0, n) or d in (0, n):
                return min(f, d)
            return sum(c < d for c in echelon(p)[1])

        @cache
        def FW(p: int, k: int) -> Subspace:
            # F^p cap W_k, read off the one echelon of F^p against the W-flag
            Fp, Wk = self.F.at(p), self.W.at(k)
            return (Fp if Fp.dim == 0 or Wk.dim == n else
                    Wk if Wk.dim == 0 or Fp.dim == n else flag.meet(Fp, echelon(p), Wk, tol))

        @cache
        def U(r: int, s: int) -> Subspace:
            # U(r, s) = (F^r cap W_s) + U(r-1, s-1), zero below the bottom weight
            return Subspace.zero(n) if s < weights[0] else FW(r, s).add(U(r - 1, s - 1), tol)

        comps: dict[tuple[int, int], Subspace] = {}
        for a in self.levels:
            for b in range(pmin, pmax + 1):
                k = a + b
                if k not in weights or (dim_FW(a, k) - dim_FW(a, k - 1)
                                        == dim_FW(a + 1, k) - dim_FW(a + 1, k - 1)):
                    continue
                # W is real, so conj(F^b) cap W_k = conj(F^b cap W_k)
                rhs = FW(b, k).add(U(b - 1, k - 2), tol).conj()
                piece = FW(a, k).intersect(rhs, tol)
                if piece.dim > 0:
                    comps[(a, b)] = piece
        return comps

    def validate(self, tol: float | None = None) -> ValidationReport:
        """Check the three bigrading axioms; ok iff all hold.

        After the direct-sum check (dimensions add to n, stacked bases of
        rank n) the F- and W-axioms are dimension counts, which suffice
        because each candidate lies in F^a cap W_{a+b} by construction.  The
        conjugation axiom holds for a piece with echelon basis B when
        ||(1 - P_target) conj(B)^T||_max <= tol * max(1, ||B||_max), where
        P_target projects onto I^{b,a} + sum_{x<b, y<a} I^{x,y} along the
        other pieces; the bound is relative to the basis entries because the
        residual is linear in B.  See the module docstring.  When all hold,
        the bigrading is built from the same pieces and projectors and
        cached with the report."""
        tol = default_tol() if tol is None else tol
        if tol in self._validated:
            return self._validated[tol][0]
        comps = self._component_candidates(tol)
        n = self.dim
        total = sum(s.dim for s in comps.values())
        bigrading = None
        if total != n:
            failures = [f"direct-sum: component dimensions add to {total}, expected {n}"]
        elif echelonize(np.vstack([comps[k].basis for k in sorted(comps)]), n, tol).dim != n:
            failures = ["direct-sum: components are not independent"]
        else:
            proj = graded_projectors({key: s.basis for key, s in comps.items()})
            failures = self._axiom_failures(comps, proj, tol)
            if not failures:
                bigrading = DeligneBigrading(comps, n, proj)
        report = ValidationReport(ok=not failures, failures=tuple(failures))
        self._validated[tol] = (report, bigrading)
        return report

    def _axiom_failures(self, comps: dict[tuple[int, int], Subspace],
                        proj: dict[tuple[int, int], np.ndarray], tol: float) -> list[str]:
        """The F-, W- and conjugation-axiom failures of a direct-sum lattice
        with projectors proj."""
        failures: list[str] = []
        for p in range(min(self.levels), max(self.levels) + 1):
            if sum(s.dim for (a, _), s in comps.items() if a >= p) != self.F.at(p).dim:
                failures.append(f"F-axiom: F^{p} is not the span of components with p >= {p}")
        for k in self.weights:
            if sum(s.dim for (a, b), s in comps.items() if a + b <= k) != self.W.at(k).dim:
                failures.append(f"W-axiom: W_{k} is not the span of components with p+q <= {k}")
        for (a, b), s in comps.items():
            v = np.conj(s.basis).T
            escaped = v - sum((P @ v for (x, y), P in proj.items()
                               if (x, y) == (b, a) or (x < b and y < a)), np.zeros_like(v))
            if maxabs(escaped) > tol * max(1.0, maxabs(s.basis)):
                failures.append(f"conjugation-axiom: conj I^{(a, b)} escapes "
                                f"I^{(b, a)} + lower terms")
        return failures

    def bigrading(self, tol: float | None = None) -> DeligneBigrading:
        tol = default_tol() if tol is None else tol
        if tol not in self._validated:
            self.validate(tol)
        report, bigrading = self._validated[tol]
        if bigrading is None:
            raise NotAnMHS("; ".join(report.failures))
        return bigrading


def deligne_bigrading(H: MixedHodgeStructure, tol: float | None = None) -> DeligneBigrading:
    return H.bigrading(tol)


def validate(H: MixedHodgeStructure, tol: float | None = None) -> ValidationReport:
    return H.validate(tol)


# ---------------------------------------------------------------------------
# functorial constructions


def rational_mhs(a: int = 0) -> MixedHodgeStructure:
    """The rank-one structure of weight -2a with Hodge level -a."""
    one = Subspace.full(1)
    W = weight_filtration([(-2 * a, one)], 1)
    F = hodge_filtration([(-a, one)], 1)
    return MixedHodgeStructure(W, F)


def tate_twist(H: MixedHodgeStructure, a: int) -> MixedHodgeStructure:
    """Shift weights by -2a and Hodge levels by -a (components move by (-a, -a))."""
    return MixedHodgeStructure(H.W.shift(-2 * a), H.F.shift(-a))


def conjugate(H: MixedHodgeStructure) -> MixedHodgeStructure:
    """Entrywise conjugation of F in the rational coordinates (W is real)."""
    return MixedHodgeStructure(H.W, H.F.map_spaces(lambda s: s.conj()))


def dual(H: MixedHodgeStructure, tol: float | None = None) -> MixedHodgeStructure:
    """The dual structure on the dual coordinate space.

    W_k(V*) annihilates W_{-k-1}(V) and F^p(V*) annihilates F^{1-p}(V); the
    dual bigrading is the annihilator pattern with weights negated.
    """
    n = H.dim
    wsteps = []
    for k in [-k for k in H.weights]:
        space = H.W.at(-k - 1).annihilator(tol)
        wsteps.append((k, space))
    fsteps = []
    for p in [-p for p in H.levels]:
        space = H.F.at(1 - p).annihilator(tol)
        fsteps.append((p, space))
    return MixedHodgeStructure(weight_filtration(wsteps, n), hodge_filtration(fsteps, n))


def is_morphism(T: np.ndarray, A: MixedHodgeStructure, B: MixedHodgeStructure,
                tol: float | None = None) -> bool:
    """True when the real matrix T respects both filtrations (type (0,0));
    T A.W_k in B.W_k is read at the steps of A.W on the adapted basis of B.W."""
    tol = default_tol() if tol is None else tol
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


def is_hodge_tate(H: MixedHodgeStructure, tol: float | None = None) -> bool:
    return all(p == q for (p, q) in H.bigrading(tol).components)
