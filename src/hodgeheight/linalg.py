"""Subspace arithmetic over exact rationals and complex floats.

Subspaces are stored as reduced row echelon bases (rows = generators), which
makes the representation canonical for a fixed tolerance: pivots are leading
ones ordered by column.  Purely rational inputs (weight filtrations, nilpotent
monodromy matrices) keep an exact representation alongside the float one, so
rank decisions on that data never involve a threshold.

The exact representation is over the integers.  An exact subspace keeps its
reduced echelon rows as primitive int rows (coprime entries), each positive
at its pivot: still canonical, so == on them is equality of subspaces.  Its
float basis, built on first read, is each row divided by its pivot entry,
rounded once, as the leading-one rational row would be.  An exact operator
is an ExactMatrix.  The kernels rref_exact and nullspace_exact are
fraction-free (integer row operations, each row divided by the gcd of its
entries); rational numbers are read only where Subspace.from_rows and
as_operator scale them to ints.

The float kernel rref_float row-reduces Python lists of complex numbers, not
numpy rows.  The library's matrices are tiny (at most 8 columns; the common
shapes are 1-4 x 4 and 6 x 6), so a numpy call per row operation costs more
in call overhead than the arithmetic it does.  The matrix goes into Python
rows once and back into an array once.  Only the pivot-row division stays in
numpy, so that it rounds as numpy does.  CPython's complex product is not
fused as numpy's may be, so entries can differ from a numpy row loop in the
last bits; the pivots agree away from the threshold (tests/test_linalg.py
keeps that loop as an oracle).
"""
from __future__ import annotations

from contextlib import suppress
from functools import cached_property
from math import gcd, lcm
from numbers import Complex, Number, Rational
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, HodgeError, NotNilpotent

Matrix = np.ndarray

# ---------------------------------------------------------------------------
# exact matrices


class ExactMatrix:
    """The rational matrix num / den: rows of Python ints over one positive
    denominator.  numpy reads it as its complex values, each rounded once."""

    __slots__ = ("num", "den")

    def __init__(self, num: list[list[int]], den: int = 1):
        self.num, self.den = num, den

    def __len__(self) -> int:
        return len(self.num)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([[x / self.den for x in row] for row in self.num], dtype=dtype or complex)


def _over_one_denominator(rows) -> tuple[list[list[int]], int] | None:
    """(num, den) with rows = num / den over the least common denominator,
    when every entry is exactly rational (a rational number, a string the
    document boundary reads as one, or a float or complex with zero imaginary
    part and an integral real part); else None."""
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        # such an array is rational exactly when it is integral, so no entry
        # is scanned
        if not integral_array(rows):
            return None
        return [[int(x) for x in row] for row in rows.real.tolist()], 1
    pairs = []
    for row in rows:
        out = []
        for x in row:
            if isinstance(x, str):
                from .schemas import _parse_rational
                x = _parse_rational(x)
            if isinstance(x, Rational):
                out.append((x.numerator, x.denominator))
            elif isinstance(x, Complex) and x.imag == 0 and float(x.real).is_integer():
                out.append((int(x.real), 1))
            else:
                return None
        pairs.append(out)
    den = lcm(*(d for row in pairs for _, d in row))
    return [[q * (den // d) for q, d in row] for row in pairs], den


def integral_array(M: np.ndarray) -> bool:
    """Whether every entry of a numeric array is finite, real and an integer:
    the verdict of the scan of _over_one_denominator on each entry."""
    R = M.real
    return bool(not M.imag.any() and (R == np.round(R)).all() and np.isfinite(R).all())


def integer(x, name: str) -> int:
    """x as an int; HodgeError named name for a bool, a bad string or a non-integral number."""
    with suppress(ArithmeticError, TypeError, ValueError):
        if not isinstance(x, bool) and (not isinstance(x, Number) or int(x) == x):
            return int(x)
    raise HodgeError(f"{name} must be an integer, got {x!r}")


# ---------------------------------------------------------------------------
# echelon forms


def rref_float(M: Matrix, tol: float = DEFAULT_TOL) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with pivot threshold tol * max(max |M_ij|, 1).

    Each pivot is the first largest |entry| at or below the current row (a
    NaN first, as np.argmax picks it); entries at or under the threshold are
    not pivots.  The matrix is row-reduced as Python complex rows, converted
    in and out once: see the module docstring for why."""
    M = np.asarray(M, dtype=complex)
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return M, []
    bound = tol * max(float(np.abs(M).max()), 1.0)
    A = M.tolist()
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        try:
            mags = [abs(row[c]) for row in A[r:]]
        except OverflowError:  # |z| past the float range, inf to numpy
            mags = np.abs([row[c] for row in A[r:]]).tolist()
        # the magnitudes are >= 0, so their sum is NaN exactly when one is
        total = sum(mags)
        i = (mags.index(max(mags)) if total == total
             else next(k for k, m in enumerate(mags) if m != m))
        if mags[i] <= bound:
            continue
        A[r], A[r + i] = A[r + i], A[r]
        # the division stays in numpy: CPython's complex division rounds
        # differently, and on the benchmark's inputs moved entries by up to
        # 2.3e-13 relative, against 8.0e-16 with numpy's
        pivot = A[r] = (np.array(A[r]) / A[r][c]).tolist()
        for k, row in enumerate(A):
            f = row[c]
            if k != r and f != 0:
                A[k] = [a - f * b for a, b in zip(row, pivot)]
        pivots.append(c)
    # entries are kept at full precision: genuinely tiny coordinates (for
    # instance exponentially suppressed periods near a boundary point) carry
    # information, and all comparisons downstream are tolerance based
    r = len(pivots)
    return np.array(A[:r], dtype=complex).reshape(r, cols), pivots


def rref_exact(M: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the integers, fraction-free: each row
    primitive with a positive entry at its pivot and zero at the others."""
    M = [list(row) for row in M]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if M[i][c]:
                break
        else:
            continue
        row, M[i] = M[i], M[r]
        # a row with a one at its pivot is primitive
        row = M[r] = row if row[c] == 1 else _primitive(row, c)
        p = row[c]
        for k in range(rows):
            f = M[k][c]
            if f and k != r:
                M[k] = ([a - f * b for a, b in zip(M[k], row)] if p == 1
                        else [p * a - f * b for a, b in zip(M[k], row)])
        pivots.append(c)
        r += 1
    # clearing a column multiplies the other rows by its pivot entry, which
    # keeps their pivot entries positive
    return [row if row[c] == 1 else _primitive(row, c) for row, c in zip(M, pivots)], pivots


def _primitive(row: list[int], c: int) -> list[int]:
    """row divided by the gcd of its entries, signed to be positive at c."""
    g = gcd(*row)
    if row[c] < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def nullspace_float(M: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Basis (rows) of the right null space {v : M v = 0}."""
    M = np.array(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] == 0:
        n = M.shape[-1] if M.ndim == 2 else 0
        return np.eye(n, dtype=complex)
    R, piv = rref_float(M, tol)
    free = [c for c in range(M.shape[1]) if c not in piv]
    basis = np.zeros((len(free), M.shape[1]), dtype=complex)
    basis[range(len(free)), free] = 1.0
    basis[:, piv] = -R[:, free].T
    return basis


def nullspace_exact(M: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Int basis (rows) of the right null space {v : M v = 0}."""
    return _echelon_kernel(*rref_exact(M), n)


def _echelon_kernel(R: list[list[int]], piv: list[int], n: int) -> list[list[int]]:
    """Int kernel basis of reduced echelon rows R, pivots piv (a Subspace's own,
    say): per free column f, v[f] = L and v[p] = -R_i[f] L / R_i[p] at the pivot
    p of each row i, L the lcm of the pivot entries it divides."""
    basis = []
    for f in (c for c in range(n) if c not in piv):
        L = lcm(*(row[p] for row, p in zip(R, piv) if row[f]))
        v = [0] * n
        v[f] = L
        for row, p in zip(R, piv):
            if row[f]:
                v[p] = -row[f] * (L // row[p])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """An immutable linear subspace of C^n given by a canonical echelon basis.

    When the generators are exactly rational the subspace also carries an
    exact echelon basis, primitive int rows (see the module docstring), and
    all operations between exact subspaces stay exact.
    """

    __slots__ = ("_basis", "ambient_dim", "exact", "pivots")

    def __init__(self, basis: Matrix | None, ambient_dim: int, pivots: list[int],
                 exact: list[list[int]] | None = None):
        self._basis = basis
        self.ambient_dim = int(ambient_dim)
        self.pivots = pivots
        self.exact = exact

    @property
    def basis(self) -> Matrix:
        """The float echelon basis, built from the exact rows on first read."""
        if self._basis is None:
            self._basis = np.array([row if row[p] == 1 else [x / row[p] for x in row]
                                    for row, p in zip(self.exact, self.pivots)],
                                   dtype=complex).reshape(len(self.exact), self.ambient_dim)
        return self._basis

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows, ambient_dim: int | None = None, tol: float = DEFAULT_TOL) -> "Subspace":
        """The span of the rows, exact when every entry is exactly rational."""
        if not isinstance(rows, np.ndarray):
            rows = [list(r) for r in rows]
        if ambient_dim is None:
            if not len(rows):
                raise DimensionMismatch(
                    "empty generator list needs an explicit ambient dimension")
            ambient_dim = len(rows[0])
        scaled = _over_one_denominator(rows)
        if scaled is not None:
            return Subspace.from_integer_rows(scaled[0], ambient_dim)
        R, piv = rref_float(np.asarray(rows, dtype=complex).reshape(len(rows), ambient_dim), tol)
        return Subspace(R, ambient_dim, pivots=piv)

    @staticmethod
    def from_integer_rows(rows: list[list[int]], ambient_dim: int) -> "Subspace":
        """The exact span of rows of Python ints, taken as they are; its float
        basis is built when first read."""
        R, piv = rref_exact(rows) if rows else ([], [])
        return Subspace(None, ambient_dim, exact=R, pivots=piv)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(np.zeros((0, ambient_dim), dtype=complex), ambient_dim, exact=[], pivots=[])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        eye = [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return Subspace(None, ambient_dim, exact=eye, pivots=list(range(ambient_dim)))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_exact(self) -> bool:
        return self.exact is not None

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, exact={self.is_exact()})"

    def __eq__(self, other) -> bool:
        return self.equals(other)

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))

    def equals(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if self.is_exact() and other.is_exact():
            return self.exact == other.exact
        if self.dim == 0:
            return True
        scale = max(float(np.abs(self.basis).max()), float(np.abs(other.basis).max()), 1.0)
        return bool(np.abs(self.basis - other.basis).max() <= 10 * tol * scale)

    def contains(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        if other.dim == 0 or self.dim == self.ambient_dim:
            return True
        if self.is_exact() and other.is_exact():
            # v is in S iff L v = sum (L v[p] / a) row over the rows of S, a
            # the entry of a row at its pivot p and L the lcm of the a
            lead = [(p, row[p]) for row, p in zip(self.exact, self.pivots)]
            L = lcm(*(a for _, a in lead))
            return all(_combination([v[p] * (L // a) for p, a in lead], self.exact,
                                    self.ambient_dim) == [L * x for x in v]
                       for v in other.exact)
        return self.add(other, tol).dim == self.dim

    # -- operations ----------------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}")

    def add(self, other: "Subspace", tol: float = DEFAULT_TOL) -> "Subspace":
        """Span of the union of the two bases."""
        self._check_ambient(other)
        # bases are canonical, so a sum with the zero space is the other operand
        if other.dim == 0:
            return self
        if self.dim == 0:
            return other
        if self.is_exact() and other.is_exact():
            return Subspace.from_integer_rows(self.exact + other.exact, self.ambient_dim)
        rows = np.vstack([self.basis, other.basis])
        R, piv = rref_float(rows, tol)
        return Subspace(R, self.ambient_dim, pivots=piv)

    def intersect(self, other: "Subspace", tol: float = DEFAULT_TOL) -> "Subspace":
        """Largest subspace contained in both operands."""
        self._check_ambient(other)
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(n)
        if self.dim == n:
            return other
        if other.dim == n:
            return self
        if self.is_exact() and other.is_exact():
            A = self.exact
            cols = [[*a, *(-x for x in b)] for a, b in zip(zip(*A), zip(*other.exact))]
            ker = nullspace_exact(cols, len(A) + other.dim)
            vecs = [_combination(coeffs, A, n) for coeffs in ker]
            return Subspace.from_integer_rows(vecs, n)
        S = np.vstack([self.basis, -other.basis])
        ker = nullspace_float(S.T, tol)
        if ker.shape[0] == 0:
            return Subspace.zero(n)
        vecs = ker[:, : self.dim] @ self.basis
        return Subspace.from_rows(vecs, n, tol)

    def conj(self) -> "Subspace":
        """Entrywise complex conjugation (Betti conjugation in rational coordinates)."""
        if self.is_exact():
            return self
        # conjugating a reduced echelon basis keeps it reduced, with the same pivots
        return Subspace(np.conj(self.basis), self.ambient_dim, pivots=self.pivots)

    def annihilator(self, tol: float = DEFAULT_TOL) -> "Subspace":
        """Row vectors phi with phi . v = 0 for every v in the subspace."""
        n = self.ambient_dim
        if self.dim == 0:
            return Subspace.full(n)
        if self.is_exact():
            return Subspace.from_integer_rows(_echelon_kernel(self.exact, self.pivots, n), n)
        return Subspace.from_rows(nullspace_float(self.basis, tol), n, tol)

    def image_under(self, A, tol: float = DEFAULT_TOL) -> "Subspace":
        """Span of A v over basis vectors v; A may map into a different space."""
        out_dim = len(A) if not isinstance(A, np.ndarray) else A.shape[0]
        if self.dim == 0:
            return Subspace.zero(out_dim)
        # only an exact subspace can use an exact A
        if self.is_exact():
            A = as_operator(A)
            if isinstance(A, ExactMatrix):
                # A v is the combination of the columns of A with the entries of v
                cols = list(zip(*A.num))
                rows = [_combination(v, cols, out_dim) for v in self.exact]
                return Subspace.from_integer_rows(rows, out_dim)
        return Subspace.from_rows(self.basis @ np.asarray(A, dtype=complex).T, out_dim, tol)

    def preimage_under(self, A, tol: float = DEFAULT_TOL) -> "Subspace":
        """{v : A v in S}; over Q, S's annihilator is read off its own rows."""
        n = self.ambient_dim
        if self.dim == n:
            return Subspace.full(n)
        if self.is_exact():
            A = as_operator(A)
            if isinstance(A, ExactMatrix):
                rows = [_combination(phi, A.num, n)
                        for phi in _echelon_kernel(self.exact, self.pivots, n)]
                return Subspace.from_integer_rows(nullspace_exact(rows, n), n)
        M = self.annihilator(tol).basis @ np.asarray(A, dtype=complex)
        return Subspace.from_rows(nullspace_float(M, tol), n, tol)


class AdaptedBasis:
    """A basis of C^n adapted to a chain of subspaces S_1 < ... < S_m = C^n:
    the first dims[i] rows of T span S_i.  A decreasing filtration hands in
    its steps by increasing dimension (Filtration.adapted_basis).

    The rows are the echelon rows of S_1, then for each later step its
    echelon rows at the pivots that the step below lacks.  They are not
    re-echelonized, so T does not depend on a tolerance, and a chain of
    coordinate subspaces gives a permutation.  The pivots of an exact chain
    are nested, and each row has a leading one at its own pivot, so T is
    then a row permutation of a unit upper triangular matrix, kept as an
    ExactMatrix with its inverse.  Float pivots near the threshold need not nest; a step whose
    pivots miss some of the step below keeps its rows at the pivots that
    complete pivoting on the coordinates of the step below leaves free
    (_covered_pivots).
    Coordinates of v = c T are c = v T^-1, and v lies in S_i when c
    vanishes past dims[i] (depth); there N acts by N' (operator), on
    S_i by its leading dims[i] block when N preserves the chain, and rows c
    go back by c T (lift), both over Q when the chain and N are exact."""

    __slots__ = ("T", "inverse", "exact", "exact_inverse", "dims")

    def __init__(self, steps: Sequence[Subspace]):
        n = steps[-1].ambient_dim
        picked: list[tuple[Subspace, int]] = []
        below: set[int] = set()
        for prev, s in zip((None, *steps), steps):
            if not below <= set(s.pivots):
                below = _covered_pivots(prev, s)
            picked += [(s, i) for i, p in enumerate(s.pivots) if p not in below]
            below = set(s.pivots)
        self.dims = tuple(s.dim for s in steps)
        self.T = np.array([s.basis[i] for s, i in picked], dtype=complex).reshape(n, n)
        self.exact = self.exact_inverse = None
        if all(s.is_exact() for s in steps):
            # the leading-one rows over L, the lcm of the pivot entries a
            lead = [s.exact[i][s.pivots[i]] for s, i in picked]
            L = lcm(*lead)
            self.exact = ExactMatrix([[x * (L // a) for x in s.exact[i]]
                                      for (s, i), a in zip(picked, lead)], L)
            # [T L | L 1] row-reduces to rows g_i [e_i | row i of T^-1]
            R, _ = rref_exact([row + [L * (i == j) for j in range(n)]
                               for i, row in enumerate(self.exact.num)])
            G = lcm(*(row[i] for i, row in enumerate(R)))
            self.exact_inverse = ExactMatrix([[x * (G // row[i]) for x in row[n:]]
                                              for i, row in enumerate(R)], G)
            self.inverse = np.array(self.exact_inverse, dtype=complex).reshape(n, n)
        else:
            self.inverse = np.linalg.inv(self.T)
        for m in (self.T, self.inverse):
            m.setflags(write=False)

    def reduce(self, S: Subspace | Matrix, tol: float = DEFAULT_TOL):
        """The rows of S, a Subspace or the float rows of a basis, in the
        coordinates of T, v T^-1, as right_echelon gives them: int rows when
        S and the chain are exact."""
        if isinstance(S, Subspace) and S.is_exact() and self.exact is not None:
            n = S.ambient_dim
            return right_echelon([_combination(v, self.exact_inverse.num, n) for v in S.exact])
        return right_echelon((S.basis if isinstance(S, Subspace) else S) @ self.inverse, tol)

    def operator(self, N):
        """N' with N'^T = T N^T T^-1, column j the coordinates of N applied to
        row j of T, for an N or a stack of them: an ExactMatrix when N
        (as_operator) and the chain are."""
        if isinstance(N, ExactMatrix) and self.exact is not None:
            n, cols = len(N), list(zip(*N.num))
            images = [_combination(t, cols, n) for t in self.exact.num]
            coords = [_combination(v, self.exact_inverse.num, n) for v in images]
            return ExactMatrix([list(c) for c in zip(*coords)],
                               self.exact.den * N.den * self.exact_inverse.den)
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
        """S cap step for a step of the chain, read off reduced = reduce(S).

        In the coordinates of T the step is the span of the first d = dim
        step coordinates.  A combination of the reduced rows vanishes past d
        exactly when its coefficient on each row with pivot >= d is zero, so
        S cap step is spanned by the rows with pivot < d, cut to their first
        d coordinates and mapped back by T."""
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


def right_echelon(rows, tol: float = DEFAULT_TOL):
    """Reduced row echelon form with pivots taken from the right: (rows,
    pivots), int rows staying exact.  Each row is zero at the other
    pivots and after its own (below the pivot threshold, for float rows), so
    a combination vanishes past coordinate d exactly when its coefficients
    on the rows with pivot >= d are zero."""
    if isinstance(rows, list):
        R, piv = rref_exact([row[::-1] for row in rows])
        return [row[::-1] for row in R], [len(rows[0]) - 1 - c for c in piv]
    R, piv = rref_float(rows[:, ::-1], tol)
    return R[:, ::-1], [rows.shape[1] - 1 - c for c in piv]


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


def _combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """sum_i coeffs[i] * rows[i] in Z^n, skipping zero coefficients (most
    combinations the library forms pick one row with coefficient one)."""
    out = None
    for c, row in zip(coeffs, rows):
        if c:
            term = row if c == 1 else [c * b for b in row]
            out = list(term) if out is None else [a + b for a, b in zip(out, term)]
    return [0] * n if out is None else out


def as_operator(A):
    """A matrix as the subspace operations and the orbit path take it: an
    ExactMatrix when every entry is exactly rational, else a complex array."""
    if isinstance(A, ExactMatrix):
        return A
    scaled = _over_one_denominator(A)
    return np.asarray(A, dtype=complex) if scaled is None else ExactMatrix(*scaled)


def check_square(A, n: int, name: str = "N"):
    """A, an ExactMatrix or an array, if n x n; else DimensionMismatch."""
    shape = (len(A.num), *{len(r) for r in A.num}) if isinstance(A, ExactMatrix) else np.shape(A)
    if shape != (n, n):
        raise DimensionMismatch(f"{name} must be {n} x {n}, got {' x '.join(map(str, shape))}")
    return A


def echelonize(vectors, ambient_dim: int | None = None, tol: float = DEFAULT_TOL) -> Subspace:
    """Row-reduce a generator matrix into a canonical Subspace (rank 0 allowed)."""
    return Subspace.from_rows(vectors, ambient_dim, tol)


def intersect(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    return a.intersect(b, tol)


def subspace_sum(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    return a.add(b, tol)


# ---------------------------------------------------------------------------
# matrix helpers (nilpotent exponentials, grading frames)


def maxabs(A) -> float:
    A = np.asarray(A)
    return float(np.abs(A).max()) if A.size else 0.0


def nilpotent_powers(N, tol: float = DEFAULT_TOL) -> list:
    """The table N^0, ..., N^m of a nilpotent N, raising NotNilpotent otherwise.

    N is an array, or anything as_operator reads: an ExactMatrix gives a table
    of them.  N^m is the first power that is exactly zero on an ExactMatrix,
    and the first at most tol * scale^m on an array, with scale = max(max
    |N_ij|, 1); callers read every power from m on as N^m."""
    if not isinstance(N, np.ndarray):
        N = as_operator(N)
    n = len(N)
    if isinstance(N, ExactMatrix):
        table = [ExactMatrix([[int(i == k) for k in range(n)] for i in range(n)])]
        for _ in range(n):
            P = table[-1]
            table.append(ExactMatrix([_combination(row, N.num, n) for row in P.num],
                                     P.den * N.den))
            if not any(map(any, table[-1].num)):
                return table
        raise NotNilpotent("matrix is not nilpotent")
    N = np.array(N, dtype=complex)
    scale = max(maxabs(N), 1.0)
    table = [np.eye(n, dtype=complex)]
    for k in range(1, n + 1):
        table.append(table[-1] @ N)
        if maxabs(table[-1]) <= tol * scale ** k:
            return table
    raise NotNilpotent("matrix is not nilpotent at the working tolerance")


def check_nilpotent(N, tol: float = DEFAULT_TOL) -> int:
    """Return the nilpotency index, raising NotNilpotent otherwise."""
    return len(nilpotent_powers(N, tol)) - 1


def exp_terms(A: Matrix) -> list[Matrix]:
    """The terms A^k / k! of exp(A), A nilpotent or a stack of such, up to the
    last nonzero one."""
    A = np.array(A, dtype=complex)
    terms = [np.eye(A.shape[-1], dtype=complex)]
    while len(terms) <= A.shape[-1] and (T := terms[-1] @ A / len(terms)).any():
        terms.append(T)
    return terms


def expm_nilpotent(A: Matrix) -> Matrix:
    """exp(A) as the finite polynomial series; A must be nilpotent."""
    return sum(exp_terms(A))


def logm_unipotent(G: Matrix) -> Matrix:
    """log(G) for unipotent G as the finite Mercator series."""
    X = np.array(G, dtype=complex) - np.eye(len(G))
    out, T = np.zeros_like(X), X
    for k in range(1, len(X) + 1):
        if not T.any():
            break
        out, T = out + ((-1) ** (k + 1)) * T / k, T @ X
    return out


def bch(xs: Sequence[Matrix]) -> Matrix:
    """log(exp(x_1) ... exp(x_m)) in nested commutators, for matrices that
    each lower by at least 2 a grading of length at most 8: the two-factor
    series Z + X + [Z,X]/2 + ([Z,[Z,X]] - [X,[Z,X]])/12 - [X,[Z,[Z,X]]]/24,
    folded over the factors.  Every longer bracket lowers the grading by 10
    or more and vanishes, so the series is exact, and no power of one factor
    has to cancel as in the Mercator log of the product."""
    z, *rest = [x for x in xs if x.any()] or [np.zeros_like(xs[0])]
    for x in rest:
        zx = z @ x - x @ z
        zzx, xzx = z @ zx - zx @ z, x @ zx - zx @ x
        z = z + x + zx / 2 + (zzx - xzx) / 12 - (x @ zzx - zzx @ x) / 24
    return z


def read_only(arrays: dict) -> Mapping:
    """The arrays, made read-only, behind a read-only view, as shared caches
    hand them out."""
    for m in arrays.values():
        m.setflags(write=False)
    return MappingProxyType(arrays)


class LazyMapping(Mapping):
    """A read-only mapping whose items build() makes on the first read."""

    def __init__(self, build):
        self._build = build

    @cached_property
    def _items(self) -> Mapping:
        return self._build()

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class Frame:
    """A grading of C^n: an invertible C, its inverse C^-1 and a degree per
    column, an int weight or a (p, q) bidegree (a row of degrees).  The
    projector onto degree d is C E_d C^-1, E_d selecting the columns of
    degree d.  The degree-g part of M, with coordinates X = C^-1 M C, is
    C X_g C^-1 (lift), X_g the entries (i, j) of X with deg i - deg j = g:
    it maps the piece of degree d into that of degree d + g, and the parts
    sum to M.  Frames are shared, so projectors and grading are read-only."""

    def __init__(self, C: np.ndarray, C_inv: np.ndarray | None, degrees):
        self.C, self.degrees = C, np.asarray(degrees)
        if C_inv is not None:   # else C^-1 is taken on its first read
            self.C_inv = C_inv
        # a bidegree (p, q) as p + qi, so that degrees compare as scalars
        self._code = self.degrees @ [1, 1j] if self.degrees.ndim == 2 else self.degrees

    @staticmethod
    def of(pieces: Mapping[Hashable, Matrix]) -> "Frame":
        """The basis rows of the pieces as the columns of C, in key order."""
        keys = sorted(pieces)
        C = np.vstack([pieces[k] for k in keys]).T
        return Frame(C, None, np.repeat(keys, [len(pieces[k]) for k in keys], 0))

    C_inv = cached_property(lambda self: np.linalg.inv(self.C))

    def _distinct(self, codes: np.ndarray) -> dict:
        """code -> degree of each distinct code, sorted; np.unique is not used,
        since its first call raises a process's peak memory by about 1.6 MB."""
        us = sorted(set(codes.ravel().tolist()), key=lambda u: (u.real, u.imag))
        return {u: (int(u.real), int(u.imag)) if self.degrees.ndim == 2 else u for u in us}

    @cached_property
    def masks(self) -> dict:
        """g -> the entries (i, j) with deg i - deg j = g, for each such g."""
        shift = self._code[:, None] - self._code
        return {g: shift == u for u, g in self._distinct(shift).items()}

    def moved(self, G: np.ndarray, G_inv: np.ndarray) -> "Frame":
        """The frame (G C, C^-1 G^-1) of the same degrees, which shares the masks."""
        frame = Frame(G @ self.C, self.C_inv @ G_inv, self.degrees)
        frame.masks = self.masks
        return frame

    def coordinates(self, M: Matrix) -> np.ndarray:
        return self.C_inv @ M @ self.C

    def lift(self, X: Matrix, g=None) -> np.ndarray:
        """C X C^-1, X cut to its entries of degree g when g is given."""
        if g is not None:
            X = np.where(self.masks.get(g, False), X, 0)
        return self.C @ X @ self.C_inv

    def parts(self, X: Matrix) -> dict:
        """g -> the lift of the entries of degree g of X, for each such g."""
        masked = np.where(np.array(list(self.masks.values())), X, 0)
        return dict(zip(self.masks, self.C @ masked @ self.C_inv))

    @cached_property
    def projectors(self) -> Mapping:
        keys = self._distinct(self._code)
        E = self._code == np.array(list(keys))[:, None]
        return read_only(dict(zip(keys.values(), (self.C * E[:, None]) @ self.C_inv)))

    @cached_property
    def grading(self) -> np.ndarray:
        """C diag(deg) C^-1, for int degrees."""
        Y = (self.C * self.degrees) @ self.C_inv
        Y.setflags(write=False)
        return Y
