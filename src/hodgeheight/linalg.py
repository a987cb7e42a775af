"""Subspace arithmetic over exact rationals and complex floats.

Subspaces are stored as reduced row echelon bases (rows = generators), which
makes the representation canonical for a fixed tolerance: pivots are leading
ones ordered by column.  Purely rational inputs (weight filtrations, nilpotent
monodromy matrices) keep an exact Fraction representation alongside the float
one, so rank decisions on that data never involve a threshold.

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

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

import numpy as np

from .config import default_tol
from .errors import DimensionMismatch, NotNilpotent

Matrix = np.ndarray

# the ambient field: complex scalars in the fixed rational coordinate basis,
# conjugated entrywise, in double precision
Scalar = complex

# ---------------------------------------------------------------------------
# scalar helpers


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and float(x).is_integer():
        return Fraction(int(x))
    raise TypeError(f"not an exact rational: {x!r}")


def is_rational_entry(x) -> bool:
    if isinstance(x, (Fraction, int, np.integer, str)):
        return True
    if isinstance(x, float):
        return float(x).is_integer()
    if isinstance(x, (complex, np.complexfloating)):
        return x.imag == 0 and float(x.real).is_integer()
    return False


def integral_array(M: np.ndarray) -> bool:
    """Whether every entry of a numeric array is finite, real and an integer:
    the verdict of is_rational_entry on each float64 or complex entry."""
    return bool(np.isfinite(M).all() and not M.imag.any()
                and (M.real == np.round(M.real)).all())


def rational_rows(rows) -> list[list[Fraction]] | None:
    """Return a Fraction matrix when every entry is exactly rational, else None."""
    out = []
    for row in rows:
        if all(type(x) is Fraction for x in row):
            out.append(list(row))
            continue
        r = []
        for x in row:
            if not is_rational_entry(x):
                return None
            if isinstance(x, (complex, np.complexfloating)):
                x = x.real
            r.append(as_fraction(x))
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# echelon forms


def rref_float(M: Matrix, tol: float | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with pivot threshold tol * max(max |M_ij|, 1).

    Each pivot is the first largest |entry| at or below the current row (a
    NaN first, as np.argmax picks it); entries at or under the threshold are
    not pivots.  The matrix is row-reduced as Python complex rows, converted
    in and out once: see the module docstring for why."""
    tol = default_tol() if tol is None else tol
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        M = M.reshape(-1, M.shape[-1]) if M.size else M.reshape(0, 0)
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return M.reshape(max(rows, 0), cols), []
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


def rref_exact(M: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over exact rationals."""
    M = [list(row) for row in M]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = None
        for i in range(r, rows):
            if M[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        if M[r][c] != 1:
            inv = 1 / M[r][c]
            M[r] = [x * inv if x else x for x in M[r]]
        for k in range(rows):
            f = M[k][c]
            if k != r and f:
                M[k] = [a - f * b if b else a for a, b in zip(M[k], M[r])]
        pivots.append(c)
        r += 1
    return M[:r], pivots


def nullspace_float(M: Matrix, tol: float | None = None) -> Matrix:
    """Basis (rows) of the right null space {v : M v = 0}."""
    M = np.array(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] == 0:
        n = M.shape[-1] if M.ndim == 2 else 0
        return np.eye(n, dtype=complex)
    R, piv = rref_float(M, tol)
    n = M.shape[1]
    free = [c for c in range(n) if c not in piv]
    basis = np.zeros((len(free), n), dtype=complex)
    for row, f in enumerate(free):
        basis[row, f] = 1.0
        for i, p in enumerate(piv):
            basis[row, p] = -R[i, f]
    return basis


def nullspace_exact(M: Sequence[Sequence[Fraction]], n: int) -> list[list[Fraction]]:
    if not M:
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    R, piv = rref_exact(M)
    free = [c for c in range(n) if c not in piv]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(piv):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """An immutable linear subspace of C^n given by a canonical echelon basis.

    When the generators are exactly rational the subspace also carries an
    exact echelon basis and all operations between exact subspaces stay exact.
    """

    __slots__ = ("basis", "ambient_dim", "exact", "pivots")

    def __init__(self, basis: Matrix, ambient_dim: int, pivots: list[int],
                 exact: list[list[Fraction]] | None = None):
        self.basis = basis
        self.ambient_dim = int(ambient_dim)
        self.pivots = pivots
        self.exact = exact

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows, ambient_dim: int | None = None, tol: float | None = None) -> "Subspace":
        if (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.size
                and rows.dtype in (np.float64, np.complex128)):
            # such an array is rational exactly when it is integral, entry by
            # entry as is_rational_entry decides, so no entry is scanned
            ambient_dim = rows.shape[1] if ambient_dim is None else ambient_dim
            M = rows.reshape(len(rows), ambient_dim)
            exact_rows = ([[Fraction(int(x)) for x in row] for row in M.real.tolist()]
                          if integral_array(M) else None)
        else:
            rows = [list(r) for r in rows]
            if ambient_dim is None:
                if not rows:
                    raise DimensionMismatch(
                        "empty generator list needs an explicit ambient dimension")
                ambient_dim = len(rows[0])
            exact_rows = rational_rows(rows)
            M = rows
        if exact_rows is not None:
            R, piv = rref_exact(exact_rows) if exact_rows else ([], [])
            basis = np.array([[complex(x) for x in row] for row in R],
                             dtype=complex).reshape(len(R), ambient_dim)
            return Subspace(basis, ambient_dim, exact=R, pivots=piv)
        M = np.asarray(M, dtype=complex).reshape(len(M), ambient_dim)
        R, piv = rref_float(M, tol)
        return Subspace(R, ambient_dim, pivots=piv)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(np.zeros((0, ambient_dim), dtype=complex), ambient_dim, exact=[], pivots=[])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        eye = [[Fraction(int(i == j)) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return Subspace(np.eye(ambient_dim, dtype=complex), ambient_dim,
                        exact=eye, pivots=list(range(ambient_dim)))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_exact(self) -> bool:
        return self.exact is not None

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, exact={self.is_exact()})"

    def __eq__(self, other) -> bool:
        return self.equals(other)

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))

    def equals(self, other: "Subspace", tol: float | None = None) -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if self.is_exact() and other.is_exact():
            return self.exact == other.exact
        tol = default_tol() if tol is None else tol
        if self.dim == 0:
            return True
        scale = max(float(np.abs(self.basis).max()), float(np.abs(other.basis).max()), 1.0)
        return bool(np.abs(self.basis - other.basis).max() <= 10 * tol * scale)

    def contains(self, other: "Subspace", tol: float | None = None) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        if other.dim == 0:
            return True
        if self.is_exact() and other.is_exact():
            return all(_reduces_to_zero(v, self.exact, self.pivots) for v in other.exact)
        return self.add(other, tol).dim == self.dim

    # -- operations ----------------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}")

    def add(self, other: "Subspace", tol: float | None = None) -> "Subspace":
        """Span of the union of the two bases."""
        self._check_ambient(other)
        # bases are canonical, so a sum with the zero space is the other operand
        if other.dim == 0:
            return self
        if self.dim == 0:
            return other
        if self.is_exact() and other.is_exact():
            return Subspace.from_rows(list(self.exact) + list(other.exact), self.ambient_dim)
        rows = np.vstack([self.basis, other.basis])
        R, piv = rref_float(rows, tol)
        return Subspace(R, self.ambient_dim, pivots=piv)

    def intersect(self, other: "Subspace", tol: float | None = None) -> "Subspace":
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
            B = other.exact
            cols = [[A[i][j] for i in range(len(A))] + [-B[i][j] for i in range(len(B))]
                    for j in range(n)]
            ker = nullspace_exact(cols, len(A) + len(B))
            vecs = [_combination(coeffs, A, n) for coeffs in ker]
            return Subspace.from_rows(vecs, n) if vecs else Subspace.zero(n)
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

    def annihilator(self, tol: float | None = None) -> "Subspace":
        """Row vectors phi with phi . v = 0 for every v in the subspace."""
        n = self.ambient_dim
        if self.dim == 0:
            return Subspace.full(n)
        if self.is_exact():
            return Subspace.from_rows(nullspace_exact(self.exact, n), n)
        return Subspace.from_rows(nullspace_float(self.basis, tol), n, tol)

    def image_under(self, A, tol: float | None = None) -> "Subspace":
        """Span of A v over basis vectors v; A may map into a different space."""
        out_dim = len(A) if not isinstance(A, np.ndarray) else A.shape[0]
        if self.dim == 0:
            return Subspace.zero(out_dim)
        # only an exact subspace can use Fraction rows of A
        if self.is_exact():
            A = as_operator(A)
            if isinstance(A, list):
                # A v is the combination of the columns of A with the entries of v
                cols = list(zip(*A))
                rows = [_combination(v, cols, out_dim) for v in self.exact]
                return Subspace.from_rows(rows, out_dim)
        return Subspace.from_rows(self.basis @ np.asarray(A, dtype=complex).T, out_dim, tol)

    def preimage_under(self, A, tol: float | None = None) -> "Subspace":
        """{v : A v in S}."""
        n = self.ambient_dim
        ann = self.annihilator(tol)
        if ann.dim == 0:
            return Subspace.full(n)
        if ann.is_exact():
            A = as_operator(A)
            if isinstance(A, list):
                rows = [_combination(phi, A, n) for phi in ann.exact]
                return Subspace.from_rows(nullspace_exact(rows, n), n)
        M = ann.basis @ np.asarray(A, dtype=complex)
        return Subspace.from_rows(nullspace_float(M, tol), n, tol)

    def complement_in(self, bigger: "Subspace", tol: float | None = None) -> "Subspace":
        """A complement of self inside bigger, taken from echelon pivot rows."""
        self._check_ambient(bigger)
        if self.is_exact() and bigger.is_exact():
            sub_piv = set(self.pivots)
            rows = [r for r, p in zip(bigger.exact, bigger.pivots) if p not in sub_piv]
            return Subspace.from_rows(rows, self.ambient_dim)
        sub_piv = set(self.pivots)
        rows = [bigger.basis[i] for i, p in enumerate(bigger.pivots) if p not in sub_piv]
        if not rows:
            return Subspace.zero(self.ambient_dim)
        return Subspace.from_rows(rows, self.ambient_dim, tol)


class AdaptedBasis:
    """A basis of C^n adapted to a chain of subspaces S_1 < ... < S_m = C^n:
    the first dims[i] rows of T span S_i.

    The rows are the echelon rows of S_1, then for each later step its
    echelon rows at the pivots that the step below lacks, as
    Subspace.complement_in selects them.  They are not re-echelonized, so T
    does not depend on a tolerance, and a chain of coordinate subspaces
    gives a permutation.  The pivots of an exact chain are nested, and each
    row has a leading one at its own pivot, so T is then a row permutation
    of a unit upper triangular matrix, kept over Q with its inverse.  Float
    pivots near the threshold need not nest; a step whose pivots miss some
    of the step below keeps its rows at the pivots that complete pivoting
    on the coordinates of the step below leaves free (_covered_pivots).
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
            self.exact = [s.exact[i] for s, i in picked]
            one = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            R, _ = rref_exact([row + e for row, e in zip(self.exact, one)])
            self.exact_inverse = [row[n:] for row in R]
            self.inverse = np.array([[complex(x) for x in row] for row in self.exact_inverse],
                                    dtype=complex).reshape(n, n)
        else:
            self.inverse = np.linalg.inv(self.T)
        for m in (self.T, self.inverse):
            m.setflags(write=False)

    def reduce(self, S: Subspace, tol: float | None = None):
        """The rows of S in the coordinates of T, v T^-1, as right_echelon
        gives them: Fraction rows when S and the chain are exact."""
        n = S.ambient_dim
        if S.is_exact() and self.exact is not None:
            return right_echelon([_combination(v, self.exact_inverse, n) for v in S.exact])
        return right_echelon(S.basis @ self.inverse, tol)

    def operator(self, N):
        """N' with N'^T = T N^T T^-1, column j the coordinates of N applied to
        row j of T: Fraction rows when N (as_operator) and the chain are exact."""
        if isinstance(N, list) and self.exact is not None:
            n, cols = len(N), list(zip(*N))
            images = [_combination(t, cols, n) for t in self.exact]
            coords = [_combination(v, self.exact_inverse, n) for v in images]
            return [list(c) for c in zip(*coords)]
        return (self.T @ np.asarray(N, dtype=complex).T @ self.inverse).T

    def depth(self, rows, tol: float | None = None) -> int:
        """One past the last coordinate of the rows c = v T^-1 above the
        pivot threshold tol * max(max |c|, 1) of rref_float (a NaN is above
        it): the rows lie in the step of dimension d iff their depth is <= d."""
        tol = default_tol() if tol is None else tol
        c = np.abs(np.asarray(rows) @ self.inverse)
        # scanned as a list: numpy reductions cost more on these few columns
        c = (c.max(axis=0, initial=0.0) if c.ndim == 2 else c).tolist()
        bound, d = tol * max(1.0, *c), len(c)
        while d and c[d - 1] <= bound:
            d -= 1
        return d

    def lift(self, S: Subspace, tol: float | None = None) -> Subspace:
        """The subspace of the rows c T for c in a subspace S of coordinates."""
        n = S.ambient_dim
        if S.is_exact() and self.exact is not None:
            return Subspace.from_rows([_combination(c, self.exact, n) for c in S.exact], n)
        return Subspace.from_rows(S.basis @ self.T, n, tol)

    def meet(self, S: Subspace, reduced, step: Subspace,
             tol: float | None = None) -> Subspace:
        """S cap step for a step of the chain, read off reduced = reduce(S).

        In the coordinates of T the step is the span of the first d = dim
        step coordinates.  A combination of the reduced rows vanishes past d
        exactly when its coefficient on each row with pivot >= d is zero, so
        S cap step is spanned by the rows with pivot < d, cut to their first
        d coordinates and mapped back by T."""
        rows, piv = reduced
        d = step.dim
        keep = [i for i, c in enumerate(piv) if c < d]
        if len(keep) == S.dim:
            return S
        if len(keep) == d:
            return step
        n = S.ambient_dim
        if not keep:
            return Subspace.zero(n)
        if isinstance(rows, list):
            return Subspace.from_rows([_combination(rows[i][:d], self.exact[:d], n)
                                       for i in keep], n)
        return Subspace.from_rows(rows[keep, :d] @ self.T[:d], n, tol)


def right_echelon(rows, tol: float | None = None):
    """Reduced row echelon form with pivots taken from the right: (rows,
    pivots), Fraction rows staying exact.  Each row is zero at the other
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


def _combination(coeffs: Sequence[Fraction], rows: Sequence[Sequence[Fraction]],
                 n: int) -> list[Fraction]:
    """sum_i coeffs[i] * rows[i] in Q^n, skipping zero coefficients and entries."""
    out = [Fraction(0)] * n
    for c, row in zip(coeffs, rows):
        if c:
            out = [a + c * b if b else a for a, b in zip(out, row)]
    return out


def _reduces_to_zero(v: list[Fraction], R: list[list[Fraction]], pivots: list[int]) -> bool:
    """Whether v lies in the row span of the reduced echelon basis R: clearing
    v at each pivot column leaves zero exactly when it does."""
    for row, p in zip(R, pivots):
        c = v[p]
        if c:
            v = [a - c * b if b else a for a, b in zip(v, row)]
    return not any(v)


def as_operator(A):
    """A matrix as the subspace operations and the orbit path take it:
    Fraction rows when every entry is exactly rational, else a complex array."""
    rows = A
    if isinstance(A, np.ndarray):
        if A.dtype != object and np.iscomplexobj(A) and np.any(A.imag):
            return A
        rows = A.tolist()
    exact = rational_rows(rows)
    return exact if exact is not None else np.asarray(A, dtype=complex)


def echelonize(vectors, ambient_dim: int | None = None, tol: float | None = None) -> Subspace:
    """Row-reduce a generator matrix into a canonical Subspace (rank 0 allowed)."""
    return Subspace.from_rows(vectors, ambient_dim, tol)


def intersect(a: Subspace, b: Subspace, tol: float | None = None) -> Subspace:
    return a.intersect(b, tol)


def subspace_sum(a: Subspace, b: Subspace, tol: float | None = None) -> Subspace:
    return a.add(b, tol)


# ---------------------------------------------------------------------------
# matrix helpers (nilpotent exponentials, graded projectors and parts)


def maxabs(A) -> float:
    A = np.asarray(A)
    return float(np.abs(A).max()) if A.size else 0.0


def nilpotent_powers(N, tol: float | None = None) -> list:
    """The table N^0, ..., N^m of a nilpotent N, raising NotNilpotent otherwise.

    N is Fraction rows (a list) or an array.  N^m is the first power that is
    exactly zero on Fraction rows, and the first at most tol * scale^m on an
    array, with scale = max(max |N_ij|, 1); callers read every power from m
    on as N^m."""
    tol = default_tol() if tol is None else tol
    n = len(N)
    if isinstance(N, list):
        table = [[[Fraction(int(i == k)) for k in range(n)] for i in range(n)]]
        for _ in range(n):
            table.append([[sum((a * b for a, b in zip(row, col) if a), Fraction(0))
                           for col in zip(*N)] for row in table[-1]])
            if not any(any(row) for row in table[-1]):
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


def check_nilpotent(N, tol: float | None = None) -> int:
    """Return the nilpotency index, raising NotNilpotent otherwise."""
    return len(nilpotent_powers(N, tol)) - 1


def expm_nilpotent(A: Matrix) -> Matrix:
    """exp(A) as the finite polynomial series; A must be nilpotent."""
    A = np.array(A, dtype=complex)
    n = A.shape[0]
    E = np.eye(n, dtype=complex)
    T = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        T = T @ A / k
        if not np.any(T):
            break
        E = E + T
    return E


def logm_unipotent(G: Matrix) -> Matrix:
    """log(G) for unipotent G as the finite Mercator series."""
    G = np.array(G, dtype=complex)
    n = G.shape[0]
    X = G - np.eye(n)
    out = np.zeros_like(X)
    T = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        T = T @ X
        if not np.any(T):
            break
        out = out + ((-1) ** (k + 1)) * T / k
    return out


def graded_projectors(pieces: Mapping[Hashable, Matrix]) -> dict[Hashable, Matrix]:
    """Projectors of a direct-sum decomposition C^n = (+) pieces[k], each
    piece given by the rows of a basis.  With C the matrix whose columns are
    the piece bases in key order, the projector onto piece k along the others
    is C[:, block_k] @ inv(C)[block_k].  The projectors are read-only, since
    bigradings and Deligne systems keep and share them."""
    keys = sorted(pieces)
    C = np.vstack([pieces[k] for k in keys]).T
    Cinv = np.linalg.inv(C)
    out = {}
    start = 0
    for k in keys:
        block = slice(start, start + len(pieces[k]))
        out[k] = C[:, block] @ Cinv[block]
        out[k].setflags(write=False)
        start = block.stop
    return out


def graded_parts(proj: Mapping[Hashable, Matrix], A: Matrix) -> dict[Hashable, Matrix]:
    """Every degree part of A with respect to the projectors of a grading.

    Keys are integer weights or tuples such as (p, q) bidegrees, subtracted
    componentwise: the part of degree g is the sum of P_l A P_k over the
    pairs of keys with l - k = g, so it maps piece k into piece k + g, and
    the parts sum to A."""
    A = np.asarray(A, dtype=complex)
    left = {l: P @ A for l, P in proj.items()}
    out: dict[Hashable, Matrix] = {}
    for k in sorted(proj):
        for l in sorted(proj):
            g = tuple(a - b for a, b in zip(l, k)) if isinstance(k, tuple) else l - k
            block = left[l] @ proj[k]
            out[g] = out[g] + block if g in out else block
    return out
