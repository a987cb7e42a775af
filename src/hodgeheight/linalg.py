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
numpy rows: the library's matrices are tiny (at most 8 columns), so a numpy
call per row operation costs more in overhead than its arithmetic.  Only the
pivot-row division stays in numpy, so that it rounds as numpy does.
CPython's complex product is not fused as numpy's may be, so entries can
differ from a numpy row loop in the last bits; the pivots agree away from the
threshold (tests/test_linalg.py keeps that loop as an oracle).
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
    return bool(not M.imag.any() and (R == np.rint(R)).all() and np.isfinite(R).all())


def integer(x, name: str) -> int:
    """x as an int; HodgeError named name for a bool, a bad string or a non-integral number."""
    if type(x) is int:   # the common case, read with no checks
        return x
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
    """Int basis (rows) of the right null space {v : M v = 0}, reduced as a
    Subspace's rows: off the right echelon of M, each row is zero at the other
    free columns and before its own, and is made primitive, positive there."""
    R, piv = right_echelon(M) if M else ([], [])
    free = [c for c in range(n) if c not in piv]
    return [_primitive(v, f) for v, f in zip(_echelon_kernel(R, piv, n), free)]


def _echelon_kernel(R: list[list[int]], piv: list[int], n: int) -> list[list[int]]:
    """Int kernel basis of reduced echelon rows R, pivots piv (a Subspace's own,
    say): per free column f, v[f] = L and v[p] = -R_i[f] L / R_i[p] at the pivot
    p of each row i, L the lcm of the pivot entries it divides."""
    basis, pivots = [], set(piv)
    for f in range(n):
        if f not in pivots:
            hits = [(p, row[f], row[p]) for row, p in zip(R, piv) if row[f]]
            L = lcm(*(a for _, _, a in hits))
            v = [0] * n
            v[f] = L
            for p, x, a in hits:
                v[p] = -x * (L // a)
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
        return self.equals(other) if isinstance(other, Subspace) else NotImplemented

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
            return self.holds(other.exact)
        return self.add(other, tol).dim == self.dim

    def holds(self, rows: list[list[int]]) -> bool:
        """Whether every int row lies in this exact subspace: v does iff L v =
        sum (L v[p] / a) row over the rows of S, a the entry of a row at its
        pivot p and L the lcm of the a.  The rows need not be reduced."""
        lead = [(p, row[p]) for row, p in zip(self.exact, self.pivots)]
        L = lcm(*(a for _, a in lead))
        return all(_combination([v[p] * (L // a) for p, a in lead], self.exact,
                                self.ambient_dim) == [L * x for x in v] for v in rows)

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

    def image_under(self, A, tol: float = DEFAULT_TOL, plus: "Subspace | None" = None
                    ) -> "Subspace":
        """Span of A v over basis vectors v, and of plus (a subspace of the
        target) when given: over Q one echelon of the stacked rows.  A may map
        into a different space."""
        out_dim = len(A) if not isinstance(A, np.ndarray) else A.shape[0]
        if self.dim == 0:
            return Subspace.zero(out_dim) if plus is None else plus
        # only an exact subspace can use an exact A
        if self.is_exact() and (plus is None or plus.is_exact()):
            A = as_operator(A)
            if isinstance(A, ExactMatrix):
                # A v is the combination of the columns of A with the entries of v
                cols = list(zip(*A.num))
                rows = [_combination(v, cols, out_dim) for v in self.exact]
                return Subspace.from_integer_rows(rows + (plus.exact if plus is not None else []),
                                                  out_dim)
        image = Subspace.from_rows(self.basis @ np.asarray(A, dtype=complex).T, out_dim, tol)
        return image if plus is None else image.add(plus, tol)

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
                ker = nullspace_exact(rows, n)   # already reduced
                return Subspace(None, n, [v.index(next(filter(None, v))) for v in ker], exact=ker)
        M = self.annihilator(tol).basis @ np.asarray(A, dtype=complex)
        return Subspace.from_rows(nullspace_float(M, tol), n, tol)


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


def _combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """sum_i coeffs[i] * rows[i] in Z^n, skipping zero coefficients (most
    combinations the library forms pick one row with coefficient one)."""
    out = None
    for c, row in zip(coeffs, rows):
        if c:   # one list per term: the product is taken inside the sum
            out = ((list(row) if c == 1 else [c * b for b in row]) if out is None else
                   [a + b for a, b in zip(out, row)] if c == 1 else
                   [a + c * b for a, b in zip(out, row)])
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
