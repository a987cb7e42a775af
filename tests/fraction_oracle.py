"""The Fraction kernel that the exact path of hodgeheight.linalg replaced.

Gauss-Jordan over Python Fractions with leading-one rows, the subspace and
adapted-basis operations built on it, and the converters from the library's
exact values (primitive int rows, ExactMatrix) to leading-one Fraction rows.
The oracle for the int kernels: each exact operation must give the subspace
or matrix that these functions give, and the float basis that complex()
makes of their rows, bit for bit.
"""
from fractions import Fraction

import numpy as np

from hodgeheight.errors import NotNilpotent


# ---------------------------------------------------------------------------
# the entry scan


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


def rational_rows(rows) -> list[list[Fraction]] | None:
    """A Fraction matrix when every entry is exactly rational, else None."""
    out = []
    for row in rows:
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
# converters from the library's exact values


def leading_one(S) -> list[list[Fraction]]:
    """The exact rows of a Subspace, each over its pivot entry."""
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(S.exact, S.pivots)]


def fractions(M) -> list[list[Fraction]]:
    """The entries of an ExactMatrix as Fractions."""
    return [[Fraction(x, M.den) for x in row] for row in M.num]


def floats(rows, n: int) -> np.ndarray:
    """The complex array of Fraction rows, each entry rounded by complex()."""
    return np.array([[complex(x) for x in row] for row in rows], dtype=complex).reshape(
        len(rows), n)


# ---------------------------------------------------------------------------
# the kernel


def rref(M) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions, with leading ones."""
    M = [[Fraction(x) for x in row] for row in M]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for k in range(rows):
            f = M[k][c]
            if k != r and f:
                M[k] = [a - f * b for a, b in zip(M[k], M[r])]
        pivots.append(c)
        r += 1
    return M[:r], pivots


def nullspace(M, n: int) -> list[list[Fraction]]:
    """A basis (rows) of {v : M v = 0}, one row per free column."""
    if not M:
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    R, piv = rref(M)
    basis = []
    for f in (c for c in range(n) if c not in piv):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(piv):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
            for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def inverse(g):
    """g^-1: [g | 1] row-reduces to [1 | g^-1] for invertible g."""
    n = len(g)
    R, _ = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)])
    return [row[n:] for row in R]


# ---------------------------------------------------------------------------
# subspaces as leading-one rows


def span(rows):
    return rref(rows)[0]


def add(A, B):
    return span(A + B)


def intersect(A, B, n):
    return span(nullspace(nullspace(A, n) + nullspace(B, n), n))


def contains(A, B) -> bool:
    return len(add(A, B)) == len(A)


def image(M, S):
    return span([[sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in M] for v in S])


def preimage(M, S, n):
    ann = nullspace(S, n)
    if not ann:
        return span([[int(i == j) for j in range(n)] for i in range(n)])
    return span(nullspace(matmul(ann, M), n))


def annihilator(S, n):
    return span(nullspace(S, n))


def complement_in(sub, bigger):
    """The rows of bigger at the pivots sub lacks."""
    lacks = set(rref(bigger)[1]) - set(rref(sub)[1])
    return [row for row, p in zip(*rref(bigger)) if p in lacks]


def right_echelon(rows):
    """Reduced row echelon form with pivots taken from the right, ones there."""
    R, piv = rref([row[::-1] for row in rows])
    return [row[::-1] for row in R], [len(rows[0]) - 1 - c for c in piv]


def adapted_basis(steps):
    """T (rows) for a chain of exact steps, as leading-one rows: the rows of
    each step at the pivots the step below lacks, and T^-1."""
    T, below = [], set()
    for s in steps:
        R, piv = rref(s)
        T += [row for row, p in zip(R, piv) if p not in below]
        below = set(piv)
    return T, inverse(T)


def powers(N):
    """N^0, ..., N^m with N^m the first zero power."""
    n = len(N)
    table = [[[Fraction(int(i == k)) for k in range(n)] for i in range(n)]]
    for _ in range(n):
        table.append(matmul(table[-1], N))
        if not any(any(row) for row in table[-1]):
            return table
    raise NotNilpotent("matrix is not nilpotent")


def monodromy_filtration(N, center: int = 0) -> list[tuple[int, list[list[Fraction]]]]:
    """The steps (k, leading-one rows) of W(N) centered at center, at its
    jumps, by the closed formula W(N)_k = sum_j N^j ker N^(k+2j+1)."""
    n = len(N)
    table = powers(N)
    m = len(table) - 1

    def kernel(e):
        if e <= 0:
            return []
        return span(nullspace(table[e], n)) if e < m else span(table[0])

    steps = []
    for k in range(-m, m + 1):
        rows = span([v for j in range(m + 1) for v in image(table[j], kernel(k + 2 * j + 1))])
        if rows and len(rows) > (len(steps[-1][1]) if steps else 0):
            steps.append((k + center, rows))
    return steps
