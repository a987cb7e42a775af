from decimal import Decimal
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracle as oracle
from hodgeheight import linalg
from hodgeheight.config import DEFAULT_TOL
from hodgeheight.errors import DimensionMismatch, HodgeError, NotNilpotent
from hodgeheight.linalg import (
    AdaptedBasis,
    ExactMatrix,
    Subspace,
    bch,
    check_nilpotent,
    echelonize,
    expm_nilpotent,
    intersect,
    logm_unipotent,
    nilpotent_powers,
    subspace_sum,
)


def contains_vector(S: Subspace, v, tol: float = DEFAULT_TOL) -> bool:
    """Whether the vector v lies in S, by Subspace.contains on its span."""
    return S.contains(Subspace.from_rows([list(v)], S.ambient_dim, tol), tol)


def complement_in(sub: Subspace, bigger: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """A complement of sub inside bigger: the echelon rows of bigger at the
    pivots sub lacks, exact when both are."""
    keep = [i for i, p in enumerate(bigger.pivots) if p not in set(sub.pivots)]
    if sub.is_exact() and bigger.is_exact():
        return Subspace.from_integer_rows([bigger.exact[i] for i in keep], bigger.ambient_dim)
    return Subspace.from_rows(bigger.basis[keep], bigger.ambient_dim, tol)


def test_echelonize_identity():
    S = echelonize(np.eye(3))
    assert S.dim == 3
    assert S.equals(Subspace.full(3))


def test_echelonize_proportional_rows():
    S = echelonize([[1, 2, 0], [2, 4, 0]])
    assert S.dim == 1


def test_echelonize_rank_by_construction():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    B = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    S = echelonize(A @ B)
    assert S.dim == 3


def test_echelonize_idempotent():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    S = echelonize(M)
    assert echelonize(S.basis).equals(S)


def test_exact_path_used_for_rational_input():
    S = echelonize([[1, 2], ["1/3", 0]])
    assert S.is_exact()
    assert S.exact == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_intersect_self_and_complementary_planes():
    A = echelonize([[1, 0, 0], [0, 1, 0]])
    B = echelonize([[0, 0, 1]])
    assert intersect(A, A).equals(A)
    assert intersect(A, B).dim == 0


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        intersect(echelonize([[1, 0]]), echelonize([[1, 0, 0]]))


def test_sum_with_zero_and_two_lines():
    A = echelonize([[1, 1, 0]])
    Z = Subspace.zero(3)
    assert subspace_sum(A, Z).equals(A)
    B = echelonize([[1, -1, 0]])
    assert subspace_sum(A, B).dim == 2


def test_sum_line_with_conjugate_line():
    rng = np.random.default_rng(11)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    L = echelonize([v])
    assert subspace_sum(L, L.conj()).dim == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_grassmann_identity(seed):
    rng = np.random.default_rng(seed)
    da, db = rng.integers(1, 5, size=2)
    A = echelonize(rng.normal(size=(da, 6)) + 1j * rng.normal(size=(da, 6)))
    B = echelonize(rng.normal(size=(db, 6)) + 1j * rng.normal(size=(db, 6)))
    assert subspace_sum(A, B).dim + intersect(A, B).dim == A.dim + B.dim


def test_conj_involution_and_distribution():
    rng = np.random.default_rng(7)
    A = echelonize(rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    B = echelonize(rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
    assert A.conj().conj().equals(A)
    assert intersect(A, B).conj().equals(intersect(A.conj(), B.conj()))


def test_exact_intersection_dimension_formula():
    A = echelonize([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    B = echelonize([[0, 1, 1, 0], [0, 0, 0, 1]])
    I = intersect(A, B)
    assert I.is_exact()
    assert I.dim == 1
    assert contains_vector(I, [0, 1, 1, 0])


def test_annihilator_and_preimage():
    S = echelonize([[1, 0, 1], [0, 1, 0]])
    ann = S.annihilator()
    assert ann.dim == 1
    N = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    P = S.preimage_under(N)
    # N v in S always lands in span(e2, e3); membership needs coords to satisfy phi
    for v in P.basis:
        assert contains_vector(S, N @ v)


def test_float_subspace_maps_without_a_fraction_scan(monkeypatch):
    # only an exact subspace can use Fraction rows of A, so a float subspace
    # never scans A; an integer-valued A and the non-integer A / 3 have the
    # same image and preimage
    rng = np.random.default_rng(17)
    S = echelonize(rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6)))
    A = rng.integers(-3, 4, size=(6, 6)).astype(float)
    scans = []
    scan = linalg.as_operator
    monkeypatch.setattr(linalg, "as_operator", lambda M: scans.append(M) or scan(M))
    image, preimage = S.image_under(A), S.preimage_under(A)
    assert image.equals(S.image_under(A / 3))
    assert preimage.equals(S.preimage_under(A / 3))
    assert not scans
    assert image.equals(echelonize(S.basis @ A.T))
    # A is invertible, so the preimage of S has the dimension of S
    assert np.linalg.matrix_rank(A) == 6 and preimage.dim == S.dim
    for v in preimage.basis:
        assert contains_vector(S, A @ v)


@pytest.mark.parametrize("M", [
    np.array([[1, 2, 0], [0, -3, 5]]),
    np.array([[1.0, 2.0, 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1.0, 2.0, 0.0], [0.0, -3.0, 5.0]], dtype=complex),
    np.array([[1.0, 2.5, 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1.0, 2.5, 0.0], [0.0, -3.0, 5.0]], dtype=complex),
    np.array([[1.0, 2.0 + 1j, 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1.0, 2.0 + 0.5j, 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1.0, np.inf, 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1.0, np.nan, 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1.0, complex(np.inf, 0.0), 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1.0, complex(2.0, np.nan), 0.0], [0.0, -3.0, 5.0]]),
    np.array([[1e300, -0.0, 2.0 ** 60], [0.0, 1.0, 0.0]]),
], ids=["int", "float", "complex", "half", "complex-half", "imag", "complex-frac",
        "inf", "nan", "complex-inf", "complex-nan", "huge"])
def test_from_rows_exact_verdict_matches_the_entry_scan(M):
    # the vectorized test on float and complex arrays decides exactness as
    # the per-entry scan of rational_rows does
    scanned = oracle.rational_rows([list(r) for r in M]) is not None
    assert linalg.integral_array(M.astype(complex)) == scanned
    assert Subspace.from_rows(M).is_exact() == scanned


def _spans(rows, step: Subspace) -> bool:
    return len(rows) == step.dim and step.contains(echelonize(rows, step.ambient_dim))


def test_adapted_basis_of_coordinate_steps_is_a_permutation():
    steps = [echelonize([[0, 0, 1, 0]]), echelonize([[0, 0, 1, 0], [1, 0, 0, 0]]),
             Subspace.full(4)]
    A = AdaptedBasis(steps)
    assert A.dims == (1, 2, 4)
    assert np.array_equal(np.abs(A.T), np.eye(4)[[2, 0, 1, 3]])
    assert np.array_equal(A.inverse, A.T.T)


def test_adapted_basis_of_an_exact_chain_is_exact():
    g = np.array([[1, 2, 0, -1], [0, 1, 1, 0], [2, 0, 1, 1], [0, -1, 0, 1]], dtype=float)
    steps = [echelonize(g[:1]), echelonize(g[:3]), Subspace.full(4)]
    A = AdaptedBasis(steps)
    one = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    product = oracle.matmul(oracle.fractions(A.exact), oracle.fractions(A.exact_inverse))
    assert product == one
    for d, step in zip(A.dims, steps):
        assert _spans(A.T[:d], step)
    # F cap W_k read off the flag, against the intersection, stays exact
    F = echelonize([[1, 0, 3, 0], [0, 1, -1, 2]])
    reduced = A.reduce(F)
    for step in steps:
        got = A.meet(reduced, step)
        assert got.is_exact() and got.equals(F.intersect(step))


def test_adapted_basis_when_float_pivots_do_not_nest():
    # the bottom step has its pivot at a 2e-9 entry, which the pivot
    # threshold of the step above (scaled by its entry 10) does not see
    low = Subspace.from_rows(np.array([[2e-9, 1, 0]], dtype=complex), 3)
    mid = Subspace.from_rows(np.array([[2e-9, 1, 0], [0, 0, 10]], dtype=complex), 3)
    assert mid.contains(low) and not set(low.pivots) <= set(mid.pivots)
    A = AdaptedBasis([low, mid, Subspace.full(3)])
    assert np.abs(A.T @ A.inverse - np.eye(3)).max() < 1e-12
    assert _spans(A.T[:1], low) and _spans(A.T[:2], mid)


def test_complement_in():
    big = Subspace.full(4)
    small = echelonize([[1, 0, 0, 0], [0, 0, 1, 0]])
    C = complement_in(small, big)
    assert C.dim == 2
    assert subspace_sum(C, small).dim == 4


def test_nilpotent_exp_log_roundtrip():
    N = np.zeros((4, 4))
    N[1, 0] = N[2, 1] = N[3, 2] = 1.0
    assert check_nilpotent(N) == 4
    G = expm_nilpotent(0.3j * N + N @ N)
    back = logm_unipotent(G)
    assert np.abs(back - (0.3j * N + N @ N)).max() < 1e-12
    with pytest.raises(NotNilpotent):
        check_nilpotent(np.eye(2))


def test_nilpotent_powers_stop_at_the_first_zero_power():
    N = [[Fraction(0)] * 3, [Fraction(1, 3), Fraction(0), Fraction(0)],
         [Fraction(2), Fraction(5), Fraction(0)]]
    table = nilpotent_powers(N)
    assert len(table) == 4 and check_nilpotent(N) == 3
    assert all(isinstance(P, ExactMatrix) for P in table)
    assert all(type(x) is int for P in table for row in P.num for x in row)
    assert oracle.fractions(table[2]) == [[0, 0, 0], [0, 0, 0], [Fraction(5, 3), 0, 0]]
    assert not any(any(row) for row in table[3].num)
    # the float table stops at the first power at most tol * scale^m
    Nf = np.array(N, dtype=complex)
    assert len(nilpotent_powers(Nf)) == 4
    assert np.allclose(nilpotent_powers(Nf)[2], np.array(table[2], dtype=complex))
    # exactly: 1e-12 on the diagonal is never zero; as a float it is zero at 1e-9
    tiny = [[Fraction(1, 10 ** 12), Fraction(0)], [Fraction(0), Fraction(0)]]
    with pytest.raises(NotNilpotent):
        nilpotent_powers(tiny)
    assert check_nilpotent(np.array(tiny, dtype=float)) == 1


# ---------------------------------------------------------------------------
# oracle: coordinates modulo a subspace read at pivots, which the library
# reads off the adapted basis of W as (v T^-1)[d_(k-1):d_k]


def quotient_coordinates(vectors, top: Subspace, sub: Subspace):
    """Coordinates of vectors of top modulo sub <= top, read at pivots.

    Reducing v against the echelon rows r_q of sub, v - sum_q v[q] r_q,
    clears it at sub's pivots q.  What is left lies in top, so it is the
    combination of top's echelon rows with its own entries at top's pivots.
    Its entries at the pivots of top that sub lacks are thus its coordinates
    modulo sub, in the basis of the rows of top at those pivots.  Fraction
    rows (a list) against an exact sub stay exact; anything else is read as
    a complex array.  sub = 0 gives a plain restriction to top.  Nothing
    checks that the vectors lie in top."""
    keep = [p for p in top.pivots if p not in set(sub.pivots)]
    if isinstance(vectors, list) and sub.is_exact():
        return [[v[p] - sum(v[q] * r[p] for r, q in zip(oracle.leading_one(sub), sub.pivots))
                 for p in keep] for v in vectors]
    V = np.array(vectors, dtype=complex)
    return (V - V[:, sub.pivots] @ sub.basis)[:, keep]


def test_quotient_coordinates_read_pivots_modulo_the_subspace():
    top = echelonize([[1, 0, 2, 0], [0, 1, 3, 0], [0, 0, 0, 1]])
    sub = echelonize([[0, 1, 3, 1]])
    assert top.contains(sub)
    # v = 2 r0 - r1 + 5 s with r_p the row of top at pivot p; modulo sub,
    # r1 = -r3, so v has coordinates (2, 1) against r0, r3
    v = [Fraction(x) for x in (2, 4, 16, 5)]
    keep = [p for p in top.pivots if p not in sub.pivots]
    exact = quotient_coordinates([v], top, sub)
    assert keep == [0, 3] and exact == [[2, 1]]
    assert all(type(x) is Fraction for x in exact[0])
    # the float read agrees, and sub = 0 is a plain restriction to top
    assert np.allclose(quotient_coordinates(np.array([v], dtype=float), top, sub), [[2, 1]])
    assert quotient_coordinates([v], top, Subspace.zero(4)) == [[2, 4, 5]]


@pytest.mark.parametrize("seed", range(8))
def test_adapted_basis_reads_the_quotient_coordinates(seed):
    # a random rational flag W_1 < ... < W_m = Q^n, not made of coordinate
    # subspaces: the coordinates of v in W_k modulo W_(k-1), against the rows
    # of W_k at the pivots W_(k-1) lacks, are (v T^-1)[d_(k-1):d_k]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    basis = rng.integers(-3, 4, size=(n, n)).astype(float)
    while abs(np.linalg.det(basis)) < 0.5:
        basis = rng.integers(-3, 4, size=(n, n)).astype(float)
    cuts = sorted(set(rng.integers(1, n, size=2).tolist())) + [n]
    steps = [echelonize(basis[:d]) for d in cuts]
    assert all(s.is_exact() for s in steps)
    flag = AdaptedBasis(steps)
    assert flag.dims == tuple(cuts)
    for k, (sub, top) in enumerate(zip([Subspace.zero(n), *steps], steps)):
        lo, hi = (0, *flag.dims)[k], flag.dims[k]
        assert np.allclose(flag.T[lo:hi], top.basis[[p not in sub.pivots for p in top.pivots]])
        v = rng.integers(-5, 6, size=top.dim) @ top.basis
        want = quotient_coordinates(np.array([v]), top, sub)[0]
        assert np.allclose((v @ flag.inverse)[lo:hi], want, atol=1e-12)


def test_conj_keeps_echelon_basis_and_pivots():
    rng = np.random.default_rng(11)
    S = echelonize(rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
    C = S.conj()
    assert np.array_equal(C.basis, np.conj(S.basis))
    assert C.pivots == S.pivots


_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _exact_pair(draw):
    """Two exact subspaces of Q^n (n <= 6): each is the zero space, the full
    space, or spanned by random rational rows; the second is often built from
    combinations of the first's generators, so that containment holds."""
    n = draw(st.integers(1, 6))
    row = st.lists(_fractions, min_size=n, max_size=n)

    def space(rows):
        kind = draw(st.sampled_from(["zero", "full", "rows", "rows"]))
        if kind == "zero":
            return Subspace.zero(n)
        if kind == "full":
            return Subspace.full(n)
        return Subspace.from_rows(rows, n)

    A = space(draw(st.lists(row, max_size=n)))
    gens = A.exact or [[Fraction(0)] * n]
    combos = [[sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0)) for j in range(n)]
              for coeffs in draw(st.lists(st.lists(_fractions, min_size=len(gens),
                                                   max_size=len(gens)), max_size=3))]
    B = space(combos + draw(st.lists(row, max_size=1)))
    return A, B


@settings(max_examples=100, deadline=None)
@given(_exact_pair())
def test_exact_contains_agrees_with_sum_dimension(pair):
    A, B = pair
    assert A.is_exact() and B.is_exact()
    assert A.contains(B) == (A.add(B).dim == A.dim)
    assert B.contains(A) == (B.add(A).dim == B.dim)


def _dense_rref(rows, n):
    """Gauss-Jordan over Fractions on every entry, no shortcuts."""
    M = [list(r) for r in rows]
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        p = M[r][c]
        M[r] = [x / p for x in M[r]]
        for k in range(len(M)):
            if k != r:
                f = M[k][c]
                M[k] = [a - f * b for a, b in zip(M[k], M[r])]
        r += 1
    return M[:r]


def _dense_null(rows, n):
    """Echelon basis of {v : row . v = 0 for every row}."""
    R = _dense_rref(rows, n)
    piv = [next(c for c in range(n) if row[c] != 0) for row in R]
    basis = []
    for f in (c for c in range(n) if c not in piv):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(R, piv):
            v[p] = -row[f]
        basis.append(v)
    return _dense_rref(basis, n)


def _dense_apply(A, v):
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A]


_sparse_fractions = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), _fractions)


@st.composite
def _exact_kernel_case(draw):
    """A sparse rational n x n matrix (possibly zero) and two exact subspaces
    of Q^n (each zero, full or spanned by sparse rational rows), n <= 6."""
    n = draw(st.integers(1, 6))
    row = st.lists(_sparse_fractions, min_size=n, max_size=n)
    if draw(st.booleans()) and draw(st.booleans()):
        A = [[Fraction(0)] * n for _ in range(n)]
    else:
        A = draw(st.lists(row, min_size=n, max_size=n))

    def space():
        kind = draw(st.sampled_from(["zero", "full", "rows", "rows"]))
        if kind == "zero":
            return Subspace.zero(n)
        if kind == "full":
            return Subspace.full(n)
        return Subspace.from_rows(draw(st.lists(row, max_size=n)), n)

    return n, A, space(), space()


@settings(max_examples=150, deadline=None)
@given(_exact_kernel_case())
def test_exact_kernel_matches_dense_reference(case):
    n, A, S, T = case
    image = S.image_under(A)
    assert image.is_exact()
    Sq, Tq = oracle.leading_one(S), oracle.leading_one(T)
    assert oracle.leading_one(image) == _dense_rref([_dense_apply(A, v) for v in Sq], n)
    ann = _dense_null(Sq, n)
    pre = S.preimage_under(A)
    assert pre.is_exact()
    want = _dense_null([_dense_apply(list(zip(*A)), phi) for phi in ann], n) if ann \
        else _dense_rref(oracle.leading_one(Subspace.full(n)), n)
    assert oracle.leading_one(pre) == want
    both = S.intersect(T)
    assert both.is_exact()
    assert oracle.leading_one(both) == _dense_null(_dense_null(Sq, n) + _dense_null(Tq, n), n)


# ---------------------------------------------------------------------------
# the int kernels against the Fraction kernel they replaced (fraction_oracle)


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
_sparse_rationals = st.one_of(st.just(Fraction(0)), _rationals)


@st.composite
def _rational_case(draw):
    """n <= 8: generators of two subspaces S and T, a rational operator A,
    a nilpotent rational N (strictly lower triangular, then permuted) and a
    chain cut from the rows of an invertible rational g, all with
    denominators up to 6 and many zero entries."""
    n = draw(st.integers(1, 8))
    row = st.lists(_sparse_rationals, min_size=n, max_size=n)
    S, T = draw(st.lists(row, max_size=n)), draw(st.lists(row, max_size=n))
    A = draw(st.lists(row, min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    N = [[A[perm[i]][perm[j]] if perm[i] > perm[j] else Fraction(0) for j in range(n)]
         for i in range(n)]
    g = draw(st.lists(row, min_size=n, max_size=n))
    if len(oracle.span(g)) < n:
        g = [[Fraction(int(i == j)) + x for j, x in enumerate(r)] for i, r in enumerate(N)]
    cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=3))) | {n})
    return n, S, T, A, N, [g[:d] for d in cuts]


def _assert_exact_as(S: Subspace, rows, n: int) -> None:
    """S is the exact subspace with the leading-one rows of the oracle: its
    int rows primitive with positive pivot entries, its float basis what
    complex() makes of the oracle's rows, bit for bit."""
    assert S.is_exact()
    assert oracle.leading_one(S) == rows
    assert S.pivots == oracle.rref(rows)[1]
    assert all(type(x) is int for row in S.exact for x in row)
    assert all(gcd(*row) == 1 and row[p] > 0 for row, p in zip(S.exact, S.pivots))
    assert S.basis.tobytes() == oracle.floats(rows, n).tobytes()


@settings(max_examples=80, deadline=None)
@given(_rational_case())
def test_exact_operations_match_the_fraction_oracle(case):
    n, S_gens, T_gens, A, N, chain = case
    S, T = Subspace.from_rows(S_gens, n), Subspace.from_rows(T_gens, n)
    Sq, Tq = oracle.span(S_gens), oracle.span(T_gens)
    _assert_exact_as(S, Sq, n)
    _assert_exact_as(T, Tq, n)
    _assert_exact_as(S.add(T), oracle.add(Sq, Tq), n)
    _assert_exact_as(S.intersect(T), oracle.intersect(Sq, Tq, n), n)
    assert S.contains(T) == oracle.contains(Sq, Tq)
    assert T.contains(S) == oracle.contains(Tq, Sq)
    _assert_exact_as(S.image_under(A), oracle.image(A, Sq), n)
    _assert_exact_as(S.preimage_under(A), oracle.preimage(A, Sq, n), n)
    _assert_exact_as(S.annihilator(), oracle.annihilator(Sq, n), n)
    _assert_exact_as(complement_in(S, S.add(T)),
                     oracle.complement_in(Sq, oracle.add(Sq, Tq)), n)
    rows, piv = linalg.right_echelon(S.exact)
    assert ([[Fraction(x, row[p]) for x in row] for row, p in zip(rows, piv)], piv) \
        == oracle.right_echelon(Sq)

    # the adapted basis of the chain, and N' on it
    steps = [Subspace.from_rows(gens, n) for gens in chain]
    flag = AdaptedBasis(steps)
    Tm, Tinv = oracle.adapted_basis(chain)
    assert oracle.fractions(flag.exact) == Tm
    assert oracle.fractions(flag.exact_inverse) == Tinv
    assert flag.T.tobytes() == oracle.floats(Tm, n).tobytes()
    assert flag.inverse.tobytes() == oracle.floats(Tinv, n).tobytes()
    Aq = linalg.as_operator(A)
    assert oracle.fractions(Aq) == A
    assert oracle.fractions(flag.operator(Aq)) == oracle.transpose(
        oracle.matmul(oracle.matmul(Tm, oracle.transpose(A)), Tinv))
    _assert_exact_as(flag.lift(S), oracle.span(oracle.matmul(Sq, Tm)), n)
    reduced = flag.reduce(S)
    rows, piv = reduced
    assert ([[Fraction(x, row[p]) for x in row] for row, p in zip(rows, piv)], piv) \
        == oracle.right_echelon(oracle.matmul(Sq, Tinv))
    for step, gens in zip(steps, chain):
        _assert_exact_as(flag.meet(reduced, step), oracle.intersect(Sq, oracle.span(gens), n), n)

    # power tables, and the verdict on a matrix that need not be nilpotent
    table = nilpotent_powers(N)
    assert [oracle.fractions(P) for P in table] == oracle.powers(N)
    assert np.array(table[1], dtype=complex).tobytes() == oracle.floats(N, n).tobytes()
    try:
        want = oracle.powers(A)
    except NotNilpotent:
        with pytest.raises(NotNilpotent):
            nilpotent_powers(A)
    else:
        assert [oracle.fractions(P) for P in nilpotent_powers(A)] == want


# ---------------------------------------------------------------------------
# the float echelon kernel against the numpy row loop it replaced


def reference_rref_float(M, tol=DEFAULT_TOL):
    """rref_float as a numpy row loop: the pivot is the first largest |entry|
    at or below row r (np.argmax), and each row is cleared by one array
    operation.  The oracle for the kernel's pivots and entries."""
    M = np.array(M, dtype=complex)
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return M, []
    scale = max(float(np.abs(M).max()), 1.0)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        i = r + int(np.argmax(np.abs(M[r:, c])))
        if abs(M[i, c]) <= tol * scale:
            continue
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = M[r] / M[r, c]
        for k in range(rows):
            if k != r and M[k, c] != 0:
                M[k] = M[k] - M[k, c] * M[r]
        pivots.append(c)
        r += 1
    return M[:r], pivots


_KERNEL_TOL = 1e-9


@st.composite
def _float_matrix(draw):
    """A 1-8 x 1-8 matrix scaled by 10^-12 .. 10^12: real, complex, Gaussian
    integer, a rank-deficient product, one whose last column lies 0.3 or 3
    pivot thresholds off the span of the others, or a sparse one with NaN,
    inf or overflowing entries."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["real", "complex", "integer", "product", "threshold",
                                 "nonfinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gauss(r, c):
        return rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))

    if kind == "real":
        M = rng.normal(size=(rows, cols)).astype(complex)
    elif kind == "integer":
        M = rng.integers(-3, 4, size=(rows, cols)) + 1j * rng.integers(-3, 4, size=(rows, cols))
    elif kind == "nonfinite":
        # half the entries zero, so rows with a zero factor meet non-finite
        # pivot rows
        M = gauss(rows, cols) * (rng.random((rows, cols)) < 0.5)
    elif kind == "product":
        k = int(rng.integers(1, min(rows, cols) + 1))
        M = gauss(rows, k) @ gauss(k, cols)
    elif kind == "threshold" and cols > 1:
        A = gauss(rows, cols - 1)
        M = np.hstack([A, A @ gauss(cols - 1, 1)])
    else:
        M = gauss(rows, cols)
    M = M * 10.0 ** draw(st.integers(-12, 12))
    if kind == "threshold" and cols > 1:
        bound = _KERNEL_TOL * max(float(np.abs(M).max()), 1.0)
        phases = np.exp(2j * np.pi * rng.random(rows)) / np.sqrt(rows)
        M[:, -1] += draw(st.sampled_from([0.3, 3.0])) * bound * phases
    if kind == "nonfinite":
        # finite parts whose modulus overflows: CPython's abs raises there
        values = [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(1.0, np.nan),
                  complex(1.5e308, -1.5e308)]
        for _ in range(draw(st.integers(1, 3))):
            M[rng.integers(rows), rng.integers(cols)] = values[rng.integers(len(values))]
    return M


def _assert_same_echelon(R, piv, M):
    """R, piv against the oracle on M: the same pivots, non-finite entries
    where the oracle has them, and, for a finite M, finite entries within
    1e-14 max(1, max |R_ref|) times the condition sigma_1 / sigma_r of M at
    its rank r: two eliminations that round differently differ by rounding
    amplified by that condition.  On a finite real M the arithmetic is the
    same (only complex products round differently), so the entries are
    equal."""
    want, want_piv = reference_rref_float(M, _KERNEL_TOL)
    assert piv == want_piv
    assert R.shape == want.shape
    if np.isfinite(M).all() and not M.imag.any():
        assert np.array_equal(R, want)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(R), finite)
    if not want_piv or not np.isfinite(M).all():
        # a NaN makes the threshold NaN, so every column takes a pivot, and
        # the finite entries left are rounding noise over rounding noise
        return
    sv = np.linalg.svd(M, compute_uv=False)
    cond = sv[0] / sv[len(want_piv) - 1] if np.isfinite(sv).all() else 1.0
    scale = max(1.0, float(np.abs(want[finite]).max(initial=0.0)))
    assert (np.abs(R[finite] - want[finite]) <= 1e-14 * scale * max(cond, 1.0)).all()


@settings(max_examples=300, deadline=None)
@given(_float_matrix())
def test_rref_float_matches_the_numpy_row_loop(M):
    with np.errstate(all="ignore"):
        R, piv = linalg.rref_float(M, _KERNEL_TOL)
        _assert_same_echelon(R, piv, M)


@settings(max_examples=100, deadline=None)
@given(_float_matrix())
def test_from_rows_reads_an_array_as_its_list_of_rows(M):
    # the array goes straight to the kernel (or to Fractions, when integral),
    # the list through the per-entry scan: same verdict, same echelon basis
    with np.errstate(all="ignore"):
        for A in (M, M.real):
            S = Subspace.from_rows(A, tol=_KERNEL_TOL)
            L = Subspace.from_rows(A.tolist(), tol=_KERNEL_TOL)
            assert S.is_exact() == L.is_exact() == linalg.integral_array(A)
            assert S.pivots == L.pivots
            assert S.exact == L.exact
            assert np.array_equal(S.basis, L.basis, equal_nan=True)
            if not S.is_exact():
                _assert_same_echelon(S.basis, S.pivots, A)


@pytest.mark.parametrize("weights", [(0, -2, -4), (0, -2, -2, -4, -4, -6),
                                     (0, -2, -4, -4, -6, -8), (0, -4, -6)])
def test_bch_is_the_log_of_the_product(weights):
    # five factors that each lower a grading of length at most 8 by at least
    # 2: the nested commutators through four brackets are the whole series,
    # against the Mercator log of the product of the exponentials
    w = np.array(weights)
    rng = np.random.default_rng(len(w) - w.min())
    lowering = w[:, None] <= w - 2
    for _ in range(5):
        xs = [np.where(lowering, rng.normal(size=lowering.shape)
                       + 1j * rng.normal(size=lowering.shape), 0) for _ in range(5)]
        product = np.eye(len(w), dtype=complex)
        for x in xs:
            product = product @ expm_nilpotent(x)
        want = logm_unipotent(product)
        assert np.abs(bch(xs) - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_bch_needs_a_length_of_at_most_eight():
    # on a grading of length 10 the five-bracket terms survive, and the
    # series stops short of the log
    w = np.arange(0, -12, -2)
    rng = np.random.default_rng(10)
    lowering = w[:, None] <= w - 2
    xs = [np.where(lowering, rng.normal(size=lowering.shape), 0) for _ in range(5)]
    product = np.eye(len(w))
    for x in xs:
        product = product @ expm_nilpotent(x)
    assert np.abs(bch(xs) - logm_unipotent(product)).max() > 1e-3


@pytest.mark.parametrize("x, want", [
    (3, 3), (-2, -2), (3.0, 3), ("7", 7), ("-6", -6), (Fraction(4, 2), 2),
    (np.int64(5), 5), (np.float64(-4.0), -4), (Decimal("3"), 3)])
def test_integer_reads_an_integer_of_any_type(x, want):
    got = linalg.integer(x, "field")
    assert got == want and type(got) is int


@pytest.mark.parametrize("x", [
    Fraction(5, 2), Fraction(-1, 3), 2.5, -3.7, float("nan"), float("inf"), True, False,
    complex(2, 0), np.float64(0.5), Decimal("2.5")])
def test_integer_refuses_a_value_that_is_not_an_integer(x):
    with pytest.raises(HodgeError) as exc:
        linalg.integer(x, "field")
    assert str(exc.value) == f"field must be an integer, got {x!r}"


def test_a_full_space_contains_every_space_with_no_row_reduction(monkeypatch):
    # the answer that the reduction gave, True, for exact and float operands
    rng = np.random.default_rng(41)
    n = 4
    operands = [Subspace.from_rows(rng.integers(-3, 4, size=(2, n)), n),
                Subspace.from_rows(rng.normal(size=(3, n)), n), Subspace.zero(n)]
    fulls = [Subspace.full(n), Subspace.from_rows(rng.normal(size=(n, n)), n)]
    want = [[S.add(T).dim == S.dim for T in operands] for S in fulls]
    calls = []
    for name in ("rref_float", "rref_exact"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, f=original, **k: calls.append(a) or f(*a, **k))
    assert [[S.contains(T) for T in operands] for S in fulls] == want == [[True] * 3] * 2
    assert calls == []


def test_an_adapted_basis_lifts_an_exact_full_step_to_the_full_space(monkeypatch):
    rng = np.random.default_rng(43)
    for _ in range(5):
        g = np.eye(4) + np.triu(rng.integers(-2, 3, size=(4, 4)), 1)
        flag = AdaptedBasis([Subspace.from_rows(g[:k], 4) for k in (1, 3, 4)])
        # the rows c T of the unit rows c, reduced, as the lift reduced them
        want = Subspace.from_integer_rows([list(r) for r in flag.exact.num], 4)
        calls = []
        monkeypatch.setattr(linalg, "rref_exact",
                            lambda *a, f=linalg.rref_exact: calls.append(a) or f(*a))
        got = flag.lift(Subspace.full(4))
        monkeypatch.undo()
        assert calls == [] and got.is_exact() and got.exact == want.exact
        assert got.pivots == want.pivots and np.array_equal(got.basis, want.basis)
