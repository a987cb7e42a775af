import functools
import re
import sys

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from hodgeheight.config import DEFAULT_TOL
from hodgeheight.errors import (
    ConstructionFailed,
    DoesNotExist,
    MalformedFiltration,
    NotAnMHS,
    NotNilpotent,
    NotOriented,
)
from hodgeheight.height import OrientedMHS, height
from hodgeheight.limits import (
    NilpotentOrbit,
    _grades,
    _initial_w_grading,
    _steps_to_filtration,
    deligne_system_grading,
    limit_height,
    limit_mhs,
    monodromy_weight_filtration,
    moved_fiber,
    random_deligne_system,
    relative_weight_filtration,
)
from hodgeheight.linalg import (
    ExactMatrix,
    Frame,
    Subspace,
    as_operator,
    check_nilpotent,
    expm_nilpotent,
    maxabs,
    nullspace_float,
)
from hodgeheight.mhs import is_hodge_tate, lowers, split_filtration, weight_filtration
from hodgeheight.scenarios import cubic_orbit
from hodgeheight.splitting import deligne_delta
from hodgeheight.variations import dilog_variation, fiber, height_sweep
from fixtures import hodge_tate_orbits, mp_hodge_tate_height
from fraction_oracle import (
    fractions,
    inverse,
    leading_one,
    matmul,
    monodromy_filtration,
    rational_rows,
    rref,
    transpose,
)
from test_linalg import contains_vector

TOL = 1e-9


def _eigenspaces_of(Y, tol=TOL):
    """The eigenspaces of Y, as deligne_system_grading computes them."""
    from hodgeheight import limits

    Y = np.asarray(Y, dtype=complex)
    evs = sorted({int(round(x.real)) for x in np.linalg.eigvals(Y)})
    return limits._eigenspaces(Y, evs, tol).values()


def shift_matrix(n):
    N = np.zeros((n, n))
    for i in range(n - 1):
        N[i + 1, i] = 1.0
    return N


def test_monodromy_filtration_of_zero():
    filt = monodromy_weight_filtration(np.zeros((3, 3)), center=-2)
    assert filt.indices == [-2]
    assert filt.at(-2).dim == 3


def test_monodromy_filtration_jordan_two():
    N = np.zeros((2, 2))
    N[1, 0] = 1.0
    filt = monodromy_weight_filtration(N, center=-3)
    assert filt.indices == [-4, -2]
    assert contains_vector(filt.at(-4), [0, 1])
    assert filt.at(-4).dim == 1


def test_monodromy_filtration_not_nilpotent():
    with pytest.raises(NotNilpotent):
        monodromy_weight_filtration(np.eye(2))


def test_monodromy_filtration_random_nilpotent_axioms(rng):
    # brute-force rank checks happen inside; exercising a few shapes
    for _ in range(10):
        n = 5
        g = np.eye(n) + np.triu(rng.integers(-2, 3, size=(n, n)), 1)
        blocks = np.zeros((n, n))
        sizes = [3, 2]
        idx = 0
        for s in sizes:
            blocks[idx + 1:idx + s, idx:idx + s - 1] += np.eye(s - 1)
            idx += s
        N = np.linalg.inv(g) @ blocks @ g
        filt = monodromy_weight_filtration(N, center=0)
        assert filt.at(max(filt.indices)).dim == n


def test_exact_input_nilpotent_only_at_tolerance_raises():
    # N^1 is below the tolerance but not zero: the power table must not read
    # it as zero, so both filtrations refuse the input as not nilpotent
    N = [[Fraction(1, 10 ** 12), 0], [0, 0]]
    W = weight_filtration([(-2, Subspace.from_rows([[0, 1]], 2)), (0, Subspace.full(2))], 2)
    with pytest.raises(NotNilpotent):
        monodromy_weight_filtration(N)
    with pytest.raises(NotNilpotent):
        relative_weight_filtration(N, W)


def test_monodromy_exact_arithmetic_path():
    N = [[0, 0], [Fraction(1, 3), 0]]
    filt = monodromy_weight_filtration(N, center=0)
    assert filt.indices == [-1, 1]
    assert filt.at(-1).is_exact()


def test_relative_filtration_trivial_cases():
    n = 3
    W = weight_filtration([
        (-2, Subspace.from_rows([[0, 0, 1]], n)),
        (0, Subspace.full(n)),
    ], n)
    M = relative_weight_filtration(np.zeros((n, n)), W)
    assert M.indices == W.indices
    for k in W.indices:
        assert M.at(k).equals(W.at(k))


def test_relative_filtration_hodge_tate_case():
    # N strictly lowers W: the relative filtration equals W
    n = 3
    N = np.zeros((n, n))
    N[2, 1] = 1.0
    W = weight_filtration([
        (-4, Subspace.from_rows([[0, 0, 1]], n)),
        (-2, Subspace.from_rows([[0, 1, 0], [0, 0, 1]], n)),
        (0, Subspace.full(n)),
    ], n)
    M = relative_weight_filtration(N, W)
    assert M.indices == W.indices
    for k in W.indices:
        assert M.at(k).equals(W.at(k))


def test_relative_filtration_cubic_orbit():
    orbit, _ = cubic_orbit()
    M = relative_weight_filtration(orbit.N, orbit.W)
    assert M.indices == [-6, -4, -2, 0]
    assert contains_vector(M.at(-6), [0, 0, 0, 1])
    assert M.at(-4).dim == 2
    assert M.at(-2).dim == 3


def test_relative_filtration_nonexistence():
    # N maps the pure weight-0 plane onto the weight -1 line *and* has a
    # graded action forcing incompatible centered filtrations
    n = 2
    W = weight_filtration([
        (-1, Subspace.from_rows([[0, 1]], n)),
        (0, Subspace.full(n)),
    ], n)
    N = np.zeros((n, n))
    N[1, 0] = 1.0
    # graded pieces have rank one with trivial induced maps, so M = W must
    # work unless the cross term breaks it; here it does not exist because
    # N W_0 must land in M_{-2} = 0
    with pytest.raises(DoesNotExist):
        relative_weight_filtration(N, W)


# Admissible inputs on which a restriction of N that solves for the transpose
# of its matrix raises DoesNotExist.  Each pins M three ways.

E3 = np.eye(3)


# (N, W, M) with W and M as spanning rows per index
PINNED_RELATIVE = [
    # Q(0) plus a weight -2 Jordan block e1 -> e2
    (np.array([[0.0, 0, 0], [0, 0, 0], [0, 1, 0]]),
     {-2: E3[[1, 2]], 0: E3},
     {-3: E3[[2]], -1: E3[[1, 2]], 0: E3}),
    # from _non_admissible_candidate (rng 777): e0 + e1 -> e2 inside W_{-2}
    (np.array([[0.0, 0, 0], [0, 0, 0], [-1, 2, 0]]),
     {-2: np.array([[1.0, 1, 0], [0, 0, 1]]), -1: E3},
     {-3: E3[[2]], -1: E3}),
]


def _rank(*blocks):
    rows = [b for b in blocks if len(b)]
    return int(np.linalg.matrix_rank(np.vstack(rows), tol=1e-9)) if rows else 0


def _meet(a, b):
    """Rows spanning the intersection of the row spaces of a and b (both of
    full row rank): x a = y b for (x, y) in the null space of [a; -b]^T."""
    if not len(a) or not len(b):
        return np.zeros((0, a.shape[1]))
    _, sv, vh = np.linalg.svd(np.vstack([a, -b]).T)
    rank = int((sv > 1e-9).sum())
    return vh[rank:].conj()[:, :len(a)] @ a


def _dense_axioms_hold(N, W, M, n):
    """Both axioms of M = M(N, W) by dense numpy ranks: N M_j <= M_(j-2), and
    on each Gr^W_k, with A_j = M_j cap W_k + W_(k-1), N^l induces an
    isomorphism A_(k+l) / A_(k+l-1) -> A_(k-l) / A_(k-l-1).  W and M map
    indices to spanning rows and are step functions."""
    def at(F, j):
        keys = [k for k in F if k <= j]
        return F[max(keys)] if keys else np.zeros((0, n))

    for j in range(min(M), max(M) + 3):
        if _rank(at(M, j - 2), at(M, j) @ N.T) != _rank(at(M, j - 2)):
            return False
    for k in W:
        Wk, Wk1 = at(W, k), at(W, k - 1)

        def A(j):
            return np.vstack([_meet(at(M, j), Wk), Wk1])

        for l in range(2 * n + 1):
            gr_hi = _rank(A(k + l)) - _rank(A(k + l - 1))
            gr_lo = _rank(A(k - l)) - _rank(A(k - l - 1))
            Nl = np.linalg.matrix_power(N, l)
            pushed = _rank(A(k + l) @ Nl.T, A(k - l - 1)) - _rank(A(k - l - 1))
            if not gr_hi == gr_lo == pushed:
                return False
    return True


@pytest.mark.parametrize("N, W_rows, M_rows", PINNED_RELATIVE,
                         ids=["jordan-block-in-w-2", "non-admissible-candidate-777"])
def test_pinned_relative_filtration_exists(N, W_rows, M_rows):
    W = weight_filtration([(k, Subspace.from_rows(r, 3)) for k, r in W_rows.items()], 3)
    want = {k: Subspace.from_rows(r, 3) for k, r in M_rows.items()}
    # integer N: the exact path, every step exact and equal
    got = relative_weight_filtration(N, W)
    assert got.indices == sorted(want)
    for k, space in want.items():
        assert got.at(k).is_exact() and got.at(k).exact == space.exact, k
    # N / 3: the float path, equal at the tolerance
    got_float = relative_weight_filtration(N / 3, W)
    assert got_float.indices == sorted(want)
    for k, space in want.items():
        assert got_float.at(k).equals(space, TOL), k
    # both axioms by dense ranks, independently of the subspace arithmetic
    M_dense = {k: got.at(k).basis.real for k in got.indices}
    assert _dense_axioms_hold(N, W_rows, M_dense, 3)
    assert _dense_axioms_hold(N / 3, W_rows, M_dense, 3)
    # and the rank check has teeth: a wrong bottom step fails it
    assert not _dense_axioms_hold(N, W_rows, {**M_dense, -3: E3[[0]]}, 3)


def test_deligne_system_trivial_graded_action():
    n = 3
    N = np.zeros((n, n))
    N[1, 0] = 1.0
    W = weight_filtration([
        (-4, Subspace.from_rows([[0, 0, 1]], n)),
        (-2, Subspace.from_rows([[0, 1, 0], [0, 0, 1]], n)),
        (0, Subspace.full(n)),
    ], n)
    Y = np.diag([0.0, -2.0, -4.0])
    ds = deligne_system_grading(W, N, Y)
    assert maxabs(ds.Yprime - Y) < 1e-12
    assert maxabs(ds.sl2[0]) < 1e-12  # N0 = 0
    assert maxabs(ds.sl2[1]) < 1e-12  # H = 0


def test_deligne_system_cubic_orbit_grading():
    orbit, _ = cubic_orbit()
    Y = np.diag([0.0, -2.0, -4.0, -6.0])
    ds = deligne_system_grading(orbit.W, orbit.N, Y)
    assert np.allclose(np.diag(ds.Yprime).real, [0, -3, -3, -6])
    assert ds.residual < 1e-12
    assert sorted(ds.N_components) == [0, 3]


def test_deligne_system_equivariance(rng):
    for _ in range(6):
        W, N, Y = random_deligne_system(rng)
        ds = deligne_system_grading(W, N, Y)
        lam = complex(rng.normal(), rng.normal())
        ds2 = deligne_system_grading(W, N, Y + 2 * lam * N)
        G = expm_nilpotent(lam * N)
        assert maxabs(ds2.Yprime - G @ ds.Yprime @ np.linalg.inv(G)) < 1e-10
    # real |lam| <= 3: the entries of Ad(exp(lam N)) Y' grow like |lam|^m,
    # so the bound is relative to them
    for _ in range(100):
        W, N, Y = random_deligne_system(rng)
        ds = deligne_system_grading(W, N, Y)
        lam = rng.uniform(-3, 3)
        ds2 = deligne_system_grading(W, N, Y + 2 * lam * N)
        G = expm_nilpotent(lam * N)
        expected = G @ ds.Yprime @ np.linalg.inv(G)
        assert maxabs(ds2.Yprime - expected) < 1e-10 * max(maxabs(expected), 1.0)


# Valid inputs (W, N, Y + 2 lam N) at a large lam: draws 47, 89 and 180 of
# random_deligne_system with rng seed 11, each followed by the draws lam1 =
# normal(), lam2 = complex(normal(), normal()), lam3 = 10 normal(), at lam =
# lam3.  Solved in the coordinates of the initial frame, where Y is diagonal,
# the three match the moved grading to 3.9e-11, 3.6e-8 and 1.2e-8 relative,
# with residuals 2.2e-12, 1.1e-9 and 1.2e-10; solved in the caller's
# coordinates, draw 180 raised ConstructionFailed.  N and Y are rounded to the
# integers they approximate (draw 47 within 1.2e-16).  W maps each weight
# below the top to spanning rows; W at the top weight is everything.
PINNED_LARGE_LAMBDA = [
    ({-3: [[0, 0, 1, -1, 0, -1]],
      -1: [[2, 0, 0, -1, 0, 1], [0, 0, 1, -1, 0, -1]],
      0: [[4, 0, 0, 0, 1, 0], [0, 0, 2, 0, 1, 0], [0, 0, 0, 2, 1, 0], [0, 0, 0, 0, 0, 1]],
      1: [[4, 0, 0, 0, 1, 0], [0, 2, 0, 0, -3, 0], [0, 0, 2, 0, 1, 0], [0, 0, 0, 2, 1, 0],
          [0, 0, 0, 0, 0, 1]]}, 3,
     [[0, -2, 0, 0, 0, 0], [1, -6, 2, 2, -4, 0], [0, 4, -1, -1, 2, 0], [-1, 3, -1, -1, 2, 0],
      [-2, 12, -4, -4, 8, 0], [1, -9, 3, 3, -5, 0]],
     [[3, -24, 8, 8, -16, 0], [0, 1, 0, 0, 0, 0], [0, 10, -1, 2, 4, 0], [0, -4, 0, -3, 0, 0],
      [0, 0, 0, 0, 1, 0], [8, -56, 16, 14, -36, -1]],
     -10.77761468547893),
    ({-2: [[3, 0, 0, 2, -1, 1], [0, 3, 0, -1, -1, -2]],
      -1: [[5, 0, 0, 0, -1, 1], [0, 5, 0, 0, -2, -3], [0, 0, 0, 5, -1, 1]],
      1: [[5, 0, 0, 0, -1, 1], [0, 5, 0, 0, -2, -3], [0, 0, 5, 0, -2, -8], [0, 0, 0, 5, -1, 1]],
      3: [[2, 0, 0, 0, 0, -1], [0, 1, 0, 0, 0, -2], [0, 0, 1, 0, 0, -3], [0, 0, 0, 2, 0, -1],
          [0, 0, 0, 0, 2, -7]]}, 5,
     [[-2, -8, -13, -2, -13, -4], [1, 2, 2, 1, 4, 0], [0, 1, 2, 0, 1, 1],
      [-2, -6, -7, -2, -11, -2], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]],
     [[5, 16, 20, 6, 36, 2], [0, 3, 4, 0, 2, 6], [0, 0, 1, 0, 0, 0], [0, -8, -12, -1, -6, -10],
      [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 2, -3]],
     31.466547522276038),
    ({-1: [[2, 0, 0, 0, 1, -1]],
      0: [[2, 0, 0, 0, 1, -1], [0, 1, 0, 0, 4, -3], [0, 0, 4, 0, -5, 1]],
      1: [[2, 0, 0, 0, 0, -1], [0, 1, 0, 0, 0, -3], [0, 0, 4, 0, 0, 1], [0, 0, 0, 0, 1, 0]],
      3: [[2, 0, 0, 0, 0, -1], [0, 1, 0, 0, 0, -3], [0, 0, 4, 0, 0, 1], [0, 0, 0, 4, 0, -27],
          [0, 0, 0, 0, 1, 0]]}, 5,
     [[-9, -51, 2, -114, -2, -20], [5, 29, -2, 66, 0, 10], [4, 22, -1, 51, 0, 8],
      [-2, -12, 1, -27, 0, -4], [-9, -54, 4, -119, -1, -19], [4, 25, -2, 54, 1, 9]],
     [[1, 10, 0, 16, 0, 4], [0, -1, 0, -8, 0, 0], [-8, -52, 5, -118, 0, -16], [0, 0, 0, 3, 0, 0],
      [-16, -94, 8, -208, 1, -30], [0, 0, 0, 0, 0, -1]],
     -14.31702406309861),
]


@pytest.mark.parametrize("W_rows, top, N, Y, lam", PINNED_LARGE_LAMBDA,
                         ids=["rng11-draw47", "rng11-draw89", "rng11-draw180"])
def test_deligne_system_at_a_large_lambda_is_the_moved_grading(W_rows, top, N, Y, lam):
    n = len(N)
    W = weight_filtration([*((k, Subspace.from_rows(r, n)) for k, r in W_rows.items()),
                           (top, Subspace.full(n))], n)
    N, Y = np.array(N, dtype=float), np.array(Y, dtype=float)
    G = expm_nilpotent(lam * N)
    expected = G @ deligne_system_grading(W, N, Y).Yprime @ np.linalg.inv(G)
    ds = deligne_system_grading(W, N, Y + 2 * lam * N)
    assert ds.residual <= 1e-8
    assert maxabs(ds.Yprime - expected) < 1e3 * TOL * max(maxabs(expected), 1.0)


def test_deligne_system_bracket_identities(rng):
    for _ in range(20):
        W, N, Y = random_deligne_system(rng)
        ds = deligne_system_grading(W, N, Y)
        assert ds.residual < 1e-10
        N0, H, N0p = ds.sl2
        assert maxabs(sum(ds.N_components.values()) - N) < 1e-10
        assert maxabs(H @ N0 - N0 @ H + 2 * N0) < 1e-10
        assert maxabs(N0p @ N0 - N0 @ N0p - H) < 1e-10
        assert maxabs((N - N0) @ N0p - N0p @ (N - N0)) < 1e-10


def test_deligne_system_projectors_belong_to_the_final_grading():
    rng = np.random.default_rng(31)
    for _ in range(8):
        W, N, Y = random_deligne_system(rng)
        ds = deligne_system_grading(W, N, Y)
        n = W.ambient_dim
        assert set(ds.projectors) <= set(W.indices)
        assert maxabs(sum(ds.projectors.values()) - np.eye(n)) < 1e-10
        assert maxabs(sum(k * P for k, P in ds.projectors.items()) - ds.Yprime) < 1e-10
        with pytest.raises(TypeError):
            ds.projectors[0] = np.eye(n)
        P = next(iter(ds.projectors.values()))
        with pytest.raises(ValueError):
            P[0, 0] = 1.0


def test_limit_mhs_of_cubic_orbit_is_split_hodge_tate_like():
    orbit, _ = cubic_orbit()
    H = limit_mhs(orbit)
    B = H.bigrading()
    assert sorted(B.components) == [(-3, -3), (-2, -2), (-1, -1), (0, 0)]
    for (p, q), piece in B.components.items():
        assert maxabs(np.imag(piece.basis)) < 1e-14


def test_limit_mhs_dilog_orbit_is_hodge_tate():
    v = dilog_variation(10)
    orbit = NilpotentOrbit(v.W, v.nilpotents[0], v.F_inf)
    H = limit_mhs(orbit)
    assert H.W.indices == v.W.indices  # M = W for trivial graded action
    assert is_hodge_tate(H)


def test_limit_mhs_zero_monodromy():
    v = dilog_variation(10)
    orbit = NilpotentOrbit(v.W, np.zeros((3, 3)), v.F_inf)
    H = limit_mhs(orbit)
    assert H.W.indices == v.W.indices


def test_limit_height_cubic_orbit_zero_and_invariant(rng):
    orbit, orient = cubic_orbit()
    assert limit_height(orbit, orient) == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal())
        G = expm_nilpotent(lam * orbit.N)
        F2 = orbit.F_inf.map_spaces(lambda s: s.image_under(G))
        orbit2 = NilpotentOrbit(orbit.W, orbit.N, F2)
        assert limit_height(orbit2, orient) == pytest.approx(0.0, abs=1e-10)


def test_limit_height_reduces_to_height_when_graded_trivial(rng):
    # N trivial on the graded pieces: M = W and the limit height is the plain
    # height of the limit structure
    from hodgeheight.variations import random_hodge_tate

    v = random_hodge_tate((1, 2, 1), 1, seed=5)
    orbit = NilpotentOrbit(v.W, v.nilpotents[0], v.F_inf)
    lh = limit_height(orbit, v.orientation)
    h = height(OrientedMHS(limit_mhs(orbit), v.orientation))
    assert lh == pytest.approx(h, abs=1e-11)
    # and stays put under moving F by exp
    lam = 0.3 - 1.7j
    G = expm_nilpotent(lam * orbit.N)
    orbit2 = NilpotentOrbit(orbit.W, orbit.N,
                            orbit.F_inf.map_spaces(lambda s: s.image_under(G)))
    assert limit_height(orbit2, v.orientation) == pytest.approx(lh, abs=1e-10)


@pytest.mark.parametrize("ranks, seed", [((1, 2, 1), 5), ((1, 2, 2, 1), 3)])
def test_limit_height_under_a_rational_change_of_basis(ranks, seed):
    # F_inf moved by exp(0.7i E), with E the top-to-bottom block, has limit
    # height 0.7; a random rational change of basis g, as in
    # random_deligne_system, makes the projectors of Y' non-symmetric and
    # must leave the height as it is
    from hodgeheight.height import Orientation
    from hodgeheight.variations import random_hodge_tate

    v = random_hodge_tate(ranks, 1, seed=seed)
    n = v.W.ambient_dim
    E = np.zeros((n, n))
    E[n - 1, 0] = 1.0
    G = expm_nilpotent(0.7j * E)
    orbit = NilpotentOrbit(v.W, v.nilpotents[0], v.F_inf.map_spaces(lambda s: s.image_under(G)))
    assert limit_height(orbit, v.orientation) == pytest.approx(0.7, abs=1e-12)

    rng = np.random.default_rng(11)
    g = np.eye(n) + np.triu(rng.integers(-2, 3, size=(n, n)), 1)
    perm = rng.permutation(n)
    g = g[perm][:, perm]
    ginv = np.round(np.linalg.inv(g))
    assert np.array_equal(g @ ginv, np.eye(n))
    moved = NilpotentOrbit(orbit.W.map_spaces(lambda s: s.image_under(g)),
                           g @ orbit.N.real @ ginv,
                           orbit.F_inf.map_spaces(lambda s: s.image_under(g)))
    system = deligne_system_grading(moved.W, moved.N, limit_mhs(moved).bigrading().Y)
    assert max(maxabs(P - P.T) for P in system.projectors.values()) > 1
    orientation = Orientation.of(g @ v.orientation.top, g @ v.orientation.bottom)
    assert limit_height(moved, orientation) == pytest.approx(0.7, abs=1e-10)


def _biextension_orbits():
    """Biextension orbits with a (-1,-1) lowering morphism as N, and their
    generators; the limit height of each equals spec.ht."""
    from hodgeheight.biextension import build_biextension, random_spec
    from hodgeheight.splitting import lowering_morphisms

    rng = np.random.default_rng(5)
    for _ in range(6):
        spec = random_spec(rng, 4)
        om = build_biextension(spec)
        N = lowering_morphisms(om.mhs)[0]
        yield spec, NilpotentOrbit(om.mhs.W, N, om.mhs.F), om.orientation


def test_limit_height_checks_the_orientation_against_w():
    # the generators orient W as a fiber's do: a top generator inside
    # W_(max-1) and a bottom generator outside W_min raise NotOriented, as
    # height on the fiber does
    from hodgeheight.height import Orientation

    for spec, orbit, orient in _biextension_orbits():
        assert limit_height(orbit, orient) == pytest.approx(spec.ht, abs=1e-10)
        e1 = np.eye(orbit.dim)[1]
        for bad in (Orientation.of(e1, orient.bottom), Orientation.of(orient.top, e1)):
            with pytest.raises(NotOriented):
                limit_height(orbit, bad)
            with pytest.raises(NotOriented):
                height(OrientedMHS(orbit.fiber(1j), bad))


def test_limit_height_needs_even_end_weights():
    # W of weights -1 < 1 with rank-one ends, N e0 = e1: a rank-one piece
    # of odd weight is no Hodge structure, so these generators orient
    # nothing, and the check rejects them before the limit is built (which
    # would fail as NotAnMHS)
    from hodgeheight.height import Orientation
    from hodgeheight.mhs import hodge_filtration

    e = np.eye(2)
    W = weight_filtration([(-1, Subspace.from_rows([e[1]], 2)), (1, Subspace.full(2))], 2)
    F = hodge_filtration([(1, Subspace.from_rows([e[0]], 2)), (0, Subspace.full(2))], 2)
    N = np.zeros((2, 2))
    N[1, 0] = 1.0
    with pytest.raises(NotOriented, match="even"):
        limit_height(NilpotentOrbit(W, N, F), Orientation.of(e[0], e[1]))


def _limit_height_orbits():
    """(orbit, generators): the cubic orbit with F_inf moved by exp(lam N) at
    several lam, the biextension orbits, and each of them moved by an integer
    g in GL_n(Q) with an integer inverse."""
    from hodgeheight.height import Orientation

    cubic, orient = cubic_orbit()
    out = []
    for lam in (0.0, 0.4 - 1.1j, 2.5, -1.3 + 0.7j):
        G = expm_nilpotent(lam * cubic.N)
        out.append((NilpotentOrbit(cubic.W, cubic.N,
                                   cubic.F_inf.map_spaces(lambda s: s.image_under(G))), orient))
    out += [(orbit, orient) for _, orbit, orient in _biextension_orbits()]
    rng = np.random.default_rng(19)
    for orbit, orient in list(out):
        n = orbit.dim
        g = np.eye(n) + np.triu(rng.integers(-2, 3, size=(n, n)), 1)
        perm = rng.permutation(n)
        g = g[perm][:, perm]
        ginv = np.round(np.linalg.inv(g))
        assert np.array_equal(g @ ginv, np.eye(n))
        moved = NilpotentOrbit(orbit.W.map_spaces(lambda s: s.image_under(g)),
                               g @ orbit.N.real @ ginv,
                               orbit.F_inf.map_spaces(lambda s: s.image_under(g)))
        out.append((moved, Orientation.of(g @ orient.top, g @ orient.bottom)))
    return out


def test_limit_height_starts_from_the_weight_pieces_of_its_limit(monkeypatch):
    # limit_height hands the Y and the weight frame of the limit bigrading to
    # the one body of deligne_system_grading, once: when M is W that body
    # returns Y' = Y and the limit's weight projectors with no solve, else it
    # runs the corrected pass; its Y' and height are those of the public
    # function on the Y of that bigrading
    from hodgeheight import limits
    from hodgeheight.height import _deep_coefficient
    from hodgeheight.splitting import deligne_delta

    body, used, kinds, solves = limits._deligne_system, [], set(), []
    lstsq = np.linalg.lstsq

    def recorded(*args):
        used.append(body(*args))
        return used[-1]

    def counted(*args, **kwargs):
        solves.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(limits, "_deligne_system", recorded)
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    for orbit, orient in _limit_height_orbits():
        used.clear()
        solves.clear()
        got = limit_height(orbit, orient, TOL)
        H = limit_mhs(orbit, TOL)
        m_is_w = H.W is orbit.W
        kinds.add(m_is_w)
        (system,) = used
        Yprime = system.Yprime
        if m_is_w:
            B = H.bigrading(TOL)
            assert Yprime is B.Y and system.projectors is B.weight_projectors
            assert solves == []
        else:
            assert solves
        ref = deligne_system_grading(orbit.W, orbit.N, H.bigrading(TOL).Y, TOL)
        assert maxabs(Yprime - ref.Yprime) <= 1e-10 * max(maxabs(ref.Yprime), 1.0)
        want = _deep_coefficient(deligne_delta(H, TOL).delta, ref.projectors, orient, TOL)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
    assert kinds == {True, False}


def test_limit_height_computes_no_eigenspaces(monkeypatch):
    from hodgeheight import limits

    calls = []
    eigvals, eigenspaces = np.linalg.eigvals, limits._eigenspaces

    def counted_eigvals(*args, **kwargs):
        calls.append("eigvals")
        return eigvals(*args, **kwargs)

    def counted_eigenspaces(*args):
        calls.append("_eigenspaces")
        return eigenspaces(*args)

    orbits = _limit_height_orbits()
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(limits, "_eigenspaces", counted_eigenspaces)
    for orbit, orient in orbits:
        limit_height(orbit, orient, TOL)
    assert calls == []
    # the public function computes them, and the counters see it
    orbit, _ = orbits[0]
    deligne_system_grading(orbit.W, orbit.N, limit_mhs(orbit, TOL).bigrading(TOL).Y, TOL)
    assert calls == ["eigvals", "_eigenspaces"]


# ---------------------------------------------------------------------------
# orbit fibers: the fiber at i moved by a real g, or the literal lattice


def _literal(orbit, z):
    """The fiber at z on the literal route: F_inf moved by exp(zN), validated
    by its lattice."""
    return moved_fiber(orbit.W, orbit.F_inf, orbit.exp(z), "", TOL)


@pytest.mark.parametrize("z", [0.5j, 1j, 2j, 10j, 55j, 1000j, 1817j, 0.3 + 2j, -1.7 + 55j])
def test_an_orbit_fiber_is_its_fiber_at_i_moved_by_a_real_g(z):
    # the cubic limit is R-split, so exp(zN) F_inf = g exp(iN) F_inf with g =
    # exp(xN) y^(-Y/2) real and preserving W: the fiber's bigrading is the
    # moved one of the fiber at i, and agrees with the literal lattice up to
    # y = 1817, the last point where that lattice holds
    orbit, orient = cubic_orbit()
    H, L = orbit.fiber(z, TOL), _literal(orbit, z)
    assert isinstance(H._known, Frame) and L._known is None
    got, want = H.bigrading(TOL).weight_projectors, L.bigrading(TOL).weight_projectors
    assert got.keys() == want.keys()
    for k, P in want.items():
        assert maxabs(got[k] - P) <= 1e-12 * maxabs(P)
    delta = deligne_delta(L, TOL).delta
    assert maxabs(deligne_delta(H, TOL).delta - delta) <= 1e-12 * maxabs(delta)
    want_height = height(OrientedMHS(L, orient), TOL)
    assert height(OrientedMHS(H, orient), TOL) == pytest.approx(want_height, rel=1e-12)


def test_an_orbit_fiber_does_not_depend_on_the_fibers_asked_before():
    # the base point is fixed at i, so the order of the calls changes nothing
    first, second = cubic_orbit()[0], cubic_orbit()[0]
    first.fiber(1000j, TOL)
    a, b = (o.fiber(-1.7 + 10j, TOL).bigrading(TOL).frame for o in (first, second))
    assert np.array_equal(a.C, b.C) and np.array_equal(a.C_inv, b.C_inv)


# the biextension orbit of weights (0, -2, -4), middle ((-1, -1), 1), delta1 =
# 0.5, delta2 = -0.25 and limit height 0.75, with N its first lowering
# morphism; its limit is not R-split
BIEXTENSION_ORBIT = {
    "dimension": 3,
    "weight_filtration": [
        {"weight": -4, "basis": [["0", "0", "1"]]},
        {"weight": -2, "basis": [["0", "1", "0"], ["0", "0", "1"]]},
        {"weight": 0, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}],
    "f_infinity": [
        {"level": 0, "basis": [[[1, 0], [0, 0.5], [0.0625, 0.75]]]},
        {"level": -1, "basis": [[[1, 0], [0, 0], [-0.0625, 0.75]], [[0, 0], [1, 0], [0, -0.25]]]},
        {"level": -2, "basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                [[0, 0], [0, 0], [1, 0]]]}],
    "nilpotent": [["0", "0", "0"], ["-2", "0", "0"], ["0", "1", "0"]],
    "orientation": {"top": ["1", "0", "0"], "bottom": ["0", "0", "1"]}}


def _literal_route_orbits():
    """(name, orbit, orientation or None, points) of orbits with no base:
    the cubic with F_inf moved by exp(lam N), lam = 0.4 + 0.9i, whose limit
    is not R-split, and a pure weight-0 plane with N e0 = e1, whose limit
    has a rank-one piece of weight 1 and so raises."""
    from hodgeheight.mhs import split_filtration

    cubic, orient = cubic_orbit()
    G = expm_nilpotent((0.4 + 0.9j) * cubic.N)
    moved = NilpotentOrbit(cubic.W, cubic.N, cubic.F_inf.map_spaces(lambda s: s.image_under(G)))
    yield "cubic-lambda", moved, orient, (0.5j, 2j, 10j, 0.3 + 2j)
    plane = NilpotentOrbit(split_filtration([0, 0], True), np.array([[0.0, 0.0], [1.0, 0.0]]),
                           split_filtration([0, 0], False))
    with pytest.raises(NotAnMHS):
        limit_mhs(plane, TOL)
    yield "limit-raises", plane, None, (2j, 0.3 + 10j)


@pytest.mark.parametrize("name, orbit, orient, points", list(_literal_route_orbits()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_an_orbit_with_no_base_takes_the_literal_route(name, orbit, orient, points):
    for z in points:
        H, L = orbit.fiber(z, TOL), _literal(orbit, z)
        assert orbit._bases[TOL] is None and H._known is None and H._group is None
        got, want = H.bigrading(TOL).frame, L.bigrading(TOL).frame
        assert np.array_equal(got.C, want.C) and np.array_equal(got.C_inv, want.C_inv)
        assert np.array_equal(deligne_delta(H, TOL).delta, deligne_delta(L, TOL).delta)
        if orient is not None:
            assert height(OrientedMHS(H, orient), TOL) == height(OrientedMHS(L, orient), TOL)


def test_the_limit_is_built_once_per_orbit_and_tol(monkeypatch):
    # the fibers' base and limit_height read one limit (M, F_inf): one
    # relative weight filtration per orbit and tol; a limit that is none is
    # not kept, so it raises on every call, and its orbit has no base
    from hodgeheight import limits
    from hodgeheight.mhs import split_filtration
    from hodgeheight.scenarios import scenario_orbit6iii

    body, calls = limits._relative_from_operator, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return body(*args, **kwargs)

    monkeypatch.setattr(limits, "_relative_from_operator", counted)
    orbit, orient = cubic_orbit()
    orbit.fiber(2j, TOL)
    assert limit_height(orbit, orient, TOL) == 0.0
    assert len(calls) == 1 and limit_mhs(orbit, TOL) is limit_mhs(orbit, TOL)
    limit_mhs(orbit, 1e-8)
    assert len(calls) == 2
    scenario_orbit6iii(2j)
    assert len(calls) == 3
    plane = NilpotentOrbit(split_filtration([0, 0], True), np.array([[0.0, 0.0], [1.0, 0.0]]),
                           split_filtration([0, 0], False))
    for _ in range(2):
        with pytest.raises(NotAnMHS):
            limit_mhs(plane, TOL)
    plane.fiber(2j, TOL)
    assert len(calls) == 6 and plane._bases[TOL] is None and plane._limits == {}


def test_the_cubic_fiber_below_the_real_axis_takes_the_literal_route():
    # the base is decided at any z, since a Hodge-Tate one serves every z;
    # the cubic's is R-split, which serves only y > 0
    orbit, orient = cubic_orbit()
    for z in (-1j, -3 - 2j):
        H = orbit.fiber(z, TOL)
        assert H._known is None and H._group is None and len(orbit._bases[TOL]) == 3
        want = height(OrientedMHS(_literal(orbit, z), orient), TOL)
        assert height(OrientedMHS(H, orient), TOL) == want


def _cubic_variation_doc() -> dict:
    """The cubic orbit written as a variation document: its one N, no Gamma."""
    orbit, _ = cubic_orbit()
    return {"dimension": 4,
            "weight_filtration": [{"weight": k, "basis": [[str(int(x.real)) for x in row]
                                                          for row in S.basis]}
                                  for k, S in orbit.W.steps],
            "f_infinity": [{"level": p, "basis": [[[x.real, x.imag] for x in row] for row in S.basis]}
                           for p, S in orbit.F_inf.steps],
            "nilpotents": [[[str(int(x)) for x in row] for row in orbit.N.real]],
            "orientation": {"top": ["1", "0", "0", "0"], "bottom": ["0", "0", "0", "1"]}}


def test_a_based_fiber_moves_its_splitting_group_element_from_the_fiber_at_i(monkeypatch):
    # w_z = g w_i g^-1 for the real g that moves the fiber at i to z, so the
    # group element log sum_k conj(P_k) P_k is formed once per orbit and tol,
    # at i, however many fibers or sweep points follow; each fiber's frame
    # shares the degree masks of the frame at i
    from hodgeheight import splitting
    from hodgeheight.schemas import parse_variation
    from hodgeheight.variations import height_sweep

    body, calls = splitting._group_element, []

    def counted(B):
        calls.append(B)
        return body(B)

    monkeypatch.setattr(splitting, "_group_element", counted)
    counts = []
    for count in (5, 20):
        orbit, orient = cubic_orbit()
        calls.clear()
        for y in np.linspace(0.5, 55, count):
            assert height(OrientedMHS(orbit.fiber(0.3 + 1j * y, TOL), orient), TOL) == \
                pytest.approx(-(2 / 3) * y ** 3, rel=1e-12)
        H, (_, at_i, _) = orbit.fiber(10j, TOL), orbit._bases[TOL]
        assert H._group is not None and H.bigrading(TOL).frame.masks is at_i.masks
        v = parse_variation(_cubic_variation_doc(), TOL)
        rows = height_sweep(v, [([1j * y], [0.0]) for y in np.linspace(0.5, 55, count)], TOL)
        assert len(rows) == count
        counts.append(len(calls))
    assert counts == [2, 2]


def test_a_based_fiber_runs_the_splitting_verdict_on_its_moved_group_element(monkeypatch):
    # the fiber takes w_z on trust; deligne_delta verifies it at every point,
    # so a base w_i off by 1e-6 raises NoConvergence there, naming the residual
    from hodgeheight.errors import NoConvergence

    orbit, _ = cubic_orbit()
    orbit.fiber(1j, TOL)
    lim, at_i, w_i = orbit._bases[TOL]
    monkeypatch.setitem(orbit._bases, TOL, (lim, at_i, w_i + 1e-6))
    for z in (1j, 2j, 0.3 + 55j):
        H = orbit.fiber(z, TOL)
        assert H.validate(TOL).ok
        with pytest.raises(NoConvergence, match=r"splitting residual \S+ exceeds tolerance 1\.000e-09"):
            deligne_delta(H, TOL)


def test_cubic_fiber_heights_hold_far_out():
    # the moved splitting keeps -(2/3) y^3 to 1e-12 relative up to y = 1e6,
    # far past the literal lattice's frontier at y = 1818
    orbit, orient = cubic_orbit()
    for y in np.geomspace(0.5, 1e6, 15):
        for x in (0.0, -1.7):
            h = height(OrientedMHS(orbit.fiber(x + 1j * y, TOL), orient), TOL)
            assert h == pytest.approx(-(2 / 3) * y ** 3, rel=1e-12)


# ---------------------------------------------------------------------------
# Hodge-Tate orbits: N lowers W by two, so each fiber is the limit's period
# moved by exp(zN), read with the commutator series as a variation's fiber


@functools.cache
def _hodge_tate_orbits():
    return hodge_tate_orbits(seed=1, count=24)


def test_the_biextension_orbit_takes_its_period_route():
    # its fibers at these points are those of the literal lattice, whose
    # plain log of conj(P)^-1 P is still exact this close to the limit; far
    # out, where that lattice raised NotAnMHS, the height stays exactly 0.75,
    # as N is of type (-1, -1)
    from hodgeheight.schemas import parse_orbit

    orbit, orient = parse_orbit(BIEXTENSION_ORBIT)
    for z in (0.5j, 2j, 10j, -1.7 + 2j):
        H, L = orbit.fiber(z, TOL), _literal(orbit, z)
        assert len(orbit._bases[TOL]) == 2 and isinstance(H._known, tuple) and H._group is None
        assert len(H._known) == 2 and L._known is None
        delta = deligne_delta(L, TOL).delta
        assert maxabs(deligne_delta(H, TOL).delta - delta) <= 1e-14 * maxabs(delta)
        want = height(OrientedMHS(L, orient), TOL)
        assert abs(height(OrientedMHS(H, orient), TOL) - want) <= 1e-14 * abs(want)
    for y in (1e5, 1e6):
        assert height(OrientedMHS(orbit.fiber(1j * y, TOL), orient), TOL) == 0.75


@pytest.mark.parametrize("y", [30.0, 100.0, 1e3, 1e4, 1e5])
def test_a_hodge_tate_orbit_fiber_matches_the_oracle(y):
    # the literal lattice drifted from y ~ 30 and raised NotAnMHS from 1e4;
    # the period route keeps 2.2e-16 relative on these draws at every y, so
    # the height does not depend on x to 2e-14 up to y = 1e5
    for orbit, v, P_inf in _hodge_tate_orbits():
        want = mp_hodge_tate_height(v, [1j * y], [0j], P_inf=P_inf)
        for x in (0.0, 0.37, -2.1):
            got = height(OrientedMHS(orbit.fiber(complex(x, y), TOL), v.orientation), TOL)
            assert abs(got - want) <= 1e-14 * abs(want)


def test_a_hodge_tate_orbit_fiber_is_its_variation_fiber():
    # variations.fiber hands a one-N variation with Gamma = 0 to the orbit,
    # and a sweep reads L off the stacked moves: the same series, so the
    # same height
    for orbit, v, _ in _hodge_tate_orbits():
        points = [([complex(x, y)], [0j]) for y in (0.5, 30.0, 1e3, 1e5) for x in (0.0, 0.37, -2.1)]
        for (z, s), (_, swept) in zip(points, height_sweep(v, points, TOL)):
            want = height(OrientedMHS(orbit.fiber(z[0], TOL), v.orientation), TOL)
            assert height(OrientedMHS(fiber(v, z, s, TOL), v.orientation), TOL) == want
            assert abs(swept - want) <= 1e-14 * abs(want)


def test_a_hodge_tate_orbit_fiber_takes_no_plain_log(monkeypatch):
    # the limit's own period reads the plain log once, when the base of the
    # orbit, and of its variation's cone, is built; no fiber does
    import hodgeheight.mhs as mhs

    orbits = _hodge_tate_orbits()
    for orbit, v, _ in orbits:
        orbit.fiber(1j, TOL)
        fiber(v, [1j], [0j], TOL)

    def refuse(G):
        raise AssertionError("a fiber took the plain log of conj(P)^-1 P")

    monkeypatch.setattr(mhs, "logm_unipotent", refuse)
    for orbit, v, _ in orbits:
        for z in (0.5j, -3 + 2j, 0.37 + 1e4j, -2j):
            assert isinstance(orbit.fiber(z, TOL)._known, tuple)
            deligne_delta(orbit.fiber(z, TOL), TOL)
            height(OrientedMHS(fiber(v, [z], [0j], TOL), v.orientation), TOL)


# ---------------------------------------------------------------------------
# the relative weight filtration against its unwindowed construction

# The oracle restricts N by least squares on a float copy of N, independently
# of the pivot reads of the library.


def _as_subspace_matrix(N):
    """Float matrix plus an exact Fraction copy when the input is rational."""
    arr = np.asarray(N)
    exact = rational_rows(arr.tolist())
    if exact is None:
        return np.asarray(N, dtype=complex), None
    return np.array([[complex(x) for x in row] for row in exact]), exact


def _powers(Nmat, m):
    """The table N^0, ..., N^m: Fraction matrices when Nmat is one, else floats;
    on rational input N^m must be exactly zero."""
    if isinstance(Nmat, list):
        n = len(Nmat)
        out = [[[Fraction(int(i == k)) for k in range(n)] for i in range(n)]]
        for _ in range(m):
            P = out[-1]
            out.append([[sum(P[i][t] * Nmat[t][k] for t in range(n)) for k in range(n)]
                        for i in range(n)])
        if any(any(row) for row in out[-1]):
            raise NotNilpotent(f"N^{m} is zero at the working tolerance but not exactly")
        return out
    out = [np.eye(Nmat.shape[0], dtype=complex)]
    for _ in range(m):
        out.append(out[-1] @ Nmat)
    return out


def _on_quotient(Nmat, Nf, top, below, tol):
    """(A, lift): lift the rows of top at the pivots below lacks, and A the
    matrix of N on top / below in their classes, column i the coordinates of
    N lift_i, for N preserving top and below; in Fractions when N and both
    spaces are exact, else floats by least squares, whose residual is checked."""
    if isinstance(Nmat, list) and top.is_exact() and below.is_exact():
        low = rref(leading_one(below)) if below.dim else ([], [])
        lift, keep = zip(*((r, p) for r, p in zip(*rref(leading_one(top))) if p not in low[1]))
        cols = []
        for v in lift:
            w = [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in Nmat]
            # N v modulo below: zero at below's pivots, then read at top's others
            for r, q in zip(*low):
                w = [a - w[q] * b for a, b in zip(w, r)]
            cols.append([w[p] for p in keep])
        return transpose(cols), list(lift)
    lift = top.basis[[i for i, p in enumerate(top.pivots) if p not in set(below.pivots)]]
    span_top = np.vstack([lift, below.basis]).T if below.dim else lift.T
    moved = np.asarray(Nf, dtype=complex) @ lift.T
    x = np.linalg.lstsq(span_top, moved, rcond=None)[0]
    if maxabs(span_top @ x - moved) > 1e3 * tol * max(1.0, maxabs(Nf)):
        raise DoesNotExist("subspace is not stable under N")
    return x[:len(lift)], lift


def _centered_on_subspace(Nmat, Nf, space, center, n, tol):
    """The closed-formula monodromy filtration of N restricted to an N-stable
    subspace, centered at center, in ambient coordinates."""
    A, lift = _on_quotient(Nmat, Nf, space, Subspace.zero(n), tol)
    small = reference_monodromy_filtration(A, center, tol)
    if isinstance(A, list):
        return {k: Subspace.from_rows(matmul(leading_one(small.at(k)), lift), n)
                for k in small.indices}
    return {k: Subspace.from_rows(small.at(k).basis @ lift, n, tol) for k in small.indices}


def full_window_rec(Nmat, Nf, m, W, weights, n, tol):
    """The peeling recursion over every index in [min(M') - 2n - 2, k + n + 1],
    each entry recomputed, N^e applied as min(e, m) steps of N (N^m = 0); the
    bottom weight is the closed formula on W at that weight."""
    k_top = weights[-1]
    top_space = W.at(k_top)
    if len(weights) == 1:
        return _centered_on_subspace(Nmat, Nf, top_space, k_top, n, tol)
    Msub = full_window_rec(Nmat, Nf, m, W, weights[:-1], n, tol)
    lo = min(Msub) - 2 * n - 2
    hi = k_top + n + 1

    def msub_at(j):
        best = Subspace.zero(n)
        for idx in sorted(Msub):
            if idx <= j:
                best = Msub[idx]
        return best

    def under(op, S, e):
        for _ in range(min(e, m)):
            S = op(S, Nmat, tol)
        return S

    def below(j):
        """M_(k-j) = N^j M_(k+j) + M'_(k-j), with M_(k+j) zero where not yet known."""
        pushed = under(Subspace.image_under, M[k_top + j], j) if k_top + j in M \
            else Subspace.zero(n)
        return pushed.add(msub_at(k_top - j), tol)

    M = {}
    for j in range(hi - k_top, -1, -1):
        pre = under(Subspace.preimage_under, below(j + 2), j + 1)
        M[k_top + j] = pre.intersect(top_space, tol)
    for j in range(1, k_top - lo + 1):
        M[k_top - j] = below(j)
    return M


def full_range_check(M, Nmat, Nf, W, n, tol):
    """Both axioms, the graded one at every j in [k - 2n, k + 2n] against the
    closed formula on Gr^W_k."""
    for k in M.indices:
        if not M.at(k - 2).contains(M.at(k).image_under(Nmat, tol), tol):
            raise DoesNotExist("candidate filtration is not lowered by two under N")
    for k in W.indices:
        Wk, Wk1 = W.at(k), W.at(k - 1)
        if Wk.dim == Wk1.dim:
            continue
        ref = reference_monodromy_filtration(_on_quotient(Nmat, Nf, Wk, Wk1, tol)[0], k, tol)
        for j in range(k - 2 * n, k + 2 * n + 1):
            got = M.at(j).intersect(Wk, tol).add(Wk1, tol).dim - Wk1.dim
            if got != ref.at(j).dim:
                raise DoesNotExist("induced filtration differs from the monodromy filtration")


def reference_relative_weight_filtration(N, W, tol=TOL):
    Nf, exact = _as_subspace_matrix(N)
    n = W.ambient_dim
    m = check_nilpotent(Nf, tol)
    Nmat = exact if exact is not None else Nf
    for k in W.indices:
        if not W.at(k).contains(W.at(k).image_under(Nmat, tol), tol):
            raise DoesNotExist("N does not preserve the weight filtration")
    _powers(Nmat, m)   # on rational input N^m must be exactly zero
    steps = full_window_rec(Nmat, Nf, m, W, W.indices, n, tol)
    try:
        M = _steps_to_filtration(steps, n)
    except MalformedFiltration as exc:
        raise DoesNotExist(str(exc)) from exc
    full_range_check(M, Nmat, Nf, W, n, tol)
    return M


def _outcome(fn, N, W):
    try:
        return fn(N, W, TOL)
    except DoesNotExist:
        return None


def _assert_same_filtration(got, want, exact):
    """Same indices and steps.  With exact=True every step of got must be
    exact, and it equals the oracle's exactly where the oracle's step is
    exact; a float oracle step (least squares) is compared at TOL."""
    assert got.indices == want.indices
    for k in want.indices:
        if exact:
            assert got.at(k).is_exact(), k
        if exact and want.at(k).is_exact():
            assert got.at(k).exact == want.at(k).exact, k
        else:
            assert got.at(k).equals(want.at(k), TOL), k


def _non_admissible_candidate(rng):
    """W in coordinates and a nilpotent N preserving it (strictly lower in an
    order of decreasing weight), moved by a random unimodular change of
    basis; the relative filtration often does not exist."""
    n = int(rng.integers(2, 6))
    weights = sorted(rng.integers(-2, 3, size=n).tolist(), reverse=True)
    N = np.tril(rng.integers(-1, 2, size=(n, n)), -1).astype(float)
    N[rng.random((n, n)) < 0.4] = 0.0
    g = np.eye(n) + np.triu(rng.integers(-1, 2, size=(n, n)), 1)
    perm = rng.permutation(n)
    g = g[perm][:, perm]
    ginv = np.round(np.linalg.inv(g))
    W = weight_filtration(
        [(k, Subspace.from_rows([g[:, i] for i in range(n) if weights[i] <= k], n))
         for k in sorted(set(weights))], n)
    return np.round(g @ N @ ginv), W


def test_windowed_relative_filtration_matches_full_window_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        W, N, _ = random_deligne_system(rng)
        Nr = np.round(N)
        assert maxabs(N - Nr) < 1e-9
        # raw float N when it carries noise, and N / 3, which always takes the
        # float path (M does not change when N is scaled)
        for Nf in ((N, N / 3) if maxabs(N - Nr) else (N / 3,)):
            want = _outcome(reference_relative_weight_filtration, Nf, W)
            got = _outcome(relative_weight_filtration, Nf, W)
            assert (got is None) == (want is None)
            if want is not None:
                _assert_same_filtration(got, want, exact=False)
        # N rounded to the integers it stands for: the exact path
        want = reference_relative_weight_filtration(Nr, W)
        got = relative_weight_filtration(Nr, W)
        assert got.at(max(got.indices)).is_exact()
        _assert_same_filtration(got, want, exact=True)


def test_windowed_relative_filtration_fails_where_the_oracle_fails():
    rng = np.random.default_rng(777)
    failed = admissible = 0
    for _ in range(60):
        N, W = _non_admissible_candidate(rng)
        want = _outcome(reference_relative_weight_filtration, N, W)
        got = _outcome(relative_weight_filtration, N, W)
        if want is None:
            failed += 1
            assert got is None
        else:
            admissible += 1
            _assert_same_filtration(got, want, exact=True)
    assert failed >= 15 and admissible >= 15


def test_relative_filtration_preimages_stay_in_the_live_window(monkeypatch):
    orbit, _ = cubic_orbit()
    calls = []
    original = Subspace.preimage_under

    def counted(self, A, tol=DEFAULT_TOL):
        calls.append(1)
        return original(self, A, tol)

    monkeypatch.setattr(Subspace, "preimage_under", counted)
    M = relative_weight_filtration(orbit.N, orbit.W)
    m = check_nilpotent(orbit.N)
    assert M.indices == [-6, -4, -2, 0]
    assert 0 < len(calls) <= (m - 1) * (len(orbit.W.indices) - 1)


# ---------------------------------------------------------------------------
# the monodromy filtration against its closed formula, term by term


def reference_monodromy_filtration(N, center=0, tol=TOL):
    """W(N)_k = sum_j N^j (ker N^(k+2j+1)): in Fractions (fraction_oracle)
    when N is rational, else with ker N^e recomputed for every (k, j) and
    N^j applied as j chained images under N."""
    Nf, exact = _as_subspace_matrix(N)
    n = Nf.shape[0]
    if exact is not None:
        return weight_filtration([(k, Subspace.from_rows(rows, n))
                                  for k, rows in monodromy_filtration(exact, center)], n)
    m = check_nilpotent(Nf, tol)
    powers = _powers(Nf, m)

    def kernel_power(j):
        if j <= 0:
            return Subspace.zero(n)
        if j >= m:
            return Subspace.full(n)
        return Subspace.from_rows(nullspace_float(powers[j], tol), n, tol)

    def image_power(space, j):
        out = space
        for _ in range(j):
            out = out.image_under(Nf, tol)
        return out

    steps = []
    prev_dim = -1
    for k in range(-m, m + 1):
        total = Subspace.zero(n)
        for j in range(0, m + 1):
            total = total.add(image_power(kernel_power(k + 2 * j + 1), j), tol)
        if total.dim > prev_dim and total.dim > 0:
            steps.append((k + center, total))
            prev_dim = total.dim
    return weight_filtration(steps, n)


def _monodromy_cases():
    orbit, _ = cubic_orbit()
    yield orbit.N, 0
    yield orbit.N, -3
    rng = np.random.default_rng(2718)
    for _ in range(60):
        _, N, _ = random_deligne_system(rng)
        yield np.round(N), int(rng.integers(-2, 3))


def test_monodromy_filtration_matches_closed_formula_oracle():
    for N, center in _monodromy_cases():
        want = reference_monodromy_filtration(N, center)
        got = monodromy_weight_filtration(N, center)
        assert got.at(max(got.indices)).is_exact()
        _assert_same_filtration(got, want, exact=True)
        # N / 3 has the same filtration and takes the float path
        _assert_same_filtration(monodromy_weight_filtration(N / 3, center), want, exact=False)


def test_monodromy_filtration_computes_each_kernel_once(monkeypatch):
    # the kernels are the exact preimages of the recursion (Subspace.preimage_under)
    import hodgeheight.linalg as linalg_module

    calls = []
    original = linalg_module.nullspace_exact

    def counted(M, n):
        calls.append(M)
        return original(M, n)

    monkeypatch.setattr(linalg_module, "nullspace_exact", counted)
    for N, center in _monodromy_cases():
        calls.clear()
        monodromy_weight_filtration(N, center)
        m = check_nilpotent(N)
        # one preimage per exponent 1 .. m-1, none asked for twice
        assert len(calls) <= m - 1
        assert len({str(M) for M in calls}) == len(calls)


def test_relative_filtration_builds_no_float_basis_for_its_kernels(monkeypatch):
    # the kernels are the exact preimages of the recursion, which are only
    # summed, pushed and compared exactly, so their float bases are never
    # built: a Jordan block of size 2 at weight -1, under e0 at 2
    from hodgeheight import linalg
    from hodgeheight.mhs import split_filtration

    nullspace, from_integer_rows = linalg.nullspace_exact, Subspace.from_integer_rows
    kernel_rows, kernels = [], []

    def marked(M, n):
        kernel_rows.append(nullspace(M, n))
        return kernel_rows[-1]

    def recorded(rows, n):
        S = from_integer_rows(rows, n)
        if any(rows is r for r in kernel_rows):
            kernels.append(S)
        return S

    monkeypatch.setattr(linalg, "nullspace_exact", marked)
    monkeypatch.setattr(Subspace, "from_integer_rows", staticmethod(recorded))
    relative_weight_filtration(shift_matrix(3), split_filtration([2, -1, -1], True))
    assert kernels and all(S._basis is None for S in kernels)
    # a float basis read afterwards is built as the rows over their pivots
    S = kernels[0]
    assert S.basis.tobytes() == np.array(
        [[x / row[p] for x in row] for row, p in zip(S.exact, S.pivots)], dtype=complex).tobytes()


def test_eigenspaces_computed_once_per_deligne_system(monkeypatch):
    # the eigenspaces of Y are computed once, as one frame that the initial
    # pieces start from; each correction moves the frame's C and C^-1 by
    # exp(gamma) and exp(-gamma) (two expm_nilpotent calls) instead of
    # recomputing eigenspaces of Y' or inverting a moved C, so a system
    # inverts at most one matrix, however many corrections it takes.  The
    # systems are drawn up front (the generator inverts matrices too), and
    # run until one needs a correction
    from hodgeheight import limits

    rng = np.random.default_rng(5)
    systems = []
    for _ in range(24):
        # Y + 2 lam N grades M as well, and some of these need corrections
        W, N, Y = random_deligne_system(rng)
        W.adapted_basis()
        systems.append((W, N, Y + 2 * complex(rng.normal(), rng.normal()) * N))
    eigen, exps, inverses = [], [], []
    original, exp, inv = limits._eigenspaces, limits.expm_nilpotent, np.linalg.inv

    def counted_eigen(Y, levels, tol):
        eigen.append(levels)
        return original(Y, levels, tol)

    def counted_exp(A):
        exps.append(A.shape)
        return exp(A)

    def counted_inv(A):
        inverses.append(A.shape)
        return inv(A)

    monkeypatch.setattr(limits, "_eigenspaces", counted_eigen)
    monkeypatch.setattr(limits, "expm_nilpotent", counted_exp)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    for i, (W, N, Y) in enumerate(systems):
        inverses.clear()
        corrections = len(exps)
        ds = deligne_system_grading(W, N, Y)
        assert ds.residual < 1e-10
        assert len(eigen) == i + 1
        assert len(inverses) <= 1
        if len(exps) > corrections:
            assert (len(exps) - corrections) % 2 == 0
            break   # a correction moved the frame, so the moved frame is exercised
    else:
        pytest.fail("no drawn system needed a correction")


def test_deligne_system_is_y_itself_when_y_grades_w(monkeypatch):
    # when N lowers W by two, M = W, and Y grades W as does Y + 2 lam N =
    # Ad(exp(lam N)) Y; then Y' is the input itself (Cattani-Kaplan-Schmid),
    # with N of degree -2 and a zero sl2-triple, and nothing is solved
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    rng = np.random.default_rng(7)
    graded = 0
    for _ in range(40):
        W, N, Y = random_deligne_system(rng)
        lam = complex(rng.normal(), rng.normal())
        if relative_weight_filtration(N, W) is not W:
            continue
        for Yin in (Y, Y + 2 * lam * N):
            ds = deligne_system_grading(W, N, Yin)
            assert np.array_equal(ds.Yprime, Yin)
            assert not any(X.any() for X in ds.sl2)
            assert set(ds.N_components) <= {2} and ds.residual < 1e-12
            graded += 1
    assert calls == [] and graded >= 30


def test_grading_with_an_eigenvalue_between_jumps_is_not_a_grading_of_w():
    # the eigenspaces of Y = diag(0, 1, 2) span W_0 and W_2, but Y has the
    # eigenvalue 1, which is no weight of W, so it is not taken as Y'; with
    # N = 0 no grading of W completes to an sl2-triple with H = Y - Y'
    W = weight_filtration([(0, Subspace.from_rows([[1, 0, 0]], 3)), (2, Subspace.full(3))], 3)
    with pytest.raises(ConstructionFailed):
        deligne_system_grading(W, np.zeros((3, 3)), np.diag([0.0, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# the relative weight filtration in the coordinates of the flag of W


def _rational_gl(rng, n):
    """A random g in GL_n(Q) with denominators up to 3."""
    while True:
        g = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(n)]
             for _ in range(n)]
        if abs(np.linalg.det(np.array(g, dtype=float))) > 0.1:
            return g


def test_relative_filtration_is_equivariant_over_q():
    # M(g N g^-1, g W) = g M(N, W) for g in GL_n(Q), exactly and step by step
    rng = np.random.default_rng(606)
    for _ in range(25):
        W, N, _ = random_deligne_system(rng)
        n = W.ambient_dim
        Nq = rational_rows(np.round(N).tolist())
        g = _rational_gl(rng, n)
        moved = relative_weight_filtration(matmul(matmul(g, Nq), inverse(g)),
                                           W.map_spaces(lambda s: s.image_under(g)))
        want = relative_weight_filtration(Nq, W).map_spaces(lambda s: s.image_under(g))
        assert moved.indices == want.indices
        for k in want.indices:
            assert moved.at(k).is_exact() and moved.at(k).exact == want.at(k).exact, k


def test_relative_filtration_is_equivariant_under_an_irrational_real_g():
    # a real g with irrational entries moves W off Q, so T, N' and every
    # subspace operation take the float path; the oracle agrees with it
    rng = np.random.default_rng(607)
    tested = 0
    while tested < 25:
        W, N, _ = random_deligne_system(rng)
        n = W.ambient_dim
        g = np.eye(n) + np.sqrt(2) / 4 * rng.choice([-2, -1, 1, 2], size=(n, n))
        if len(W.indices) < 2 or np.linalg.cond(g) > 100:
            continue
        tested += 1
        gW = W.map_spaces(lambda s: s.image_under(g))
        assert not gW.adapted_basis().exact
        gN = g @ np.round(N) @ np.linalg.inv(g)
        moved = relative_weight_filtration(gN, gW)
        want = relative_weight_filtration(np.round(N), W).map_spaces(
            lambda s: s.image_under(g))
        _assert_same_filtration(moved, want, exact=False)
        _assert_same_filtration(moved, reference_relative_weight_filtration(gN, gW),
                                exact=False)


def _lowers_w_by_two(N, W):
    """Whether N' = N in the coordinates of W lowers W by two (mhs.lowers)."""
    return lowers(W, W.adapted_basis().operator(as_operator(N)), 2, TOL)


def test_relative_filtration_is_w_when_n_lowers_w_by_two():
    # N' lowering W by two is the first axiom of M(N, W), and N induces 0 on
    # each Gr^W_k: M is W itself, on the exact path and under an irrational
    # real g; a float N' with a graded block of 1e-3 takes the recursion
    rng = np.random.default_rng(614)
    exact = moved = 0
    while exact < 10 or moved < 10:
        W, N, _ = random_deligne_system(rng)
        N = np.round(N)
        if not _lowers_w_by_two(N, W):
            continue
        assert relative_weight_filtration(N, W) is W
        _assert_same_filtration(W, reference_relative_weight_filtration(N, W), exact=True)
        exact += 1
        n = W.ambient_dim
        g = np.eye(n) + np.sqrt(2) / 4 * rng.choice([-2, -1, 1, 2], size=(n, n))
        if np.linalg.cond(g) > 100:
            continue
        gW = W.map_spaces(lambda s: s.image_under(g))
        gN = g @ N @ np.linalg.inv(g)
        assert not gW.adapted_basis().exact and _lowers_w_by_two(gN, gW)
        assert relative_weight_filtration(gN, gW) is gW
        _assert_same_filtration(gW, reference_relative_weight_filtration(gN, gW), exact=False)
        moved += 1
    # N = 0 lowers every W by two; at one weight, M is the one step there
    W = split_filtration([1, 1, -1], True)
    assert relative_weight_filtration(np.zeros((3, 3)), W) is W
    for center in (-2, 0, 3):
        filt = monodromy_weight_filtration(np.zeros((3, 3)), center)
        assert filt.indices == [center] and filt.at(center).dim == 3
    # N e0 = 1e-3 e1 + sqrt(2) e2 on W of weights (0, 0, -2): the block of
    # Gr^W_0 is far above tol, so M splits it at -1 and 1
    N = np.zeros((3, 3))
    N[1, 0], N[2, 0] = 1e-3, np.sqrt(2)
    W = split_filtration([0, 0, -2], True)
    assert not isinstance(as_operator(N), ExactMatrix) and not _lowers_w_by_two(N, W)
    M = relative_weight_filtration(N, W)
    assert M is not W and M.indices == [-2, -1, 1]
    _assert_same_filtration(M, reference_relative_weight_filtration(N, W), exact=False)


def test_limit_height_with_m_equal_to_w_is_the_height_of_the_limit():
    # with M = W, limit_height reads the limit's weight projectors (Y' = Y):
    # it equals the Deligne-system route and the height of (W, F_inf)
    from hodgeheight.height import _deep_coefficient

    count = 0
    for orbit, orient in _limit_height_orbits():
        H = limit_mhs(orbit, TOL)
        if H.W is not orbit.W:
            continue
        count += 1
        got = limit_height(orbit, orient, TOL)
        system = deligne_system_grading(orbit.W, orbit.N, H.bigrading(TOL).Y, TOL)
        want = _deep_coefficient(deligne_delta(H, TOL).delta, system.projectors, orient, TOL)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
        fiber_height = height(OrientedMHS(H, orient), TOL)
        assert abs(got - fiber_height) <= 1e-12 * max(abs(fiber_height), 1.0)
    assert count == 12   # the biextension orbits and their integer moves


def test_relative_filtration_makes_no_intersection(monkeypatch):
    calls = []
    original = Subspace.intersect

    def counted(self, other, tol=DEFAULT_TOL):
        calls.append(1)
        return original(self, other, tol)

    monkeypatch.setattr(Subspace, "intersect", counted)
    orbit, _ = cubic_orbit()
    relative_weight_filtration(orbit.N, orbit.W)
    rng = np.random.default_rng(608)
    for _ in range(10):
        W, N, _ = random_deligne_system(rng)
        relative_weight_filtration(np.round(N), W)
        relative_weight_filtration(N / 3, W)
    assert calls == []


def _own_block_table(powers, lo, hi, tol):
    """Each graded piece's table built afresh from its block of N', the
    path before the blocks were cut from the caller's table."""
    from hodgeheight import limits
    from hodgeheight.linalg import as_operator, nilpotent_powers

    return nilpotent_powers(as_operator(limits._block(powers[1], lo, hi)), tol)


def test_relative_filtration_builds_one_power_table(monkeypatch):
    # the blocks' monodromy filtrations read trimmed slices of the one table
    # of N', and give the filtrations of the per-block tables; an N' that
    # lowers W by two builds no table, since M is W
    from hodgeheight import limits

    tables, kinds = [], set()
    original, cut = limits.nilpotent_powers, limits._block_powers

    def counted(N, tol=DEFAULT_TOL):
        tables.append(len(N))
        return original(N, tol)

    def trimmed(powers, lo, hi, tol):
        # as long as the block's own table: untrimmed slices cost twice as much
        out = cut(powers, lo, hi, tol)
        assert len(out) == len(_own_block_table(powers, lo, hi, tol))
        return out

    def both(N, W):
        monkeypatch.setattr(limits, "_block_powers", trimmed)
        monkeypatch.setattr(limits, "nilpotent_powers", counted)
        by_two = _lowers_w_by_two(N, W)
        kinds.add(by_two)
        tables.clear()
        got = _outcome(relative_weight_filtration, N, W)
        assert tables == ([] if by_two else [W.ambient_dim])
        assert (got is W) == by_two
        monkeypatch.setattr(limits, "nilpotent_powers", original)
        with monkeypatch.context() as m:
            m.setattr(limits, "_block_powers", _own_block_table)
            return got, _outcome(relative_weight_filtration, N, W)

    rng = np.random.default_rng(613)
    inputs = []
    for _ in range(40):
        W, N, _ = random_deligne_system(rng)
        inputs += [(np.round(N), W, True), (N / 3, W, False)]
    inputs += [(N, W, True) for N, W in (_non_admissible_candidate(rng) for _ in range(30))]
    inputs += [(orbit.N, orbit.W, False) for _, orbit, _ in _biextension_orbits()]
    orbit, _ = cubic_orbit()
    inputs.append((orbit.N, orbit.W, True))
    missing = 0
    for N, W, exact in inputs:
        got, want = both(N, W)
        assert (got is None) == (want is None)
        if want is None:
            missing += 1
        else:
            _assert_same_filtration(got, want, exact)
    assert 0 < missing < len(inputs)
    assert kinds == {True, False}


def test_block_tables_stop_where_the_blocks_own_tables_stop():
    from hodgeheight.limits import _block_powers
    from hodgeheight.linalg import nilpotent_powers

    def block_sum(*blocks):
        n = sum(len(b) for b in blocks)
        out, at = np.zeros((n, n)), 0
        for b in blocks:
            out[at:at + len(b), at:at + len(b)] = b
            at += len(b)
        return out

    # B^2 is 5e-8, under tol * 10^2 but over tol * 10: the cut is at j = 2,
    # while the table of N' (with a Jordan block of length 3) runs to N'^3
    eps = 2.5e-9
    B = np.array([[eps, 10.0], [0.0, eps]])
    N = block_sum(B, shift_matrix(3).T)
    table = nilpotent_powers(N, TOL)
    assert len(table) == 4
    assert len(_block_powers(table, 0, 2, TOL)) == len(nilpotent_powers(B, TOL)) == 3
    exact = [[Fraction(int(x)) for x in row] for row in block_sum(
        shift_matrix(2).T, shift_matrix(3).T)]
    assert len(_block_powers(nilpotent_powers(exact), 0, 2, TOL)) == 3
    # a block the table's bound lets through but its own does not is
    # refused, as its own table refuses it
    C = np.array([[1e-3, 1.0], [0.0, 0.0]])
    table = nilpotent_powers(block_sum(C, [[0.0, 1e4], [0.0, 0.0]]), TOL)
    with pytest.raises(NotNilpotent):
        _block_powers(table, 0, 2, TOL)


def test_initial_grading_reduces_each_eigenspace_once(monkeypatch):
    from hodgeheight import limits
    from hodgeheight.linalg import AdaptedBasis

    reduced, eigen = [], []
    original_reduce, original_eigen = AdaptedBasis.reduce, limits._eigenspaces

    def counted_reduce(self, S, tol=DEFAULT_TOL):
        reduced.append(S)
        return original_reduce(self, S, tol)

    def counted_eigen(Y, levels, tol):
        out = original_eigen(Y, levels, tol)
        eigen.append(out)
        return out

    monkeypatch.setattr(AdaptedBasis, "reduce", counted_reduce)
    monkeypatch.setattr(limits, "_eigenspaces", counted_eigen)
    rng = np.random.default_rng(610)
    fallback = 0
    for _ in range(20):
        W, N, Y = random_deligne_system(rng)
        reduced.clear()
        eigen.clear()
        pieces = limits._initial_w_grading(W, _eigenspaces_of(Y), TOL)
        assert limits._grades(pieces, W, TOL)
        if reduced:
            fallback += 1
            assert [id(S) for S in reduced] == [id(E) for E in eigen[0].values()]
    assert fallback >= 5


def _below_the_blocks(rng, W, scale):
    """An N whose N' (in the coordinates of the flag of W) has one nonzero
    entry, below its diagonal blocks: N = T^T N' T^-T."""
    flag = W.adapted_basis()
    n = W.ambient_dim
    block = [sum(d <= i for d in flag.dims) for i in range(n)]
    below = [(i, j) for i in range(n) for j in range(n) if block[i] > block[j]]
    i, j = below[int(rng.integers(len(below)))]
    Np = [[Fraction(0)] * n for _ in range(n)]
    Np[i][j] = Fraction(int(rng.integers(1, 4)))
    T = fractions(flag.exact)
    N = matmul(matmul(list(map(list, zip(*T))), Np),
               list(map(list, zip(*fractions(flag.exact_inverse)))))
    return np.array(N, dtype=float) * scale


def test_n_with_an_entry_below_the_blocks_of_n_prime_is_refused():
    from hodgeheight.mhs import hodge_filtration

    rng = np.random.default_rng(611)
    tested = 0
    while tested < 12:
        W, _, _ = random_deligne_system(rng)
        if len(W.indices) < 2:
            continue
        tested += 1
        n = W.ambient_dim
        F = hodge_filtration([(0, Subspace.full(n))], n)
        # integer N takes the exact path, N / 3 the float path
        for scale in (1.0, 1 / 3):
            N = _below_the_blocks(rng, W, scale)
            check_nilpotent(N)
            with pytest.raises(DoesNotExist):
                relative_weight_filtration(N, W)
            with pytest.raises(NotNilpotent):
                NilpotentOrbit(W, N, F)


def test_n_leaving_w_is_refused_where_both_axioms_of_m_hold():
    # N e2 = e3 - e1 leaves W_0, so N' has one entry below its diagonal
    # blocks; the peeling recursion still finds a candidate that satisfies
    # both axioms of M (found by a search over random coordinate inputs), so
    # only the block check on N' refuses it
    from hodgeheight.mhs import hodge_filtration

    E5 = np.eye(5)
    N = np.array([[0, 1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, 0, 0],
                  [0, 0, 1, 0, 1], [0, 0, 0, 0, 0]], dtype=float)
    W = weight_filtration([(0, Subspace.from_rows(E5[:3], 5)), (1, Subspace.full(5))], 5)
    g = np.eye(5) + np.triu(np.random.default_rng(613).integers(-2, 3, size=(5, 5)), 1)
    gW = W.map_spaces(lambda s: s.image_under(g))
    F = hodge_filtration([(0, Subspace.full(5))], 5)
    for Nx, Wx in ((N, W), (N / 3, W), (g @ N @ np.round(np.linalg.inv(g)), gW)):
        with pytest.raises(DoesNotExist):
            relative_weight_filtration(Nx, Wx)
        with pytest.raises(NotNilpotent):
            NilpotentOrbit(Wx, Nx, F)


def test_float_path_with_noise_on_n_agrees_with_the_exact_path():
    # ROADMAP item 5: a float-path M that is wrong on N with 5e-15 of noise
    # was reported and never reproduced; this pins it on seeded inputs
    rng = np.random.default_rng(612)
    refused = 0
    for _ in range(200):
        W, N, _ = random_deligne_system(rng)
        Nr = np.round(N)
        want = relative_weight_filtration(Nr, W)
        noisy = Nr + rng.uniform(-5e-15, 5e-15, size=Nr.shape)
        try:
            got = relative_weight_filtration(noisy, W)
        except DoesNotExist:
            refused += 1
            continue
        _assert_same_filtration(got, want, exact=False)
    assert refused < 200


# ---------------------------------------------------------------------------
# the Deligne-system grading against a Kronecker least-squares oracle


def _vec(X):
    return np.asarray(X, dtype=complex).flatten(order="F")


def _unvec(x, n):
    return np.asarray(x, dtype=complex).reshape((n, n), order="F")


def _lin_ad(A):
    """Matrix of X -> A X - X A on column-major vectorized X."""
    eye = np.eye(A.shape[0])
    return np.kron(eye, A) - np.kron(A.T, eye)


def _solve_linear(L, rhs):
    """Least-squares solve returning (solution, residual max-abs)."""
    x, *_ = np.linalg.lstsq(L, rhs, rcond=None)
    return x, maxabs(L @ x - rhs)


def reference_deligne_system_grading(W, N, Y, tol=TOL):
    """(Y', N0+) with every bracket condition of each step in one 3n^2 x n^2
    least-squares system, stacked from the Kronecker matrices of ad."""
    N = np.asarray(N, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    n = W.ambient_dim
    scale = max(maxabs(N), maxabs(Y), 1.0)
    pieces = _initial_w_grading(W, _eigenspaces_of(Y, tol), tol)
    span = W.indices[-1] - W.indices[0]
    zero = np.zeros((n, n), dtype=complex)
    for _ in range(span + 3):
        frame = Frame.of(pieces)
        Yp = frame.grading
        N0 = frame.lift(frame.coordinates(N), 0)
        H = Y - Yp
        # [Y',X] = 0, [H,X] = 2X, [X,N0] = H
        L = np.vstack([_lin_ad(Yp), _lin_ad(H) - 2 * np.eye(n * n), -_lin_ad(N0)])
        x, res = _solve_linear(L, np.concatenate([np.zeros(2 * n * n), _vec(H)]))
        if res > 1e3 * tol * scale:
            raise ConstructionFailed("sl2 completion system is inconsistent")
        N0p = _unvec(x, n)
        R = (N - N0) @ N0p - N0p @ (N - N0)
        if maxabs(R) <= 10 * tol * scale:
            return Yp, N0p
        R_parts = frame.parts(frame.coordinates(R))
        j0 = next((j for j in range(1, span + 1)
                   if maxabs(R_parts.get(-j, zero)) > 10 * tol * scale), None)
        if j0 is None:
            return Yp, N0p
        # [Y,g] = 0, [Y',g] = -j0 g, ad(N0+) ad(N0) g = R_{-j0}
        L2 = np.vstack([_lin_ad(Y), _lin_ad(Yp) + j0 * np.eye(n * n),
                        _lin_ad(N0p) @ _lin_ad(N0)])
        g, res2 = _solve_linear(L2, np.concatenate([np.zeros(2 * n * n), _vec(R_parts[-j0])]))
        if res2 > 1e3 * tol * scale:
            raise ConstructionFailed("depth correction system is inconsistent")
        G = expm_nilpotent(_unvec(g, n))
        pieces = {k: b @ G.T for k, b in pieces.items()}
    raise ConstructionFailed("grading iteration did not converge")


def _shifted_systems(seed, count):
    """count random Deligne systems, each with Y and with Y + 2 lam N, lam
    complex with N(0, 1) parts."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        W, N, Y = random_deligne_system(rng)
        lam = complex(rng.normal(), rng.normal())
        out += [(W, N, Y), (W, N, Y + 2 * lam * N)]
    return out


def test_deligne_system_grading_matches_the_kronecker_oracle():
    corrected = 0
    for W, N, Y in _shifted_systems(1000, 100):
        try:
            want = reference_deligne_system_grading(W, N, Y)
        except ConstructionFailed:
            with pytest.raises(ConstructionFailed):
                deligne_system_grading(W, N, Y)
            continue
        ds = deligne_system_grading(W, N, Y)
        for got, ref in zip((ds.Yprime, ds.sl2[2]), want):
            assert maxabs(got - ref) <= 1e-9 * max(maxabs(ref), 1.0)
        initial = Frame.of(_initial_w_grading(W, _eigenspaces_of(Y), TOL)).grading
        corrected += maxabs(initial - ds.Yprime) > 1e-9
    # some systems need a depth correction, so both solves are exercised
    assert corrected >= 5


def _joint_multiplicities(Y, projectors):
    """(a, b) -> dim of the joint eigenspace of Y (eigenvalue a) and Y'
    (eigenvalue b), Y' given by its eigenprojectors."""
    out = {}
    for b, P in projectors.items():
        U = np.linalg.svd(P)[0][:, :round(np.trace(P).real)]
        for a in np.rint(np.linalg.eigvals(U.conj().T @ Y @ U).real):
            out[a, b] = out.get((a, b), 0) + 1
    return out


def test_deligne_system_solves_on_the_free_entries_alone(monkeypatch):
    # ad Y and ad Y' act on entry (i, j) of the joint eigenbasis by a_i - a_j
    # and b_i - b_j; N0+ is solved on the entries with (a, b) differences
    # (2, 0) and a depth correction on those with (0, -j0), over n^2 equations
    from hodgeheight import limits

    systems = _shifted_systems(1001, 40)
    shapes = []
    lstsq = np.linalg.lstsq

    def counted(A, b, rcond=None):
        if sys._getframe(1).f_globals["__name__"] == limits.__name__:
            shapes.append(A.shape)
        return lstsq(A, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    corrections = 0
    for W, N, Y in systems:
        shapes.clear()
        ds = deligne_system_grading(W, N, Y)
        n = W.ambient_dim
        m = _joint_multiplicities(Y, ds.projectors)

        def free(da, db):
            return sum(c * m.get((a - da, b - db), 0) for (a, b), c in m.items())

        span = W.indices[-1] - W.indices[0]
        if relative_weight_filtration(N, W) is W:
            # Y grades W: Y' = Y with no solve
            assert shapes == [] and np.array_equal(ds.Yprime, Y)
            continue
        assert shapes and all(rows == n * n for rows, _ in shapes)
        # the solves alternate: N0+, then (gamma, N0+) per correction
        assert len(shapes) % 2
        assert all(cols == free(2, 0) for _, cols in shapes[0::2])
        assert all(cols in {free(0, -j0) for j0 in range(1, span + 1)}
                   for _, cols in shapes[1::2])
        corrections += len(shapes) // 2
    assert corrections


# ---------------------------------------------------------------------------
# oracle: _grades asked through a span and a Subspace.contains per weight


def reference_grades(pieces: dict, W, tol: float) -> bool:
    """For every weight k, the pieces with key <= k span exactly W_k: one
    span, one dimension and one containment per weight."""
    n = W.ambient_dim
    for k in W.indices:
        rows = [b for j, b in pieces.items() if j <= k]
        span = Subspace.from_rows(np.vstack(rows), n, tol) if rows else Subspace.zero(n)
        if span.dim != W.at(k).dim or not W.at(k).contains(span, tol):
            return False
    return True


def _broken_gradings(pieces: dict, rng):
    """Gradings that must fail: a bottom row pushed out of its step by a top
    row (once by a whole row, once by 1e-4 of one), a top row replaced by a
    bottom row (dependent rows), and the bottom and top pieces swapped."""
    lo, hi = min(pieces), max(pieces)
    for c in (1.0, 1e-4):
        bad = dict(pieces)
        bad[lo] = pieces[lo].copy()
        bad[lo][int(rng.integers(len(bad[lo])))] += c * pieces[hi][0]
        yield bad
    bad = dict(pieces)
    bad[hi] = pieces[hi].copy()
    bad[hi][0] = pieces[lo][0]
    yield bad
    yield {**pieces, lo: pieces[hi], hi: pieces[lo]}


def test_grades_agrees_with_the_subspace_oracle():
    rng = np.random.default_rng(1729)
    broken = 0
    for _ in range(60):
        W, N, Y = random_deligne_system(rng)
        pieces = _initial_w_grading(W, _eigenspaces_of(Y, 1e-9), 1e-9)
        assert _grades(pieces, W, 1e-9) and reference_grades(pieces, W, 1e-9)
        if len(pieces) < 2:
            continue
        for bad in _broken_gradings(pieces, rng):
            assert not reference_grades(bad, W, 1e-9)
            assert not _grades(bad, W, 1e-9)
            broken += 1
    assert broken >= 100


# ---------------------------------------------------------------------------
# graded references by Jordan type


def _unimodular(draw, n, bound):
    """A unimodular integer g = P U L, the entries of U and L in -bound .. bound."""
    entries = st.integers(-bound, bound)
    U = [[int(i == j) or (draw(entries) if j > i else 0) for j in range(n)] for i in range(n)]
    L = [[int(i == j) or (draw(entries) if j < i else 0) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    UL = matmul(U, L)
    return [UL[p] for p in perm]


@st.composite
def _jordan_case(draw, bound):
    """(N, sizes, center): an integer nilpotent with Jordan blocks of the
    drawn sizes, n <= 7, conjugated by a unimodular integer g = P U L, the
    entries of U and L in -bound .. bound."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7).filter(
        lambda s: sum(s) <= 7))
    n = sum(sizes)
    J, at = [[0] * n for _ in range(n)], 0
    for s in sizes:
        for i in range(s - 1):
            J[at + i + 1][at + i] = 1
        at += s
    g = _unimodular(draw, n, bound)
    N = matmul(matmul(g, J), inverse(g))
    assert all(x.denominator == 1 for row in N for x in row)
    N = np.array([[int(x) for x in row] for row in N], dtype=float)
    return N, sizes, draw(st.integers(-2, 2))


def _assert_jordan_reference(N, sizes, center, paths):
    """The graded dimensions read off the Jordan type of N (and of N / 3,
    on the float path) are those of the drawn blocks and those of the
    monodromy filtration on the given paths, at every index."""
    from hodgeheight import limits
    from hodgeheight.linalg import as_operator, nilpotent_powers

    n = len(N)
    want = {j: sum(1 for s in sizes for i in range(s) if center + s - 1 - 2 * i == j)
            for j in range(center - n, center + n + 1)}
    for Nx, path in ((N, "exact"), (N / 3, "float")):
        graded = limits._jordan_graded(nilpotent_powers(as_operator(Nx), TOL), center, TOL)
        assert {j: graded.get(j, 0) for j in want} == want
        if path in paths:
            filt = monodromy_weight_filtration(Nx, center)
            assert {j: filt.dim_at(j) - filt.dim_at(j - 1) for j in want} == want


@settings(max_examples=100, deadline=None)
@given(_jordan_case(1))
def test_jordan_type_reference_is_the_monodromy_filtration(case):
    _assert_jordan_reference(*case, paths=("exact", "float"))


# blocks (4, 3) whose float N^3 / 27, of entries up to 0.22, carries a
# rounding singular value of 1.2e-9: read against tol, not tol * scale^3,
# rank N^3 was 2, not 1, which gives more blocks of size >= 4 than of size
# >= 3, and NotNilpotent
_ROUNDED_CUBE = np.array([[0, 0, 0, 0, 0, 0, 0],
                          [3, -11, -15, -13, -44, -55, 213],
                          [-3, 7, 9, 5, 25, 33, -125],
                          [1, 0, -1, -1, -3, -3, 13],
                          [0, 30, 42, 36, 123, 155, -598],
                          [0, 46, 64, 54, 187, 235, -908],
                          [0, 18, 25, 21, 73, 92, -355]], dtype=float)


@settings(max_examples=60, deadline=None)
@given(_jordan_case(2))
@example((_ROUNDED_CUBE, [4, 3], 0))
def test_jordan_type_reference_of_a_larger_conjugate(case):
    # with U and L in -2 .. 2 some float monodromy filtrations still fail
    # their own axiom check (Subspace.contains is scale-blind, ROADMAP item
    # 3), so only the exact one is compared; the Jordan reading is right on
    # both paths
    _assert_jordan_reference(*case, paths=("exact",))


def test_float_monodromy_filtration_of_an_ill_conditioned_conjugate():
    # Jordan blocks of sizes 2 and 4, conjugated by g = P U L with entries
    # in -2 .. 2 (entries up to 110): the closed formula's float kernels
    # failed the N W_k <= W_(k-2) check at tol 1e-9; the recursion passes
    N = np.array([[-6, 5, -11, 14, -42, 53], [-1, 2, -3, 6, -13, 16],
                  [-11, 12, -23, 31, -87, 110], [5, -5, 10, -14, 39, -49],
                  [-1, 1, -2, 1, -5, 7], [-5, 5, -10, 12, -36, 46]], dtype=float)
    _assert_jordan_reference(N, [2, 4], 0, paths=("exact", "float"))


def _with_a_bottom_piece(B):
    """(N, W): B as the top piece, weight 3, of W over a one-dimensional
    bottom piece of weight 0 on which N is zero."""
    from hodgeheight.mhs import split_filtration

    n = len(B) + 1
    N = np.zeros((n, n), dtype=complex)
    N[1:, 1:] = B
    return N, split_filtration([0] + [3] * len(B), True)


@settings(max_examples=60, deadline=None)
@given(_jordan_case(2))
def test_ill_conditioned_block_above_the_bottom_is_read_by_its_jordan_type(case):
    # a float block as the piece of W above the bottom one: M is refused
    # with DoesNotExist (always, for a Jordan block of size >= 3 there) or
    # found, with the graded pieces of the block's Jordan type, also where
    # the block's own monodromy filtration fails
    B, sizes, _ = case
    try:
        M = relative_weight_filtration(*_with_a_bottom_piece(B / 3))
    except DoesNotExist:
        return
    want = {j: int(j == 0) + sum(1 for s in sizes for i in range(s) if 3 + s - 1 - 2 * i == j)
            for j in range(-8, 12)}
    assert {j: M.dim_at(j) - M.dim_at(j - 1) for j in want} == want


def test_ill_conditioned_block_above_the_bottom_is_accepted():
    # Jordan blocks (2, 2, 2) conjugated by a unimodular g = P U L, U and L
    # in -5 .. 5, divided by 3: the block's own float monodromy filtration,
    # whose closed formula failed its N W_k <= W_(k-2) check, is the exact
    # one; read off the block's Jordan type, the graded check accepts M,
    # which is the exact path's M
    B = np.array([[8630, 179, -421, 2993, 648, 38], [-22515, -464, 1096, -7807, -1689, -96],
                  [5877, 123, -286, 2040, 443, 27], [-28032, -581, 1368, -9721, -2104, -123],
                  [22950, 474, -1121, 7956, 1720, 99], [27781, 575, -1352, 9636, 2087, 121]],
                 dtype=float)
    own, exact_own = monodromy_weight_filtration(B / 3, 3), monodromy_weight_filtration(B, 3)
    assert [(k, S.dim) for k, S in own.steps] == [(k, S.dim) for k, S in exact_own.steps]
    assert all(own.at(k).equals(exact_own.at(k), TOL) for k in own.indices)
    M = relative_weight_filtration(*_with_a_bottom_piece(B / 3))
    exact = relative_weight_filtration(*_with_a_bottom_piece(B))
    assert [(k, S.dim) for k, S in M.steps] == [(k, S.dim) for k, S in exact.steps] \
        == [(0, 1), (2, 4), (4, 7)]
    assert all(M.at(k).equals(exact.at(k), 1e-6) for k in M.indices)


def test_jordan_type_that_grows_raises_not_nilpotent():
    # kernel dimensions 0, 1, 3, 3 of a hand-made table: one block of size
    # >= 1 but two of size >= 2, which no nilpotent has
    from hodgeheight import limits
    from hodgeheight.linalg import ExactMatrix

    def exact(rows):
        return ExactMatrix([list(r) for r in rows])

    I, A, Z = np.eye(3, dtype=int), [[0, 0, 0], [1, 0, 0], [0, 1, 0]], np.zeros((3, 3), dtype=int)
    table = [exact(I), exact(A), exact(Z), exact(Z)]
    with pytest.raises(NotNilpotent, match="Jordan type"):
        limits._jordan_graded(table, 0, TOL)
    with pytest.raises(NotNilpotent, match="Jordan type"):
        limits._jordan_graded([np.asarray(np.array(P), dtype=complex) for P in table], 0, TOL)


def _split_steps(g, levels):
    """(k, span of the columns g e_i with levels[i] <= k), k over the levels."""
    n = len(levels)
    return [(k, Subspace.from_rows([[g[r][i] for r in range(n)] for i in range(n)
                                    if levels[i] <= k], n))
            for k in sorted(set(levels))]


def test_jordan_block_of_size_three_above_the_bottom_weight():
    # N = 0 + J3 (e1 -> e2 -> e3) on W of weights (0, 3, 3, 3): the upward
    # step takes the preimage of all of M_(k-j-2), which holds e3 of the top
    # piece, not only of the filtration of W_0; exact and on the float path
    from hodgeheight.mhs import split_filtration

    N = np.zeros((4, 4))
    N[2, 1] = N[3, 2] = 1.0
    want = weight_filtration(_split_steps(np.eye(4, dtype=int).tolist(), [0, 5, 3, 1]), 4)
    assert [(k, S.dim) for k, S in want.steps] == [(0, 1), (1, 2), (3, 3), (5, 4)]
    for Nx in (N, N / 3):
        got = relative_weight_filtration(Nx, split_filtration([0, 3, 3, 3], True))
        _assert_same_filtration(got, want, exact=True)


@st.composite
def _graded_jordan_case(draw):
    """(N, W, M): a split W with a Jordan type on each graded piece, n <= 7,
    and M the direct sum of the pieces' monodromy filtrations, all moved by a
    unimodular g = P U L with U and L in -2 .. 2."""
    types = draw(st.dictionaries(st.integers(-3, 3), st.lists(st.integers(1, 3), min_size=1,
                                                               max_size=3),
                                 min_size=1, max_size=3).filter(
        lambda t: sum(map(sum, t.values())) <= 7))
    levels, m_levels, J = [], [], []
    for k, sizes in types.items():
        for s in sizes:
            # e_at -> e_(at+1) -> ..., weights k+s-1, k+s-3, .. of W(N) at center k
            J += [(len(levels) + i + 1, len(levels) + i) for i in range(s - 1)]
            levels += [k] * s
            m_levels += [k + s - 1 - 2 * i for i in range(s)]
    n = len(levels)
    N = [[Fraction(int((i, j) in J)) for j in range(n)] for i in range(n)]
    g = _unimodular(draw, n, 2)
    return (matmul(matmul(g, N), inverse(g)), weight_filtration(_split_steps(g, levels), n),
            weight_filtration(_split_steps(g, m_levels), n))


@settings(max_examples=80, deadline=None)
@given(_graded_jordan_case())
def test_relative_filtration_of_a_graded_jordan_type_is_the_sum_of_the_pieces(case):
    N, W, want = case
    _assert_same_filtration(relative_weight_filtration(N, W), want, exact=True)


# ---------------------------------------------------------------------------
# horizontality verdicts


HORIZONTALITY = "N must shift the Hodge filtration by one (horizontality)"


def _suite_orbits():
    """(name, W, N, F_inf) of the orbits the suite and the benchmark build."""
    from hodgeheight.variations import random_hodge_tate

    orbit, _ = cubic_orbit()
    rng = np.random.default_rng(11)
    for _ in range(6):
        # the cubic orbit with F_inf moved by exp(lam N), lam as the benchmark draws it
        G = expm_nilpotent(complex(rng.normal(), rng.normal()) * orbit.N)
        yield "cubic", orbit.W, orbit.N, orbit.F_inf.map_spaces(lambda sp: sp.image_under(G))
    for v in (dilog_variation(), *(random_hodge_tate((1, 2, 2, 1), 2, seed) for seed in range(3))):
        for N in v.nilpotents:
            yield "variation", v.W, N, v.F_inf
    for _, o, _ in _biextension_orbits():
        yield "biextension", o.W, o.N, o.F_inf


def _horizontal(N, F, tol=1e-8):
    """N F^p <= F^(p-1) for every p, by singular values."""
    def rank(A):
        sv = np.linalg.svd(A, compute_uv=False)
        return int((sv > tol * max(1.0, sv[0])).sum()) if len(sv) else 0

    return all(rank(np.vstack([F.at(p - 1).basis, F.at(p).basis @ N.T])) == F.at(p - 1).dim
               for p in F.indices)


def _weight_of(W, i):
    unit = Subspace.from_rows([[int(i == j) for j in range(W.ambient_dim)]], W.ambient_dim)
    return min(k for k, S in W.steps if S.contains(unit))


def test_horizontality_verdicts_of_the_suite_orbits():
    # every orbit the suite builds is accepted, also with N scaled by 1e6;
    # an entry of 1e-3 max |N| that lowers W but moves some F^p out of
    # F^(p-1) is refused with the horizontality message
    broken = set()
    for name, W, N, F in _suite_orbits():
        n = W.ambient_dim
        N = np.real(np.asarray(N, dtype=complex))
        w = [_weight_of(W, i) for i in range(n)]
        for scale in (1.0, 1e6):
            Ns = scale * N
            NilpotentOrbit(W, Ns, F)
            for i, j in ((i, j) for i in range(n) for j in range(n) if w[i] < w[j]):
                bad = Ns.copy()
                bad[i, j] += 1e-3 * maxabs(Ns)
                nilpotent = maxabs(np.linalg.matrix_power(bad, n)) <= 1e-12 * maxabs(bad) ** n
                if not nilpotent or _horizontal(bad, F):
                    continue
                with pytest.raises(NotNilpotent, match=re.escape(HORIZONTALITY)):
                    NilpotentOrbit(W, bad, F)
                broken.add(name)
    assert broken == {"cubic", "variation", "biextension"}
