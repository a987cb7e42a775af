import sys

import numpy as np
import pytest
from fractions import Fraction

from hodgeheight.errors import (
    ConstructionFailed,
    DoesNotExist,
    MalformedFiltration,
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
    random_deligne_system,
    relative_weight_filtration,
)
from hodgeheight.linalg import (
    Subspace,
    check_nilpotent,
    expm_nilpotent,
    graded_parts,
    graded_projectors,
    maxabs,
    nullspace_exact,
    nullspace_float,
    rational_rows,
    rref_exact,
)
from hodgeheight.mhs import is_hodge_tate, weight_filtration
from hodgeheight.scenarios import cubic_orbit
from hodgeheight.variations import dilog_variation
from test_linalg import contains_vector

TOL = 1e-9


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


# Valid inputs (W, N, Y + 2 lam N) that raise ConstructionFailed: draws 47,
# 89 and 180 of random_deligne_system with rng seed 11, each followed by the
# draws lam1 = normal(), lam2 = complex(normal(), normal()), lam3 =
# 10 normal(), at lam = lam3.  N and Y are rounded to the integers they
# approximate (draw 47 within 1.2e-16, which fails either way).  W maps each
# weight below the top to spanning rows; W at the top weight is everything.
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


@pytest.mark.xfail(strict=True, raises=ConstructionFailed,
                   reason="spurious ConstructionFailed at large |lam| (ROADMAP item 4)")
@pytest.mark.parametrize("W_rows, top, N, Y, lam", PINNED_LARGE_LAMBDA,
                         ids=["rng11-draw47", "rng11-draw89", "rng11-draw180"])
def test_deligne_system_at_a_large_lambda_is_the_moved_grading(W_rows, top, N, Y, lam):
    n = len(N)
    W = weight_filtration([*((k, Subspace.from_rows(r, n)) for k, r in W_rows.items()),
                           (top, Subspace.full(n))], n)
    N, Y = np.array(N, dtype=float), np.array(Y, dtype=float)
    G = expm_nilpotent(lam * N)
    expected = G @ deligne_system_grading(W, N, Y).Yprime @ np.linalg.inv(G)
    got = deligne_system_grading(W, N, Y + 2 * lam * N).Yprime
    assert maxabs(got - expected) < 1e3 * TOL * max(maxabs(expected), 1.0)


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


def _centered_on_subspace(Nmat, Nf, space, center, n, tol):
    """Monodromy filtration of N restricted to an N-stable subspace, expressed
    in ambient coordinates and centered at `center`."""
    if space.dim == n:
        filt = monodromy_weight_filtration(Nmat if isinstance(Nmat, list) else Nf,
                                           center, tol)
        return {k: filt.at(k) for k in filt.indices}
    # N b_i = sum_j C_ji b_j: column i of C holds the coordinates of N b_i
    Bt = space.basis.T
    coeffs = np.linalg.lstsq(Bt, np.asarray(Nf) @ Bt, rcond=None)[0]
    resid = maxabs(Bt @ coeffs - np.asarray(Nf) @ Bt)
    if resid > 1e3 * tol * max(1.0, maxabs(Nf)):
        raise DoesNotExist("subspace is not stable under N")
    small = monodromy_weight_filtration(coeffs, center, tol)
    return {k: Subspace.from_rows(small.at(k).basis @ space.basis, n, tol)
            for k in small.indices}


def _induced_on_graded(Nf, Wk, Wk1, tol):
    """Matrix of N on W_k / W_{k-1} in the basis of pivot rows of W_k missing
    from W_{k-1}."""
    lift = Wk.basis[[i for i, p in enumerate(Wk.pivots) if p not in set(Wk1.pivots)]]
    d = lift.shape[0]
    cols = np.vstack([lift, Wk1.basis]).T if Wk1.dim else lift.T
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        x, *_ = np.linalg.lstsq(cols, np.asarray(Nf, dtype=complex) @ lift[i], rcond=None)
        out[:, i] = x[:d]
    return out


def full_window_rec(Nmat, Nf, powers, W, weights, n, tol):
    """The peeling recursion over every index in [min(M') - 2n - 2, k + n + 1],
    each entry recomputed, powers above m read as N^m."""
    k_top = weights[-1]
    top_space = W.at(k_top)
    if len(weights) == 1:
        return _centered_on_subspace(Nmat, Nf, top_space, k_top, n, tol)
    Msub = full_window_rec(Nmat, Nf, powers, W, weights[:-1], n, tol)
    m = len(powers) - 1
    lo = min(Msub) - 2 * n - 2
    hi = k_top + n + 1

    def msub_at(j):
        best = Subspace.zero(n)
        for idx in sorted(Msub):
            if idx <= j:
                best = Msub[idx]
        return best

    M = {}
    for j in range(0, hi - k_top + 1):
        pre = msub_at(k_top - j - 2).preimage_under(powers[min(j + 1, m)], tol)
        M[k_top + j] = pre.intersect(top_space, tol)
    for j in range(1, k_top - lo + 1):
        pushed = M[k_top + j].image_under(powers[min(j, m)], tol) if k_top + j in M \
            else Subspace.zero(n)
        M[k_top - j] = pushed.add(msub_at(k_top - j), tol)
    return M


def full_range_check(M, Nmat, Nf, W, n, tol):
    """Both axioms, the graded one at every j in [k - 2n, k + 2n]."""
    for k in M.indices:
        if not M.at(k - 2).contains(M.at(k).image_under(Nmat, tol), tol):
            raise DoesNotExist("candidate filtration is not lowered by two under N")
    for k in W.indices:
        Wk, Wk1 = W.at(k), W.at(k - 1)
        if Wk.dim == Wk1.dim:
            continue
        ref = monodromy_weight_filtration(_induced_on_graded(Nf, Wk, Wk1, tol), k, tol)
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
    steps = full_window_rec(Nmat, Nf, _powers(Nmat, m), W, W.indices, n, tol)
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

    def counted(self, A, tol=None):
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
    """W(N)_k = sum_j N^j (ker N^(k+2j+1)), with ker N^e recomputed for every
    (k, j) and N^j applied as j chained images under N."""
    Nf, exact = _as_subspace_matrix(N)
    n = Nf.shape[0]
    m = check_nilpotent(Nf, tol)
    Nop = exact if exact is not None else Nf
    powers = _powers(Nop, m)

    def kernel_power(j):
        if j <= 0:
            return Subspace.zero(n)
        if j >= m:
            return Subspace.full(n)
        if exact is not None:
            return Subspace.from_rows(nullspace_exact(powers[j], n), n)
        return Subspace.from_rows(nullspace_float(powers[j], tol), n, tol)

    def image_power(space, j):
        out = space
        for _ in range(j):
            out = out.image_under(Nop, tol)
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
    import hodgeheight.limits as limits_module
    import hodgeheight.linalg as linalg_module

    calls = []
    original = linalg_module.nullspace_exact

    def counted(M, n):
        calls.append(M)
        return original(M, n)

    monkeypatch.setattr(limits_module, "nullspace_exact", counted)
    monkeypatch.setattr(linalg_module, "nullspace_exact", counted)
    for N, center in _monodromy_cases():
        calls.clear()
        monodromy_weight_filtration(N, center)
        m = check_nilpotent(N)
        # one kernel per exponent 1 .. m-1, none asked for twice
        assert len(calls) <= m - 1
        assert len({str(M) for M in calls}) == len(calls)


def test_eigenspaces_computed_once_per_deligne_system(monkeypatch):
    # the eigenspaces of Y are computed once, for the initial pieces; each
    # correction moves the pieces instead of recomputing eigenspaces of Y'
    from hodgeheight import limits

    rng = np.random.default_rng(5)
    systems = []
    for _ in range(12):
        # Y + 2 lam N grades M as well, and some of these need corrections
        W, N, Y = random_deligne_system(rng)
        systems.append((W, N, Y + 2 * complex(rng.normal(), rng.normal()) * N))
    eigen, steps = [], []
    original, projectors = limits._eigenspaces, limits.graded_projectors

    def counted_eigen(Y, levels, tol):
        eigen.append(levels)
        return original(Y, levels, tol)

    def counted_projectors(pieces):
        steps.append(sorted(pieces))
        return projectors(pieces)

    monkeypatch.setattr(limits, "_eigenspaces", counted_eigen)
    monkeypatch.setattr(limits, "graded_projectors", counted_projectors)
    for i, (W, N, Y) in enumerate(systems):
        ds = deligne_system_grading(W, N, Y)
        assert ds.residual < 1e-10
        assert len(eigen) == i + 1
    # some systems need a correction, so the moved pieces are exercised
    assert len(steps) > len(systems)


def test_grading_with_an_eigenvalue_between_jumps_is_not_a_grading_of_w():
    # the eigenspaces of Y = diag(0, 1, 2) span W_0 and W_2, but Y has the
    # eigenvalue 1, which is no weight of W, so it is not taken as Y'; with
    # N = 0 no grading of W completes to an sl2-triple with H = Y - Y'
    W = weight_filtration([(0, Subspace.from_rows([[1, 0, 0]], 3)), (2, Subspace.full(3))], 3)
    with pytest.raises(ConstructionFailed):
        deligne_system_grading(W, np.zeros((3, 3)), np.diag([0.0, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# the relative weight filtration in the coordinates of the flag of W


def _exact_inverse(g):
    """g^-1 over Q: [g | 1] row-reduces to [1 | g^-1] for invertible g."""
    n = len(g)
    R, _ = rref_exact([list(row) + [Fraction(int(i == j)) for j in range(n)]
                       for i, row in enumerate(g)])
    return [row[n:] for row in R]


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


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
        moved = relative_weight_filtration(_matmul(_matmul(g, Nq), _exact_inverse(g)),
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


def test_relative_filtration_makes_no_intersection(monkeypatch):
    calls = []
    original = Subspace.intersect

    def counted(self, other, tol=None):
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


def test_monodromy_filtration_runs_once_per_graded_piece(monkeypatch):
    # the bottom piece's filtration is the base case of the recursion, and
    # the graded check reuses it
    from hodgeheight import limits

    calls = []
    original = limits.monodromy_weight_filtration

    def counted(N, center=0, tol=None):
        calls.append(center)
        return original(N, center, tol)

    monkeypatch.setattr(limits, "monodromy_weight_filtration", counted)
    rng = np.random.default_rng(609)
    for _ in range(20):
        W, N, _ = random_deligne_system(rng)
        for Nx in (np.round(N), N / 3):
            calls.clear()
            relative_weight_filtration(Nx, W)
            assert calls == W.indices


def test_initial_grading_reduces_each_eigenspace_once(monkeypatch):
    from hodgeheight import limits
    from hodgeheight.linalg import AdaptedBasis

    reduced, eigen = [], []
    original_reduce, original_eigen = AdaptedBasis.reduce, limits._eigenspaces

    def counted_reduce(self, S, tol=None):
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
        pieces = limits._initial_w_grading(W, Y, TOL)
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
    T = flag.exact
    N = _matmul(_matmul(list(map(list, zip(*T))), Np),
                list(map(list, zip(*flag.exact_inverse))))
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
    # ROADMAP item 2: a float-path M that is wrong on N with 5e-15 of noise
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
    pieces = _initial_w_grading(W, Y, tol)
    span = W.indices[-1] - W.indices[0]
    zero = np.zeros((n, n), dtype=complex)
    for _ in range(span + 3):
        proj = graded_projectors(pieces)
        Yp = sum(k * P for k, P in proj.items())
        N0 = graded_parts(proj, N).get(0, zero)
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
        R_parts = graded_parts(proj, R)
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
        initial = graded_projectors(_initial_w_grading(W, Y, TOL))
        corrected += maxabs(sum(k * P for k, P in initial.items()) - ds.Yprime) > 1e-9
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
        pieces = _initial_w_grading(W, Y, 1e-9)
        assert _grades(pieces, W, 1e-9) and reference_grades(pieces, W, 1e-9)
        if len(pieces) < 2:
            continue
        for bad in _broken_gradings(pieces, rng):
            assert not reference_grades(bad, W, 1e-9)
            assert not _grades(bad, W, 1e-9)
            broken += 1
    assert broken >= 100
