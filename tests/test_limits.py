import numpy as np
import pytest
from fractions import Fraction

from hodgeheight.errors import DoesNotExist, MalformedFiltration, NotNilpotent
from hodgeheight.height import OrientedMHS, height
from hodgeheight.limits import (
    NilpotentOrbit,
    _as_subspace_matrix,
    _centered_on_subspace,
    _induced_on_graded,
    _powers,
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
    maxabs,
    nullspace_exact,
    nullspace_float,
)
from hodgeheight.mhs import is_hodge_tate, weight_filtration
from hodgeheight.scenarios import cubic_orbit
from hodgeheight.variations import dilog_variation


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
    assert filt.at(-4).contains_vector([0, 1])
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
    assert M.at(-6).contains_vector([0, 0, 0, 1])
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


# ---------------------------------------------------------------------------
# the relative weight filtration against its unwindowed construction

TOL = 1e-9


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
    assert got.indices == want.indices
    for k in want.indices:
        if exact:
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
