import re

import numpy as np
import pytest

from hodgeheight import linalg
from hodgeheight.config import DEFAULT_TOL
from hodgeheight.errors import (HodgeError, InfeasibleRanks, LengthTooSmall, MalformedFiltration,
                               NotAnMHS, NotHodgeTate)
from hodgeheight.height import OrientedMHS, height
from hodgeheight.limits import NilpotentOrbit, moved_fiber
from hodgeheight.linalg import expm_nilpotent, maxabs
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.variations import (
    GammaPoly,
    LocalVariation,
    check_asymptotics,
    dilog_variation,
    fiber,
    height_sweep,
    oriented_fiber,
    random_hodge_tate,
)
from fixtures import mp_hodge_tate_height


def slope_fit(params: np.ndarray, heights: np.ndarray) -> dict[str, float]:
    """Least-squares diagnostic: fit heights against log|s| and (log|s|)^3."""
    x = np.asarray(params, dtype=float)
    y = np.asarray(heights, dtype=float)
    A = np.vstack([np.ones_like(x), x, x ** 3]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return {"constant": float(coef[0]), "linear": float(coef[1]), "cubic": float(coef[2])}


def covering_points(ys, k=1):
    return [([1j * y] * k, [np.exp(2j * np.pi * 1j * y)] * k) for y in ys]


def test_gamma_poly_guards():
    with pytest.raises(HodgeError):
        GammaPoly.of(1, {(0,): np.eye(2)})  # constant term
    g = GammaPoly.of(2, {(1, 0): np.eye(2), (0, 3): 2 * np.eye(2)})
    val = g([0.5, 1.0])
    assert maxabs(val - (0.5 * np.eye(2) + 2 * np.eye(2))) < 1e-15


def test_fiber_at_origin_is_limit():
    v = random_hodge_tate((1, 1, 1), 1, seed=3)
    H = fiber(v, [0.0], [0.0])
    for p, s in H.F.steps:
        assert s.equals(v.F_inf.at(p))


def test_dilog_variation_fiber_matches_explicit_structure():
    v = dilog_variation(70)
    for s in (0.35 + 0.41j, -0.52 + 0.18j):
        z = np.log(complex(s)) / (2j * np.pi)
        H = fiber(v, [z], [s])
        explicit = dilog_fiber(s).mhs
        # compare bigradings after rescaling the flat frame: the explicit
        # coordinates use the bottom basis vector (2 pi i)^-2 v2, so vector
        # coordinates pick up the inverse factor
        C = np.diag([1.0, 1.0, (2j * np.pi) ** 2])
        B1 = H.bigrading()
        B2 = explicit.bigrading()
        for key in sorted(B1.components):
            moved = B1.components[key].image_under(C)
            assert moved.equals(B2.components[key], 1e-8)


def test_dilog_variation_height_value():
    v = dilog_variation(70)
    from hodgeheight.dilog import bloch_wigner

    s = 0.3 - 0.62j
    z = np.log(complex(s)) / (2j * np.pi)
    h = height(oriented_fiber(v, [z], [s]))
    assert h == pytest.approx(bloch_wigner(s) / (4 * np.pi ** 2), abs=1e-12)


def test_constant_split_variation_sweeps_to_zero():
    v = random_hodge_tate((1, 2, 1), 0, seed=9)
    assert v.gamma.terms == ()
    pts = [([], []) for _ in range(4)]
    # no divisors: fiber is constant; use the limit directly
    H = fiber(v, [], [])
    assert height(OrientedMHS(H, v.orientation)) == pytest.approx(0.0, abs=1e-12)


def test_dilog_sweep_real_segment_vanishes():
    v = dilog_variation(40)
    path = []
    for s in np.linspace(0.1, 0.6, 6):
        z = np.log(complex(s)) / (2j * np.pi)
        path.append(([z], [s]))
    out = height_sweep(v, path)
    assert all(abs(h) < 1e-11 for _, h in out)


def test_cubic_orbit_sweep_matches_cubic_growth():
    orbit, orient = cubic_orbit()
    ys = np.array([1.0, 2.0, 3.0, 5.0])
    hs = np.array([height(OrientedMHS(orbit.fiber(1j * y), orient)) for y in ys])
    assert np.allclose(hs, -(2.0 / 3.0) * ys ** 3, atol=1e-8)
    fit = slope_fit(np.log(np.exp(-2 * np.pi * ys)), hs)
    assert fit["cubic"] == pytest.approx(1 / (12 * np.pi ** 3), rel=1e-6)


def test_tameness_exactness():
    # a multi-divisor Gamma with a coefficient violating tameness is rejected
    v = random_hodge_tate((1, 1, 1), 2, seed=4)
    assert v.is_tame()
    N1, N2 = v.nilpotents
    bad_terms = {(0, 1): N1 @ N1 + np.diag([0, 0, 0])}
    bad_terms[(0, 1)][2, 1] = 5.0  # no longer commutes with N1
    with pytest.raises(HodgeError):
        LocalVariation(W=v.W, F_inf=v.F_inf, nilpotents=v.nilpotents,
                       gamma=GammaPoly.of(2, bad_terms), orientation=v.orientation)


def _conjugated(seed: int, *mats):
    """The weights (0, -2, -2, -4) with F split at levels (0, -1, -1, -2), W,
    F_inf and the orientation moved by a real normal g, and the mats
    conjugated by g."""
    from hodgeheight.height import Orientation
    from hodgeheight.mhs import split_filtration

    g = np.random.default_rng(seed).normal(size=(4, 4))
    g_inv = np.linalg.inv(g)
    W, F = (split_filtration(levels, up).map_spaces(lambda S: S.image_under(g))
            for levels, up in (([0, -2, -2, -4], True), ([0, -1, -1, -2], False)))
    frame = dict(W=W, F_inf=F, orientation=Orientation.of(g[:, 0], g[:, 3]))
    return frame, *(g @ m @ g_inv for m in mats)


def test_commutation_and_tameness_are_checked_at_the_scale_of_the_bracket():
    # N1 = E10 + E31 and N2 = E20 + E32 commute exactly; conjugated, [A, B]
    # is rounding of order eps |A| |B|: 2.9e-9 for 1e3 N1 and 1e3 N2, 3.3e-9
    # for 1e6 N1 and N2, each above tol = 1e-9 and far below tol |A| |B|
    E = np.eye(4)
    N1, N2 = np.outer(E[1], E[0]) + np.outer(E[3], E[1]), np.outer(E[2], E[0]) + np.outer(E[3], E[2])
    frame, A, B, C = _conjugated(4, N1, N2, N1 + np.outer(E[2], E[1]))
    assert maxabs(1e6 * (A @ B - B @ A)) > DEFAULT_TOL
    assert maxabs(1e6 * (A @ B - B @ A)) > DEFAULT_TOL * max(1.0, maxabs(B))
    LocalVariation(nilpotents=(1e3 * A, 1e3 * B), gamma=GammaPoly.zero(2), **frame)
    v = LocalVariation(nilpotents=(1e6 * A, 1e6 * A), gamma=GammaPoly.of(2, {(0, 1): B}), **frame)
    assert v.is_tame()
    # [N1, N1 + E21] = -E20, a bracket of the order of |A| |C|, is refused
    with pytest.raises(HodgeError, match="must commute"):
        LocalVariation(nilpotents=(1e3 * A, 1e3 * C), gamma=GammaPoly.zero(2), **frame)
    with pytest.raises(HodgeError, match="tameness"):
        LocalVariation(nilpotents=(1e6 * A, 1e6 * A), gamma=GammaPoly.of(2, {(0, 1): C}), **frame)


def test_check_asymptotics_identity_and_decay():
    v = random_hodge_tate((1, 3, 1), 1, seed=12)
    rep = check_asymptotics(v, covering_points([1.0, 5.0, 50.0]))
    assert rep.identity_ok
    gaps = [p.height_gap for p in rep.points]
    assert gaps[2] < 1e-3
    assert gaps[2] < gaps[1] < gaps[0]


def test_check_asymptotics_gamma_zero_exact_identity():
    v = random_hodge_tate((1, 2, 1), 1, seed=21)
    v0 = LocalVariation(W=v.W, F_inf=v.F_inf, nilpotents=v.nilpotents,
                        gamma=GammaPoly.zero(1), orientation=v.orientation)
    pts = [([0.3 + 2j], [0.01 + 0.02j]), ([1j], [0.0])]
    rep = check_asymptotics(v0, pts)
    for p in rep.points:
        assert p.identity_residual < 1e-12


def test_check_asymptotics_guards():
    v = random_hodge_tate((1, 1), 1, seed=2)
    with pytest.raises(LengthTooSmall):
        check_asymptotics(v, covering_points([1.0]))
    # non-Hodge-Tate: the cubic orbit as a variation
    orbit, orient = cubic_orbit()
    vv = LocalVariation(W=orbit.W, F_inf=orbit.F_inf, nilpotents=(orbit.N,),
                        gamma=GammaPoly.zero(1), orientation=orient)
    with pytest.raises(NotHodgeTate):
        check_asymptotics(vv, covering_points([1.0]))


def test_random_hodge_tate_guards_and_reproducibility():
    with pytest.raises(InfeasibleRanks):
        random_hodge_tate((2, 1), 1, seed=0)
    v1 = random_hodge_tate((1, 2, 1), 1, seed=7)
    v2 = random_hodge_tate((1, 2, 1), 1, seed=7)
    assert all(maxabs(a - b) == 0 for a, b in zip(v1.nilpotents, v2.nilpotents))
    assert all(maxabs(a[1] - b[1]) == 0
               for a, b in zip(v1.gamma.terms, v2.gamma.terms))
    v3 = random_hodge_tate((1, 2, 1), 1, seed=8)
    assert any(maxabs(a - b) > 0 for a, b in zip(v1.nilpotents, v3.nilpotents))


def test_length_two_growth_is_linear_in_im_z():
    v = random_hodge_tate((1, 1), 1, seed=6)
    N = v.nilpotents[0]
    slope = N[1, 0]
    hs = []
    ys = (1.0, 2.0, 4.0)
    for y in ys:
        H = fiber(v, [1j * y], [0.0])
        hs.append(height(OrientedMHS(H, v.orientation)))
    base = height(OrientedMHS(fiber(v, [0.0], [0.0]), v.orientation))
    for y, h in zip(ys, hs):
        assert h - base == pytest.approx(y * slope, abs=1e-10)


def test_dilog_variation_asymptotics_to_zero():
    v = dilog_variation(50)
    seq = []
    for y in (0.5, 1.0, 2.0, 4.0):
        z = 0.1 + 1j * y
        seq.append(([z], [np.exp(2j * np.pi * z)]))
    rep = check_asymptotics(v, seq)
    assert rep.identity_ok
    assert rep.limit_height == pytest.approx(0.0, abs=1e-12)
    gaps = [p.height_gap for p in rep.points]
    assert gaps[-1] < 1e-9
    assert gaps[-1] < gaps[0]


def test_limit_structure_built_once():
    v = random_hodge_tate((1, 2, 1), 1, seed=1)
    assert v.limit_structure() is v.limit_structure()


def test_the_cone_of_rational_nilpotents_stays_exact():
    # two N = (1/3) E21 on the dilog's W: each orbit's N is an ExactMatrix, and
    # so is the cone's N = (2/3) E21, summed in Fractions, whose limit is that
    # of the one-N variation of (2/3) E21: M = W, since N lowers W by 2, and
    # F_inf split, so the limit is Hodge-Tate with period matrix 1 and limit
    # height 0
    from hodgeheight.limits import limit_height
    from hodgeheight.linalg import ExactMatrix
    from hodgeheight.schemas import parse_variation

    def doc(*nilpotents):
        return {"dimension": 3,
                "weight_filtration": [
                    {"weight": -4, "basis": [["0", "0", "1"]]},
                    {"weight": -2, "basis": [["0", "1", "0"], ["0", "0", "1"]]},
                    {"weight": 0, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}],
                "f_infinity": [
                    {"level": 0, "basis": [[[1, 0], [0, 0], [0, 0]]]},
                    {"level": -1, "basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]},
                    {"level": -2, "basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                            [[0, 0], [0, 0], [1, 0]]]}],
                "nilpotents": [[["0", "0", "0"], ["0", "0", "0"], ["0", c, "0"]] for c in nilpotents],
                "orientation": {"top": ["1", "0", "0"], "bottom": ["0", "0", "1"]}}

    v, one = parse_variation(doc("1/3", "1/3")), parse_variation(doc("2/3"))
    assert all(type(o.monodromy) is ExactMatrix for o in v._orbits)
    assert type(v.cone.monodromy) is ExactMatrix and v.cone is not v._orbits[0]
    assert (v.cone.monodromy.num, v.cone.monodromy.den) == ([[0, 0, 0], [0, 0, 0], [0, 2, 0]], 3)
    assert (one.cone.monodromy.num, one.cone.monodromy.den) == (v.cone.monodromy.num, 3)
    L = v.limit_structure()
    assert [(k, S.exact) for k, S in L.W.steps] == [(k, S.exact) for k, S in v.W.steps]
    assert [(k, S.exact) for k, S in L.W.steps] == \
        [(k, S.exact) for k, S in one.limit_structure().W.steps]
    assert np.array_equal(L.bigrading().period.P, np.eye(3))
    assert limit_height(v.cone, v.orientation) == limit_height(one.cone, one.orientation) == 0.0


def test_variation_rejects_a_nilpotent_that_raises_weight():
    # a variation checks each nilpotent as NilpotentOrbit does: N must
    # preserve W (and be horizontal for F_inf)
    from hodgeheight.errors import NotNilpotent
    from hodgeheight.limits import NilpotentOrbit

    v = dilog_variation(10)
    bad = np.zeros((3, 3))
    bad[0, 2] = 1.0
    with pytest.raises(NotNilpotent, match="weight filtration"):
        NilpotentOrbit(v.W, bad, v.F_inf)
    with pytest.raises(NotNilpotent, match="weight filtration"):
        LocalVariation(W=v.W, F_inf=v.F_inf, nilpotents=(bad,), gamma=v.gamma,
                       orientation=v.orientation)


def test_height_sweep_names_the_point_that_is_no_mhs(monkeypatch):
    # the cubic orbit as a one-N variation with Gamma = 0: its fibers are the
    # orbit's, moved from the fiber at i, so the one at y = 2000 is a
    # structure; on the literal lattice it is not, and its point is named
    import hodgeheight.variations as variations

    orbit, orient = cubic_orbit()
    v = LocalVariation(W=orbit.W, F_inf=orbit.F_inf, nilpotents=(orbit.N,),
                       gamma=GammaPoly.zero(1), orientation=orient)
    path = [([10j], [0.0]), ([2000j], [0.0])]
    (_, h10), (_, h2000) = height_sweep(v, path)
    assert h10 == pytest.approx(-(2 / 3) * 1e3, rel=1e-9)
    assert h2000 == pytest.approx(-(2 / 3) * 2000 ** 3, rel=1e-12)
    monkeypatch.setattr(variations, "_fiber", lambda v, move, tol: moved_fiber(
        v.W, v.F_inf, move.g, move.where, tol))
    with pytest.raises(NotAnMHS, match=re.escape("sweep point 1: fiber at z=[2000j], s=[0.0]: "
                                                 "direct-sum: ")):
        height_sweep(v, path)


def test_check_asymptotics_needs_a_hodge_tate_limit_on_w(monkeypatch):
    # the cubic's limit (M, F_inf) is Hodge-Tate, but M is not W, since N
    # does not lower W by 2; the weight-0 plane with N e0 = e1 has no limit.
    # Each is refused before any fiber is built
    import hodgeheight.variations as variations
    from hodgeheight.height import Orientation
    from hodgeheight.mhs import is_hodge_tate, split_filtration

    orbit, orient = cubic_orbit()
    cubic = LocalVariation(W=orbit.W, F_inf=orbit.F_inf, nilpotents=(orbit.N,),
                           gamma=GammaPoly.zero(1), orientation=orient)
    assert is_hodge_tate(cubic.limit_structure())
    plane = LocalVariation(W=split_filtration([0, 0], True), F_inf=split_filtration([0, 0], False),
                           nilpotents=(np.array([[0.0, 0.0], [1.0, 0.0]]),),
                           gamma=GammaPoly.zero(1), orientation=Orientation.of([1, 0], [0, 1]))
    monkeypatch.setattr(variations, "_fiber", None)
    with pytest.raises(NotHodgeTate, match=re.escape("is not a Hodge-Tate structure with M = W")):
        check_asymptotics(cubic, [([2j], [0.0])])
    with pytest.raises(NotHodgeTate, match="the limit is not a Hodge-Tate structure: direct-sum"):
        check_asymptotics(plane, [([2j], [0.0])])


def test_check_asymptotics_names_a_fiber_that_is_not_hodge_tate(monkeypatch):
    # every fiber of a Hodge-Tate limit is Hodge-Tate by its counts, since N
    # and Gamma preserve W; a fiber that were not would be named, not graded.
    # Only the per-point route builds fibers: the length-10 variation keeps it
    import hodgeheight.variations as variations

    v = random_hodge_tate((1, 1, 1, 1, 1, 1), 1, seed=0)
    assert v._transport(DEFAULT_TOL) is None
    monkeypatch.setattr(variations, "_fiber", lambda *args: cubic_orbit()[0].fiber(2j))
    with pytest.raises(NotHodgeTate, match=re.escape(
            "fiber at z=[2j], s=[0.5]: not a Hodge-Tate structure")):
        check_asymptotics(v, [([2j], [0.5])])


def _mp_left_kernel(M, mp):
    """The rows c with c M = 0, for an mpmath matrix M of full column rank:
    Gauss-Jordan on M^T with partial pivoting, one row per free column."""
    A = M.T
    pivots = []
    for j in range(A.cols):
        r = len(pivots)
        if r == A.rows:
            break
        i = max(range(r, A.rows), key=lambda t: abs(A[t, j]))
        if abs(A[i, j]) < mp.mpf(10) ** -30:
            continue
        piv = A[i, j]
        for t in range(A.cols):
            A[i, t], A[r, t] = A[r, t], A[i, t] / piv
        for i in range(A.rows):
            if i != r and A[i, j] != 0:
                f = A[i, j]
                for t in range(A.cols):
                    A[i, t] -= f * A[r, t]
        pivots.append(j)
    assert len(pivots) == A.rows
    kernel = []
    for free in (j for j in range(A.cols) if j not in pivots):
        c = [mp.mpc(0)] * A.cols
        c[free] = mp.mpc(1)
        for i, j in enumerate(pivots):
            c[j] = -A[i, free]
        kernel.append(c)
    return kernel


def _mp_hodge_tate_height(H, orientation):
    """The height of a Hodge-Tate structure at 60 digits, from the float
    bases of its steps alone: I^{p,p} = F^p cap W_2p, the projectors P_k of
    that bigrading, u = sum_k conj(P_k) P_k, delta = (i/2) log u, and the
    coefficient of P_min delta P_max (top) against the bottom generator."""
    import mpmath as mp

    def rows(S):
        return [[mp.mpc(complex(x)) for x in row] for row in S.basis]

    n = H.dim
    with mp.workdps(60):
        vectors, blocks = [], []
        for p in sorted(H.levels, reverse=True):
            Fp = rows(H.F.at(p))
            for c in _mp_left_kernel(mp.matrix(Fp + rows(H.W.at(2 * p))), mp):
                vectors.append([mp.fsum(c[i] * Fp[i][j] for i in range(len(Fp)))
                                for j in range(n)])
            blocks.append(range(len(vectors) - H.F.at(p).dim + H.F.at(p + 1).dim,
                                len(vectors)))
        assert len(vectors) == n
        C = mp.matrix(vectors).T
        Cinv = C ** -1
        P = [mp.matrix([[mp.fsum(C[i, t] * Cinv[t, j] for t in block) for j in range(n)]
                        for i in range(n)]) for block in blocks]
        X = sum((Pk.apply(mp.conj) * Pk for Pk in P), mp.zeros(n, n)) - mp.eye(n)
        log_u, power = mp.zeros(n, n), mp.eye(n)
        for j in range(1, n):
            power = power * X
            log_u += power * (mp.mpf((-1) ** (j + 1)) / j)
        delta = log_u * mp.mpc(0, 0.5)
        vec = P[-1] * delta * P[0] * mp.matrix([mp.mpc(complex(x)) for x in orientation.top])
        j = int(np.argmax(np.abs(orientation.bottom)))
        return float(mp.re(vec[j] / mp.mpc(complex(orientation.bottom[j]))))


@pytest.mark.parametrize("ranks, seed, y", [((1, 2, 2, 1), 3, 2.0), ((1, 2, 2, 1), 3, 5.0),
                                            ((1, 2, 1), 1, 5.0), ((1, 2, 2, 1), 2, 3.05)])
def test_hodge_tate_height_matches_a_60_digit_oracle(ranks, seed, y):
    v = random_hodge_tate(ranks, 1, seed=seed)
    H = fiber(v, [1j * y], [np.exp(-2 * np.pi * y)])
    want = _mp_hodge_tate_height(H, v.orientation)
    assert abs(height(OrientedMHS(H, v.orientation)) - want) <= 1e-12


def test_check_asymptotics_on_the_cleared_probe():
    # the (1,2,2,1) variation of seed 2 once missed the depth-one identity
    # at these points, with residuals from 5.6e-9 to 1.8e-8
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=2)
    rep = check_asymptotics(v, [([1j * y], [np.exp(-2 * np.pi * y)]) for y in (2.95, 3.05, 3.1)])
    assert rep.identity_ok
    assert all(p.identity_residual < 1e-9 for p in rep.points)


def test_a_fiber_row_reduces_no_step_of_f_but_its_piece(monkeypatch):
    # a Hodge-Tate fiber is its limit's period matrix moved by g: neither
    # the fiber, its height nor the depth-one identity row-reduces anything
    # once the limit's lattice and height (limits.limit_height, whose
    # Deligne system is built once per tol) are built; nor does a cubic-orbit
    # fiber once its base, the fiber at i, is built: it is that fiber moved by
    # a real g.  The literal cubic fiber (not Hodge-Tate) moves F_inf as one
    # flag and reduces its moved rows against W as they are: of the steps of
    # F only F^0, which is the piece I^{0,0}, is row-reduced, and the full
    # step is the C^n of F_inf itself
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    z, s = [2j], [np.exp(-4 * np.pi)]
    fiber(v, z, s)
    check_asymptotics(v, [([1j], [np.exp(-2 * np.pi)])])
    orbit, _ = cubic_orbit()
    orbit.fiber(1j)
    G = orbit.exp(2j)
    # the steps short of C^n; the full step is checked by identity below
    steps = {p: orbit.F_inf.at(p).image_under(G) for p in orbit.F_inf.indices if p > -3}
    inputs = []
    original = linalg.rref_float

    def counted(M, tol=DEFAULT_TOL):
        inputs.append(np.array(M))
        return original(M, tol)

    monkeypatch.setattr(linalg, "rref_float", counted)
    H = fiber(v, z, s)
    height(OrientedMHS(H, v.orientation))
    check_asymptotics(v, [(z, s)])
    cubic = orbit.fiber(2j)
    height(OrientedMHS(cubic, cubic_orbit()[1]))
    assert inputs == []
    literal = moved_fiber(orbit.W, orbit.F_inf, G, "")
    monkeypatch.undo()

    def spans(M, S):
        return len(M) == S.dim and np.linalg.matrix_rank(np.vstack([M, S.basis]), 1e-8) == S.dim

    reduced = {p for p, S in steps.items() if any(spans(M, S) for M in inputs)}
    assert reduced == {0}
    assert H.F.at(-3) is v.F_inf.at(-3)
    assert cubic.F.at(-3) is literal.F.at(-3) is orbit.F_inf.at(-3)


def test_the_fiber_that_collapsed_f_has_height_zero():
    # |s| = 2 is far outside the disc of the degree-60 Gamma series, whose
    # move once collapsed a step of F at the working tolerance (NotAnMHS);
    # the fiber is Hodge-Tate all the same.  Gamma(2) has a purely imaginary
    # (1,0) entry and a real (2,0) entry, so every term of L = log(exp(-conj
    # Gamma) exp(0.6i N) exp(Gamma)) at the (bottom, top) entry cancels
    v = dilog_variation()
    assert height(oriented_fiber(v, [0.3j], [2.0])) == 0.0
    assert mp_hodge_tate_height(v, [0.3j], [2.0]) == 0.0


@pytest.mark.parametrize("ranks", [(1, 1, 1, 1), (1, 2, 2, 1), (1, 1, 2, 1, 1)])
def test_hodge_tate_fibers_far_out_match_a_60_digit_oracle(ranks):
    # fibers up to y = 1e5, where the general route raised NotAnMHS or
    # NoConvergence from y ~ 100 and drifted before that; the depth-one
    # identity, read off L, holds there to rounding
    for seed in range(10):
        v = random_hodge_tate(ranks, 1, seed=seed)
        points = [([0.2 + 1j * y], [np.exp(2j * np.pi * (0.2 + 1j * y))])
                  for y in (0.3, 1.0, 10.0, 100.0, 1e3, 1e5)]
        for z, s in points:
            want = mp_hodge_tate_height(v, z, s)
            got = height(oriented_fiber(v, z, s))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (seed, z, got, want)
        assert all(p.identity_residual <= 1e-12 for p in check_asymptotics(v, points).points)


def test_a_limit_that_is_not_split_moves_with_its_period_matrix():
    # h, rational and unipotent on Gr^W, is an isomorphism from the fibers
    # of v to those of the variation (h F_inf, h N h^-1, h Gamma h^-1), whose
    # limit has period matrix h: the heights agree, and the oracle takes the
    # factors conj(P_inf)^-1 and P_inf
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=4)
    w = np.array([0, -2, -2, -4, -4, -6])
    rng = np.random.default_rng(8)
    h = np.eye(6) + np.where(w[:, None] <= w - 2, rng.integers(-2, 3, size=(6, 6)), 0)
    h_inv = np.linalg.inv(h)
    moved = LocalVariation(
        W=v.W, F_inf=v.F_inf.map_spaces(lambda sp: sp.image_under(h)),
        nilpotents=(h @ v.nilpotents[0] @ h_inv,),
        gamma=GammaPoly.of(1, {e: h @ m @ h_inv for e, m in v.gamma.terms}),
        orientation=v.orientation)
    assert moved._transport(DEFAULT_TOL) is not None
    T = v.W.T.real
    for y in (0.3, 1.0, 10.0, 1e3):
        z = 0.2 + 1j * y
        s = np.exp(2j * np.pi * z)
        want = height(oriented_fiber(v, [z], [s]))
        got = height(oriented_fiber(moved, [z], [s]))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        oracle = mp_hodge_tate_height(moved, [z], [s], P_inf=T @ h @ T.T)
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_a_variation_longer_than_eight_keeps_the_general_route():
    # the commutator series stops at four brackets, exact up to length 8;
    # a length-10 Hodge-Tate variation reads each fiber off its echelons
    v = random_hodge_tate((1, 1, 1, 1, 1, 1), 1, seed=0)
    assert v.length == 10 and v._transport(DEFAULT_TOL) is None
    for y in (0.3, 1.0):
        z = 0.2 + 1j * y
        s = np.exp(2j * np.pi * z)
        want = mp_hodge_tate_height(v, [z], [s])
        got = height(oriented_fiber(v, [z], [s]))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_check_asymptotics_evaluates_gamma_once_per_call(monkeypatch):
    # one contraction on the stack of all points, whose slices are the
    # single-point values bit for bit
    calls = []
    original = GammaPoly.__call__

    def counted(self, s):
        calls.append(np.array(s))
        return original(self, s)

    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    points = [([1j * y], [np.exp(-2 * np.pi * y)]) for y in (1.0, 2.0, 3.0)]
    monkeypatch.setattr(GammaPoly, "__call__", counted)
    check_asymptotics(v, points)
    assert len(calls) == 1 and calls[0].shape == (len(points), 1)
    stacked = original(v.gamma, calls[0])
    for row, (_, s) in zip(stacked, points):
        assert np.array_equal(row, original(v.gamma, s))


@pytest.mark.parametrize("nvars, seed", [(1, 0), (2, 1), (3, 2)])
def test_gamma_is_the_sum_of_its_terms(nvars, seed):
    # one contraction of the monomials against the stacked coefficients,
    # against the term-by-term sum; the order of the sum changed, so they
    # agree to rounding of the largest term
    rng = np.random.default_rng(seed)
    terms = {}
    while len(terms) < min(8, 4 ** nvars - 1):
        expo = tuple(int(e) for e in rng.integers(0, 4, size=nvars))
        if any(expo):
            terms[expo] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = GammaPoly.of(nvars, terms)
    for _ in range(5):
        s = rng.normal(size=nvars) + 1j * rng.normal(size=nvars)
        monos = {expo: np.prod([x ** e for x, e in zip(s, expo)]) for expo in terms}
        want = sum(monos[expo] * mat for expo, mat in terms.items())
        scale = max(abs(monos[expo]) * maxabs(mat) for expo, mat in terms.items())
        assert maxabs(g(s) - want) <= 1e-14 * scale


@pytest.mark.parametrize("z", [0.0, 0.3 - 2j, 150j, -7.5 + 1e3j])
def test_exp_off_the_power_table_is_the_series(z):
    # exp(zN) from the table of the nilpotency check, sum z^k N^k / k!,
    # against the series of expm_nilpotent, for an exact and a float N
    orbit, _ = cubic_orbit()
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    for o in (orbit, v._orbits[0], NilpotentOrbit(v.W, 0.7 * v.nilpotents[0], v.F_inf)):
        want = expm_nilpotent(complex(z) * o.N)
        assert maxabs(o.exp(z) - want) <= 1e-14 * max(1.0, maxabs(want))


# ---------------------------------------------------------------------------
# a sweep is one stacked computation


def test_gamma_takes_a_stack_of_points():
    # each row of a stack is the single-point value bit for bit, whatever
    # the height of the stack
    rng = np.random.default_rng(5)
    g = GammaPoly.of(2, {e: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                         for e in ((1, 0), (0, 1), (2, 1), (0, 3))})
    stack = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    values = g(stack)
    assert values.shape == (7, 3, 3)
    for row, s in zip(values, stack):
        assert np.array_equal(row, g(s))
    with pytest.raises(HodgeError, match="expected 2 parameters, got 3"):
        g(np.ones((4, 3)))
    assert GammaPoly.zero(1)(np.ones((4, 1))).shape == (4, 0, 0)


def _not_split_variation() -> LocalVariation:
    # the variation of test_a_limit_that_is_not_split_moves_with_its_period_matrix
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=4)
    w = np.array([0, -2, -2, -4, -4, -6])
    rng = np.random.default_rng(8)
    h = np.eye(6) + np.where(w[:, None] <= w - 2, rng.integers(-2, 3, size=(6, 6)), 0)
    h_inv = np.linalg.inv(h)
    return LocalVariation(
        W=v.W, F_inf=v.F_inf.map_spaces(lambda sp: sp.image_under(h)),
        nilpotents=(h @ v.nilpotents[0] @ h_inv,),
        gamma=GammaPoly.of(1, {e: h @ m @ h_inv for e, m in v.gamma.terms}),
        orientation=v.orientation)


def _stacked_variations():
    for ranks in ((1, 1, 1, 1), (1, 2, 2, 1), (1, 1, 2, 1, 1)):
        for seed in range(10):
            for nil_count in (1, 2):
                yield random_hodge_tate(ranks, nil_count, seed=seed)
    yield _not_split_variation()
    yield dilog_variation()


def test_a_stacked_sweep_agrees_with_its_points():
    # check_asymptotics and height_sweep read every point off one stacked
    # computation; each point on its own is the fiber's height and the
    # one-point report
    for v in _stacked_variations():
        assert v._transport(DEFAULT_TOL) is not None
        k = len(v.nilpotents)
        points = [([z] * k, [np.exp(2j * np.pi * z)] * k)
                  for z in (0.2 + 0.3j, 0.2 + 1j, 0.45 + 3j, 0.2 + 10j, 0.2 + 100j)]
        report, swept = check_asymptotics(v, points), height_sweep(v, points)
        for (z, s), p, (_, h) in zip(points, report.points, swept):
            want = height(oriented_fiber(v, z, s))
            one = check_asymptotics(v, [(z, s)]).points[0]
            assert abs(p.height - want) <= 1e-13 * max(1.0, abs(want))
            assert abs(h - want) <= 1e-13 * max(1.0, abs(want))
            assert abs(p.identity_residual - one.identity_residual) \
                <= 1e-13 * max(1.0, one.identity_residual)


def test_a_transport_sweep_builds_no_fiber(monkeypatch):
    # past the limit's own structure, neither sweep builds a structure, and
    # each checks the orientation once per call
    import hodgeheight.variations as variations
    from hodgeheight.mhs import MixedHodgeStructure

    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    points = [([1j * y], [np.exp(-2 * np.pi * y)]) for y in (1.0, 2.0, 3.0)]
    check_asymptotics(v, points)
    built, checks = [], []
    init, check = MixedHodgeStructure.__init__, variations._check_oriented

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_check(*args):
        checks.append(args)
        check(*args)

    monkeypatch.setattr(MixedHodgeStructure, "__init__", counted_init)
    monkeypatch.setattr(variations, "_check_oriented", counted_check)
    check_asymptotics(v, points)
    height_sweep(v, points)
    assert built == [] and len(checks) == 2


@pytest.mark.parametrize("ranks", [(1, 2, 2, 1), (1, 1, 1, 1, 1, 1)])
@pytest.mark.parametrize("z", [[1j, 7j], []])
def test_a_z_of_the_wrong_length_raises(ranks, z):
    # extra values were once dropped and missing ones read as 0, on the
    # stacked route (1,2,2,1) and the per-point one (length 10) alike
    v = random_hodge_tate(ranks, 1, seed=3)
    s = [np.exp(-2 * np.pi)]
    msg = f"expected 1 values of z, got {len(z)}"
    with pytest.raises(HodgeError, match=re.escape(msg)):
        fiber(v, z, s)
    with pytest.raises(HodgeError, match=re.escape(msg)):
        check_asymptotics(v, [([1j], s), (z, s)])
    with pytest.raises(HodgeError, match=re.escape("sweep point 1: " + msg)):
        height_sweep(v, [([1j], s), (z, s)])


def test_a_stacked_sweep_raises_at_its_first_bad_point():
    # Gamma(1e7) of the degree-60 series overflows at the 2nd point, and
    # (1e200 i)^2 at the 3rd: the 2nd is named, with no RuntimeWarning first
    # (an error under this suite's filter)
    v = dilog_variation()
    points = [([0.3j], [0.5]), ([0.3j], [1e7]), ([1e200j], [0.5])]
    msg = "fiber at z=[0.3j], s=[10000000.0]: Gamma(s) is not finite"
    with pytest.raises(MalformedFiltration, match=re.escape(msg)):
        check_asymptotics(v, points)
    with pytest.raises(MalformedFiltration, match=re.escape("sweep point 1: " + msg)):
        height_sweep(v, points)
    with pytest.raises(MalformedFiltration, match=re.escape(
            "sweep point 1: fiber at z=[1e+200j], s=[0.5]: the move is not finite")):
        height_sweep(v, [points[0], points[2]])


def test_height_sweep_names_the_point_of_every_typed_error():
    # NotAnMHS was once the only error to carry its index
    with pytest.raises(MalformedFiltration, match=re.escape(
            "sweep point 0: fiber at z=[0.3j], s=[10000000.0]: Gamma(s) is not finite")):
        height_sweep(dilog_variation(), [([0.3j], [1e7])])
