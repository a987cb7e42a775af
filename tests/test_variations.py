import numpy as np
import pytest

from hodgeheight.errors import HodgeError, InfeasibleRanks, LengthTooSmall, NotHodgeTate
from hodgeheight.height import OrientedMHS, height
from hodgeheight.linalg import maxabs
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
    slope_fit,
)


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
        for key in B1.keys:
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
