import numpy as np
import pytest

from hodgeheight.dilog import ZETA2, bloch_wigner
from hodgeheight.errors import DegenerateTriangle, HodgeError
from hodgeheight.scenarios import (
    TriangleData,
    dilog_fiber,
    family_triangle,
    scenario_dilog,
    scenario_dim0,
    scenario_family,
    scenario_orbit6iii,
    scenario_triangle,
    triangle_height_nine,
    triangle_height_six,
)
from hodgeheight.variations import dilog_variation

from fixtures import CATALAN


def test_dilog_scenario_real_parameter():
    r = scenario_dilog(0.5)
    assert r.height_general == pytest.approx(0.0, abs=1e-12)
    assert r.bigrading_ok and r.paths_agree


def test_dilog_fibers_share_the_variation_weight_filtration():
    # one W object, so every dilog fiber and variation reads one adapted basis
    W = dilog_variation().W
    assert dilog_fiber(0.3 + 0.2j).mhs.W is W and dilog_fiber(-2.0).mhs.W is W
    assert dilog_variation(25).W is W
    assert W.adapted_basis() is dilog_fiber(1j).mhs.W.adapted_basis()


def test_dilog_scenario_catalan():
    r = scenario_dilog(1j)
    assert r.height_general == pytest.approx(-CATALAN, abs=1e-12)
    assert r.height_biextension == pytest.approx(-CATALAN, abs=1e-12)


def test_dilog_scenario_generic_point():
    s = 2 + 3j
    r = scenario_dilog(s)
    assert r.height_general == pytest.approx(-bloch_wigner(s), abs=1e-10)
    assert r.paths_agree


def test_dilog_scenario_rejects_degenerate():
    with pytest.raises(HodgeError):
        scenario_dilog(0.0)
    with pytest.raises(HodgeError):
        scenario_dilog(1.0)


def test_orbit_scenario_values():
    r = scenario_orbit6iii(1j)
    assert r.fiber_height == pytest.approx(-2.0 / 3.0, abs=1e-10)
    assert r.limit_height == pytest.approx(0.0, abs=1e-12)
    r = scenario_orbit6iii(2j)
    assert r.fiber_height == pytest.approx(-16.0 / 3.0, abs=1e-9)
    assert r.expected_fiber == pytest.approx(-16.0 / 3.0, abs=1e-12)
    with pytest.raises(HodgeError):
        scenario_orbit6iii(-1j)


def test_triangle_real_coefficients_vanish():
    T = TriangleData(a=(1.0, 3.0, 2.0), b=(2.0, 1.0, 5.0), c=(1.0, 1.0, 1.0))
    r = scenario_triangle(T)
    assert r.ht_nine == pytest.approx(0.0, abs=1e-13)
    assert r.ht_six == pytest.approx(0.0, abs=1e-13)
    assert r.machinery_height == pytest.approx(0.0, abs=1e-11)
    assert r.roundtrip_ok


def test_triangle_nine_equals_six(rng):
    for _ in range(25):
        coeffs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        try:
            T = TriangleData(a=tuple(coeffs[0]), b=tuple(coeffs[1]), c=tuple(coeffs[2]))
            h9 = triangle_height_nine(T)
            h6 = triangle_height_six(T)
        except DegenerateTriangle:
            continue
        assert h9 == pytest.approx(h6, abs=1e-10)


def test_triangle_conjugation_antisymmetry(rng):
    coeffs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    T = TriangleData(a=tuple(coeffs[0]), b=tuple(coeffs[1]), c=tuple(coeffs[2]))
    Tc = TriangleData(a=tuple(np.conj(coeffs[0])), b=tuple(np.conj(coeffs[1])),
                      c=tuple(np.conj(coeffs[2])))
    assert triangle_height_nine(Tc) == pytest.approx(-triangle_height_nine(T), abs=1e-12)


def test_triangle_machinery_cross_check():
    T = TriangleData(a=(1, 2j, 1), b=(1, 1, 2j), c=(2j, 1, 1), alpha=2.0, beta=0.5)
    r = scenario_triangle(T)
    assert abs(r.ht_nine - r.ht_six) < 1e-10
    assert r.machinery_height == pytest.approx(r.ht_nine, abs=1e-10)
    assert r.roundtrip_ok
    assert len(r.delta_C) == 9


def test_triangle_degenerate_sections():
    with pytest.raises(DegenerateTriangle):
        TriangleData(a=(1, 2, 3), b=(2, 4, 6), c=(1, 0, 0))


def test_triangle_general_position_does_not_see_the_scale_of_a_coordinate():
    # 400 configurations with entries spread over 10^+-50: each section and
    # each coordinate x_j is defined up to scale, and the heights read the
    # coefficients through cross ratios, so rescaling a column moves neither
    # height.  A det test on rows rescaled alone refuses 211 of them; with the
    # columns rescaled first, most of those are triangles, and on each the
    # nine- and six-term heights agree, as they do with unit columns
    rng = np.random.default_rng(3)
    refused_by_rows = formed = 0
    for _ in range(400):
        M = ((rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
             * 10.0 ** rng.uniform(-50, 50, (3, 3)))
        if abs(np.linalg.det(M / np.abs(M).max(axis=1, keepdims=True))) >= 1e-12:
            continue
        refused_by_rows += 1
        try:
            T = TriangleData(*map(tuple, M))
        except DegenerateTriangle:
            continue
        formed += 1
        h9, h6 = triangle_height_nine(T), triangle_height_six(T)
        unit = TriangleData(*map(tuple, M / np.abs(M).max(axis=0)))
        assert abs(h9 - h6) <= 1e-10 and abs(h9 - triangle_height_nine(unit)) <= 1e-10
    assert refused_by_rows == 211 and formed >= 150


def test_family_matches_triangle_and_closed_forms():
    for t in (-1j, 0.4 + 0.8j, 2.5 - 1.1j):
        r = scenario_family(t)
        assert r.height == pytest.approx(r.closed_form, abs=1e-10)
        assert r.height == pytest.approx(r.reduced_form, abs=1e-9)
        direct = triangle_height_nine(family_triangle(t))
        assert r.height == pytest.approx(direct, abs=1e-13)


def test_family_catalan_point():
    r = scenario_family(-1j)
    assert r.height == pytest.approx(CATALAN / (4 * ZETA2), abs=1e-10)


def test_family_limits_vanish():
    r = scenario_family(0.3 + 0.9j)
    for label, val in r.limit_values.items():
        assert abs(val) < 1e-4, (label, val)


def test_family_excluded_points():
    for t in (-2.0, -1.0, 0.0, 1.0):
        with pytest.raises(DegenerateTriangle):
            scenario_family(t)


def test_dim0_values_and_unit_modulus():
    r = scenario_dim0(np.e, np.e)
    assert r.spec.delta1[0] == pytest.approx(1 / (2 * np.pi), abs=1e-14)
    assert r.spec.delta1[1] == pytest.approx(1 / (2 * np.pi), abs=1e-14)
    assert r.height == pytest.approx(0.0, abs=1e-12)
    assert r.roundtrip_ok
    r = scenario_dim0(np.exp(1j * 0.7), np.exp(-2.1j))
    assert all(abs(x) < 1e-14 for x in r.spec.delta1)
    assert all(abs(x) < 1e-14 for x in r.spec.delta2)


def test_dim0_random_roundtrip(rng):
    for _ in range(5):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        if abs(a) < 1e-3 or abs(b) < 1e-3:
            continue
        assert scenario_dim0(a, b).roundtrip_ok


def test_family_near_one_real_is_zero():
    r = scenario_family(1 - 1e-3)
    assert r.height == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-9", "", "1e-3"])
def test_hodge_tol_in_the_environment_is_ignored(monkeypatch, value):
    # the library reads no environment: every default tolerance is DEFAULT_TOL
    monkeypatch.setenv("HODGE_TOL", value)
    r = scenario_dim0(2, 3)
    assert r.roundtrip_ok and r.height == pytest.approx(0.0, abs=1e-9)
    H = dilog_fiber(0.3 + 0.6j).mhs
    assert H.bigrading() is H.bigrading(1e-9)
