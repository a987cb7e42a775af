import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgeheight.dilog import ZETA2, bloch_wigner, li2
from hodgeheight.errors import HodgeError

from fixtures import CATALAN, mp_bloch_wigner, mp_li2


def test_li2_small_values():
    assert li2(0).value == 0
    assert li2(1).value == pytest.approx(ZETA2, rel=1e-15)
    # alternating series reference for -1
    ref = sum((-1) ** n / n ** 2 for n in range(1, 4000))
    assert li2(-1).value.real == pytest.approx(ref, abs=1e-7)
    assert li2(-1).value == pytest.approx(-ZETA2 / 2, rel=1e-14)


def test_li2_matches_power_series_on_disk(rng):
    for _ in range(50):
        z = (rng.uniform(-0.45, 0.45) + 1j * rng.uniform(-0.45, 0.45))
        ref = sum(z ** n / n ** 2 for n in range(1, 120))
        assert abs(li2(z).value - ref) < 1e-13 * max(1.0, abs(ref))


def test_li2_cut_flag():
    assert li2(1.5).on_cut
    assert li2(1.0).on_cut
    assert not li2(0.5).on_cut
    assert not li2(1.5 + 0.1j).on_cut


def test_bloch_wigner_real_axis_and_special_points():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-50, 50, size=1000):
        assert bloch_wigner(float(x)) == 0.0
    assert bloch_wigner(0) == 0.0
    assert bloch_wigner(1) == 0.0
    assert bloch_wigner("inf") == 0.0
    assert bloch_wigner(float("inf")) == 0.0


NAN = float("nan")


@pytest.mark.parametrize("z", [NAN, complex(NAN, 1), complex(1, NAN), float("inf"),
                               complex(0, float("inf"))],
                         ids=["nan", "nan-real", "nan-imag", "inf", "inf-imag"])
def test_li2_refuses_a_point_that_is_not_finite(z):
    with pytest.raises(HodgeError, match="li2 needs a finite argument"):
        li2(z)


@pytest.mark.parametrize("z", [NAN, complex(NAN, 1), complex(NAN, 0), complex(1, NAN), "nan"],
                         ids=["nan", "nan-real", "nan-real-on-axis", "nan-imag", "nan-text"])
def test_bloch_wigner_refuses_a_nan(z):
    # the point at infinity is a point of the sphere (0 there); a NaN is none
    with pytest.raises(HodgeError, match="bloch_wigner needs a number or infinity"):
        bloch_wigner(z)
    assert bloch_wigner(complex(float("inf"), 1)) == 0.0


def test_catalan_value():
    assert bloch_wigner(1j) == pytest.approx(CATALAN, abs=1e-13)


def test_unit_circle_series():
    theta = np.pi / 3
    ref = sum(np.sin(n * theta) / n ** 2 for n in range(1, 300000))
    assert bloch_wigner(np.exp(1j * theta)) == pytest.approx(ref, abs=1e-10)


def test_five_term_relation(rng):
    worst = 0.0
    count = 0
    while count < 1000:
        x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        y = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(1 - x * y) < 1e-4:
            continue
        count += 1
        r = (bloch_wigner(x) + bloch_wigner(y) + bloch_wigner((1 - x) / (1 - x * y))
             + bloch_wigner(1 - x * y) + bloch_wigner((1 - y) / (1 - x * y)))
        worst = max(worst, abs(r))
    assert worst < 1e-10


@settings(max_examples=120, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=30,
                          allow_nan=False, allow_infinity=False))
def test_inversion_reflection_conjugation(z):
    if abs(z.imag) < 1e-8 or abs(z - 1) < 1e-3:
        return
    d = bloch_wigner(z)
    assert bloch_wigner(1 / z) == pytest.approx(-d, abs=1e-11)
    assert bloch_wigner(1 - z) == pytest.approx(-d, abs=1e-11)
    assert bloch_wigner(np.conj(z)) == pytest.approx(-d, abs=1e-12)


def test_sixfold_symmetry(rng):
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
        d = bloch_wigner(z)
        assert bloch_wigner(1 - 1 / z) == pytest.approx(d, abs=1e-11)
        assert bloch_wigner(1 / (1 - z)) == pytest.approx(d, abs=1e-11)


def test_continuity_across_the_cut():
    for x in (1.5, 2.0, 7.3):
        above = bloch_wigner(x + 1e-9j)
        below = bloch_wigner(x - 1e-9j)
        assert abs(above - below) < 1e-7
        assert abs(above) < 1e-7


def test_high_precision_backend_agrees():
    for z in (0.3 + 0.4j, -2.1 + 1.7j, 1.2 + 0.01j):
        d53 = bloch_wigner(z)
        d200 = mp_bloch_wigner(z, 200)
        assert abs(d53 - d200) < 1e-13
        l53 = li2(z).value
        l200 = mp_li2(z, 200)
        assert abs(l53 - l200) < 1e-13 * max(1.0, abs(l53))
    # on-cut values keep the arg = -pi side
    assert mp_li2(2.0, 120).imag == pytest.approx(
        li2(2.0).value.imag, abs=1e-12)


def test_import_leaves_mpmath_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hodgeheight

    src = str(Path(hodgeheight.__file__).resolve().parents[1])
    code = "import sys, hodgeheight; sys.exit('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
