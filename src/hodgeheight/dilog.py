"""Dilogarithm and the single-valued Bloch-Wigner function.

li2 evaluates the principal branch (cut along [1, inf), arguments normalized
to -pi <= arg < pi) to full double accuracy everywhere: the power series on
the small disk, the inversion and reflection functional equations to move
into |z| <= 1, Re z <= 1/2, and there the Bernoulli series in -log(1-z),
whose convergence radius 2*pi comfortably covers that region.

bloch_wigner is Im(li2) + arg(1-z) log|z|, continuous on the whole Riemann
sphere and vanishing at 0, 1, infinity and on the real axis.

Both evaluate in doubles; the tests check them against a high-precision
mpmath oracle (tests/fixtures.py).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import atan2, comb, log, pi

from .errors import HodgeError

ZETA2 = pi * pi / 6


def _bernoulli(count: int) -> list[float]:
    vals = [Fraction(1)]
    for m in range(1, count):
        s = Fraction(0)
        for k in range(m):
            s += comb(m + 1, k) * vals[k]
        vals.append(-s / (m + 1))
    return [float(v) for v in vals]


_BERNOULLI = _bernoulli(44)


def principal_arg(z: complex) -> float:
    """Argument normalized to -pi <= arg < pi (negative reals map to -pi)."""
    a = atan2(z.imag, z.real)
    if a == pi:
        a = -pi
    return a


def principal_log(z: complex) -> complex:
    return complex(log(abs(z)), principal_arg(z))


@dataclass(frozen=True)
class BranchedValue:
    value: complex
    on_cut: bool


def _li2_core(z: complex) -> complex:
    """Bernoulli series; requires |z| <= 1 and Re z <= 1/2."""
    y = -principal_log(1.0 - z)
    total = 0.0 + 0.0j
    term = y
    for n, b in enumerate(_BERNOULLI):
        total += b * term
        term *= y / (n + 2)
    return total


def li2(z: complex) -> BranchedValue:
    """Principal-branch dilogarithm with the cut along [1, inf), at a finite z."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise HodgeError(f"li2 needs a finite argument, got {z}")
    on_cut = z.imag == 0.0 and z.real >= 1.0
    if z == 0:
        return BranchedValue(0.0 + 0.0j, False)
    if z == 1:
        return BranchedValue(complex(ZETA2), True)
    extra = 0.0 + 0.0j
    sign = 1.0
    if abs(z) > 1.0:
        extra += -ZETA2 - 0.5 * principal_log(-z) ** 2
        sign = -sign
        z = 1.0 / z
    if z.real > 0.5:
        extra += sign * (ZETA2 - principal_log(z) * principal_log(1.0 - z))
        sign = -sign
        z = 1.0 - z
    return BranchedValue(sign * _li2_core(z) + extra, on_cut)


def bloch_wigner(z) -> float:
    """The single-valued dilogarithm Im(Li2) + arg(1-z) log|z|.

    Accepts what complex() does, float('inf') or "inf" being the point at
    infinity, but no NaN.  Identically zero on the real axis and at 0, 1, inf.
    """
    z = complex(z)
    if cmath.isnan(z):
        raise HodgeError(f"bloch_wigner needs a number or infinity, got {z}")
    if cmath.isinf(z) or z.imag == 0.0:
        return 0.0
    value = li2(z).value.imag + principal_arg(1.0 - z) * log(abs(z))
    return float(value)
