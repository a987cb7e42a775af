"""Turnkey reproductions of the worked examples, each with closed-form
expected values next to the machinery's output.

* dilog: the rank-3 variation whose fiber height is minus the Bloch-Wigner
  function of the parameter.
* orbit6iii: a rank-4 nilpotent orbit whose fiber heights grow like the cube
  of log|s| while the limit height vanishes.
* triangle: heights of a pair of triangles of lines in the projective plane,
  via nine or six dilogarithm terms.
* family: the one-parameter triangle family whose height is
  D2(-t) / (4 zeta(2)).
* dim0: the dimension-zero pair with splitting slots log|a|/2pi, log|b|/2pi
  and vanishing height.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, pi

import numpy as np

from .biextension import BiextensionSpec, build_biextension, extract_invariants, spec_allclose
from .config import DEFAULT_TOL
from .dilog import ZETA2, bloch_wigner, li2, principal_log
from .errors import DegenerateTriangle, HodgeError
from .height import Orientation, OrientedMHS, height, height_biextension
from .limits import NilpotentOrbit, limit_height
from .mhs import MixedHodgeStructure, split_filtration
from .variations import DILOG_W


# ---------------------------------------------------------------------------
# dilog fiber


def dilog_fiber(s: complex, tol: float = DEFAULT_TOL) -> OrientedMHS:
    """The weight (0, -2, -4) fiber at s, in coordinates where the bottom
    generator is the canonical one that makes the height exactly -D2(s).

    The Hodge line is spanned by
        e0 = u0 + log(1-s)/(2 pi i) u1 - (log(1-s) log(s) + Li2(s)) u2
    and the next level adds e1 = u1/(2 pi i) - log(s) u2: F is the split
    filtration of e0, e1, u2 at levels 0, -1, -2, a basis since it is
    triangular with diagonal 1, 1/(2 pi i), 1.  W is the dilog variation's
    variations.DILOG_W, so every fiber shares its adapted basis.
    """
    s = complex(s)
    if not np.isfinite(np.abs(s)) or s in (0.0, 1.0):
        raise HodgeError(f"dilog fiber needs s of finite modulus outside {{0, 1}}, got s = {s}")
    l1s = principal_log(1.0 - s)
    ls = principal_log(s)
    L2 = li2(s).value
    tp = 2j * pi
    basis = np.array([[1.0, l1s / tp, -(l1s * ls + L2)],    # e0
                      [0.0, 1.0 / tp, -ls],                 # e1
                      [0.0, 0.0, 1.0]], dtype=complex)      # u2
    F = split_filtration([0, -1, -2], False, basis, tol)
    return OrientedMHS(MixedHodgeStructure(DILOG_W, F),
                       Orientation.of([1, 0, 0], [0, 0, 1]))


@dataclass
class DilogScenario:
    s: complex
    height_general: float
    height_biextension: float
    expected: float
    bigrading_ok: bool
    paths_agree: bool


def scenario_dilog(s: complex, tol: float = DEFAULT_TOL) -> DilogScenario:
    """Height of the dilog fiber two ways; both must equal -D2(s)."""
    om = dilog_fiber(s, tol)
    report = om.mhs.validate(tol)
    h1 = height(om, tol)
    h2 = height_biextension(om, tol)
    expected = -bloch_wigner(s)
    return DilogScenario(s=complex(s), height_general=h1, height_biextension=h2,
                         expected=expected, bigrading_ok=report.ok,
                         paths_agree=abs(h1 - h2) <= 1e-10)


# ---------------------------------------------------------------------------
# the cubic-growth nilpotent orbit


def cubic_orbit() -> tuple[NilpotentOrbit, Orientation]:
    """Weights (0, -3, -6) with rank-two middle; N is the full shift string and
    the limit structure is split over the reals."""
    n = 4
    N = np.zeros((n, n))
    N[1, 0] = N[2, 1] = N[3, 2] = 1.0
    orbit = NilpotentOrbit(split_filtration([0, -3, -3, -6], True), N,
                           split_filtration([0, -1, -2, -3], False))
    return orbit, Orientation.of(np.eye(n)[0], np.eye(n)[3])


@dataclass
class OrbitScenario:
    z: complex
    fiber_height: float
    limit_height: float
    expected_fiber: float


def scenario_orbit6iii(z: complex, tol: float = DEFAULT_TOL) -> OrbitScenario:
    """Fiber height (1/12 pi^3) (log|s|)^3 with s = exp(2 pi i z); limit 0."""
    z = complex(z)
    if z.imag <= 0:
        raise HodgeError("the orbit fiber needs Im(z) > 0")
    orbit, orient = cubic_orbit()
    fiber = orbit.fiber(z, tol)
    om = OrientedMHS(fiber, orient)
    h = height(om, tol)
    log_s = -2 * pi * z.imag
    expected = log_s ** 3 / (12 * pi ** 3)
    lim = limit_height(orbit, orient, tol)
    return OrbitScenario(z=z, fiber_height=h, limit_height=lim, expected_fiber=expected)


# ---------------------------------------------------------------------------
# triangles


@dataclass(frozen=True)
class TriangleData:
    """Coefficient triples of three linear sections, plus the scale factors on
    the leading rational function of each triangle."""

    a: tuple[complex, complex, complex]
    b: tuple[complex, complex, complex]
    c: tuple[complex, complex, complex]
    alpha: complex = 1.0
    beta: complex = 1.0

    def __post_init__(self):
        for name in ("a", "b", "c", "alpha", "beta"):
            if not np.isfinite(np.abs(value := getattr(self, name))).all():
                raise DegenerateTriangle(f"triangle parameter {name} = {value} is not finite")
        if self.alpha == 0 or self.beta == 0:
            raise DegenerateTriangle("scale factors must be nonzero")
        # the formulas take ratios of products of two coefficients, normal doubles while
        # each nonzero |x| is in 2^-511 .. 2^511 and within 2^511 of the largest; each
        # section and each coordinate x_j is defined up to scale, so columns rescaled by
        # their largest entry, then rows by theirs, decide general position
        mag = np.abs(M := np.array([self.a, self.b, self.c], dtype=complex))
        lo = max(2.0 ** -511, mag.max() / 2.0 ** 511)
        for name, row in zip("abc", mag):
            if not all(lo <= x <= 2.0 ** 511 for x in row if x):
                raise DegenerateTriangle(f"triangle parameter {name} = {getattr(self, name)} is "
                                         "out of range for the nine- and six-term formulas")
        cols = mag.max(axis=0)
        if (not cols.all() or not (rows := (mag / cols).max(axis=1, keepdims=True)).all()
                or abs(np.linalg.det(M / cols / rows)) < 1e-12):
            raise DegenerateTriangle("sections do not form a triangle")


_CYCLIC = [(1, 2), (2, 0), (0, 1)]


def _nine_cross_ratios(T: TriangleData) -> list[complex]:
    out = []
    letters = [T.a, T.b, T.c]
    for i1, i2 in _CYCLIC:
        for li in range(3):
            x = letters[li]
            y = letters[(li + 1) % 3]
            den = x[i1] * y[i2]
            if den == 0:
                raise DegenerateTriangle("vanishing coefficient product in a cross-ratio")
            out.append(x[i2] * y[i1] / den)
    return out


def triangle_height_nine(T: TriangleData) -> float:
    """Nine-term formula: sum of D2 over the cyclic cross-ratios, divided by
    (2 pi i)^2."""
    total = sum(bloch_wigner(r) for r in _nine_cross_ratios(T))
    return total / -(4 * pi ** 2)


def triangle_height_six(T: TriangleData) -> float:
    """Six-term reduction via the five-term relation, two terms per cyclic
    index pair."""
    a, b, c = T.a, T.b, T.c
    total = 0.0
    for i1, i2 in _CYCLIC:
        d_ab = a[i2] * b[i1] - a[i1] * b[i2]
        d_bc = b[i1] * c[i2] - b[i2] * c[i1]
        d_ac = a[i2] * c[i1] - a[i1] * c[i2]
        if d_bc == 0 or d_ac == 0 or a[i2] == 0 or b[i1] == 0:
            raise DegenerateTriangle("five-term reduction hits a vanishing denominator")
        total += bloch_wigner(d_ab / d_bc * (c[i2] / a[i2]))
        total += bloch_wigner(d_ab / d_ac * (c[i1] / b[i1]))
    return total / -(4 * pi ** 2)


def _intersections_with_axes(T: TriangleData) -> np.ndarray:
    """p[i][j]: intersection of section line i with the coordinate line x_j = 0,
    as a projective point."""
    letters = [T.a, T.b, T.c]
    pts = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        v = letters[i]
        for j in range(3):
            # x_j = 0 and v . x = 0
            k1, k2 = (j + 1) % 3, (j + 2) % 3
            x = np.zeros(3, dtype=complex)
            if v[k1] == 0 and v[k2] == 0:
                raise DegenerateTriangle("section line contains a coordinate vertex")
            x[k1], x[k2] = v[k2], -v[k1]
            pts[i, j] = x
    return pts


def triangle_delta_blocks(T: TriangleData) -> tuple[np.ndarray, np.ndarray]:
    """The nine point contributions of the splitting blocks: entry (i, j) is
    log|scale_j f_j(p_ij)|^2 / (4 pi) for the coordinate-triangle functions
    evaluated at the intersection points (multiplicities one), and the
    transposed data for the section triangle."""
    pts = _intersections_with_axes(T)
    letters = [np.asarray(T.a, complex), np.asarray(T.b, complex), np.asarray(T.c, complex)]
    beta_vec = [complex(T.beta), 1.0, 1.0]
    alpha_vec = [complex(T.alpha), 1.0, 1.0]
    d_c = np.zeros((3, 3))
    d_c_dual = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            p = pts[i, j]
            num, den = p[(j + 1) % 3], p[(j + 2) % 3]
            if num == 0 or den == 0:
                raise DegenerateTriangle("intersection point lies on another coordinate line")
            d_c[i, j] = (log(abs(beta_vec[j])) + log(abs(num / den))) / (2 * pi)
            # section-triangle functions f_i = s_{i+1}/s_{i+2} at the same point
            num2 = letters[(i + 1) % 3] @ p
            den2 = letters[(i + 2) % 3] @ p
            if num2 == 0 or den2 == 0:
                raise DegenerateTriangle("intersection point lies on another section line")
            d_c_dual[i, j] = (log(abs(alpha_vec[i])) + log(abs(num2 / den2))) / (2 * pi)
    return d_c, d_c_dual


@dataclass
class TriangleScenario:
    ht_nine: float
    ht_six: float
    delta_C: tuple[float, ...]
    machinery_height: float
    roundtrip_ok: bool

    @property
    def consistent(self) -> bool:
        return abs(self.ht_nine - self.ht_six) < 1e-10


def scenario_triangle(T: TriangleData, tol: float = DEFAULT_TOL) -> TriangleScenario:
    """Nine- and six-term heights, the nine splitting slots, and a biextension
    built from the extracted invariants as a machinery cross-check."""
    ht9 = triangle_height_nine(T)
    ht6 = triangle_height_six(T)
    d_c, d_c_dual = triangle_delta_blocks(T)
    reg_z = -log(abs(complex(T.alpha))) / (2 * pi)
    reg_w = -log(abs(complex(T.beta))) / (2 * pi)
    spec = BiextensionSpec(
        weights=(0, -2, -4),
        middle=(((-1, -1), 10),),
        delta1=(reg_z,) + tuple(d_c.flatten()),
        delta2=(reg_w,) + tuple(d_c_dual.flatten()),
        ht=ht9,
    )
    om = build_biextension(spec)
    h_machine = height(om, tol)
    rt = spec_allclose(extract_invariants(om, tol), spec, 1e-9)
    return TriangleScenario(ht_nine=ht9, ht_six=ht6, delta_C=tuple(d_c.flatten()),
                            machinery_height=h_machine, roundtrip_ok=rt)


# ---------------------------------------------------------------------------
# the one-parameter family


_FAMILY_EXCLUDED = (-2.0, -1.0, 0.0, 1.0)


@dataclass
class FamilyScenario:
    t: complex
    height: float
    closed_form: float
    reduced_form: float
    limit_values: dict[str, float]


def family_triangle(t: complex) -> TriangleData:
    return TriangleData(a=(1, t, 1), b=(1, 1, t), c=(t, 1, 1))


def scenario_family(t: complex) -> FamilyScenario:
    """Height of the family triangle at t: equals both
    3 (2 D2(t) + D2(t^-2)) / (2 pi i)^2 and D2(-t) / (4 zeta(2)); the
    limit_values sample approaches to the degenerate parameters."""
    t = complex(t)
    if not 2.0 ** -511 <= np.abs(t) <= 2.0 ** 511 or t in _FAMILY_EXCLUDED:  # t^2, t^-2 normal
        raise DegenerateTriangle(f"family parameter t = {t} is excluded")
    ht = triangle_height_nine(family_triangle(t))
    closed = (2 * bloch_wigner(t) + bloch_wigner(t ** -2)) * 3 / -(4 * pi ** 2)
    reduced = bloch_wigner(-t) / (4 * ZETA2)
    limits = {}
    for p in _FAMILY_EXCLUDED:
        tt = p + 1e-6 * complex(0.6, 0.8)
        limits[str(p)] = triangle_height_nine(family_triangle(tt))
    limits["inf"] = triangle_height_nine(family_triangle(1e6j))
    return FamilyScenario(t=t, height=ht, closed_form=closed, reduced_form=reduced,
                          limit_values=limits)


# ---------------------------------------------------------------------------
# dimension zero


@dataclass
class DimZeroScenario:
    spec: BiextensionSpec
    extracted: BiextensionSpec        # what extract_invariants reads back
    roundtrip_ok: bool
    height: float


def scenario_dim0(a: complex, b: complex, tol: float = DEFAULT_TOL) -> DimZeroScenario:
    """Splitting slots log|a|/2pi and log|b|/2pi with height zero."""
    a, b = complex(a), complex(b)
    for name, x in (("a", a), ("b", b)):
        if not np.isfinite(np.abs(x)) or x in (0, 1):
            raise HodgeError(f"dim0 parameter {name} = {x} must be of finite modulus, not 0 or 1")
    s1 = log(abs(a)) / (2 * pi)
    s2 = log(abs(b)) / (2 * pi)
    spec = BiextensionSpec(weights=(0, -2, -4), middle=(((-1, -1), 2),),
                           delta1=(s1, s2), delta2=(s2, s1), ht=0.0)
    om = build_biextension(spec)
    back = extract_invariants(om, tol)
    return DimZeroScenario(spec=spec, extracted=back,
                           roundtrip_ok=spec_allclose(back, spec, 1e-9), height=height(om, tol))
