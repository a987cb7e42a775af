"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and runtime budgets are pinned here and nowhere else.
"""
import time

import numpy as np
import pytest

from hodgeheight.biextension import (
    BiextensionSpec,
    build_biextension,
    extract_invariants,
    random_spec,
    spec_allclose,
)
from hodgeheight.dilog import ZETA2, bloch_wigner
from hodgeheight.height import (
    OrientedMHS,
    Orientation,
    check_functoriality,
    height,
    height_biextension,
)
from hodgeheight.limits import (
    NilpotentOrbit,
    deligne_system_grading,
    limit_height,
    random_deligne_system,
)
from hodgeheight.linalg import expm_nilpotent, maxabs
from hodgeheight.mhs import dual
from hodgeheight.scenarios import (
    TriangleData,
    cubic_orbit,
    dilog_fiber,
    family_triangle,
    scenario_dim0,
    triangle_height_nine,
    triangle_height_six,
)
from hodgeheight.splitting import deligne_delta, lowering_morphisms
from hodgeheight.variations import check_asymptotics, random_hodge_tate

from fixtures import (
    CATALAN,
    component_support,
    conjugate_oriented,
    dual_oriented,
    embed_into_padded,
    rescale_fiber,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_1_dilog_special_values():
    with Budget("1 dilog special values", 1.0):
        assert abs(bloch_wigner(1j) - 0.9159655941772190) < 1e-12
        rng = np.random.default_rng(101)
        xs = rng.uniform(-100.0, 100.0, size=1000)
        assert max(abs(bloch_wigner(float(x))) for x in xs) < 1e-12


def test_criterion_2_five_term_relation():
    with Budget("2 five-term relation", 1.0):
        rng = np.random.default_rng(102)
        worst = 0.0
        count = 0
        while count < 1000:
            x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            y = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(1 - x * y) < 1e-3 or abs(x) > 0.9 or abs(y) > 0.9:
                continue
            count += 1
            r = (bloch_wigner(x) + bloch_wigner(y)
                 + bloch_wigner((1 - x) / (1 - x * y))
                 + bloch_wigner(1 - x * y)
                 + bloch_wigner((1 - y) / (1 - x * y)))
            worst = max(worst, abs(r))
        assert worst < 1e-10, worst


def test_criterion_3_dilog_fiber_heights():
    with Budget("3 dilog fiber heights", 5.0):
        rng = np.random.default_rng(103)
        done = 0
        while done < 100:
            s = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(s) >= 0.9 or abs(s.imag) < 0.05:
                continue
            done += 1
            om = dilog_fiber(s)
            expected = -bloch_wigner(s)
            h1 = height(om)
            h2 = height_biextension(om)
            assert abs(h1 - expected) < 1e-9, (s, h1, expected)
            assert abs(h2 - expected) < 1e-9, (s, h2, expected)
            assert abs(h1 - h2) < 1e-10, (s, h1, h2)


def test_criterion_4_cubic_orbit():
    with Budget("4 cubic-growth orbit", 5.0):
        orbit, orient = cubic_orbit()
        for y in (0.5, 1.0, 2.0, 5.0):
            h = height(OrientedMHS(orbit.fiber(1j * y), orient))
            log_s = -2 * np.pi * y
            assert abs(h - log_s ** 3 / (12 * np.pi ** 3)) < 1e-9
            assert abs(h - (-(2.0 / 3.0) * y ** 3)) < 1e-9
        assert abs(limit_height(orbit, orient)) < 1e-12
        rng = np.random.default_rng(104)
        base = limit_height(orbit, orient)
        for _ in range(20):
            lam = complex(rng.normal(), rng.normal())
            G = expm_nilpotent(lam * orbit.N)
            moved = NilpotentOrbit(orbit.W, orbit.N,
                                   orbit.F_inf.map_spaces(lambda sp: sp.image_under(G)))
            assert abs(limit_height(moved, orient) - base) < 1e-10


def test_criterion_5_triangle_family():
    with Budget("5 triangle family", 10.0):
        rng = np.random.default_rng(105)
        done = 0
        while done < 100:
            t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(t - p) for p in (-2, -1, 0, 1)) < 0.05 or abs(t.imag) < 0.02:
                continue
            done += 1
            T = family_triangle(t)
            h9 = triangle_height_nine(T)
            h6 = triangle_height_six(T)
            assert abs(h9 - h6) < 1e-10, t
            closed = bloch_wigner(-t) / (4 * ZETA2)
            assert abs(h9 - closed) < 1e-9, t
            assert abs(h6 - closed) < 1e-9, t
        assert abs(triangle_height_nine(family_triangle(-1j))
                   - CATALAN / (4 * ZETA2)) < 1e-10
        # sampled approaches to the degenerate parameters tend below 1e-4
        for p in (-2.0, -1.0, 0.0, 1.0):
            vals = [abs(triangle_height_nine(family_triangle(p + eps * (0.6 + 0.8j))))
                    for eps in (1e-2, 1e-4, 1e-6)]
            assert vals[-1] < 1e-4, (p, vals)
            assert vals[-1] <= vals[0] + 1e-12
        vals = [abs(triangle_height_nine(family_triangle(R * 1j)))
                for R in (1e2, 1e4, 1e6)]
        assert vals[-1] < 1e-4 and vals[-1] < vals[0]
        # real-coefficient triangles give zero
        for _ in range(10):
            coeffs = rng.integers(1, 9, size=(3, 3)).astype(float)
            if abs(np.linalg.det(coeffs)) < 1e-9:
                continue
            T = TriangleData(a=tuple(coeffs[0]), b=tuple(coeffs[1]), c=tuple(coeffs[2]))
            assert abs(triangle_height_nine(T)) < 1e-12


def test_criterion_6_splitting_suite():
    with Budget("6 splitting suite", 30.0):
        rng = np.random.default_rng(106)
        for i in range(200):
            spec = random_spec(rng)
            om = build_biextension(spec)
            H = om.mhs
            B = H.bigrading()
            spl = deligne_delta(H)
            # defining relation residual
            G = expm_nilpotent(-2j * spl.delta.astype(complex))
            rel = np.conj(B.Y) - G @ B.Y @ np.linalg.inv(G)
            assert maxabs(rel) < 1e-10
            # realness and Lambda support
            assert maxabs(np.imag(spl.delta)) < 1e-12
            for (a, b) in component_support(spl.hodge_components, 1e-10):
                assert a < 0 and b < 0
            # rescale lemma with a (-1,-1)-morphism
            basis = lowering_morphisms(H)
            if basis:
                N = basis[int(rng.integers(0, len(basis)))]
                t = complex(rng.normal(), rng.normal())
                moved = rescale_fiber(om, N, t)
                d1 = deligne_delta(moved.mhs).delta
                assert maxabs(d1 - spl.delta - t.imag * N) < 1e-10
            # dual identity
            dd = deligne_delta(dual(H)).delta
            assert maxabs(dd + spl.delta.T) < 1e-10
            # conjugation sign on the height
            ht = height(om)
            sign = (-1) ** (om.length // 2 + 1)
            assert abs(height(conjugate_oriented(om)) - sign * ht) < 1e-10
            # dual height
            assert abs(height(dual_oriented(om)) + ht) < 1e-10


def test_criterion_7_biextension_roundtrip():
    with Budget("7 biextension round-trip", 10.0):
        rng = np.random.default_rng(107)
        specs = [random_spec(rng) for _ in range(49)]
        s1 = np.log(2.0) / (2 * np.pi)
        s2 = np.log(3.0) / (2 * np.pi)
        specs.append(BiextensionSpec(weights=(0, -2, -4), middle=(((-1, -1), 2),),
                                     delta1=(s1, s2), delta2=(s2, s1), ht=0.0))
        for spec in specs:
            om = build_biextension(spec)
            back = extract_invariants(om)
            assert spec_allclose(back, spec, 1e-10), (spec, back)
            assert abs(height(om) - spec.ht) < 1e-10
        assert scenario_dim0(2.0, 3.0).roundtrip_ok


def test_criterion_8_hodge_tate_asymptotics():
    with Budget("8 Hodge-Tate asymptotics", 60.0):
        for seed in range(10):
            ranks = (1, 1 + seed % 3, 1)
            v = random_hodge_tate(ranks, 1, seed=seed)
            pts = [([1j * y], [np.exp(2j * np.pi * 1j * y)]) for y in (5.0, 50.0)]
            rep = check_asymptotics(v, pts)
            for p in rep.points:
                assert p.identity_residual < 1e-9, (seed, p)
            gap5, gap50 = rep.points[0].height_gap, rep.points[1].height_gap
            assert gap50 < 1e-3, (seed, gap50)
            assert gap50 < gap5, (seed, gap5, gap50)
        # contrast: the non-Hodge-Tate cubic orbit escapes past 10^3 by y = 12
        orbit, orient = cubic_orbit()
        h12 = height(OrientedMHS(orbit.fiber(12j), orient))
        assert abs(h12) > 1e3


def test_criterion_9_deligne_system_suite():
    with Budget("9 Deligne systems", 30.0):
        # trivial graded action: the grading is returned unchanged, exactly
        import numpy as _np
        from hodgeheight.linalg import Subspace
        from hodgeheight.mhs import weight_filtration

        n = 3
        N = _np.zeros((n, n))
        N[1, 0] = 1.0
        W = weight_filtration([
            (-4, Subspace.from_rows([[0, 0, 1]], n)),
            (-2, Subspace.from_rows([[0, 1, 0], [0, 0, 1]], n)),
            (0, Subspace.full(n)),
        ], n)
        Y = _np.diag([0.0, -2.0, -4.0])
        ds = deligne_system_grading(W, N, Y)
        assert maxabs(ds.Yprime - Y) == 0.0
        rng = np.random.default_rng(109)
        for i in range(20):
            Wr, Nr, Yr = random_deligne_system(rng, max_dim=6)
            ds = deligne_system_grading(Wr, Nr, Yr)
            N0, H, N0p = ds.sl2
            assert maxabs(Yr @ ds.Yprime - ds.Yprime @ Yr) < 1e-10
            assert maxabs(sum(ds.N_components.values()) - Nr) < 1e-10
            for j, part in ds.N_components.items():
                assert maxabs(ds.Yprime @ part - part @ ds.Yprime + j * part) < 1e-10
            assert maxabs(H @ N0 - N0 @ H + 2 * N0) < 1e-10
            assert maxabs(N0p @ N0 - N0 @ N0p - H) < 1e-10
            assert maxabs(H @ N0p - N0p @ H - 2 * N0p) < 1e-10
            assert maxabs((Nr - N0) @ N0p - N0p @ (Nr - N0)) < 1e-10
            lam = complex(rng.normal(), rng.normal())
            ds2 = deligne_system_grading(Wr, Nr, Yr + 2 * lam * Nr)
            G = expm_nilpotent(lam * Nr)
            assert maxabs(ds2.Yprime - G @ ds.Yprime @ np.linalg.inv(G)) < 1e-10


def test_criterion_10_functoriality():
    with Budget("10 functoriality", 5.0):
        rng = np.random.default_rng(110)
        checked = 0
        while checked < 20:
            spec = random_spec(rng)
            kind = checked % 3
            if kind == 0:
                f, A, B = embed_into_padded(spec, extra=1 + checked % 2)
            elif kind == 1:
                A = build_biextension(spec)
                c = float(rng.uniform(0.5, 3.0))
                f, B = c * np.eye(A.mhs.dim), A
            else:
                A = build_biextension(spec)
                lam = float(rng.uniform(0.5, 2.0))
                mu = float(rng.uniform(0.5, 2.0))
                B = OrientedMHS(A.mhs, Orientation.of(lam * A.orientation.top,
                                                      mu * A.orientation.bottom))
                f = np.eye(A.mhs.dim)
            rep = check_functoriality(f, A, B)
            assert rep.residual < 1e-10, (checked, rep)
            checked += 1
