import dataclasses

import numpy as np
import pytest

from hodgeheight.biextension import build_biextension, random_spec
from hodgeheight.dilog import bloch_wigner
from hodgeheight.height import rescale_fiber
from hodgeheight.linalg import graded_parts, logm_unipotent, maxabs
from hodgeheight.mhs import dual
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.splitting import (
    component_support,
    deligne_delta,
    gl_hodge_components,
    lowering_morphisms,
)


def test_components_resolve_random_matrix(rng):
    om = dilog_fiber(0.45 + 0.2j)
    B = om.mhs.bigrading()
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    comps = gl_hodge_components(B, M)
    assert maxabs(sum(comps.values()) - M) < 1e-12


def test_grading_operator_is_pure_zero_type():
    om = dilog_fiber(0.45 + 0.2j)
    B = om.mhs.bigrading()
    comps = gl_hodge_components(B, B.Y)
    assert component_support(comps, 1e-11) == [(0, 0)]


def test_limit_shift_operator_is_pure_minus_one():
    orbit, _ = cubic_orbit()
    from hodgeheight.limits import limit_mhs

    H = limit_mhs(orbit)
    B = H.bigrading()
    comps = gl_hodge_components(B, orbit.N)
    assert component_support(comps, 1e-11) == [(-1, -1)]


def test_split_structure_has_zero_delta():
    orbit, _ = cubic_orbit()
    from hodgeheight.limits import limit_mhs

    spl = deligne_delta(limit_mhs(orbit))
    assert maxabs(spl.delta) < 1e-12


def test_dilog_delta_deep_coefficient_is_height():
    s = 0.35 + 0.55j
    om = dilog_fiber(s)
    spl = deligne_delta(om.mhs)
    assert maxabs(np.imag(spl.delta)) == 0.0
    # the (-2,-2) block sends the top lift to -D2(s) times the bottom vector
    from hodgeheight.height import top_lift

    e = top_lift(om)
    # the lift is the same at another tolerance
    assert np.array_equal(top_lift(om, 1e-8), e)
    v = spl.component(-2, -2) @ e
    assert abs(v[2] - (-bloch_wigner(s))) < 1e-12


def group_log_delta(B, tol=1e-9):
    """Oracle for deligne_delta: g = 1 + x with g Y = conj(Y) g and x strictly
    lowering the weight filtration, by one linear solve; delta = (i/2) log g."""
    Y = B.Y
    Ybar = np.conj(Y)
    n = B.ambient_dim
    span = max(B.weights) - min(B.weights)

    def lower(A):
        # strictly-lowering part of gl via ad-Y eigenprojections
        out = np.zeros_like(A)
        for m in range(-1, -(span + 1), -1):
            out = out + graded_parts(B.weight_projectors, A).get(m, 0)
        return out

    # unknown x constrained to the lowering subalgebra: parametrize by a basis
    basis = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            L = lower(E)
            if maxabs(L) > 1e-12:
                basis.append(L)
    if not basis:
        return np.zeros((n, n), dtype=complex)
    cols = np.array([(b @ Y - Ybar @ b).flatten() for b in basis]).T
    coeff, *_ = np.linalg.lstsq(cols, (Ybar - Y).flatten(), rcond=None)
    x = sum(c * b for c, b in zip(coeff, basis))
    assert maxabs(x @ Y - Ybar @ x - (Ybar - Y)) <= tol * max(maxabs(Y), 1.0)
    return 0.5j * logm_unipotent(np.eye(n) + x)


def test_two_solvers_agree_on_random_structures(rng):
    for _ in range(25):
        om = build_biextension(random_spec(rng))
        s1 = deligne_delta(om.mhs)
        s2 = group_log_delta(om.mhs.bigrading())
        assert maxabs(s1.delta - s2) < 1e-10


def test_delta_support_in_lambda(rng):
    for _ in range(10):
        om = build_biextension(random_spec(rng))
        spl = deligne_delta(om.mhs)
        for (a, b) in component_support(spl.hodge_components, 1e-10):
            assert a < 0 and b < 0


def test_rescale_lemma_on_dilog():
    # moving the Hodge filtration by exp(tN) adds Im(t) N to the splitting
    om = dilog_fiber(0.52 + 0.33j)
    basis = lowering_morphisms(om.mhs)
    assert basis
    N = basis[0]
    t = 1.2 - 0.7j
    moved = rescale_fiber(om, N, t)
    d0 = deligne_delta(om.mhs).delta
    d1 = deligne_delta(moved.mhs).delta
    assert maxabs(d1 - d0 - t.imag * N) < 1e-10


def test_rescale_lemma_on_cubic_orbit_limit():
    # N is a (-1,-1)-morphism of the limit structure (not of the fibers, where
    # its components have mixed type), so the rescale identity holds there
    orbit, orient = cubic_orbit()
    from hodgeheight.height import OrientedMHS
    from hodgeheight.limits import limit_mhs
    from hodgeheight.splitting import component_support

    H = limit_mhs(orbit)
    om = OrientedMHS(H, orient)
    comps = gl_hodge_components(H.bigrading(), orbit.N)
    assert component_support(comps, 1e-11) == [(-1, -1)]
    t = 1 + 2j
    moved = rescale_fiber(om, orbit.N, t)
    d0 = deligne_delta(H).delta
    d1 = deligne_delta(moved.mhs).delta
    assert maxabs(d1 - d0 - t.imag * orbit.N) < 1e-10


def test_dual_splitting_is_minus_transpose(rng):
    for _ in range(8):
        om = build_biextension(random_spec(rng))
        d = deligne_delta(om.mhs).delta
        dd = deligne_delta(dual(om.mhs)).delta
        assert maxabs(dd + d.T) < 1e-10


def test_morphism_equivariance(rng):
    from hodgeheight.biextension import embed_into_padded

    for _ in range(6):
        spec = random_spec(rng)
        f, A, B = embed_into_padded(spec, extra=1)
        dA = deligne_delta(A.mhs).delta
        dB = deligne_delta(B.mhs).delta
        assert maxabs(f @ dA - dB @ f) < 1e-10


def test_lowering_morphisms_are_pure_type(rng):
    om = build_biextension(random_spec(rng))
    B = om.mhs.bigrading()
    for N in lowering_morphisms(om.mhs)[:4]:
        comps = gl_hodge_components(B, N.astype(complex))
        support = component_support(comps, 1e-9)
        assert all(key == (-1, -1) for key in support)


def test_splitting_cached_per_tolerance(monkeypatch):
    H = dilog_fiber(0.35 + 0.55j).mhs
    assert deligne_delta(H, 1e-9) is deligne_delta(H, 1e-9)
    assert deligne_delta(H, 1e-8) is not deligne_delta(H, 1e-9)
    # tol=None resolves to the current default before the lookup
    assert deligne_delta(H) is deligne_delta(H, 1e-9)
    monkeypatch.setenv("HODGE_TOL", "1e-10")
    assert deligne_delta(H) is deligne_delta(H, 1e-10)
    assert deligne_delta(H) is not deligne_delta(H, 1e-9)


def test_shared_splitting_and_top_lift_are_read_only():
    # the top lift is computed per call and not shared, so it may be written
    om = dilog_fiber(0.35 + 0.55j)
    spl = deligne_delta(om.mhs)
    arrays = [spl.delta, *spl.hodge_components.values()]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spl.delta = np.zeros((3, 3))
    with pytest.raises(TypeError):
        spl.hodge_components[(0, 0)] = np.zeros((3, 3))
