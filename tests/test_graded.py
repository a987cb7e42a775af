"""The grading frame (linalg.Frame): its algebra on random direct sums, and
the bigrading's projectors, weight parts and Hodge components against the
selector-matrix construction they replace."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgeheight.errors import HodgeError
from hodgeheight.linalg import Frame, maxabs
from hodgeheight.scenarios import dilog_fiber
from hodgeheight.splitting import _ad_exp, _group_element, gl_hodge_components

from test_lattice import _cases, _moved, _random_structures, _rational_gl


@st.composite
def _direct_sum(draw):
    """Pieces of C^n (n <= 6) keyed by integer weights or (p, q) bidegrees:
    the columns of a well-conditioned C, grouped by a random key per column."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        key = st.integers(-3, 3)
    else:
        key = st.tuples(st.integers(-2, 1), st.integers(-2, 1))
    labels = draw(st.lists(key, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    R = np.triu(rng.uniform(-1, 1, size=(n, n)), 1) + np.diag(rng.uniform(1, 2, size=n))
    C = Q @ R
    pieces = {k: np.array([C[:, i] for i in range(n) if labels[i] == k]) for k in set(labels)}
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return pieces, A


def _shift(k, g):
    return tuple(a + b for a, b in zip(k, g)) if isinstance(k, tuple) else k + g


@settings(max_examples=100, deadline=None)
@given(_direct_sum())
def test_graded_projectors_and_parts_on_random_direct_sums(case):
    pieces, A = case
    n = A.shape[0]
    frame = Frame.of(pieces)
    proj = frame.projectors
    assert sorted(proj) == sorted(pieces)
    scale = max([maxabs(P) for P in proj.values()] + [1.0]) ** 2
    eps = 1e-10 * scale
    for k, P in proj.items():
        assert maxabs(P @ P - P) <= eps
        assert maxabs(P @ pieces[k].T - pieces[k].T) <= eps
        for l, Q in proj.items():
            if l != k:
                assert maxabs(P @ Q) <= eps
    assert maxabs(sum(proj.values()) - np.eye(n)) <= eps

    parts = frame.parts(frame.coordinates(A))
    eps *= scale * max(maxabs(A), 1.0)
    assert maxabs(sum(parts.values()) - A) <= eps
    for g, part in parts.items():
        for k, P in proj.items():
            target = proj.get(_shift(k, g), np.zeros((n, n)))
            # the part of degree g maps piece k into piece k + g
            assert maxabs(part @ P - target @ part @ P) <= eps


@settings(max_examples=100, deadline=None)
@given(_direct_sum())
def test_graded_part_is_one_entry_of_graded_parts(case):
    # every degree in range, present or not, for int and (p, q) keys alike
    pieces, A = case
    n = A.shape[0]
    frame = Frame.of(pieces)
    parts = frame.parts(frame.coordinates(A))
    if isinstance(next(iter(pieces)), tuple):
        degrees = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    else:
        degrees = range(-7, 8)
    for g in degrees:
        want = parts.get(g, np.zeros((n, n), dtype=complex))
        assert np.array_equal(frame.lift(frame.coordinates(A), g), want), g


def reference_fixed_point(B, tol):
    """w with Ad(exp(w)) Y = conj(Y) by a fixed point, each step summing
    every negative weight part of the mismatch divided by minus its weight."""
    Y, n = B.Y, B.ambient_dim
    scale = max(maxabs(Y), 1.0)
    w = np.zeros((n, n), dtype=complex)
    for _ in range(max(B.weight_projectors) - min(B.weight_projectors) + 3):
        R = np.conj(Y) - _ad_exp(w, Y)
        if maxabs(R) <= 1e-3 * tol * scale:
            return w
        f = B.weight_frame
        w = w + sum(P / -m for m, P in f.parts(f.coordinates(R)).items() if m < 0)
    return w


def _relation(B, w):
    return maxabs(np.conj(B.Y) - _ad_exp(w, B.Y)) / max(maxabs(B.Y), 1.0)


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _cases()])
def test_fixed_point_sums_the_pairs_below_the_diagonal(build):
    # the splitting's closed form sum_k conj(P_k) P_k against the limit of
    # the oracle's fixed point, whose steps sum the pairs below the diagonal.
    # Where the iteration stops short of the relation (the moved (1,2,2,1)
    # fiber, at about 2e-7), both are rounding noise at that level, so only
    # the verdict is compared there
    B = build().bigrading(1e-9)
    got, want = _group_element(B), reference_fixed_point(B, 1e-9)
    assert (_relation(B, got) <= 1e-9) == (_relation(B, want) <= 1e-9)
    if _relation(B, want) <= 1e-9:
        assert maxabs(got - want) <= 1e-12 * max(maxabs(want), 1.0)


def test_closed_form_splitting_matches_the_fixed_point_on_random_structures():
    # biextensions, Hodge-Tate, cubic and dilog fibers, as built and moved
    # by an integer g in GL_n(Q); a moved W may admit no bigrading at tol.
    # The two are solves of one equation, each off the exact w by about its
    # own residual: on a moved W both meet the relation at up to 4e-10 and
    # differ by up to 2.8e-10 relative, so the bound adds both residuals
    rng = np.random.default_rng(1717)
    for H in _random_structures(rng):
        for G in (H, _moved(H, _rational_gl(H.dim, rng))):
            try:
                B = G.bigrading(1e-9)
            except HodgeError:
                continue
            got, want = _group_element(B), reference_fixed_point(B, 1e-9)
            assert (_relation(B, got) <= 1e-9) == (_relation(B, want) <= 1e-9)
            if _relation(B, want) <= 1e-9:
                bound = 1e-12 + _relation(B, got) + _relation(B, want)
                assert maxabs(got - want) <= bound * max(maxabs(want), 1.0)


# ---------------------------------------------------------------------------
# the bigrading against the selector-matrix construction


def selector_projectors(B):
    """basis @ E @ inv(basis), E the 0/1 diagonal selecting the columns of
    one component, the component bases stacked as columns in key order."""
    n = B.ambient_dim
    keys = sorted(B.components)
    basis = np.vstack([B.components[k].basis for k in keys]).T
    Cinv = np.linalg.inv(basis)
    proj = {}
    idx = 0
    for key in keys:
        d = B.components[key].dim
        E = np.zeros((n, n), dtype=complex)
        for j in range(idx, idx + d):
            E[j, j] = 1.0
        proj[key] = basis @ E @ Cinv
        idx += d
    return proj


def selector_weight_projector(proj, k, n):
    out = np.zeros((n, n), dtype=complex)
    for (p, q), P in proj.items():
        if p + q == k:
            out = out + P
    return out


def selector_ad_weight_component(proj, A, m, n):
    """The component of A on which ad Y acts as multiplication by m."""
    weights = sorted({p + q for p, q in proj})
    out = np.zeros((n, n), dtype=complex)
    for k in weights:
        if k + m in weights:
            out = out + selector_weight_projector(proj, k + m, n) @ A \
                @ selector_weight_projector(proj, k, n)
    return out


def selector_hodge_components(proj, M):
    out = {}
    for (c, d), right in sorted(proj.items()):
        for (p, q), left in sorted(proj.items()):
            block = left @ M @ right
            key = (p - c, q - d)
            out[key] = out[key] + block if key in out else block
    return out


def _close(got, want):
    return maxabs(got - want) <= 1e-12 * max(maxabs(want), 1.0)


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _cases()])
def test_bigrading_projectors_match_selector_construction(build):
    B = build().bigrading()
    n = B.ambient_dim
    want = selector_projectors(B)
    assert sorted(B.projectors) == sorted(want)
    for key, P in want.items():
        assert _close(B.projectors[key], P), key
    for k in B.weight_projectors:
        assert _close(B.weight_projectors[k], selector_weight_projector(want, k, n)), k
    assert _close(B.Y, sum((p + q) * P for (p, q), P in want.items()))

    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    parts = B.weight_frame.parts(B.weight_frame.coordinates(A))
    span = max(B.weight_projectors) - min(B.weight_projectors)
    for m in range(-span, span + 1):
        ref = selector_ad_weight_component(want, A, m, n)
        assert _close(parts.get(m, np.zeros((n, n))), ref), m
    comps = gl_hodge_components(B, A)
    ref = selector_hodge_components(want, A)
    assert sorted(comps) == sorted(ref)
    for key in ref:
        assert _close(comps[key], ref[key]), key


def test_shared_projectors_and_grading_are_read_only():
    H = dilog_fiber(0.3 + 0.7j).mhs
    B = H.bigrading()
    assert H.bigrading() is B
    arrays = [B.Y, *B.projectors.values(), *B.weight_projectors.values()]
    assert all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        B.Y[0, 0] = 1.0
    with pytest.raises(ValueError):
        B.projectors[(0, 0)][0, 0] = 1.0
    with pytest.raises(TypeError):
        B.projectors[(0, 0)] = np.eye(3)
    with pytest.raises(TypeError):
        B.weight_projectors[0] = np.eye(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        B.Y = np.eye(3)
