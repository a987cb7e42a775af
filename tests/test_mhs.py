import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hodgeheight.errors import MalformedFiltration, NotAnMHS
from hodgeheight.linalg import Subspace, maxabs
from hodgeheight.mhs import (
    Filtration,
    MixedHodgeStructure,
    conjugate,
    deligne_bigrading,
    dual,
    hodge_filtration,
    is_hodge_tate,
    is_morphism,
    rational_mhs,
    split_filtration,
    tate_twist,
    validate,
    weight_filtration,
)
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from test_linalg import contains_vector


def test_rational_structure_validates():
    H = rational_mhs(0)
    assert validate(H).ok
    B = deligne_bigrading(H)
    assert list(B.components) == [(0, 0)]


def test_tate_structure_single_component():
    for a in (-2, 1, 3):
        H = rational_mhs(a)
        B = deligne_bigrading(H)
        assert list(B.components) == [(-a, -a)]
        assert B.components[(-a, -a)].dim == 1


def test_dilog_fiber_validates_and_has_diagonal_bigrading():
    om = dilog_fiber(2 + 1j)
    report = validate(om.mhs)
    assert report.ok, report.failures
    B = om.mhs.bigrading()
    assert sorted(B.components) == [(-2, -2), (-1, -1), (0, 0)]
    assert all(s.dim == 1 for s in B.components.values())
    assert is_hodge_tate(om.mhs)


def test_artificial_failure_real_line_in_pure_weight():
    # pure weight 0 in rank 2 with a real Hodge line: conj(I^{1,-1}) cannot
    # avoid I^{1,-1} itself, so the candidate sum is not direct
    n = 2
    W = weight_filtration([(0, Subspace.full(n))], n)
    F = hodge_filtration([(1, Subspace.from_rows([[1, 1]], n)),
                          (0, Subspace.full(n))], n)
    H = MixedHodgeStructure(W, F)
    report = validate(H)
    assert not report.ok
    assert report.failures
    with pytest.raises(NotAnMHS):
        H.bigrading()


def test_good_weight_zero_pair_of_conjugate_lines():
    # types (1,-1) and (-1,1): F jumps from everything to the line at level 0
    n = 2
    W = weight_filtration([(0, Subspace.full(n))], n)
    F = hodge_filtration([(1, Subspace.from_rows([[1, 1j]], n)),
                          (-1, Subspace.full(n))], n)
    H = MixedHodgeStructure(W, F)
    assert validate(H).ok
    assert sorted(H.bigrading().components) == [(-1, 1), (1, -1)]


def test_malformed_filtration_raises():
    n = 2
    with pytest.raises(MalformedFiltration):
        weight_filtration([(0, Subspace.from_rows([[1, 0]], n))], n)  # not exhaustive
    with pytest.raises(MalformedFiltration):
        weight_filtration([(0, Subspace.full(n)),
                           (1, Subspace.from_rows([[1, 0]], n))], n)  # not nested


def test_a_step_with_a_non_finite_entry_is_malformed():
    # the dilog fiber with one NaN entry in the basis of its full step F^-2:
    # the echelon basis of that step is all NaN; without the finite check,
    # validate passes the structure and height returns the fiber's value
    om = dilog_fiber(0.4 + 0.65j)
    (p, full), = [(p, s) for p, s in om.mhs.F.steps if s.dim == 3]
    M = full.basis.copy()
    M[2, 0] = np.nan
    with np.errstate(invalid="ignore"):
        bad = Subspace.from_rows(M, 3)
    assert not np.isfinite(bad.basis).all()
    message = "step basis has an entry that is not finite"
    with pytest.raises(MalformedFiltration, match=message):
        hodge_filtration([(k, bad if k == p else s) for k, s in om.mhs.F.steps], 3)
    # a map that moves a step onto it is caught as well
    with pytest.raises(MalformedFiltration, match=message):
        om.mhs.F.map_spaces(lambda s: bad if s is full else s)
    # an exact step is finite, and a finite float step passes
    assert om.mhs.F.map_spaces(lambda s: s).steps == om.mhs.F.steps


def reference_at(filt, k):
    """The step at k by a scan: the last index <= k of an increasing
    filtration, the first index >= k of a decreasing one, else None."""
    hits = [s for idx, s in filt.steps if (idx <= k if filt.increasing else idx >= k)]
    return (hits[-1] if filt.increasing else hits[0]) if hits else None


def test_at_matches_the_step_scan():
    # every k around and between the jumps, and one zero per filtration
    for H in (cubic_orbit()[0].fiber(2j), dilog_fiber(0.4 + 0.65j).mhs, rational_mhs(0)):
        for filt in (H.W, H.F):
            lo, hi = filt.indices[0], filt.indices[-1]
            zeros = set()
            for k in range(lo - 3, hi + 4):
                want = reference_at(filt, k)
                if want is None:
                    assert filt.at(k).dim == 0
                    zeros.add(id(filt.at(k)))
                else:
                    assert filt.at(k) is want
            assert len(zeros) == 1


_levels = st.lists(st.integers(-3, 3), min_size=1, max_size=8)


def _selected(levels, increasing, k):
    return [lev <= k if increasing else lev >= k for lev in levels]


def _is_full(step, n):
    full = Subspace.full(n)
    return (step.exact == full.exact and step.pivots == full.pivots
            and np.array_equal(step.basis, full.basis))


@settings(max_examples=150, deadline=None)
@given(_levels, st.booleans())
def test_split_filtration_of_the_coordinate_basis_matches_from_rows(levels, increasing):
    # unit rows are built as they are, without a row reduction: each step must
    # be the one from_rows reduces from the same rows
    n = len(levels)
    filt = split_filtration(levels, increasing)
    assert filt.indices == sorted(set(levels)) and filt.increasing is increasing
    for k, step in filt.steps:
        ref = Subspace.from_rows(np.eye(n)[_selected(levels, increasing, k)], n)
        assert step.exact == ref.exact and step.pivots == ref.pivots
        assert np.array_equal(step.basis, ref.basis)
    assert _is_full(filt.steps[-1 if increasing else 0][1], n)
    # the steps nest, as the checking constructor confirms
    Filtration(filt.steps, increasing, n)


@settings(max_examples=80, deadline=None)
@given(_levels, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_split_filtration_of_a_complex_basis_matches_from_rows(levels, increasing, seed):
    # every step of fewer than n rows is from_rows of its rows; the step of all
    # n rows is the full space, whose row reduction may round off the identity
    n = len(levels)
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    filt = split_filtration(levels, increasing, basis)
    assert filt.indices == sorted(set(levels))
    for k, step in filt.steps:
        mask = _selected(levels, increasing, k)
        if all(mask):
            assert _is_full(step, n)
        else:
            ref = Subspace.from_rows(basis[mask], n)
            assert step.pivots == ref.pivots and np.array_equal(step.basis, ref.basis)
    Filtration(filt.steps, increasing, n)


@settings(max_examples=80, deadline=None)
@given(_levels, st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_moved_steps_are_the_images_of_the_steps(levels, increasing, coordinate, seed):
    # moved(g) keeps the rows of the adapted basis times g^T and reads each
    # step off them on first use: it is the image of the step under g; the
    # full step and the zero space are this filtration's own
    n = len(levels)
    rng = np.random.default_rng(seed)
    basis = None if coordinate else rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assume(np.linalg.cond(g) < 1e4 and (coordinate or np.linalg.cond(basis) < 1e4))
    filt = split_filtration(levels, increasing, basis)
    moved = filt.moved(g)
    assert moved.indices == filt.indices and moved.increasing is increasing
    for k in range(min(levels) - 1, max(levels) + 2):
        step = filt.at(k)
        assert moved.dim_at(k) == step.dim
        if step.dim in (0, n):
            assert moved.at(k) is step
        else:
            assert moved.at(k).equals(step.image_under(g), 1e-9)


def test_moved_keeps_the_finite_and_rank_checks():
    F = split_filtration([0, -1, -2], False)
    g = np.eye(3)
    g[1, 0] = np.inf
    with pytest.raises(MalformedFiltration, match="step basis has an entry that is not finite"):
        F.moved(g)
    # g sends e0 and e1 to one line: F^-1 keeps dimension 2 in the flag,
    # and the echelon of its rows, taken on each read, finds one pivot
    collapsed = F.moved(np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]]))
    assert collapsed.dim_at(-1) == 2 and collapsed.at(0).dim == 1
    for _ in range(2):
        with pytest.raises(MalformedFiltration,
                           match="Hodge filtration steps must strictly decrease"):
            collapsed.at(-1)


def test_split_filtration_and_shift_check_no_nesting(monkeypatch):
    calls = []
    contains = Subspace.contains

    def counted(self, other, tol=1e-9):
        calls.append(other)
        return contains(self, other, tol)

    monkeypatch.setattr(Subspace, "contains", counted)
    levels = [0, -1, -1, -2, -3]
    rng = np.random.default_rng(5)
    basis = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    for filt in (split_filtration(levels, True), split_filtration(levels, False),
                 split_filtration(levels, False, basis)):
        filt.shift(3)
    assert calls == []
    # the counter sees the checking constructor's nesting check
    Filtration(filt.steps, False, 5)
    assert len(calls) == len(filt.steps) - 1


def test_bigrading_reconstructs_filtrations():
    om = dilog_fiber(-0.3 + 0.7j)
    H = om.mhs
    B = H.bigrading()
    for p in range(min(H.levels), max(H.levels) + 1):
        span = Subspace.zero(H.dim)
        for (a, b), s in B.components.items():
            if a >= p:
                span = span.add(s)
        assert span.equals(H.F.at(p))
    for k in H.weights:
        span = Subspace.zero(H.dim)
        for (a, b), s in B.components.items():
            if a + b <= k:
                span = span.add(s)
        assert span.equals(H.W.at(k))


def test_projectors_resolve_identity():
    om = dilog_fiber(0.2 + 0.9j)
    B = om.mhs.bigrading()
    total = sum(B.projectors[key] for key in sorted(B.components))
    assert maxabs(total - np.eye(om.mhs.dim)) < 1e-12
    Y = B.Y
    for (p, q) in sorted(B.components):
        col = B.components[(p, q)].basis[0]
        assert maxabs(Y @ col - (p + q) * col) < 1e-12


def test_cubic_orbit_fiber_components():
    # rank-4 orbit fiber at z=i: one-dimensional pieces at (0,0), (-1,-2),
    # (-2,-1), (-3,-3)
    orbit, _ = cubic_orbit()
    H = orbit.fiber(1j)
    B = H.bigrading()
    assert sorted(B.components) == [(-3, -3), (-2, -1), (-1, -2), (0, 0)]
    z = 1j
    nu0 = np.array([1, z, z ** 2 / 2, z ** 3 / 6], dtype=complex)
    nu1 = np.array([0, 1, z, z ** 2 / 2], dtype=complex)
    nu2 = np.array([0, 0, 1, z], dtype=complex)
    assert contains_vector(B.components[(0, 0)], nu0)
    assert contains_vector(B.components[(-1, -2)], nu1)
    assert contains_vector(B.components[(-2, -1)], nu1 + (np.conj(z) - z) * nu2)
    assert contains_vector(B.components[(-3, -3)], [0, 0, 0, 1])


def test_twist_round_trip_and_shift():
    om = dilog_fiber(0.5 + 0.25j)
    H = om.mhs
    H1 = tate_twist(H, 1)
    assert sorted(H1.bigrading().components) == [(-3, -3), (-2, -2), (-1, -1)]
    back = tate_twist(H1, -1)
    assert back.weights == H.weights and back.levels == H.levels
    assert sorted(back.bigrading().components) == sorted(H.bigrading().components)
    assert tate_twist(rational_mhs(0), 2).weights == rational_mhs(2).weights


def test_dual_of_tate_and_double_dual():
    for a in (-1, 0, 2):
        D = dual(rational_mhs(a))
        assert D.weights == rational_mhs(-a).weights
        assert D.levels == rational_mhs(-a).levels
    H = dilog_fiber(1 + 2j).mhs
    DD = dual(dual(H))
    assert DD.weights == H.weights
    assert sorted(DD.bigrading().components) == sorted(H.bigrading().components)
    for key, piece in DD.bigrading().components.items():
        assert piece.equals(H.bigrading().components[key], 1e-8)


def test_dual_annihilator_pattern():
    H = dilog_fiber(0.3 - 0.4j).mhs
    D = dual(H)
    BD = D.bigrading()
    B = H.bigrading()
    assert sorted(BD.components) == sorted((-p, -q) for (p, q) in B.components)
    for (p, q), piece in BD.components.items():
        for (c, d), other in B.components.items():
            if (c, d) != (-p, -q):
                prod = piece.basis @ other.basis.T
                assert maxabs(prod) < 1e-9


def test_conjugate_involution_and_split_fixed():
    H = rational_mhs(1)
    assert conjugate(H).levels == H.levels
    Hd = dilog_fiber(0.6 + 0.3j).mhs
    CC = conjugate(conjugate(Hd))
    for p, s in CC.F.steps:
        assert s.equals(Hd.F.at(p))


def test_conjugate_dilog_is_fiber_at_conjugate_up_to_sign():
    # conj of the fiber at s matches the fiber at conj(s) after flipping the
    # middle rational basis vector (odd-weight generator sign)
    s = 0.37 + 0.81j
    Hc = conjugate(dilog_fiber(s).mhs)
    Hs = dilog_fiber(np.conj(s)).mhs
    flip = np.diag([1.0, -1.0, 1.0])
    for p in (-1, 0):
        assert Hs.F.at(p).equals(Hc.F.at(p).image_under(flip), 1e-9)


def test_twist_commutes_with_dual_up_to_sign():
    H = dilog_fiber(0.2 + 0.2j).mhs
    A = dual(tate_twist(H, 1))
    Bst = tate_twist(dual(H), -1)
    assert A.weights == Bst.weights and A.levels == Bst.levels
    for key, piece in A.bigrading().components.items():
        assert piece.equals(Bst.bigrading().components[key], 1e-8)


def test_morphism_preserves_components():
    # exp(lambda N) conjugates between dilog-like split fibers; instead use a
    # simple diagonal morphism of a biextension onto itself
    om = dilog_fiber(0.1 + 0.5j)
    H = om.mhs
    T = np.diag([2.0, 2.0, 2.0])
    assert is_morphism(T, H, H)
    B = H.bigrading()
    for key, piece in B.components.items():
        assert piece.image_under(T).equals(piece, 1e-9)
    # a non-morphism: swaps weight levels
    S = np.zeros((3, 3))
    S[0, 2] = 1.0
    S[2, 0] = 1.0
    S[1, 1] = 1.0
    assert not is_morphism(S, H, H)


def test_embedding_morphism_respects_bigrading(rng):
    from hodgeheight.biextension import random_spec
    from fixtures import embed_into_padded

    spec = random_spec(rng)
    f, A, B = embed_into_padded(spec)
    assert is_morphism(f, A.mhs, B.mhs)
    BA, BB = A.mhs.bigrading(), B.mhs.bigrading()
    for key, piece in BA.components.items():
        assert BB.components[key].contains(piece.image_under(f), 1e-9)


def test_dilog_fiber_explicit_basis_vectors():
    # the diagonal pieces are the lines through the transformed frame vectors
    from math import pi

    s = 0.28 + 0.47j
    om = dilog_fiber(s)
    B = om.mhs.bigrading()
    tp = 2j * pi
    l1s, ls = np.log(1 - s), np.log(s)
    import mpmath

    L2 = complex(mpmath.polylog(2, s))
    e0 = [1.0, l1s / tp, -(l1s * ls + L2)]
    e1 = [0.0, 1.0 / tp, -ls]
    assert contains_vector(B.components[(0, 0)], e0)
    assert contains_vector(B.components[(-1, -1)], e1)
    assert contains_vector(B.components[(-2, -2)], [0, 0, 1])


def test_twist_by_zero_is_identity():
    H = dilog_fiber(0.3 + 0.3j).mhs
    T = tate_twist(H, 0)
    assert T.weights == H.weights and T.levels == H.levels
    for p, s in T.F.steps:
        assert s.equals(H.F.at(p))


def test_conjugate_fixes_real_split_structure():
    from hodgeheight.limits import limit_mhs
    from hodgeheight.scenarios import cubic_orbit

    H = limit_mhs(cubic_orbit()[0])
    C = conjugate(H)
    for p, s in C.F.steps:
        assert s.equals(H.F.at(p))


def test_caches_are_keyed_by_tolerance():
    H = dilog_fiber(0.3 + 0.6j).mhs
    assert H.validate(1e-12) is H.validate(1e-12)
    assert H.bigrading(1e-12) is H.bigrading(1e-12)
    assert H.bigrading(1e-3) is not H.bigrading(1e-12)
    assert H.validate(1e-3) is not H.validate(1e-12)
    assert H.bigrading() is H.bigrading(1e-9)


# ---------------------------------------------------------------------------
# oracle: is_morphism asked through an image and a Subspace.contains per weight


def reference_is_morphism(T, A: MixedHodgeStructure, B: MixedHodgeStructure,
                          tol: float = 1e-9) -> bool:
    """True when the real matrix T maps A.W_k into B.W_k and A.F^p into
    B.F^p for every index of either structure."""
    T = np.asarray(T, dtype=complex)
    if maxabs(T.imag) > tol * max(1.0, maxabs(T)):
        return False
    for k in sorted(set(A.weights) | set(B.weights)):
        if not B.W.at(k).contains(A.W.at(k).image_under(T, tol), tol):
            return False
    for p in sorted(set(A.levels) | set(B.levels)):
        if not B.F.at(p).contains(A.F.at(p).image_under(T, tol), tol):
            return False
    return True


def _morphism_probes(rng):
    """(T, A, B): the padded embeddings of built biextensions, integer maps
    of a structure to itself and to its move by g, identities, and the
    identity plus 1e-4 times a map that swaps the ends of W."""
    from hodgeheight.biextension import random_spec
    from fixtures import embed_into_padded
    from test_lattice import _moved, _rational_gl

    for _ in range(20):
        f, A, B = embed_into_padded(random_spec(rng))
        yield f, A.mhs, B.mhs
        yield np.eye(A.mhs.dim), A.mhs, A.mhs
        yield np.eye(A.mhs.dim) + 1e-4 * np.eye(A.mhs.dim)[::-1], A.mhs, A.mhs
        g = _rational_gl(A.mhs.dim, rng)
        moved = _moved(A.mhs, g)
        yield g, A.mhs, moved
        yield g, A.mhs, A.mhs
        yield np.linalg.inv(g), moved, A.mhs
        yield g @ f.T, B.mhs, moved
        yield rng.integers(-2, 3, size=f.shape), A.mhs, B.mhs
    for s in (0.25 + 0.5j, -1.5 + 0.3j, 2.5 - 1.2j):
        H = dilog_fiber(s).mhs
        yield np.eye(3), H, H
        yield np.triu(rng.integers(-2, 3, size=(3, 3))).T, H, H
        yield rng.integers(-2, 3, size=(3, 3)), H, H


def test_is_morphism_agrees_with_the_subspace_oracle():
    rng = np.random.default_rng(4242)
    verdicts = []
    for T, A, B in _morphism_probes(rng):
        want = reference_is_morphism(T, A, B)
        assert is_morphism(T, A, B) == want
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)
