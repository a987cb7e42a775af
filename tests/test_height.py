import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodgeheight.biextension import build_biextension, random_spec
from hodgeheight.dilog import bloch_wigner
from hodgeheight.errors import (
    HodgeError,
    NotAMorphism,
    NotAnMHS,
    NotGeneralizedBiextension,
    NotInjectiveOnEnds,
    NotOriented,
)
from hodgeheight.height import (
    Orientation,
    OrientedMHS,
    check_functoriality,
    height,
    height_biextension,
    rho2,
)
from hodgeheight.limits import limit_mhs, moved_fiber
from hodgeheight.linalg import Subspace, maxabs
from hodgeheight.mhs import MixedHodgeStructure
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.splitting import deligne_delta, lowering_morphisms
from fixtures import (
    conjugate_oriented,
    dual_oriented,
    embed_into_padded,
    mp_bloch_wigner,
    rescale_fiber,
)
from test_lattice import _cases, _rational_gl
from test_linalg import contains_vector


def test_split_real_structure_has_zero_height():
    # four-weight split limit: general path only
    orbit, orient = cubic_orbit()
    om = OrientedMHS(limit_mhs(orbit), orient)
    assert height(om) == pytest.approx(0.0, abs=1e-12)
    # three-weight split case: both paths give zero
    from hodgeheight.biextension import BiextensionSpec

    split = build_biextension(BiextensionSpec(
        weights=(0, -2, -4), middle=(((-1, -1), 2),),
        delta1=(0.0, 0.0), delta2=(0.0, 0.0), ht=0.0))
    assert height(split) == pytest.approx(0.0, abs=1e-12)
    assert height_biextension(split) == pytest.approx(0.0, abs=1e-12)


def test_dilog_height_both_paths():
    for s in (0.3 + 0.4j, -1.1 + 0.8j, 2.0 - 1.5j):
        om = dilog_fiber(s)
        expected = -bloch_wigner(s)
        assert height(om) == pytest.approx(expected, abs=1e-11)
        assert height_biextension(om) == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("s", [
    1e-300 * np.exp(0.7j), 1e-100 * np.exp(2.1j), 1e-8 * np.exp(-1.2j),
    1 + 1e-15 * np.exp(0.4j), 1 + 1e-10 * np.exp(2.5j), 1 + 1e-6 * np.exp(-2j),
])
def test_dilog_height_near_zero_and_one_is_right_to_a_relative_bound(s):
    om = dilog_fiber(s)
    expected = -mp_bloch_wigner(s, 200)
    assert height(om) == pytest.approx(expected, rel=1e-14, abs=0)
    assert height_biextension(om) == pytest.approx(expected, rel=1e-14, abs=0)


@pytest.mark.parametrize("s", [1e6 + 1j, 1e10 * (1 + 1j), -1e8 + 5j, 1e30j])
def test_dilog_height_toward_infinity_is_right_to_an_absolute_bound(s):
    # D2(s) -> 0 as s -> infinity while the entries of the fiber grow like
    # log|s|, so the general path is right only up to an absolute error
    # (relative error 1.0e-3 at 1e6 + i, and no correct sign at 1e30 i)
    om = dilog_fiber(s)
    expected = -mp_bloch_wigner(s, 200)
    assert height(om) == pytest.approx(expected, rel=0, abs=1e-13)
    assert height_biextension(om) == pytest.approx(expected, rel=0, abs=1e-13)


def test_cubic_fiber_height_formula():
    orbit, orient = cubic_orbit()
    for y in (0.5, 1.0, 2.0):
        om = OrientedMHS(orbit.fiber(1j * y), orient)
        expected = -(2.0 / 3.0) * y ** 3
        assert height(om) == pytest.approx(expected, abs=1e-9)
        # three nonzero weights: the conjugation shortcut applies as well
        assert height_biextension(om) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("y", [57.5, 60.0, 100.0, 200.0, 260.0, 400.0, 1000.0,
                               1443.0, 1500.0, 1800.0])
def test_cubic_fiber_height_toward_the_boundary(y):
    # the cubic limit is R-split, so the fiber at iy is the fiber at i moved
    # by the real y^(-Y/2): its bigrading is that of the fiber at i moved,
    # with no lattice of its own (NilpotentOrbit.fiber)
    orbit, orient = cubic_orbit()
    expected = -(2.0 / 3.0) * y ** 3
    assert height(OrientedMHS(orbit.fiber(1j * y), orient)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("y", [400.0, 1000.0, 1500.0, 1818.0, 3000.0, 1e4, 1e5, 1e6])
def test_cubic_fiber_past_the_frontier_is_right_or_a_typed_error(y):
    # the name is kept from when a HodgeError was allowed here; that escape
    # is gone: past y = 1817 the literal lattice of the fiber fails its
    # direct sum (next test), and the fiber moved from i must still be right
    orbit, orient = cubic_orbit()
    value = height(OrientedMHS(orbit.fiber(1j * y), orient))
    assert value == pytest.approx(-(2.0 / 3.0) * y ** 3, rel=1e-12)


def test_orbit_fiber_past_the_frontier_names_its_failed_axioms():
    # the literal route: exp(iyN) F_inf validated by its own lattice, which
    # loses a piece at y = 1818
    orbit, _ = cubic_orbit()
    with pytest.raises(NotAnMHS) as exc:
        moved_fiber(orbit.W, orbit.F_inf, orbit.exp(1818j),
                    "orbit fiber at z = 1818j is not a mixed Hodge structure: ")
    assert str(exc.value) == ("orbit fiber at z = 1818j is not a mixed Hodge structure: "
                              "direct-sum: component dimensions add to 3, expected 4")


def _moved_cubic_draws():
    """Integer g with entries in -2..2 and |det g| >= 0.5, from numpy seeds
    0-59 (54 draws)."""
    for seed in range(60):
        g = np.random.default_rng(seed).integers(-2, 3, size=(4, 4)).astype(float)
        if abs(np.linalg.det(g)) >= 0.5:
            yield g


@pytest.mark.parametrize("y", [10.0, 20.0, 50.0, 100.0, 200.0])
def test_moved_cubic_fiber_height_is_right_or_a_typed_error(y):
    # the splitting's residual on these fibers sits near tol: the answer is
    # right or a typed error, never a NaN height, a LinAlgError (the splitting
    # inverts no matrix) or a numpy warning
    orbit, orient = cubic_orbit()
    om = OrientedMHS(orbit.fiber(1j * y), orient)
    expected = -(2.0 / 3.0) * y ** 3
    draws = list(_moved_cubic_draws())
    assert len(draws) == 54
    for g in draws:
        moved = _moved_oriented(om, g)
        try:
            delta = deligne_delta(moved.mhs).delta
        except HodgeError:
            continue
        assert np.isfinite(delta).all()
        assert height(moved) == pytest.approx(expected, rel=1e-9)


def _moved_oriented(om: OrientedMHS, g: np.ndarray) -> OrientedMHS:
    H = om.mhs
    moved = MixedHodgeStructure(H.W.map_spaces(lambda s: s.image_under(g)),
                                H.F.map_spaces(lambda s: s.image_under(g)))
    return OrientedMHS(moved, Orientation.of(g @ om.orientation.top,
                                             g @ om.orientation.bottom))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["biextension", "dilog", "cubic"]))
# dilog draws on which the general splitting solve raised NoConvergence (the
# first four) and two on which it did not
@example(121185, "dilog")
@example(6338, "dilog")
@example(7223, "dilog")
@example(26781, "dilog")
@example(363, "dilog")
@example(7497, "dilog")
def test_height_is_invariant_under_a_rational_change_of_coordinates(seed, kind):
    # g is an isomorphism (W, F) -> (g W, g F) carrying the orientation, so
    # functoriality with d_max = d_min = 1 says the height does not change.
    # The moved W is rational but no longer made of coordinate subspaces, and
    # the general splitting solve loses accuracy there (NoConvergence on 4
    # in 5 cubic fibers past y = 5, and on 1 in 300 biextensions): the answer
    # must then be a typed error, never a wrong value.  Dilog fibers are
    # Hodge-Tate: their splitting and height come from the period matrix in
    # the coordinates of the moved W, with no residual verdict, so an error
    # there fails the test.
    rng = np.random.default_rng(seed)
    if kind == "biextension":
        om = build_biextension(random_spec(rng))
    elif kind == "dilog":
        om = dilog_fiber(complex(rng.uniform(-2.0, 3.0), rng.choice([-1, 1]) * rng.uniform(0.05, 2.0)))
    else:
        orbit, orient = cubic_orbit()
        om = OrientedMHS(orbit.fiber(1j * rng.uniform(0.5, 20.0)), orient)
    n = om.mhs.dim
    g = rng.integers(-2, 3, size=(n, n)).astype(float)
    while abs(np.linalg.det(g)) < 0.5:
        g = rng.integers(-2, 3, size=(n, n)).astype(float)
    moved = _moved_oriented(om, g)
    assert all(s.is_exact() for _, s in moved.mhs.W.steps)
    try:
        rep = check_functoriality(g, om, moved)
    except HodgeError:
        if kind == "dilog":
            raise
        return
    assert rep.d_max == pytest.approx(1.0) and rep.d_min == pytest.approx(1.0)
    assert rep.height_b == pytest.approx(rep.height_a, rel=1e-8, abs=1e-9)


def test_biextension_guard_rejects_four_weights():
    om = dilog_fiber(0.4 + 0.4j)
    from hodgeheight.linalg import Subspace
    from hodgeheight.mhs import MixedHodgeStructure, hodge_filtration, weight_filtration

    # direct sum with a weight -6 line: four nonzero weights
    n = 4
    W = weight_filtration([
        (-6, Subspace.from_rows([[0, 0, 0, 1]], n)),
        (-4, Subspace.from_rows([[0, 0, 1, 0], [0, 0, 0, 1]], n)),
        (-2, Subspace.from_rows(np.eye(n)[1:], n)),
        (0, Subspace.full(n)),
    ], n)
    base = om.mhs.F
    F = hodge_filtration([
        (0, Subspace.from_rows([list(base.at(0).basis[0]) + [0]], n)),
        (-1, Subspace.from_rows([list(r) + [0] for r in base.at(-1).basis], n)),
        (-2, Subspace.from_rows([list(r) + [0] for r in base.at(-2).basis], n)),
        (-3, Subspace.full(n)),
    ], n)
    H4 = MixedHodgeStructure(W, F)
    om4 = OrientedMHS(H4, Orientation.of([1, 0, 0, 0], [0, 0, 0, 1]))
    with pytest.raises(NotGeneralizedBiextension):
        height_biextension(om4)
    # the general path still works
    assert isinstance(height(om4), float)


def test_not_oriented_errors():
    orbit, orient = cubic_orbit()
    H = orbit.fiber(1j)
    with pytest.raises(NotOriented):
        height(OrientedMHS(H, Orientation.of([0, 1, 0, 0], [0, 0, 0, 1])))
    bad = OrientedMHS(H, Orientation.of([1, 0, 0, 0], [0, 0, 1, 0]))
    with pytest.raises(NotOriented):
        height(bad)


def test_rho2_special_values():
    assert rho2((2j * np.pi) ** 2 * 1j) == pytest.approx(1.0, abs=1e-15)
    assert rho2(7.25) == pytest.approx(0.0, abs=1e-15)
    assert rho2(4 * np.pi ** 2 * 1j) == pytest.approx(-1.0, abs=1e-15)


def test_functoriality_identity_and_scaling():
    om = dilog_fiber(0.25 + 0.5j)
    rep = check_functoriality(np.eye(3), om, om)
    assert rep.d_max == pytest.approx(1.0) and rep.d_min == pytest.approx(1.0)
    assert rep.residual < 1e-12
    rep = check_functoriality(2.5 * np.eye(3), om, om)
    assert rep.d_max == pytest.approx(2.5) and rep.d_min == pytest.approx(2.5)
    assert rep.residual < 1e-12


def test_functoriality_block_embedding(rng):
    for _ in range(5):
        spec = random_spec(rng)
        f, A, B = embed_into_padded(spec)
        rep = check_functoriality(f, A, B)
        assert rep.residual < 1e-10


def test_check_oriented_builds_no_subspace(monkeypatch):
    # the check reads coordinates on the adapted basis of W, which W builds
    # once, so it makes no Subspace and is cheap enough to run on every call
    from hodgeheight.height import _check_oriented

    made = []
    init = Subspace.__init__
    monkeypatch.setattr(Subspace, "__init__",
                        lambda self, *a, **kw: made.append(a) or init(self, *a, **kw))
    for om in (dilog_fiber(0.25 + 0.5j), build_biextension(random_spec(np.random.default_rng(5)))):
        om.mhs.W.inverse
        made.clear()
        _check_oriented(om.mhs.W, om.orientation, 1e-9)
        bottom = om.orientation.bottom
        with pytest.raises(NotOriented):
            _check_oriented(om.mhs.W, Orientation.of(bottom, bottom), 1e-9)
        assert made == []


def test_functoriality_rejects_non_morphism():
    om = dilog_fiber(0.3 + 0.3j)
    S = np.zeros((3, 3))
    S[0, 2] = S[2, 0] = S[1, 1] = 1.0
    with pytest.raises(NotAMorphism):
        check_functoriality(S, om, om)
    with pytest.raises(NotInjectiveOnEnds):
        f = np.diag([1.0, 1.0, 0.0])
        # kills the bottom generator but respects both filtrations? it does
        # not (F^-2 image escapes), so accept either failure mode
        try:
            check_functoriality(f, om, om)
        except NotAMorphism:
            raise NotInjectiveOnEnds("collapsed to filtration failure")


def test_height_of_dual_is_minus_height(rng):
    for _ in range(8):
        om = build_biextension(random_spec(rng))
        hd = height(dual_oriented(om))
        assert hd == pytest.approx(-height(om), abs=1e-10)
    om = dilog_fiber(0.22 + 0.61j)
    assert height(dual_oriented(om)) == pytest.approx(-height(om), abs=1e-10)


def test_height_of_conjugate_sign(rng):
    for _ in range(8):
        om = build_biextension(random_spec(rng))
        sign = (-1) ** (om.length // 2 + 1)
        assert height(conjugate_oriented(om)) == pytest.approx(
            sign * height(om), abs=1e-10)


def test_rescale_invariance_of_height_long_structures(rng):
    # length > 2: the height ignores exp(tN) moves of the Hodge filtration
    om = dilog_fiber(0.7 + 0.2j)
    N = lowering_morphisms(om.mhs)[0]
    h0 = height(om)
    for t in (0.5, 1j, -2.0 + 1.5j):
        assert height(rescale_fiber(om, N, t)) == pytest.approx(h0, abs=1e-10)


def test_rescale_slope_for_length_two(rng):
    # two-weight structures: the height moves linearly in Im(t) with slope the
    # end-to-end coefficient of N
    spec = random_spec(rng)
    two_a, b, two_c = spec.weights
    from hodgeheight.biextension import BiextensionSpec

    short = BiextensionSpec(weights=(0, -1, -2), middle=(((0, -1), 1),),
                            delta1=(0.0, 0.0), delta2=(0.0, 0.0), ht=0.4)
    om = build_biextension(short)
    N = None
    for cand in lowering_morphisms(om.mhs):
        if abs(cand[om.mhs.dim - 1, 0]) > 1e-8:
            N = cand
            break
    assert N is not None
    slope = N[om.mhs.dim - 1, 0]
    h0 = height(om)
    for t in (1j, 2.0 + 3j):
        moved = height(rescale_fiber(om, N, t))
        assert moved - h0 == pytest.approx(t.imag * slope, abs=1e-10)


def test_coefficient_against_bottom_is_checked():
    from hodgeheight.errors import ZeroBottomPairing
    from hodgeheight.height import _coefficient_against_bottom

    bottom = np.array([0, 0, 1], dtype=complex)
    assert _coefficient_against_bottom(np.array([0, 0, 2.5]), bottom, 1e-9, 1.0) == 2.5
    with pytest.raises(ZeroBottomPairing, match="not proportional"):
        _coefficient_against_bottom(np.array([1, 5, 2 + 3j]), bottom, 1e-9, 1.0)
    with pytest.raises(ZeroBottomPairing, match="nonreal"):
        _coefficient_against_bottom(np.array([0, 0, 2 + 3j]), bottom, 1e-9, 1.0)


def test_coefficient_against_bottom_rejects_nan():
    # nan > bound is False, so the guards are written as "not <= bound"
    from hodgeheight.errors import ZeroBottomPairing
    from hodgeheight.height import _coefficient_against_bottom

    bottom = np.array([0, 0, 1], dtype=complex)
    for vec in (np.array([0, 0, np.nan]), np.array([np.nan, 0, 2.5]),
                np.array([0, 0, complex(1, np.nan)])):
        with pytest.raises(ZeroBottomPairing):
            _coefficient_against_bottom(vec, bottom, 1e-9, 1.0)


# ---------------------------------------------------------------------------
# oracles: the top lift and d_max solved from the linear systems the
# least-squares versions solved, independent of the weight projectors and
# pivot reads that top_lift and check_functoriality use.  Both systems are
# square and invertible on a valid oriented structure, so they are solved
# directly: np.linalg.lstsq on the lift system is itself off by 1.0e-12
# relative (against the closed form 62500/3) on the cubic fiber at y = 50.


def solved_top_lift(om: OrientedMHS) -> np.ndarray:
    """The element of I^{a,a} congruent to the top generator modulo
    W_(max-1), from the columns of I^{a,a} and W_(max-1)."""
    H = om.mhs
    a = om.max_weight // 2
    piece = H.bigrading().components[(a, a)]
    A = np.vstack([piece.basis, H.W.at(om.max_weight - 1).basis]).T
    x = np.linalg.solve(A, np.asarray(om.orientation.top, dtype=complex))
    return x[: piece.dim] @ piece.basis


def solved_d_max(f: np.ndarray, A: OrientedMHS, B: OrientedMHS) -> complex:
    """d_max with f(1_A) = d_max 1_B modulo W_(max-1), from the columns 1_B
    and W_(max-1)."""
    cols = np.vstack([[B.orientation.top], B.mhs.W.at(B.max_weight - 1).basis]).T
    return np.linalg.solve(cols, f @ A.orientation.top)[0]


def _oriented(H: MixedHodgeStructure) -> OrientedMHS:
    """H with rational generators: the first coordinate vector outside
    W_(max-1) and the basis row of W_min (rank one, as every lattice case
    has it)."""
    below = H.W.at(max(H.weights) - 1)
    top = next(e for e in np.eye(H.dim) if not contains_vector(below, e))
    return OrientedMHS(H, Orientation.of(top, np.real(H.W.at(min(H.weights)).basis[0])))


def _oriented_cases():
    """(id, factory) pairs: the lattice cases with generators read off W,
    built biextensions, dilog fibers and cubic fibers moved by GL_4(Q)."""
    for name, build in _cases():
        yield f"lattice-{name}", lambda build=build: _oriented(build())
    rng = np.random.default_rng(1618)
    for i in range(4):
        spec = random_spec(rng)
        yield f"biextension-{i}", lambda spec=spec: build_biextension(spec)
    for s in (0.25 + 0.5j, -1.5 + 0.3j, 2.5 - 1.2j):
        yield f"dilog-{s}", lambda s=s: dilog_fiber(s)
    for y in (0.5, 2.0, 10.0):
        g = _rational_gl(4, rng)
        yield f"moved-cubic-{y}", lambda y=y, g=g: _moved_oriented(
            OrientedMHS(cubic_orbit()[0].fiber(1j * y), cubic_orbit()[1]), g)


ORIENTED = [pytest.param(b, id=name) for name, b in _oriented_cases()]


def delta_rr_height(om: OrientedMHS) -> float:
    """delta^{r,r} (r = -length/2) on the top lift, against the bottom
    generator: the Hodge component of the splitting that P_min delta P_max
    equals on the top lift, since the bottom piece is I^{c,c} alone."""
    from hodgeheight.height import top_lift

    r = -(om.length // 2)
    vec = deligne_delta(om.mhs).component(r, r) @ top_lift(om)
    bottom = om.orientation.bottom
    j = int(np.argmax(np.abs(bottom)))
    return float((vec[j] / bottom[j]).real)


def _lattice_oriented_cases():
    """The lattice cases with generators read off W, as they are and moved
    by a rational g."""
    for i, (name, build) in enumerate(_cases()):
        yield name, lambda build=build: _oriented(build())
        yield f"moved-{name}", lambda build=build, i=i: _moved_oriented(
            _oriented(build()), _rational_gl(build().dim, np.random.default_rng(i)))


@pytest.mark.parametrize("build", [pytest.param(b, id=name)
                                   for name, b in _lattice_oriented_cases()])
def test_height_matches_the_delta_rr_oracle(build):
    # the error of a height is absolute on the scale of delta
    om = build()
    try:
        scale = max(1.0, maxabs(deligne_delta(om.mhs).delta))
    except HodgeError:
        with pytest.raises(HodgeError):
            height(om)
        return
    assert abs(height(om) - delta_rr_height(om)) <= 1e-12 * scale


@pytest.mark.parametrize("build", ORIENTED)
def test_top_lift_matches_solved_oracle(build):
    from hodgeheight.height import top_lift

    om = build()
    want = solved_top_lift(om)
    assert maxabs(top_lift(om) - want) <= 1e-12 * maxabs(want)


@pytest.mark.parametrize("build", ORIENTED)
def test_functoriality_d_max_matches_solved_oracle(build, monkeypatch):
    # f = g in GL_n(Q) carries A onto B = g A, whose top generator is
    # -5/2 g 1_A plus an element of W_(max-1), so d_max = -2/5.  The heights
    # are stubbed: this compares the d_max read alone, also where the
    # splitting of a moved structure fails (see the invariance property above)
    monkeypatch.setattr(sys.modules["hodgeheight.height"], "height", lambda om, tol=None: 0.0)
    A = build()
    g = _rational_gl(A.mhs.dim, np.random.default_rng(A.mhs.dim))
    moved = _moved_oriented(A, g)
    w = np.real(moved.mhs.W.at(moved.max_weight - 1).basis[-1])
    B = OrientedMHS(moved.mhs, Orientation.of(-2.5 * moved.orientation.top + 3 * w,
                                              moved.orientation.bottom))
    rep = check_functoriality(g, A, B)
    want = solved_d_max(g, A, B)
    assert abs(rep.d_max - want) <= 1e-12 * abs(want)
    assert rep.d_max == pytest.approx(-0.4, rel=1e-12)


# ---------------------------------------------------------------------------
# oracle: the orientation check asked through Subspace membership, against
# the read of coordinates on the adapted basis of W that height uses


def reference_check_oriented(W, orientation: Orientation, tol: float) -> None:
    """Raise NotOriented unless the generators orient W, by two
    Subspace memberships, in W_(max-1) and in W_min."""
    wmin, wmax = W.indices[0], W.indices[-1]
    below_top = W.at(wmax - 1)
    if W.ambient_dim - below_top.dim != 1:
        raise NotOriented("top weight-graded piece is not of rank one")
    if W.at(wmin).dim != 1:
        raise NotOriented("bottom weight-graded piece is not of rank one")
    if wmax % 2 or wmin % 2:
        raise NotOriented("top and bottom weights must be even")
    top, bottom = orientation.top, orientation.bottom
    if maxabs(top) == 0 or maxabs(bottom) == 0:
        raise NotOriented("orientation generators must be nonzero")
    if contains_vector(below_top, top, tol):
        raise NotOriented("top generator projects to zero in the top graded piece")
    if not contains_vector(W.at(wmin), bottom, tol):
        raise NotOriented("bottom generator must span the lowest weight step")


def _orientation_verdict(check, W, top, bottom, tol: float = 1e-9) -> str | None:
    try:
        check(W, Orientation.of(top, bottom), tol)
    except NotOriented as e:
        return str(e)
    return None


def _orientation_probes(om: OrientedMHS, rng):
    """The structure's own generators, each coordinate vector as the top and
    as the bottom, and the top shifted by an integer element of W_(max-1)."""
    top, bottom = om.orientation.top, om.orientation.bottom
    yield top, bottom
    for e in np.eye(om.mhs.dim):
        yield e, bottom
        yield top, e
    yield top + _below_top_element(om, rng), bottom


def _below_top_element(om: OrientedMHS, rng) -> np.ndarray:
    below = om.mhs.W.at(om.max_weight - 1)
    return rng.integers(-3, 4, below.dim) @ below.basis


def _orientation_family(kind: str, rng) -> list[OrientedMHS]:
    if kind == "biextension":
        return [build_biextension(random_spec(rng)) for _ in range(150)]
    if kind == "dilog":
        return [dilog_fiber(s) for s in (0.25 + 0.5j, -1.5 + 0.3j, 2.5 - 1.2j)]
    orbit, orient = cubic_orbit()
    return [OrientedMHS(orbit.fiber(1j * y), orient) for y in (0.5, 2.0, 10.0)]


@pytest.mark.parametrize("kind", ["biextension", "dilog", "cubic"])
def test_check_oriented_agrees_with_the_subspace_oracle(kind):
    # each structure as it is and moved by an integer g in GL_n(Q): the same
    # verdict and, on a rejection, the same message
    from hodgeheight.height import _check_oriented

    rng = np.random.default_rng(31)
    checked = rejected = 0
    for om in _orientation_family(kind, rng):
        for case in (om, _moved_oriented(om, _rational_gl(om.mhs.dim, rng))):
            for top, bottom in _orientation_probes(case, rng):
                want = _orientation_verdict(reference_check_oriented, case.mhs.W, top, bottom)
                got = _orientation_verdict(_check_oriented, case.mhs.W, top, bottom)
                assert got == want
                checked += 1
                rejected += want is not None
    assert 0 < rejected < checked


@pytest.mark.parametrize("kind", ["biextension", "dilog", "cubic"])
def test_check_oriented_is_right_near_the_threshold(kind):
    # w + 1e-4 top (w in W_(max-1)) still orients, and bottom + 1e-4 top no
    # longer lies in W_min.  The Subspace oracle rejected the first on 3 of
    # these 300 biextension draws: it normalizes the vector by its pivot
    # (here -1e-4), which inflates the threshold of the stacked echelon
    from hodgeheight.height import _check_oriented

    rng = np.random.default_rng(37)
    for om in _orientation_family(kind, rng):
        for case in (om, _moved_oriented(om, _rational_gl(om.mhs.dim, rng))):
            top, bottom = case.orientation.top, case.orientation.bottom
            W = case.mhs.W
            shifted = _below_top_element(case, rng) + 1e-4 * top
            assert _orientation_verdict(_check_oriented, W, shifted, bottom) is None
            assert (_orientation_verdict(_check_oriented, W, top, bottom + 1e-4 * top)
                    == "bottom generator must span the lowest weight step")
