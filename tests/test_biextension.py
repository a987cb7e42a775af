import sys

import numpy as np
import pytest
from math import e, log, pi

from hodgeheight.biextension import (
    BiextensionSpec,
    build_biextension,
    extract_invariants,
    random_spec,
    spec_allclose,
)
from hodgeheight.errors import InvalidBlockType, NotGeneralizedBiextension
from hodgeheight.height import height, height_biextension, top_lift
from hodgeheight.linalg import Subspace
from hodgeheight.mhs import Filtration, hodge_filtration, validate
from hodgeheight.splitting import deligne_delta

from fixtures import dual_oriented, rescale_fiber


def test_zero_spec_builds_split_structure():
    spec = BiextensionSpec(weights=(0, -2, -4), middle=(((-1, -1), 2),),
                           delta1=(0.0, 0.0), delta2=(0.0, 0.0), ht=0.0)
    om = build_biextension(spec)
    assert validate(om.mhs).ok
    assert height(om) == pytest.approx(0.0, abs=1e-13)


def test_dim_zero_pair_roundtrip():
    a, b = 2.0, 3.0
    s1, s2 = log(abs(a)) / (2 * pi), log(abs(b)) / (2 * pi)
    spec = BiextensionSpec(weights=(0, -2, -4), middle=(((-1, -1), 2),),
                           delta1=(s1, s2), delta2=(s2, s1), ht=0.0)
    om = build_biextension(spec)
    back = extract_invariants(om)
    assert spec_allclose(back, spec, 1e-12)
    assert back.delta1[0] == pytest.approx(log(2) / (2 * pi), abs=1e-12)
    assert back.delta1[1] == pytest.approx(log(3) / (2 * pi), abs=1e-12)
    assert back.ht == pytest.approx(0.0, abs=1e-12)


def test_projective_plane_middle_slot():
    # middle with one cohomology slot plus nine point slots; the height slot
    # drives the signed height of the build
    ht = 0.1392
    spec = BiextensionSpec(weights=(0, -2, -4), middle=(((-1, -1), 10),),
                           delta1=tuple(np.linspace(-1, 1, 10)),
                           delta2=tuple(np.linspace(0.5, -0.5, 10)), ht=ht)
    om = build_biextension(spec)
    assert height(om) == pytest.approx(ht, abs=1e-11)
    assert height_biextension(om) == pytest.approx(ht, abs=1e-11)


def test_forbidden_block_slots_raise():
    with pytest.raises(InvalidBlockType):
        BiextensionSpec(weights=(0, -1, -2), middle=(((0, -1), 1),),
                        delta1=(0.3, 0.0), delta2=(0.0, 0.0), ht=0.0)
    with pytest.raises(InvalidBlockType):
        BiextensionSpec(weights=(0, -2, -4), middle=(((0, -2), 1),),
                        delta1=(0.1, 0.0), delta2=(0.0, 0.0), ht=0.0)
    # non-sorted type or bad weights
    with pytest.raises(InvalidBlockType):
        BiextensionSpec(weights=(0, -2, -2), middle=(((-1, -1), 1),),
                        delta1=(0.0,), delta2=(0.0,), ht=0.0)


def test_roundtrip_fifty_random_specs(rng):
    for _ in range(50):
        spec = random_spec(rng)
        om = build_biextension(spec)
        back = extract_invariants(om)
        assert spec_allclose(back, spec, 1e-10), (spec, back)


def test_build_delta_roundtrip(rng):
    from hodgeheight.biextension import assemble_delta
    from hodgeheight.linalg import maxabs

    for _ in range(10):
        spec = random_spec(rng)
        om = build_biextension(spec)
        spl = deligne_delta(om.mhs)
        assert maxabs(spl.delta - assemble_delta(spec)) < 1e-10


def test_height_equals_spec_slot(rng):
    for _ in range(20):
        spec = random_spec(rng)
        om = build_biextension(spec)
        assert height(om) == pytest.approx(spec.ht, abs=1e-10)
        assert height_biextension(om) == pytest.approx(spec.ht, abs=1e-10)


def test_dual_negates_height_slot(rng):
    for _ in range(10):
        spec = random_spec(rng)
        om = build_biextension(spec)
        dn = dual_oriented(om)
        back = extract_invariants(dn)
        assert back.ht == pytest.approx(-spec.ht, abs=1e-10)


def test_extract_rejects_too_many_weights():
    from hodgeheight.scenarios import cubic_orbit
    from hodgeheight.height import OrientedMHS
    from hodgeheight.limits import limit_mhs

    orbit, orient = cubic_orbit()
    om = OrientedMHS(limit_mhs(orbit), orient)
    with pytest.raises(NotGeneralizedBiextension):
        extract_invariants(om)


def test_extract_of_split_build_is_zero_spec():
    spec = BiextensionSpec(weights=(0, -2, -4), middle=(((-1, -1), 3),),
                           delta1=(0.0,) * 3, delta2=(0.0,) * 3, ht=0.0)
    back = extract_invariants(build_biextension(spec))
    assert back.ht == 0.0
    assert all(x == 0.0 for x in back.delta1)
    assert all(x == 0.0 for x in back.delta2)


def test_extract_invariants_on_a_moved_biextension():
    # g in GL_n(Q) moves W off the coordinate flag, so the middle basis is
    # rows of g W_b.  With g e_i = sum_j A_ij t_j modulo g W_2c (e_i the
    # reference middle basis, t_j the middle basis read back; A from the
    # pivot read of test_linalg), the blocks read back are delta1 A and
    # A^-1 delta2, and the height does not move
    from test_height import _moved_oriented
    from test_lattice import _rational_gl
    from test_linalg import quotient_coordinates
    from hodgeheight.errors import HodgeError

    rng = np.random.default_rng(2024)
    compared = 0
    for _ in range(12):
        spec = random_spec(rng)
        om = build_biextension(spec)
        n = om.mhs.dim
        g = _rational_gl(n, rng)
        moved = _moved_oriented(om, g)
        try:
            back = extract_invariants(moved)
        except HodgeError:
            continue
        compared += 1
        two_a, b, two_c = spec.weights
        W = moved.mhs.W
        A = quotient_coordinates(g[:, 1:n - 1].T, W.at(b), W.at(two_c))
        assert back.weights == spec.weights and back.middle == spec.middle
        assert back.ht == pytest.approx(spec.ht, abs=1e-9)
        assert np.allclose(back.delta1, np.asarray(spec.delta1) @ A, atol=1e-9)
        assert np.allclose(back.delta2, np.linalg.solve(A, spec.delta2), atol=1e-9)
    assert compared >= 10


def _delta1_by_conjugation(om, tol=1e-9) -> np.ndarray:
    """The oracle for the delta1 read: the middle coordinates c[lo:hi],
    c = v T^-1 (T the adapted basis of W), of v = (i/2) Pi_b (conj e - e)
    for the top lift e.  conj e = exp(-2i delta) e, so v is the weight-b part
    of delta e, whose middle coordinates are those of delta (top)."""
    H = om.mhs
    b = H.weights[1]
    e = top_lift(om, tol)
    v = 0.5j * (H.bigrading(tol).weight_projectors[b] @ (np.conj(e) - e))
    flag = H.W.adapted_basis()
    lo, hi = flag.dims[:2]
    return np.real((v @ flag.inverse)[lo:hi])


def test_delta1_read_matches_the_conjugation_route(rng):
    # on a moved structure delta (top) carries the rounding of the whole
    # splitting, as the delta2 and height reads do, while the oracle reads
    # the bigrading only: over 2,000 moved draws the two differed by at most
    # 1.8e-12 max|delta| (1.2e-10 absolute), so that is the scale of the bound
    from test_height import _moved_oriented
    from test_lattice import _rational_gl
    from hodgeheight.errors import HodgeError
    from hodgeheight.linalg import maxabs

    for _ in range(30):
        om = build_biextension(random_spec(rng))
        oracle = _delta1_by_conjugation(om)
        assert np.abs(np.asarray(extract_invariants(om).delta1) - oracle).max() <= 1e-12
    compared = 0
    for _ in range(12):
        om = build_biextension(random_spec(rng))
        moved = _moved_oriented(om, _rational_gl(om.mhs.dim, rng))
        try:
            back = extract_invariants(moved)
        except HodgeError:
            continue
        compared += 1
        oracle = _delta1_by_conjugation(moved)
        scale = max(1.0, maxabs(deligne_delta(moved.mhs).delta))
        assert np.abs(np.asarray(back.delta1) - oracle).max() <= 1e-11 * scale
    assert compared >= 10


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name, and every binding of the same function in the
    library's modules, by a wrapper that logs each call."""
    fn = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for mod in [m for k, m in sys.modules.items() if k.startswith("hodgeheight")]:
        for attr, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_build_and_extract_take_the_one_pass_route(rng, monkeypatch):
    # the package exports the function height, which shadows the module
    height_module = sys.modules["hodgeheight.height"]
    calls = [_count_calls(monkeypatch, height_module, "top_lift"),
             _count_calls(monkeypatch, height_module, "height_biextension"),
             _count_calls(monkeypatch, Filtration, "map_spaces"),
             _count_calls(monkeypatch, Subspace, "image_under")]
    for _ in range(5):
        spec = random_spec(rng)
        assert spec_allclose(extract_invariants(build_biextension(spec)), spec, 1e-10)
    assert [len(c) for c in calls] == [0, 0, 0, 0]
    # the wrappers are live: the public height formula lifts the top once,
    # and moving F maps each of its steps
    om = build_biextension(random_spec(rng))
    height_module.height_biextension(om)
    rescale_fiber(om, np.zeros((om.mhs.dim, om.mhs.dim)), 1.0)
    assert [len(c) for c in calls[:3]] == [1, 1, 1]
    assert len(calls[3]) == len(om.mhs.F.steps)


def test_build_biextension_makes_no_nesting_check(rng, monkeypatch):
    # each F^p is spanned by a superset of the vectors of F^(p+1), and W is
    # made of coordinate steps, so both nest by construction
    calls = _count_calls(monkeypatch, Subspace, "contains")
    specs = [random_spec(rng) for _ in range(8)]
    specs.append(BiextensionSpec(weights=(2, -1, -4), middle=(((0, -1), 1),),
                                 delta1=(0.3, -0.7), delta2=(0.5, 0.2), ht=0.4))
    for spec in specs:
        om = build_biextension(spec)
    assert not calls
    # the wrapper is live: the public constructor checks the nesting
    hodge_filtration(om.mhs.F.steps, om.mhs.dim)
    assert len(calls) == len(om.mhs.F.steps) - 1
