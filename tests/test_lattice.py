"""The memoized candidate lattice against Deligne's formula term by term."""
import numpy as np
import pytest

from hodgeheight.biextension import build_biextension, random_spec
from hodgeheight.height import OrientedMHS, height
from hodgeheight.linalg import Subspace
from hodgeheight.mhs import MixedHodgeStructure
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.splitting import deligne_delta
from hodgeheight.variations import check_asymptotics, fiber, random_hodge_tate

TOL = 1e-9


def _conj(S: Subspace) -> Subspace:
    # re-echelonized conjugate, independent of Subspace.conj
    return Subspace.from_rows(np.conj(S.basis), S.ambient_dim)


def reference_candidates(H: MixedHodgeStructure, tol: float):
    """I^{a,b} = F^a cap W_k cap (conj(F^b) cap W_k + conj(U^{b-1}_{k-2})),
    every intersection and sum recomputed, nothing shared between (a, b)."""
    n = H.dim
    pmin, pmax = min(H.levels), max(H.levels)
    wmin, wmax = min(H.weights), max(H.weights)

    def U(r, s):
        total = Subspace.zero(n)
        j = 0
        while s - j >= wmin:
            total = total.add(H.F.at(r - j).intersect(H.W.at(s - j), tol), tol)
            j += 1
        return total

    comps = {}
    for a in range(pmin, pmax + 1):
        for b in range(pmin, pmax + 1):
            k = a + b
            if k < wmin or k > wmax:
                continue
            rhs = _conj(H.F.at(b)).intersect(H.W.at(k), tol).add(_conj(U(b - 1, k - 2)), tol)
            piece = H.F.at(a).intersect(H.W.at(k), tol).intersect(rhs, tol)
            if piece.dim > 0:
                comps[(a, b)] = piece
    return comps


def _cases():
    """(id, zero-argument factory) pairs; structures are made inside the test."""
    rng = np.random.default_rng(314)
    for i in range(12):
        spec = random_spec(rng)
        yield f"biextension-{i}", lambda spec=spec: build_biextension(spec).mhs
    for s in (0.4 + 0.65j, -0.3 + 0.7j, 2 + 1j):
        yield f"dilog-{s}", lambda s=s: dilog_fiber(s).mhs
    for y in (0.5, 10, 50):
        yield f"cubic-{y}", lambda y=y: cubic_orbit()[0].fiber(1j * y)
    for ranks, seed in (((1, 2, 1), 1), ((1, 3, 1), 2), ((1, 2, 2, 1), 3)):
        for y in (1.0, 4.0):
            yield (f"hodge-tate-{''.join(map(str, ranks))}-{y}",
                   lambda ranks=ranks, seed=seed, y=y: fiber(
                       random_hodge_tate(ranks, 1, seed=seed), [1j * y],
                       [np.exp(-2 * np.pi * y)]))


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _cases()])
def test_memoized_lattice_matches_reference(build):
    H = build()
    got = H._component_candidates(TOL)
    want = reference_candidates(H, TOL)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].equals(want[key], TOL), key


def test_lattice_built_once_per_tolerance(monkeypatch):
    builds = []
    original = MixedHodgeStructure._component_candidates

    def counted(self, tol):
        builds.append(tol)
        return original(self, tol)

    monkeypatch.setattr(MixedHodgeStructure, "_component_candidates", counted)
    v = random_hodge_tate((1, 2, 1), 1, seed=1)
    om = OrientedMHS(fiber(v, [2j], [np.exp(-4 * np.pi)]), v.orientation)
    height(om)
    deligne_delta(om.mhs)
    assert builds == [TOL]
    height(om, 1e-8)
    deligne_delta(om.mhs, 1e-8)
    assert builds == [TOL, 1e-8]


def test_limit_lattice_built_once_across_asymptotics_calls(monkeypatch):
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    limit = v.limit_structure()
    limit_builds = []
    original = MixedHodgeStructure._component_candidates

    def counted(self, tol):
        if self is limit:
            limit_builds.append(tol)
        return original(self, tol)

    monkeypatch.setattr(MixedHodgeStructure, "_component_candidates", counted)
    points = [([1j * y], [np.exp(-2 * np.pi * y)]) for y in (1.0, 3.0)]
    first = check_asymptotics(v, points)
    second = check_asymptotics(v, points)
    assert limit_builds == [TOL]
    assert first == second
