"""The memoized candidate lattice against Deligne's formula term by term, and
validation by dimension counts against validation by spans."""
import numpy as np
import pytest

from hodgeheight.biextension import BiextensionSpec, build_biextension, random_spec
from hodgeheight.config import DEFAULT_TOL
from hodgeheight.height import OrientedMHS, height
from hodgeheight import mhs
from hodgeheight.limits import NilpotentOrbit, limit_mhs
from hodgeheight.linalg import Frame, Subspace, echelonize
from hodgeheight.mhs import (MixedHodgeStructure, ValidationReport, hodge_filtration,
                             weight_filtration)
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.splitting import deligne_delta, lowering_morphisms
from hodgeheight.variations import check_asymptotics, fiber, random_hodge_tate
from test_linalg import complement_in

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


def reference_component_candidates(H: MixedHodgeStructure, tol: float):
    """The memoized lattice before it skipped pieces: every (a, b) in range
    builds its right-hand side and its final intersection, and only the
    pieces of dimension 0 are dropped."""
    return _reference_lattice(H, tol)[0]


def _reference_lattice(H: MixedHodgeStructure, tol: float):
    """The full-loop pieces of reference_component_candidates, with its
    F^p cap W_k reader FW and the keys whose Hodge number h^{a,b} is
    nonzero and equals dim F^a cap W_{a+b}, where the lattice takes
    F^a cap W_{a+b} itself as the piece."""
    n = H.dim
    pmin, pmax = min(H.levels), max(H.levels)
    wmin, wmax = min(H.weights), max(H.weights)
    flag = H.W.adapted_basis()
    reduced, fw, us = {}, {}, {}

    def FW(p, k):
        if (p, k) not in fw:
            f, Wk = H.F.dim_at(p), H.W.at(k)
            if f == 0 or Wk.dim == n:
                fw[(p, k)] = H.F.at(p)
            elif Wk.dim == 0 or f == n:
                fw[(p, k)] = Wk
            else:
                if p not in reduced:
                    # the rows the library reduces: a moved F's own rows, as
                    # they are, else the echelon basis of the step
                    reduced[p] = flag.reduce(H.F.at(p) if H.F._rows is None
                                              else H.F._rows[:f], tol)
                inside = sum(c < Wk.dim for c in reduced[p][1])
                fw[(p, k)] = H.F.at(p) if inside == f else flag.meet(reduced[p], Wk, tol)
        return fw[(p, k)]

    def U(r, s):
        if s < wmin:
            return Subspace.zero(n)
        if (r, s) not in us:
            us[(r, s)] = FW(r, s).add(U(r - 1, s - 1), tol)
        return us[(r, s)]

    comps = {}
    for a in range(pmin, pmax + 1):
        for b in range(pmin, pmax + 1):
            k = a + b
            if k < wmin or k > wmax:
                continue
            rhs = FW(b, k).add(U(b - 1, k - 2), tol).conj()
            piece = FW(a, k).intersect(rhs, tol)
            if piece.dim > 0:
                comps[(a, b)] = piece
    shortcut = set()
    for a in range(pmin, pmax + 1):
        for k in H.weights:
            h = FW(a, k).dim - FW(a, k - 1).dim - FW(a + 1, k).dim + FW(a + 1, k - 1).dim
            if h and FW(a, k).dim == h:
                shortcut.add((a, k - a))
    return comps, FW, shortcut


def _rational_gl(n: int, rng) -> np.ndarray:
    """A random integer matrix that is invertible over Q."""
    while True:
        g = rng.integers(-2, 3, size=(n, n)).astype(float)
        if abs(np.linalg.det(g)) > 0.5:
            return g


def _moved(H: MixedHodgeStructure, g: np.ndarray) -> MixedHodgeStructure:
    """(g W, g F): an exact W stays exact, but its steps are no longer
    coordinate subspaces, so the adapted basis of g W is not a permutation."""
    return MixedHodgeStructure(H.W.map_spaces(lambda s: s.image_under(g)),
                               H.F.map_spaces(lambda s: s.image_under(g)))


def _biextension_limit(spec, g=None) -> MixedHodgeStructure:
    """The limit structure (F, M) of the biextension orbit with a (-1,-1)
    lowering morphism as N, as the orbit-limits benchmark builds it; M is a
    float filtration, since N is real but not rational.  g moves the orbit
    by a change of rational coordinates first."""
    H = build_biextension(spec).mhs
    basis = lowering_morphisms(H)
    N = sum(c * basis[j] for j, c in enumerate((1, 2)[:len(basis)]))
    orbit = NilpotentOrbit(H.W, N, H.F)
    if g is not None:
        orbit = NilpotentOrbit(orbit.W.map_spaces(lambda s: s.image_under(g)),
                               g @ N @ np.linalg.inv(g),
                               orbit.F_inf.map_spaces(lambda s: s.image_under(g)))
    return limit_mhs(orbit)


def _cases():
    """(id, zero-argument factory) pairs; structures are made inside the test."""
    rng = np.random.default_rng(314)
    specs = [random_spec(rng) for _ in range(12)]
    for i, spec in enumerate(specs):
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
    # W not coordinate-aligned: exact, moved by a rational change of
    # coordinates, and float, the relative weight filtration of a float N
    moves = np.random.default_rng(2718)
    for i in (0, 4):
        g = _rational_gl(build_biextension(specs[i]).mhs.dim, moves)
        yield f"moved-biextension-{i}", lambda i=i, g=g: _moved(build_biextension(specs[i]).mhs, g)
    g = _rational_gl(6, moves)
    yield "moved-hodge-tate-1221", lambda g=g: _moved(
        fiber(random_hodge_tate((1, 2, 2, 1), 1, seed=3), [2j], [np.exp(-4 * np.pi)]), g)
    g = _rational_gl(6, moves)
    yield "moved-hodge-tate-1221-limit", lambda g=g: _moved(
        random_hodge_tate((1, 2, 2, 1), 1, seed=3).limit_structure(), g)
    for i in (1, 4):
        yield f"biextension-limit-{i}", lambda i=i: _biextension_limit(specs[i])
        g = _rational_gl(build_biextension(specs[i]).mhs.dim, moves)
        yield f"moved-biextension-limit-{i}", lambda i=i, g=g: _biextension_limit(specs[i], g)


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _cases()])
def test_memoized_lattice_matches_reference(build):
    H = build()
    got, _ = H._component_candidates(TOL)
    want = reference_candidates(H, TOL)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].equals(want[key], TOL), key


def _assert_nonzero_reference_pieces(H: MixedHodgeStructure) -> None:
    # a piece whose Hodge number is dim F^a cap W_{a+b} is that space, bit
    # for bit, and equal to the full-loop piece; every other piece is the
    # full-loop piece bit for bit
    got, _ = H._component_candidates(TOL)
    want, FW, shortcut = _reference_lattice(H, TOL)
    assert sorted(got) == sorted(want)
    for key, piece in want.items():
        if key in shortcut:
            assert got[key].equals(piece, TOL), key
            piece = FW(key[0], sum(key))
        assert np.array_equal(got[key].basis, piece.basis), key
        assert got[key].pivots == piece.pivots and got[key].exact == piece.exact, key


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _cases()])
def test_lattice_builds_the_nonzero_pieces_of_the_full_loop(build):
    _assert_nonzero_reference_pieces(build())


def _random_structures(rng):
    """Biextensions, Hodge-Tate, cubic and dilog fibers, each also moved by a
    random matrix in GL_n(Q).  The cubic ray stops at y = 250: from y = 260
    on, the full loop builds pieces that are zero at the exact answer."""
    for _ in range(12):
        yield build_biextension(random_spec(rng)).mhs
    for ranks in ((1, 2, 1), (1, 3, 1), (1, 2, 2, 1)):
        v = random_hodge_tate(ranks, 1, seed=int(rng.integers(1, 100)))
        for y in rng.uniform(0.5, 8, size=2):
            yield fiber(v, [1j * y], [np.exp(-2 * np.pi * y)])
    for y in (1.0, 30.0, 120.0, 250.0):
        yield cubic_orbit()[0].fiber(1j * y)
    for _ in range(4):
        s = complex(rng.uniform(-0.9, 0.9), rng.choice([-1, 1]) * rng.uniform(0.05, 0.9))
        yield dilog_fiber(s).mhs


def test_lattice_builds_the_nonzero_pieces_on_random_structures():
    rng = np.random.default_rng(1616)
    for H in _random_structures(rng):
        _assert_nonzero_reference_pieces(H)
        _assert_nonzero_reference_pieces(_moved(H, _rational_gl(H.dim, rng)))


def test_hodge_tate_lattice_makes_no_intersect(monkeypatch):
    # the (1,2,2,1) fiber has Hodge numbers h^{p,p} = 1, 2, 2, 1 and no other,
    # and dim F^p cap W_2p = h^{p,p}, so each piece is F^p cap W_2p itself
    meets = []
    intersect = Subspace.intersect

    def counted(self, other, tol=DEFAULT_TOL):
        meets.append(1)
        return intersect(self, other, tol)

    built = fiber(random_hodge_tate((1, 2, 2, 1), 1, seed=3), [2j], [np.exp(-4 * np.pi)])
    H = MixedHodgeStructure(built.W, built.F)
    monkeypatch.setattr(Subspace, "intersect", counted)
    comps, _ = H._component_candidates(TOL)
    assert sorted(comps) == [(p, p) for p in range(-3, 1)]
    assert [comps[(p, p)].dim for p in range(0, -4, -1)] == [1, 2, 2, 1]
    assert not meets


def test_lattice_built_once_per_tolerance(monkeypatch):
    builds = []
    original = MixedHodgeStructure._component_candidates

    def counted(self, tol):
        builds.append(tol)
        return original(self, tol)

    v = random_hodge_tate((1, 2, 1), 1, seed=1)
    built = fiber(v, [2j], [np.exp(-4 * np.pi)])
    monkeypatch.setattr(MixedHodgeStructure, "_component_candidates", counted)
    # a fiber of a Hodge-Tate variation moves its limit's period matrix and
    # builds no lattice; the same pair built afresh builds one per tolerance
    for H, lattices in ((built, 0), (MixedHodgeStructure(built.W, built.F), 1)):
        om = OrientedMHS(H, v.orientation)
        height(om)
        deligne_delta(om.mhs)
        assert builds == [TOL] * lattices
        height(om, 1e-8)
        deligne_delta(om.mhs, 1e-8)
        assert builds == [TOL, 1e-8] * lattices
        builds.clear()


def test_limit_lattice_built_once_across_asymptotics_calls(monkeypatch):
    # the limit is built, and its lattice with it, by the first call alone
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    builds = []
    original = MixedHodgeStructure._component_candidates

    def counted(self, tol):
        builds.append((self, tol))
        return original(self, tol)

    monkeypatch.setattr(MixedHodgeStructure, "_component_candidates", counted)
    points = [([1j * y], [np.exp(-2 * np.pi * y)]) for y in (1.0, 3.0)]
    first = check_asymptotics(v, points)
    second = check_asymptotics(v, points)
    limit = v.limit_structure()
    assert [tol for H, tol in builds if H is limit] == [TOL]
    assert first == second


def test_lattice_reads_f_cap_w_off_one_adapted_basis(monkeypatch):
    # no F^p cap W_k goes through Subspace.intersect, and the adapted basis
    # of W is built once for every fiber of a variation and its limit, as is
    # the adapted basis of F_inf that each fiber moves
    builds, meets = [], []
    adapted, intersect = mhs.AdaptedBasis, Subspace.intersect

    def counted_basis(steps):
        builds.append(steps)
        return adapted(steps)

    def counted_intersect(self, other, tol=DEFAULT_TOL):
        meets.append((self, other))
        return intersect(self, other, tol)

    monkeypatch.setattr(mhs, "AdaptedBasis", counted_basis)
    monkeypatch.setattr(Subspace, "intersect", counted_intersect)
    # the lower member (-1, 0) of the pair type of this biextension is the
    # one piece built by an intersection; the Hodge-Tate fiber makes none
    spec = BiextensionSpec(weights=(2, -1, -4), middle=(((0, -1), 1),),
                           delta1=(0.3, -0.7), delta2=(0.5, 0.2), ht=0.4)
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    built = (build_biextension(spec).mhs, fiber(v, [2j], [np.exp(-4 * np.pi)]))
    for built_H, intersections in zip(built, (1, 0)):
        H = MixedHodgeStructure(built_H.W, built_H.F)
        meets.clear()
        assert H.validate(TOL).ok
        fsteps, wsteps = [s for _, s in H.F.steps], [s for _, s in H.W.steps]
        for pair in meets:
            assert not (any(x is s for x in pair for s in fsteps)
                        and any(x is s for x in pair for s in wsteps)), pair
        assert len(meets) == intersections
    # the two W and the F_inf of the variation, which every fiber moves; the
    # limit (M, F_inf) has M = W itself, which shares W's adapted basis
    assert len(builds) == 3
    for y in (1.0, 3.0, 5.0):
        fiber(v, [1j * y], [np.exp(-2 * np.pi * y)])
    check_asymptotics(v, [([1j * y], [np.exp(-2 * np.pi * y)]) for y in (1.0, 3.0)])
    assert v.limit_structure().W is v.W
    assert len(builds) == 3


# ---------------------------------------------------------------------------
# validation by dimension counts against validation by spans


def reference_validate(H: MixedHodgeStructure, tol: float) -> ValidationReport:
    """The three bigrading axioms checked by spans of the candidate pieces:
    F^p and W_k are compared with the sums of their pieces, and conj I^{a,b}
    must be contained in the sum of I^{b,a} and the lower pieces."""
    failures: list[str] = []
    comps, _ = H._component_candidates(tol)
    n = H.dim
    total = sum(s.dim for s in comps.values())
    if total != n:
        failures.append(f"direct-sum: component dimensions add to {total}, expected {n}")
    else:
        stacked = np.vstack([comps[k].basis for k in sorted(comps)])
        if echelonize(stacked, n, tol).dim != n:
            failures.append("direct-sum: components are not independent")
    if not failures:
        for p in range(min(H.levels), max(H.levels) + 1):
            span = Subspace.zero(n)
            for (a, b), s in comps.items():
                if a >= p:
                    span = span.add(s, tol)
            if not span.equals(H.F.at(p), tol):
                failures.append(f"F-axiom: F^{p} is not the span of components with p >= {p}")
        for k in H.weights:
            span = Subspace.zero(n)
            for (a, b), s in comps.items():
                if a + b <= k:
                    span = span.add(s, tol)
            if not span.equals(H.W.at(k), tol):
                failures.append(f"W-axiom: W_{k} is not the span of components with p+q <= {k}")
        for (a, b), s in comps.items():
            target = comps.get((b, a), Subspace.zero(n))
            for (x, y), t in comps.items():
                if x < b and y < a:
                    target = target.add(t, tol)
            if not target.contains(s.conj(), tol):
                failures.append(f"conjugation-axiom: conj I^{(a, b)} escapes "
                                f"I^{(b, a)} + lower terms")
    return ValidationReport(ok=not failures, failures=tuple(failures))


AXIOMS = ("direct-sum", "F-axiom", "W-axiom", "conjugation-axiom")


def _axioms(report: ValidationReport) -> set[str]:
    named = {f.split(":")[0] for f in report.failures}
    assert named <= set(AXIOMS), report.failures
    return named


def _assert_same_verdict(H: MixedHodgeStructure, tol: float = TOL) -> ValidationReport:
    want = reference_validate(H, tol)
    got = H.validate(tol)
    assert got.ok == want.ok, (got.failures, want.failures)
    assert _axioms(got) == _axioms(want), (got.failures, want.failures)
    return got


def _valid_structures():
    """The structures of _cases() as built, each with its bigrading."""
    for name, build in _cases():
        H = build()
        yield name, H, H.bigrading(TOL)


def _moved_piece(H: MixedHodgeStructure, B, key) -> MixedHodgeStructure:
    """(W, F') where F' counts the piece I^{a,b} at level a - 1, so F'^a no
    longer contains it."""
    level = {k: k[0] - (k == key) for k in B.components}
    steps = []
    for p in sorted(set(level.values())):
        rows = [B.components[k].basis for k in B.components if level[k] >= p]
        steps.append((p, Subspace.from_rows(np.vstack(rows), H.dim, TOL)))
    return MixedHodgeStructure(H.W, hodge_filtration(steps, H.dim))


def _swapped_w_step(H: MixedHodgeStructure, i: int) -> MixedHodgeStructure:
    """(W', F) where W' exchanges the graded pieces of W at its i-th and
    (i+1)-th jumps; W' is again a rational filtration with the same jumps."""
    ks = H.weights
    prev = H.W.at(ks[i - 1]) if i else Subspace.zero(H.dim)
    upper = complement_in(H.W.at(ks[i]), H.W.at(ks[i + 1]))
    steps = [(k, H.W.at(k)) for k in ks]
    steps[i] = (ks[i], prev.add(upper))
    return MixedHodgeStructure(weight_filtration(steps, H.dim), H.F)


def _relabelled(H: MixedHodgeStructure, B):
    """Copies of H whose lattice files one piece I^{a,b} under (a-1, b+1),
    which drops it from the count of F^a, or under (a, b+1), which drops it
    from the count of W_{a+b}.  Either key keeps the piece inside F^{key[0]}
    cap W_{key[0]+key[1]} and the sum direct, so only the dimension counts
    (and the conjugation axiom) can catch it."""
    for key in B.components:
        a, b = key
        for new in ((a - 1, b + 1), (a, b + 1)):
            if new in B.components:
                continue
            moved = {k: s for k, s in B.components.items() if k != key}
            moved[new] = B.components[key]
            G = MixedHodgeStructure(H.W, H.F)
            G._component_candidates = lambda tol, moved=moved: (moved, None)
            yield new[0] < a, G


def _conjugation_breaks(H: MixedHodgeStructure, B, size: float):
    """Copies of H whose lattice moves one piece I^{a,b} along a piece
    I^{a',b'} with a' >= a and a' + b' <= a + b, by `size` relative to the
    largest entry of the basis of I^{a,b}.  The moved piece stays
    in F^a cap W_{a+b}, as every built candidate does, but its conjugate
    gains a component along I^{b',a'}, which lies outside I^{b,a} and the
    pieces below it."""
    for key, piece in B.components.items():
        a, b = key
        for (x, y), other in B.components.items():
            if (x, y) == key or x < a or x + y > a + b:
                continue
            v = other.basis[0] / np.abs(other.basis[0]).max()
            moved = dict(B.components)
            shift = size * max(1.0, np.abs(piece.basis).max()) * v
            moved[key] = Subspace.from_rows(piece.basis + shift, H.dim, TOL)
            G = MixedHodgeStructure(H.W, H.F)
            G._component_candidates = lambda tol, moved=moved: (moved, None)
            yield G


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _cases()])
def test_validate_agrees_with_span_reference(build):
    assert _assert_same_verdict(build()).ok


def test_validate_agrees_with_span_reference_on_breakages():
    moved = swapped = relabelled = conj = 0
    for name, H, B in _valid_structures():
        for key in B.components:
            if key[0] > min(H.levels):
                assert not _assert_same_verdict(_moved_piece(H, B, key)).ok, (name, key)
                moved += 1
        for i in range(len(H.weights) - 1):
            # some swaps give another valid structure; the verdicts must agree
            _assert_same_verdict(_swapped_w_step(H, i))
            swapped += 1
        for out_of_f, G in _relabelled(H, B):
            report = _assert_same_verdict(G)
            assert ("F-axiom" if out_of_f else "W-axiom") in _axioms(report), name
            relabelled += 1
        for size in (10 * TOL, 1e3 * TOL):
            for G in _conjugation_breaks(H, B, size):
                report = _assert_same_verdict(G)
                assert not report.ok and "conjugation-axiom" in _axioms(report), name
                conj += 1
    assert moved and swapped and relabelled and conj


def _real_pair_piece(H: MixedHodgeStructure, B, key) -> MixedHodgeStructure:
    """(W, F') where F' holds the real part of the basis of I^{p,q}, p > q,
    in place of the piece: Gr^W_{p+q} is then no Hodge structure, while
    dim F'^p cap W_{p+q} = h^{p,q} still holds."""
    steps = []
    for p in sorted({a for a, _ in B.components}):
        rows = [B.components[k].basis.real if k == key else B.components[k].basis
                for k in B.components if k[0] >= p]
        steps.append((p, Subspace.from_rows(np.vstack(rows), H.dim, TOL)))
    return MixedHodgeStructure(H.W, hodge_filtration(steps, H.dim))


def _full_loop_verdict(H: MixedHodgeStructure) -> bool:
    G = MixedHodgeStructure(H.W, H.F)
    G._component_candidates = lambda tol: (reference_component_candidates(G, tol), None)
    return G.validate(TOL).ok


def test_skipped_pieces_keep_the_verdict_on_breakages():
    # a structure that is not a mixed Hodge structure still fails when only
    # the pieces with a nonzero Hodge number are built, and when a piece is
    # taken as F^a cap W_{a+b} because its Hodge number is that dimension
    broken = real_pairs = 0
    for name, H, B in _valid_structures():
        breakages = [_moved_piece(H, B, key) for key in B.components
                     if key[0] > min(H.levels)]
        breakages += [_swapped_w_step(H, i) for i in range(len(H.weights) - 1)]
        for G in breakages:
            ok = G.validate(TOL).ok
            assert ok == _full_loop_verdict(G), name
            broken += not ok
        for key in [(p, q) for p, q in B.components if p > q]:
            G = _real_pair_piece(H, B, key)
            _, FW, shortcut = _reference_lattice(G, TOL)
            assert key in shortcut, (name, key)
            assert G._component_candidates(TOL)[0][key].equals(FW(key[0], sum(key)), TOL)
            assert not G.validate(TOL).ok, (name, key)
            assert not _full_loop_verdict(G), (name, key)
            real_pairs += 1
    assert broken and real_pairs


def test_projectors_built_once_per_tolerance(monkeypatch):
    frames = []
    of = Frame.of

    def counted(pieces):
        frames.append(of(pieces))
        return frames[-1]

    # the general route, on the cubic fiber, builds one frame per
    # tolerance; a Hodge-Tate structure's frame is that of its period
    # matrix, and no frame of pieces is built
    v = random_hodge_tate((1, 2, 2, 1), 1, seed=3)
    built = (cubic_orbit()[0].fiber(2j), fiber(v, [2j], [np.exp(-4 * np.pi)]))
    monkeypatch.setattr(Frame, "of", staticmethod(counted))
    for built_H, per_tol in zip(built, (1, 0)):
        H = MixedHodgeStructure(built_H.W, built_H.F)
        frames.clear()
        for tol in (TOL, 1e-8):
            assert H.validate(tol).ok
            B = H.bigrading(tol)
            assert H.bigrading(tol) is B
        assert len(frames) == 2 * per_tol
        if per_tol:
            assert B.frame is frames[-1]
            assert all(P is frames[-1].projectors[k] for k, P in B.projectors.items())
