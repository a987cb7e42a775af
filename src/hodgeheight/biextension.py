"""Generalized biextensions with prescribed splitting invariants.

A generalized biextension has three graded pieces, of weights 2a > b > 2c with
rank-one ends.  Its real-MHS class is pinned down by the graded blocks of the
splitting: delta1 (top to middle), delta2 (middle to bottom) and the height
coefficient delta3 (top to bottom).  The constructor assembles delta from the
blocks and realizes it in one pass as (exp(i delta) . F0, W): each F^p is
spanned at once by G = exp(i delta) on the vectors of the split real
reference bigrading I^{a,b} with a >= p, so no reference filtration F0 is
built.  By the rigidity of that construction (Cattani-Kaplan-Schmid, Ann.
Math. 1986, section 2) the splitting of the result is exactly the assembled
delta, and extract_invariants reads every block back off that one cached
splitting, which makes the build/extract round trip testable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import InvalidBlockType, NotGeneralizedBiextension
from .height import Orientation, OrientedMHS, _coefficient_against_bottom, height
from .linalg import expm_nilpotent, maxabs
from .mhs import MixedHodgeStructure, split_filtration
from .splitting import deligne_delta

MiddleType = tuple[tuple[int, int], int]  # ((p, q) with p >= q, multiplicity)


@dataclass(frozen=True)
class BiextensionSpec:
    """Weights (2a, b, 2c), middle Hodge types, splitting blocks, height.

    The middle is a list of Hodge types (p, q) with p + q = b and p >= q; a
    type with p > q occupies a conjugate pair of bigrading pieces and
    contributes two real reference vectors.  delta1 and delta2 are real
    vectors against the real middle basis; entries must vanish on coordinates
    whose type is not strictly dominated by both ends (Lambda constraint).
    """

    weights: tuple[int, int, int]
    middle: tuple[MiddleType, ...]
    delta1: tuple[float, ...]
    delta2: tuple[float, ...]
    ht: float

    def __post_init__(self):
        two_a, b, two_c = self.weights
        if not (two_a > b > two_c):
            raise InvalidBlockType("weights must satisfy 2a > b > 2c")
        if two_a % 2 or two_c % 2:
            raise InvalidBlockType("end weights must be even")
        for (p, q), mult in self.middle:
            if p + q != b or p < q or mult < 1:
                raise InvalidBlockType(f"bad middle type {(p, q)} x {mult}")
        dim = self.middle_dim
        if len(self.delta1) != dim or len(self.delta2) != dim:
            raise InvalidBlockType("block length does not match the middle dimension")
        a, c = two_a // 2, two_c // 2
        for idx, (p, q) in enumerate(self.coordinate_types):
            if not (p < a and q < a) and (self.delta1[idx] != 0):
                raise InvalidBlockType(f"delta1 entry {idx} sits in a forbidden type slot")
            if not (p > c and q > c) and (self.delta2[idx] != 0):
                raise InvalidBlockType(f"delta2 entry {idx} sits in a forbidden type slot")

    @property
    def middle_dim(self) -> int:
        return sum((1 if p == q else 2) * mult for (p, q), mult in self.middle)

    @property
    def coordinate_types(self) -> list[tuple[int, int]]:
        """Hodge type governing each real middle coordinate (pairs repeat)."""
        out = []
        for (p, q), mult in self.middle:
            out.extend([(p, q)] * ((1 if p == q else 2) * mult))
        return out

    @property
    def dim(self) -> int:
        return self.middle_dim + 2


def spec_allclose(s1: BiextensionSpec, s2: BiextensionSpec, tol: float) -> bool:
    return (s1.weights == s2.weights and s1.middle == s2.middle
            and np.allclose(s1.delta1, s2.delta1, atol=tol)
            and np.allclose(s1.delta2, s2.delta2, atol=tol)
            and abs(s1.ht - s2.ht) <= tol)


def assemble_delta(spec: BiextensionSpec) -> np.ndarray:
    n = spec.dim
    delta = np.zeros((n, n))
    delta[1:n - 1, 0] = np.asarray(spec.delta1, dtype=float)
    delta[n - 1, 1:n - 1] = np.asarray(spec.delta2, dtype=float)
    delta[n - 1, 0] = spec.ht
    return delta


def build_biextension(spec: BiextensionSpec) -> OrientedMHS:
    """Realize the spec as (exp(i delta) . F0, W), F0 the split real
    reference, without building F0: F is the split filtration
    (mhs.split_filtration) of the basis G v, G = exp(i delta) and v the
    reference bigrading vectors, each at the level a of its type (a, b)."""
    n = spec.dim
    two_a, b, two_c = spec.weights
    G = expm_nilpotent(1j * assemble_delta(spec))
    # (p, G v) for each reference bigrading vector v of type (p, q): the ends
    # e_0 and e_(n-1), a middle column, or x +- i y for a pair type, p > q
    pieces = [(two_a // 2, G[:, 0]), (two_c // 2, G[:, n - 1])]
    col = 1
    for (p, q), mult in spec.middle:
        for _ in range(mult):
            if p == q:
                pieces.append((p, G[:, col]))
                col += 1
            else:
                x, y = G[:, col], G[:, col + 1]
                pieces += [(p, x + 1j * y), (q, x - 1j * y)]
                col += 2
    # G is unipotent and the reference vectors are a basis, so the G v are one
    F = split_filtration([p for p, _ in pieces], False, np.array([v for _, v in pieces]))
    W = split_filtration([two_a] + [b] * (n - 2) + [two_c], True)
    eye = np.eye(n)
    return OrientedMHS(MixedHodgeStructure(W, F), Orientation.of(eye[0], eye[n - 1]))


def extract_invariants(om: OrientedMHS, tol: float = DEFAULT_TOL) -> BiextensionSpec:
    """Read the splitting blocks of a generalized biextension back off its
    one splitting delta.

    In the coordinates c = v T^-1 of the adapted basis T of W, the rows
    T[lo:hi] (lo = dim W_2c, hi = dim W_b) are a basis of the middle graded
    piece W_b / W_2c.  delta1 is c[lo:hi] for v = delta (top): delta lowers
    weights by two, so it sends W_b into W_2c and the middle coordinates do
    not depend on the representative of the top generator.  delta2 is the
    block of delta on the rows T[lo:hi] against the bottom generator, and
    the height is height(om), the P_min delta P_max read.  The middle Hodge
    types are the bigrading dimensions in weight b.
    """
    H = om.mhs
    weights = H.weights
    if len(weights) != 3:
        raise NotGeneralizedBiextension(
            f"need exactly three nonzero weights, found {len(weights)}")
    two_c, b, two_a = weights
    B = H.bigrading(tol)
    # middle types with p >= q and multiplicities
    middle = tuple(sorted(((p, q), piece.dim) for (p, q), piece in B.components.items()
                          if p + q == b and p >= q))
    # height checks the orientation before it reads the splitting
    ht = height(om, tol)

    delta = deligne_delta(H, tol).delta
    flag = H.W.adapted_basis()
    lo, hi = flag.dims[:2]
    d1 = (delta @ om.orientation.top @ flag.inverse)[lo:hi]
    bottom = om.orientation.bottom
    d2 = np.array([_coefficient_against_bottom(delta @ m, bottom, tol,
                                               max(maxabs(delta @ m), maxabs(delta)))
                   for m in flag.T[lo:hi]])

    def clean(x: np.ndarray) -> tuple[float, ...]:
        scale = max(1.0, float(np.abs(x).max()) if x.size else 0.0)
        out = np.where(np.abs(np.asarray(x)) <= tol * scale, 0.0, np.real(x))
        return tuple(float(t) for t in out)

    return BiextensionSpec(weights=(two_a, b, two_c), middle=middle,
                           delta1=clean(d1), delta2=clean(d2), ht=ht)


# ---------------------------------------------------------------------------
# seeded generators used by the property suites


def random_spec(rng: np.random.Generator, max_middle: int = 4) -> BiextensionSpec:
    """Random buildable spec with dimension at most max_middle + 2."""
    two_a = 2 * int(rng.integers(-1, 2))
    gap_top = int(rng.integers(1, 3))
    b = two_a - gap_top
    # bottom weight: even and strictly below b
    two_c = b - 1 if (b - 1) % 2 == 0 else b - 2
    a, c = two_a // 2, two_c // 2
    # middle types of weight b
    types = []
    if b % 2 == 0:
        types.append(((b // 2, b // 2), int(rng.integers(1, max_middle + 1))))
        if max_middle >= 3 and rng.random() < 0.3 and b // 2 + 1 < a and b // 2 - 1 > c:
            types.append(((b // 2 + 1, b // 2 - 1), 1))
    else:
        types.append((((b + 1) // 2, (b - 1) // 2), max(1, int(rng.integers(1, max_middle // 2 + 1)))))
    spec_types = tuple(sorted(types))
    tmp = BiextensionSpec(weights=(two_a, b, two_c), middle=spec_types,
                          delta1=(0.0,) * _mdim(spec_types),
                          delta2=(0.0,) * _mdim(spec_types), ht=0.0)
    coord_types = tmp.coordinate_types
    d1 = np.zeros(tmp.middle_dim)
    d2 = np.zeros(tmp.middle_dim)
    for i, (p, q) in enumerate(coord_types):
        if p < a and q < a:
            d1[i] = rng.normal()
        if p > c and q > c:
            d2[i] = rng.normal()
    return BiextensionSpec(weights=(two_a, b, two_c), middle=spec_types,
                           delta1=tuple(d1), delta2=tuple(d2),
                           ht=float(rng.normal()))


def _mdim(types) -> int:
    return sum((1 if p == q else 2) * m for (p, q), m in types)
