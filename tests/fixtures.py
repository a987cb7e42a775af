"""Seeded structures and helpers that only the tests use.

embed_into_padded builds a biextension together with its inclusion into the
same build with extra split middle coordinates; component_support names the
Hodge components of a splitting that are nonzero.  The generators that the
benchmark also draws from (random_spec, random_deligne_system,
random_hodge_tate) stay in the library.
"""
import numpy as np

from hodgeheight.biextension import BiextensionSpec, _mdim, build_biextension
from hodgeheight.config import default_tol
from hodgeheight.linalg import maxabs


def component_support(components: dict[tuple[int, int], np.ndarray],
                      tol: float | None = None) -> list[tuple[int, int]]:
    """Keys of the components that are nonzero at the working tolerance."""
    tol = default_tol() if tol is None else tol
    scale = max([maxabs(m) for m in components.values()] + [1.0])
    return sorted(k for k, m in components.items() if maxabs(m) > tol * scale)


def embed_into_padded(om_spec: BiextensionSpec, extra: int = 1):
    """Inclusion of a built biextension into the same build with extra split
    middle coordinates: a morphism with d_max = d_min = 1 and equal heights."""
    two_a, b, two_c = om_spec.weights
    if b % 2:
        pad_type = ((b + 1) // 2, (b - 1) // 2)
    else:
        pad_type = (b // 2, b // 2)
    mids = dict(om_spec.middle)
    mids[pad_type] = mids.get(pad_type, 0) + extra
    middle_big = tuple(sorted(mids.items()))
    # place the small delta entries at the coordinates of the matching type
    # copies inside the (sorted) enlarged middle; padded columns stay zero
    skeleton = BiextensionSpec(weights=om_spec.weights, middle=middle_big,
                               delta1=(0.0,) * _mdim(middle_big),
                               delta2=(0.0,) * _mdim(middle_big), ht=om_spec.ht)
    small_cols = _type_positions(om_spec)
    big_cols = _type_positions(skeleton)
    d1 = np.zeros(skeleton.middle_dim)
    d2 = np.zeros(skeleton.middle_dim)
    n_a, n_b = om_spec.dim, skeleton.dim
    f = np.zeros((n_b, n_a))
    f[0, 0] = 1.0
    f[n_b - 1, n_a - 1] = 1.0
    for t, src_positions in small_cols.items():
        for s_i, dst in zip(src_positions, big_cols[t]):
            d1[dst] = om_spec.delta1[s_i]
            d2[dst] = om_spec.delta2[s_i]
            f[1 + dst, 1 + s_i] = 1.0
    big = BiextensionSpec(weights=om_spec.weights, middle=middle_big,
                          delta1=tuple(d1), delta2=tuple(d2), ht=om_spec.ht)
    A = build_biextension(om_spec)
    B = build_biextension(big)
    return f, A, B


def _type_positions(spec: BiextensionSpec) -> dict[tuple[int, int], list[int]]:
    pos: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(spec.coordinate_types):
        pos.setdefault(t, []).append(i)
    return pos
