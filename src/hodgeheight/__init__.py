"""Deligne bigradings, splittings and signed heights of mixed Hodge structures."""

from .biextension import BiextensionSpec, build_biextension, extract_invariants
from .config import DEFAULT_TOL
from .dilog import bloch_wigner, li2
from .height import (
    Orientation,
    OrientedMHS,
    check_functoriality,
    height,
    height_biextension,
    rho2,
)
from .limits import (
    DeligneSystem,
    NilpotentOrbit,
    deligne_system_grading,
    limit_height,
    limit_mhs,
    monodromy_weight_filtration,
    relative_weight_filtration,
)
from .linalg import Subspace, echelonize, intersect, subspace_sum
from .mhs import (
    DeligneBigrading,
    Filtration,
    MixedHodgeStructure,
    conjugate,
    deligne_bigrading,
    dual,
    hodge_filtration,
    rational_mhs,
    tate_twist,
    validate,
    weight_filtration,
)
from .splitting import Splitting, deligne_delta, gl_hodge_components
from .variations import (
    GammaPoly,
    LocalVariation,
    check_asymptotics,
    fiber,
    height_sweep,
    random_hodge_tate,
)

__version__ = "0.1.0"

__all__ = [
    "BiextensionSpec",
    "DEFAULT_TOL",
    "DeligneBigrading",
    "DeligneSystem",
    "Filtration",
    "GammaPoly",
    "LocalVariation",
    "MixedHodgeStructure",
    "NilpotentOrbit",
    "Orientation",
    "OrientedMHS",
    "Splitting",
    "Subspace",
    "bloch_wigner",
    "build_biextension",
    "check_asymptotics",
    "check_functoriality",
    "conjugate",
    "deligne_bigrading",
    "deligne_delta",
    "deligne_system_grading",
    "dual",
    "echelonize",
    "extract_invariants",
    "fiber",
    "gl_hodge_components",
    "height",
    "height_biextension",
    "height_sweep",
    "hodge_filtration",
    "intersect",
    "li2",
    "limit_height",
    "limit_mhs",
    "monodromy_weight_filtration",
    "random_hodge_tate",
    "rational_mhs",
    "relative_weight_filtration",
    "rho2",
    "subspace_sum",
    "tate_twist",
    "validate",
    "weight_filtration",
]
