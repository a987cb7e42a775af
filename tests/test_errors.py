"""Every input check of the library raises its typed HodgeError with its
message: one row per check, each a small invalid input."""
import re

import numpy as np
import pytest

from hodgeheight.biextension import BiextensionSpec
from hodgeheight.errors import (
    ConstructionFailed,
    DimensionMismatch,
    HodgeError,
    InfeasibleRanks,
    InvalidBlockType,
    MalformedFiltration,
    NotAMorphism,
    NotInjectiveOnEnds,
    NotNilpotent,
    NotOriented,
)
from hodgeheight.height import Orientation, OrientedMHS, _check_oriented, check_functoriality
from hodgeheight.limits import (
    NilpotentOrbit,
    deligne_system_grading,
    monodromy_weight_filtration,
    relative_weight_filtration,
)
from hodgeheight.linalg import Subspace
from hodgeheight.mhs import MixedHodgeStructure, hodge_filtration, weight_filtration
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.variations import (
    GammaPoly,
    LocalVariation,
    dilog_variation,
    fiber,
    random_hodge_tate,
)


def _span(*rows, n=3):
    return Subspace.from_rows([[int(i == j) for j in range(n)] for i in rows], n)


FULL = Subspace.full(3)
FAR_Z = complex(np.log(1e6) / (2j * np.pi))


def _oriented(W, top=(1, 0, 0), bottom=(0, 0, 1)):
    _check_oriented(W, Orientation.of(top, bottom), 1e-9)


def _functoriality(f, target=None):
    A = dilog_fiber(0.4 + 0.65j)
    check_functoriality(f, A, A if target is None else target)


def _spec(weights=(0, -2, -4), middle=(((-1, -1), 1),), delta1=(0.0,)):
    BiextensionSpec(weights, middle, delta1, (0.0,), 1.0)


def _variation(v, **changed):
    fields = dict(W=v.W, F_inf=v.F_inf, nilpotents=v.nilpotents, gamma=v.gamma,
                  orientation=v.orientation)
    LocalVariation(**{**fields, **changed})


def _cubic_orbit_with(N):
    orbit = cubic_orbit()[0]
    NilpotentOrbit(orbit.W, N, orbit.F_inf)


def _e30():
    # E_30 sends e0 (weight 0) to e3 (weight -6), so it lowers W, but it
    # moves F^0 = <e0> outside F^-1 = <e0, e1>
    N = np.zeros((4, 4))
    N[3, 0] = 1.0
    return N


def _gamma_raising_weight():
    # Gamma = s E_02 sends e2 (weight -4) to e0 (weight 0): it does not
    # preserve W, so no fiber of the variation keeps the limit's Hodge numbers
    M = np.zeros((3, 3))
    M[0, 2] = 1.0
    _variation(dilog_variation(10), gamma=GammaPoly.of(1, {(1,): M}))


def _untame():
    # Gamma = s_1 M with [N_2, M] != 0: s_2 does not divide [N_2, Gamma]
    v = random_hodge_tate((1, 2, 1), 2, seed=1)
    M = np.zeros((4, 4))
    M[1, 0] = 1.0
    _variation(v, gamma=GammaPoly.of(2, {(1, 0): M}))


CASES = {
    "top-rank": (lambda: _oriented(weight_filtration([(-2, _span(2)), (0, FULL)], 3)),
                 NotOriented, "top weight-graded piece is not of rank one"),
    "bottom-rank": (lambda: _oriented(weight_filtration([(-2, _span(1, 2)), (0, FULL)], 3)),
                    NotOriented, "bottom weight-graded piece is not of rank one"),
    "zero-generator": (lambda: _oriented(dilog_fiber(1j).mhs.W, top=(0, 0, 0)),
                       NotOriented, "orientation generators must be nonzero"),
    "functoriality-weights": (lambda: _functoriality(np.eye(3), OrientedMHS(
        cubic_orbit()[0].fiber(1j), cubic_orbit()[1])),
        NotAMorphism, "top/bottom weights of source and target differ"),
    "functoriality-kills-ends": (lambda: _functoriality(np.zeros((3, 3))),
                                 NotInjectiveOnEnds, "morphism kills a graded end generator"),
    "functoriality-complex-scale": (lambda: _functoriality(np.eye(3), OrientedMHS(
        dilog_fiber(0.4 + 0.65j).mhs, Orientation.of([1j, 0, 0], [0, 0, 1]))),
        NotAMorphism, "top scaling factor is not real"),
    "non-real-morphism": (lambda: _functoriality(1j * np.eye(3)),
                          NotAMorphism, "matrix does not respect both filtrations"),
    "w-not-nested": (lambda: weight_filtration([(-4, _span(0)), (-2, _span(1, 2)), (0, FULL)], 3),
                     MalformedFiltration, "weight filtration steps must strictly increase"),
    "f-not-nested": (lambda: hodge_filtration([(0, FULL), (1, _span(0, 1)), (2, _span(2))], 3),
                     MalformedFiltration, "Hodge filtration steps must strictly decrease"),
    "no-step": (lambda: weight_filtration([], 3),
                MalformedFiltration, "a filtration needs at least one step"),
    "step-dimension": (lambda: weight_filtration([(0, Subspace.full(2))], 3),
                       MalformedFiltration, "step has wrong ambient dimension"),
    "step-not-finite": (lambda: weight_filtration(
        [(0, Subspace(np.array([[1, 0, 0], [0, 1, 0], [0, 0, np.inf]], dtype=complex), 3,
                      [0, 1, 2]))], 3),
        MalformedFiltration, "step basis has an entry that is not finite"),
    "w-bottom-zero": (lambda: weight_filtration(
        [(-2, Subspace.zero(2)), (0, Subspace.full(2))], 2),
        MalformedFiltration, "bottom jump of W must be nonzero"),
    "w-not-full": (lambda: weight_filtration([(0, _span(0))], 3),
                   MalformedFiltration, "weight filtration must top out at the full space"),
    "f-not-full": (lambda: hodge_filtration([(0, _span(0))], 3),
                   MalformedFiltration, "Hodge filtration must start at the full space"),
    "f-top-zero": (lambda: hodge_filtration([(0, FULL), (1, Subspace.zero(3))], 3),
                   MalformedFiltration, "top jump of F must be nonzero"),
    "mhs-spaces": (lambda: MixedHodgeStructure(weight_filtration([(0, FULL)], 3),
                                               hodge_filtration([(0, Subspace.full(2))], 2)),
                   MalformedFiltration, "W and F live on different spaces"),
    "mhs-directions": (lambda: MixedHodgeStructure(hodge_filtration([(0, FULL)], 3),
                                                   weight_filtration([(0, FULL)], 3)),
                       MalformedFiltration, "W must be increasing and F decreasing"),
    "spec-weights": (lambda: _spec(weights=(0, 0, -4)),
                     InvalidBlockType, "weights must satisfy 2a > b > 2c"),
    "spec-odd-end": (lambda: _spec(weights=(1, -2, -4)),
                     InvalidBlockType, "end weights must be even"),
    "spec-middle": (lambda: _spec(middle=(((-2, 0), 1),)),
                    InvalidBlockType, "bad middle type (-2, 0) x 1"),
    "spec-length": (lambda: _spec(delta1=(0.0, 0.0)),
                    InvalidBlockType, "block length does not match the middle dimension"),
    "gamma-exponents": (lambda: GammaPoly.of(1, {(1, 2): np.eye(2)}),
                        HodgeError, "bad exponent tuple (1, 2)"),
    "gamma-arguments": (lambda: GammaPoly.of(1, {(1,): np.eye(2)})([1, 2]),
                        HodgeError, "expected 1 parameters, got 2"),
    "variation-gamma-variables": (lambda: _variation(dilog_variation(25), gamma=GammaPoly.zero(2)),
                                  HodgeError, "Gamma must have one variable per divisor"),
    "variation-untame": (_untame, HodgeError, "tameness divisibility s_j | [N_j, Gamma] fails"),
    "variation-negative-nil-count": (lambda: random_hodge_tate((1, 2, 1), -1, 0),
                                     InfeasibleRanks, "nil_count must be nonnegative"),
    # s^60 overflows the float range at |s| = 1e6, so the degree-60 Gamma(s)
    # is not finite: a typed error naming the point, and no numpy warning
    "fiber-gamma-not-finite": (lambda: fiber(dilog_variation(), [FAR_Z], [1e6]),
                               MalformedFiltration,
                               f"fiber at z={[FAR_Z]}, s={[1e6]}: Gamma(s) is not finite"),
    # (1e200)^2 is past the float range: exp(zN) is not finite, and the
    # fiber says so, naming its point, for an orbit and for a variation
    "orbit-fiber-not-finite": (lambda: cubic_orbit()[0].fiber(1e200j), MalformedFiltration,
                               "orbit fiber at z = 1e+200j is not a mixed Hodge structure: "
                               "the move is not finite"),
    "fiber-move-not-finite": (lambda: fiber(random_hodge_tate((1, 2, 2, 1), 1, seed=3),
                                            [1e200j], [0.0]),
                              MalformedFiltration, "fiber at z=[1e+200j], s=[0.0]: "
                              "the move is not finite"),
    "variation-gamma-raises-weight": (_gamma_raising_weight, HodgeError,
                                      "Gamma coefficients must preserve the weight filtration"),
    "orbit-horizontality": (lambda: _cubic_orbit_with(_e30()), NotNilpotent,
                            "N must shift the Hodge filtration by one (horizontality)"),
    "ambient-mismatch": (lambda: Subspace.full(2).contains(Subspace.full(3)),
                         DimensionMismatch, "ambient dimensions differ"),
    "grading-input": (lambda: deligne_system_grading(cubic_orbit()[0].W, cubic_orbit()[0].N,
                                                     np.zeros((4, 4))),
                      ConstructionFailed, "[Y, N] = -2N fails on the input"),
    # a Y with a NaN is refused before its eigenvalues are taken
    "grading-not-finite": (lambda: deligne_system_grading(
        cubic_orbit()[0].W, cubic_orbit()[0].N, np.diag([0.0, -2.0, np.nan, -6.0])),
        ConstructionFailed, "Y has an entry that is not finite"),
    # an N or a Y of the wrong shape is refused where it enters the orbit path,
    # naming the shape that W's dimension asks for
    "orbit-nilpotent-not-square": (lambda: _cubic_orbit_with(np.zeros((4, 3))),
                                   DimensionMismatch, "N must be 4 x 4, got 4 x 3"),
    "orbit-nilpotent-too-small": (lambda: _cubic_orbit_with(np.zeros((3, 3))),
                                  DimensionMismatch, "N must be 4 x 4, got 3 x 3"),
    "monodromy-nilpotent-not-square": (lambda: monodromy_weight_filtration(np.zeros((4, 3))),
                                       DimensionMismatch, "N must be 4 x 4, got 4 x 3"),
    "relative-nilpotent-not-square": (
        lambda: relative_weight_filtration(np.zeros((4, 3)), cubic_orbit()[0].W),
        DimensionMismatch, "N must be 4 x 4, got 4 x 3"),
    "grading-not-square": (lambda: deligne_system_grading(cubic_orbit()[0].W, cubic_orbit()[0].N,
                                                          np.eye(3)),
                           DimensionMismatch, "Y must be 4 x 4, got 3 x 3"),
    "grading-nilpotent-not-square": (
        lambda: deligne_system_grading(cubic_orbit()[0].W, np.zeros((4, 3)), np.eye(4)),
        DimensionMismatch, "N must be 4 x 4, got 4 x 3"),
    "variation-nilpotent-not-square": (
        lambda: _variation(dilog_variation(), nilpotents=(np.zeros((3, 2)),)),
        DimensionMismatch, "N must be 3 x 3, got 3 x 2"),
}


@pytest.mark.parametrize("make, error, message", CASES.values(), ids=CASES.keys())
def test_invalid_input_raises_its_typed_error(make, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        make()
    assert str(info.value) == message
