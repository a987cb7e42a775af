"""Every input check of the library raises its typed HodgeError with its
message: one row per check, each a small invalid input."""
import re

import numpy as np
import pytest

from hodgeheight.biextension import BiextensionSpec
from hodgeheight.errors import (
    ConstructionFailed,
    HodgeError,
    InvalidBlockType,
    MalformedFiltration,
    NotAMorphism,
    NotInjectiveOnEnds,
    NotOriented,
)
from hodgeheight.height import Orientation, OrientedMHS, _check_oriented, check_functoriality
from hodgeheight.limits import deligne_system_grading
from hodgeheight.linalg import Subspace
from hodgeheight.mhs import MixedHodgeStructure, hodge_filtration, weight_filtration
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.variations import GammaPoly, LocalVariation, dilog_variation, random_hodge_tate


def _span(*rows, n=3):
    return Subspace.from_rows([[int(i == j) for j in range(n)] for i in rows], n)


FULL = Subspace.full(3)


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
    "grading-input": (lambda: deligne_system_grading(cubic_orbit()[0].W, cubic_orbit()[0].N,
                                                     np.zeros((4, 4))),
                      ConstructionFailed, "[Y, N] = -2N fails on the input"),
}


@pytest.mark.parametrize("make, error, message", CASES.values(), ids=CASES.keys())
def test_invalid_input_raises_its_typed_error(make, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        make()
    assert str(info.value) == message
