"""Operation counts of the orbit path: the echelon forms and least-squares
solves that a cubic limit height and one Deligne system make.  A count does
not depend on the machine, so a change that adds work shows here even where
the timings of a noisy host cannot tell it apart."""
import numpy as np
import pytest

from hodgeheight import limits, linalg, mhs
from hodgeheight.limits import deligne_system_grading, limit_height, relative_weight_filtration
from hodgeheight.mhs import split_filtration
from hodgeheight.schemas import parse_orbit
from test_schemas import _cubic_doc


@pytest.fixture
def counts(monkeypatch):
    """Calls of rref_exact and rref_float at every module that binds them, and
    of np.linalg.lstsq, by name."""
    seen: dict[str, int] = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            seen[name] = seen.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("rref_exact", "rref_float"):
        wrapper = counted(name, getattr(linalg, name))
        for module in (linalg, mhs, limits):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    return seen


def _j3_system():
    """A Jordan block of size 3 at weight 0 next to a line at weight -2, in
    coordinates moved by a unimodular integer g: M has weights -2, 0, 2, and
    Y' = g diag(0, 0, 0, -2) g^-1 takes the corrected pass."""
    g = np.array([[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    g_inv = np.rint(np.linalg.inv(g))
    N = np.zeros((4, 4))
    N[1, 0] = N[2, 1] = 1
    W = split_filtration([0, 0, 0, -2], True, g.T)
    return W, g @ N @ g_inv, g @ np.diag([2.0, 0.0, -2.0, -2.0]) @ g_inv


def test_a_cubic_limit_height_makes_at_most_its_echelons_and_solves(counts):
    # before the exact peel and the one-elimination check: rref_exact 33,
    # rref_float 3, lstsq 1; with them: 15, 3 and 1
    orbit, orient = parse_orbit(_cubic_doc(0.3 + 0.2j))
    counts.clear()
    assert abs(limit_height(orbit, orient)) < 1e-10
    assert counts.get("rref_exact", 0) <= 15
    assert counts.get("rref_float", 0) <= 3
    assert counts.get("lstsq", 0) <= 1


def test_a_j3_deligne_system_makes_at_most_its_echelons_and_solves(counts):
    # before the exact start and the exact peel: rref_exact 19, rref_float 6,
    # lstsq 3 (N0+, one depth correction, N0+); with them: 12, 0 and 3
    W, N, Y = _j3_system()
    counts.clear()
    M = relative_weight_filtration(N, W)
    ds = deligne_system_grading(W, N, Y)
    assert M.indices == [-2, 0, 2] and ds.residual < 1e-12
    assert sorted(np.linalg.eigvals(ds.Yprime).real.round().tolist()) == [-2, 0, 0, 0]
    assert counts.get("rref_exact", 0) <= 12
    assert counts.get("rref_float", 0) <= 0
    assert counts.get("lstsq", 0) <= 3
