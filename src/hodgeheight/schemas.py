"""JSON file formats for structures, orbits and variations.

Conventions: weight-filtration bases and orientation vectors are rational,
serialized as strings "p/q" (or integers); complex entries are [re, im]
pairs.  A structure file holds {dimension, weight_filtration, hodge_filtration,
orientation?}; an orbit file adds {nilpotent, f_infinity}; a variation file
adds {nilpotents, gamma}.  A document that lacks a key or holds a malformed
entry raises HodgeError.  Output uses sorted keys so files are byte-stable.
"""
from __future__ import annotations

import cmath
import functools
import json
from fractions import Fraction
from typing import Any

import numpy as np

from .errors import HodgeError
from .height import Orientation, OrientedMHS
from .limits import NilpotentOrbit
from .linalg import Subspace
from .mhs import Filtration, MixedHodgeStructure, hodge_filtration, weight_filtration
from .variations import GammaPoly, LocalVariation


def _document(parse):
    """A parser whose document lacks a key or holds a value of the wrong
    shape raises HodgeError, as for a garbage rational entry."""
    @functools.wraps(parse)
    def checked(doc):
        try:
            return parse(doc)
        except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
            raise HodgeError(f"malformed document: {type(exc).__name__}: {exc}") from exc
    return checked


def _parse_rational(x) -> Fraction:
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (int,)):
            return Fraction(x)
        if isinstance(x, float) and x.is_integer():
            return Fraction(int(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise HodgeError(f"bad rational entry {x!r}: {exc}") from exc
    raise HodgeError(f"expected a rational entry, got {x!r}")


def _parse_complex(x) -> complex:
    """A [re, im] pair, a number or a rational string; json reads NaN and
    Infinity, so a part that is not finite is a malformed entry."""
    if isinstance(x, (list, tuple)) and len(x) == 2:
        z = complex(float(x[0]), float(x[1]))
    elif isinstance(x, (int, float)):
        z = complex(x)
    elif isinstance(x, str):
        z = complex(Fraction(x))
    else:
        raise HodgeError(f"expected a complex entry [re, im], got {x!r}")
    if not cmath.isfinite(z):
        raise HodgeError(f"malformed document: complex entry {x!r} is not finite")
    return z


def _rational_matrix(rows) -> list[list[Fraction]]:
    return [[_parse_rational(x) for x in row] for row in rows]


def _complex_matrix(rows) -> np.ndarray:
    return np.array([[_parse_complex(x) for x in row] for row in rows], dtype=complex)


def _dump_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _filtrations(doc: dict, hodge_key: str) -> tuple[Filtration, Filtration]:
    """The weight filtration of a file and the Hodge filtration under hodge_key."""
    n = int(doc["dimension"])
    W = weight_filtration([(int(step["weight"]),
                            Subspace.from_rows(_rational_matrix(step["basis"]), n))
                           for step in doc["weight_filtration"]], n)
    F = hodge_filtration([(int(step["level"]),
                           Subspace.from_rows(_complex_matrix(step["basis"]), n))
                          for step in doc[hodge_key]], n)
    return W, F


@_document
def parse_mhs(doc: dict) -> MixedHodgeStructure:
    return MixedHodgeStructure(*_filtrations(doc, "hodge_filtration"))


@_document
def parse_orientation(doc: dict) -> Orientation | None:
    if "orientation" not in doc:
        return None
    o = doc["orientation"]
    top = [float(_parse_rational(x)) for x in o["top"]]
    bottom = [float(_parse_rational(x)) for x in o["bottom"]]
    return Orientation.of(top, bottom)


@_document
def parse_oriented_mhs(doc: dict) -> OrientedMHS:
    orient = parse_orientation(doc)
    if orient is None:
        raise HodgeError("file has no orientation block")
    return OrientedMHS(parse_mhs(doc), orient)


@_document
def parse_orbit(doc: dict) -> tuple[NilpotentOrbit, Orientation | None]:
    W, F = _filtrations(doc, "f_infinity")
    N = _rational_matrix(doc["nilpotent"])
    return NilpotentOrbit(W, N, F), parse_orientation(doc)


@_document
def parse_variation(doc: dict) -> LocalVariation:
    W, F = _filtrations(doc, "f_infinity")
    nilpotents = tuple(np.array([[float(_parse_rational(x)) for x in row] for row in mat])
                       for mat in doc["nilpotents"])
    terms = {}
    for term in doc.get("gamma", []):
        expo = tuple(int(e) for e in term["exponents"])
        terms[expo] = _complex_matrix(term["matrix"])
    gamma = GammaPoly.of(len(nilpotents), terms) if terms else GammaPoly.zero(len(nilpotents))
    orient = parse_orientation(doc)
    if orient is None:
        raise HodgeError("variation file needs an orientation block")
    return LocalVariation(W=W, F_inf=F, nilpotents=nilpotents, gamma=gamma,
                          orientation=orient)


def detect_kind(doc: dict) -> str:
    if "nilpotents" in doc:
        return "variation"
    if "nilpotent" in doc:
        return "orbit"
    return "mhs"


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# serialization


def mhs_to_doc(H: MixedHodgeStructure, orientation: Orientation | None = None) -> dict:
    doc: dict[str, Any] = {
        "dimension": H.dim,
        "weight_filtration": [
            {"weight": k,
             "basis": [[_rat_str(x) for x in row] for row in _exact_rows(s)]}
            for k, s in H.W.steps
        ],
        "hodge_filtration": [
            {"level": p, "basis": [[_dump_complex(x) for x in row] for row in s.basis]}
            for p, s in H.F.steps
        ],
    }
    if orientation is not None:
        doc["orientation"] = {
            "top": [_rat_str(x) for x in np.real(orientation.top)],
            "bottom": [_rat_str(x) for x in np.real(orientation.bottom)],
        }
    return doc


def _exact_rows(s: Subspace):
    if s.is_exact():
        return s.exact
    if np.abs(np.imag(s.basis)).max(initial=0.0) > 0:
        raise HodgeError("weight filtration must be rational to serialize")
    return [[Fraction(float(x)).limit_denominator(10 ** 12) for x in row]
            for row in np.real(s.basis)]


def _rat_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    f = Fraction(float(x)).limit_denominator(10 ** 12)
    return str(f)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)
