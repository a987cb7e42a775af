"""JSON file formats for structures, orbits and variations.

Conventions: weight-filtration bases, nilpotents and orientation vectors are
rational, serialized as strings "p/q" (or integers), and read straight to
int rows over one denominator, each row of `dimension` entries: a plain
decimal integer string by int, any other entry by Fraction.  A W step is
row-reduced from those rows, an N is an ExactMatrix.  Complex entries are
[re, im] pairs.  An integer field may be an integral float or an integer
string; a bool is no number.  A structure file holds {dimension,
weight_filtration, hodge_filtration, orientation?}; a variation file has
f_infinity, nilpotents and gamma in place of hodge_filtration, and an orbit
file is a variation file with one N and no Gamma, {nilpotent}, its
orientation optional.  A document that lacks a key or holds a malformed
entry raises HodgeError.  Output uses sorted keys so files are byte-stable.
"""
from __future__ import annotations

import cmath
import functools
import json
from fractions import Fraction
from math import lcm

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, HodgeError
from .height import Orientation
from .limits import NilpotentOrbit
from .linalg import ExactMatrix, Subspace, check_square, integer
from .mhs import Filtration, MixedHodgeStructure, hodge_filtration, weight_filtration
from .variations import GammaPoly, LocalVariation


def _document(parse):
    """A parser whose document lacks a key or holds a value of the wrong
    shape raises HodgeError, as for a garbage rational entry."""
    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise HodgeError(f"malformed document: {type(exc).__name__}: {exc}") from exc
    return checked


def _parse_rational(x) -> int | Fraction:
    try:
        if isinstance(x, str) and x.removeprefix("-").isdigit() and x.isascii():
            return int(x)   # a plain decimal integer string: ASCII digits after at most one "-"
        if not isinstance(x, bool) and (isinstance(x, (str, int))
                                        or isinstance(x, float) and x.is_integer()):
            return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise HodgeError(f"bad rational entry {x!r}: {exc}") from exc
    raise HodgeError(f"expected a rational entry, got {x!r}")


def _rational_rows(rows, n: int, key: str) -> tuple[list[list[int]], int]:
    """(num, den): the rows under key, of n entries each, as int rows over one den."""
    read = [[_parse_rational(x) for x in row] for row in rows]
    if (bad := next((len(row) for row in read if len(row) != n), None)) is not None:
        raise DimensionMismatch(f"malformed document: {key}: a row of {bad} entries "
                                f"in dimension {n}")
    den = lcm(*(x.denominator for row in read for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in read], den


def _nilpotent(rows, n: int, key: str) -> ExactMatrix:
    if len({len(row) for row in rows}) == 1:   # rows of one length: n x n as an orbit checks
        check_square(ExactMatrix(rows), n)
    return ExactMatrix(*_rational_rows(rows, n, key))


def _parse_complex(x) -> complex:
    """A [re, im] pair, a number or a rational string; json reads NaN and
    Infinity, so a part that is not finite is a malformed entry."""
    if isinstance(x, (list, tuple)) and len(x) == 2:
        z = complex(float(x[0]), float(x[1]))
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        z = complex(x)
    elif isinstance(x, str):
        z = complex(Fraction(x))
    else:
        raise HodgeError(f"expected a complex entry [re, im], got {x!r}")
    if not cmath.isfinite(z):
        raise HodgeError(f"malformed document: complex entry {x!r} is not finite")
    return z


def _complex_matrix(rows) -> np.ndarray:
    return np.array([[_parse_complex(x) for x in row] for row in rows], dtype=complex)


def _filtrations(doc: dict, hodge_key: str, tol: float) -> tuple[Filtration, Filtration]:
    """The weight filtration of a file and the Hodge filtration under hodge_key,
    each step echelonized and its nesting checked at tol."""
    n = integer(doc["dimension"], "dimension")
    W = weight_filtration([(integer(step["weight"], "weight"), Subspace.from_integer_rows(
                            _rational_rows(step["basis"], n, "weight_filtration")[0], n))
                           for step in doc["weight_filtration"]], n, tol)
    F = hodge_filtration([(integer(step["level"], "level"),
                           Subspace.from_rows(_complex_matrix(step["basis"]), n, tol))
                          for step in doc[hodge_key]], n, tol)
    return W, F


@_document
def parse_mhs(doc: dict, tol: float = DEFAULT_TOL) -> MixedHodgeStructure:
    return MixedHodgeStructure(*_filtrations(doc, "hodge_filtration", tol))


@_document
def parse_orientation(doc: dict) -> Orientation | None:
    if "orientation" not in doc:
        return None
    o, n = doc["orientation"], integer(doc["dimension"], "dimension")
    (top, bottom), den = _rational_rows([o["top"], o["bottom"]], n, "orientation")
    return Orientation.of([x / den for x in top], [x / den for x in bottom])


@_document
def parse_orbit(doc: dict,
                tol: float = DEFAULT_TOL) -> tuple[NilpotentOrbit, Orientation | None]:
    W, F = _filtrations(doc, "f_infinity", tol)
    N = _nilpotent(doc["nilpotent"], W.ambient_dim, "nilpotent")
    return NilpotentOrbit(W, N, F, tol), parse_orientation(doc)


@_document
def parse_variation(doc: dict, tol: float = DEFAULT_TOL) -> LocalVariation:
    """A variation file, or an orbit file as the variation of its one N with
    Gamma = 0 and no orientation needed; each N exact, as in parse_orbit."""
    W, F = _filtrations(doc, "f_infinity", tol)
    orbit = "nilpotents" not in doc
    nilpotents = tuple(_nilpotent(mat, W.ambient_dim, "nilpotent" if orbit else "nilpotents")
                       for mat in ([doc["nilpotent"]] if orbit else doc["nilpotents"]))
    terms = {tuple(integer(e, "exponents") for e in term["exponents"]):
             _complex_matrix(term["matrix"]) for term in doc.get("gamma", [])}
    orient = parse_orientation(doc)
    if orient is None and not orbit:
        raise HodgeError("variation file needs an orientation block")
    return LocalVariation(W=W, F_inf=F, nilpotents=nilpotents,
                          gamma=GammaPoly.of(len(nilpotents), terms), orientation=orient, tol=tol)


def detect_kind(doc: dict) -> str:
    return "variation" if "nilpotents" in doc else "orbit" if "nilpotent" in doc else "mhs"


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)
