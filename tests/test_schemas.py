"""The document reader: rational entries read straight to int rows, the
integer fields, the row lengths, and the orbit's exp series built on first
use, each against a reading with a Fraction per entry; and the work a cubic
document's limit height does in the Deligne-system body."""
import json
import re
from fractions import Fraction
from math import factorial, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgeheight import linalg, schemas
from hodgeheight.errors import DimensionMismatch, HodgeError
from hodgeheight.height import Orientation, OrientedMHS, height
from hodgeheight.limits import NilpotentOrbit, _deligne_system, limit_height, limit_mhs
from hodgeheight.linalg import expm_nilpotent, nilpotent_powers
from hodgeheight.scenarios import cubic_orbit
from hodgeheight.schemas import _parse_rational, _rational_rows, parse_orbit
from hodgeheight.splitting import deligne_delta
from hodgeheight.variations import GammaPoly

from fixtures import J3_DOC, fraction_reading, run_cli


def _cubic_doc(lam: complex, n_entry=str) -> dict:
    """The cubic orbit with F_inf moved by exp(lam N), as a document; n_entry
    writes each entry of N."""
    orbit, orient = cubic_orbit()
    F = orbit.F_inf.map_spaces(lambda sp: sp.image_under(expm_nilpotent(lam * orbit.N)))
    return {
        "dimension": 4,
        "weight_filtration": [{"weight": k, "basis": [[str(x) for x in row] for row in s.exact]}
                              for k, s in orbit.W.steps],
        "f_infinity": [{"level": p, "basis": [[[x.real, x.imag] for x in row] for row in s.basis]}
                       for p, s in F.steps],
        "nilpotent": [[n_entry(int(x)) for x in row] for row in np.real(orbit.N)],
        "orientation": {"top": ["1", "0", "0", "0"], "bottom": ["0", "0", "0", "1"]},
    }


# every form a document may write a rational entry in, and the near misses
_ENTRIES = st.one_of(
    st.from_regex(r"\A-?[0-9]{1,30}\Z"),
    st.from_regex(r"\A[ \t]*[-+]?[0-9]{1,6}(/[-+]?[0-9]{0,6})?[ \t]*\Z"),
    st.from_regex(r"\A[-+]?[0-9]{0,4}\.?[0-9]{0,4}([eE][-+]?[0-9]{1,3})?\Z"),
    st.text(alphabet="0123456789-+/.eE _٣²", max_size=8),
    st.integers(), st.floats(), st.booleans(), st.none(),
)


def _fraction_entry(x) -> Fraction:
    """The reference reading of an entry: a Fraction of a str, an int (a bool
    too) or an integral float, a bad string raising as Fraction does; else
    TypeError."""
    if isinstance(x, (str, int)) or isinstance(x, float) and x.is_integer():
        return Fraction(x)
    raise TypeError


@settings(max_examples=400, deadline=None)
@given(_ENTRIES)
@example("9" * 5000).via("past int's digit limit")
@example("-" + "9" * 5000).via("past int's digit limit")
def test_the_entry_reader_is_the_fraction_rule(x):
    # a plain decimal integer string is read by int, with no Fraction; every
    # entry is read as Fraction reads it, or refused with the message of the
    # reference reading, except that a bool is no entry
    try:
        want = _fraction_entry(x)
    except (ValueError, ZeroDivisionError) as exc:
        message = f"bad rational entry {x!r}: {exc}"
    except TypeError:
        message = f"expected a rational entry, got {x!r}"
    else:
        if not isinstance(x, bool):
            got = _parse_rational(x)
            plain = isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x) is not None
            assert got == want and (type(got) is int) == plain
            return
        message = f"expected a rational entry, got {x!r}"
    with pytest.raises(HodgeError) as refused:
        _parse_rational(x)
    assert str(refused.value) == message


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.from_regex(r"\A-?[0-9]{1,4}(/[1-9][0-9]{0,2})?\Z"),
                         min_size=3, max_size=3), max_size=4))
def test_rows_are_int_rows_over_their_least_common_denominator(rows):
    num, den = _rational_rows(rows, 3, "rows")
    fractions = [[Fraction(x) for x in row] for row in rows]
    assert all(type(x) is int for row in num for x in row)
    assert [[Fraction(x, den) for x in row] for row in num] == fractions
    assert den == lcm(*(x.denominator for row in fractions for x in row))


def test_an_integer_document_builds_no_fraction_and_its_orbit_no_series(monkeypatch):
    # the cubic document has integer strings only: no Fraction is built and no
    # entry is scanned again; exp(zN)'s series waits for the first fiber, and
    # a limit height never reads it
    built, scanned = [], []
    new, scan = Fraction.__new__, linalg._over_one_denominator

    def counted_scan(rows):
        if not isinstance(rows, np.ndarray):   # an array is read whole, not entry by entry
            scanned.append(rows)
        return scan(rows)

    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    monkeypatch.setattr(linalg, "_over_one_denominator", counted_scan)
    orbit, orient = parse_orbit(_cubic_doc(0.3 + 0.2j))
    assert built == [] and scanned == []
    monkeypatch.undo()
    assert orbit._series is None
    assert abs(limit_height(orbit, orient)) < 1e-10 and orbit._series is None
    orbit.fiber(2j)
    assert orbit._series is not None


@pytest.mark.parametrize("N", [
    cubic_orbit()[0].monodromy,
    np.real(cubic_orbit()[0].N) / 3,
    np.real(cubic_orbit()[0].N) * 0.3,
], ids=["cubic-exact", "cubic-thirds", "cubic-float"])
def test_the_lazy_series_is_the_eager_series(N):
    orbit = NilpotentOrbit(cubic_orbit()[0].W, N, cubic_orbit()[0].F_inf)
    eager = [np.array(P, dtype=complex) / factorial(k)
             for k, P in enumerate(nilpotent_powers(orbit.monodromy))]
    orbit.exp(0)
    lazy = orbit._series
    assert len(lazy) == len(eager) == 5   # N^0 .. N^3 and the first zero power
    assert all(a.tobytes() == b.tobytes() for a, b in zip(lazy, eager))
    z = np.array([0.3 + 2j, -1.5 + 0.25j])[:, None, None]
    want = sum(z ** k * P for k, P in enumerate(eager))
    assert orbit.exp(z[:, 0, 0]).tobytes() == want.tobytes()


def _same_limit(got: NilpotentOrbit, want: NilpotentOrbit) -> None:
    """M, the limit's delta, Y' and the fiber at 0.5 + 2i, bit for bit."""
    Hg, Hw = limit_mhs(got), limit_mhs(want)
    assert [(k, S.exact) for k, S in Hg.W.steps] == [(k, S.exact) for k, S in Hw.W.steps]
    assert deligne_delta(Hg).delta.tobytes() == deligne_delta(Hw).delta.tobytes()
    fg, fw = Hg.bigrading().weight_frame, Hw.bigrading().weight_frame
    assert (_deligne_system(got.W, got.N, fg.grading, fg, 1e-10).Yprime.tobytes()
            == _deligne_system(want.W, want.N, fw.grading, fw, 1e-10).Yprime.tobytes())
    assert [S.basis.tobytes() for _, S in got.fiber(0.5 + 2j).F.steps] == \
        [S.basis.tobytes() for _, S in want.fiber(0.5 + 2j).F.steps]


@pytest.mark.parametrize("doc", [
    _cubic_doc(0.3 + 0.2j),
    _cubic_doc(-1.25 + 0.5j, lambda x: f"{x}/3"),
    _cubic_doc(0.7, lambda x: f"{x}.0"),
    J3_DOC,
], ids=["cubic", "cubic-thirds", "cubic-decimals", "j3"])
def test_documents_read_as_their_fraction_reading(doc):
    # int rows give the orbit the Fraction reading gives: the same W, N, M,
    # delta, Y', fibers and limit height, bit for bit
    (got, got_o), (want, want_o) = parse_orbit(json.loads(json.dumps(doc))), fraction_reading(doc)
    assert [(k, S.exact) for k, S in got.W.steps] == [(k, S.exact) for k, S in want.W.steps]
    assert (got.monodromy.num, got.monodromy.den) == (want.monodromy.num, want.monodromy.den)
    assert got.N.tobytes() == want.N.tobytes()
    _same_limit(got, want)
    if want_o is not None:
        assert (got_o.top.tobytes(), got_o.bottom.tobytes()) == (want_o.top.tobytes(),
                                                                 want_o.bottom.tobytes())
        assert float(limit_height(got, got_o)).hex() == float(limit_height(want, want_o)).hex()


def _set(path, value):
    """A change of the cubic document: the entry at path (keys and indices) set to value."""
    def change(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return change


@pytest.mark.parametrize("change, error, message", [
    (_set(["dimension"], 4.9), HodgeError, "dimension must be an integer, got 4.9"),
    (_set(["dimension"], True), HodgeError, "dimension must be an integer, got True"),
    (_set(["dimension"], "2.5"), HodgeError, "dimension must be an integer, got '2.5'"),
    (_set(["weight_filtration", 0, "weight"], -3.7), HodgeError,
     "weight must be an integer, got -3.7"),
    (_set(["weight_filtration", 0, "weight"], False), HodgeError,
     "weight must be an integer, got False"),
    (_set(["f_infinity", 0, "level"], 0.5), HodgeError, "level must be an integer, got 0.5"),
    (_set(["f_infinity", 0, "level"], float("nan")), HodgeError,
     "level must be an integer, got nan"),
    (_set(["weight_filtration", 0, "basis", 0, 0], True), HodgeError,
     "expected a rational entry, got True"),
    (_set(["nilpotent", 1, 0], True), HodgeError, "expected a rational entry, got True"),
    (_set(["orientation", "top", 0], True), HodgeError, "expected a rational entry, got True"),
    (_set(["f_infinity", 0, "basis", 0, 0], True), HodgeError,
     "expected a complex entry [re, im], got True"),
    (_set(["f_infinity", 0, "basis", 0, 0], "1/0"), HodgeError,
     "malformed document: ZeroDivisionError: Fraction(1, 0)"),
    (_set(["weight_filtration", 0, "basis", 0], ["0", "0", "1"]), DimensionMismatch,
     "malformed document: weight_filtration: a row of 3 entries in dimension 4"),
    (_set(["nilpotent", 2], ["0", "1", "0"]), DimensionMismatch,
     "malformed document: nilpotent: a row of 3 entries in dimension 4"),
    (_set(["orientation", "bottom"], ["0", "0", "0", "0", "1"]), DimensionMismatch,
     "malformed document: orientation: a row of 5 entries in dimension 4"),
], ids=["dimension-float", "dimension-bool", "dimension-str-float", "weight-float", "weight-bool", "level-float",
        "level-nan", "w-entry-bool", "n-entry-bool", "orientation-entry-bool", "f-entry-bool",
        "f-entry-zero-denominator", "w-row-short", "n-row-short", "orientation-long"])
def test_a_bad_field_or_row_is_refused_by_name(change, error, message):
    doc = _cubic_doc(0.3 + 0.2j)
    change(doc)
    with pytest.raises(error) as exc:
        parse_orbit(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("change", [
    _set(["dimension"], 4.0), _set(["dimension"], "4"),
    _set(["weight_filtration", 0, "weight"], -6.0), _set(["weight_filtration", 0, "weight"], "-6"),
    _set(["f_infinity", 0, "level"], "-3"),
], ids=["dimension-float", "dimension-str", "weight-float", "weight-str", "level-str"])
def test_integral_floats_and_integer_strings_stay_integer_fields(change):
    doc = _cubic_doc(0.3 + 0.2j)
    want, _ = parse_orbit(doc)
    change(doc)
    got, _ = parse_orbit(doc)
    assert got.W.steps == want.W.steps and got.F_inf.indices == want.F_inf.indices


def test_variation_exponents_are_integers():
    # a document's exponents, and GammaPoly.of's, by the integer field rules
    doc = {**_cubic_doc(0.3 + 0.2j), "gamma": [{"exponents": [1.5], "matrix": [[0] * 4] * 4}]}
    doc["nilpotents"] = [doc.pop("nilpotent")]
    with pytest.raises(HodgeError, match=r"^exponents must be an integer, got 1\.5$"):
        schemas.parse_variation(doc)
    with pytest.raises(HodgeError, match=r"^exponent must be an integer, got True$"):
        GammaPoly.of(1, {(True,): np.zeros((4, 4))})
    assert GammaPoly.of(1, {(2.0,): np.zeros((4, 4))}).terms[0][0] == (2,)
    assert GammaPoly.of(1, {("2",): np.zeros((4, 4))}).terms[0][0] == (2,)
    # a number of any type is read by its value: 5/2 is no exponent, 4/2 is 2
    with pytest.raises(HodgeError, match=r"^exponent must be an integer, got Fraction\(5, 2\)$"):
        GammaPoly.of(1, {(Fraction(5, 2),): np.zeros((4, 4))})
    assert GammaPoly.of(1, {(Fraction(4, 2),): np.zeros((4, 4))}).terms[0][0] == (2,)


def test_a_cubic_limit_height_takes_no_echelon_in_the_deligne_body(monkeypatch):
    # the columns of the cubic's limit frame, read by their W-weights, count
    # dim Gr^W_k per weight, so the Deligne body seeds its pass with them: no
    # eigenspace is reduced and _grades decides by singular values, so the
    # body takes no echelon form.  N's nilpotency is the orbit's, so the
    # power table is built for N and for N' = N in W's coordinates alone
    from hodgeheight import limits

    doc = _cubic_doc(0.3 + 0.2j)
    body, runs, inside, echelons, tables = limits._deligne_system, [], [], [], []

    def counted_body(*args):
        runs.append(args)
        inside.append(True)
        try:
            return body(*args)
        finally:
            inside.pop()

    def counted(module, name, record, anywhere):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if anywhere or inside:
                record.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (linalg, limits):
        for name in ("rref_float", "right_echelon"):
            counted(module, name, echelons, False)
        counted(module, "nilpotent_powers", tables, True)
    monkeypatch.setattr(limits, "_deligne_system", counted_body)
    orbit, orient = parse_orbit(doc)
    assert abs(limit_height(orbit, orient)) < 1e-10
    assert len(runs) == 1 and limit_mhs(orbit).W is not orbit.W   # M != W: the corrected pass
    assert echelons == []
    assert len(tables) == 1


def test_an_orientation_of_the_wrong_length_is_a_dimension_mismatch():
    # the orientation check reads the generators' length before their
    # coordinates, for a fiber's height and for a limit height
    orbit, _ = cubic_orbit()
    short = Orientation.of([1, 0, 0], [0, 0, 0, 1])
    message = r"^orientation generators must have 4 entries$"
    with pytest.raises(DimensionMismatch, match=message):
        limit_height(orbit, short)
    with pytest.raises(DimensionMismatch, match=message):
        height(OrientedMHS(orbit.fiber(2j), short))


def test_the_cli_refuses_an_orientation_of_the_wrong_length(tmp_path):
    doc = _cubic_doc(0.3 + 0.2j)
    doc["orientation"]["top"] = ["1", "0", "0"]
    path = tmp_path / "short-orientation.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("compute", str(path), "--what", "limit-height")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: malformed document: orientation: "
                           "a row of 3 entries in dimension 4\n")
