import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from hodgeheight import cli
from hodgeheight.biextension import BiextensionSpec, assemble_delta, build_biextension
from hodgeheight.cli import main
from hodgeheight.height import OrientedMHS, height
from hodgeheight.schemas import detect_kind, dumps, load, parse_mhs, parse_orbit, parse_variation
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.splitting import deligne_delta
from hodgeheight.variations import dilog_variation, height_sweep, oriented_fiber, random_hodge_tate

from fixtures import J3_DOC, mhs_to_doc, run_cli


@pytest.fixture
def dilog_file(tmp_path):
    om = dilog_fiber(1j)
    doc = mhs_to_doc(om.mhs, om.orientation)
    path = tmp_path / "dilog.json"
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def orbit_file(tmp_path):
    orbit, orient = cubic_orbit()
    doc = {
        "dimension": 4,
        "weight_filtration": [
            {"weight": k, "basis": [[str(int(x.real)) for x in row] for row in s.basis]}
            for k, s in orbit.W.steps
        ],
        "f_infinity": [
            {"level": p, "basis": [[[x.real, x.imag] for x in row] for row in s.basis]}
            for p, s in orbit.F_inf.steps
        ],
        "nilpotent": [[str(int(x)) for x in row] for row in np.real(orbit.N)],
        "orientation": {"top": ["1", "0", "0", "0"], "bottom": ["0", "0", "0", "1"]},
    }
    path = tmp_path / "orbit.json"
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


def _variation_doc(v) -> dict:
    """A variation document with integer W, nilpotents and orientation."""
    return {
        "dimension": v.W.ambient_dim,
        "weight_filtration": [
            {"weight": k, "basis": [[str(int(x.real)) for x in row] for row in s.basis]}
            for k, s in v.W.steps
        ],
        "f_infinity": [
            {"level": p, "basis": [[[x.real, x.imag] for x in row] for row in s.basis]}
            for p, s in v.F_inf.steps
        ],
        "nilpotents": [[[str(int(x)) for x in row] for row in np.real(N)]
                       for N in v.nilpotents],
        "gamma": [
            {"exponents": list(expo),
             "matrix": [[[x.real, x.imag] for x in row] for row in mat]}
            for expo, mat in v.gamma.terms
        ],
        "orientation": {"top": [str(int(x.real)) for x in v.orientation.top],
                        "bottom": [str(int(x.real)) for x in v.orientation.bottom]},
    }


@pytest.fixture
def variation_file(tmp_path):
    path = tmp_path / "variation.json"
    path.write_text(dumps(_variation_doc(dilog_variation(25))), encoding="utf-8")
    return str(path)


def test_roundtrip_mhs_serialization(dilog_file):
    doc = load(dilog_file)
    H = parse_mhs(doc)
    assert H.validate().ok
    # byte-stable output: serialize twice
    om = dilog_fiber(1j)
    assert dumps(mhs_to_doc(om.mhs, om.orientation)) == dumps(mhs_to_doc(om.mhs, om.orientation))


def test_weight_rows_serialize_as_leading_one_rationals():
    # W_-2 = span of (2, 1, 0), whose exact row is (2, 1, 0) and whose
    # leading-one row (1, 1/2, 0) is what a document holds
    from hodgeheight.linalg import Subspace
    from hodgeheight.mhs import MixedHodgeStructure, hodge_filtration, weight_filtration

    W = weight_filtration([(-2, Subspace.from_rows([[2, 1, 0]], 3)), (0, Subspace.full(3))], 3)
    F = hodge_filtration([(-1, Subspace.full(3)),
                          (0, Subspace.from_rows(np.array([[1, 0.5j, 0.25]]), 3))], 3)
    doc = mhs_to_doc(MixedHodgeStructure(W, F))
    expected = json.dumps([{"basis": [["1", "1/2", "0"]], "weight": -2},
                           {"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                            "weight": 0}], sort_keys=True, indent=2)
    assert dumps(doc["weight_filtration"]) == expected
    # parse -> dump -> parse: the same steps, exact and float, and the same text
    text = dumps(doc)
    H = parse_mhs(json.loads(text))
    for (k, got), (j, want) in zip(H.W.steps + H.F.steps, W.steps + F.steps):
        assert k == j and got.exact == want.exact and got.pivots == want.pivots
        assert got.basis.tobytes() == want.basis.tobytes()
    assert dumps(mhs_to_doc(H)) == text
    assert dumps(mhs_to_doc(parse_mhs(json.loads(dumps(mhs_to_doc(H)))))) == text


def test_entry_parsers_take_numbers_and_reject_other_shapes():
    from hodgeheight.errors import HodgeError
    from hodgeheight.schemas import _parse_complex, _parse_rational

    assert _parse_rational(3) == 3 and _parse_rational(2.0) == 2
    assert _parse_complex(2) == 2 and _parse_complex("1/2") == 0.5
    with pytest.raises(HodgeError, match="expected a rational entry"):
        _parse_rational([1])
    with pytest.raises(HodgeError, match="expected a complex entry"):
        _parse_complex({"a": 1})


def test_float_weight_rows_serialize_as_rationals():
    # a float W row is written through its nearest small-denominator
    # fraction; a row with an imaginary part has no rational form
    from hodgeheight.errors import HodgeError
    from hodgeheight.linalg import Subspace
    from hodgeheight.mhs import MixedHodgeStructure, hodge_filtration, weight_filtration

    F = hodge_filtration([(0, Subspace.full(2))], 2)
    for row, expected in (([1, 0.1], [["1", "1/10"]]), ([1, 0.1j], None)):
        W = weight_filtration([(-2, Subspace.from_rows(np.array([row]), 2)),
                               (0, Subspace.full(2))], 2)
        H = MixedHodgeStructure(W, F)
        if expected is None:
            with pytest.raises(HodgeError, match="weight filtration must be rational"):
                mhs_to_doc(H)
        else:
            assert mhs_to_doc(H)["weight_filtration"][0]["basis"] == expected


def test_validate_command(dilog_file, tmp_path, capsys):
    assert main(["validate", dilog_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    # non-nested filtration: exit 1 with an axiom name
    doc = load(dilog_file)
    doc["hodge_filtration"][0]["basis"] = [[[1, 0], [1, 0], [0, 0]]]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    # missing file: exit 3
    assert main(["validate", str(tmp_path / "missing.json")]) == 3


def test_compute_height_dilog(dilog_file, capsys):
    assert main(["compute", dilog_file, "--what", "height"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["height"] == pytest.approx(-0.915965594177219, abs=1e-10)


def test_compute_delta_and_bigrading(dilog_file, capsys):
    assert main(["compute", dilog_file, "--what", "delta"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.asarray(out["delta"]).shape == (3, 3)
    assert main(["compute", dilog_file, "--what", "bigrading"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["components"]) == {"0,0", "-1,-1", "-2,-2"}


def test_compute_limit_height_orbit(orbit_file, capsys):
    assert main(["compute", orbit_file, "--what", "limit-height"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["limit_height"] == pytest.approx(0.0, abs=1e-12)


def test_compute_limit_height_rejects_a_top_generator_in_w_minus_3(orbit_file, capsys):
    # e2 lies in W_-3, so it does not generate the top graded piece: exit 1
    doc = load(orbit_file)
    doc["orientation"]["top"] = ["0", "0", "1", "0"]
    with open(orbit_file, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
    assert main(["compute", orbit_file, "--what", "limit-height"]) == 1
    assert "top generator" in capsys.readouterr().err


def test_limit_height_needs_an_oriented_orbit_file(dilog_file, variation_file, orbit_file,
                                                  capsys):
    # an orbit or variation file gives the limit height of its cone orbit; a
    # structure file has no limit
    assert main(["compute", variation_file, "--what", "limit-height"]) == 0
    assert json.loads(capsys.readouterr().out)["limit_height"] == 0.0
    assert main(["compute", dilog_file, "--what", "limit-height"]) == 1
    assert capsys.readouterr().err == "error: limit-height needs an orbit or variation file\n"
    doc = load(orbit_file)
    del doc["orientation"]
    with open(orbit_file, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
    assert main(["compute", orbit_file, "--what", "limit-height"]) == 1
    assert capsys.readouterr().err == "error: orbit file has no orientation\n"


def test_scenario_commands(capsys):
    assert main(["scenario", "dilog", "--s", "0.5"]) == 0
    capsys.readouterr()
    assert main(["scenario", "dilog", "--s", "1j"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert main(["scenario", "family", "--t=-1j"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert main(["scenario", "triangle", "--a-coeffs", "1", "3", "2",
                 "--b-coeffs", "2", "1", "5", "--c-coeffs", "1", "1", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert main(["scenario", "dim0", "--a", "2", "--b", "3"]) == 0
    capsys.readouterr()
    assert main(["scenario", "orbit6iii", "--z", "1j"]) == 0


@pytest.mark.parametrize("t", ["nan", "nan+1j", "inf", "1+infj"])
def test_family_scenario_refuses_a_parameter_that_is_not_finite(t, capsys):
    # exit 1 with a typed error and nothing on stdout, so no bare NaN token
    assert main(["scenario", "family", f"--t={t}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: family parameter t = ") and err.endswith(" is excluded\n")
    assert "Traceback" not in err


def test_sweep_variation_csv(variation_file, capsys):
    code = main(["sweep", variation_file, "--z-start", "0.5j", "--z-end", "3j",
                 "--count", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("param,height,identity_residual")
    assert len(lines) == 5
    for row in lines[1:]:
        parts = row.split(",")
        assert abs(float(parts[2])) < 1e-9  # identity residual column


def test_sweep_orbit_cubic_column(orbit_file, capsys):
    code = main(["sweep", orbit_file, "--z-start", "1j", "--z-end", "3j",
                 "--count", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = [row.split(",") for row in lines[1:]]
    for param, h, _ in data:
        y = float(param)
        assert float(h) == pytest.approx(-(2 / 3) * y ** 3, abs=1e-8)


@pytest.mark.parametrize("argv", [["compute", "--what", "height", "--z", "1e200j"],
                                  ["sweep", "--z-end", "1e120j"]])
def test_orbit_fiber_past_the_float_range_is_a_typed_error(argv, orbit_file, capsys):
    # (1e200)^2 and (1e119)^3 overflow: exit 1 with the point, no traceback;
    # the sweep's point 1 is z = 0.5i + (1e120 - 0.5)i / 9
    where = {"compute": "fiber at z=[1e+200j], s=[0j]",
             "sweep": "sweep point 1: fiber at z=[1.111111111111111e+119j], s=[0j]"}[argv[0]]
    assert main([argv[0], orbit_file, *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {where}: the move is not finite\n"


def test_out_flag_writes_file(dilog_file, tmp_path):
    target = tmp_path / "result.json"
    assert main(["--out", str(target), "compute", dilog_file, "--what", "height"]) == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert "height" in doc


def test_numerical_failure_exit_code(dilog_file, monkeypatch):
    from hodgeheight import cli
    from hodgeheight.errors import NoConvergence

    def boom(H, tol=None):
        raise NoConvergence("forced")

    monkeypatch.setattr(cli, "deligne_delta", boom)
    assert main(["compute", dilog_file, "--what", "delta"]) == 2


def test_golden_json_for_rank_one(tmp_path):
    from hodgeheight.mhs import rational_mhs

    doc = mhs_to_doc(rational_mhs(1))
    expected = (
        '{\n'
        '  "dimension": 1,\n'
        '  "hodge_filtration": [\n'
        '    {\n'
        '      "basis": [\n'
        '        [\n'
        '          [\n'
        '            1.0,\n'
        '            0.0\n'
        '          ]\n'
        '        ]\n'
        '      ],\n'
        '      "level": -1\n'
        '    }\n'
        '  ],\n'
        '  "weight_filtration": [\n'
        '    {\n'
        '      "basis": [\n'
        '        [\n'
        '          "1"\n'
        '        ]\n'
        '      ],\n'
        '      "weight": -2\n'
        '    }\n'
        '  ]\n'
        '}'
    )
    assert dumps(doc) == expected


def test_scenario_csv_format(capsys):
    assert main(["scenario", "dim0", "--a", "2", "--b", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "label,computed,expected"
    assert lines[1].startswith("height,")


def test_validate_rejects_garbage_rational(dilog_file, tmp_path):
    doc = load(dilog_file)
    doc["weight_filtration"][0]["basis"] = [["not-a-number", "0", "0"]]
    bad = tmp_path / "garbage.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1


def test_sweep_variation_heights_match_fibers(variation_file, capsys):
    # off the imaginary axis s is not real, so the heights are not zero (they
    # are negative here, so they differ from the height gaps too)
    assert main(["sweep", variation_file, "--z-start", "0.7+0.1j", "--z-end", "0.7+0.5j",
                 "--count", "4"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    v = parse_variation(load(variation_file))
    for param, h, _ in rows:
        z = 0.7 + 1j * float(param)
        want = height(oriented_fiber(v, [z], [np.exp(2j * np.pi * z)]))
        assert abs(want) > 1e-6
        assert abs(float(h) - want) < 1e-12


@pytest.mark.parametrize("argv", [
    ["--tol", "nan", "scenario", "dim0"],
    ["--tol", "inf", "scenario", "dim0"],
    ["--tol", "0", "scenario", "dim0"],
    ["--tol", "-1", "scenario", "dim0"],
    ["--precision", "40", "scenario", "dim0"],
    ["scenario", "dim0", "--tol", "nan"],
    ["--tol", "abc", "scenario", "dim0"],
    ["sweep", "x.json", "--count", "-1"],
    ["sweep", "x.json", "--count", "0"],
], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "precision-40",
        "tol-nan-after-command", "tol-abc", "count-negative", "count-zero"])
def test_bad_global_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hodgeheight")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "abc"])
def test_hodge_tol_in_the_environment_is_ignored(monkeypatch, capsys, value):
    # --tol is the one way to set the tolerance; the environment reaches nothing
    assert main(["scenario", "dim0", "--format", "csv"]) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("HODGE_TOL", value)
    assert main(["scenario", "dim0", "--format", "csv"]) == 0
    assert capsys.readouterr().out == unset


# F^0 = <f> and F^-1 = <f, f + 1e-8 e1>, f = (1, 0.3i, 0.1 + 0.2i): the two
# steps differ only at 1e-8, so whether F^-1 is a plane depends on the tolerance
# at which the document steps are echelonized
F_STEP_DOC = {
    "dimension": 3,
    "weight_filtration": [
        {"weight": -4, "basis": [["0", "0", "1"]]},
        {"weight": -2, "basis": [["0", "1", "0"], ["0", "0", "1"]]},
        {"weight": 0, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}],
    "hodge_filtration": [
        {"level": 0, "basis": [[[1, 0], [0, 0.3], [0.1, 0.2]]]},
        {"level": -1, "basis": [[[1, 0], [0, 0.3], [0.1, 0.2]],
                                [[1, 0], [1e-8, 0.3], [0.1, 0.2]]]},
        {"level": -2, "basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                [[0, 0], [0, 0], [1, 0]]]}],
}

# the dilog W and F_inf with N1 = -E21 and N2 = N1 + 1e-8 E10, which commute
# only up to [N1, N2] = -1e-8 E20
NEAR_COMMUTING_DOC = {
    "dimension": 3,
    "weight_filtration": F_STEP_DOC["weight_filtration"],
    "f_infinity": [
        {"level": 0, "basis": [[[1, 0], [0, 0], [0, 0]]]},
        {"level": -1, "basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]},
        {"level": -2, "basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                [[0, 0], [0, 0], [1, 0]]]}],
    "nilpotents": [
        [["0", "0", "0"], ["0", "0", "0"], ["0", "-1", "0"]],
        [["0", "0", "0"], ["1/100000000", "0", "0"], ["0", "-1", "0"]]],
    "orientation": {"top": ["1", "0", "0"], "bottom": ["0", "0", "1"]},
}


# F^0 = <(1, 0.3i, 0.1 + (0.2 + 1e-8)i)> and F^-1 = <(1, 0.3i, 0.1 + 0.2i), e1>:
# F^0 lies in F^-1 only up to 1e-8, so whether the steps nest depends on the
# tolerance of the nesting check
F_NESTING_DOC = {
    "dimension": 3,
    "weight_filtration": F_STEP_DOC["weight_filtration"],
    "hodge_filtration": [
        {"level": 0, "basis": [[[1, 0], [0, 0.3], [0.1, 0.20000001]]]},
        {"level": -1, "basis": [[[1, 0], [0, 0.3], [0.1, 0.2]], [[0, 0], [1, 0], [0, 0]]]},
        {"level": -2, "basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                [[0, 0], [0, 0], [1, 0]]]}],
}


@pytest.mark.parametrize("doc, flags, status, message", [
    (F_STEP_DOC, [], 0, None),
    (F_STEP_DOC, ["--tol", "1e-6"], 1, "Hodge filtration steps must strictly decrease"),
    (NEAR_COMMUTING_DOC, [], 1, "monodromy logarithms must commute"),
    (NEAR_COMMUTING_DOC, ["--tol", "1e-6"], 0, None),
    (F_NESTING_DOC, [], 1, "Hodge filtration steps must strictly decrease"),
    (F_NESTING_DOC, ["--tol", "1e-6"], 0, None),
], ids=["f-steps-default", "f-steps-tol-1e-6", "nilpotents-default", "nilpotents-tol-1e-6",
        "f-nesting-default", "f-nesting-tol-1e-6"])
def test_tol_reaches_the_document_parse(doc, flags, status, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(dumps(doc), encoding="utf-8")
    assert main([*flags, "validate", str(path)]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is not None:
        assert message in err


def test_dim0_rows_show_what_extract_invariants_reads_back(monkeypatch, capsys):
    from hodgeheight import scenarios

    extract = scenarios.extract_invariants

    def shifted(om, tol):
        back = extract(om, tol)
        return dataclasses.replace(back, delta1=tuple(x + 1e-3 for x in back.delta1))

    monkeypatch.setattr(scenarios, "extract_invariants", shifted)
    assert main(["scenario", "dim0", "--a", "2", "--b", "3"]) == 1
    out = json.loads(capsys.readouterr().out)
    rows = {row["label"]: row for row in out["rows"]}
    assert not out["pass"]
    for label, x in (("delta1[0]", 2), ("delta1[1]", 3)):
        assert rows[label]["expected"] == np.log(x) / (2 * np.pi)
        assert rows[label]["computed"] == pytest.approx(rows[label]["expected"] + 1e-3,
                                                        abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["--seed", "1", "scenario", "dim0"],
    ["validate", "x.json", "--format", "csv"],
    ["--format", "csv", "scenario", "dim0"],
], ids=["seed", "format-on-validate", "format-before-scenario"])
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_missing_key_is_a_malformed_document(dilog_file, tmp_path, capsys):
    doc = load(dilog_file)
    del doc["weight_filtration"]
    bad = tmp_path / "no-weights.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    for argv in (["validate", str(bad)], ["compute", str(bad), "--what", "height"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed document") and "weight_filtration" in err


def test_sweep_variation_without_orientation_fails(variation_file, tmp_path, capsys):
    doc = load(variation_file)
    del doc["orientation"]
    bad = tmp_path / "unoriented.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    assert main(["sweep", str(bad), "--count", "2"]) == 1
    assert "orientation" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00"], ids=["json", "utf8"])
def test_undecodable_file_exits_3(content, tmp_path, capsys):
    bad = tmp_path / "undecodable.json"
    bad.write_bytes(content)
    assert main(["validate", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["sweep", "x.json", "--z-start", "abc"],
    ["sweep", "x.json", "--z-end", "1+"],
    ["compute", "x.json", "--what", "height", "--z", "abc"],
    ["scenario", "dilog", "--s", "half"],
    ["scenario", "triangle", "--a-coeffs", "1", "q", "2"],
], ids=["z-start", "z-end", "compute-z", "scenario-s", "coefficients"])
def test_malformed_number_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hodgeheight") and "invalid complex value" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, key, part", [
    ("dilog_file", "hodge_filtration", 0),
    ("orbit_file", "f_infinity", 1),
    ("variation_file", "f_infinity", 0),
    ("variation_file", "gamma", 1),
])
def test_non_finite_complex_entry_is_a_malformed_document(kind, key, part, value, request,
                                                          tmp_path, capsys, recwarn):
    # json reads NaN and Infinity; either part of an entry is rejected at the
    # boundary, before any rank decision sees it
    doc = load(request.getfixturevalue(kind))
    rows = doc[key][0]["matrix" if key == "gamma" else "basis"]
    rows[0][0] = [value, 0] if part == 0 else [0, value]
    bad = tmp_path / "non-finite.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    for argv in (["validate", str(bad)], ["compute", str(bad), "--what", "height"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed document")
        assert f"{rows[0][0]!r} is not finite" in err
    assert not recwarn.list


def test_integer_too_large_for_a_float_is_a_malformed_document(dilog_file, tmp_path, capsys):
    doc = load(dilog_file)
    doc["hodge_filtration"][0]["basis"][0][0] = [10 ** 400, 0]
    bad = tmp_path / "huge.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed document: OverflowError")


def test_validate_orbit_and_variation_files(orbit_file, variation_file, tmp_path, capsys):
    # an orbit is a variation with one N and Gamma = 0: each is validated at
    # its limit (M, F_inf)
    for path in (orbit_file, variation_file, _write(tmp_path / "j3.json", J3_DOC)):
        assert main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"failures": [], "ok": True}


def _write(path, doc: dict) -> str:
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


def _as_variation(doc: dict) -> dict:
    """An orbit document as the variation document of its one N, with no Gamma."""
    doc = dict(doc)
    doc["nilpotents"] = [doc.pop("nilpotent")]
    return doc


def _sweep_rows(capsys) -> list[dict]:
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_the_cubic_as_a_variation_document_is_the_cubic_orbit(orbit_file, tmp_path, capsys):
    # an orbit document is read as the variation of its one N with Gamma = 0,
    # so written either way the cubic validates at its limit, has limit
    # height 0, and at every point, below and past the literal lattice's
    # frontier at y = 1818, the height -(2/3) y^3 of NilpotentOrbit.fiber
    doc = load(orbit_file)
    orbit, orient = parse_orbit(doc)
    for path in (orbit_file, _write(tmp_path / "cubic-variation.json", _as_variation(doc))):
        assert main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"failures": [], "ok": True}
        assert main(["compute", path, "--what", "limit-height"]) == 0
        assert json.loads(capsys.readouterr().out) == {"limit_height": 0.0}
        for y in (1500.0, 3000.0, 1e5):
            assert main(["compute", path, "--what", "height", "--z", f"{y}j"]) == 0
            h = json.loads(capsys.readouterr().out)["height"]
            assert h == height(OrientedMHS(orbit.fiber(1j * y), orient))
            assert h == pytest.approx(-(2 / 3) * y ** 3, rel=1e-12)
        assert main(["sweep", path, "--z-start", "10j", "--z-end", "100000j", "--count", "6"]) == 0
        rows = _sweep_rows(capsys)
        assert len(rows) == 6 and all(row["identity_residual"] == "" for row in rows)
        for row in rows:
            y = float(row["param"])
            assert float(row["height"]) == pytest.approx(-(2 / 3) * y ** 3, rel=1e-12)


@pytest.mark.parametrize("change, message", [
    # N e0 = e1 + e3: nilpotent and preserving W, but it moves F^0 = <e0>
    # out of F^-1 = <e0, e1>
    (lambda d: d["nilpotent"][3].__setitem__(0, "1"),
     "N must shift the Hodge filtration by one (horizontality)"),
    (lambda d: d.__setitem__("nilpotent", [row[:3] for row in d["nilpotent"][:3]]),
     "N must be 4 x 4, got 3 x 3"),
], ids=["horizontality", "nilpotent-3x3"])
def test_limit_height_refuses_a_bad_cubic_nilpotent(change, message, orbit_file, tmp_path,
                                                    capsys):
    doc = load(orbit_file)
    change(doc)
    path = _write(tmp_path / "bad-nilpotent.json", doc)
    assert main(["compute", path, "--what", "limit-height"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_biextension_orbit_as_either_document(tmp_path, capsys):
    # a Hodge-Tate orbit: limit height 0.75 written either way, a sweep that
    # checks the depth-one identity, as a variation's does, and the height
    # 0.75 of NilpotentOrbit.fiber at 1e5 i, where the literal lattice raised.
    # N lowers W by two, so the limit is (W, F_inf): validate exits 0 with
    # "ok": true and writes nothing to stderr
    from test_limits import BIEXTENSION_ORBIT

    orbit, orient = parse_orbit(BIEXTENSION_ORBIT)
    far = height(OrientedMHS(orbit.fiber(1e5j), orient))
    heights = []
    for name, doc in (("orbit", BIEXTENSION_ORBIT), ("variation", _as_variation(BIEXTENSION_ORBIT))):
        path = _write(tmp_path / f"biextension-{name}.json", doc)
        assert main(["compute", path, "--what", "limit-height"]) == 0
        heights.append(json.loads(capsys.readouterr().out)["limit_height"])
        assert main(["sweep", path, "--count", "3"]) == 0
        rows = _sweep_rows(capsys)
        assert len(rows) == 3 and all(abs(float(row["identity_residual"])) < 1e-9 for row in rows)
        assert main(["validate", path]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == {"failures": [], "ok": True} and err == ""
        assert main(["compute", path, "--what", "height", "--z", "100000j"]) == 0
        assert json.loads(capsys.readouterr().out)["height"] == far == 0.75
    assert heights[0] == heights[1] == pytest.approx(0.75, abs=1e-12)


def test_validate_an_orbit_at_its_limit(tmp_path, capsys):
    # the weight-0 plane with N e0 = e1: its fibers are structures, its limit
    # (M(N, W), F_inf) is not, and validate reports that the limit fails,
    # naming the failed axiom, on stdout, with exit status 1 and no error
    doc = {"dimension": 2,
           "weight_filtration": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
           "f_infinity": [{"level": 0, "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],
           "nilpotent": [["0", "0"], ["1", "0"]]}
    path = _write(tmp_path / "plane.json", doc)
    assert main(["compute", path, "--what", "delta"]) == 0
    capsys.readouterr()
    assert main(["validate", path]) == 1
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {"ok": False, "failures": [
        "the limit (M(N, W), F_inf) is not a mixed Hodge structure: "
        "direct-sum: component dimensions add to 0, expected 2"]}


# N = E_02 on the dilog W and F_inf sends W_-4 = <e2> to e0, out of W_-2: it
# raises weight, so it is no monodromy logarithm of the variation
WEIGHT_RAISING_DOC = {**NEAR_COMMUTING_DOC,
                      "nilpotents": [[["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]]}


def test_validate_refuses_a_weight_raising_nilpotent(tmp_path, capsys):
    path = _write(tmp_path / "weight-raising.json", WEIGHT_RAISING_DOC)
    assert main(["validate", path]) == 1
    assert capsys.readouterr() == ("", "error: N must preserve the weight filtration\n")


@pytest.mark.parametrize("spec", [
    BiextensionSpec((0, -2, -4), (((-1, -1), 2),), (0.5, -0.25), (0.125, 0.75), 0.3),
    BiextensionSpec((2, -1, -4), (((0, -1), 1),), (0.5, -0.25), (0.125, 0.75), 0.3),
], ids=["hodge-tate-middle", "pair-type-middle"])
def test_compute_delta_of_a_biextension_document(spec, tmp_path, capsys):
    # one document per splitting route: a Hodge-Tate middle, read off its
    # period matrix, and a pair-type middle, by the general route
    path = _write(tmp_path / "biextension.json", mhs_to_doc(build_biextension(spec).mhs))
    assert main(["compute", path, "--what", "delta"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(out["delta"]) - assemble_delta(spec)).max() <= 1e-9
    assert out["residual"] <= 1e-9


# the dilog variation with Gamma truncated at degree 2
DILOG_DEGREE_TWO_DOC = {
    **NEAR_COMMUTING_DOC,
    "nilpotents": [[["0", "0", "0"], ["0", "0", "0"], ["0", "-1", "0"]]],
    "gamma": [
        {"exponents": [1], "matrix": [[[0, 0], [0, 0], [0, 0]],
                                      [[0, 0.15915494309189535], [0, 0], [0, 0]],
                                      [[0.025330295910584444, 0], [0, 0], [0, 0]]]},
        {"exponents": [2], "matrix": [[[0, 0], [0, 0], [0, 0]],
                                      [[0, 0.07957747154594767], [0, 0], [0, 0]],
                                      [[0.006332573977646111, 0], [0, 0], [0, 0]]]}],
}


# the (1,2,2,1) Hodge-Tate variation of random_hodge_tate seed 0, and the
# dilog variation to degree 2, as documents
SWEEP_DOCS = {"hodge-tate": lambda: _variation_doc(random_hodge_tate((1, 2, 2, 1), 1, seed=0)),
              "dilog-degree-2": lambda: DILOG_DEGREE_TWO_DOC}


@pytest.mark.parametrize("doc, z_start, z_end", [
    ("hodge-tate", "0.7+10j", "0.7+10000j"),
    ("hodge-tate", "0.7+0.3j", "0.7+3j"),
    ("dilog-degree-2", "0.7+0.1j", "0.7+0.5j"),
], ids=["hodge-tate-far", "hodge-tate-near", "dilog-degree-2"])
def test_sweep_rows_are_the_heights_of_compute(doc, z_start, z_end, tmp_path, capsys):
    # both variations have length 4, so sweep checks the depth-one identity:
    # four finite heights, each with an identity residual below 1e-9, out to
    # y = 1e4.  The sweep is one stacked computation: each row's height is the
    # one-fiber height of compute --what height at its z, to 1e-13 max(1, |h|),
    # far out and at y <= 3, where the heights are far from 0.  The Hodge-Tate
    # heights are positive over a limit height 0, so they equal their height
    # gaps; the dilog heights on its ray are negative, and tell the two apart
    path = _write(tmp_path / f"{doc}.json", SWEEP_DOCS[doc]())
    assert main(["sweep", path, "--z-start", z_start, "--z-end", z_end, "--count", "4"]) == 0
    rows = _sweep_rows(capsys)
    assert len(rows) == 4
    for row in rows:
        assert math.isfinite(float(row["height"])) and abs(float(row["identity_residual"])) < 1e-9
        assert main(["compute", path, "--what", "height", "--z", f"0.7+{row['param']}j"]) == 0
        want = json.loads(capsys.readouterr().out)["height"]
        assert abs(float(row["height"]) - want) <= 1e-13 * max(1.0, abs(want))


def test_a_fiber_error_names_its_point_in_python_numbers(variation_file, capsys):
    assert main(["compute", variation_file, "--what", "height", "--z", "1e200j"]) == 1
    assert capsys.readouterr().err == "error: fiber at z=[1e+200j], s=[0j]: the move is not finite\n"


def _fiber_at_2i(path):
    doc = load(path)
    if detect_kind(doc) == "orbit":
        orbit, orient = parse_orbit(doc)
        return OrientedMHS(orbit.fiber(2j), orient)
    return oriented_fiber(parse_variation(doc), [2j], [np.exp(2j * np.pi * 2j)])


@pytest.mark.parametrize("what", ["bigrading", "delta", "height"])
def test_compute_on_orbit_and_variation_files(what, orbit_file, variation_file, capsys):
    for path in (orbit_file, variation_file):
        assert main(["compute", path, "--what", what]) == 0
        out = json.loads(capsys.readouterr().out)
        om = _fiber_at_2i(path)
        if what == "bigrading":
            keys = sorted(om.mhs.bigrading().components)
            assert sorted(out["components"]) == sorted(f"{p},{q}" for p, q in keys)
        elif what == "delta":
            assert out["delta"] == deligne_delta(om.mhs).delta.tolist()
        else:
            assert out["height"] == height(om)
    # the cubic orbit's fiber height is -(2/3) y^3
    assert main(["compute", orbit_file, "--what", "height"]) == 0
    assert json.loads(capsys.readouterr().out)["height"] == pytest.approx(-16 / 3, rel=1e-12)


def test_height_needs_an_orientation(dilog_file, tmp_path, capsys):
    doc = load(dilog_file)
    del doc["orientation"]
    bare = tmp_path / "unoriented.json"
    bare.write_text(dumps(doc), encoding="utf-8")
    assert main(["compute", str(bare), "--what", "delta"]) == 0
    capsys.readouterr()
    assert main(["compute", str(bare), "--what", "height"]) == 1
    assert capsys.readouterr().err == "error: height needs an orientation\n"


def test_validate_leaves_a_structure_orientation_unread(dilog_file, tmp_path, capsys):
    # validate reads no orientation block of a structure file, so a malformed
    # one passes there; compute reads it and rejects the entry
    doc = load(dilog_file)
    doc["orientation"]["top"] = ["x", "0", "0"]
    path = tmp_path / "bad-top.json"
    path.write_text(dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["compute", str(path), "--what", "height"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err and "Traceback" not in err


def test_sweep_short_variation_takes_plain_heights(tmp_path, capsys, monkeypatch):
    # length 2 is below the depth-one identity, so the rows carry no residual;
    # the CLI takes them from the library's height_sweep
    calls = []

    def counted(*args):
        calls.append(args)
        return height_sweep(*args)

    monkeypatch.setattr(cli, "height_sweep", counted)
    v = random_hodge_tate((1, 1), 1, seed=1)
    path = tmp_path / "short.json"
    path.write_text(dumps(_variation_doc(v)), encoding="utf-8")
    assert main(["sweep", str(path), "--z-start", "0.7+0.1j", "--z-end", "0.7+0.5j",
                 "--count", "3"]) == 0
    assert len(calls) == 1 and len(calls[0][1]) == 3
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 3
    for param, h, residual in rows:
        z = 0.7 + 1j * float(param)
        assert residual == ""
        assert float(h) == height(oriented_fiber(v, [z], [np.exp(2j * np.pi * z)]))


def test_sweep_rejects_a_structure_file(dilog_file, capsys):
    assert main(["sweep", dilog_file, "--count", "2"]) == 1
    assert capsys.readouterr().err == "error: sweep needs an orbit or variation file\n"


def test_scenarios_run_without_mpmath(tmp_path):
    # mpmath is a test dependency only: with an mpmath on the path that fails
    # to import, the scenarios that evaluate the dilogarithm still run and pass
    (tmp_path / "mpmath.py").write_text('raise ImportError("no mpmath here")\n', encoding="utf-8")
    for argv in (["scenario", "dilog"], ["scenario", "family", "--t=-1j"],
                 ["scenario", "triangle"], ["scenario", "orbit6iii"]):
        proc = run_cli(*argv, env={"PYTHONPATH": str(tmp_path)})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True, argv


# a document that lacks its weight filtration
MISSING_KEY_DOC = {"dimension": 1, "hodge_filtration": [{"level": 0, "basis": [[[1, 0]]]}]}


@pytest.mark.parametrize("argv, env, status", [
    (["scenario", "dim0", "--format", "csv"], {"HODGE_TOL": "abc"}, 0),
    (["validate", "missing-key.json"], None, 1),
    (["--tol", "nan", "scenario", "dim0"], None, 2),
], ids=["hodge-tol-abc", "missing-key", "tol-nan"])
def test_the_cli_process_exits_with_the_status_of_main(argv, env, status, tmp_path, monkeypatch,
                                                       capsys):
    # python -m hodgeheight.cli hands the shell main's exit status and output,
    # with no traceback; HODGE_TOL in a fresh process's environment reaches nothing
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HODGE_TOL", raising=False)
    _write(tmp_path / "missing-key.json", MISSING_KEY_DOC)
    proc = run_cli(*argv, env=env)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == status and "Traceback" not in err
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)


@pytest.mark.parametrize("argv, name", [
    (["dim0", "--a", "nan"], "a"),
    (["dim0", "--b", "inf"], "b"),
    (["dim0", "--a", "1.7e308+1.7e308j"], "a"),
    (["triangle", "--alpha", "nan"], "alpha"),
    (["triangle", "--a-coeffs", "nan", "1", "1"], "a"),
    (["dilog", "--s", "nan"], "s"),
    (["dilog", "--s", "1.7e308+1.7e308j"], "s"),
    (["triangle", "--alpha", "1e200"], None),
    (["triangle", "--alpha", "1e300"], None),
    (["triangle", "--alpha", "1.7e308"], None),
    (["triangle", "--alpha", "1e-170"], None),
    (["triangle", "--alpha", "5e-324"], None),
    (["triangle", "--beta", "1e-200"], None),
    (["family", "--t", "1e200"], "t"),
    (["family", "--t", "1e-160"], "t"),
    (["triangle", "--a-coeffs", "1e300", "1", "1"], "a"),
], ids=["dim0-a-nan", "dim0-b-inf", "dim0-a-modulus-overflows", "triangle-alpha-nan",
        "triangle-a-nan", "dilog-s-nan", "dilog-s-modulus-overflows", "triangle-alpha-1e200",
        "triangle-alpha-1e300", "triangle-alpha-1.7e308", "triangle-alpha-1e-170",
        "triangle-alpha-5e-324", "triangle-beta-1e-200", "family-t-1e200", "family-t-1e-160",
        "triangle-a-1e300"])
def test_scenario_parameters_at_the_boundary(argv, name, capsys):
    # each input passes, or is refused with a typed error naming its
    # parameter; none warns, raises or writes a NaN or Infinity token
    status = main(["scenario", *argv])
    out, err = capsys.readouterr()
    assert "NaN" not in out + err and "Infinity" not in out + err
    if name is None:
        assert status == 0 and json.loads(out)["pass"] is True
    else:
        assert (status, out) == (1, "") and err.startswith("error: ") and f" {name} = " in err
