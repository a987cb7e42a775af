import json
import numpy as np
import pytest

from hodgeheight.cli import main
from hodgeheight.height import OrientedMHS, height
from hodgeheight.schemas import (detect_kind, dumps, load, mhs_to_doc, parse_mhs, parse_orbit,
                                 parse_variation)
from hodgeheight.scenarios import cubic_orbit, dilog_fiber
from hodgeheight.splitting import deligne_delta
from hodgeheight.variations import dilog_variation, oriented_fiber, random_hodge_tate


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


def test_out_flag_writes_file(dilog_file, tmp_path):
    target = tmp_path / "result.json"
    assert main(["--out", str(target), "compute", dilog_file, "--what", "height"]) == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert "height" in doc


def test_env_tol_override(monkeypatch, dilog_file):
    monkeypatch.setenv("HODGE_TOL", "1e-7")
    from hodgeheight.config import default_tol

    assert default_tol() == 1e-7
    assert main(["validate", dilog_file]) == 0


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
], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "precision-40",
        "tol-nan-after-command", "tol-abc"])
def test_bad_global_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hodgeheight")
    assert "Traceback" not in err


def test_nonfinite_env_tol_is_a_usage_error(monkeypatch, dilog_file):
    monkeypatch.setenv("HODGE_TOL", "nan")
    with pytest.raises(SystemExit) as exc:
        main(["validate", dilog_file])
    assert exc.value.code == 2


def test_unparsable_env_tol_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HODGE_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "dim0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hodgeheight")
    assert "HODGE_TOL" in err and "Traceback" not in err


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


def test_validate_orbit_and_variation_files(orbit_file, variation_file, capsys):
    # an orbit is validated at its fiber z = 2i, a variation at its limit
    for path in (orbit_file, variation_file):
        assert main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"failures": [], "ok": True}


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
            keys = om.mhs.bigrading().keys
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


def test_sweep_short_variation_takes_plain_heights(tmp_path, capsys):
    # length 2 is below the depth-one identity, so the rows carry no residual
    v = random_hodge_tate((1, 1), 1, seed=1)
    path = tmp_path / "short.json"
    path.write_text(dumps(_variation_doc(v)), encoding="utf-8")
    assert main(["sweep", str(path), "--z-start", "0.7+0.1j", "--z-end", "0.7+0.5j",
                 "--count", "3"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 3
    for param, h, residual in rows:
        z = 0.7 + 1j * float(param)
        assert residual == ""
        assert float(h) == height(oriented_fiber(v, [z], [np.exp(2j * np.pi * z)]))


def test_sweep_rejects_a_structure_file(dilog_file, capsys):
    assert main(["sweep", dilog_file, "--count", "2"]) == 1
    assert capsys.readouterr().err == "error: sweep needs an orbit or variation file\n"
