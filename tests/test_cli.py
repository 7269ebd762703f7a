import json
import math
import os
import subprocess
import sys
from importlib import resources

import pytest

import harmonia.algebra
import harmonia.cli
import harmonia.geometry
import harmonia.harmonic
from harmonia import records
from harmonia.cli import main
from harmonia.geometry import SchwarzMap


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "harmonia", *args],
        capture_output=True,
        text=True,
    )


def run_main(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_examples_exit_zero_with_nine_pass_rows(capsys):
    code, out = run_main(capsys, "examples")
    assert code == 0
    lines = out.splitlines()
    pass_rows = [ln for ln in lines if ln.rstrip().endswith(" PASS")]
    discrepancy_rows = [ln for ln in lines if ln.rstrip().endswith("DISCREPANCY")]
    assert len(pass_rows) == 9
    assert len(discrepancy_rows) == 1


def test_examples_json_records(capsys):
    code, out = run_main(capsys, "examples", "--format", "json")
    assert code == 0
    records = json.loads(out)["examples"]
    standard = [r for r in records if r["status"] in ("PASS", "FAIL")]
    flagged = [r for r in records if r["status"] == "DISCREPANCY"]
    assert len(standard) == 9
    assert all(r["status"] == "PASS" for r in standard)
    assert len(flagged) == 1
    assert flagged[0]["passed_derived"] is True
    assert flagged[0]["alt_residual"] > 0.1


def test_examples_csv(capsys):
    code, out = run_main(capsys, "examples", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,kind,samples,max_residual,tolerance,status"
    assert len(lines) == 11


def test_examples_tolerance_override(capsys):
    # the golden rows are exact or near machine precision, so they survive
    # even an extreme tolerance
    code, _ = run_main(capsys, "examples", "--tol", "1e-14")
    assert code == 0
    code, out = run_main(capsys, "examples", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_json_zero_failures(capsys):
    code, out = run_main(capsys, "verify")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["seed", "all_passed", "checks"]
    assert payload["all_passed"] is True
    assert payload["seed"] == 1729
    assert all(c["passed"] for c in payload["checks"])


def test_verify_targets_and_table(capsys):
    code, out = run_main(capsys, "verify", "--targets", "algebra", "--format", "table")
    assert code == 0
    assert "antiderivative_round_trip" in out


def test_verify_unknown_target_is_bad_input(capsys):
    code, _ = run_main(capsys, "verify", "--targets", "bogus_check")
    assert code == 2


def test_verify_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli("verify", "--seed", "7", "--output", str(out1))
    r2 = run_cli("verify", "--seed", "7", "--output", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_examples_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli("examples", "--format", "json", "--output", str(out1))
    r2 = run_cli("examples", "--format", "json", "--output", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_field_example_matches_closed_form(capsys):
    code, out = run_main(
        capsys, "field", "--example", "dtn-log", "--grid", "0.5:1.5:5:0.0:1.5:4",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 20
    base = next(r for r in rows if abs(r["r"] - 1.0) < 1e-12 and abs(r["theta"]) < 1e-12)
    for row in rows:
        expected = 0.5 * (math.log(row["r"]) ** 2 - row["theta"] ** 2)
        assert abs((row["value"] - base["value"]) - expected) < 1e-10


def test_field_cut_rows_reported_as_null(capsys):
    code, out = run_main(
        capsys, "field", "--example", "dtn-log",
        "--grid", f"0.5:1.5:3:{math.pi}:{math.pi + 0.5}:3", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    cut_rows = [r for r in rows if abs(r["theta"] - math.pi) < 1e-12]
    assert cut_rows and all(r["value"] is None for r in cut_rows)
    assert all(r["reason"] == "cut_proximity" for r in cut_rows)
    ok_rows = [r for r in rows if r["value"] is not None]
    assert ok_rows


def test_field_csv_shape(capsys):
    code, out = run_main(capsys, "field", "--example", "dtn-constant", "--grid", "0.6:1.4:3:-1.0:1.0:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,theta,x,y,value,reason"
    assert len(lines) == 10
    assert "." in lines[1] and lines[1].count(",") == 5


def test_field_from_input_file(tmp_path, capsys):
    payload = {
        "field": {
            "kind": "pair",
            "pair": {
                "part_z": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
                "part_zeta": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
            },
        }
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(payload))
    code, out = run_main(
        capsys, "field", "--input", str(path), "--grid", "0.5:1.5:3:0.0:1.0:3",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        assert abs(row["value"] - (row["x"] ** 2 - row["y"] ** 2)) < 1e-12


def test_field_bad_grid_is_exit_two(capsys):
    assert run_main(capsys, "field", "--example", "dtn-log", "--grid", "0:1:5:-1:1:5")[0] == 2
    assert run_main(capsys, "field", "--example", "dtn-log", "--grid", "nonsense")[0] == 2
    assert run_main(capsys, "field", "--example", "dtn-log", "--grid", "0.5:1.5:1:-1:1:5")[0] == 2
    assert main(["field", "--example", "dtn-log", "--grid", "1.5:0.5:5:-1:1:5"]) == 2
    assert "grid bounds must be increasing" in capsys.readouterr().err


def test_field_non_finite_grid_is_exit_two(capsys):
    grids = ("0.5:inf:5:-1:1:5", "nan:1.5:5:-1:1:5", "0.5:1.5:5:-inf:1:5", "0.5:1.5:5:-1:nan:5")
    for grid in grids:
        assert main(["field", "--example", "dtn-log", "--grid", grid]) == 2
        assert "--grid" in capsys.readouterr().err


def _pair_field_input(tmp_path, kind, k, m):
    terms = [{"re": 1.0, "im": 0.0, "k": k, "m": m}]
    pair = {"part_z": terms, "part_zeta": terms}
    field = {"kind": kind, "u" if kind == "dtn_pair" else "pair": pair}
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"field": field}))
    return str(path)


@pytest.mark.parametrize(
    "kind, k, m",
    [
        ("dtn_pair", 1, 1500),  # the primitive's coefficients m!/j! overflow
        ("pair", 5000, 0),  # z**5000 overflows at r > 1
    ],
)
def test_field_overflow_is_exit_two(tmp_path, kind, k, m):
    result = run_cli("field", "--input", _pair_field_input(tmp_path, kind, k, m))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def test_field_value_that_is_not_finite_is_exit_two(tmp_path, capsys):
    # at r = 2 the two terms overflow to +inf and -inf, so their sum is NaN,
    # which the term loop rejects, naming the point
    terms = [{"re": 1e308, "k": 3}, {"re": -1e308, "k": 4}]
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"field": {"kind": "pair", "pair": {"part_z": terms,
                                                                   "part_zeta": terms}}}))
    assert main(["field", "--input", str(path), "--grid", "0.5:2:2:0:1:2"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {path}: at r = 2.0, theta = 0.0: overflow: "
                   "the sum at z = (2+0j) is beyond the float range\n")
    # a sum of 1e308 is finite, and the value 2 Re f overflows after it
    terms = [{"re": 1e308, "k": 0}]
    path.write_text(json.dumps({"field": {"kind": "pair", "pair": {"part_z": terms,
                                                                   "part_zeta": terms}}}))
    assert main(["field", "--input", str(path), "--grid", "0.5:2:2:0:1:2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: the field at r = 0.5, theta = 0.0 is not finite\n"


def test_field_coefficient_whose_modulus_overflows_is_named(tmp_path, capsys):
    # finite parts, but a modulus beyond the float range
    terms = [{"re": 1.5e308, "im": 1.5e308, "k": 2}]
    pair = {"part_z": terms, "part_zeta": [{"re": 0.5, "k": 2}]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"field": {"kind": "pair", "pair": pair}}))
    assert main(["field", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {path}: overflow: coefficient (1.5e+308+1.5e+308j) has a modulus "
                   "beyond the float range\n")


def test_field_requires_source(capsys):
    assert run_main(capsys, "field")[0] == 2
    assert main(["field", "--example", "no-such-id"]) == 2
    assert capsys.readouterr().err == "error: unknown example id 'no-such-id'\n"


def test_reflect_requires_source(capsys):
    assert main(["reflect"]) == 2
    assert capsys.readouterr().err == "error: reflect requires --input or --example\n"


def test_reflect_reads_a_point_in_c2_from_the_input_file(tmp_path, capsys):
    pair = {"part_z": [{"re": 0.5, "k": 2}], "part_zeta": [{"re": 0.5, "k": 2}]}
    point = {"z": {"re": 0.8, "im": 0.1}, "zeta": {"re": 0.7}}
    path = tmp_path / "reflect.json"
    path.write_text(json.dumps({"solution": pair, "point": point}))
    code, out = run_main(capsys, "reflect", "--formula", "dirichlet", "--input", str(path))
    assert code == 0
    assert json.loads(out)["point"] == {"z": {"re": 0.8, "im": 0.1}, "zeta": {"re": 0.7, "im": 0.0}}


def test_reflect_neumann_example(capsys):
    code, out = run_main(
        capsys, "reflect", "--formula", "neumann",
        "--example", "neumann-reflect-constant", "--point", "0.8:0.0", "--check",
    )
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["correction"]["re"] - (-2.0 * math.log(0.8))) < 1e-12
    assert abs(rec["correction"]["re"] - 0.4462871026284195) < 1e-12
    assert rec["check_residual"] < 1e-10
    assert abs(rec["reflected"]["z"]["re"] - 1.25) < 1e-12


def test_reflect_at_boundary_has_zero_correction(capsys):
    code, out = run_main(
        capsys, "reflect", "--formula", "neumann",
        "--example", "neumann-reflect-constant", "--point", "1.0:0.3",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["correction"]["re"] == 0.0 and rec["correction"]["im"] == 0.0


def test_reflect_robin_example_check(capsys):
    code, out = run_main(
        capsys, "reflect", "--formula", "robin",
        "--example", "robin-reflect-cos2", "--point", "0.7:0.5", "--check",
    )
    assert code == 0
    assert json.loads(out)["check_residual"] < 1e-10


def test_reflect_dirichlet_and_schwarz_from_file(tmp_path, capsys):
    payload = {
        "solution": {
            "part_z": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
            "part_zeta": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
        },
        "data": [
            {"re": 0.5, "im": 0.0, "kz": 2, "kzeta": 0},
            {"re": 0.5, "im": 0.0, "kz": 0, "kzeta": 2},
        ],
        "point": {"r": 0.8, "theta": 0.4},
    }
    path = tmp_path / "reflect.json"
    path.write_text(json.dumps(payload))
    code, out = run_main(capsys, "reflect", "--formula", "dirichlet", "--input", str(path), "--check")
    assert code == 0
    assert json.loads(out)["check_residual"] < 1e-10
    code, out = run_main(capsys, "reflect", "--formula", "schwarz", "--input", str(path))
    assert code == 0
    assert json.loads(out)["formula"] == "neumann_arc"


def test_reflect_circle_formulas_reject_other_maps(tmp_path, capsys):
    payload = {
        "solution": {
            "part_z": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
            "part_zeta": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
        },
        "data": [{"re": 1.0, "im": 0.0, "kz": 0, "kzeta": 0}],
        "map": {"kind": "circle", "center": {"re": 0.5, "im": 0.0}, "radius": 2.0},
    }
    path = tmp_path / "offcentre.json"
    path.write_text(json.dumps(payload))
    for formula in ("neumann", "robin"):
        assert main(["reflect", "--formula", formula, "--input", str(path)]) == 2
        assert "--formula schwarz" in capsys.readouterr().err
    assert run_main(capsys, "reflect", "--formula", "schwarz", "--input", str(path))[0] == 0
    payload["map"] = {"kind": "unit_circle"}
    path.write_text(json.dumps(payload))
    assert run_main(capsys, "reflect", "--formula", "neumann", "--input", str(path))[0] == 0


def test_reflect_map_key_of_another_kind_is_exit_two(tmp_path, capsys):
    # a unit circle has no radius or centre to set; taking the map as the
    # unit circle would reflect across a curve the input did not describe
    payload = {
        "solution": _REFLECT_SOLUTION,
        "map": {"kind": "unit_circle", "radius": 2.0, "center": {"re": 5.0}},
    }
    path = tmp_path / "unit_with_radius.json"
    path.write_text(json.dumps(payload))
    code = main(["reflect", "--formula", "schwarz", "--input", str(path)])
    assert code == 2
    assert "'radius'" in capsys.readouterr().err
    payload["map"] = {"kind": "line", "point": {"re": 0.0}, "radius": 2.0}
    path.write_text(json.dumps(payload))
    assert main(["reflect", "--formula", "schwarz", "--input", str(path)]) == 2


_MISSPELT_KEYS = {
    "term": ({"solution": {"part_z": [{"re": 0.5, "k": 2, "imag": 1.0}], "part_zeta": []}}, "imag"),
    "data_term": ({"data": [{"re": 1.0, "kz": 0, "kzeta": 0, "k": 1}]}, "k"),
    "map_center": (
        {"map": {"kind": "circle", "center": {"re": 0.5, "imag": 3.0}, "radius": 2.0}},
        "imag",
    ),
    "map_point": ({"map": {"kind": "line", "point": {"re": 0.5, "iM": 3.0}}}, "iM"),
    "polar_point": ({"point": {"r": 0.8, "theta": 0.1, "phi": 0.2}}, "phi"),
    "point": ({"point": {"z": {"re": 0.8}, "zeta": {"re": 0.8}, "w": {"re": 0.0}}}, "w"),
    "point_z": ({"point": {"z": {"re": 0.8, "imag": 0.1}, "zeta": {"re": 0.8}}}, "imag"),
    "point_zeta": ({"point": {"z": {"re": 0.8}, "zeta": {"re": 0.8, "img": 0.1}}}, "img"),
}


@pytest.mark.parametrize("where", sorted(_MISSPELT_KEYS))
def test_reflect_input_rejects_an_unknown_key_in_a_complex_record(where, tmp_path, capsys):
    # a misspelt "im" used to be dropped and read as 0
    change, key = _MISSPELT_KEYS[where]
    payload = {"solution": _REFLECT_SOLUTION, "map": {"kind": "circle", "radius": 1.0}, **change}
    path = _write(tmp_path, "misspelt.json", payload)
    err = _bad_input(capsys, "reflect", "--formula", "schwarz", "--input", path)
    assert repr(key) in err


_NOT_NUMBERS = {
    # each read as a number before: {"re": true, "k": 1} as 1*z, "radius": "2"
    # as the radius-2 circle, "radius": true as the unit circle; the error
    # names the JSON path of the key
    "term_re_bool": (
        {"solution": {"part_z": [{"re": True, "k": 1}], "part_zeta": []}}, "solution.part_z[0].re"
    ),
    "term_im_str": (
        {"solution": {"part_z": [{"re": 0.5, "im": "0", "k": 1}], "part_zeta": []}},
        "solution.part_z[0].im",
    ),
    "term_re_str": (
        {"solution": {"part_z": [{"re": "0.5", "k": 1}], "part_zeta": []}}, "solution.part_z[0].re"
    ),
    "data_re": ({"data": [{"re": "1", "kz": 0, "kzeta": 0}]}, "data[0].re"),
    "data_im": ({"data": [{"re": 1.0, "im": [0.0], "kz": 0, "kzeta": 0}]}, "data[0].im"),
    "radius_str": ({"map": {"kind": "circle", "radius": "2"}}, "map.radius"),
    "radius_bool": ({"map": {"kind": "circle", "radius": True}}, "map.radius"),
    "center_re": (
        {"map": {"kind": "circle", "center": {"re": "0.5"}, "radius": 2.0}}, "map.center.re"
    ),
    "angle": ({"map": {"kind": "line", "angle": None}}, "map.angle"),
    "point_im": ({"map": {"kind": "line", "point": {"re": 0.5, "im": True}}}, "map.point.im"),
    "polar_r": ({"point": {"r": True, "theta": 0}}, "point.r"),
    "polar_theta": ({"point": {"r": 0.8, "theta": "0"}}, "point.theta"),
    "z_re": ({"point": {"z": {"re": "0.8"}, "zeta": {"re": 0.8}}}, "point.z.re"),
    "zeta_im": ({"point": {"z": {"re": 0.8}, "zeta": {"re": 0.8, "im": False}}}, "point.zeta.im"),
}


@pytest.mark.parametrize("where", sorted(_NOT_NUMBERS))
def test_reflect_input_numbers_must_be_json_numbers(where, tmp_path, capsys):
    change, at = _NOT_NUMBERS[where]
    payload = {"solution": _REFLECT_SOLUTION, "map": {"kind": "circle", "radius": 1.0}, **change}
    path = _write(tmp_path, "not_a_number.json", payload)
    err = _bad_input(capsys, "reflect", "--formula", "schwarz", "--input", path)
    assert err.startswith(f"error: {path}: {at}: must be a number, got "), err


_ROBIN_NOT_NUMBERS = {
    # "a": true read as a = 1, and "a": "1" failed naming no key
    "a_bool": ({"a": True}, "a"),
    "b_str": ({"b": "1"}, "b"),
}


@pytest.mark.parametrize("where", sorted(_ROBIN_NOT_NUMBERS))
@pytest.mark.parametrize("source", ["rtn-log", "robin-reflect-cos2", "reflect_params"])
def test_robin_coefficients_must_be_json_numbers(where, source, tmp_path, capsys):
    change, key = _ROBIN_NOT_NUMBERS[where]
    if source == "reflect_params":
        payload = {"solution": _REFLECT_SOLUTION, "params": {"a": 1.0, "b": 1.0, **change}}
        path = _write(tmp_path, "params.json", payload)
        err = _bad_input(capsys, "reflect", "--formula", "robin", "--input", path)
        at = "params." + key
    else:
        field = {**next(r for r in _FIXTURES if r["id"] == source), **change}
        path = _write(tmp_path, "field.json", {"field": field})
        err = _bad_input(capsys, "field", "--input", path)
        at = "field." + key
    assert err.startswith(f"error: {path}: {at}: must be a number, got "), err


_NON_FINITE_MAPS = {
    "center": ("circle", complex(math.nan, 1.0), 2.0),
    "radius": ("circle", 0.5 + 0j, math.inf),
    "point": ("line", complex(0.0, -math.inf), 0.3),
    "angle": ("line", 0.5j, math.nan),
}


@pytest.mark.parametrize("call", ["library", "cli"])
@pytest.mark.parametrize("field", sorted(_NON_FINITE_MAPS))
def test_non_finite_map_field_is_rejected(field, call, tmp_path, capsys):
    # an infinite radius used to fail later, as "branch validation failed:
    # candidate nan+nanj", and a NaN centre gave S(z) = nan+nanj
    kind, origin, size = _NON_FINITE_MAPS[field]
    if call == "library":
        with pytest.raises(ValueError, match=f"Schwarz map {field} must be finite"):
            getattr(SchwarzMap, kind)(origin, size)
        return
    # JSON has no NaN or Infinity, so the reader rejects the number first
    names = ("center", "radius") if kind == "circle" else ("point", "angle")
    rec = {"kind": kind, names[0]: {"re": origin.real, "im": origin.imag}, names[1]: size}
    path = _write(tmp_path, "non_finite_map.json", {"solution": _REFLECT_SOLUTION, "map": rec})
    err = _bad_input(capsys, "reflect", "--formula", "schwarz", "--input", path)
    at = {"center": "center.re", "point": "point.im"}.get(field, field)
    assert err.startswith(f"error: {path}: map.{at}: must be a number, got "), err


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e300", "7.0", "two"])
def test_bad_cut_angle_is_exit_two(raw, monkeypatch, capsys):
    monkeypatch.setenv("HARMONIA_CUT_ANGLE", raw)
    assert main(["field", "--example", "dtn-log"]) == 2
    assert "HARMONIA_CUT_ANGLE" in capsys.readouterr().err


@pytest.mark.parametrize("formula", ["dirichlet", "neumann", "robin", "schwarz"])
@pytest.mark.parametrize("point", ["nan:0", "inf:0", "0.8:nan", "0.8:-inf"])
def test_reflect_non_finite_point_is_exit_two(formula, point, capsys):
    code = main(
        ["reflect", "--formula", formula, "--example", "neumann-reflect-constant",
         "--point", point, "--check"]
    )
    assert code == 2
    assert "--point" in capsys.readouterr().err


def test_reflect_bad_json_is_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_main(capsys, "reflect", "--input", str(path))[0] == 2
    assert run_main(capsys, "reflect", "--example", "no-such-id")[0] == 2


def test_cut_angle_env_override():
    # rows at theta = 2 are fine with the default cut but sit on a cut
    # rotated to 2 rad; theta = 1.5 stays conjugate-symmetric either way
    grid = "0.5:1.5:3:1.5:2.0:2"
    result = run_cli("field", "--example", "dtn-log", "--grid", grid, "--format", "json")
    assert result.returncode == 0, result.stderr
    rows_default = json.loads(result.stdout)["rows"]
    assert all(r["value"] is not None for r in rows_default)
    result = subprocess.run(
        [sys.executable, "-m", "harmonia", "field", "--example", "dtn-log",
         "--grid", grid, "--format", "json"],
        capture_output=True, text=True,
        env={**os.environ, "HARMONIA_CUT_ANGLE": "2.0"},
    )
    assert result.returncode == 0, result.stderr
    rows_rotated = json.loads(result.stdout)["rows"]
    on_cut = [r for r in rows_rotated if abs(r["theta"] - 2.0) < 1e-12]
    off_cut = [r for r in rows_rotated if abs(r["theta"] - 1.5) < 1e-12]
    assert on_cut and all(r["value"] is None and r["reason"] == "cut_proximity" for r in on_cut)
    assert off_cut and all(r["value"] is not None for r in off_cut)


_REFLECT_SOLUTION = {
    "part_z": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
    "part_zeta": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
}


@pytest.mark.parametrize("formula", ["dirichlet", "neumann", "robin", "schwarz"])
@pytest.mark.parametrize(
    "point",
    [
        {"r": float("nan"), "theta": 0.0},
        {"r": 0.8, "theta": float("inf")},
        {"z": {"re": float("nan"), "im": 0.0}, "zeta": {"re": 0.8, "im": 0.0}},
        {"z": {"re": 0.8}, "zeta": {"re": 0.8, "im": float("-inf")}},
    ],
)
def test_reflect_input_non_finite_point_is_exit_two(formula, point, tmp_path, capsys):
    payload = {
        "solution": _REFLECT_SOLUTION,
        "data": [{"re": 1.0, "im": 0.0, "kz": 0, "kzeta": 0}],
        "point": point,
    }
    path = tmp_path / "non_finite_point.json"
    path.write_text(json.dumps(payload))  # json writes NaN and Infinity, and reads them back
    code = main(["reflect", "--formula", formula, "--input", str(path), "--check"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "non_finite_point.json" in err


@pytest.mark.parametrize("formula", ["dirichlet", "neumann", "robin", "schwarz"])
def test_reflect_nan_residual_fails_check(formula, tmp_path, capsys):
    # the value overflows to inf, so the residual is NaN; a NaN residual
    # must fail --check rather than pass it
    payload = {
        "solution": _DOUBLING_SOLUTION,
        "data": [{"re": 1.0, "im": 0.0, "kz": 0, "kzeta": 0}],
        "point": {"r": 2.0, "theta": 0.0},
    }
    path = tmp_path / "nan_residual.json"
    path.write_text(json.dumps(payload))
    code, out = run_main(capsys, "reflect", "--formula", formula, "--input", str(path), "--check")
    assert code == 1
    assert json.loads(out)["check_residual"] is None  # JSON writes NaN as null


def test_library_rejection_is_exit_two(capsys):
    code = main(["reflect", "--example", "neumann-reflect-constant", "--point", "0:0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "singular at the origin" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "--seed", "1"],
        ["field", "--tol", "5"],
        ["examples", "--seed", "99"],
        ["reflect", "--seed", "1"],
        ["field", "--example", "dtn-log", "--input", "x.json"],
        ["reflect", "--example", "neumann-reflect-constant", "--input", "x.json"],
    ],
)
def test_options_outside_their_subcommand_are_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_tolerance_accepted_on_verify_and_reflect(capsys):
    code, _ = run_main(capsys, "verify", "--targets", "algebra", "--tol", "1e-6", "--seed", "3")
    assert code == 0
    code, _ = run_main(
        capsys, "reflect", "--example", "neumann-reflect-constant", "--point", "0.8:0.0",
        "--check", "--tol", "1e-12",
    )
    assert code == 0
    # several checks hold a tolerance of 0.0, so 0 is a valid override
    code, _ = run_main(capsys, "verify", "--targets", "antiderivative_round_trip", "--tol", "0")
    assert code == 0


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv",
    [["examples"], ["verify"], ["reflect", "--example", "neumann-reflect-constant", "--check"]],
    ids=["examples", "verify", "reflect"],
)
def test_tolerance_must_be_finite_and_non_negative(argv, tol, capsys):
    # nan and -1 used to exit 1 as residual failures, and inf to pass
    err = _bad_input(capsys, *argv, "--tol", tol)
    assert err == f"error: --tol must be a finite number >= 0, got {float(tol)!r}\n"


def test_nan_operator_residual_fails_examples(monkeypatch, capsys):
    # a running max(worst, nan) from 0.0 dropped this and passed every row
    monkeypatch.setattr("harmonia.cli.eval_real", lambda *args: float("nan"))
    code, out = run_main(capsys, "examples", "--format", "json")
    assert code == 1
    operator_rows = [r for r in json.loads(out)["examples"] if r["kind"] in ("dtn_pair", "rtn_pair")]
    assert len(operator_rows) == 5
    # JSON writes NaN as null
    assert all(r["status"] == "FAIL" and r["max_residual"] is None for r in operator_rows)


def test_reflect_underflowing_point_is_exit_two(tmp_path, capsys):
    # e^{i theta}/r overflows at r = 1e-300, and the Robin self term then
    # raises 0.0 to a negative power
    payload = {
        "solution": _REFLECT_SOLUTION,
        "data": [{"re": 1.0, "im": 0.0, "kz": 1, "kzeta": 0}],
        "point": {"r": 1e-300, "theta": 0.0},
    }
    path = tmp_path / "tiny_radius.json"
    path.write_text(json.dumps(payload))
    for formula in ("dirichlet", "neumann", "robin", "schwarz"):
        assert main(["reflect", "--formula", formula, "--input", str(path), "--check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1


_FIXTURES = json.loads(
    resources.files("harmonia").joinpath("fixtures/examples.json").read_text("utf-8")
)["examples"]


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _bad_input(capsys, *argv) -> str:
    """Run the CLI on input it must reject; return its one error line."""
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1, captured.err
    return captured.err


@pytest.mark.parametrize(
    "command, payload, where",
    [
        (["reflect", "--check"],
         {"solution": {"part_z": [{"re": 1e308, "k": 3}], "part_zeta": [{"re": -1e308, "k": 3}]}},
         "solution"),
        (["field"],
         {"field": {"kind": "pair", "pair": {"part_z": [{"re": 0.5, "im": 0.25, "k": 2}],
                                             "part_zeta": [{"re": 0.5, "im": 0.25, "k": 2}]}}},
         "field.pair"),
        (["field"],
         {"field": {"kind": "dtn_pair", "u": {"part_z": [{"re": 0.5, "k": 1}], "part_zeta": []}}},
         "field.u"),
    ],
    ids=["reflect", "field-pair", "field-dtn"],
)
def test_a_pair_whose_zeta_part_is_not_the_mirror_is_exit_two(command, payload, where, tmp_path,
                                                              capsys):
    path = _write(tmp_path, "lopsided.json", payload)
    err = _bad_input(capsys, *command, "--input", path)
    assert err == (f"error: {path}: {where}.part_zeta: must be the conjugate mirror of "
                   f"{where}.part_z, term for term\n")
    # a zero imaginary part of either sign, or none, is the mirror of a real one
    mirrored = {"part_z": [{"re": 0.5, "im": -0.0, "k": 2}], "part_zeta": [{"re": 0.5, "k": 2}]}
    path = _write(tmp_path, "mirrored.json", {"field": {"kind": "pair", "pair": mirrored}})
    assert main(["field", "--input", path]) == 0


def test_reflect_at_the_inverse_pole_names_the_inverse_map(capsys):
    # zeta = 0 is the pole of the inverse map S~(zeta) = 1/zeta
    err = _bad_input(
        capsys, "reflect", "--formula", "schwarz", "--example", "neumann-reflect-constant",
        "--point", "0:0",
    )
    assert "inverse Schwarz map has a pole" in err


@pytest.mark.parametrize("row", _FIXTURES, ids=lambda row: row["id"])
def test_field_runs_every_fixture_kind(row, tmp_path, capsys):
    argv = ["--grid", "0.6:1.4:3:-1.0:1.0:4", "--format", "json"]
    code, out = run_main(capsys, "field", "--example", row["id"], *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 12 and all(isinstance(r["value"], float) for r in rows)
    # the fixture row itself is a field source
    path = _write(tmp_path, "row.json", {"field": row})
    assert run_main(capsys, "field", "--input", path, *argv) == (0, out)


@pytest.mark.parametrize(
    "row", [r for r in _FIXTURES if r["kind"].startswith("reflect_")], ids=lambda row: row["id"]
)
def test_reflect_check_on_every_reflection_fixture(row, capsys):
    formula = "neumann" if row["kind"] == "reflect_neumann" else "robin"
    code, out = run_main(
        capsys, "reflect", "--example", row["id"], "--formula", formula, "--point", "0.75:0.4",
        "--check",
    )
    assert code == 0
    assert json.loads(out)["check_residual"] < 1e-10


def test_field_unknown_kind_is_exit_two(tmp_path, capsys):
    field = {"kind": "bogus", "pair": _REFLECT_SOLUTION}
    path = _write(tmp_path, "unknown_kind.json", {"field": field})
    assert "'bogus'" in _bad_input(capsys, "field", "--input", path)


# at r = 2 its two terms overflow to +inf and -inf, so the sum is NaN,
# which the term loop rejects
_OVERFLOWING_SOLUTION = {
    "part_z": [{"re": 1e308, "im": 0.0, "k": 3, "m": 0}, {"re": -1e308, "im": 0.0, "k": 4, "m": 0}],
    "part_zeta": [{"re": 1e308, "im": 0.0, "k": 3, "m": 0}, {"re": -1e308, "im": 0.0, "k": 4, "m": 0}],
}
# its sum is 1e308, finite, and the value 2 Re f overflows to +inf after it,
# so the value is inf and a residual inf - inf is NaN
_DOUBLING_SOLUTION = {
    "part_z": [{"re": 1e308, "im": 0.0, "k": 0, "m": 0}],
    "part_zeta": [{"re": 1e308, "im": 0.0, "k": 0, "m": 0}],
}


def _strict_json(text):
    """JSON as RFC 8259 has it: a bare NaN, Infinity or -Infinity raises."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_numbers_are_written_as_null(monkeypatch, tmp_path, capsys):
    # verify, where one check raises and so reports a NaN residual: every
    # point reads off its curve, so the normal derivative on it raises
    monkeypatch.setattr(SchwarzMap, "on_curve_residual", lambda smap, z: 1.0)
    code, out = run_main(capsys, "verify", "--targets", "harmonic")
    assert code == 1
    (raised,) = (c for c in _strict_json(out)["checks"] if "error" in c)
    assert raised["name"] == "normal_vs_radial_derivative" and raised["max_residual"] is None
    monkeypatch.undo()
    # reflect --check, where the value is inf and the residual NaN
    payload = {
        "solution": _DOUBLING_SOLUTION,
        "data": [{"re": 1.0, "im": 0.0, "kz": 0, "kzeta": 0}],
        "point": {"r": 2.0, "theta": 0.0},
    }
    path = _write(tmp_path, "overflowing.json", payload)
    code, out = run_main(capsys, "reflect", "--formula", "neumann", "--input", path, "--check")
    assert code == 1
    record = _strict_json(out)
    assert record["check_residual"] is None and record["value"]["re"] is None


def test_the_json_writer_nulls_non_finite_numbers_only():
    record = {"a": [math.nan, math.inf, -math.inf, 1.5, (2, -0.0)], "b": {"c": True, "d": None}}
    nulled = {"a": [None, None, None, 1.5, [2, -0.0]], "b": {"c": True, "d": None}}
    assert records.write(record) == json.dumps(nulled, indent=2)
    assert records.write({"x": 0.1}) == json.dumps({"x": 0.1}, indent=2)


@pytest.mark.parametrize("formula", ["dirichlet", "neumann", "robin", "schwarz"])
def test_reflect_non_finite_result_is_exit_two(formula, tmp_path, capsys):
    # without --check there is no residual to fail, so an inf value is bad input
    payload = {
        "solution": _DOUBLING_SOLUTION,
        "data": [{"re": 1.0, "im": 0.0, "kz": 0, "kzeta": 0}],
        "point": {"r": 2.0, "theta": 0.0},
    }
    path = _write(tmp_path, "overflowing.json", payload)
    err = _bad_input(capsys, "reflect", "--formula", formula, "--input", path)
    assert path in err and "z = (2+0j)" in err and "not finite" in err


@pytest.mark.parametrize("formula", ["dirichlet", "neumann", "robin", "schwarz"])
@pytest.mark.parametrize("check", [[], ["--check"]])
def test_reflect_solution_whose_sum_is_not_finite_is_exit_two(formula, check, tmp_path, capsys):
    # a NaN sum raises in the term loop, before any residual is formed
    payload = {
        "solution": _OVERFLOWING_SOLUTION,
        "data": [{"re": 1.0, "im": 0.0, "kz": 0, "kzeta": 0}],
        "point": {"r": 2.0, "theta": 0.0},
    }
    path = _write(tmp_path, "overflowing.json", payload)
    err = _bad_input(capsys, "reflect", "--formula", formula, "--input", path, *check)
    # robin's self term sums along the ray first
    assert err.startswith(f"error: {path}: at z = (2+0j), zeta = (2+0j): overflow: the sum ")
    assert "is beyond the float range" in err


@pytest.mark.parametrize(
    "case",
    ["overflowing_point", "missing_re", "missing_k", "complex_exponentiation"],
)
def test_error_line_names_the_input(case, tmp_path, capsys):
    if case == "overflowing_point":  # math's own text is (34, 'Numerical result out of range')
        argv = ["reflect", "--formula", "schwarz", "--example", "neumann-reflect-constant",
                "--point", "1e300:0"]
        names = ["'neumann-reflect-constant'", "z = (1e+300+0j)", ": overflow: "]
    elif case == "missing_re":
        pair = {"part_z": [{"im": 1.0, "k": 1}], "part_zeta": []}
        path = _write(tmp_path, "no_re.json", {"field": {"kind": "pair", "pair": pair}})
        argv = ["field", "--input", path]
        names = [path, "missing key 're'"]
    elif case == "missing_k":
        solution = {"part_z": [{"re": 1.0}], "part_zeta": []}
        path = _write(tmp_path, "no_k.json", {"solution": solution, "data": []})
        argv = ["reflect", "--input", path]
        names = [path, "missing key 'k'"]
    else:
        payload = {
            "solution": _REFLECT_SOLUTION,
            "data": [{"re": 1.0, "im": 0.0, "kz": 1, "kzeta": 0}],
            "point": {"r": 1e-300, "theta": 0.0},
        }
        path = _write(tmp_path, "tiny.json", payload)
        argv = ["reflect", "--formula", "dirichlet", "--input", path, "--check"]
        names = [path, "1e-300", ": overflow: a power at z = (9.999999999999999e+299+0j) is "
                 "beyond the float range"]
    err = _bad_input(capsys, *argv)
    assert all(name in err for name in names), err


@pytest.mark.parametrize(
    "field",
    [
        # int(1e300) log steps in the primitive: this used to run until memory ran out
        {"kind": "dtn_pair", "u": {"part_z": [{"re": 0.5, "k": 1, "m": 1e300}], "part_zeta": []}},
        {"kind": "pair", "pair": {"part_z": [{"re": 0.5, "k": 1.5}], "part_zeta": []}},
        # used to give NaN rows and exit 0
        {**next(r for r in _FIXTURES if r["id"] == "robin-reflect-cos2"), "a": math.inf},
        # used to give -inf rows and exit 0
        {
            **next(r for r in _FIXTURES if r["id"] == "neumann-reflect-cos2"),
            "v": {"part_z": [{"re": 0.5, "im": 1e308, "k": 2}], "part_zeta": []},
        },
    ],
    ids=["huge_log_power", "fractional_power", "infinite_robin_coefficient", "overflowing_value"],
)
def test_field_rejects_input_that_hung_or_gave_non_finite_rows(field, tmp_path, capsys):
    path = _write(tmp_path, "field.json", {"field": field})
    _bad_input(capsys, "field", "--input", path)


@pytest.mark.parametrize("point", ["0.8", "a:b", "0.8:0.1:2", ""])
def test_reflect_malformed_point_names_the_option(point, capsys):
    err = _bad_input(
        capsys, "reflect", "--example", "neumann-reflect-constant", f"--point={point}"
    )
    assert err == f"error: --point must be two finite numbers r:theta, got {point!r}\n"


@pytest.mark.parametrize("grid", ["0.5:1.5:x:-1:1:5", "0.5:1.5:5:-1:1:2.5", "a:1.5:5:-1:1:5"])
def test_field_malformed_grid_names_the_option(grid, capsys):
    err = _bad_input(capsys, "field", "--example", "dtn-log", "--grid", grid)
    assert err.startswith(f"error: --grid must be rmin:rmax:nr:tmin:tmax:nt, got {grid!r}: "), err


def test_input_file_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "not_json.json"
    path.write_text("not json")
    err = _bad_input(capsys, "field", "--input", str(path))
    assert err.startswith(f"error: {path}: Expecting value"), err


def test_input_file_with_nan_coefficient_is_named(tmp_path, capsys):
    pair = {"part_z": [{"re": float("nan"), "k": 1}], "part_zeta": []}
    path = _write(tmp_path, "nan_coefficient.json", {"field": {"kind": "pair", "pair": pair}})
    err = _bad_input(capsys, "field", "--input", path)
    assert err == f"error: {path}: field.pair.part_z[0].re: must be a number, got nan\n", err


def test_examples_under_a_rotated_cut_name_the_row(monkeypatch, capsys):
    # the fixed sample grids hold theta = +-2.0, so a cut at 2.0 runs through them
    monkeypatch.setenv("HARMONIA_CUT_ANGLE", "2.0")
    err = _bad_input(capsys, "examples")
    assert any(err.startswith(f"error: example {row['id']!r}: ") for row in _FIXTURES), err
    assert "branch cut" in err


def test_reflect_input_point_and_the_point_option_exclude_each_other(tmp_path, capsys):
    # --point used to win and the file's point was dropped, with exit 0
    payload = {"solution": _REFLECT_SOLUTION, "point": {"r": 0.8, "theta": 0.1}}
    path = _write(tmp_path, "with_point.json", payload)
    err = _bad_input(capsys, "reflect", "--input", path, "--point", "0.7:0.2")
    assert err == f"error: {path}: point: given in the file and by --point; give one\n"
    assert run_main(capsys, "reflect", "--input", path)[0] == 0


@pytest.mark.parametrize("formula", ["dirichlet", "neumann", "schwarz"])
def test_reflect_input_params_need_the_robin_formula(formula, tmp_path, capsys):
    # every other formula used to drop the params, with exit 0
    payload = {"solution": _REFLECT_SOLUTION, "params": {"a": 1.0, "b": 2.0}}
    path = _write(tmp_path, "with_params.json", payload)
    err = _bad_input(capsys, "reflect", "--formula", formula, "--input", path)
    assert err == f"error: {path}: params: read only by --formula robin, not {formula}\n"
    assert run_main(capsys, "reflect", "--formula", "robin", "--input", path)[0] == 0
    # a Robin fixture row carries a and b, and any formula may reflect it
    argv = ["--example", "robin-reflect-cos2", "--point", "0.7:0.2"]
    assert run_main(capsys, "reflect", "--formula", formula, *argv)[0] == 0


def _count_reads(monkeypatch):
    """The shapes passed to ``records.read`` through every module that binds it."""
    shapes = []
    for module in (harmonia.algebra, harmonia.geometry, harmonia.harmonic, harmonia.cli):
        def counting(value, shape, read=module.read):
            shapes.append(shape)
            return read(value, shape)

        monkeypatch.setattr(module, "read", counting)
    return shapes


def test_each_cli_input_is_read_once(tmp_path, capsys, monkeypatch):
    shapes = _count_reads(monkeypatch)
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"field": {"kind": "rtn_pair", "a": 1, "b": 2.0, "w": {
        "part_z": [{"re": 0.5, "k": 2}], "part_zeta": [{"re": 0.5, "k": 2, "m": 0}]}}}))
    assert main(["field", "--input", str(field), "--grid", "0.5:1.5:2:0.0:1.0:2"]) == 0
    assert shapes == [records.FIELD_INPUT]
    shapes.clear()
    reflect = tmp_path / "reflect.json"
    reflect.write_text(json.dumps({
        "solution": {"part_z": [{"re": 0.5, "k": 2}], "part_zeta": [{"re": 0.5, "k": 2}]},
        "data": [{"re": 0.5, "kz": 2, "kzeta": 0}, {"re": 0.5, "kz": 0, "kzeta": 2}],
        "map": {"kind": "circle", "center": {"re": 0.1}, "radius": 1.5},
        "point": {"r": 0.8, "theta": 0.4},
    }))
    assert main(["reflect", "--formula", "schwarz", "--input", str(reflect)]) == 0
    assert shapes == [records.REFLECT_INPUT]
    for args in (["field", "--example", "rtn-log", "--grid", "0.5:1.5:2:0.0:1.0:2"],
                 ["reflect", "--formula", "robin", "--example", "robin-reflect-cos2"],
                 ["examples"]):
        shapes.clear()
        assert main(args) == 0
        assert shapes == [records.EXAMPLES]
    capsys.readouterr()
