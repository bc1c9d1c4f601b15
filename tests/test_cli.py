import copy
import json
import subprocess
import sys

import pytest

from confgeo.cli import main

BASE_SCENARIO = {
    "surfaces": [
        {"name": "plane", "kind": "patch", "x": "u", "y": "v", "z": "0",
         "domain": [[-1.5, 1.5], [-1.5, 1.5]]},
    ],
    "curves": [
        {"name": "circle", "u": "cos(s)", "v": "sin(s)", "s_range": [0.1, 6.1]},
    ],
    "pairs": [
        {"name": "id", "source": "plane", "target": "plane", "dilation": "1",
         "ambient_map": ["x", "y", "z"]},
    ],
    "profiles": [
        {"name": "p", "nu": "1+0.5*s", "eta": "0.5*s^2-0.25"},
    ],
    "suites": [
        {"suite": "forms", "surface": "plane"},
        {"suite": "frenet", "surface": "plane", "curve": "circle"},
        {"suite": "christoffel-shift", "pair": "id"},
        {"suite": "bracket-shift", "pair": "id", "curve": "circle"},
        {"suite": "geodesic-deviation", "pair": "id", "curve": "circle"},
        {"suite": "theorem3", "pair": "id", "curve": "circle", "profile": "p"},
        {"suite": "tangential", "pair": "id", "curve": "circle", "profile": "p"},
        {"suite": "classify", "surface": "plane", "curve": "circle", "expect": "normal"},
        {"suite": "pushforward", "pair": "id"},
    ],
    "grids": {"surface": 4, "curve": 6, "mode": "uniform"},
}


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture()
def identity_scenario(tmp_path):
    return write_scenario(tmp_path, BASE_SCENARIO)


def test_identity_scenario_all_suites_pass(identity_scenario, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["--scenario", str(identity_scenario), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == len(BASE_SCENARIO["suites"])
    # identity pair: conformal residual columns are exactly zero
    shift = json.loads((out / "scn.christoffel-shift.json").read_text())
    idx = [shift["columns"].index(c) for c in
           ("r111", "r112", "r121", "r122", "r221", "r222")]
    assert all(row[i] == 0.0 for row in shift["rows"] for i in idx)
    push = json.loads((out / "scn.pushforward.json").read_text())
    assert push["max_residual"] == 0.0
    for entry in BASE_SCENARIO["suites"]:
        name = entry["suite"]
        report = json.loads((out / f"scn.{name}.json").read_text())
        assert report["pass"] is True
        assert report["max_residual"] < 1e-13


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["--scenario", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_non_conformal_pair_is_math_error(tmp_path, capsys):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["surfaces"].append({"name": "stretch", "kind": "patch",
                            "x": "u", "y": "2*v", "z": "0",
                            "domain": [[-1.5, 1.5], [-1.5, 1.5]]})
    doc["pairs"] = [{"name": "bad", "source": "plane", "target": "stretch"}]
    doc["suites"] = [{"suite": "christoffel-shift", "pair": "bad"}]
    path = write_scenario(tmp_path, doc)
    code = main(["--scenario", str(path), "--out", str(tmp_path / "r")])
    assert code == 3
    err = capsys.readouterr().err
    assert "not conformal" in err
    assert "christoffel-shift" in err
    assert "3.0" in err  # the G-ratio residual appears in the diagnostic


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["surfaces"][0].pop("x"), "surfaces[0]: missing key 'x'"),
    (lambda d: d["surfaces"][0].update(kind="blob"), "surfaces[0].kind"),
    (lambda d: d["suites"].append({"suite": "bogus"}), "suites[9].suite"),
    (lambda d: d["suites"].append({"suite": "forms"}), "needs key 'surface'"),
    (lambda d: d["pairs"][0].update(source="ghost"), "unknown surface 'ghost'"),
    (lambda d: d.update(tolerances={"forms": -1.0}), "tolerances.forms"),
    (lambda d: d.update(tolerances={"nope": 1.0}), "tolerances.nope"),
    (lambda d: d["surfaces"][0].update(domain=[[1.0, -1.0], [0.0, 1.0]]), "degenerate domain"),
    (lambda d: d["surfaces"][0].update(x="sin(u"), "surfaces[0].x"),
    (lambda d: d["curves"][0].pop("s_range"), "curves[0]: missing key 's_range'"),
    (lambda d: d.update(grids={"mode": "chaotic"}), "grids.mode"),
    (lambda d: d.update(suites=[]), "declares no suites"),
    (lambda d: d["surfaces"].append(dict(d["surfaces"][0])), "duplicate name 'plane'"),
])
def test_validation_errors_name_offending_key(tmp_path, capsys, mutate, fragment):
    doc = copy.deepcopy(BASE_SCENARIO)
    mutate(doc)
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path)]) == 2
    assert fragment in capsys.readouterr().err


def _reparam_curve(t_range):
    return {"name": "raw", "reparameterize": True, "surface": "plane",
            "u": "t", "v": "0", "t_range": t_range}


@pytest.mark.parametrize("mutate, argv, fragment", [
    (lambda d: d["curves"][0].update(s_range="ab"), [], "curves[0].s_range"),
    (lambda d: d["curves"][0].update(s_range=[0.0]), [], "curves[0].s_range"),
    (lambda d: d["curves"][0].update(s_range=[0.0, float("inf")]), [], "curves[0].s_range[1]"),
    (lambda d: d["curves"].append(_reparam_curve("x")), [], "curves[1].t_range"),
    (lambda d: d.update(tolerances={"forms": "tight"}), [], "tolerances.forms"),
    (lambda d: d.update(tolerances={"forms": float("nan")}), [], "tolerances.forms"),
    (lambda d: d.update(tolerances={"forms": float("inf")}), [], "tolerances.forms"),
    (lambda d: d.update(grids={"surface": "8"}), [], "grids.surface"),
    (lambda d: d.update(grids={"surface": 2.5}), [], "grids.surface"),
    (lambda d: d.update(grids={"surface": 0, "curve": 0}), [], "grids.surface"),
    (lambda d: d.update(grids={"curve": 0}), [], "grids.curve"),
    (lambda d: d["surfaces"][0].update(domain=[[-1.5, float("inf")], [-1.5, 1.5]]), [],
     "surfaces[0].domain"),
    (lambda d: d["surfaces"][0].update(name=["plane"]), [], "surfaces[0].name"),
    (lambda d: d["suites"][0].update(surface=["plane"]), [], "suites[0].surface"),
    (lambda d: d["suites"].__setitem__(0, 7), [], "suites[0]"),
    (lambda d: None, ["--tol", "nan"], "--tol"),
    (lambda d: None, ["--tol", "inf"], "--tol"),
    (lambda d: d.update(tolerances=[1]), [], "tolerances: expected an object"),
    (lambda d: d.update(grids=[8]), [], "grids: expected an object"),
    (lambda d: d.update(surfaces=5), [], "surfaces: expected a list"),
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), samples=[1])), [],
     "curves[1].samples"),
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), samples=2.7)), [],
     "curves[1].samples"),
])
def test_malformed_values_are_scenario_errors(tmp_path, capsys, mutate, argv, fragment):
    doc = copy.deepcopy(BASE_SCENARIO)
    mutate(doc)
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r"), *argv]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--scenario", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_failing_tolerance_gives_exit_one(identity_scenario, tmp_path, capsys):
    # a catenoid forms suite has ~1e-10 fd residuals: an absurd tolerance fails it
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["surfaces"].append({"name": "cat", "kind": "patch",
                            "x": "cosh(v)*cos(u)", "y": "cosh(v)*sin(u)", "z": "v",
                            "domain": [[0.1, 1.2], [0.2, 1.0]]})
    doc["suites"] = [{"suite": "forms", "surface": "cat"}]
    path = write_scenario(tmp_path, doc)
    code = main(["--scenario", str(path), "--out", str(tmp_path / "r"),
                 "--tol", "1e-30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_csv_table_format(identity_scenario, tmp_path):
    out = tmp_path / "csv_out"
    code = main(["--scenario", str(identity_scenario), "--out", str(out),
                 "--format", "table", "--suite", "forms"])
    assert code == 0
    files = sorted(out.glob("*.csv"))
    assert [f.name for f in files] == ["scn.forms.csv"]
    header = files[0].read_text().splitlines()[0]
    assert header.startswith("u,v,E,F,G,W,")


def test_suite_filter_and_unknown_suite_flag(identity_scenario, tmp_path, capsys):
    out = tmp_path / "sel"
    code = main(["--scenario", str(identity_scenario), "--out", str(out),
                 "--suite", "classify"])
    assert code == 0
    assert [p.name for p in sorted(out.glob("*.json"))] == ["scn.classify.json"]
    assert main(["--scenario", str(identity_scenario), "--suite", "wat"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_reports_deterministic_apart_from_wall_clock(identity_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--scenario", str(identity_scenario), "--out", str(out)]) == 0
    for pa in sorted(out_a.glob("*.json")):
        pb = out_b / pa.name
        da, db = json.loads(pa.read_text()), json.loads(pb.read_text())
        da.pop("wall_ms"), db.pop("wall_ms")
        assert da == db


def test_csv_reports_byte_identical(identity_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--scenario", str(identity_scenario), "--out", str(out),
                     "--format", "table"]) == 0
    for pa in sorted(out_a.glob("*.csv")):
        assert pa.read_bytes() == (out_b / pa.name).read_bytes()


def test_random_grid_seed_recorded_and_reproducible(tmp_path):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["grids"] = {"surface": 4, "curve": 6, "mode": "random"}
    doc["suites"] = [{"suite": "forms", "surface": "plane"}]
    path = write_scenario(tmp_path, doc)
    outs = [tmp_path / n for n in ("r1", "r2", "r3")]
    assert main(["--scenario", str(path), "--out", str(outs[0]), "--seed", "5"]) == 0
    assert main(["--scenario", str(path), "--out", str(outs[1]), "--seed", "5"]) == 0
    assert main(["--scenario", str(path), "--out", str(outs[2]), "--seed", "6"]) == 0
    r1 = json.loads((outs[0] / "scn.forms.json").read_text())
    r2 = json.loads((outs[1] / "scn.forms.json").read_text())
    r3 = json.loads((outs[2] / "scn.forms.json").read_text())
    assert r1["digest"]["seed"] == 5
    assert r1["rows"] == r2["rows"]
    assert r1["rows"] != r3["rows"]


def test_grid_override(identity_scenario, tmp_path):
    out = tmp_path / "g"
    assert main(["--scenario", str(identity_scenario), "--out", str(out),
                 "--suite", "forms", "--grid", "3"]) == 0
    report = json.loads((out / "scn.forms.json").read_text())
    assert len(report["rows"]) == 9


def test_repeated_suite_files_disambiguated(tmp_path):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["suites"] = [{"suite": "forms", "surface": "plane"},
                     {"suite": "forms", "surface": "plane"}]
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "two"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.json")) == \
        ["scn.forms-2.json", "scn.forms.json"]


def test_module_invocation_smoke(identity_scenario, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "confgeo",
         "--scenario", str(identity_scenario),
         "--out", str(tmp_path / "mod"), "--suite", "classify"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "PASS classify" in result.stdout


def test_help_exits_zero():
    assert main(["--help"]) == 0
