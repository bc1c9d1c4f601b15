import copy
import hashlib
import json
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from confgeo import cli, exprkit, geometry, normalcurve
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


def test_metric_with_negative_e_is_math_error(tmp_path, capsys):
    doc = copy.deepcopy(BASE_SCENARIO)
    box = [[-1.5, 1.5], [-1.5, 1.5]]
    doc["surfaces"] += [{"name": "neg", "kind": "metric", "E": "-1", "F": "0", "G": "-1",
                         "domain": box},
                        {"name": "flat", "kind": "metric", "E": "1", "F": "0", "G": "1",
                         "domain": box}]
    doc["pairs"] = [{"name": "bad", "source": "neg", "target": "flat"}]
    doc["suites"] = [{"suite": "christoffel-shift", "pair": "bad"}]
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "suite 'christoffel-shift' (pair='bad')" in err
    assert "at (-1.35, -1.35): E = -1.0, EG - F^2 = 1.0" in err


# cos(8 pi u) is 1 at the nine points a pair samples at load (u = 0, +-0.75)
# and -0.809 at u = -1.35, the first point of a grid of 4
WAVY = "cos(25.132741228718345*u)"


@pytest.mark.parametrize("source, target, dilation, tolerances", [
    # zeta = 3e-9: every declared value within 1e-8 of it passes the cross-check
    ({"E": "1e8", "F": "0", "G": "1e8"}, {"E": "9e-10", "F": "0", "G": "9e-10"},
     f"3e-9*{WAVY}", {}),
    ({"E": "1", "F": "0", "G": "1"}, {"E": "1", "F": "0", "G": "1"}, WAVY, {"conformality": 3}),
], ids=["tiny-zeta", "loose-tolerance"])
def test_non_positive_declared_dilation_is_math_error(tmp_path, capsys, source, target,
                                                      dilation, tolerances):
    doc = copy.deepcopy(BASE_SCENARIO)
    box = [[-1.5, 1.5], [-1.5, 1.5]]
    doc["surfaces"] += [dict(name="src", kind="metric", domain=box, **source),
                        dict(name="tgt", kind="metric", domain=box, **target)]
    doc["pairs"] = [{"name": "wavy", "source": "src", "target": "tgt", "dilation": dilation}]
    doc["suites"] = [{"suite": "christoffel-shift", "pair": "wavy"}]
    doc["tolerances"] = tolerances
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "math error in suite 'christoffel-shift' (pair='wavy'): declared dilation -" in err
    assert "at (-1.35, -1.35)" in err
    assert "Traceback" not in err


def test_regular_pair_with_tiny_e_is_conformal(tmp_path):
    # E = 1e-13, G = 1e13: W = 1, far inside the first form's floor
    doc = copy.deepcopy(BASE_SCENARIO)
    box = [[-1.5, 1.5], [-1.5, 1.5]]
    doc["surfaces"] += [{"name": "thin", "kind": "metric", "E": "1e-13", "F": "0", "G": "1e13",
                         "domain": box},
                        {"name": "thin4", "kind": "metric", "E": "4e-13", "F": "0", "G": "4e13",
                         "domain": box}]
    doc["pairs"] = [{"name": "double", "source": "thin", "target": "thin4"}]
    doc["suites"] = [{"suite": "christoffel-shift", "pair": "double"}]
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "r"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "scn.christoffel-shift.json").read_text())
    zeta = report["columns"].index("zeta")
    assert [row[zeta] for row in report["rows"]] == [2.0] * 16


def test_conformality_residuals_scale_with_their_own_coefficient(tmp_path):
    # 3e-13 / 1e-13 is not exactly 3, and 1e13 times its last bit leaves a
    # G residual of 0.0039: small against G~ = 3e13, not against E~ = 3e-13
    doc = copy.deepcopy(BASE_SCENARIO)
    box = [[-1.5, 1.5], [-1.5, 1.5]]
    doc["surfaces"] += [{"name": "thin", "kind": "metric", "E": "1e-13", "F": "0", "G": "1e13",
                         "domain": box},
                        {"name": "thin3", "kind": "metric", "E": "3e-13", "F": "0", "G": "3e13",
                         "domain": box}]
    doc["pairs"] = [{"name": "triple", "source": "thin", "target": "thin3"}]
    doc["suites"] = [{"suite": "christoffel-shift", "pair": "triple"}]
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "r"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "scn.christoffel-shift.json").read_text())
    zeta = report["columns"].index("zeta")
    assert [row[zeta] for row in report["rows"]] == pytest.approx([3.0 ** 0.5] * 16, rel=1e-15)


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
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), surface="ghost")),
     "curves[1].surface: unknown surface 'ghost'"),
    (lambda d: d["suites"][1].update(curve="ghost"), "suites[1].curve: unknown curve 'ghost'"),
    (lambda d: d["suites"][5].update(profile="ghost"),
     "suites[5].profile: unknown profile 'ghost'"),
    (lambda d: d["suites"][2].update(pair="ghost"), "suites[2].pair: unknown pair 'ghost'"),
    (lambda d: d["curves"].append(dict(d["curves"][0])), "curves[1].name: duplicate name 'circle'"),
    (lambda d: d["pairs"].append(dict(d["pairs"][0])), "pairs[1].name: duplicate name 'id'"),
    (lambda d: d["profiles"].append(dict(d["profiles"][0])),
     "profiles[1].name: duplicate name 'p'"),
    # a raw curve that fails while its arc length is measured: it leaves its
    # expression's domain, overflows, leaves the patch's box or meets a
    # degenerate patch
    (lambda d: d["curves"].append(dict(_reparam_curve([-1.0, 1.0]), u="log(t)")),
     "scenario error: curves[1]: log of a non-positive value in sub-expression 'log(t)' at ("),
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), u="2 + t")),
     "scenario error: curves[1]: point (2.001055163840576, 0.0) outside domain box"),
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), u="exp(1000*t)")),
     "scenario error: curves[1]: overflow in sub-expression 'exp((1000.0*t))' at ("),
    (lambda d: (d["surfaces"].append({"name": "line", "x": "u", "y": "u", "z": "u",
                                      "domain": [[-1.5, 1.5], [-1.5, 1.5]]}),
                d["curves"].append(dict(_reparam_curve([0.0, 1.0]), surface="line"))),
     "scenario error: curves[1]: degenerate first form at ("),
])
def test_validation_errors_name_offending_key(tmp_path, capsys, mutate, fragment):
    doc = copy.deepcopy(BASE_SCENARIO)
    mutate(doc)
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("suite, key", [(name, key) for name, row in cli.SUITES.items()
                                        for key in row.needs])
def test_each_suite_names_each_member_it_needs(tmp_path, capsys, suite, key):
    doc = copy.deepcopy(BASE_SCENARIO)
    entry = next(e for e in doc["suites"] if e["suite"] == suite)
    del entry[key]
    doc["suites"] = [entry]
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert f"suites[0]: suite '{suite}' needs key '{key}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", [name for name, row in cli.SUITES.items()
                                   if "surface" in row.needs])
def test_forms_on_a_metric_is_a_scenario_error(tmp_path, capsys, suite):
    # forms, frenet and classify all read patch jets, so a metric is refused
    # at load, before any suite runs
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["surfaces"].append({"name": "flat", "kind": "metric", "E": "1", "F": "0", "G": "1",
                            "domain": [[-1.0, 1.0], [-1.0, 1.0]]})
    doc["suites"] = [{"suite": "forms", "surface": "plane"},
                     {"suite": suite, "surface": "flat",
                      **({"curve": "circle"} if "curve" in cli.SUITES[suite].needs else {})}]
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"scenario error: suites[1].surface: suite '{suite}' needs a "
                            f"patch, 'flat' is a metric\n")
    assert captured.out == "" and not (tmp_path / "r").exists()


def _reparam_curve(t_range):
    return {"name": "raw", "reparameterize": True, "surface": "plane",
            "u": "t", "v": "0", "t_range": t_range}


def _reparam_on_metric(doc):
    doc["surfaces"].append({"name": "flat", "kind": "metric", "E": "1", "F": "0", "G": "1",
                            "domain": [[-1.5, 1.5], [-1.5, 1.5]]})
    doc["curves"].append(dict(_reparam_curve([0.0, 1.0]), surface="flat"))


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
    # one level past the depth bound, through the parser's recursion and
    # through a long sum that the parser builds without recursion
    (lambda d: d["surfaces"][0].update(x="(" * exprkit.MAX_DEPTH + "u" + ")" * exprkit.MAX_DEPTH),
     [], f"surfaces[0].x: expression deeper than {exprkit.MAX_DEPTH} levels"),
    (lambda d: d["surfaces"][0].update(x="+".join(["u"] * (exprkit.MAX_DEPTH + 1))), [],
     f"surfaces[0].x: expression deeper than {exprkit.MAX_DEPTH} levels"),
    (lambda d: d["surfaces"][0].update(x=1), [],
     "surfaces[0].x: expected an expression string, got 1"),
    (lambda d: d["surfaces"][0].update(domain=[-1.5, 1.5]), [],
     "surfaces[0]: domain must be [[u0,u1],[v0,v1]]"),
    (lambda d: [d], [], "top level must be an object"),
    (_reparam_on_metric, [], "curves[1].surface: reparameterization needs a patch"),
    (lambda d: d["curves"].append(_reparam_curve([1.0, 0.0])), [], "curves[1]: need t1 > t0"),
    (lambda d: d["pairs"][0].update(ambient_map=["x", "y"]), [],
     "pairs[0].ambient_map: expected three expressions"),
    (lambda d: d.update(grids={"surfaces": 8}), [], "grids.surfaces: unknown grid key"),
    (lambda d: d.update(suites=d["suites"][:1]), ["--suite", "frenet"],
     "--suite: scenario has no suites among ['frenet']"),
    (lambda d: None, ["--grid", "0"], "--grid must be a positive integer"),
    # a key that no suite reads, or a verdict that is none of the five, would
    # silently leave a check out
    (lambda d: d["suites"][7].update(expct="osculating"), [],
     "suites[7].expct: suite 'classify' takes no key 'expct'"),
    (lambda d: d["suites"][7].update(expect=""), [],
     "suites[7].expect: expected one of ['normal', 'osculating', 'rectifying', 'generic', "
     "'undefined'], got ''"),
    (lambda d: d["suites"][7].update(expect=None), [], "suites[7].expect: expected one of"),
    (lambda d: d["suites"][7].update(expect=["normal"]), [], "suites[7].expect: expected one of"),
    (lambda d: d["suites"][1].update(tolerance=1e-30), [],
     "suites[1].tolerance: suite 'frenet' takes no key 'tolerance'"),
    (lambda d: d["suites"][0].update(expect="normal"), [],
     "suites[0].expect: suite 'forms' takes no key 'expect'"),
    (lambda d: d["suites"][2].update(surface="plane"), [],
     "suites[2].surface: suite 'christoffel-shift' takes no key 'surface'"),
    # nor may any other section hold a key that load_scenario does not read:
    # a misspelled dilation would go unchecked, a misspelled "tolerances"
    # would keep the defaults, "false" would reparameterize, and a
    # misspelled "samples" would silently become 32
    (lambda d: d["pairs"][0].update(dilaton="3/(1+u^2+v^2)"), [],
     "pairs[0].dilaton: unknown key"),
    (lambda d: d.update(tolerance={"christoffel-shift": 1e-30}), [], "tolerance: unknown key"),
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), reparameterize="false")), [],
     "curves[1].reparameterize: expected true or false, got 'false'"),
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), sample=64)), [],
     "curves[1].sample: unknown key"),
    (lambda d: d["curves"].append(dict(_reparam_curve([0.0, 1.0]), s_range=[0.0, 1.0])), [],
     "curves[1].s_range: unknown key"),
    (lambda d: d["curves"][0].update(surface="plane"), [], "curves[0].surface: unknown key"),
    (lambda d: d["surfaces"][0].update(E="1"), [], "surfaces[0].E: unknown key"),
    (lambda d: d["profiles"][0].update(zeta="1"), [], "profiles[0].zeta: unknown key"),
])
def test_malformed_values_are_scenario_errors(tmp_path, capsys, mutate, argv, fragment):
    doc = copy.deepcopy(BASE_SCENARIO)
    replaced = mutate(doc)  # a row edits doc in place, or returns the document to write
    path = write_scenario(tmp_path, doc if replaced is None else replaced)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r"), *argv]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_reparameterize_false_reads_the_s_range(tmp_path):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["curves"][0]["reparameterize"] = False
    sc = cli.load_scenario(write_scenario(tmp_path, doc))
    assert isinstance(sc.curves["circle"], geometry.ParamCurve)
    assert sc.curve_ranges["circle"] == (0.1, 6.1)


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


def test_cli_import_builds_no_dataclasses():
    # confgeo's record types are NamedTuples or slotted classes: building a
    # dataclass costs about a millisecond on every cold start
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy; before = set(sys.modules); "
            "import confgeo.cli; print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout.split()
    assert "confgeo.cli" in added
    assert "dataclasses" not in added


def test_cli_import_leaves_argparse_to_main():
    # numpy alone does not import argparse, and a caller that never runs
    # main does not need it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy; import confgeo.cli; "
            "print('argparse' in sys.modules)")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert loaded == ["False"]


@pytest.mark.parametrize("mode", ["random", "uniform"])
def test_a_run_loads_neither_numpy_random_nor_openssl(tmp_path, mode):
    # numpy.random loads OpenSSL through secrets and hmac, and hashlib
    # loads it for sha256: together about 10 MB of a run's peak memory
    path = _demo_with(tmp_path, lambda d: d["grids"].update(mode=mode))
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); from confgeo import cli; "
            f"code = cli.main(['--scenario', {str(path)!r}, '--out', {str(tmp_path / 'r')!r}, "
            "'--grid', '8']); print(code, *(m for m in ('numpy.random', 'secrets', 'hmac', "
            "'_hashlib') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0"


@pytest.mark.parametrize("suites", [None, [{"suite": "forms", "surface": "plane"}]],
                         ids=["demo", "one_suite"])
def test_digest_is_the_sha256_of_the_scenario_file(tmp_path, suites):
    path = DEMO if suites is None else write_scenario(tmp_path, {**BASE_SCENARIO,
                                                                  "suites": suites})
    assert cli.load_scenario(path).digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_scenarios_do_not_share_containers():
    a, b = cli.Scenario(Path("a.json"), "a"), cli.Scenario(Path("b.json"), "b")
    for key in ("surfaces", "curves", "curve_ranges", "pairs", "profiles", "suites",
                "tolerances", "grids"):
        assert getattr(a, key) is not getattr(b, key), key
    a.surfaces["s"] = object()
    a.suites.append({"suite": "forms"})
    assert b.surfaces == {} and b.suites == []


def test_a_new_scenario_holds_the_default_tolerances_and_grids_in_its_own_copies():
    a, b = cli.Scenario(Path("a.json"), "a"), cli.Scenario(Path("b.json"), "b")
    defaults = dict(cli.DEFAULT_TOLERANCES)
    assert a.tolerances == defaults
    assert a.grids == {"surface": 8, "curve": 10, "mode": "uniform"}
    a.tolerances["forms"] = 1.0
    a.grids["surface"] = 3
    assert cli.DEFAULT_TOLERANCES == defaults and b.tolerances == defaults
    assert b.grids["surface"] == 8


def test_classify_reads_the_library_default_tolerance():
    assert cli.SUITES["classify"].tolerance is normalcurve.CLASSIFY_TOL


# -- the run's store of walks ----------------------------------------------------

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"


def _without_wall_ms(path: Path) -> bytes:
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if b'"wall_ms"' not in line)


def test_demo_reports_match_each_suite_run_alone(tmp_path):
    # a store key that mixed up two walks would hand one suite another's values
    full, alone = tmp_path / "full", tmp_path / "alone"
    assert main(["--scenario", str(DEMO), "--out", str(full), "--grid", "8"]) == 0
    for name in cli.SUITE_NAMES:
        assert main(["--scenario", str(DEMO), "--out", str(alone), "--grid", "8",
                     "--suite", name]) == 0
    names = sorted(p.name for p in full.iterdir())
    assert len(names) == 15 and names == sorted(p.name for p in alone.iterdir())
    for name in names:
        assert _without_wall_ms(alone / name) == _without_wall_ms(full / name), name


def test_equal_expression_texts_share_one_expr():
    # the demo's profiles nu_only and eta_only both hold the expression 0
    sc = cli.load_scenario(DEMO)
    assert sc.profiles["nu_only"][1] is sc.profiles["eta_only"][0]
    assert sc.profiles["nu_only"][0] is sc.profiles["generic"][0]
    # equal text over other variables is another expression
    assert sc.surfaces["plane"].z is not sc.profiles["nu_only"][1]


def test_demo_load_holds_each_shared_subtree_once():
    sc = cli.load_scenario(DEMO)
    x, y, z = sc.surfaces["stereo_sphere"][:3]  # (2*u)/d, (2*v)/d and (u^2+v^2-1)/d
    assert exprkit.to_text(x.root.right) == "((1.0+(u^2.0))+(v^2.0))"
    assert x.root.right is y.root.right is z.root.right
    mx, my, mz = sc.pairs["stereo"].ambient_map  # (2*x)/d, (2*y)/d and 1+(2*(z-1))/d
    assert exprkit.to_text(mx.root.right) == "(((x^2.0)+(y^2.0))+((z-1.0)^2.0))"
    assert mx.root.right is my.root.right is mz.root.right.right


def test_demo_walks_each_latitude_point_once_per_expression(tmp_path, walks):
    # frenet, bracket-shift, theorem3 and tangential all run along latitude on
    # the spheres: without the store its (u, v) points were walked 24 times
    sc = cli.load_scenario(DEMO)
    cj = sc.curves["latitude"].jets(cli.curve_grid(sc.curve_ranges["latitude"], 8, None))
    walks.clear()
    assert main(["--scenario", str(DEMO), "--out", str(tmp_path), "--grid", "8"]) == 0
    at_latitude = [e for e, values in walks if len(values) == 2
                   and all(np.array_equal(np.asarray(x).view(np.uint64), y.view(np.uint64))
                           for x, y in zip(values, (cj.u, cj.v)))]
    expected = [getattr(sc.surfaces[name], c) for name in ("sphere", "sphere3") for c in "xyz"]
    expected.append(sc.pairs["spheres"].dilation)
    assert sorted(map(exprkit.to_text, at_latitude)) == sorted(map(exprkit.to_text, expected))


@pytest.fixture()
def orders(monkeypatch):
    """Every walk asked for, in order, as (expression, order): a walk of
    several expressions gives one entry per expression, in order."""
    seen, walk = [], exprkit._walk
    monkeypatch.setattr(exprkit, "_walk", lambda exprs, order: seen.extend(
        (e, order) for e in exprs) or walk(exprs, order))
    return seen


def test_each_walk_stops_at_the_order_its_reader_needs(orders):
    def walked(*exprs) -> Counter:
        return Counter(order for e, order in orders if any(e is x for x in exprs))

    def run(suite, **members):
        orders.clear()
        [entry] = [e for e in sc.suites if e["suite"] == suite
                   and all(e[k] == name for k, name in members.items())]
        cli.run_suite(sc, entry, sc.grids, sc.tolerances, None)

    sc = cli.load_scenario(DEMO)
    cat = sc.surfaces["catenoid"]
    xy = cat.x, cat.y  # its z, v, is the plane's y too
    raw = sc.curves["cat_waist"].u_raw, sc.curves["cat_waist"].v_raw
    # the arc-length table reads the speed: first derivatives of the raw
    # curve and of the patch
    assert walked(*raw).keys() == walked(*xy).keys() == {1}
    # forms: second partials at the grid, first partials at the oracle's
    # shifted points (its four shifted grids are one walk)
    run("forms", surface="catenoid")
    assert orders == [(e, 2) for e in cat[:3]] + [(e, 1) for e in cat[:3]]
    # pushforward: first partials of both patches and of the ambient map,
    # and the declared dilation's value
    run("pushforward", pair="stereo")
    pair = sc.pairs["stereo"]
    assert walked(*pair.source[:3], *pair.target[:3]) == {1: 6}
    assert walked(*pair.ambient_map) == {1: 3} and walked(pair.dilation) == {0: 1}
    # a bare metric's first form and a declared dilation's jet: order 1
    run("christoffel-shift", pair="flat_exp")
    assert Counter(order for _, order in orders) == {1: 7}
    # frenet along cat_waist: the Newton steps of the arc-length inverse
    # read the speed; the curve jets read the raw curve to order 2 and the
    # patch's first form with its partials; beta'' reads second partials
    run("frenet", curve="cat_waist")
    assert max(order for _, order in orders) == 2
    assert walked(*raw)[2] == 2 and walked(*xy)[2] == 4
    assert walked(*raw).keys() == walked(*xy).keys() == {1, 2}
    # frenet along latitude: an analytic curve's jets stop at order 2 too
    run("frenet", curve="latitude")
    assert walked(*sc.curves["latitude"]) == {2: 2}


@pytest.fixture()
def stores(monkeypatch):
    """(suite, store active while it ran, number of walks stored after it)."""
    seen, run_suite = [], cli.run_suite

    def spy(sc, entry, *args):
        store = exprkit._STORE.get()
        seen.append([entry["suite"], store, None])
        res = run_suite(sc, entry, *args)
        seen[-1][2] = None if store is None else len(store)
        return res

    monkeypatch.setattr(cli, "run_suite", spy)
    return seen


def test_only_curve_suites_share_the_run_store(identity_scenario, tmp_path, stores):
    assert main(["--scenario", str(identity_scenario), "--out", str(tmp_path)]) == 0
    assert [name for name, store, _ in stores if store is None] == \
        ["forms", "christoffel-shift", "pushforward"]
    shared = [store for _, store, _ in stores if store is not None]
    assert len(shared) == 6 and all(store is shared[0] for store in shared)
    assert all(n > 0 for _, store, n in stores if store is not None)
    # nothing outlives the run: the store is emptied and left
    assert shared[0] == {} and exprkit._STORE.get() is None


def test_store_ends_with_a_math_error(tmp_path, capsys, stores):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["surfaces"].append({"name": "stretch", "kind": "patch",
                            "x": "u", "y": "2*v", "z": "0",
                            "domain": [[-1.5, 1.5], [-1.5, 1.5]]})
    doc["pairs"] = [{"name": "bad", "source": "plane", "target": "stretch"}]
    doc["suites"] = [{"suite": "bracket-shift", "pair": "bad", "curve": "circle"}]
    path = write_scenario(tmp_path, doc)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    assert "not conformal" in capsys.readouterr().err
    [(_, store, _)] = stores
    assert store == {} and exprkit._STORE.get() is None


def _bits(res: cli.SuiteResult) -> dict:
    # each column's bits (float64) or cells (object), and the verdict
    return {"pass": res.pass_, "max_residual": repr(res.max_residual),
            **{k: c.tobytes() if c.dtype == np.float64 else c.tolist()
               for k, c in res.columns.items()}}


def test_each_demo_entry_gives_the_same_bits_with_and_without_the_store():
    # every entry in turn in one store, as a run enters it, against each
    # entry alone without one: a kept value is the value a call makes
    sc = cli.load_scenario(DEMO)
    alone = [_bits(cli.run_suite(sc, e, sc.grids, sc.tolerances, None)) for e in sc.suites]
    with exprkit.walk_store({}) as store:
        shared = [_bits(cli.run_suite(sc, e, sc.grids, sc.tolerances, None)) for e in sc.suites]
        # the store keeps derived values only: no walk of exprkit's
        assert store and all(key[0].__module__ != exprkit.__name__ for key in store)
    assert shared == alone


@pytest.mark.parametrize("mode", ["uniform", "random"])
def test_the_run_store_walks_each_expressions_order_and_grid_once(tmp_path, monkeypatch, mode):
    # every walk made while the run's store is entered, by its expressions'
    # identities, its order and its grid's shape and bits: a key that missed
    # where the bits would hit would walk a triple twice
    walked, walk_of, evaluate_of = [], exprkit._walk, exprkit._evaluate

    def counting(grid, tagged):
        key, walk = tagged
        if exprkit._STORE.get() is not None:
            walked.append((*key, *((a.shape, a.tobytes()) for a in grid)))
        return evaluate_of(grid, walk)

    monkeypatch.setattr(exprkit, "_walk", lambda exprs, order: (
        (tuple(map(id, exprs)), order), walk_of(exprs, order)))
    monkeypatch.setattr(exprkit, "_evaluate", counting)
    sc = cli.load_scenario(_demo_with(tmp_path, lambda d: d["grids"].update(mode=mode)))
    assert cli.run_scenario(sc, tmp_path / "r", "obj", [], 8, None, 7) == 0
    assert walked and len(set(walked)) == len(walked)


def test_suite_order_does_not_change_a_report(tmp_path):
    # a store key that let one suite read another suite's value would make a
    # report depend on the suites run before it; report tags follow the
    # order (theorem3-2), so reports are matched by suite and members
    def reports(out: Path, order) -> dict:
        sc = cli.load_scenario(DEMO)
        sc.suites[:] = order(sc.suites)
        assert cli.run_scenario(sc, out, "obj", [], None, None, 0) == 0
        found = {}
        for path in out.iterdir():
            doc = json.loads(path.read_text())
            members = tuple(doc["params"][k] for k in cli.SUITES[doc["suite"]].needs)
            found[doc["suite"], members] = _without_wall_ms(path)
        return found

    forward = reports(tmp_path / "forward", list)
    backward = reports(tmp_path / "backward", lambda suites: suites[::-1])
    assert len(forward) == 15 and forward == backward


# -- outside input ends in an exit code, never a traceback ------------------------


def _demo_with(tmp_path, mutate):
    doc = json.loads(DEMO.read_text())
    mutate(doc)
    return write_scenario(tmp_path, doc, "demo.json")


@pytest.mark.parametrize("mutate, line", [
    (lambda d: d["pairs"][0].update(dilation="-1"),
     "scenario error: pairs[0]: declared dilation must be positive, got -1.0 at (-0.5, -0.5)"),
    (lambda d: d["pairs"][0].update(ambient_map=["x", "y", "z"]),
     "scenario error: pairs[0]: ambient map disagrees with target by 0.40824829046386296 "
     "at (-0.5, -0.5)"),
], ids=["dilation", "ambient_map"])
def test_load_time_pair_checks_name_the_pair(tmp_path, capsys, mutate, line):
    path = _demo_with(tmp_path, mutate)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_pushforward_on_a_bare_metric_pair_is_a_math_error(tmp_path, capsys):
    # the ambient map is checked before either member is walked
    path = _demo_with(tmp_path, lambda d: d.update(suites=[{"suite": "pushforward",
                                                            "pair": "flat_exp"}]))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err == ("math error in suite 'pushforward' (pair='flat_exp'): "
                                       "pair has no ambient map\n")


def test_negative_seed_is_a_scenario_error(tmp_path, capsys):
    path = _demo_with(tmp_path, lambda d: d["grids"].update(mode="random"))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "scenario error: --seed must be a non-negative integer\n"


def test_negative_seed_from_the_library_is_a_scenario_error_before_any_suite(tmp_path,
                                                                             monkeypatch):
    sc = cli.load_scenario(_demo_with(tmp_path, lambda d: d["grids"].update(mode="random")))
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    with pytest.raises(cli.ScenarioError, match="^--seed must be a non-negative integer$"):
        cli.run_scenario(sc, tmp_path / "r", "obj", [], None, None, -1)
    assert ran == [] and not (tmp_path / "r").exists()


@pytest.mark.parametrize("grid, tol, line", [
    (10 ** 7, None, "--grid: 100000000000000 grid points exceed the bound of 262144"),
    (0, None, "--grid must be a positive integer"),
    (-1, None, "--grid must be a positive integer"),
    (None, float("nan"), "--tol must be a finite positive number"),
    (None, 0.0, "--tol must be a finite positive number"),
    (None, -1.0, "--tol must be a finite positive number"),
], ids=["grid-huge", "grid-0", "grid-neg", "tol-nan", "tol-0", "tol-neg"])
def test_an_override_from_the_library_is_a_scenario_error_before_out(tmp_path, grid, tol,
                                                                     line):
    # run_scenario checks its own overrides, as main's flags are: an
    # oversized grid ended in numpy's memory error
    sc = cli.load_scenario(DEMO)
    with pytest.raises(cli.ScenarioError) as err:
        cli.run_scenario(sc, tmp_path / "r", "obj", ["forms"], grid, tol, 0)
    assert str(err.value) == line and not (tmp_path / "r").exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_file"])
def test_unusable_out_is_a_scenario_error_before_any_suite(identity_scenario, tmp_path, capsys,
                                                           under):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / under if under else taken
    assert main(["--scenario", str(identity_scenario), "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith(f"scenario error: --out: cannot make report directory '{out}'")
    assert printed.out == ""


@pytest.mark.parametrize("raw", [b"[" * 200_000, b"\xff\xfe{"], ids=["deep", "utf16"])
def test_undecodable_scenario_is_not_valid_json(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"scenario error: '{path}' is not valid JSON: ")


@pytest.mark.parametrize("mutate, line", [
    (lambda d: d["surfaces"][0].update(domain=[[-1e308, 1e308], [-1.5, 1.5]]),
     "scenario error: surfaces[0].domain: span of [-1e+308, 1e+308] overflows"),
    (lambda d: d["curves"][0].update(s_range=[-1e308, 1e308]),
     "scenario error: curves[0].s_range: span of [-1e+308, 1e+308] overflows"),
], ids=["domain", "s_range"])
def test_a_span_that_overflows_is_a_scenario_error(tmp_path, capsys, mutate, line):
    # finite ends with an infinite span would place non-finite grid points
    doc = copy.deepcopy(BASE_SCENARIO)
    mutate(doc)
    path = write_scenario(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("mutate, argv, line", [
    (lambda d: d["curves"][4].update(samples=10 ** 13), [],
     "curves[4].samples: 10000000000000 grid points exceed the bound of 262144"),
    (lambda d: None, ["--grid", "10000000", "--suite", "forms"],
     "--grid: 100000000000000 grid points exceed the bound of 262144"),
    (lambda d: d["grids"].update(surface=513), [],
     "grids.surface: 263169 grid points exceed the bound of 262144"),
    (lambda d: d["grids"].update(curve=262145), [],
     "grids.curve: 262145 grid points exceed the bound of 262144"),
], ids=["samples", "--grid", "surface", "curve"])
def test_an_oversized_grid_is_a_scenario_error(tmp_path, capsys, mutate, argv, line):
    # refused before any array is made: these grids ran out of memory
    path = _demo_with(tmp_path, mutate)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r"), *argv]) == 2
    assert capsys.readouterr().err == f"scenario error: {line}\n"
    assert not (tmp_path / "r").exists()


def test_grids_at_the_bound_load(tmp_path):
    sc = cli.load_scenario(_demo_with(tmp_path, lambda d: d["grids"].update(surface=512,
                                                                            curve=262144)))
    assert sc.grids["surface"] ** 2 == sc.grids["curve"] == cli.MAX_GRID_POINTS
