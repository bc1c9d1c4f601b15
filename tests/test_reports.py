"""Reports are written column by column and must keep the bytes of the row
writer they replaced: ``json.dumps(doc, indent=2, sort_keys=True)`` over
row lists, and CSV rows of ``_fmt`` cells joined by commas."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from confgeo import cli
from test_cli import BASE_SCENARIO, write_scenario

SEED, GRIDS = 7, {"surface": 4, "curve": 6, "mode": "uniform"}
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e300, 1.0]
TEXT = ['say "hi"', "naïve ζ-café", "tab\tback\\slash", "", "plain"]


def _rows(res):
    return [list(row) for row in zip(*(c.tolist() for c in res.columns.values()))]


def _row_json(sc, res) -> str:
    doc = {
        "digest": {"scenario": sc.path.name, "sha256": sc.digest, "seed": SEED, "grids": GRIDS},
        "suite": res.suite,
        "params": res.params,
        "tolerance": res.tolerance,
        "max_residual": res.max_residual,
        "pass": res.pass_,
        "wall_ms": res.wall_ms,
        "columns": list(res.columns),
        "rows": _rows(res),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _row_csv(res) -> str:
    lines = [",".join(res.columns)]
    lines += [",".join(cli._fmt(x) for x in row) for row in _rows(res)]
    return "\n".join(lines) + "\n"


def _assert_same_bytes(res, tmp_path):
    """Both formats of ``res`` against the row writer's text, written the way
    it wrote it."""
    sc = cli.Scenario(path=Path("cells.json"), digest="d" * 64)
    for fmt, want in (("obj", _row_json(sc, res)), ("table", _row_csv(res))):
        (path,) = cli.write_reports(sc, [res], tmp_path / fmt, fmt, SEED, GRIDS)
        ref = tmp_path / f"want.{fmt}"
        ref.write_text(want)
        assert path.read_bytes() == ref.read_bytes(), fmt


def _kinds(n: int) -> dict:
    """A column of each cell kind, n rows."""
    rng = np.random.default_rng(n)
    plain = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = np.resize(np.array(SPECIAL), n)
    boxed = np.array([None if i % 3 == 2 else np.float64(x)
                      for i, x in enumerate(np.where(np.arange(n) % 2, plain, special))],
                     dtype=object)
    text = np.array([TEXT[i % len(TEXT)] for i in range(n)], dtype=object)
    return {"plain": plain, "special": special, "boxed": boxed, "text": text,
            "undefined": np.full(n, None)}


@pytest.mark.parametrize("n", [1, 5, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1,
                               2 * cli.CHUNK_ROWS + 3])
def test_writer_keeps_the_bytes_cell_kind_by_cell_kind(n, tmp_path):
    res = cli.SuiteResult("forms", {"surface": "s"}, 1e-9, _kinds(n), math.nan, False,
                          wall_ms=1.25)
    assert type(res.columns["boxed"][0]) is np.float64
    _assert_same_bytes(res, tmp_path)


def test_writer_keeps_the_bytes_of_classify_one_row(tmp_path):
    row = ["normal", "normal+osculating", np.float64(2.5e-17), 0.75, 1.0, math.nan]
    names = ["verdict", "satisfied", "c_t_max", "c_n_max", "c_b_max", "max_offending"]
    cols = {c: np.array([x], dtype=object) for c, x in zip(names, row)}
    res = cli.SuiteResult("classify", {"surface": "s", "curve": "c", "expect": "normal"},
                          1e-8, cols, math.nan, True)
    _assert_same_bytes(res, tmp_path)


def test_writer_keeps_the_bytes_when_params_hold_a_rows_key(tmp_path):
    # params sorts before the report's own "rows"
    params = {"surface": "s", "rows": [], "nested": {"rows": [1.5, None]}, "note": 'ü "q"'}
    res = cli.SuiteResult("forms", params, 1e-9, _kinds(3), 0.5, True)
    _assert_same_bytes(res, tmp_path)


def test_scenario_key_named_rows_stays_in_params(tmp_path):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["suites"] = [{"suite": "forms", "surface": "plane", "rows": []},
                     {"suite": "frenet", "surface": "plane", "curve": "circle", "rows": []}]
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "r"
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == 0
    for report, n in ((out / "scn.forms.json", 16), (out / "scn.frenet.json", 6)):
        text = report.read_text()
        got = json.loads(text)
        assert got["params"]["rows"] == [] and len(got["rows"]) == n
        assert json.dumps(got, indent=2, sort_keys=True) + "\n" == text


def test_every_report_is_json_layout_byte_for_byte(tmp_path):
    path = write_scenario(tmp_path, BASE_SCENARIO)
    out = tmp_path / "r"
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == 0
    reports = sorted(out.glob("*.json"))
    assert len(reports) == len(BASE_SCENARIO["suites"])
    for report in reports:
        text = report.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


# -- the worst residual ----------------------------------------------------------


def test_worst_skips_undefined_cells_but_not_nan():
    names = ["a", "b"]
    a = np.array([0.1, 0.2, 0.3])
    b = np.array([None, 0.5, None], dtype=object)
    assert cli._worst({"a": a, "b": b}, names) == (0.5, ("b", 1))
    assert cli._worst({"a": a, "b": np.full(3, None)}, ["b"]) == (0.0, None)
    worst, at = cli._worst({"a": a, "b": np.array([None, math.nan, 9.0], dtype=object)},
                           names)
    assert math.isnan(worst) and at == ("b", 1)
    # the first NaN in grid order names the point
    worst, at = cli._worst({"a": np.array([0.1, math.nan, math.nan]),
                            "b": np.array([math.nan, 0.0, 1.0])}, names)
    assert math.isnan(worst) and at == ("b", 0)
