"""Reports are written column by column and must keep the bytes of the row
writer they replaced: ``json.dumps(doc, indent=2, sort_keys=True)`` over
row lists, and CSV rows of ``_fmt`` cells joined by commas.  One
``write_reports`` call formats each distinct double once for all its
reports, so several reports are also written in one call."""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _assert_same_bytes(res, tmp_path, *more):
    """Both formats of ``res`` and ``more``, written by one ``write_reports``
    call, each against the row writer's text, written the way it wrote it."""
    sc = cli.Scenario(path=Path("cells.json"), digest="d" * 64)
    results = [res, *more]
    for fmt in ("obj", "table"):
        paths = cli.write_reports(sc, results, tmp_path / fmt, fmt, SEED, GRIDS)
        assert len(paths) == len(results)
        for i, (r, path) in enumerate(zip(results, paths)):
            ref = tmp_path / f"want{i}.{fmt}"
            ref.write_text(_row_json(sc, r) if fmt == "obj" else _row_csv(r))
            assert path.read_bytes() == ref.read_bytes(), (fmt, i)


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
    res = cli.SuiteResult("forms", {"surface": "s"}, 1e-9, _kinds(n), math.nan, False, None)
    res.wall_ms = 1.25
    assert type(res.columns["boxed"][0]) is np.float64
    _assert_same_bytes(res, tmp_path)


def test_writer_keeps_the_bytes_of_classify_one_row(tmp_path):
    row = ["normal", "normal+osculating", np.float64(2.5e-17), 0.75, 1.0, math.nan]
    names = ["verdict", "satisfied", "c_t_max", "c_n_max", "c_b_max", "max_offending"]
    cols = {c: np.array([x], dtype=object) for c, x in zip(names, row)}
    res = cli.SuiteResult("classify", {"surface": "s", "curve": "c", "expect": "normal"},
                          1e-8, cols, math.nan, True, None)
    _assert_same_bytes(res, tmp_path)


def test_writer_keeps_the_bytes_when_params_hold_a_rows_key(tmp_path):
    # params sorts before the report's own "rows"
    params = {"surface": "s", "rows": [], "nested": {"rows": [1.5, None]}, "note": 'ü "q"'}
    res = cli.SuiteResult("forms", params, 1e-9, _kinds(3), 0.5, True, None)
    _assert_same_bytes(res, tmp_path)


# -- one write_reports call over several reports ------------------------------------


def _report(columns: dict, suite: str = "forms") -> cli.SuiteResult:
    res = cli.SuiteResult(suite, {"surface": "s"}, 1e-9, columns, 0.5, True, None)
    res.wall_ms = 2.0
    return res


def _from_bits(*bits: int) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


NANS = _from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                  0x7FF8DEAD00000000, 0xFFF0000000000123)


def test_writer_shares_one_array_between_reports(tmp_path):
    shared = np.array([0.1, -0.0, 0.0, 1e300, 0.1])
    other = np.array([0.0, 0.1, 2.5, -0.0, 3.0])
    _assert_same_bytes(_report({"u": shared, "a": other}), tmp_path,
                       _report({"u": shared, "b": shared[::-1]}, "pushforward"),
                       _report({"v": other, "u": shared}))


def test_writer_keeps_a_value_apart_from_its_column(tmp_path):
    x = np.array([0.1, 1 / 3, 2.0, 1 / 3])
    cols = {"a": x, "b": x.copy(), "c": x[::-1].copy(), "d": np.array([1 / 3] * 4)}
    _assert_same_bytes(_report(cols), tmp_path, _report({"e": x + 0.0, "f": 2.0 * x}))


def test_writer_keeps_signed_zeros_nans_and_extremes_apart(tmp_path):
    zeros = np.array([0.0, -0.0, -0.0, 0.0, 0.0])
    assert zeros.view(np.uint64)[1] != zeros.view(np.uint64)[0]
    extremes = np.array([5e-324, math.inf, -math.inf, -5e-324, math.inf])
    assert len(set(NANS.view(np.uint64).tolist())) == len(NANS)
    _assert_same_bytes(_report({"z": zeros, "nan": NANS, "x": extremes}), tmp_path,
                       _report({"nan": NANS[::-1].copy(), "z": -zeros}))


def test_writer_mixes_reports_with_and_without_float_columns(tmp_path):
    words = np.array(['say "hi"', None, "ζ"], dtype=object)
    boxed = np.array([np.float64(0.1), None, math.nan], dtype=object)
    floats = _report({"u": np.array([0.1, -0.0, 7.0]), "r": np.array([0.0, 0.0, 1e-17])})
    objects = _report({"w": words, "b": boxed}, "classify")
    _assert_same_bytes(floats, tmp_path, objects, floats)


def test_writer_with_no_float_column_in_any_report(tmp_path):
    words = np.array(["normal", "", None], dtype=object)
    _assert_same_bytes(_report({"w": words}, "classify"), tmp_path,
                       _report({"w": words[::-1].copy(), "n": np.full(3, None)}, "classify"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
       shift=st.integers(0, 39))
def test_writer_keeps_the_bytes_of_any_bit_patterns(bits, shift):
    x = _from_bits(*bits)
    y = np.roll(x, shift)
    with tempfile.TemporaryDirectory() as tmp:
        _assert_same_bytes(_report({"a": x, "b": y}), Path(tmp),
                           _report({"b": y, "c": np.negative(x)}, "pushforward"))


def test_scenario_key_named_rows_stays_in_params(tmp_path):
    # a scenario file may not hold the key (the load refuses a key no suite
    # reads), but an entry made through the library may
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["suites"] = [{"suite": "forms", "surface": "plane"},
                     {"suite": "frenet", "surface": "plane", "curve": "circle"}]
    sc = cli.load_scenario(write_scenario(tmp_path, doc))
    for entry in sc.suites:
        entry["rows"] = []
    out = tmp_path / "r"
    assert cli.run_scenario(sc, out, "obj", [], None, None, 0) == 0
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
    # an empty report has no worst cell, with float columns or object ones
    assert cli._worst({"a": a[:0], "b": a[:0]}, names) == (0.0, None)
    assert cli._worst({"a": a[:0], "b": b[:0]}, names) == (0.0, None)
    worst, at = cli._worst({"a": a, "b": np.array([None, math.nan, 9.0], dtype=object)},
                           names)
    assert math.isnan(worst) and at == ("b", 1)
    # the first NaN in grid order names the point
    worst, at = cli._worst({"a": np.array([0.1, math.nan, math.nan]),
                            "b": np.array([math.nan, 0.0, 1.0])}, names)
    assert math.isnan(worst) and at == ("b", 0)
