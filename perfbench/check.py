"""Correctness gate of the confgeo benchmark.

Reads the report files of one pass and decides, suite by suite, whether the
program's output is right.  It does not trust the report's own ``pass``
field or its ``max_residual``: the worst residual is recomputed from the
rows, and every cell must be of its column's kind in the reference (a
string, a finite number, or ``null`` for a quantity that is undefined
throughout, such as torsion from order-2 jets).  A NaN or an infinity
therefore fails the suite and can never hide behind a larger finite
residual.

At the default seed the reports are also compared with a reference
captured from the seed commit: verdicts, row counts, and the numeric
columns, within ``VALUE_TOL`` scaled by ``max(1, |reference|)``.  The
comparison covers each column's maximum and mean over all rows and every
value of a fixed sample of rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

VALUE_TOL = 1e-13
SAMPLE_ROWS = 16

RESIDUAL_COLUMNS = {
    "forms": ("r_uu_u", "r_uu_v", "r_uv_u", "r_uv_v", "r_vv_u", "r_vv_v", "r_lagrange"),
    "frenet": ("r_unit", "r_tn", "r_tb", "r_nb", "r_btxn"),
    "christoffel-shift": ("r111", "r112", "r121", "r122", "r221", "r222"),
    "bracket-shift": ("residual",),
    "tangential": ("r_u", "r_v", "r_T"),
    "pushforward": ("r_u", "r_v"),
}

# Finite-difference oracle columns: the central difference divides the
# metric by 2h = 2e-5, so a last-bit change in the jets it differences moves
# these residuals by ~1e-11.  They are held to the suite tolerance only.
FD_COLUMNS = {"forms": ("r_uu_u", "r_uu_v", "r_uv_u", "r_uv_v", "r_vv_u", "r_vv_v")}

_WALL_LINE = re.compile(rb'^  "wall_ms": [^\n]*\n', re.MULTILINE)


def report_tag(path: Path, stem: str) -> str:
    return path.name[len(stem) + 1:-len(".json")]


def load_reports(out_dir: Path, stem: str) -> dict[str, dict]:
    return {report_tag(p, stem): json.loads(p.read_bytes())
            for p in sorted(out_dir.glob(f"{stem}.*.json"))}


def digest(out_dir: Path) -> str:
    """Hash of every report in the directory with its ``wall_ms`` line
    removed: equal digests mean byte-identical reports apart from timing."""
    h = hashlib.sha256()
    for p in sorted(out_dir.glob("*.json")):
        h.update(p.name.encode() + b"\0" + _WALL_LINE.sub(b"", p.read_bytes()) + b"\0")
    return h.hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _row_residual(suite: str, params: dict, col: dict, row: list) -> float:
    if suite == "theorem3":
        return min(row[col["r_as_printed"]], row[col["r_zeta4_on_h"]])
    if suite == "geodesic-deviation":
        return row[col["r_" + params["pinned_pairing"].replace("/", "_")]]
    return max(row[col[name]] for name in RESIDUAL_COLUMNS[suite])


def verdict(doc: dict) -> tuple[bool, float]:
    """Recomputed (pass, worst residual) of one report whose cells all have
    their reference column's kind."""
    suite, params, rows = doc["suite"], doc["params"], doc["rows"]
    if suite == "classify":
        (row,) = rows
        expect = params.get("expect")
        ok = row[0] == expect if expect else row[0] != "undefined"
        return ok, row[5]
    col = {name: i for i, name in enumerate(doc["columns"])}
    worst = max((_row_residual(suite, params, col, row) for row in rows), default=0.0)
    return worst < doc["tolerance"], worst


def kind(x) -> str:
    """Cell kind: "str", "null" (an undefined quantity, such as the torsion
    of a curve with order-2 jets only) or "num"; "bad" for anything else,
    NaN and infinities included."""
    if isinstance(x, str):
        return "str"
    if x is None:
        return "null"
    return "num" if _finite(x) else "bad"


def column_kinds(doc: dict) -> list[str]:
    """Kind shared by every cell of each column; "mixed" if they differ."""
    kinds = []
    for i in range(len(doc["columns"])):
        seen = {kind(row[i]) for row in doc["rows"]}
        kinds.append(seen.pop() if len(seen) == 1 else "mixed")
    return kinds


def _compared_columns(doc: dict, kinds: list[str]) -> list[int]:
    skip = set(FD_COLUMNS.get(doc["suite"], ()))
    return [i for i, name in enumerate(doc["columns"]) if kinds[i] == "num" and name not in skip]


def sample_index(n: int) -> list[int]:
    return sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)}) if n else []


def summarize(doc: dict) -> dict:
    """Reference entry of one report: its identity, verdict, row count,
    column maxima and means, and a fixed sample of rows."""
    rows = doc["rows"]
    kinds = column_kinds(doc)
    stats = {}
    for i in _compared_columns(doc, kinds):
        vals = [row[i] for row in rows]
        stats[doc["columns"][i]] = {"max": max(vals), "mean": math.fsum(vals) / len(vals)}
    idx = sample_index(len(rows))
    return {"suite": doc["suite"], "params": doc["params"], "tolerance": doc["tolerance"],
            "columns": doc["columns"], "kinds": kinds, "rows": len(rows), "pass": doc["pass"],
            "stats": stats, "sample_index": idx, "sample_rows": [rows[i] for i in idx]}


def _close(a, b) -> bool:
    if kind(a) != "num" or kind(b) != "num":
        return a == b
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(b))


def _compare_values(doc: dict, ref: dict) -> str | None:
    rows = doc["rows"]
    for i in _compared_columns(doc, ref["kinds"]):
        name = doc["columns"][i]
        vals = [row[i] for row in rows]
        got = {"max": max(vals), "mean": math.fsum(vals) / len(vals)}
        for key, want in ref["stats"][name].items():
            if not _close(got[key], want):
                return f"column {name} {key} {got[key]!r} != reference {want!r}"
    skip = set(FD_COLUMNS.get(doc["suite"], ()))
    for k, want_row in zip(ref["sample_index"], ref["sample_rows"]):
        for name, got, want in zip(doc["columns"], rows[k], want_row):
            if name not in skip and not _close(got, want):
                return f"row {k} column {name} {got!r} != reference {want!r}"
    return None


def check_report(doc: dict, ref: dict, compare_values: bool) -> str | None:
    """Reason the report is wrong, or None when it is right."""
    for key in ("suite", "params", "tolerance", "columns"):
        if doc.get(key) != ref[key]:
            return f"{key} {doc.get(key)!r} != reference {ref[key]!r}"
    rows = doc["rows"]
    if len(rows) != ref["rows"]:
        return f"{len(rows)} rows, reference has {ref['rows']}"
    for k, row in enumerate(rows):
        if len(row) != len(doc["columns"]):
            return f"row {k} has {len(row)} cells for {len(doc['columns'])} columns"
        for name, want, x in zip(doc["columns"], ref["kinds"], row):
            if kind(x) != want:
                return f"row {k} column {name} is {x!r}, expected {want}"
    ok, worst = verdict(doc)
    if doc["max_residual"] != worst:
        return f"report max_residual {doc['max_residual']!r} != recomputed {worst!r}"
    if doc["pass"] is not ok:
        return f"report pass={doc['pass']} but recomputed verdict is {ok}"
    if ok is not ref["pass"]:
        return f"verdict {ok} (worst {worst!r}) != reference {ref['pass']}"
    if compare_values:
        return _compare_values(doc, ref)
    return None


def check_pass(out_dir: Path, stem: str, reference: dict, compare_values: bool) -> dict[str, str]:
    """Failures of one pass, as {report tag: reason}; empty when all is right."""
    expected = reference["suites"]
    try:
        docs = load_reports(out_dir, stem)
    except (OSError, ValueError) as err:
        return {tag: f"unreadable reports: {err}" for tag in expected}
    extra = sorted(set(docs) - set(expected))
    if extra:
        return {tag: f"unexpected reports {extra}" for tag in expected}
    failures = {tag: "report missing" for tag in expected if tag not in docs}
    for tag, doc in docs.items():
        try:
            reason = check_report(doc, expected[tag], compare_values)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            reason = f"malformed report: {type(err).__name__}: {err}"
        if reason:
            failures[tag] = reason
    return failures
