"""Scenario-driven verification front end.

A scenario is one JSON document declaring surfaces, curves, conformal
pairs, normal-curve profiles and the suites to run over them.  Reports are
written one file per suite as ``<scenario-stem>.<suite>.json`` (object
format) or ``.csv`` (flat table), and are byte-identical across runs apart
from the wall-clock field in the JSON form.

Exit codes: 0 all suites passed; 1 at least one suite failed; 2 scenario
parse/validation error; 3 runtime math error (the message names the
scenario element and the point).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import calculus, conformal, geometry, normalcurve
from .exprkit import ExprError, parse_scalar_field

SUITE_NAMES = (
    "forms", "frenet", "christoffel-shift", "bracket-shift",
    "geodesic-deviation", "theorem3", "tangential", "classify", "pushforward",
)

DEFAULT_TOLERANCES = {
    "forms": 1e-9,
    "frenet": 1e-9,
    "christoffel-shift": 1e-7,
    "bracket-shift": 1e-8,
    "geodesic-deviation": 1e-6,
    "theorem3": 1e-8,
    "tangential": 1e-6,
    "classify": 1e-8,
    "pushforward": 1e-8,
    "conformality": 1e-8,
}

MATH_ERRORS = (ExprError, geometry.GeometryError, calculus.CalculusError,
               conformal.ConformalError)


class ScenarioError(Exception):
    """Invalid scenario content; the message names the offending key."""


# ---------------------------------------------------------------------------
# Scenario loading


@dataclass
class Scenario:
    path: Path
    digest: str
    surfaces: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    curve_ranges: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)


def _need(entry: dict, key: str, where: str):
    if not isinstance(entry, dict):
        raise ScenarioError(f"{where}: expected an object, got {entry!r}")
    if key not in entry:
        raise ScenarioError(f"{where}: missing key '{key}'")
    return entry[key]


def _name(entry: dict, key: str, where: str) -> str:
    name = _need(entry, key, where)
    if not isinstance(name, str):
        raise ScenarioError(f"{where}.{key}: expected a name string, got {name!r}")
    return name


def _finite(raw, where: str) -> float:
    """A JSON number that is finite, as a float."""
    try:
        if not isinstance(raw, bool) and math.isfinite(raw):
            return float(raw)
    except (TypeError, OverflowError):
        pass
    raise ScenarioError(f"{where}: expected a finite number, got {raw!r}")


def _range(entry: dict, key: str, where: str) -> tuple[float, float]:
    raw = _need(entry, key, where)
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ScenarioError(f"{where}.{key}: expected [lo, hi], got {raw!r}")
    return _finite(raw[0], f"{where}.{key}[0]"), _finite(raw[1], f"{where}.{key}[1]")


def _parse_field(text, variables, where: str):
    if not isinstance(text, str):
        raise ScenarioError(f"{where}: expected an expression string, got {text!r}")
    try:
        return parse_scalar_field(text, variables)
    except ExprError as err:
        raise ScenarioError(f"{where}: {err}") from None


def _box(raw, where: str):
    try:
        (u0, u1), (v0, v1) = raw
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: domain must be [[u0,u1],[v0,v1]]") from None
    box = tuple((_finite(lo, f"{where}.domain"), _finite(hi, f"{where}.domain"))
                for lo, hi in ((u0, u1), (v0, v1)))
    if not (box[0][0] < box[0][1] and box[1][0] < box[1][1]):
        raise ScenarioError(f"{where}: degenerate domain box {box}")
    return box


def load_scenario(path: Path) -> Scenario:
    try:
        raw_bytes = path.read_bytes()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file '{path}': {err}") from None
    try:
        doc = json.loads(raw_bytes)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"'{path}' is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"'{path}': top level must be an object")

    sc = Scenario(path=path, digest=hashlib.sha256(raw_bytes).hexdigest())

    def fresh_name(entry: dict, where: str, pool: dict) -> str:
        name = _name(entry, "name", where)
        if name in pool:
            raise ScenarioError(f"{where}.name: duplicate name '{name}'")
        return name

    for i, entry in enumerate(doc.get("surfaces", [])):
        where = f"surfaces[{i}]"
        name = fresh_name(entry, where, sc.surfaces)
        kind = entry.get("kind", "patch")
        box = _box(_need(entry, "domain", where), where)
        if kind == "patch":
            sc.surfaces[name] = geometry.SurfacePatch(
                *(_parse_field(_need(entry, k, where), ("u", "v"), f"{where}.{k}")
                  for k in ("x", "y", "z")), box)
        elif kind == "metric":
            sc.surfaces[name] = geometry.AbstractMetric(
                *(_parse_field(_need(entry, k, where), ("u", "v"), f"{where}.{k}")
                  for k in ("E", "F", "G")), box)
        else:
            raise ScenarioError(f"{where}.kind: expected 'patch' or 'metric', got '{kind}'")

    for i, entry in enumerate(doc.get("curves", [])):
        where = f"curves[{i}]"
        name = fresh_name(entry, where, sc.curves)
        if entry.get("reparameterize", False):
            sname = _name(entry, "surface", where)
            if sname not in sc.surfaces:
                raise ScenarioError(f"{where}.surface: unknown surface '{sname}'")
            patch = sc.surfaces[sname]
            if not isinstance(patch, geometry.SurfacePatch):
                raise ScenarioError(f"{where}.surface: reparameterization needs a patch")
            t0, t1 = _range(entry, "t_range", where)
            u_raw = _parse_field(_need(entry, "u", where), ("t",), f"{where}.u")
            v_raw = _parse_field(_need(entry, "v", where), ("t",), f"{where}.v")
            try:
                curve = calculus.reparameterize_arclength(
                    patch, (u_raw, v_raw), t0, t1, int(entry.get("samples", 32)))
            except (calculus.CalculusError, ValueError) as err:
                raise ScenarioError(f"{where}: {err}") from None
            sc.curves[name] = curve
            sc.curve_ranges[name] = (0.0, curve.length)
        else:
            u = _parse_field(_need(entry, "u", where), ("s",), f"{where}.u")
            v = _parse_field(_need(entry, "v", where), ("s",), f"{where}.v")
            sc.curves[name] = geometry.ParamCurve(u, v)
            sc.curve_ranges[name] = _range(entry, "s_range", where)

    sc.tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in doc.get("tolerances", {}).items():
        if key not in SUITE_NAMES and key != "conformality":
            raise ScenarioError(f"tolerances.{key}: unknown suite name")
        val = _finite(val, f"tolerances.{key}")
        if val <= 0.0:
            raise ScenarioError(f"tolerances.{key}: tolerance must be positive, got {val}")
        sc.tolerances[key] = val

    for i, entry in enumerate(doc.get("pairs", [])):
        where = f"pairs[{i}]"
        name = fresh_name(entry, where, sc.pairs)
        members = []
        for key in ("source", "target"):
            sname = _name(entry, key, where)
            if sname not in sc.surfaces:
                raise ScenarioError(f"{where}.{key}: unknown surface '{sname}'")
            members.append(sc.surfaces[sname])
        dilation = None
        if "dilation" in entry:
            dilation = _parse_field(entry["dilation"], ("u", "v"), f"{where}.dilation")
        ambient = None
        if "ambient_map" in entry:
            comps = entry["ambient_map"]
            if not (isinstance(comps, list) and len(comps) == 3):
                raise ScenarioError(f"{where}.ambient_map: expected three expressions")
            ambient = tuple(_parse_field(c, ("x", "y", "z"), f"{where}.ambient_map[{j}]")
                            for j, c in enumerate(comps))
        try:
            sc.pairs[name] = conformal.ConformalPair(
                members[0], members[1], dilation=dilation, ambient_map=ambient,
                conformality_tol=sc.tolerances["conformality"])
        except (ValueError, conformal.ConformalError, geometry.GeometryError, ExprError) as err:
            raise ScenarioError(f"{where}: {err}") from None

    for i, entry in enumerate(doc.get("profiles", [])):
        where = f"profiles[{i}]"
        name = fresh_name(entry, where, sc.profiles)
        sc.profiles[name] = (
            _parse_field(_need(entry, "nu", where), ("s",), f"{where}.nu"),
            _parse_field(_need(entry, "eta", where), ("s",), f"{where}.eta"),
        )

    suites = doc.get("suites", [])
    if not suites:
        raise ScenarioError("suites: scenario declares no suites")
    for i, entry in enumerate(suites):
        where = f"suites[{i}]"
        sname = _need(entry, "suite", where)
        if sname not in SUITE_NAMES:
            raise ScenarioError(f"{where}.suite: unknown suite '{sname}'")
        for key, pool in (("surface", sc.surfaces), ("curve", sc.curves),
                          ("pair", sc.pairs), ("profile", sc.profiles)):
            if key in entry and _name(entry, key, where) not in pool:
                raise ScenarioError(f"{where}.{key}: unknown {key} '{entry[key]}'")
        needs = _SUITE_NEEDS[sname]
        for key in needs:
            if key not in entry:
                raise ScenarioError(f"{where}: suite '{sname}' needs key '{key}'")
        sc.suites.append(dict(entry))

    sc.grids = {"surface": 8, "curve": 10, "mode": "uniform"}
    for key, val in doc.get("grids", {}).items():
        if key not in sc.grids:
            raise ScenarioError(f"grids.{key}: unknown grid key")
        if key != "mode" and not (type(val) is int and val >= 1):
            raise ScenarioError(f"grids.{key}: expected a positive integer, got {val!r}")
        sc.grids[key] = val
    if sc.grids["mode"] not in ("uniform", "random"):
        raise ScenarioError(f"grids.mode: expected 'uniform' or 'random', got '{sc.grids['mode']}'")
    return sc


_SUITE_NEEDS = {
    "forms": ("surface",),
    "frenet": ("surface", "curve"),
    "christoffel-shift": ("pair",),
    "bracket-shift": ("pair", "curve"),
    "geodesic-deviation": ("pair", "curve"),
    "theorem3": ("pair", "curve", "profile"),
    "tangential": ("pair", "curve", "profile"),
    "classify": ("surface", "curve"),
    "pushforward": ("pair",),
}


# ---------------------------------------------------------------------------
# Grids


def _axis(lo: float, hi: float, n: int, rng) -> np.ndarray:
    span = hi - lo
    if rng is not None:
        return np.sort(rng.uniform(lo + 0.05 * span, hi - 0.05 * span, n))
    return np.linspace(lo + 0.05 * span, hi - 0.05 * span, n)


def surface_grid(domain, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The n*n grid points as two arrays ``us, vs``: uniform points in
    u-major order, or uniform random draws."""
    (u0, u1), (v0, v1) = domain
    if rng is not None:
        us = rng.uniform(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0), n * n)
        vs = rng.uniform(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0), n * n)
        return us, vs
    return np.repeat(_axis(u0, u1, n, None), n), np.tile(_axis(v0, v1, n, None), n)


def curve_grid(s_range, n: int, rng) -> np.ndarray:
    """The n points of an s-grid: uniform, or sorted uniform random draws."""
    lo, hi = s_range
    return _axis(lo, hi, n, rng)


# ---------------------------------------------------------------------------
# Suites


@dataclass
class SuiteResult:
    suite: str
    params: dict
    tolerance: float
    columns: list[str]
    rows: list[list]
    max_residual: float
    pass_: bool
    wall_ms: float = 0.0


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _max_over(rows, cols, names) -> float:
    """Worst residual over the named columns.  A NaN anywhere makes it NaN,
    which fails the suite (Python's ``max`` could pass over it)."""
    idx = [cols.index(c) for c in names]
    vals = [row[i] for row in rows for i in idx if row[i] is not None]
    return float(np.max(vals)) if vals else 0.0


def _table(*columns) -> list[list]:
    """Report rows of Python floats from per-point arrays (or (n, k) blocks).
    A None column, or None in an object array, is an undefined cell."""
    n = len(columns[0])
    return np.column_stack([np.full(n, None) if c is None else c for c in columns]).tolist()


def run_suite(sc: Scenario, entry: dict, grids: dict, tolerances: dict, rng) -> SuiteResult:
    name = entry["suite"]
    tol = tolerances[name]
    params = {k: v for k, v in entry.items() if k != "suite"}

    if name == "forms":
        surf = sc.surfaces[entry["surface"]]
        if not isinstance(surf, geometry.SurfacePatch):
            raise ScenarioError(f"suite 'forms' needs a patch, '{entry['surface']}' is a metric")
        cols = ["u", "v", "E", "F", "G", "W",
                "r_uu_u", "r_uu_v", "r_uv_u", "r_uv_v", "r_vv_u", "r_vv_v", "r_lagrange"]
        us, vs = surface_grid(surf.domain, grids["surface"], rng)
        # one patch-jet evaluation at the grid feeds the forms, the Lagrange
        # column and the oracle's left sides; the oracle adds four shifted ones
        pj = surf.jets(us, vs)
        m = geometry.first_fundamental(surf, us, vs, pj=pj)
        cr = geometry.cross(pj.pu, pj.pv)
        disc = m.E * m.G - m.F * m.F
        lagrange = abs(geometry.dot(cr, cr) - disc) / np.maximum(1.0, abs(disc))
        fd = geometry.metric_derivative_identities(surf, us, vs, pj=pj)
        rows = _table(us, vs, m.E, m.F, m.G, m.W, fd, lagrange)
        worst = _max_over(rows, cols, cols[6:])

    elif name == "frenet":
        surf, curve = sc.surfaces[entry["surface"]], sc.curves[entry["curve"]]
        cols = ["s", "kappa", "tau", "r_unit", "r_tn", "r_tb", "r_nb", "r_btxn"]
        ss = curve_grid(sc.curve_ranges[entry["curve"]], grids["curve"], rng)
        fr = geometry.frenet(surf, curve, ss)
        # n, b and tau are NaN where kappa <= floor: those cells are undefined
        undefined = fr.kappa <= geometry.CURVATURE_FLOOR

        def where_defined(x):
            return np.where(undefined, None, x)

        rows = _table(ss, fr.kappa, None if fr.tau is None else where_defined(fr.tau),
                      abs(geometry.norm(fr.t) - 1.0),
                      *(where_defined(x) for x in (
                          abs(geometry.dot(fr.t, fr.n)), abs(geometry.dot(fr.t, fr.b)),
                          abs(geometry.dot(fr.n, fr.b)),
                          geometry.norm(fr.b - geometry.cross(fr.t, fr.n)))))
        worst = _max_over(rows, cols, cols[3:])

    elif name == "christoffel-shift":
        pair = sc.pairs[entry["pair"]]
        cols = ["u", "v", "zeta", "r111", "r112", "r121", "r122", "r221", "r222"]
        us, vs = surface_grid(pair.source.domain, grids["surface"], rng)
        forms = pair.forms(us, vs)
        zeta, _ = conformal.dilation_field(pair, us, vs, forms=forms)
        rows = _table(us, vs, zeta,
                      *conformal.christoffel_shift_residual(pair, us, vs, forms=forms))
        worst = _max_over(rows, cols, cols[3:])

    elif name == "bracket-shift":
        pair, curve = sc.pairs[entry["pair"]], sc.curves[entry["curve"]]
        cols = ["s", "b_src", "b_tgt", "theta_bracket", "residual"]
        ss = curve_grid(sc.curve_ranges[entry["curve"]], grids["curve"], rng)
        bs = conformal.beltrami_bracket_shift(pair, curve, ss)
        rows = _table(ss, bs.b_src, bs.b_tgt, bs.theta_bracket, bs.residual)
        worst = _max_over(rows, cols, ["residual"])

    elif name == "geodesic-deviation":
        pair, curve = sc.pairs[entry["pair"]], sc.curves[entry["curve"]]
        cols = ["s", "zeta", "f", "h", "kg_src_W1", "kg_src_W2", "kg_tgt_W1", "kg_tgt_W2",
                "r_W1_W1", "r_W1_W2", "r_W2_W1", "r_W2_W2", "oracle_kg"]
        ss = curve_grid(sc.curve_ranges[entry["curve"]], grids["curve"], rng)
        rep = conformal.geodesic_deviation_report(pair, curve, ss, tol=tol)
        oracle = (conformal.image_geodesic_curvature(pair, curve, ss)
                  if pair.embedded else None)
        rows = _table(ss, rep.zeta, rep.f, rep.h,
                      rep.kappa_g_src["W1"], rep.kappa_g_src["W2"],
                      rep.kappa_g_tgt["W1"], rep.kappa_g_tgt["W2"],
                      *(rep.i20_residuals[k] for k in conformal.PAIRINGS), oracle)
        pinned = _pin_pairing(rep, oracle)
        params["pinned_pairing"] = pinned
        key = "r_" + pinned.replace("/", "_")
        worst = _max_over(rows, cols, [key])

    elif name == "theorem3":
        pair, curve = sc.pairs[entry["pair"]], sc.curves[entry["curve"]]
        nu, eta = sc.profiles[entry["profile"]]
        cols = ["s", "zeta", "h", "lhs", "r_as_printed", "r_zeta4_on_h", "r_best"]
        ss = curve_grid(sc.curve_ranges[entry["curve"]], grids["curve"], rng)
        rep = normalcurve.theorem3_report(pair, curve, nu, eta, ss)
        rows = _table(ss, rep["zeta"], rep["h"], rep["lhs"], rep["as_printed"],
                      rep["zeta4_on_h"], np.minimum(rep["as_printed"], rep["zeta4_on_h"]))
        worst = _max_over(rows, cols, ["r_best"])

    elif name == "tangential":
        pair, curve = sc.pairs[entry["pair"]], sc.curves[entry["curve"]]
        nu, eta = sc.profiles[entry["profile"]]
        cols = ["s", "zeta", "g1", "g2", "r_u", "r_v", "r_T"]
        ss = curve_grid(sc.curve_ranges[entry["curve"]], grids["curve"], rng)
        rep = normalcurve.tangential_report(pair, curve, nu, eta, ss)
        rows = _table(ss, *(rep[k] for k in ("zeta", "g1", "g2", "r_u", "r_v", "r_T")))
        worst = _max_over(rows, cols, ["r_u", "r_v", "r_T"])

    elif name == "classify":
        surf, curve = sc.surfaces[entry["surface"]], sc.curves[entry["curve"]]
        grid = curve_grid(sc.curve_ranges[entry["curve"]],
                          max(grids["curve"], 64), rng)
        verdict = normalcurve.classify_curve(surf, curve, grid, tol=tol)
        cols = ["verdict", "satisfied", "c_t_max", "c_n_max", "c_b_max", "max_offending"]
        rows = [[verdict.verdict, "+".join(verdict.satisfied),
                 verdict.component_maxima["c_t"], verdict.component_maxima["c_n"],
                 verdict.component_maxima["c_b"], verdict.max_offending]]
        expect = entry.get("expect")
        ok = (verdict.verdict == expect) if expect else (verdict.verdict != "undefined")
        result = SuiteResult(name, params, tol, cols, rows,
                             max_residual=verdict.max_offending, pass_=ok)
        return result

    elif name == "pushforward":
        pair = sc.pairs[entry["pair"]]
        cols = ["u", "v", "zeta", "r_u", "r_v"]
        us, vs = surface_grid(pair.source.domain, grids["surface"], rng)
        forms = pair.forms(us, vs)
        zeta, _ = conformal.dilation_field(pair, us, vs, forms=forms)
        rows = _table(us, vs, zeta, *conformal.pushforward_residual(pair, us, vs, forms=forms))
        worst = _max_over(rows, cols, ["r_u", "r_v"])

    else:  # pragma: no cover - guarded by validation
        raise ScenarioError(f"unknown suite '{name}'")

    return SuiteResult(name, params, tol, cols, rows, worst, pass_=worst < tol)


def _pin_pairing(rep: conformal.DeviationReport, oracle) -> str:
    """Pick the weight pairing the direct image-curvature oracle (None for
    bare metrics) supports over the grid report ``rep``: target weight by
    closeness to the oracle, source weight by smallest residual (first key
    wins ties)."""
    def worst(pairing):
        return (float(np.max(rep.i20_residuals[pairing])), pairing)

    if oracle is None:
        return min(conformal.PAIRINGS, key=worst)
    # summed point by point, in grid order
    dist = {w: sum(abs(rep.kappa_g_tgt[w] - oracle).tolist()) for w in conformal.WEIGHTS}
    wt = min(conformal.WEIGHTS, key=lambda w: (dist[w], w))
    return min((f"{wt}/{ws}" for ws in conformal.WEIGHTS), key=worst)


# ---------------------------------------------------------------------------
# Reports


def _report_paths(out_dir: Path, stem: str, suites: list[SuiteResult], ext: str) -> list[Path]:
    seen: dict[str, int] = {}
    paths = []
    for res in suites:
        seen[res.suite] = seen.get(res.suite, 0) + 1
        tag = res.suite if seen[res.suite] == 1 else f"{res.suite}-{seen[res.suite]}"
        paths.append(out_dir / f"{stem}.{tag}.{ext}")
    return paths


def write_reports(sc: Scenario, results: list[SuiteResult], out_dir: Path,
                  fmt: str, seed: int, grids: dict) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = sc.path.stem
    digest = {
        "scenario": sc.path.name,
        "sha256": sc.digest,
        "seed": seed,
        "grids": grids,
    }
    ext = "json" if fmt == "obj" else "csv"
    paths = _report_paths(out_dir, stem, results, ext)
    for res, path in zip(results, paths):
        if fmt == "obj":
            doc = {
                "digest": digest,
                "suite": res.suite,
                "params": res.params,
                "tolerance": res.tolerance,
                "max_residual": res.max_residual,
                "pass": res.pass_,
                "wall_ms": res.wall_ms,
                "columns": res.columns,
                "rows": res.rows,
            }
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        else:
            lines = [",".join(res.columns)]
            lines += [",".join(_fmt(x) for x in row) for row in res.rows]
            path.write_text("\n".join(lines) + "\n")
    return paths


# ---------------------------------------------------------------------------
# Entry point


def _suite_context(entry: dict) -> str:
    return ", ".join(f"{k}='{v}'" for k, v in entry.items() if k != "suite")


def run_scenario(sc: Scenario, out_dir: Path, fmt: str, only: list[str],
                 grid_override: int | None, tol_override: float | None,
                 seed: int) -> int:
    grids = dict(sc.grids)
    if grid_override is not None:
        grids["surface"] = grids["curve"] = grid_override
    tolerances = dict(sc.tolerances)
    if tol_override is not None:
        # --tol overrides the suite pass thresholds; the conformality gate on
        # pair construction keeps its scenario value
        tolerances.update({k: tol_override for k in SUITE_NAMES})
    selected = [e for e in sc.suites if not only or e["suite"] in only]
    if only:
        unknown = set(only) - set(SUITE_NAMES)
        if unknown:
            raise ScenarioError(f"--suite: unknown suite name(s) {sorted(unknown)}")
        if not selected:
            raise ScenarioError(f"--suite: scenario has no suites among {only}")

    results = []
    for entry in selected:
        rng = (np.random.default_rng(seed) if grids["mode"] == "random" else None)
        t0 = time.perf_counter()
        try:
            res = run_suite(sc, entry, grids, tolerances, rng)
        except MATH_ERRORS as err:
            print(f"math error in suite '{entry['suite']}' ({_suite_context(entry)}): {err}",
                  file=sys.stderr)
            return 3
        res.wall_ms = (time.perf_counter() - t0) * 1e3
        results.append(res)
        status = "PASS" if res.pass_ else "FAIL"
        print(f"{status} {res.suite} ({_suite_context(entry)}): "
              f"max residual {res.max_residual:.3e} vs tol {res.tolerance:.1e} "
              f"[{res.wall_ms:.1f} ms]")

    paths = write_reports(sc, results, out_dir, fmt, seed, grids)
    print(f"wrote {len(paths)} report file(s) under {out_dir}")
    return 0 if all(r.pass_ for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="confgeo",
        description="Run differential-geometry verification suites over a scenario file.")
    parser.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    parser.add_argument("--out", default="reports", help="report output directory")
    parser.add_argument("--format", choices=("obj", "table"), default="obj",
                        help="obj = JSON, table = CSV")
    parser.add_argument("--suite", action="append", default=[],
                        help="run only this suite (repeatable)")
    parser.add_argument("--grid", type=int, default=None, help="override grid sizes")
    parser.add_argument("--tol", type=float, default=None, help="override all tolerances")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized grids")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 2
        return 0 if code == 0 else 2

    try:
        sc = load_scenario(Path(args.scenario))
        if args.grid is not None and args.grid < 1:
            raise ScenarioError("--grid must be a positive integer")
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
            raise ScenarioError("--tol must be a finite positive number")
        return run_scenario(sc, Path(args.out), args.format, args.suite,
                            args.grid, args.tol, args.seed)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2


def cli_main() -> None:  # console-script entry
    sys.exit(main())
