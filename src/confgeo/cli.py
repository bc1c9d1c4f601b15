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

import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import calculus, conformal, geometry, normalcurve
from .exprkit import ExprError, parse_scalar_field, walk_store

# The scenario digest takes CPython's built-in sha256, which hashlib itself
# falls back to, so that a run loads no OpenSSL
try:
    from _sha256 import sha256  # CPython 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256

MATH_ERRORS = (ExprError, geometry.GeometryError, calculus.CalculusError,
               conformal.ConformalError)


class ScenarioError(Exception):
    """Invalid scenario content; the message names the offending key."""


# The most points of one grid: n*n of a surface grid (512 x 512), n of a
# curve grid and the knots of an arc-length table.  Checked before any array
# or random stream is made, so that a huge grid exits 2 rather than
# exhausting memory: a demo run's peak grows by about 1.3 kB per surface
# grid point (350 MB at the bound).
MAX_GRID_POINTS = 512 * 512


def _bounded(points: int, where: str) -> None:
    if points > MAX_GRID_POINTS:
        raise ScenarioError(f"{where}: {points} grid points exceed the bound of "
                            f"{MAX_GRID_POINTS}")


# ---------------------------------------------------------------------------
# Scenario loading


class Scenario:
    """A loaded scenario: its members by name, its suite entries, tolerances
    and grids.  Each instance starts with empty pools and suite list, the
    default tolerances and the default grids, in containers of its own."""

    __slots__ = ("path", "digest", "surfaces", "curves", "curve_ranges", "pairs", "profiles",
                 "suites", "tolerances", "grids")

    def __init__(self, path: Path, digest: str):
        self.path, self.digest = path, digest
        self.surfaces, self.curves, self.curve_ranges, self.pairs, self.profiles = (
            {}, {}, {}, {}, {})
        self.suites = []
        self.tolerances = dict(DEFAULT_TOLERANCES)
        self.grids = {"surface": 8, "curve": 10, "mode": "uniform"}

    @property
    def pools(self) -> dict:
        """The named members of each kind a suite entry can name."""
        return {"surface": self.surfaces, "curve": self.curves, "pair": self.pairs,
                "profile": self.profiles}


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


def _member(entry: dict, key: str, pool: dict, kind: str, where: str):
    """The member of ``pool`` that ``entry[key]`` names."""
    name = _name(entry, key, where)
    if name not in pool:
        raise ScenarioError(f"{where}.{key}: unknown {kind} '{name}'")
    return pool[name]


def _known(entry: dict, keys, prefix: str) -> None:
    """Refuse a key that nothing reads: a misspelled one would leave a check out."""
    for key in entry:
        if key not in keys:
            raise ScenarioError(f"{prefix}{key}: unknown key")


def _finite(raw, where: str) -> float:
    """A JSON number that is finite, as a float."""
    try:
        if not isinstance(raw, bool) and math.isfinite(raw):
            return float(raw)
    except (TypeError, OverflowError):
        pass
    raise ScenarioError(f"{where}: expected a finite number, got {raw!r}")


def _section(doc: dict, key: str, kind: type):
    """A top-level section: a JSON list or object, empty when absent."""
    raw = doc.get(key, kind())
    if type(raw) is not kind:
        expected = "a list" if kind is list else "an object"
        raise ScenarioError(f"{key}: expected {expected}, got {raw!r}")
    return raw


def _span(lo: float, hi: float, where: str) -> tuple[float, float]:
    """``(lo, hi)``, whose span must be finite too: the grids are placed
    by ``hi - lo``, so an infinite span would make non-finite points."""
    if not math.isfinite(hi - lo):
        raise ScenarioError(f"{where}: span of [{lo!r}, {hi!r}] overflows")
    return lo, hi


def _range(entry: dict, key: str, where: str) -> tuple[float, float]:
    raw = _need(entry, key, where)
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ScenarioError(f"{where}.{key}: expected [lo, hi], got {raw!r}")
    return _span(_finite(raw[0], f"{where}.{key}[0]"), _finite(raw[1], f"{where}.{key}[1]"),
                 f"{where}.{key}")


def _parse_field(text, variables, where: str, nodes: dict):
    if not isinstance(text, str):
        raise ScenarioError(f"{where}: expected an expression string, got {text!r}")
    try:
        return parse_scalar_field(text, variables, nodes)
    except MATH_ERRORS as err:
        raise ScenarioError(f"{where}: {err}") from None


def _box(raw, where: str):
    try:
        (u0, u1), (v0, v1) = raw
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: domain must be [[u0,u1],[v0,v1]]") from None
    box = tuple(_span(_finite(lo, f"{where}.domain"), _finite(hi, f"{where}.domain"),
                      f"{where}.domain")
                for lo, hi in ((u0, u1), (v0, v1)))
    if not (box[0][0] < box[0][1] and box[1][0] < box[1][1]):
        raise ScenarioError(f"{where}: degenerate domain box {box}")
    return box


# The class and the expression keys of each kind of surface
SURFACE_KINDS = {"patch": (geometry.SurfacePatch, ("x", "y", "z")),
                 "metric": (geometry.AbstractMetric, ("E", "F", "G"))}


def load_scenario(path: Path) -> Scenario:
    try:
        raw_bytes = path.read_bytes()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file '{path}': {err}") from None
    try:
        doc = json.loads(raw_bytes)
    except (ValueError, RecursionError) as err:  # bad syntax, bad encoding, deep nesting
        raise ScenarioError(f"'{path}' is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"'{path}': top level must be an object")
    _known(doc, ("surfaces", "curves", "pairs", "profiles", "suites", "tolerances", "grids"), "")

    sc = Scenario(path=path, digest=sha256(raw_bytes).hexdigest())
    nodes: dict = {}  # the load's one node table: equal subtrees are one node

    def entries(section: str, pool: dict):
        """Each entry of a member section, with its ``where`` and its name,
        which no earlier entry of the section holds."""
        for i, entry in enumerate(_section(doc, section, list)):
            where = f"{section}[{i}]"
            name = _name(entry, "name", where)
            if name in pool:
                raise ScenarioError(f"{where}.name: duplicate name '{name}'")
            yield entry, where, name

    def expr(entry: dict, key: str, variables: tuple, where: str):
        return _parse_field(_need(entry, key, where), variables, f"{where}.{key}", nodes)

    for entry, where, name in entries("surfaces", sc.surfaces):
        kind = entry.get("kind", "patch")
        box = _box(_need(entry, "domain", where), where)
        if not (isinstance(kind, str) and kind in SURFACE_KINDS):
            raise ScenarioError(f"{where}.kind: expected 'patch' or 'metric', got '{kind}'")
        cls, keys = SURFACE_KINDS[kind]
        _known(entry, ("name", "kind", "domain", *keys), f"{where}.")
        sc.surfaces[name] = cls(*(expr(entry, k, ("u", "v"), where) for k in keys), box)

    for entry, where, name in entries("curves", sc.curves):
        reparam = entry.get("reparameterize", False)
        if type(reparam) is not bool:
            raise ScenarioError(f"{where}.reparameterize: expected true or false, got {reparam!r}")
        keys = ("surface", "t_range", "samples") if reparam else ("s_range",)
        _known(entry, ("name", "u", "v", "reparameterize", *keys), f"{where}.")
        if reparam:
            patch = _member(entry, "surface", sc.surfaces, "surface", where)
            if not isinstance(patch, geometry.SurfacePatch):
                raise ScenarioError(f"{where}.surface: reparameterization needs a patch")
            t0, t1 = _range(entry, "t_range", where)
            u_raw, v_raw = expr(entry, "u", ("t",), where), expr(entry, "v", ("t",), where)
            samples = entry.get("samples", 32)
            if type(samples) is not int:
                raise ScenarioError(f"{where}.samples: expected an integer, got {samples!r}")
            _bounded(samples, f"{where}.samples")
            try:
                curve = calculus.reparameterize_arclength(
                    patch, (u_raw, v_raw), t0, t1, samples)
            except MATH_ERRORS as err:
                raise ScenarioError(f"{where}: {err}") from None
            sc.curves[name] = curve
            sc.curve_ranges[name] = (0.0, curve.length)
        else:
            sc.curves[name] = geometry.ParamCurve(expr(entry, "u", ("s",), where),
                                                  expr(entry, "v", ("s",), where))
            sc.curve_ranges[name] = _range(entry, "s_range", where)

    for key, val in _section(doc, "tolerances", dict).items():
        if key not in SUITE_NAMES and key != "conformality":
            raise ScenarioError(f"tolerances.{key}: unknown suite name")
        val = _finite(val, f"tolerances.{key}")
        if val <= 0.0:
            raise ScenarioError(f"tolerances.{key}: tolerance must be positive, got {val}")
        sc.tolerances[key] = val

    for entry, where, name in entries("pairs", sc.pairs):
        _known(entry, ("name", "source", "target", "dilation", "ambient_map"), f"{where}.")
        members = [_member(entry, key, sc.surfaces, "surface", where)
                   for key in ("source", "target")]
        dilation = expr(entry, "dilation", ("u", "v"), where) if "dilation" in entry else None
        ambient = None
        if "ambient_map" in entry:
            comps = entry["ambient_map"]
            if not (isinstance(comps, list) and len(comps) == 3):
                raise ScenarioError(f"{where}.ambient_map: expected three expressions")
            ambient = tuple(_parse_field(c, ("x", "y", "z"), f"{where}.ambient_map[{j}]",
                                         nodes) for j, c in enumerate(comps))
        try:
            sc.pairs[name] = conformal.ConformalPair(
                members[0], members[1], dilation=dilation, ambient_map=ambient,
                conformality_tol=sc.tolerances["conformality"])
        except MATH_ERRORS as err:
            raise ScenarioError(f"{where}: {err}") from None

    for entry, where, name in entries("profiles", sc.profiles):
        _known(entry, ("name", "nu", "eta"), f"{where}.")
        sc.profiles[name] = (expr(entry, "nu", ("s",), where), expr(entry, "eta", ("s",), where))

    suites = _section(doc, "suites", list)
    if not suites:
        raise ScenarioError("suites: scenario declares no suites")
    for i, entry in enumerate(suites):
        where = f"suites[{i}]"
        sname = _need(entry, "suite", where)
        if sname not in SUITE_NAMES:
            raise ScenarioError(f"{where}.suite: unknown suite '{sname}'")
        for key, val in entry.items():  # a key no suite reads would be a check left out
            if key in SUITES[sname].needs:
                member = _member(entry, key, sc.pools[key], key, where)
                # every suite on a surface reads its patch jets
                if key == "surface" and not isinstance(member, geometry.SurfacePatch):
                    raise ScenarioError(f"{where}.surface: suite '{sname}' needs a patch, "
                                        f"'{val}' is a metric")
            elif key == "expect" and sname == "classify":
                if val not in normalcurve.VERDICTS:
                    raise ScenarioError(f"{where}.expect: expected one of "
                                        f"{list(normalcurve.VERDICTS)}, got {val!r}")
            elif key != "suite":
                raise ScenarioError(f"{where}.{key}: suite '{sname}' takes no key '{key}'")
        for key in SUITES[sname].needs:
            if key not in entry:
                raise ScenarioError(f"{where}: suite '{sname}' needs key '{key}'")
        sc.suites.append(dict(entry))

    for key, val in _section(doc, "grids", dict).items():
        if key not in sc.grids:
            raise ScenarioError(f"grids.{key}: unknown grid key")
        if key != "mode" and not (type(val) is int and val >= 1):
            raise ScenarioError(f"grids.{key}: expected a positive integer, got {val!r}")
        if key != "mode":
            _bounded(val * val if key == "surface" else val, f"grids.{key}")
        sc.grids[key] = val
    if sc.grids["mode"] not in ("uniform", "random"):
        raise ScenarioError(f"grids.mode: expected 'uniform' or 'random', got '{sc.grids['mode']}'")
    return sc


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


def _curve_points(suite, grids: dict) -> int:
    return max(grids["curve"], suite.min_points)


def _draws(suite, grids: dict) -> int:
    """How many random draws a suite's grid reads: its curve points, or the
    us then the vs of its n*n surface points."""
    if "curve" in suite.needs:
        return _curve_points(suite, grids)
    return 2 * grids["surface"] ** 2


# ---------------------------------------------------------------------------
# Suites


class SuiteResult:
    """One suite's report.  ``columns`` maps each name to a float64 array, or
    an object array where cells are strings or None (undefined).  ``worst_at``
    is the (column, row) that set ``max_residual``, if any cell is defined.
    ``wall_ms`` is 0.0 until the suite's run sets it."""

    __slots__ = ("suite", "params", "tolerance", "columns", "max_residual", "pass_",
                 "worst_at", "wall_ms")

    def __init__(self, suite: str, params: dict, tolerance: float,
                 columns: dict[str, np.ndarray], max_residual: float, pass_: bool,
                 worst_at: tuple[str, int] | None):
        self.suite, self.params, self.tolerance, self.columns = suite, params, tolerance, columns
        self.max_residual, self.pass_, self.worst_at = max_residual, pass_, worst_at
        self.wall_ms = 0.0

    @property
    def rows(self) -> range:
        """The report's row indices."""
        return range(len(next(iter(self.columns.values()))))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _columns(names: list[str], *cells) -> dict[str, np.ndarray]:
    """Report columns by name from per-point arrays.  A None column, or
    None in an object array, holds undefined cells."""
    return {name: np.full(len(cells[0]), None) if c is None else c
            for name, c in zip(names, cells, strict=True)}


def _worst(columns: dict, names: list[str]) -> tuple[float, tuple[str, int] | None]:
    """Worst residual over the named columns, with the column and row that
    set it.  Undefined (None) cells are skipped; a NaN in a defined cell is
    the worst, which fails the suite (Python's ``max`` could pass over it)."""
    vals = np.stack([columns[c] for c in names], axis=1)
    if vals.dtype != np.float64:  # only object columns hold undefined cells
        defined = vals != None  # noqa: E711 - elementwise on object columns
        if not defined.any():
            return 0.0, None
        vals = np.where(defined, vals, -np.inf).astype(np.float64)
    elif not vals.size:
        return 0.0, None
    # argmax, like max, stops at the first NaN
    row, j = divmod(int(np.argmax(vals)), len(names))
    return float(vals[row, j]), (names[j], row)


def _forms(surf, us, vs, params, tol):
    names = ["u", "v", "E", "F", "G", "W",
             "r_uu_u", "r_uu_v", "r_uv_u", "r_uv_v", "r_vv_u", "r_vv_v", "r_lagrange"]
    # one patch-jet evaluation at the grid feeds the forms, the Lagrange
    # column and the oracle's left sides; the oracle adds one walk of its
    # four shifted grids
    pj = surf.jets(us, vs, 2)
    m = geometry.first_fundamental(pj, us, vs)
    cr = geometry.cross(pj.pu, pj.pv)
    disc = m.E * m.G - m.F * m.F
    lagrange = abs(geometry.dot(cr, cr) - disc) / np.maximum(1.0, abs(disc))
    fd = geometry.metric_derivative_identities(surf, us, vs, pj)
    return _columns(names, us, vs, m.E, m.F, m.G, m.W, *fd.T, lagrange), names[6:]


def _frenet(surf, curve, ss, params, tol):
    names = ["s", "kappa", "tau", "r_unit", "r_tn", "r_tb", "r_nb", "r_btxn"]
    fr = geometry.frenet(surf, curve, ss)
    # n, b and tau are NaN where kappa <= floor: those cells are undefined
    undefined = fr.kappa <= geometry.CURVATURE_FLOOR

    def where_defined(x):
        return np.where(undefined, None, x) if undefined.any() else x

    return _columns(names, ss, fr.kappa, None if fr.tau is None else where_defined(fr.tau),
                    abs(geometry.norm(fr.t) - 1.0),
                    *(where_defined(x) for x in (
                        abs(geometry.dot(fr.t, fr.n)), abs(geometry.dot(fr.t, fr.b)),
                        abs(geometry.dot(fr.n, fr.b)),
                        geometry.norm(fr.b - geometry.cross(fr.t, fr.n))))), names[3:]


def _christoffel_shift(pair, us, vs, params, tol):
    names = ["u", "v", "zeta", "r111", "r112", "r121", "r122", "r221", "r222"]
    return _columns(names, us, vs, *conformal.christoffel_shift_report(pair, us, vs)), names[3:]


def _bracket_shift(pair, curve, ss, params, tol):
    names = ["s", "b_src", "b_tgt", "theta_bracket", "residual"]
    bs = conformal.beltrami_bracket_shift(pair, curve, ss)
    return _columns(names, ss, bs.b_src, bs.b_tgt, bs.theta_bracket, bs.residual), ["residual"]


def _geodesic_deviation(pair, curve, ss, params, tol):
    names = ["s", "zeta", "f", "h", "kg_src_W1", "kg_src_W2", "kg_tgt_W1", "kg_tgt_W2",
             "r_W1_W1", "r_W1_W2", "r_W2_W1", "r_W2_W2", "oracle_kg"]
    rep = conformal.geodesic_deviation_report(pair, curve, ss)
    oracle = (conformal.image_geodesic_curvature(pair, curve, ss)
              if pair.embedded else None)
    cols = _columns(names, ss, rep.zeta, rep.f, rep.h,
                    rep.kappa_g_src["W1"], rep.kappa_g_src["W2"],
                    rep.kappa_g_tgt["W1"], rep.kappa_g_tgt["W2"],
                    *(rep.i20_residuals[k] for k in conformal.PAIRINGS), oracle)
    pinned = params["pinned_pairing"] = _pin_pairing(rep, oracle)
    return cols, ["r_" + pinned.replace("/", "_")]


def _theorem3(pair, curve, profile, ss, params, tol):
    names = ["s", "zeta", "h", "lhs", "r_as_printed", "r_zeta4_on_h", "r_best"]
    rep = normalcurve.theorem3_report(pair, curve, *profile, ss)
    return _columns(names, ss, rep["zeta"], rep["h"], rep["lhs"], rep["as_printed"],
                    rep["zeta4_on_h"], np.minimum(rep["as_printed"], rep["zeta4_on_h"])), ["r_best"]


def _tangential(pair, curve, profile, ss, params, tol):
    names = ["s", "zeta", "g1", "g2", "r_u", "r_v", "r_T"]
    rep = normalcurve.tangential_report(pair, curve, *profile, ss)
    return _columns(names, ss, *(rep[k] for k in names[1:])), names[4:]


def _classify(surf, curve, ss, params, tol):
    verdict = normalcurve.classify_curve(surf, curve, ss, tol=tol)
    names = ["verdict", "satisfied", "c_t_max", "c_n_max", "c_b_max", "max_offending"]
    row = [verdict.verdict, "+".join(verdict.satisfied),
           verdict.component_maxima["c_t"], verdict.component_maxima["c_n"],
           verdict.component_maxima["c_b"], verdict.max_offending]
    cols = {c: np.array([x], dtype=object) for c, x in zip(names, row)}
    expect = params.get("expect")
    ok = (verdict.verdict == expect) if expect else (verdict.verdict != "undefined")
    return cols, (verdict.max_offending, ok)


def _pushforward(pair, us, vs, params, tol):
    names = ["u", "v", "zeta", "r_u", "r_v"]
    return _columns(names, us, vs, *conformal.pushforward_report(pair, us, vs)), names[3:]


# A suite is a row: the scenario members its entry names, in the order its
# body takes them, its default tolerance, its body and its least number of
# grid points.  A suite that needs a curve runs along an s-grid, and any
# other over the u, v grid of its surface or of its pair's source.
# ``body(*members, *grid, params, tol)`` returns the report columns and a list
# of the residual columns its verdict reads, or its own ``(max_residual, pass_)``.
Suite = namedtuple("Suite", "needs tolerance body min_points", defaults=(1,))
SUITES = {
    "forms": Suite(("surface",), 1e-9, _forms),
    "frenet": Suite(("surface", "curve"), 1e-9, _frenet),
    "christoffel-shift": Suite(("pair",), 1e-7, _christoffel_shift),
    "bracket-shift": Suite(("pair", "curve"), 1e-8, _bracket_shift),
    "geodesic-deviation": Suite(("pair", "curve"), 1e-6, _geodesic_deviation),
    "theorem3": Suite(("pair", "curve", "profile"), 1e-8, _theorem3),
    "tangential": Suite(("pair", "curve", "profile"), 1e-6, _tangential),
    "classify": Suite(("surface", "curve"), normalcurve.CLASSIFY_TOL, _classify, min_points=64),
    "pushforward": Suite(("pair",), 1e-8, _pushforward),
}

SUITE_NAMES = tuple(SUITES)
DEFAULT_TOLERANCES = {name: suite.tolerance for name, suite in SUITES.items()}
DEFAULT_TOLERANCES["conformality"] = conformal.CONFORMALITY_TOL


def run_suite(sc: Scenario, entry: dict, grids: dict, tolerances: dict, rng) -> SuiteResult:
    name = entry["suite"]
    suite, tol = SUITES[name], tolerances[name]
    params = {k: v for k, v in entry.items() if k != "suite"}
    members = [sc.pools[key][entry[key]] for key in suite.needs]
    if "curve" in suite.needs:
        n = _curve_points(suite, grids)
        grid = [curve_grid(sc.curve_ranges[entry["curve"]], n, rng)]
    else:  # a pair's members share one domain
        surf = members[0] if suite.needs[0] == "surface" else members[0].source
        grid = surface_grid(surf.domain, grids["surface"], rng)
    cols, verdict = suite.body(*members, *grid, params, tol)
    if isinstance(verdict, tuple):
        return SuiteResult(name, params, tol, cols, *verdict, None)
    worst, at = _worst(cols, verdict)
    return SuiteResult(name, params, tol, cols, worst, worst < tol, at)


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


# Rows are formatted and written this many at a time, so that a large
# report is never held as one string.
CHUNK_ROWS = 1024

# json's spellings of the non-finite floats, keyed by float.__repr__'s
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# a report row in json's indent-2 layout: opening, between cells, closing
_JSON_ROW = ("    [\n      ", ",\n      ", "\n    ]")


def _float_text(results: list[SuiteResult], fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct bit patterns of every float64 column of the
    reports, and each one's text: ``float.__repr__``, with json's spellings
    of the non-finite values in the ``obj`` format.  Keyed by bits, ``-0.0``
    and ``0.0`` stay apart and no NaN needs ordering."""
    bits = np.sort(np.concatenate([np.empty(0, np.uint64)] + [
        c.view(np.uint64) for res in results for c in res.columns.values()
        if c.dtype == np.float64]))
    # runs of equal bits dropped by hand: np.unique hashes in numpy 2.4,
    # which took about 5x as long as this on 46k cells
    first = np.ones(len(bits), dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    bits = bits[first]
    text = list(map(float.__repr__, bits.view(np.float64).tolist()))
    if fmt == "obj":
        for i in np.flatnonzero(~np.isfinite(bits.view(np.float64))).tolist():
            text[i] = _JSON_NONFINITE[text[i]]
    return bits, np.array(text, dtype=object)


def _write_rows(f, columns: dict, cells, layout: tuple[str, str, str], sep: str) -> None:
    """Write a newline and the first row, then ``sep`` before each further
    one.  ``cells`` formats a column's cells; ``layout`` opens a row, goes
    between its cells and closes it."""
    opening, between, closing = layout
    n = len(next(iter(columns.values())))
    lead = "\n"
    for a in range(0, n, CHUNK_ROWS):
        chunk = zip(*(cells(c[a:a + CHUNK_ROWS]) for c in columns.values()))
        rows = (closing + sep + opening).join([between.join(r) for r in chunk])
        f.write(lead + opening + rows + closing)
        lead = sep


def write_reports(sc: Scenario, results: list[SuiteResult], out_dir: Path,
                  fmt: str, seed: int, grids: dict) -> list[Path]:
    """Write one report per suite, column by column: JSON with the layout of
    ``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte, or CSV with
    ``repr`` floats and empty undefined cells.

    Most float cells repeat (exact zeros, u and v in every surface report,
    equal coefficients): on the demo's suites about a quarter of them are
    distinct on random grids, and 2 % on a uniform grid of 128.  So each
    distinct double of the whole call is formatted once, with one
    ``float.__repr__``, and a float column's cells are looked up by their
    bits.  Object columns (strings, None) are formatted cell by cell, an
    undefined (None) cell from one spelling made per call."""
    out_dir.mkdir(parents=True, exist_ok=True)
    bits, spelled = _float_text(results, fmt)
    spell = json.dumps if fmt == "obj" else _fmt
    undefined = spell(None)

    def cells(col: np.ndarray) -> list[str]:
        if col.dtype == np.float64:
            return spelled[np.searchsorted(bits, col.view(np.uint64))].tolist()
        return [undefined if x is None else spell(x) for x in col.tolist()]

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
        with path.open("w") as f:
            if fmt == "obj":
                doc = {
                    "digest": digest,
                    "suite": res.suite,
                    "params": res.params,
                    "tolerance": res.tolerance,
                    "max_residual": res.max_residual,
                    "pass": res.pass_,
                    "wall_ms": res.wall_ms,
                    "columns": list(res.columns),
                    "rows": [],
                }
                # split at the report's own "rows": a "rows" key in params
                # sits deeper, and params sorts before it anyway
                text = json.dumps(doc, indent=2, sort_keys=True)
                before, _, after = text.rpartition('\n  "rows": []')
                f.write(before + '\n  "rows": [')
                _write_rows(f, res.columns, cells, _JSON_ROW, ",\n")
                f.write("\n  ]" + after + "\n")
            else:
                f.write(",".join(res.columns))
                _write_rows(f, res.columns, cells, ("", ",", ""), "\n")
                f.write("\n")
    return paths


# ---------------------------------------------------------------------------
# Entry point


def _suite_context(entry: dict) -> str:
    return ", ".join(f"{k}='{v}'" for k, v in entry.items() if k != "suite")


def _worst_text(res: SuiteResult) -> str:
    """Where the worst residual is: its column and its s or (u, v) point."""
    if res.worst_at is None:
        return ""
    col, row = res.worst_at
    axes = ("s",) if "s" in res.columns else ("u", "v")
    point = ", ".join(f"{a}={float(res.columns[a][row])!r}" for a in axes)
    return f" in {col} at {point}"


def run_scenario(sc: Scenario, out_dir: Path, fmt: str, only: list[str],
                 grid_override: int | None, tol_override: float | None,
                 seed: int) -> int:
    if seed < 0:
        raise ScenarioError("--seed must be a non-negative integer")
    grids = dict(sc.grids)
    if grid_override is not None:
        if grid_override < 1:
            raise ScenarioError("--grid must be a positive integer")
        _bounded(grid_override * grid_override, "--grid")  # the surface grid's n*n
        grids["surface"] = grids["curve"] = grid_override
    tolerances = dict(sc.tolerances)
    if tol_override is not None:
        if not (math.isfinite(tol_override) and tol_override > 0.0):
            raise ScenarioError("--tol must be a finite positive number")
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
    try:  # before any suite runs, so that an unusable --out costs no work
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ScenarioError(f"--out: cannot make report directory '{out_dir}': {err}") from None

    if grids["mode"] == "random":
        from . import pcg64  # random grids alone load it

        # one stream per run, as long as the longest suite reads; each suite
        # reads it from its start, as a fresh default_rng(seed) would
        stream = pcg64.doubles(seed, max((_draws(SUITES[e["suite"]], grids) for e in selected),
                                         default=0))

    # The suites whose row needs a curve read the same jets, forms, zeta
    # jets and Christoffel and theta terms at the same s-grid, so they share
    # one store of derived values for the run; no walk is kept, since every
    # walk they repeat sits behind one of those values.  The surface suites
    # run outside it: their n*n grids are where the memory goes, and no
    # other suite reads them.
    results, store = [], {}
    try:
        for entry in selected:
            rng = pcg64.Draws(stream) if grids["mode"] == "random" else None
            shared = "curve" in SUITES[entry["suite"]].needs
            t0 = time.perf_counter()
            try:
                with walk_store(store if shared else None):
                    res = run_suite(sc, entry, grids, tolerances, rng)
            except MATH_ERRORS as err:
                print(f"math error in suite '{entry['suite']}' ({_suite_context(entry)}): "
                      f"{err}", file=sys.stderr)
                return 3
            res.wall_ms = (time.perf_counter() - t0) * 1e3
            results.append(res)
            status = "PASS" if res.pass_ else "FAIL"
            print(f"{status} {res.suite} ({_suite_context(entry)}): "
                  f"max residual {res.max_residual:.3e}{_worst_text(res)} "
                  f"vs tol {res.tolerance:.1e} [{res.wall_ms:.1f} ms]")
    finally:
        store.clear()  # no derived value outlives the run

    paths = write_reports(sc, results, out_dir, fmt, seed, grids)
    print(f"wrote {len(paths)} report file(s) under {out_dir}")
    return 0 if all(r.pass_ for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    import argparse  # here, not at the top: a cold import of the module skips it

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
        return run_scenario(sc, Path(args.out), args.format, args.suite,
                            args.grid, args.tol, args.seed)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2


def cli_main() -> None:  # console-script entry
    sys.exit(main())
