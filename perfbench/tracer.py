"""Outside-in tracer for confgeo.

Wraps public functions and methods of the ``confgeo`` modules from the
outside, without editing the package.  Each call records one span (name,
start, end, parent) in flat arrays, so a pass over a large grid costs a few
bytes per span instead of a Python object each.  Spans stay in memory until
the caller asks for aggregates or writes them out.

``from .exprkit import eval_jet2`` in ``geometry`` and ``conformal`` binds
the function a second time, so a wrapper is installed in every ``confgeo``
module namespace that holds the original object, not only in its home
module.  Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path) of every traced callable.  A class name stands
# for its construction (``__init__``).
TARGETS = (
    ("exprkit", "eval_jet2"),
    ("exprkit", "eval_jet3"),
    ("exprkit", "eval_grad3"),
    ("exprkit", "evaluate"),
    ("exprkit", "parse_scalar_field"),
    ("calculus", "UnitSpeedCurve.invert"),
    ("calculus", "adaptive_simpson"),
    ("calculus", "reparameterize_arclength"),
    ("geometry", "SurfacePatch.jets"),
    ("geometry", "ParamCurve.jets"),
    ("geometry", "first_fundamental"),
    ("geometry", "AbstractMetric.first_form"),
    ("geometry", "second_fundamental"),
    ("geometry", "christoffel"),
    ("geometry", "frenet"),
    ("geometry", "metric_derivative_identities"),
    ("conformal", "ConformalPair"),
    ("conformal", "dilation_field"),
    ("conformal", "dilation_jet"),
    ("conformal", "theta_terms"),
    ("conformal", "christoffel_shift_residual"),
    ("conformal", "pushforward_residual"),
    ("conformal", "ambient_jacobian"),
    ("conformal", "beltrami_bracket_shift"),
    ("conformal", "geodesic_deviation_report"),
    ("conformal", "image_geodesic_curvature"),
    ("normalcurve", "synth_position"),
    ("normalcurve", "frame_decompose"),
    ("normalcurve", "theorem3_report"),
    ("normalcurve", "tangential_report"),
    ("normalcurve", "classify_curve"),
    ("cli", "load_scenario"),
    ("cli", "run_suite"),
    ("cli", "write_reports"),
    ("cli", "run_scenario"),
    ("cli", "main"),
)

SUITE_PREFIX = "cli.suite."


def suite_tag(sc, entry) -> str:
    """Report tag of a suite entry, as the report file names spell it:
    the suite name, with ``-<k>`` for its k-th occurrence (k > 1)."""
    k = 0
    for other in sc.suites:
        if other["suite"] == entry["suite"]:
            k += 1
        if other is entry:
            break
    return entry["suite"] if k == 1 else f"{entry['suite']}-{k}"


class Tracer:
    """Span recorder.  Spans are numbered in start order, so a parent always
    has a smaller number than its children."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows: dict[int, int] = {}       # suite span -> report rows
        self.report_bytes = 0
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> tuple[int, int]:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._current)
        self.end.append(0.0)
        prev, self._current = self._current, sid
        self.start.append(time.perf_counter())
        return sid, prev

    def _close(self, sid: int, prev: int) -> None:
        self.end[sid] = time.perf_counter()
        self._current = prev

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, prev = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, prev)

        return traced

    def _wrap_run_suite(self, fn):
        @functools.wraps(fn)
        def traced(sc, entry, *args, **kwargs):
            sid, prev = self._open(self._name_id(SUITE_PREFIX + suite_tag(sc, entry)))
            try:
                result = fn(sc, entry, *args, **kwargs)
            finally:
                self._close(sid, prev)
            self.rows[sid] = len(result.rows)
            return result

        return traced

    def _wrap_write_reports(self, fn):
        name_id = self._name_id("cli.write_reports")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, prev = self._open(name_id)
            try:
                paths = fn(*args, **kwargs)
            finally:
                self._close(sid, prev)
            self.report_bytes += sum(Path(p).stat().st_size for p in paths)
            return paths

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in place; :meth:`uninstall` restores them."""
        import confgeo  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "confgeo" or k.startswith("confgeo."))]
        for mod_name, path in TARGETS:
            home = sys.modules[f"confgeo.{mod_name}"]
            owner_name, _, attr = path.rpartition(".")
            name = f"{mod_name}.{path}"
            if owner_name:
                owner = getattr(home, owner_name)
                self._swap(owner, attr, self.wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(home, attr)
            if isinstance(original, type):
                self._swap(original, "__init__", self.wrap(name, original.__init__))
                continue
            if path == "run_suite":
                wrapped = self._wrap_run_suite(original)
            elif path == "write_reports":
                wrapped = self._wrap_write_reports(original)
            else:
                wrapped = self.wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._swap(mod, key, wrapped)

    def _swap(self, owner, key: str, new) -> None:
        self._undo.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                           else getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def summary(self, scale: float = 1.0) -> dict:
        """Per-name call counts, total and self seconds (wall seconds times
        ``scale``); per-suite rows, seconds and the patch-jet and
        ``eval_jet2`` counts inside each suite."""
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * scale for i in range(n)]
        child = [0.0] * n
        suite_of = [-1] * n
        is_suite = [name.startswith(SUITE_PREFIX) for name in self.names]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            suite_of[i] = i if is_suite[self.name[i]] else (suite_of[p] if p >= 0 else -1)

        per_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        counted = ("geometry.SurfacePatch.jets", "exprkit.eval_jet2")
        per_suite: dict[str, dict] = {}
        simpson_in_invert = 0
        for i in range(n):
            name = self.names[self.name[i]]
            agg = per_name[name]
            agg["calls"] += 1
            agg["total_s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
            if name == "calculus.adaptive_simpson" and self.parent[i] >= 0 and \
                    self.names[self.name[self.parent[i]]] == "calculus.UnitSpeedCurve.invert":
                simpson_in_invert += 1
            s = suite_of[i]
            if s >= 0:
                tag = self.names[self.name[s]][len(SUITE_PREFIX):]
                rec = per_suite.setdefault(tag, {"rows": 0, "s": 0.0,
                                                 **{c: 0 for c in counted}})
                if s == i:
                    rec["rows"] += self.rows.get(i, 0)
                    rec["s"] += dur[i]
                elif name in counted:
                    rec[name] += 1
        return {"per_name": per_name, "per_suite": per_suite,
                "simpson_in_invert": simpson_in_invert,
                "report_bytes": self.report_bytes}

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as gzip'd TSV: id, parent, name, start, end
        (seconds since the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
