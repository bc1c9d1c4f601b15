"""confgeo benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload surface-grid --seed 1 --seconds 30 --trace 0

It generates the workload's scenario from ``scenarios/demo.json`` (random
grids, the seed passed on as confgeo's ``--seed``), times set-up in fresh
interpreters, runs whole passes in a child process for ``--seconds``,
checks every report with ``check.py`` and prints a run record line and,
last, one JSON line with ``correct``, ``attempted``, ``failed`` (suite runs)
and the metrics: the end-to-end ones of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1``.  ``--capture-reference`` rewrites
``perfbench/reference/<workload>.json`` from one pass at the default seed.

Everything it writes stays inside the checkout: reports go to a temporary
directory under ``.perfbench_tmp/`` that is removed on exit, and a traced
run leaves its spans in ``.perfbench_out/<workload>.spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import calibrate
import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

DEFAULT_SEED = 1         # reference reports are captured at this seed
HOLDOUT_SEED = 90803527  # kept out of tuning; a claimed gain must also hold here
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SURFACE_SUITES = ("forms", "christoffel-shift", "pushforward")
CURVE_SUITES = ("frenet", "bracket-shift", "geodesic-deviation", "theorem3",
                "tangential", "classify")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "surface-grid": {"suites": SURFACE_SUITES, "surface": 32, "curve": 8},
    "curve-sweep": {"suites": CURVE_SUITES, "surface": 8, "curve": 384},
    "demo-small": {"suites": SURFACE_SUITES + CURVE_SUITES, "surface": 8, "curve": 8},
}

# Report tags of scenarios/demo.json, in report-file spelling.
DEMO_TAGS = ("forms", "frenet", "frenet-2", "christoffel-shift", "christoffel-shift-2",
             "christoffel-shift-3", "bracket-shift", "bracket-shift-2", "geodesic-deviation",
             "theorem3", "theorem3-2", "tangential", "tangential-2", "classify", "pushforward")


class BenchError(Exception):
    """The benchmark could not run to the end; no result is printed."""


def make_scenario(workload: str, dest: Path) -> None:
    spec = WORKLOADS[workload]
    doc = json.loads((ROOT / "scenarios" / "demo.json").read_text())
    doc["suites"] = [e for e in doc["suites"] if e["suite"] in spec["suites"]]
    doc["grids"] = {"surface": spec["surface"], "curve": spec["curve"], "mode": "random"}
    dest.write_text(json.dumps(doc, indent=2))


def _child(args: list[str], timeout: float, **kw) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], timeout=timeout,
                              stderr=subprocess.PIPE, text=True, **kw)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def time_setup(scenario: Path) -> list[dict]:
    """Cold import plus load, each in a fresh interpreter, calibrated by the
    kernel readings taken before and after it.  The first run (bytecode
    compilation, page cache) is not counted."""
    runs = []
    with calibrate.Clock() as clock:
        for _ in range(SETUP_REPEATS + 1):
            proc = _child(["setup", str(ROOT / "src"), str(scenario)], 60.0,
                          stdout=subprocess.PIPE)
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            clock.piece("import", run["import_s"])
            clock.piece("load", run["load_s"])
            clock.flush()
            (_, _, run["import_ref_s"]), (_, _, run["load_ref_s"]) = clock.done[-2:]
            runs.append(run)
    return runs[1:]


def run_passes(workload: str, scenario: Path, tmp: Path, seed: int, seconds: float,
               trace: bool, deadline: float) -> dict:
    spans = None
    if trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"{workload}.spans.tsv.gz")
    spec = {"scenario": str(scenario), "out": str(tmp / "reports"), "seed": seed,
            "seconds": seconds, "trace": trace, "result": str(tmp / "result.json"), "spans": spans}
    (tmp / "spec.json").write_text(json.dumps(spec))
    _child(["passes", str(ROOT / "src"), str(tmp / "spec.json")],
           max(10.0, deadline - time.monotonic()), stdout=subprocess.DEVNULL)
    return json.loads((tmp / "result.json").read_text())


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def verify(passes: list[dict], reference: dict, compare_values: bool) -> tuple[int, list[str]]:
    """Failed suite runs over all passes, and one line per distinct failure.

    A pass whose reports are byte-identical (apart from ``wall_ms``) to an
    already checked pass has the same verdicts, so each distinct digest is
    checked once; every pass must share the first pass's digest."""
    tags = list(reference["suites"])
    verdicts: dict[str, dict[str, str]] = {}
    first = None
    failed, notes = 0, set()
    for k, rec in enumerate(passes):
        out = Path(rec["out"])
        dig = check.digest(out) if out.is_dir() else None
        if dig is not None and dig not in verdicts:
            verdicts[dig] = check.check_pass(out, "demo", reference, compare_values)
        failures = dict(verdicts.get(dig, {t: "no reports" for t in tags}))
        if rec["code"] != 0:
            failures = {t: f"exit code {rec['code']} {rec.get('error', '')}".strip() for t in tags}
        elif first is None:
            first = dig
        elif dig != first:
            failures = {t: f"pass {k} reports differ from pass 0" for t in tags}
        failed += len(failures)
        notes.update(f"{t}: {why}" for t, why in failures.items())
    return failed, sorted(notes)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between order statistics, so that one
    slow pass among a dozen does not set it alone."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 \
        else values[0]


def end_to_end(result: dict, setup: list[dict], rows: int) -> dict:
    """End-to-end metrics in calibrated seconds (see calibrate.py).

    ``latency_*`` is the whole ``cli.main`` call; ``total_s`` is the cold
    import plus load, suites and report writing; ``rows_per_s`` divides by
    the suite time alone."""
    ok = [p for p in result["passes"] if p["code"] == 0 and not p["traced"]]
    if not ok:
        raise BenchError("no pass completed, nothing to measure")
    latency = [p["total_ref_s"] for p in ok]
    work = [p["ref"]["load"] + p["ref"]["suites"] + p["ref"]["write"] for p in ok]
    return {
        "setup_s": statistics.median(r["import_ref_s"] + r["load_ref_s"] for r in setup),
        "total_s": statistics.median(r["import_ref_s"] for r in setup) + statistics.median(work),
        "rows_per_s": rows / statistics.median(p["ref"]["suites"] for p in ok),
        "latency_p50_s": statistics.median(latency),
        "latency_p90_s": p90(latency),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result: dict) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    sums = result["trace"]
    if not sums:
        raise BenchError("traced run recorded no spans")

    def med(fn):
        return statistics.median(fn(s) for s in sums)

    def name_stat(s, name, key):
        return s["per_name"].get(name, {}).get(key, 0)

    def suite_stat(s, tag, key):
        rec = s["per_suite"].get(tag)
        return rec[key] if rec else 0

    def per_row(s, tag, key):
        rec = s["per_suite"].get(tag)
        return rec[key] / rec["rows"] if rec and rec["rows"] else 0.0

    m = {}
    for mod, path in tracer.TARGETS:
        if mod == "cli":
            continue
        name = f"{mod}.{path}"
        m[f"{name}.calls"] = med(lambda s: name_stat(s, name, "calls"))
        m[f"{name}.self_s"] = med(lambda s: name_stat(s, name, "self_s"))
    invert = "calculus.UnitSpeedCurve.invert"
    m["calculus.simpson_per_invert"] = med(
        lambda s: s["simpson_in_invert"] / name_stat(s, invert, "calls")
        if name_stat(s, invert, "calls") else 0.0)
    m["cli.load_scenario_s"] = med(lambda s: name_stat(s, "cli.load_scenario", "total_s"))
    m["cli.write_reports_s"] = med(lambda s: name_stat(s, "cli.write_reports", "total_s"))
    m["cli.report_bytes"] = med(lambda s: s["report_bytes"])
    for tag in DEMO_TAGS:
        m[f"cli.suite.{tag}_s"] = med(lambda s: suite_stat(s, tag, "s"))
        m[f"geometry.patch_jets_per_row.{tag}"] = med(
            lambda s: per_row(s, tag, "geometry.SurfacePatch.jets"))
        m[f"exprkit.eval_jet2_per_row.{tag}"] = med(
            lambda s: per_row(s, tag, "exprkit.eval_jet2"))
    traced = [p["total_ref_s"] for p in result["passes"] if p["traced"] and p["code"] == 0]
    plain = [p["total_ref_s"] for p in result["passes"] if not p["traced"] and p["code"] == 0]
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return m


def run_record(workload: str, seed: int, setup: list[dict], result: dict, rows: int) -> dict:
    ok = [p for p in result["passes"] if p["code"] == 0 and not p["traced"]]
    sources = sorted((ROOT / "src" / "confgeo").glob("*.py"))
    lines = {p.name: len(p.read_bytes().splitlines()) for p in sources}
    src_hash = hashlib.sha256()
    for p in sources:
        src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": seed, "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED, "grid": {k: WORKLOADS[workload][k] for k in ("surface", "curve")},
        "rows_per_pass": rows, "passes": len(result["passes"]),
        "traced_passes": len(result["trace"]), "setup_repeats": len(setup),
        "wall_median_s": {
            "setup": statistics.median(r["import_s"] + r["load_s"] for r in setup) if setup else None,
            "pass": statistics.median(p["total_s"] for p in ok) if ok else None,
            "suites": statistics.median(p["wall"]["suites"] for p in ok) if ok else None},
        "calibration": {"nominal_s": calibrate.NOMINAL_S,
                        "median_reading_s": statistics.median(
                            calibrate.NOMINAL_S / p["ref_per_wall"] for p in result["passes"])},
        "commit": commit, "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def capture_reference(workload: str, scenario: Path, tmp: Path) -> None:
    result = run_passes(workload, scenario, tmp, DEFAULT_SEED, 0, False,
                        time.monotonic() + TIME_LIMIT_S)
    (rec,) = result["passes"]
    if rec["code"] != 0:
        raise BenchError(f"reference pass failed: {rec.get('error', rec['code'])}")
    docs = check.load_reports(Path(rec["out"]), "demo")
    record = run_record(workload, DEFAULT_SEED, [], result, 0)
    ref = {"workload": workload, "seed": DEFAULT_SEED,
           "captured_from": {k: record[k] for k in ("commit", "src_sha256")},
           "suites": {tag: check.summarize(doc) for tag, doc in docs.items()}}
    failures = check.check_pass(Path(rec["out"]), "demo", ref, True)
    kinds = {k for s in ref["suites"].values() for k in s["kinds"]}
    if failures or kinds - {"str", "num", "null"} or \
            not all(s["pass"] for s in ref["suites"].values()):
        raise BenchError(f"reference pass is not all-PASS and self-consistent: {failures}")
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()

    missing = [p for p in ("src/confgeo/cli.py", "scenarios/demo.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a confgeo checkout, missing {missing}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        scenario = tmp / "demo.json"
        make_scenario(args.workload, scenario)
        if args.capture_reference:
            capture_reference(args.workload, scenario, tmp)
            return 0
        reference = load_reference(args.workload)
        rows = sum(s["rows"] for s in reference["suites"].values())
        setup = [] if args.trace else time_setup(scenario)
        result = run_passes(args.workload, scenario, tmp, args.seed, args.seconds,
                            bool(args.trace), started + TIME_LIMIT_S)
        failed, notes = verify(result["passes"], reference, args.seed == DEFAULT_SEED)
        metrics = per_layer(result) if args.trace else end_to_end(result, setup, rows)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass

    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for note in notes:
        print(f"FAIL {note}")
    print("run record: " + json.dumps(run_record(args.workload, args.seed, setup, result, rows)))
    attempted = len(result["passes"]) * len(reference["suites"])
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
