"""Measurement process of the confgeo benchmark.

``run.py`` starts this file as a child process, so that the peak memory it
reports belongs to confgeo's work and not to the harness that checks the
reports afterwards.  Two modes:

``setup <src> <scenario>``
    time a cold ``import confgeo.cli`` plus ``cli.load_scenario`` and print
    ``{"import_s", "load_s"}``.

``passes <src> <spec.json>``
    run whole ``cli.main`` invocations until the time in the spec is used
    up, each into its own report directory, and write the per-pass wall and
    calibrated times (and, traced, the per-layer trace summaries) to the
    result file named in the spec.  Timing wrappers on ``cli.load_scenario``,
    ``cli.run_suite`` and ``cli.write_reports`` split each invocation into
    load, suites and report writing; the rest of the call is ``other``.
"""

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMED = {"load_scenario": "load", "run_suite": "suites", "write_reports": "write"}


def setup(src: str, scenario: str) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from confgeo import cli
    t1 = time.perf_counter()
    cli.load_scenario(Path(scenario))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))


@contextlib.contextmanager
def timing_wrappers(cli, clock):
    """Swap timing wrappers in for the ``cli`` functions in ``TIMED``; each
    finished call is handed to ``clock`` as one piece of work."""
    def timed(kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            clock.piece(kind, time.perf_counter() - t0)
            return out
        return wrapper

    originals = {name: getattr(cli, name) for name in TIMED}
    for name, kind in TIMED.items():
        setattr(cli, name, timed(kind, originals[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def passes(src: str, spec_path: str) -> None:
    import resource

    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, src)
    sys.path.insert(0, str(HERE))
    import calibrate
    from confgeo import cli
    from tracer import Tracer

    scenario, root, seed = spec["scenario"], Path(spec["out"]), spec["seed"]

    def one(clock, k: int, tracer: Tracer | None) -> dict:
        out = root / f"p{k:04d}"
        argv = ["--scenario", scenario, "--out", str(out), "--seed", str(seed)]
        first_reading, first_piece = len(clock.readings) - 1, len(clock.done)
        if tracer is not None:
            tracer.install()
        try:
            with timing_wrappers(cli, clock), open(os.devnull, "w") as sink, \
                    contextlib.redirect_stdout(sink):
                waited, worked = clock.reading_wall_s, clock.piece_wall_s
                t0 = time.perf_counter()
                code = cli.main(argv)
                main_wall = time.perf_counter() - t0 - (clock.reading_wall_s - waited)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # argument parsing, rng set-up, console output: cli.main's own time
        clock.piece("other", main_wall - (clock.piece_wall_s - worked))
        clock.flush()
        wall, ref = {}, {}
        for kind, w, r in clock.done[first_piece:]:
            wall[kind] = wall.get(kind, 0.0) + w
            ref[kind] = ref.get(kind, 0.0) + r
        readings = clock.readings[first_reading:]
        return {"code": code, "out": str(out), "traced": tracer is not None,
                "wall": wall, "ref": ref, "total_s": sum(wall.values()),
                "total_ref_s": sum(ref.values()),
                "ref_per_wall": calibrate.NOMINAL_S * len(readings) / sum(readings)}

    records, summaries, tracer = [], [], None
    with calibrate.Clock() as clock:
        deadline = time.perf_counter() + spec["seconds"]
        while not records or time.perf_counter() < deadline:
            records.append(one(clock, len(records), None))
            if spec["trace"]:
                tracer = Tracer()
                records.append(one(clock, len(records), tracer))
                summaries.append(tracer.summary(records[-1]["ref_per_wall"]))
    if tracer is not None and spec.get("spans"):
        tracer.write_spans(Path(spec["spans"]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(
        {"passes": records, "trace": summaries, "peak_rss_kb": peak_kb}))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(*sys.argv[2:4])
    elif mode == "passes":
        passes(*sys.argv[2:4])
    else:
        sys.exit(f"unknown mode {mode!r}")
