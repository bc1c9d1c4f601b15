"""Machine-speed calibration for the confgeo benchmark.

On a shared machine the speed available to one process drifts by 30 % or
more over tens of seconds, which is longer than a run, so a median of raw
wall times cannot be steady.  The benchmark therefore reads a fixed kernel
between the pieces of work it times and reports calibrated seconds:

    calibrated = wall * NOMINAL_S / (kernel time read around the work)

that is, the time the work would take on a machine where the kernel takes
``NOMINAL_S``.  The kernel copies the shape of confgeo's hot path (a
tree-walking forward-mode derivative evaluator building small objects,
plus 3-vector numpy operations) so that it slows down when confgeo does.
It is frozen: changing it, or ``NOMINAL_S``, changes the unit of every
time the benchmark reports.  Raw wall times are kept in the run record.

The kernel runs in a process of its own (``python3 calibrate.py serve``),
started once per measuring process and asked for a reading over a pipe
while the measuring process waits.  Whatever confgeo leaves in its own
heap (caches, live objects the garbage collector walks) therefore cannot
change the unit.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

NOMINAL_S = 0.006
REPEATS = 5
MIN_SPAN_S = 0.25  # wall time of work between two readings, at least


class _Dual:
    """A value with two partial derivatives."""

    __slots__ = ("v", "a", "b")

    def __init__(self, v: float, a: float = 0.0, b: float = 0.0):
        self.v, self.a, self.b = v, a, b

    def __add__(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v + o.v, self.a + o.a, self.b + o.b)

    def __mul__(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v * o.v, self.a * o.v + self.v * o.a, self.b * o.v + self.v * o.b)

    def sin(self) -> "_Dual":
        c = math.cos(self.v)
        return _Dual(math.sin(self.v), c * self.a, c * self.b)


_TREE = ("+", ("*", ("sin", "u"), "v"), ("*", "u", ("sin", ("+", "u", "v"))))


def _walk(node, env: dict) -> _Dual:
    if isinstance(node, str):
        return env[node]
    if node[0] == "sin":
        return _walk(node[1], env).sin()
    left, right = _walk(node[1], env), _walk(node[2], env)
    return left + right if node[0] == "+" else left * right


def kernel(points: int = 150) -> float:
    acc = 0.0
    for i in range(points):
        env = {"u": _Dual(0.01 * i, 1.0), "v": _Dual(0.5, 0.0, 1.0)}
        jets = [_walk(_TREE, env) for _ in range(3)]
        du = np.array([j.a for j in jets])
        dv = np.array([j.b for j in jets])
        acc += float(np.linalg.norm(np.cross(du, dv)))
    return acc


def measure() -> float:
    """Median seconds of ``REPEATS`` kernel runs (about 30 ms in all)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def serve() -> None:
    """Answer each line on stdin with one reading on stdout, until EOF."""
    for _ in sys.stdin:
        print(repr(measure()), flush=True)


class Clock:
    """Calibrates pieces of timed work against readings of the kernel
    process.

    :meth:`piece` records the wall time of a finished piece.  Once at least
    ``MIN_SPAN_S`` of work has piled up since the last reading (or on
    :meth:`flush`), a new reading is taken, and each pending piece is
    scaled by the mean of the two readings around it.  Use as a context
    manager, so that the kernel process is stopped."""

    def __init__(self, min_span_s: float = MIN_SPAN_S):
        self.min_span_s = min_span_s
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "serve"],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.readings: list[float] = []
        self.reading_wall_s = 0.0  # wall time spent waiting for readings
        self.piece_wall_s = 0.0    # wall time of all pieces recorded
        self._pending: list[tuple[str, float]] = []
        self._since = 0.0
        self.done: list[tuple[str, float, float]] = []  # (kind, wall s, calibrated s)
        self._read()

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def _read(self) -> float:
        t0 = time.perf_counter()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        self.reading_wall_s += time.perf_counter() - t0
        if not line:
            raise RuntimeError("calibration process ended")
        self.readings.append(float(line))
        return self.readings[-1]

    def piece(self, kind: str, wall: float) -> None:
        self._pending.append((kind, wall))
        self._since += wall
        self.piece_wall_s += wall
        if self._since >= self.min_span_s:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self._read()
        scale = NOMINAL_S / statistics.mean(self.readings[-2:])
        self.done += [(kind, wall, wall * scale) for kind, wall in self._pending]
        self._pending, self._since = [], 0.0


if __name__ == "__main__":
    if sys.argv[1:] != ["serve"]:
        sys.exit("usage: calibrate.py serve")
    serve()
