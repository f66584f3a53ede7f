"""Machine-speed reference for the end-to-end times.

The 2-vCPU VM the benchmark was defined on changes speed by up to a factor
of two, from second to second and from one process to the next, and every
raw wall time of a run follows it (NOTES.md, "Run-to-run spread").  A run
therefore also times a fixed mpmath loop in short chunks, a group of them
before the first round and after each round, and scales its times by
``REFERENCE_S / mean(chunk seconds)``: the result is seconds at the
reference speed.  The loop runs where the workload's operations run, in the
benchmark's process or in fresh interpreters, because the speed of one
process tracks that of another poorly.  It calls no package code, so a
change to the package does not move it; it does the same kind of work as the
oracle's hot loop (mpf products and quotients by exact integers at 128 bits).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from mpmath import mp

CHUNK_TERMS = 4000
# Median seconds of one chunk on the reference machine, over 468 chunks timed
# in benchmark runs: a 2-vCPU Intel Xeon VM, Python 3.11.7, mpmath 1.3.0 with
# its pure-Python backend.
REFERENCE_S = 0.068
# Share of a round's nominal time spent timing the loop after it.
SHARE = 0.08
CHILD = "import speed; print(*(speed.chunk() for _ in range({})))"


def chunk() -> float:
    """Seconds for one chunk of the reference loop."""
    t0 = perf_counter()
    with mp.workprec(128):
        term = total = mp.mpf(1)
        z, mu = mp.mpf(0.25), mp.mpf(0.5)
        for m in range(CHUNK_TERMS):
            term = term * ((2 * m + 1) ** 2 - 1600) * z / ((4 * (m + 1)) * (m + 1 + mu))
            total += term
            if abs(term) < 1e-30:
                term = mp.mpf(1)
    return perf_counter() - t0


class Speedometer:
    """Groups of reference-loop chunks, one before a run's first round and
    one after each round, so that they sample the whole run."""

    def __init__(self, round_seconds: float, fresh_interpreter: bool) -> None:
        self.per_round = max(2, round(SHARE * round_seconds / REFERENCE_S))
        self.fresh_interpreter = fresh_interpreter
        self.groups: list[list[float]] = []

    def sample(self) -> None:
        if not self.fresh_interpreter:
            self.groups.append([chunk() for _ in range(self.per_round)])
            return
        child = subprocess.run(
            [sys.executable, "-c", CHILD.format(self.per_round)],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True,
            check=True, timeout=60,
        )
        self.groups.append([float(c) for c in child.stdout.split()])

    def scale(self) -> float:
        """Factor from this run's wall seconds to seconds at the reference
        speed."""
        return REFERENCE_S / statistics.fmean(c for g in self.groups for c in g)
