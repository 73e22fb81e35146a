"""Machine-speed probe, run in a helper process of its own.

On the shared 2-vCPU Xeon host where the baseline was measured, speed
swings between a fast and a slow state for tens of seconds at a time: the
same command takes up to 1.5x longer, in CPU time as well as wall time,
so it is not steal or queueing but a slower core.  Timed runs therefore
time this fixed kernel between commands and report times rescaled to the
probe's nominal speed:

    normalised time = measured time * NOMINAL_MS / probe time around it

Over ten 20-second runs on that host, raw times spread up to 0.38 of
their median, beyond the 0.25 bound (bench/BASELINE.md).  The probe is
interpreted Python and numpy object construction.  It has no vectorised
numpy over large arrays: timed apart from the rest, such a kernel did not
follow the host's speed (normalised by it alone, spreads were 0.05-0.21;
by the two parts kept, 0.03-0.05).  The probe runs in its own process,
started by the worker after set-up, and only while the worker waits for
its answer: no heap, garbage or thread the program leaves behind is in
the process that is timed, so no change to the program moves the probe.
Both processes are pinned to one CPU (bench/run.py), so the probe times
the core the commands run on; unpinned, single probes read up to 29 ms
against a median of 4, pinned at most 5.

    python3 bench/probe.py    # serve: one probe time (ms) per input line
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Probe time that normalised figures are expressed against (about the
# probe's time in the fast state of a Xeon host at 2 vCPUs).
NOMINAL_MS = 3.0


def probe_ms() -> float:
    start = time.perf_counter_ns()
    s = 0
    for i in range(20000):
        s += i * i % 7
    for i in range(200):
        np.random.SeedSequence(i).generate_state(2)
    return (time.perf_counter_ns() - start) / 1e6


class Helper:
    """The probe process.  `ms()` runs one probe there and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.ms()  # the first probe runs cold; it also waits for the start-up

    def ms(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process exited with code {self.proc.wait()}")
        return float(line)

    def median_ms(self, repeats: int) -> float:
        return statistics.median(self.ms() for _ in range(repeats))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    while sys.stdin.readline():
        print(repr(probe_ms()), flush=True)


if __name__ == "__main__":
    serve()
