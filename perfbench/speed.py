"""CPU-speed reference for the benchmark's timings.

On a shared host the speed of one virtual CPU drifts by up to +-25% over
seconds to minutes as other tenants load the machine, and the drift differs
from one virtual CPU to the next.  The same instructions then take 9 s in
one run and 15 s in the next (a 2-core cloud VM), which would hide any
change to the program smaller than that.

``SpeedProbe`` pins the benchmark, and so every process it starts, to one
CPU, and runs a nice-19 process on the same CPU that repeats a fixed loop
of small-array numpy calls and interpreted Python, the same mix as the
program's own work, and logs the CPU time of each repetition.  At nice 19
the probe gets about 1.5% of the CPU, in short slices spread through every
measured interval, so the mean cost of its loop over an interval tracks the
speed that CPU ran at during the interval.  ``scaled`` turns a measured
interval into seconds at the reference speed ``REFERENCE_LOOP_S``.  The
probe shares no code with the program, so a change to the program cannot
move the reference.  On the VM above this cut the spread of ten runs'
timings from 19% to 3-5% of their median.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# CPU time of one probe loop at the reference speed: its typical cost while
# sharing a 2.0 GHz x86-64 cloud vCPU with the benchmark (CPython 3.11,
# numpy 2.4), so that scaled times read close to wall times there.
REFERENCE_LOOP_S = 1.1e-3

_PROBE = """
import os, sys, time
import numpy as np

X = np.linspace(0.1, 50.0, 330)
W = np.linspace(0.0, 1.0, 15)

def loop():
    # Small-array numpy calls between interpreted Python, like the program's own work.
    acc = []
    for k in range(12):
        s = X + k
        h = s**6 / (16000.0 + s**6)
        c = np.sinc(0.75 * (X - k) / np.pi)
        acc.append(float(np.einsum("pk,k->p", (h * c * c).reshape(22, 15), W).sum()))
        t = 0.0
        for i in range(300):
            t += (i * 0.5) % 3.0
        acc.append(t)
    return sum(acc)

os.nice(19)
log = open(sys.argv[1], "w", buffering=1)
while True:
    t = time.thread_time()
    loop()
    log.write(f"{time.perf_counter()!r} {time.thread_time() - t!r}\\n")
"""


class SpeedProbe:
    """The low-priority reference loop; a context manager that stops it on exit."""

    def __init__(self, workdir: Path, env: dict) -> None:
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.log = workdir / "speed.log"
        self.log.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, "-c", _PROBE, str(self.log)], env=env)
        while len(self._samples()) < 3 and self.proc.poll() is None:
            time.sleep(0.01)

    def __enter__(self) -> SpeedProbe:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()
        os.sched_setaffinity(0, self.cpus)

    def _samples(self) -> list[tuple[float, float]]:
        if not self.log.exists():
            return []
        lines = self.log.read_text().split("\n")[:-1]  # the last one may be half written
        return [(float(t), float(d)) for t, d in (line.split() for line in lines)]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that the interval [t0, t1] of time.perf_counter() takes at the reference speed."""
        samples = self._samples()
        inside = [d for t, d in samples if t0 <= t <= t1]
        if len(inside) < 3:  # a short interval: take the samples nearest to it
            mid = 0.5 * (t0 + t1)
            inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:3]]
        return (t1 - t0) * REFERENCE_LOOP_S / statistics.fmean(inside)
