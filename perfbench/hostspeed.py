"""Host-speed monitor: scales the benchmark's timings to a fixed host speed.

On a shared host the same code runs up to 2x slower while other tenants
load the physical cores, in spells from half a second to minutes. No
statistic over one run's own samples removes that, so the untraced run keeps
this monitor beside the worker: a child process that every PERIOD_S times a
fixed probe (Python bytecode and small numpy ops, like the swarm update) in
its own CPU time. CPU time leaves out waits for a core; it grows only when
the core itself runs slower.

A timed interval is then scaled by REFERENCE_PROBE_S / (mean probe time
over the interval): the seconds it would have taken on a host where the
probe takes REFERENCE_PROBE_S. The probe does not change with the program,
so a program that gets faster still reads faster, one to one.

The probe does not feel every kind of contention as the workloads do: in
some spells bench-d10 slowed ~1.3x and composition_3 at D=100 ~1.6x as much
as the probe, so scaled times still move by up to ~15% between spells.

    python3 perfbench/hostspeed.py <samples file>

runs the monitor until SIGTERM or until its parent ends.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.025          # one probe every 25 ms: ~4% of one core
REFERENCE_PROBE_S = 1e-3  # probe CPU time that defines the reference speed
MIN_WINDOW_S = 0.5        # shorter intervals use the probes of a window this wide
MIN_PROBES = 5


def now() -> float:
    """CLOCK_MONOTONIC, which every process on the host shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe(a) -> float:
    import numpy as np

    b, s = a.copy(), 0.0
    for i in range(150):
        b = np.clip(b * 0.7 + a * 0.3, -1.0, 1.0)
        s += float(b[i % 50, 0])
        for j in range(25):
            s += j * 0.5
    return s


def monitor(path: Path) -> None:
    """Write "<midpoint> <probe CPU seconds>" lines to path until stopped."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((50, 10))
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    with open(path, "w", encoding="utf-8") as out:
        due = now()
        while not stop and os.getppid() == parent:
            due += PERIOD_S
            time.sleep(max(0.0, due - now()))
            t0, c0 = now(), time.thread_time()
            _probe(a)
            c1, t1 = time.thread_time(), now()
            out.write(f"{(t0 + t1) / 2!r} {c1 - c0!r}\n")


class HostSpeed:
    """Starts the monitor; stop() ends it and returns its samples."""

    def __init__(self, path: Path):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])

    def stop(self) -> list[tuple[float, float]]:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        finally:
            self.path.unlink(missing_ok=True)
        return [(float(t), float(c)) for t, c in (ln.split() for ln in lines if ln.count(" ") == 1)]


def scale(samples: list[tuple[float, float]], t0: float, t1: float) -> float | None:
    """REFERENCE_PROBE_S / mean probe time over [t0, t1], the interval widened
    to MIN_WINDOW_S about its middle; None with fewer than MIN_PROBES probes."""
    half = max(t1 - t0, MIN_WINDOW_S) / 2
    mid = (t0 + t1) / 2
    probes = [c for t, c in samples if mid - half <= t <= mid + half]
    if len(probes) < MIN_PROBES:
        return None
    return REFERENCE_PROBE_S * len(probes) / sum(probes)


if __name__ == "__main__":
    monitor(Path(sys.argv[1]))
