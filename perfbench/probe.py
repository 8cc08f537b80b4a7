"""Core-speed probe: scales measured times to a core of fixed speed.

The benchmark's processes share one pinned CPU with this probe. Every
``PERIOD_S`` the probe times a fixed pure-Python kernel and appends
``<monotonic start> <duration>`` to a file. On a virtual CPU whose
hyperthread sibling is lent to other guests, the kernel's duration swings
by 1.5x or more within seconds, and the workload slows down with it. A
measured interval is therefore reported as its wall time multiplied by
``REF_PROBE_S`` over the mean probe duration in that interval: the time
it would take on a core where one probe takes ``REF_PROBE_S``.

    python3 perfbench/probe.py SAMPLES.txt    # runs until its parent exits
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import clock

# Nominal probe duration of the reference core. Only ratios between runs
# on one machine matter, so the constant just keeps values near seconds.
REF_PROBE_S = 0.0004
PERIOD_S = 0.01
# An interval shorter than this many samples borrows its nearest neighbours.
MIN_SAMPLES = 20


def kernel() -> None:
    d: dict[int, int] = {}
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0) + i


def sample_forever(path: Path) -> None:
    parent = os.getppid()
    with open(path, "w", encoding="utf-8", buffering=1) as fh:
        while os.getppid() == parent:
            start = clock()
            kernel()
            fh.write(f"{start} {clock() - start}\n")
            time.sleep(PERIOD_S)


class Probe:
    """The probe process of one benchmark run, as a context manager."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> Probe:
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()

    def samples(self) -> list[tuple[float, float]]:
        """(start, duration) of every complete sample, in time order."""
        out = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) == 2:
                out.append((float(fields[0]), float(fields[1])))
        return out


def mean_probe_s(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean probe duration over [start, end], widened to MIN_SAMPLES samples."""
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        inside = [d for _, d in nearest]
    if not inside:
        raise ValueError("the speed probe wrote no samples")
    return statistics.fmean(inside)


def scaled_s(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Wall time of [start, end] at the reference core speed."""
    return (end - start) * REF_PROBE_S / mean_probe_s(samples, start, end)


if __name__ == "__main__":
    sample_forever(Path(sys.argv[1]))
