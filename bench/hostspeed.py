"""Host speed, measured by a fixed reference kernel between timed sections.

On the small shared VM the benchmark was tuned on, the CPU's speed switches
between two levels about 1.5x apart, for seconds to minutes at a time.  The
process's CPU time tracks its wall time and steal time does not grow, so
the slowdown is not the program's.  A spell longer than a run moves every
statistic taken inside the run.  So every pass and every set-up is followed
by a run of a reference kernel, and times are scaled by
``REF_S / kernel time``: to what they would have taken at the host speed
where the kernel takes ``REF_S``.

A set-up is scaled by the kernel runs just before and after it.  The passes
are scaled together, by the mean of all the run's kernel runs: those times
are bimodal, so their median flips with the share of slow spells, while
their mean, like the passes' total time, moves in proportion to it.

The kernel is the benchmark's own code, the same on every commit, so a
change to the program moves a scaled time as it moves the raw one.  It
mixes what the workloads spend their time on: small GEMMs of the conv
encoder's shapes, many small numpy calls, plain Python, and a memory-bound
sort.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A typical time of the kernel on the measurement host (2-vCPU
# x86_64 VM, one BLAS thread); only the unit of scaled times depends on it.
REF_S = 0.08

_rng = np.random.default_rng(0)
_cols = _rng.standard_normal((1118, 512))   # conv layer 1 of a 1.4 s utterance
_w = _rng.standard_normal((512, 64))
_vecs = [_rng.standard_normal(64) for _ in range(8)]
_big = _rng.standard_normal(1 << 19)


def reference_s() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(12):
        (_cols @ _w).T.copy()
    for i in range(6000):
        v = _vecs[i & 7] * _vecs[(i + 1) & 7]
        v.sum()
        np.maximum(v, 0.0)
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i & 255] = counts.get(i & 255, 0) + i * 3
    for _ in range(4):
        np.sort(_big)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-kernel runs between the timed sections of one run."""

    def __init__(self) -> None:
        reference_s()   # the first run pays for page faults and caches
        self.runs = [reference_s()]

    def measure(self) -> float:
        """Run the kernel after a timed section; return the section's time scale.

        The scale is ``REF_S`` over the mean of this run and the one before
        the section; a section's time times its scale is its time at the
        reference host speed.
        """
        self.runs.append(reference_s())
        return 2 * REF_S / (self.runs[-2] + self.runs[-1])

    def run_scale(self) -> float:
        """Time scale of the whole run: ``REF_S`` over the mean kernel time."""
        return REF_S / statistics.fmean(self.runs)
