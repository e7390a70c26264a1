"""Machine-speed probes: fixed pieces of work that never touch the package.

On a shared machine, such as the 2-CPU virtual machine the bounds in
BENCHMARK.json were set on (bench/DESIGN.md), speed flips between states
about 1.8x apart several times a second, and the share of time spent in
the slow state drifts over minutes: there one fixed ``norm_curve`` call
took 165 to 349 ms within one 40 s loop.  A 20 s run averages the flips
but not the drift.  So the worker interleaves a probe with the calls
(``SpeedProbe``) and the benchmark reports call times in reference
seconds:

    reference time = wall time * reference probe time / mean probe time of the run

Each workload uses the probe that does what its calls spend their time on
(``workloads.PROBE``): a miniature of the panel quadrature loop for the
quadrature workloads, large-array FFTs and elementwise passes for the grid
workload.  A probe never touches the package, so a change to the package
moves reference times as it moves wall times; the wall-clock values are
printed next to them in the report.
"""

from __future__ import annotations

import heapq
import time

import numpy as np
from numpy.fft import irfftn, rfftn  # bound here, so a tracer's wrappers never see the probe
from scipy.special import spherical_jn

# Share of the measured time spent probing, spread over the run.
PROBE_SHARE = 0.05

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_VANDER = np.polynomial.legendre.legvander(_NODES, 15).T * _WEIGHTS
_K = np.arange(16)


def _panel_work():
    """A miniature of adaptive panel quadrature: per panel, 16 nodes, a
    Legendre analysis, oscillatory moments and a heap of error indicators."""
    heap = []
    total = 0.0
    for i in range(40):
        mid, half = 1.0 + 0.1 * i, 0.05
        x = mid + half * _NODES
        f = np.exp(-x * x) * np.cos(3.0 * x)
        coef = _VANDER @ f
        moments = spherical_jn(_K, 3.0 * half * (i + 1))
        total += half * (float(_WEIGHTS @ f) + float(coef @ moments))
        heapq.heappush(heap, (-abs(float(coef[-1])), i, mid, half))
        if len(heap) > 16:
            heapq.heappop(heap)
    return total


def _array_work():
    # built afresh each time: a cached grid would add to the run's peak RSS
    grid = np.arange(1024 * 1024, dtype=float).reshape(1024, 1024) * 1e-6
    u = irfftn(1.5 * rfftn(grid), s=grid.shape, axes=(0, 1))
    return float(np.sum(np.exp(-u * u) * grid))


# Probe kinds and the probe time that defines one reference second, about
# the probe's time on the machine named in DESIGN.md.  Fixed for good:
# changing one makes old and new runs incomparable.
PROBES = {
    "panels": (_panel_work, 0.003),
    "array": (_array_work, 0.045),
}


# Set-up is import-bound, which neither probe above tracks.  Its probe is a
# fresh interpreter importing what ``import wavegrowth`` imports; the
# script prints the monotonic clock once the imports are done.
IMPORT_PROBE = "import time, numpy, scipy.special, scipy.integrate; print(time.monotonic())"
IMPORT_REF_S = 0.7


def probe_seconds(kind: str) -> float:
    """One timing of the fixed work of probe ``kind``."""
    work = PROBES[kind][0]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class SpeedProbe:
    """Probe timings worth ``PROBE_SHARE`` of the measured time, spread over a run.

    Called after each call (or pass) with its duration, it probes until the
    probe time has caught up with that share, so the samples spread over
    the run in proportion to time and their mean tracks the machine's mean
    speed over the run.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self._probed = 0.0
        self._measured = 0.0

    def after(self, seconds: float):
        self._measured += seconds
        while not self.samples or self._probed < PROBE_SHARE * self._measured:
            self.samples.append(probe_seconds(self.kind))
            self._probed += self.samples[-1]
