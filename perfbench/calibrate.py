"""Reference kernel that tracks the speed of the machine during a run.

The benchmark was built on a shared 2-vCPU VM whose speed drifted by up
to 2x over seconds and minutes.  That drift moved raw timings by 10-35%
between runs of the same code.  Every reported time is therefore
normalized: the benchmark runs this fixed kernel interleaved with the
jobs and scales each measured time by NOMINAL_S / (kernel time measured
alongside it).  On 50-second tests the per-pass spread of a job list fell
from 9-20% raw to 2-5% normalized.

The kernel is a frozen mix of the kinds of work the workloads do:
- small-array numpy stencils in a Python loop (the radial-graph step);
- 4x4 eigensolves and matrix products (the scalar curvature algebra);
- dataclass churn in a Python loop (the scalar-law run loop);
- one row-wise recurrence over a few thousand rows (the *_rows kernels).

It never calls the package, so a change to the package cannot move it.
Changing this file changes every reported time: treat that as a new
benchmark and measure the baseline again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# kernel seconds that count as one normalized second per second
NOMINAL_S = 0.004

_Z = np.linspace(-0.6, 0.6, 96)
_RNG = np.random.default_rng(12345)
_MATRICES = []
for _ in range(16):
    _q, _ = np.linalg.qr(_RNG.standard_normal((4, 4)))
    _MATRICES.append((_q * _RNG.uniform(0.1, 2.0, 4)) @ _q.T)
_ROWS = _RNG.uniform(0.1, 1.0, (8000, 6))


@dataclass(frozen=True)
class _Record:
    t: float
    value: float


def reference_seconds() -> float:
    """Run the reference kernel once (about 4-6 ms) and return its time."""
    t0 = time.perf_counter()
    f = np.sqrt(4.0 - _Z * _Z)
    h = float(_Z[1] - _Z[0])
    for _ in range(120):
        d1 = np.empty_like(f)
        d1[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
        d1[0], d1[-1] = d1[1], d1[-2]
        d2 = np.empty_like(f)
        d2[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
        d2[0], d2[-1] = d2[1], d2[-2]
        w = np.sqrt(1.0 + d1 * d1)
        f = f - 1e-7 * (-d2 / w ** 3 + 1.0 / (f * w)) * w
    for a in _MATRICES:
        k = np.linalg.eigvalsh(a)
        p = np.eye(4)
        for _ in range(4):
            p = float(k.sum()) * np.eye(4) - p @ a
    records = []
    radius = 1.0
    for i in range(600):
        radius -= 1e-4 / radius
        records.append(_Record(t=i * 1e-4, value=abs(radius - 1.0)))
    e = np.zeros((_ROWS.shape[0], 7))
    e[:, 0] = 1.0
    for j in range(6):
        e[:, 1:j + 2] += _ROWS[:, j:j + 1] * e[:, 0:j + 1]
    return time.perf_counter() - t0
