"""Host-speed calibration: a fixed loop timed next to every estimator run.

On a small shared host the speed a process gets drifts by tens of percent
within minutes, as other tenants load the same cores and caches.  Wall time
alone then measures the host as much as the program.  The loop here does not
touch ``cbree``.  It mixes, in about equal shares of its time, the three
kinds of work the estimator does: interpreted Python, numpy element-wise
passes over an ensemble-sized vector and a small single-threaded BLAS
product.  So its time follows the host speed the estimator sees at that
moment.

``run.py`` times the loop before and after each run and divides the run's
wall time by the mean of the two.  Multiplied by ``REFERENCE_S``, the
loop's median time on the host the baseline was recorded on, this gives the
run's time in seconds at that host's reference speed.  A change to the
program moves it as it moves wall time; a change in host speed largely
cancels out of it.  Over ten seeds per workload on a 2-vCPU VM, the spread
(IQR over median) of the median run time fell from 0.11-0.17 in wall time
to 0.02-0.04 after this correction.
"""

from __future__ import annotations

import time

import numpy as np

# Median loop time on a 2-vCPU Intel Xeon VM with OpenBLAS on one thread.
# Fixed: it only sets the scale of the corrected times.
REFERENCE_S = 0.0110

_RNG = np.random.default_rng(0)
_VEC = _RNG.standard_normal(6000)
_MAT = _RNG.standard_normal((4000, 50))


def _python() -> float:
    s = 0.0
    for i in range(30000):
        s += i * 0.5 if i & 1 else -i
    return s


def _numpy() -> None:
    v = _VEC
    for _ in range(40):
        w = np.exp(v - v.max())
        w /= w.sum()
        np.sort(v)
        np.log1p(np.abs(v)).sum()
        np.cumsum(w)


def _blas() -> None:
    for _ in range(6):
        _MAT.T @ _MAT
        _MAT @ _MAT[0]


def probe() -> float:
    """Wall seconds of one pass of the calibration loop."""
    t0 = time.perf_counter()
    _python()
    _numpy()
    _blas()
    return time.perf_counter() - t0
