"""Host-speed sampling for timings on a shared machine.

On a shared host the same single-threaded work runs up to ~1.8x slower in
phases of a second to a minute, and CPU time inflates with wall time, so
neither medians over a short run nor CPU seconds are steady, and a yardstick
timed before and after a multi-second pass misses the phases inside it.
So while a measured interval runs, a timer signal interrupts it every
``INTERVAL_S`` and runs a fixed mini-kernel of a few milliseconds on the same
CPU.  The interval's time minus the kernels' time, scaled by
``CAL_REF_S / mean kernel time``, is reported: seconds at the speed where
the kernel takes ``CAL_REF_S`` (its fastest time on a 2-vCPU x86-64 VM with
Python 3.11, numpy 2.4 and OpenBLAS).  Measured this way the pass times of
each workload vary by 2-5% (coefficient of variation) where the raw times
vary by 9-20%.

The kernel is the benchmark's own code and never calls the package, so a
change to the package moves the measured time and not the yardstick.  It
reads and writes only its own arrays, so the interrupted computation gives
bit-identical results.  Its mix follows the workloads: a third of its time
in small-array numpy calls bound by interpreter overhead, an assignment
solve, complex exponentials and a complex matrix product, two thirds in
the (N, P, d) contractions the diagnostics make; with only the first part
the diagnostics workload varied twice as much.
"""

from __future__ import annotations

import resource
import signal
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

CAL_REF_S = 0.0062
INTERVAL_S = 0.2

_rng = np.random.default_rng(20240711)
_X = _rng.uniform(-1.0, 1.0, (200, 2))
_THETA = np.linspace(-1.0, 1.0, 5)[:, None]
_W = np.full(5, 0.2)
_MEAN = np.full(200, 1.0 / 200)
_COST = _rng.uniform(size=(60, 60))
_PTS = _rng.uniform(-1.0, 1.0, 100)
_K = np.arange(-32, 33)
_G = _rng.normal(size=(200, 5, 2))
_H = _rng.normal(size=(200, 2, 2))
_GRAD = _rng.normal(size=(200, 2))


def kernel_s() -> float:
    """Seconds the mini-kernel takes right now."""
    t0 = time.perf_counter()
    for _ in range(60):
        phi = np.tanh(_X[:, 1:] @ _THETA.T)
        r = _W * (0.1 - _MEAN @ (_X[:, :1] * phi))
        out = np.empty_like(_X)
        out[:, 0] = phi @ r
        out[:, 1:] = (_X[:, :1] * (1.0 - phi * phi) * r) @ _THETA
    linear_sum_assignment(_COST)
    e = np.exp(-1j * np.outer(_PTS, _K))
    e.T @ e
    for _ in range(34):
        hg = np.einsum("nij,npj->npi", _H, _G)
        np.einsum("p,npi,npi->n", _W, hg, _G)
        np.einsum("n,nd,npd->p", _MEAN, _GRAD, _G)
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedSampler:
    """Runs the mini-kernel on a timer while the ``with`` body runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(kernel_s())

    def __enter__(self):
        kernel_s()  # the first call in a process runs up to 2x slow; keep it out
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def spent(self) -> float:
        """Seconds the kernels took inside the ``with`` body."""
        return sum(self.samples)

    def factor(self) -> float:
        """Multiply a time measured in the body by this for reference speed."""
        samples = self.samples or [kernel_s()]
        return CAL_REF_S * len(samples) / sum(samples)


@dataclass
class Measurement:
    result: object
    wall_s: float      # excluding the kernels
    cpu_s: float       # excluding the kernels
    kernel_s: float    # time the kernels took inside the interval
    factor: float      # multiply a time by this for reference speed


def measured(fn) -> Measurement:
    """Run ``fn`` under a speed sampler."""
    with SpeedSampler() as sampler:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        result = fn()
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return Measurement(result, wall - sampler.spent, cpu - sampler.spent, sampler.spent,
                       sampler.factor())
