"""Host-speed calibration: fixed numpy and scipy kernels timed between passes.

The host this benchmark was built on changes speed on its own, by up to
1.8x, in stretches of seconds to minutes (see README.md).  A kernel that
does the same kind of work as a workload slows down with it.  The
benchmark times a kernel before the first pass and after every pass, and
scales each pass's timings by ``reference / kernel time`` around it: the
result reads as seconds at the host's reference speed.  The kernels use
only numpy and scipy, so no change to starnoma can move them.

Two kernels, matched to the two kinds of work:

* ``mc``: two threads each sample and multiply two 16384 x 50 Rayleigh
  arrays, like one cascade block of the engine;
* ``py``: ``scipy.integrate.quad`` over a Python integrand built from
  ``math.erfc`` and ``math.exp``, like the quadrature oracle.

Set-up time is not scaled: it is mostly interpreter start and imports,
which this kernel does not track.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
from scipy import integrate

# Kernel seconds at the reference speed (the host's common state when the
# benchmark was defined).  They only set the scale of corrected timings.
REFERENCE_S = {"mc": 0.042, "py": 0.020}
SAMPLES = 3


def _mc_block(seed: int) -> float:
    rng = np.random.Generator(np.random.Philox(seed))
    h = rng.rayleigh(1.0, (16384, 50))
    g = rng.rayleigh(1.0, (16384, 50))
    return float((h * g).sum())


def _integrand(x: float) -> float:
    return 0.5 * math.erfc(0.7 * x) * math.exp(-0.5 * (x - 3.0) ** 2)


class Calibrator:
    """Times one kernel against its reference time."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference = REFERENCE_S[kind]
        self._pool = ThreadPoolExecutor(max_workers=2) if kind == "mc" else None
        self._kernel()  # warm-up: thread start and first-touch page faults

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _kernel(self) -> None:
        if self._pool is not None:
            list(self._pool.map(_mc_block, (1, 2)))
        else:
            for k in range(360):
                integrate.quad(_integrand, 0.0, 6.0 + 0.01 * k,
                               epsabs=1e-15, epsrel=1e-10, limit=200)

    def sample(self) -> float:
        """Median kernel seconds over SAMPLES back-to-back runs."""
        times = []
        for _ in range(SAMPLES):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def speed(self, before: float, after: float) -> float:
        """Host speed over a pass: reference ÷ the mean of the samples
        taken just before and just after it."""
        return 2.0 * self.reference / (before + after)
