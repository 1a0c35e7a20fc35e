"""Two-hop Rayleigh fading model for a surface-assisted downlink.

The surface is split into per-user subsurfaces, each operating either in
transmission or reflection mode.  This module holds the per-hop path gain,
samples batches of the phase-aligned cascaded gain and of the same-zone
leakage, and exposes the gain's Gaussian (central-limit) moments.  The
per-element reference model lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from .rules import count, nonnegative, positive

if TYPE_CHECKING:
    import numpy as np

ZONES = ("transmission", "reflection")

# Moments of the product of two independent Rayleigh amplitudes with unit
# mean-square: E[|h||g|] = pi/4, Var[|h||g|] = 1 - pi^2/16 (per unit gain).
_MEAN_FACTOR = math.pi / 4.0
_VAR_FACTOR = 1.0 - math.pi**2 / 16.0

# Rows of the cascade's element draws handled at a time, so a call holds
# 16 KiB of float32 draws per element whatever the block size; chosen by
# measured speed.  The chunk size fixes the word layout (which generator
# words pair into E1 * E2); changing it changes the streams.
_CASCADE_ROWS = 2048


def path_gain(distance: float, exponent: float) -> float:
    """Power-law link gain ``distance**(-exponent)``.

    The overall two-hop gain of a BS-surface-user link is the product of
    the two per-hop gains.
    """
    return positive("distance", distance) ** -nonnegative("exponent", exponent)


def sample_cascade_batch(bs_gain: float, user_gain: float, elements: int,
                         size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of aligned cascaded gains, one per realization.

    Law-equivalent to sampling a per-element realization, aligning the
    user's own subsurface and taking the magnitude of its response (the
    reference model in ``tests/oracles.py``): the aligned response is the
    sum over elements of the two hop amplitudes' product.  The amplitudes
    are Rayleigh, ``|h| = sqrt(bs_gain * E1)`` and
    ``|g| = sqrt(user_gain * E2)`` with unit exponentials E1 and E2, so the
    gain is ``sqrt(bs_gain * user_gain) * sum_i sqrt(E1_i * E2_i)``.

    The exponentials are ``-log(1 - U)`` of float32 uniforms, products
    and roots are float32 and every row is summed in float64.  The
    uniforms are built from raw 64-bit generator words, low 32-bit half
    first: a half ``w`` gives ``1 - U = (2**24 - (w >> 8)) * 2**-24`` in
    (0, 1], so the log is finite.  On a generator with no buffered half
    (a fresh block generator) these are exactly the values and the end
    state of ``1 - rng.random(shape, dtype=float32)``, without that call's
    per-value overhead.  Rows are drawn ``_CASCADE_ROWS`` at a time into
    one reused buffer, which bounds the memory per call whatever ``size`` is.
    """
    import numpy as np
    if elements == 0:
        return np.zeros(size)
    out = np.empty(size)
    buf = np.empty(2 * min(size, _CASCADE_ROWS) * elements, dtype=np.float32)
    for start in range(0, size, _CASCADE_ROWS):
        stop = min(size, start + _CASCADE_ROWS)
        shape = (2, stop - start, elements)
        raw = rng.bit_generator.random_raw((stop - start) * elements)
        w = raw.astype("<u8", copy=False).view("<u4").reshape(shape)
        np.right_shift(w, 8, out=w)
        np.subtract(1 << 24, w, out=w)                        # 2**24 (1 - U)
        u = buf[:w.size].reshape(shape)
        np.copyto(u, w.view(np.int32), casting="unsafe")
        np.multiply(u, np.float32(2.0**-24), out=u)           # 1 - U
        log_u = np.log(u, out=u)                              # -E1, -E2
        root = np.multiply(log_u[0], log_u[1], out=log_u[0])  # E1 * E2
        np.sqrt(root, out=root)
        out[start:stop] = root.sum(axis=1, dtype=np.float64)
    return math.sqrt(bs_gain * user_gain) * out


def sample_leakage_noise_batch(bs_gain: float, user_gain: float, elements: int,
                               noise_var: float, size: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Real part of the same-zone leakage plus receiver noise, one per trial.

    Each of the ``elements`` leaking elements contributes its BS amplitude
    ``R_i`` (Rayleigh, ``E[R_i^2] = bs_gain``) times the real part of a
    circularly symmetric second hop, ``N(0, user_gain / 2)``; the
    per-element reference law is ``sample_interference_batch`` in
    ``tests/oracles.py``.  Given the amplitudes the sum is exactly Gaussian
    with variance ``(user_gain / 2) * sum R_i^2``, and
    ``sum R_i^2 ~ Gamma(elements, scale=bs_gain)``.  So one gamma draw sets
    each trial's realised leakage variance, and one normal draw carries the
    leakage and the noise of variance ``noise_var`` together.
    """
    import numpy as np
    variance = np.full(size, noise_var, dtype=float)
    if elements:
        variance += 0.5 * user_gain * rng.gamma(elements, bs_gain, size)
    return np.sqrt(variance, out=variance) * rng.standard_normal(size)


def clt_moments(overall_gain: float, elements: int) -> Tuple[float, float]:
    """Mean and variance of the aligned cascaded gain.

    The aligned gain is a sum of ``elements`` i.i.d. products of two
    Rayleigh amplitudes, so its Gaussian limit has mean
    ``(pi/4) * sqrt(overall_gain) * elements`` and variance
    ``(1 - pi^2/16) * overall_gain * elements``.
    """
    if count("elements", elements) == 0:
        return 0.0, 0.0
    positive("overall_gain", overall_gain)
    mean = _MEAN_FACTOR * math.sqrt(overall_gain) * elements
    variance = _VAR_FACTOR * overall_gain * elements
    return mean, variance
