"""Two-hop Rayleigh fading model for a surface-assisted downlink.

The surface is split into per-user subsurfaces, each operating either in
transmission or reflection mode.  This module holds the per-hop path gain,
samples batches of the phase-aligned cascaded gain and of the same-zone
leakage, and exposes the gain's Gaussian (central-limit) moments.  The
per-element reference model lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Optional, Tuple

from .errors import BlockStopped
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

# A cascade term sqrt(E1 * E2) is a float32 below 24 ln 2 < 16.7 (each E is
# at most -log 2**-24).  Every term of a row is a whole multiple of the
# smallest term's ulp, which exceeds that term * 2**-24.  So when every term
# of a row of n exceeds n * 16.7 * 2**-29, the row's sum is below 2**53 such
# ulps: float64 holds every partial sum exactly, in any order of adding.
_EXACT_TERM = 16.7 * 2.0**-29

_scratch = threading.local()  # each thread's work arrays, made as it asks for them


def path_gain(distance: float, exponent: float) -> float:
    """Power-law link gain ``distance**(-exponent)``.

    The overall two-hop gain of a BS-surface-user link is the product of
    the two per-hop gains.
    """
    return positive("distance", distance) ** -nonnegative("exponent", exponent)


def scratch(name: str, size: int, dtype: str = "float64") -> np.ndarray:
    """The calling thread's work array ``name``: ``size`` values of type
    ``dtype`` from a buffer the thread keeps, grown to the largest size it
    has asked for and made anew when another dtype is asked for.

    A later call with the same name on the same thread returns the same
    memory, so a caller must be done with the array before asking again.
    """
    import numpy as np
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(size, dtype)
        setattr(_scratch, name, buf)
    return buf[:size]


def _row_sums(terms: np.ndarray, spare: np.ndarray, out: np.ndarray) -> None:
    """``terms.sum(axis=1, dtype=float64)`` into ``out``, bit for bit, for
    float32 cascade terms; ``spare`` holds ``terms.size`` float64 values.

    When float64 adds every row exactly (each term above ``_EXACT_TERM``
    per element), one matrix-vector product sums them in whatever order
    it takes, without the pairwise sum's per-row cost.  A zero draw or a
    smaller term sends the chunk to the pairwise sum itself.
    """
    import numpy as np
    if terms.min() > _EXACT_TERM * terms.shape[1]:
        wide = spare.reshape(terms.shape)
        np.copyto(wide, terms)
        np.matmul(wide, np.ones(terms.shape[1]), out=out)
    else:
        terms.sum(axis=1, dtype=np.float64, out=out)


def sample_cascade_batch(bs_gain: float, user_gain: float, elements: int,
                         size: int, rng: np.random.Generator,
                         out: Optional[np.ndarray] = None,
                         stop: Optional[threading.Event] = None) -> np.ndarray:
    """Batch of aligned cascaded gains, one per realization, written to
    ``out`` (``size`` float64 values) when given, else to a new array.
    If ``stop`` is set before a chunk of rows is drawn, the call raises
    :class:`BlockStopped` instead: the caller no longer wants the batch.

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
    the thread's :func:`scratch` buffer, which bounds the memory per call
    whatever ``size`` is; each chunk's raw words, once read, hold its
    float64 terms for :func:`_row_sums`.
    """
    import numpy as np
    if out is None:
        out = np.empty(size)
    if elements == 0:
        out.fill(0.0)
        return out
    buf = scratch("cascade", 2 * min(size, _CASCADE_ROWS) * elements, "float32")
    for start in range(0, size, _CASCADE_ROWS):
        if stop is not None and stop.is_set():
            raise BlockStopped("the cascade's caller has stopped")
        end = min(size, start + _CASCADE_ROWS)
        shape = (2, end - start, elements)
        raw = rng.bit_generator.random_raw((end - start) * elements)
        w = raw.astype("<u8", copy=False).view("<u4").reshape(shape)
        np.right_shift(w, 8, out=w)
        np.subtract(1 << 24, w, out=w)                        # 2**24 (1 - U)
        u = buf[:w.size].reshape(shape)
        np.copyto(u, w.view(np.int32), casting="unsafe")
        np.multiply(u, np.float32(2.0**-24), out=u)           # 1 - U
        log_u = np.log(u, out=u)                              # -E1, -E2
        root = np.multiply(log_u[0], log_u[1], out=log_u[0])  # E1 * E2
        np.sqrt(root, out=root)
        _row_sums(root, raw.view(np.float64), out[start:end])
    out *= math.sqrt(bs_gain * user_gain)
    return out


def sample_leakage_noise_batch(bs_gain: float, user_gain: float, elements: int,
                               noise_var: float, size: int,
                               rng: np.random.Generator,
                               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Real part of the same-zone leakage plus receiver noise, one per trial,
    written to ``out`` (``size`` float64 values) when given, else to a new
    array.

    Each of the ``elements`` leaking elements contributes its BS amplitude
    ``R_i`` (Rayleigh, ``E[R_i^2] = bs_gain``) times the real part of a
    circularly symmetric second hop, ``N(0, user_gain / 2)``; the
    per-element reference law is ``sample_interference_batch`` in
    ``tests/oracles.py``.  Given the amplitudes the sum is exactly Gaussian
    with variance ``(user_gain / 2) * sum R_i^2``, and
    ``sum R_i^2 ~ Gamma(elements, scale=bs_gain)``.  So one gamma draw sets
    each trial's realised leakage variance, and one normal draw carries the
    leakage and the noise of variance ``noise_var`` together.  The gamma
    is drawn as ``bs_gain * standard_gamma(elements)``, which is how the
    generator's ``gamma`` forms each value.  With no leaking elements the
    normals, drawn straight into the output, are the noise alone.
    """
    import numpy as np
    variance = np.empty(size) if out is None else out
    if not elements:
        rng.standard_normal(out=variance)
        variance *= math.sqrt(noise_var)
        return variance
    rng.standard_gamma(elements, out=variance)
    variance *= bs_gain
    variance *= 0.5 * user_gain
    variance += noise_var
    noise = rng.standard_normal(out=scratch("noise", size))
    np.sqrt(variance, out=variance)
    variance *= noise
    return variance


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
