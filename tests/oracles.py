"""Independent reference computations shared by the test modules.

Everything here is built from the model's own terms (pattern
enumeration, density quadrature, Gaussian identities written out with
``scipy.special.erfc`` or ``mpmath``, per-element channel draws and a
scalar receiver) rather than from the package's formula paths: the
oracles read only the inputs of a ``UserAnalyticParams`` (the power
split, gain, zone sizes and the gain moments ``clt_moments`` derives),
never its tail function or effective SNR, so agreement is evidence and
not tautology.

Two groups of reference models live here:

* Analytic oracles: ``decision_region_oracle``, ``probit_oracle``, and
  two gain averages of the exact-tail mixture over ``[0, inf)`` that
  ``starnoma.analytic.ber_numeric`` is checked against:
  ``quadrature_oracle`` (adaptive double-precision quadrature, within
  1e-6 relative down to BER ~1e-14) and ``mpmath_oracle`` (50-digit
  quadrature for the deep tail).  ``mpmath_owens_t`` is Owen's T
  function at 50 digits, for the region where ``scipy.special.owens_t``
  is itself off by more than 1e-14.
* The per-element channel model and the scalar receiver the vectorised
  Monte Carlo engine is checked against.  ``sample_realization(config,
  rng)`` draws every fading vector of one coherence interval of a
  ``ScenarioConfig`` (its users' subsurfaces, zones and hop gains, read
  from the config), ``align_phases`` /
  ``align_all`` set the surface phases, and ``subsurface_response``,
  ``cascaded_gain`` and ``interference_coefficient`` read the composite
  coefficients off a realization.  ``sample_rayleigh_cascade_batch`` and
  ``sample_interference_batch`` are the per-element batch laws of the
  aligned gain and of the same-zone leakage.  ``superpose`` builds the
  superimposed BPSK sample, and ``sic_receive`` runs cancellation with
  ``mld_detect`` decisions, returning a ``DetectionOutcome``.  The engine
  draws the same laws with fewer draws
  (``starnoma.channel.sample_cascade_batch`` and
  ``starnoma.channel.sample_leakage_noise_batch``); the cascade sampler
  must reproduce ``sample_float32_cascade_batch``, its float32-uniform
  predecessor, bit for bit.
* ``reference_block_errors``, the Monte Carlo block kernel written out
  with the draws in their stream order and ``CASCADE_ROWS`` as a literal,
  so the engine's kernel must keep its random streams, not just its law.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import integrate
from scipy.integrate import quad
from scipy.special import erfc

from starnoma.analytic import UserAnalyticParams
from starnoma.engine import CLASSICAL_VARIANT, ScenarioConfig
from starnoma.errors import InvalidParameterError, NumericError
from starnoma.noma import DETECTED, GENIE, SIC_MODES, PowerAllocation
from starnoma.rules import nonnegative


def decision_region_oracle(params: UserAnalyticParams, phi: float, snr: float) -> float:
    """Exhaustive interferer enumeration with quadrature tail integration.

    Patterns come straight from itertools, the decision-axis noise
    deviation from the physical variances (half the complex
    noise-plus-leakage power lands on the decision axis), and the tail
    mass from integrating the Gaussian density.
    """
    alloc = params.alloc
    k, K = params.index, params.n_users
    amps = [math.sqrt(a * alloc.power) for a in alloc.coefficients]
    noise_var = alloc.power / snr
    leak_var = params.overall_gain * params.co_zone_elements  # unit-power interferers
    sigma = math.sqrt((noise_var + leak_var) / 2.0)

    def tail(threshold: float) -> float:
        pdf = lambda w: math.exp(-w * w / (2 * sigma * sigma)) / (
            sigma * math.sqrt(2 * math.pi))
        val, _ = quad(pdf, -np.inf, -threshold, epsabs=1e-14, epsrel=1e-12,
                      limit=300)
        return val

    total = 0.0
    patterns = list(itertools.product((1, -1), repeat=K - k - 1))
    for signs in patterns:
        m = amps[k] + sum(s * a for s, a in zip(signs, amps[k + 1:]))
        total += tail(phi * m)
    return total / len(patterns)


def _tail_slopes(params: UserAnalyticParams, snr: float) -> list:
    """Q-argument per unit gain, A * sqrt(2 rho snr / P), one per interferer
    sign pattern (enumerated by itertools), from the physical powers."""
    alloc = params.alloc
    k, K = params.index, params.n_users
    amps = [math.sqrt(a * alloc.power) for a in alloc.coefficients]
    eff = 2.0 * snr / (1.0 + params.overall_gain * params.co_zone_elements
                       * snr / alloc.power) / alloc.power
    return [(amps[k] + sum(s * a for s, a in zip(signs, amps[k + 1:]))) * math.sqrt(eff)
            for signs in itertools.product((1, -1), repeat=K - k - 1)]


def probit_oracle(params: UserAnalyticParams, snr: float) -> float:
    """Full-line Gaussian average of the exact-tail mixture.

    Uses the identity E[Q(t X)] = Q(t mu / sqrt(1 + t^2 v)) for Gaussian X;
    valid as an oracle when the gain distribution has negligible mass below
    zero and the upper truncation is immaterial.
    """
    mu, v = params.mean, params.variance
    slopes = _tail_slopes(params, snr)
    total = 0.0
    for t in slopes:
        total += 0.5 * erfc(t * mu / math.sqrt(1.0 + t * t * v) / math.sqrt(2.0))
    return total / len(slopes)


def _gain_pdf(x, mu: float, v: float):
    return np.exp(-((x - mu) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def quadrature_oracle(params: UserAnalyticParams, snr: float, rel_tol: float = 1e-8) -> float:
    """Quadrature oracle: conditional error rate averaged over the gain PDF.

    The conditional error rate is the mean over ``_tail_slopes`` of
    Q(t x) = erfc(t x / sqrt 2) / 2, from ``scipy.special.erfc``, so no
    package formula enters.  Integrates it over
    [max(0, mu - 10 sigma), mu + 10 sigma] using adaptive Gauss-Kronrod
    refinement split at the mean.  The degenerate zero-variance case
    collapses to the conditional error rate at the mean.

    The absolute tolerance of 1e-15 and the truncated lower limit make it
    drift below BER ~1e-14 and fail by orders of magnitude in the deep
    tail, where the gain density's mass near zero dominates.
    """
    nonnegative("snr", snr)
    mu, v = params.mean, params.variance
    slopes = np.array(_tail_slopes(params, snr)) / math.sqrt(2.0)

    def conditional(x: float) -> float:
        return float(np.mean(0.5 * erfc(slopes * x)))

    if v == 0.0:
        return conditional(mu)
    sigma = math.sqrt(v)
    lo = max(0.0, mu - 10.0 * sigma)
    hi = mu + 10.0 * sigma
    points = [mu] if lo < mu < hi else None

    def integrand(x: float) -> float:
        return conditional(x) * float(_gain_pdf(x, mu, v))

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                integrand, lo, hi, points=points,
                epsabs=1e-15, epsrel=rel_tol, limit=200)
        except integrate.IntegrationWarning as exc:
            raise NumericError(
                f"gain-average quadrature did not converge on [{lo}, {hi}] "
                f"(snr={snr}, user={params.index}): {exc}") from exc
    if value < 0.0:
        raise NumericError(f"quadrature returned a negative probability {value}")
    return float(value)


def mpmath_oracle(params: UserAnalyticParams, snr: float) -> float:
    """Gain average of the exact-tail mixture at 50 significant digits.

    Integrates the Gaussian tails of every interferer sign pattern against
    the gain's Gaussian density over ``[0, inf)``, split at 0, mu +- 4 sigma
    and mu + 40 sigma.  About 0.2 s per call.
    """
    import mpmath as mp

    with mp.workdps(50):
        alloc = params.alloc
        k, K = params.index, params.n_users
        amps = [mp.sqrt(mp.mpf(a) * alloc.power) for a in alloc.coefficients]
        snr_mp = mp.mpf(snr)
        eff = 2 * snr_mp / (1 + mp.mpf(params.overall_gain) * params.co_zone_elements
                            * snr_mp / alloc.power) / alloc.power
        patterns = list(itertools.product((1, -1), repeat=K - k - 1))
        slopes = [(amps[k] + sum(s * a for s, a in zip(signs, amps[k + 1:])))
                  * mp.sqrt(eff) for signs in patterns]
        mu, v = mp.mpf(params.mean), mp.mpf(params.variance)
        sigma = mp.sqrt(v)

        def integrand(x):
            return sum(mp.ncdf(-t * x) for t in slopes) * mp.npdf(x, mu, sigma)

        splits = [x for x in (mu - 4 * sigma, mu, mu + 4 * sigma, mu + 40 * sigma)
                  if x > 0]
        total = mp.quad(integrand, [0, *splits, mp.inf])
        return float(total / len(patterns))


def mpmath_owens_t(h: float, a: float) -> float:
    """Owen's T(h, a) at 50 significant digits, for a >= 0.

    The defining integral with exp(-h^2/2) taken out, so the quadrature's
    absolute tolerance is relative to the result, split where the Gaussian
    factor falls; a > 1 goes through Owen's reflection, which costs
    nothing at this precision.
    """
    import mpmath as mp

    def owens_t(h, a):
        if a > 1:
            ah = a * h
            q, qa = mp.ncdf(-h), mp.ncdf(-ah)
            return q / 2 + qa / 2 - q * qa - owens_t(ah, 1 / a)
        splits = [c / h for c in (0.5, 1, 2, 4, 8, 16) if h > 0 and c / h < a]
        body = mp.quad(lambda t: mp.exp(-h * h * t * t / 2) / (1 + t * t), [0, *splits, a])
        return mp.exp(-h * h / 2) * body / (2 * mp.pi)

    with mp.workdps(50):
        return float(owens_t(abs(mp.mpf(h)), mp.mpf(a)))


# ---------------------------------------------------------------------------
# per-element channel model


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of every fading vector plus the surface phase configuration.

    ``bs_vectors[i]`` is the BS-to-subsurface-i vector (one entry per
    element of user i's subsurface),
    ``user_vectors[(k, i)]`` the subsurface-i-to-user-k vector for every
    subsurface in user k's own zone, and ``phases[i]`` the applied phase of
    each element of subsurface i.
    """

    config: ScenarioConfig
    bs_vectors: Tuple[np.ndarray, ...]
    user_vectors: Dict[Tuple[int, int], np.ndarray]
    phases: Tuple[np.ndarray, ...]

    def with_phases(self, user: int, theta: np.ndarray) -> "ChannelRealization":
        new = list(self.phases)
        new[user] = np.asarray(theta, dtype=float)
        return replace(self, phases=tuple(new))


def co_zone_users(config: ScenarioConfig, user: int) -> Tuple[int, ...]:
    """The other users served by the same surface part as ``user``."""
    zone = config.users[user].zone
    return tuple(i for i, u in enumerate(config.users)
                 if u.zone == zone and i != user)


def _complex_normal(rng: np.random.Generator, variance: float, size: int) -> np.ndarray:
    # Circularly symmetric: variance split evenly between the two parts.
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def sample_realization(config: ScenarioConfig,
                       rng: np.random.Generator) -> ChannelRealization:
    """Draw all fading vectors for one coherence interval.

    Every BS-side entry is i.i.d. complex Gaussian with per-entry variance
    equal to the BS-hop gain; every user-side entry uses the receiving
    user's own second-hop gain.  Phases start at zero.
    """
    counts = [u.elements for u in config.users]
    bs_vectors = tuple(_complex_normal(rng, config.bs_gain(), n) for n in counts)
    user_vectors: Dict[Tuple[int, int], np.ndarray] = {}
    for k in range(config.n_users):
        gain = config.user_gain(k)
        for i in (k, *co_zone_users(config, k)):
            user_vectors[(k, i)] = _complex_normal(rng, gain, counts[i])
    phases = tuple(np.zeros(n) for n in counts)
    return ChannelRealization(config, bs_vectors, user_vectors, phases)


def align_phases(realization: ChannelRealization, user: int) -> np.ndarray:
    """Phase vector that makes user's own cascade real and maximal.

    Each element's phase cancels the composite phase of its BS-side and
    user-side coefficients, so the subsurface response becomes the sum of
    amplitude products.
    """
    h = realization.bs_vectors[user]
    g = realization.user_vectors[(user, user)]
    theta = -(np.angle(h) + np.angle(g))
    return np.mod(theta, 2.0 * math.pi)


def align_all(realization: ChannelRealization) -> ChannelRealization:
    """Align every subsurface to the user it serves."""
    out = realization
    for k in range(realization.config.n_users):
        out = out.with_phases(k, align_phases(realization, k))
    return out


def subsurface_response(realization: ChannelRealization, user: int, subsurface: int) -> complex:
    """Composite coefficient of one subsurface as seen by one user."""
    h = realization.bs_vectors[subsurface]
    g = realization.user_vectors[(user, subsurface)]
    theta = realization.phases[subsurface]
    return complex(np.sum(g * np.exp(1j * theta) * h))


def cascaded_gain(realization: ChannelRealization, user: int) -> float:
    """Magnitude of the user's own (aligned) subsurface response."""
    return abs(subsurface_response(realization, user, user))


def interference_coefficient(realization: ChannelRealization, user: int) -> complex:
    """Sum of the other same-zone subsurface responses seen by ``user``.

    Users alone in their zone get exactly 0j; the opposite part never
    contributes under mode switching.
    """
    total = 0j
    for i in co_zone_users(realization.config, user):
        total += subsurface_response(realization, user, i)
    return total


def sample_rayleigh_cascade_batch(bs_gain: float, user_gain: float, elements: int,
                                  size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of aligned cascaded gains drawn element by element.

    The aligned response is the sum of per-element products of the two hop
    amplitudes, which are Rayleigh with scales ``sqrt(gain/2)``; this
    matches :func:`cascaded_gain` on aligned realizations.
    """
    if elements == 0:
        return np.zeros(size)
    h = rng.rayleigh(math.sqrt(bs_gain / 2.0), (size, elements))
    g = rng.rayleigh(math.sqrt(user_gain / 2.0), (size, elements))
    return (h * g).sum(axis=1)


# Rows per chunk of the cascade draws.  The chunk fixes which generator
# words pair into E1 * E2, so it is part of the random streams.
CASCADE_ROWS = 2048


def sample_float32_cascade_batch(bs_gain: float, user_gain: float, elements: int,
                                 size: int, rng: np.random.Generator) -> np.ndarray:
    """Aligned cascaded gains from ``Generator.random(dtype=float32)`` draws.

    The uniform route ``starnoma.channel.sample_cascade_batch`` replaces:
    the exponentials are ``-log(1 - U)`` of float32 uniforms (``1 - U`` lies
    in (0, 1], so the log is finite), products and roots are float32 and
    every row is summed in float64, ``CASCADE_ROWS`` rows at a time.  The
    package builds the same uniforms from raw generator words and must
    match this bit for bit.
    """
    if elements == 0:
        return np.zeros(size)
    out = np.empty(size)
    for start in range(0, size, CASCADE_ROWS):
        stop = min(size, start + CASCADE_ROWS)
        u = rng.random((2, stop - start, elements), dtype=np.float32)
        np.subtract(1.0, u, out=u)
        log_u = np.log(u, out=u)                              # -E1, -E2
        root = np.multiply(log_u[0], log_u[1], out=log_u[0])  # E1 * E2
        np.sqrt(root, out=root)
        out[start:stop] = root.sum(axis=1, dtype=np.float64)
    return math.sqrt(bs_gain * user_gain) * out


def sample_interference_batch(bs_gain: float, user_gain: float, elements: int,
                              size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of composite same-zone leakage coefficients.

    Each leaking element contributes its BS-side amplitude times a fresh
    circularly symmetric coefficient: the element's phase is aligned to a
    user other than the observer, and rotating the observer's independent
    second-hop coefficient by that phase leaves its law unchanged.  This
    matches :func:`interference_coefficient` on aligned realizations.
    """
    if elements == 0:
        return np.zeros(size, dtype=complex)
    h = rng.rayleigh(math.sqrt(bs_gain / 2.0), (size, elements))
    scale = math.sqrt(user_gain / 2.0)
    g = scale * (rng.standard_normal((size, elements))
                 + 1j * rng.standard_normal((size, elements)))
    return (h * g).sum(axis=1)


def reference_block_errors(config: ScenarioConfig, user: int, snr: float,
                           rng: np.random.Generator, m: int) -> int:
    """Own-bit errors of ``user`` in ``m`` trials, drawn as the engine's block
    kernel draws them: gain (Rayleigh single hop, or the cascade), then
    every user's bits, then the same-zone leakage variance (gamma), then one
    normal per trial for leakage and noise together.  Cancellation uses the
    true bits (genie) or the sign of the residual (detected)."""
    amplitudes = np.array(config.power_allocation().amplitudes())
    bs_gain, user_gain = config.bs_gain(), config.user_gain(user)
    own = config.users[user].elements
    if config.variant == CLASSICAL_VARIANT:
        gain = rng.rayleigh(math.sqrt(config.classical_gain(user) / 2.0), m)
        co_zone = 0
    else:
        gain = sample_float32_cascade_batch(bs_gain, user_gain, own, m, rng)
        co_zone = config.zone_elements(user) - own
    bits = rng.integers(0, 2, (m, config.n_users)) * 2 - 1
    variance = np.full(m, config.transmit_power / snr / 2.0)
    if co_zone:
        variance += 0.5 * user_gain * rng.gamma(co_zone, bs_gain, m)
    r = gain * (bits @ amplitudes) + np.sqrt(variance) * rng.standard_normal(m)
    for j in range(user):
        sub = bits[:, j] if config.sic_mode == GENIE else np.where(r >= 0.0, 1, -1)
        r = r - amplitudes[j] * gain * sub
    return int(np.count_nonzero(np.where(r >= 0.0, 1, -1) != bits[:, user]))


# ---------------------------------------------------------------------------
# scalar superposition transmitter and SIC/MLD receiver


@dataclass(frozen=True)
class DetectionOutcome:
    """Stage-by-stage decisions of one receiver.

    ``stages`` holds the per-stage detections of the cancelled users in
    decoding order; ``final`` is the receiver's own-symbol decision.  In
    genie mode the subtraction uses the true symbols regardless of the
    stage decisions recorded here.
    """

    stages: Tuple[int, ...]
    final: int
    mode: str


def _check_symbol(x: int) -> int:
    if x not in (1, -1):
        raise InvalidParameterError(f"BPSK symbol must be +1 or -1, got {x}")
    return int(x)


def superpose(symbols: Sequence[int], alloc: PowerAllocation) -> float:
    """Superimposed baseband sample sum_k sqrt(a_k P) x_k (real for BPSK)."""
    if len(symbols) != alloc.n_users:
        raise InvalidParameterError(
            f"{alloc.n_users} symbols expected, got {len(symbols)}")
    return sum(alloc.amplitude(k) * _check_symbol(x) for k, x in enumerate(symbols))


def mld_detect(residual: complex) -> int:
    """Minimum-distance BPSK decision.

    argmin over {+1, -1} of |residual - c * candidate|^2 for any positive
    scale c (the cancelled user's amplitude times the effective gain),
    which reduces to the sign of the real part; exact ties resolve to +1.
    """
    return 1 if residual.real >= 0.0 else -1


def sic_receive(
    y: complex,
    user: int,
    effective_gain: float,
    alloc: PowerAllocation,
    mode: str = DETECTED,
    true_symbols: Sequence[int] | None = None,
) -> DetectionOutcome:
    """Cancel the stronger-power users in order, then detect the own symbol.

    For each stage j < ``user`` the receiver detects x_j by minimum-distance
    treating all remaining users as noise, then subtracts
    sqrt(a_j P) * effective_gain times the detected symbol (``detected``
    mode) or the true symbol (``genie`` mode).  User 0 skips cancellation.
    """
    if mode not in SIC_MODES:
        raise InvalidParameterError(f"mode must be one of {SIC_MODES}, got {mode!r}")
    if not 0 <= user < alloc.n_users:
        raise InvalidParameterError(f"user index {user} out of range")
    if effective_gain < 0:
        raise InvalidParameterError("effective gain must be nonnegative")
    if mode == GENIE:
        if true_symbols is None:
            raise InvalidParameterError("genie mode requires the true symbols")
        if len(true_symbols) < user:
            raise InvalidParameterError("genie mode needs one true symbol per stage")
    residual = complex(y)
    stages = []
    for j in range(user):
        detected_j = mld_detect(residual)
        subtract = _check_symbol(true_symbols[j]) if mode == GENIE else detected_j
        residual -= alloc.amplitude(j) * effective_gain * subtract
        stages.append(detected_j)
    final = mld_detect(residual)
    return DetectionOutcome(tuple(stages), final, mode)
