"""Independent reference computations shared by the test modules.

Everything here is built from first principles (pattern enumeration,
density quadrature, Gaussian identities, per-element channel draws and a
scalar receiver) rather than from the package's own formula paths, so
agreement is evidence and not tautology.

Two groups of reference models live here:

* Analytic oracles: ``decision_region_oracle`` and ``probit_oracle``.
* The per-element channel model and the scalar receiver the vectorised
  Monte Carlo engine is checked against.  ``sample_realization`` draws
  every fading vector of one coherence interval, ``align_phases`` /
  ``align_all`` set the surface phases, and ``subsurface_response``,
  ``cascaded_gain`` and ``interference_coefficient`` read the composite
  coefficients off a realization.  ``sample_interference_batch`` is the
  batch law of the same-zone leakage.  ``superpose`` builds the
  superimposed BPSK sample, and ``sic_receive`` runs cancellation with
  ``mld_detect`` decisions, returning a ``DetectionOutcome``.  The engine
  draws the same laws in batches (``starnoma.channel.sample_cascade_batch``
  and ``starnoma.engine._block_errors``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

from starnoma.analytic import UserAnalyticParams
from starnoma.channel import PathLossParams, SubsurfaceAllocation
from starnoma.errors import InvalidParameterError
from starnoma.noma import DETECTED, GENIE, SIC_MODES, PowerAllocation


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
    leak_var = params.overall_gain * params.co_zone_elements * alloc.power
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


def probit_oracle(params: UserAnalyticParams, snr: float) -> float:
    """Full-line Gaussian average of the exact-tail mixture.

    Uses the identity E[Q(t X)] = Q(t mu / sqrt(1 + t^2 v)) for Gaussian X;
    valid as an oracle when the gain distribution has negligible mass below
    zero and the upper truncation is immaterial.
    """
    mu, v = params.gain_moments()
    alloc = params.alloc
    k, K = params.index, params.n_users
    amps = [math.sqrt(a * alloc.power) for a in alloc.coefficients]
    eff = 2.0 * snr / (1.0 + params.overall_gain * params.co_zone_elements
                       * snr / alloc.power)
    total = 0.0
    patterns = list(itertools.product((1, -1), repeat=K - k - 1))
    for signs in patterns:
        m = amps[k] + sum(s * a for s, a in zip(signs, amps[k + 1:]))
        t = m * math.sqrt(eff)
        total += 0.5 * erfc(t * mu / math.sqrt(1.0 + t * t * v) / math.sqrt(2.0))
    return total / len(patterns)


# ---------------------------------------------------------------------------
# per-element channel model


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of every fading vector plus the surface phase configuration.

    ``bs_vectors[i]`` is the BS-to-subsurface-i vector (length ``counts[i]``),
    ``user_vectors[(k, i)]`` the subsurface-i-to-user-k vector for every
    subsurface in user k's own zone, and ``phases[i]`` the applied phase of
    each element of subsurface i.
    """

    alloc: SubsurfaceAllocation
    bs_vectors: Tuple[np.ndarray, ...]
    user_vectors: Dict[Tuple[int, int], np.ndarray]
    phases: Tuple[np.ndarray, ...]

    def with_phases(self, user: int, theta: np.ndarray) -> "ChannelRealization":
        new = list(self.phases)
        new[user] = np.asarray(theta, dtype=float)
        return replace(self, phases=tuple(new))


def _complex_normal(rng: np.random.Generator, variance: float, size: int) -> np.ndarray:
    # Circularly symmetric: variance split evenly between the two parts.
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def sample_realization(
    alloc: SubsurfaceAllocation,
    path_loss: Sequence[PathLossParams],
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw all fading vectors for one coherence interval.

    Every BS-side entry is i.i.d. complex Gaussian with per-entry variance
    equal to the BS-hop gain; every user-side entry uses the receiving
    user's own second-hop gain.  Phases start at zero.
    """
    if len(path_loss) != alloc.n_users:
        raise InvalidParameterError("one PathLossParams per user required")
    bs_vectors = tuple(
        _complex_normal(rng, path_loss[i].bs_gain(), alloc.counts[i])
        for i in range(alloc.n_users)
    )
    user_vectors: Dict[Tuple[int, int], np.ndarray] = {}
    for k in range(alloc.n_users):
        gain = path_loss[k].user_gain()
        for i in (k, *alloc.co_zone_users(k)):
            user_vectors[(k, i)] = _complex_normal(rng, gain, alloc.counts[i])
    phases = tuple(np.zeros(n) for n in alloc.counts)
    return ChannelRealization(alloc, bs_vectors, user_vectors, phases)


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
    for k in range(realization.alloc.n_users):
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
    for i in realization.alloc.co_zone_users(user):
        total += subsurface_response(realization, user, i)
    return total


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


def mld_detect(residual: complex, effective_gain: float, power_term: float) -> int:
    """Minimum-distance BPSK decision.

    argmin over {+1, -1} of |residual - power_term * gain * candidate|^2,
    which reduces to the sign of the real part; exact ties resolve to +1.
    """
    if effective_gain < 0:
        raise InvalidParameterError("effective gain must be nonnegative")
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
    if mode == GENIE:
        if true_symbols is None:
            raise InvalidParameterError("genie mode requires the true symbols")
        if len(true_symbols) < user:
            raise InvalidParameterError("genie mode needs one true symbol per stage")
    residual = complex(y)
    stages = []
    for j in range(user):
        detected_j = mld_detect(residual, effective_gain, alloc.amplitude(j))
        subtract = _check_symbol(true_symbols[j]) if mode == GENIE else detected_j
        residual -= alloc.amplitude(j) * effective_gain * subtract
        stages.append(detected_j)
    final = mld_detect(residual, effective_gain, alloc.amplitude(user))
    return DetectionOutcome(tuple(stages), final, mode)
