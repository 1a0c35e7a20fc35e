"""Closed-form and semi-analytical error-rate expressions.

Everything here works with the Gaussian model of the aligned cascaded
gain: the conditional error rate given a gain value, a numeric
quadrature oracle that averages it over the gain distribution with the
exact Gaussian tail, the exponential-approximation closed form, its
high-SNR limit (the interference-induced error floor), and the two-user
imperfect-cancellation combination.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import integrate
from scipy.special import erfc, erfcx

from .channel import clt_moments
from .errors import (
    InvalidParameterError,
    NoErrorFloor,
    NumericError,
    UnsupportedScenarioError,
)
from .noma import PowerAllocation
from .rules import count, positive

# Coherent BPSK over circularly symmetric disturbance: only half of the
# complex noise-plus-interference power lands on the decision axis, so the
# effective SNR in every Gaussian-tail argument carries a factor 2.
COHERENT_SNR_FACTOR = 2.0


class PowerConventionWarning(UserWarning):
    """The interference-penalty formula is only exercised at unit transmit
    power; for other powers the interference scaling is a modelling choice."""


@dataclass(frozen=True)
class QApproxCoeffs:
    """Coefficients of the one-sided exponential tail fit exp(-a x^2 - b x - c)."""

    a: float = 0.3842
    b: float = 0.7640
    c: float = 0.6964

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise InvalidParameterError("fit coefficients must all be positive")


DEFAULT_COEFFS = QApproxCoeffs()


def q_exact(x):
    """Gaussian tail probability via the complementary error function.

    Machine accurate wherever the result is representable in double
    precision (the tail underflows past x of about 37.5).
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def q_approx(x, coeffs: QApproxCoeffs = DEFAULT_COEFFS):
    """Exponential tail approximation, valid for nonnegative arguments only."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise InvalidParameterError("the exponential tail fit is one-sided; x must be >= 0")
    return np.exp(-(coeffs.a * arr * arr + coeffs.b * arr + coeffs.c))


@dataclass(frozen=True)
class UserAnalyticParams:
    """Everything the error-rate expressions need to know about one user.

    ``index`` is zero-based; the weakest (highest-power) user is 0.
    ``zone_elements`` counts all elements of the surface part serving the
    user, so ``zone_elements - own_elements`` is the interference size.
    """

    index: int
    alloc: PowerAllocation
    overall_gain: float
    own_elements: int
    zone_elements: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.alloc.n_users:
            raise InvalidParameterError(f"user index {self.index} out of range")
        count("zone_elements", self.zone_elements, count("own_elements", self.own_elements))
        positive("overall_gain", self.overall_gain)

    @property
    def n_users(self) -> int:
        return self.alloc.n_users

    @property
    def co_zone_elements(self) -> int:
        return self.zone_elements - self.own_elements

    def gain_moments(self) -> Tuple[float, float]:
        """Gaussian moments (mean, variance) of the aligned cascaded gain."""
        return clt_moments(self.overall_gain, self.own_elements)


@dataclass(frozen=True)
class SignCombinationSet:
    """Interferer sign combinations of the residual amplitude after SIC.

    One amplitude per sign pattern of the weaker-power users; all patterns
    are equally likely.
    """

    amplitudes: Tuple[float, ...]
    weight: float

    def __post_init__(self) -> None:
        n = len(self.amplitudes)
        if n == 0 or n & (n - 1):
            raise InvalidParameterError("combination count must be a power of two")
        if abs(self.weight * n - 1.0) > 1e-12:
            raise InvalidParameterError("weights must sum to one")


def sign_combinations(user: int, alloc: PowerAllocation) -> SignCombinationSet:
    """All residual amplitudes sqrt(a_k P) +- sqrt(a_{k+1} P) +- ...

    The own term is fixed positive; every sign pattern over the weaker
    users appears once, with uniform probability 2**-(K - k - 1) in
    zero-based indexing.
    """
    if not 0 <= user < alloc.n_users:
        raise InvalidParameterError(f"user index {user} out of range")
    tail = alloc.amplitudes()[user + 1:]
    amps = [alloc.amplitude(user)]
    for t in tail:
        amps = [a + s * t for a in amps for s in (+1.0, -1.0)]
    return SignCombinationSet(tuple(amps), 2.0 ** -(len(tail)))


def interference_penalty(params: UserAnalyticParams, snr: float) -> float:
    """SNR deflation caused by same-zone subsurface leakage.

    Evaluates (1 + L * (N_zone - N_own) * snr / P)**-1; exactly 1 for a
    sole occupant.  The interference term's power scaling is only pinned
    down at unit transmit power, hence the warning otherwise.
    """
    if snr < 0:
        raise InvalidParameterError("snr must be nonnegative")
    extra = params.co_zone_elements
    if extra == 0:
        return 1.0
    power = params.alloc.power
    if abs(power - 1.0) > 1e-12:
        warnings.warn(
            "interference penalty with transmit power != 1 follows the "
            "printed-form scaling (gamma/P); the simulation engine scales "
            "interference with the physical power instead",
            PowerConventionWarning,
            stacklevel=2,
        )
    return 1.0 / (1.0 + params.overall_gain * extra * snr / power)


def effective_snr(params: UserAnalyticParams, snr: float) -> float:
    """Decision-axis SNR entering every tail argument: 2 * rho * snr."""
    return COHERENT_SNR_FACTOR * interference_penalty(params, snr) * snr


def asymptotic_effective_snr(params: UserAnalyticParams) -> float:
    """High-SNR limit of ``effective_snr``; only exists with interference."""
    extra = params.co_zone_elements
    if extra == 0:
        raise NoErrorFloor(
            f"user {params.index} is the sole occupant of its zone; "
            "its error rate keeps falling with SNR")
    return COHERENT_SNR_FACTOR * params.alloc.power / (params.overall_gain * extra)


def conditional_ber(phi, params: UserAnalyticParams, snr: float):
    """Error probability conditioned on the cascaded gain value.

    Mixture over interferer sign patterns of exact Gaussian tails:
    sum_i w * Q(A_i * phi * sqrt(2 rho snr)).  Accepts scalar or array
    ``phi``.
    """
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr < 0):
        raise InvalidParameterError("cascaded gain must be nonnegative")
    combos = sign_combinations(params.index, params.alloc)
    root = math.sqrt(effective_snr(params, snr))
    total = np.zeros_like(phi_arr)
    for amp in combos.amplitudes:
        total = total + q_exact(amp * phi_arr * root)
    result = combos.weight * total
    return float(result) if np.isscalar(phi) or phi_arr.ndim == 0 else result


def _gain_pdf(x, mu: float, v: float):
    return np.exp(-((x - mu) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def ber_numeric(params: UserAnalyticParams, snr: float, rel_tol: float = 1e-8) -> float:
    """Quadrature oracle: conditional error rate averaged over the gain PDF.

    Integrates with the exact Gaussian tail over
    [max(0, mu - 10 sigma), mu + 10 sigma] using adaptive Gauss-Kronrod
    refinement split at the mean.  The degenerate zero-variance case
    collapses to the conditional error rate at the mean.
    """
    mu, v = params.gain_moments()
    if v == 0.0:
        return float(conditional_ber(mu, params, snr))
    sigma = math.sqrt(v)
    lo = max(0.0, mu - 10.0 * sigma)
    hi = mu + 10.0 * sigma
    points = [mu] if lo < mu < hi else None

    def integrand(x: float) -> float:
        return float(conditional_ber(x, params, snr)) * float(_gain_pdf(x, mu, v))

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


def _log_erfcx(d: float) -> float:
    # erfcx(d) = exp(d^2) erfc(d); for very negative d the direct call
    # overflows while erfc(d) is simply 2 to machine precision.
    if d > -25.0:
        return float(np.log(erfcx(d)))
    return d * d + math.log(2.0)


def _closed_form_term(amp: float, mu: float, v: float, eff_snr: float,
                      coeffs: QApproxCoeffs) -> float:
    # Exact integral over [0, inf) of the exponential tail fit evaluated at
    # amp * x * sqrt(eff_snr) against an (unnormalised) Gaussian in x.
    beta = amp * math.sqrt(eff_snr)
    d = (coeffs.b * beta * v - mu) / math.sqrt(4.0 * coeffs.a * beta**2 * v**2 + 2.0 * v)
    log_term = (
        -coeffs.c
        - mu * mu / (2.0 * v)
        + _log_erfcx(d)
        - math.log(2.0)
        - 0.5 * math.log1p(2.0 * coeffs.a * beta**2 * v)
    )
    return math.exp(log_term)


def _closed_form_sum(params: UserAnalyticParams, eff_snr: float,
                     coeffs: QApproxCoeffs) -> float:
    mu, v = params.gain_moments()
    if v == 0.0:
        raise InvalidParameterError(
            "closed form divides by the gain variance; zero-element users "
            "have none (use the numeric oracle instead)")
    combos = sign_combinations(params.index, params.alloc)
    if min(combos.amplitudes) <= 0.0:
        raise InvalidParameterError(
            "a sign combination has non-positive amplitude; the one-sided "
            "tail fit does not cover this allocation")
    return combos.weight * sum(
        _closed_form_term(amp, mu, v, eff_snr, coeffs) for amp in combos.amplitudes)


def ber_closed_form(params: UserAnalyticParams, snr: float,
                    coeffs: QApproxCoeffs = DEFAULT_COEFFS) -> float:
    """Closed-form average error rate under the exponential tail fit.

    Each sign-combination term is the exact Gaussian integral of the fit,
    expressed through the scaled complementary error function; the only
    gap versus ``ber_numeric`` is the fit's own accuracy.
    """
    return _closed_form_sum(params, effective_snr(params, snr), coeffs)


def ber_asymptotic(params: UserAnalyticParams,
                   coeffs: QApproxCoeffs = DEFAULT_COEFFS) -> float:
    """High-SNR error floor: the closed form at the limiting effective SNR.

    Raises :class:`NoErrorFloor` for sole-occupant users, whose error rate
    vanishes with SNR instead of flattening.
    """
    return _closed_form_sum(params, asymptotic_effective_snr(params), coeffs)


def imperfect_sic_mixture(ber_own: float, prob_stage_correct: float) -> float:
    """Two-point mixture of the post-cancellation error rate.

    With probability ``prob_stage_correct`` cancellation succeeded and the
    own-symbol error rate applies; otherwise the decision is coin-flip bad.
    """
    if not 0.0 <= prob_stage_correct <= 1.0:
        raise InvalidParameterError("probability must lie in [0, 1]")
    return ber_own * prob_stage_correct + 0.5 * (1.0 - prob_stage_correct)


def ber_imperfect_sic(params_user2: UserAnalyticParams,
                      params_x1_at_user2: UserAnalyticParams,
                      snr: float,
                      coeffs: QApproxCoeffs = DEFAULT_COEFFS) -> float:
    """Two-user error rate of the cancelling user with detected (not genie) SIC.

    ``params_x1_at_user2`` describes the stronger user's symbol as decoded
    at the cancelling user's position: its sign-combination set with the
    cancelling user's channel moments.  The stronger user itself performs
    no cancellation, so its imperfect-SIC error rate equals its perfect-SIC
    one.
    """
    if params_user2.n_users != 2 or params_x1_at_user2.n_users != 2:
        raise UnsupportedScenarioError(
            "the imperfect-cancellation combination is derived for two users only")
    if params_user2.index != 1 or params_x1_at_user2.index != 0:
        raise UnsupportedScenarioError(
            "expected the cancelling user (index 1) and the stronger user's "
            "symbol seen at that position (index 0)")
    same_channel = (
        params_user2.overall_gain == params_x1_at_user2.overall_gain
        and params_user2.own_elements == params_x1_at_user2.own_elements
        and params_user2.zone_elements == params_x1_at_user2.zone_elements
    )
    if not same_channel:
        raise UnsupportedScenarioError(
            "both parameter sets must carry the cancelling user's channel")
    ber_own = ber_closed_form(params_user2, snr, coeffs)
    prob_stage_error = ber_closed_form(params_x1_at_user2, snr, coeffs)
    return imperfect_sic_mixture(ber_own, 1.0 - prob_stage_error)
