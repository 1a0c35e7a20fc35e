"""Closed-form and semi-analytical error-rate expressions.

Everything here works with the Gaussian model of the aligned cascaded
gain: the conditional error rate given a gain value, an exact-tail
oracle that averages it over the gain distribution on ``[0, inf)`` in
closed form (a bivariate-normal orthant probability written with Owen's
T function), the exponential-approximation closed form, its high-SNR
limit (the interference-induced error floor), and the two-user
imperfect-cancellation combination.

The special functions are evaluated here in pure Python on top of
``math.erfc`` and ``math.exp``; the package imports no scipy at all, and
only the array helpers (``q_exact``, ``conditional_ber``) import numpy,
so the BER routes run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp  # a global name for the quadrature loops
from typing import Optional, Tuple

from .channel import clt_moments
from .errors import InvalidParameterError, NoErrorFloor, UnsupportedScenarioError
from .noma import PowerAllocation
from .rules import count, nonnegative, positive

# Coherent BPSK over circularly symmetric disturbance: only half of the
# complex noise-plus-interference power lands on the decision axis, so the
# effective SNR in every Gaussian-tail argument carries a factor 2.
COHERENT_SNR_FACTOR = 2.0


# Coefficients of the one-sided exponential tail fit exp(-a x^2 - b x - c).
FIT_A = 0.3842
FIT_B = 0.7640
FIT_C = 0.6964


_SQRT_HALF = 0.7071067811865476         # 1/sqrt(2), rounded
_SQRT_HALF_LO = -4.833646656726457e-17  # 1/sqrt(2) - _SQRT_HALF
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_2 = math.log(2.0)
_SPLIT = 134217729.0                    # 2**27 + 1, Veltkamp's splitter
# Past this argument the rounding of x*x or of x/sqrt(2), which costs up to
# x^2 ulps, is put back to first order (_gauss, _q).
_EXACT_PAST = 10.0


def _product_error(a: float, b: float) -> float:
    # a*b - fl(a*b), exactly (Dekker's two-product).
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    c = _SPLIT * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _gauss(x: float) -> float:
    # exp(-x^2 / 2), within 6e-15 relative at any x.
    g = exp(-0.5 * x * x)
    if abs(x) > _EXACT_PAST:
        g *= 1.0 - 0.5 * _product_error(x, x)
    return g


def _q(x: float) -> float:
    # Q(x) = erfc(x / sqrt 2) / 2.  erfc(r) falls with relative slope ~2r,
    # so rounding r = x / sqrt 2 costs ~x^2 ulps, and past _EXACT_PAST the
    # lost part e of r is put back.  Past 38 the tail underflows.
    r = x * _SQRT_HALF
    if not _EXACT_PAST < x < 38.0:
        return 0.5 * math.erfc(r)
    e = _product_error(x, _SQRT_HALF) + x * _SQRT_HALF_LO
    return 0.5 * math.erfc(r) * (1.0 - 2.0 * r * e)


_q_array = None  # np.frompyfunc(_q, 1, 1), built on first use


def q_exact(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt 2) / 2, for scalars or arrays.

    Within 2e-14 relative wherever the result is representable in double
    precision (the tail underflows past x of about 37.5).
    """
    global _q_array
    import numpy as np
    if _q_array is None:
        _q_array = np.frompyfunc(_q, 1, 1)
    # [()] returns a numpy scalar for scalar input and the array otherwise.
    return np.asarray(_q_array(np.asarray(x, dtype=float)), dtype=float)[()]


@dataclass(frozen=True)
class UserAnalyticParams:
    """Everything the error-rate expressions need to know about one user.

    ``index`` is zero-based; the weakest (highest-power) user is 0.
    ``zone_elements`` counts all elements of the surface part serving the
    user, so ``zone_elements - own_elements`` is the interference size.
    ``mean`` and ``variance`` (the Gaussian moments of the aligned cascaded
    gain, ``clt_moments``) and ``amplitudes`` (``sign_combinations``) are
    derived once here; the error-rate routines read them as they are.
    """

    index: int
    alloc: PowerAllocation
    overall_gain: float
    own_elements: int
    zone_elements: int
    mean: float = field(init=False, repr=False)
    variance: float = field(init=False, repr=False)
    amplitudes: Tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        count("zone_elements", self.zone_elements, count("own_elements", self.own_elements))
        positive("overall_gain", self.overall_gain)
        mean, variance = clt_moments(self.overall_gain, self.own_elements)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "amplitudes", sign_combinations(self.index, self.alloc))

    @property
    def n_users(self) -> int:
        return self.alloc.n_users

    @property
    def co_zone_elements(self) -> int:
        return self.zone_elements - self.own_elements


def sign_combinations(user: int, alloc: PowerAllocation) -> Tuple[float, ...]:
    """All residual amplitudes sqrt(a_k P) +- sqrt(a_{k+1} P) +- ...

    The own term is fixed positive; every sign pattern over the weaker
    users appears once, so there are 2**(K - k - 1) amplitudes in
    zero-based indexing, all equally likely: a mixture over them is
    their sum divided by their count.
    """
    if not 0 <= user < alloc.n_users:
        raise InvalidParameterError(f"user index {user} out of range")
    amps = [alloc.amplitude(user)]
    for t in alloc.amplitudes()[user + 1:]:
        amps = [a + s * t for a in amps for s in (+1.0, -1.0)]
    return tuple(amps)


def _root_effective_snr(params: UserAnalyticParams, snr: float) -> float:
    # sqrt(2 rho snr / P), the decision-axis SNR in every tail argument.
    # rho = (1 + L (N_zone - N_own) snr / P)**-1 is the deflation by
    # same-zone leakage, the interferers carrying unit power against noise
    # power P / snr; exactly 1 for a sole occupant.  snr is P / sigma^2 and
    # the amplitudes sqrt(a_k P) already carry P, so the division keeps it
    # from counting twice.  The root is taken factor by factor: 2 snr / P
    # overflows for snr past about 9e307, which rules.snr_from_db accepts.
    nonnegative("snr", snr)
    extra = params.co_zone_elements
    rho = 1.0 if extra == 0 else 1.0 / (1.0 + params.overall_gain * extra * snr
                                        / params.alloc.power)
    return (math.sqrt(COHERENT_SNR_FACTOR * rho)
            * math.sqrt(snr) / math.sqrt(params.alloc.power))


def conditional_ber(phi, params: UserAnalyticParams, snr: float):
    """Error probability conditioned on the cascaded gain value.

    Uniform mixture over interferer sign patterns of exact Gaussian tails:
    the mean over i of Q(A_i * phi * sqrt(2 rho snr / P)).  Accepts scalar or
    array ``phi``.
    """
    import numpy as np
    phi_arr = np.asarray(phi, dtype=float)
    if not np.all(phi_arr >= 0):
        raise InvalidParameterError("cascaded gain must be nonnegative, not NaN")
    amps = params.amplitudes
    root = _root_effective_snr(params, snr)
    total = np.zeros_like(phi_arr)
    for amp in amps:
        total = total + q_exact(amp * phi_arr * root)
    result = total / len(amps)
    return float(result) if np.isscalar(phi) or phi_arr.ndim == 0 else result


# Gauss-Legendre rules on [0, 1] as (node, weight), correctly rounded from
# 40-digit values.  Each rule is symmetric about 1/2, so only the nodes
# below 1/2 are written out.
def _mirror(half):
    return half + tuple((1.0 - u, w) for u, w in reversed(half))


_GL8 = _mirror((
    (0.019855071751231884, 0.05061426814518813),
    (0.10166676129318664, 0.11119051722668724),
    (0.2372337950418355, 0.15685332293894363),
    (0.4082826787521751, 0.181341891689181),
))
_GL12 = _mirror((
    (0.009219682876640375, 0.023587668193255914),
    (0.04794137181476257, 0.05346966299765921),
    (0.11504866290284765, 0.08003916427167311),
    (0.2063410228566913, 0.10158371336153296),
    (0.3160842505009099, 0.1167462682691774),
    (0.43738329574426554, 0.12457352290670139),
))
_GL16 = _mirror((
    (0.005299532504175033, 0.013576229705877048),
    (0.02771248846338371, 0.031126761969323947),
    (0.06718439880608412, 0.04757925584124639),
    (0.12229779582249849, 0.06231448562776694),
    (0.19106187779867811, 0.07479799440828837),
    (0.2709916111713863, 0.08457825969750127),
    (0.35919822461037054, 0.09130170752246179),
    (0.4524937450811813, 0.09472530522753425),
))
_GL24 = _mirror((
    (0.00240639000148932, 0.0061706148999936),
    (0.012635722014345251, 0.014265694314466832),
    (0.030862723998633622, 0.022138719408709904),
    (0.056792236497799485, 0.02964929245771839),
    (0.08999900701304854, 0.03667324070554015),
    (0.12993790421072282, 0.04309508076597664),
    (0.17595317403151223, 0.04880932605205694),
    (0.22728926430558022, 0.05372213505798282),
    (0.2831032461869774, 0.0577528340268628),
    (0.3424786601519183, 0.060835236463901696),
    (0.40444056626319186, 0.06291872817341415),
    (0.4679715535686972, 0.06396909767337608),
))

# Owen's T integrand depends on t through t^2 only: the same rules with
# squared nodes, by node count.
_SQUARED = {len(rule): tuple((u * u, w) for u, w in rule)
            for rule in (_GL8, _GL12, _GL16, _GL24)}

# Past t = _OWEN_CUT / h the integrand is below e^-37.8 of its value at 0,
# so once h a >= _OWEN_CUT, T(h, a) equals T(h, inf) = Q(h)/2 to about
# 1e-17 relative.
_OWEN_CUT = 8.7


def _owens_t(h: float, a: float, qh: Optional[float] = None) -> float:
    # Owen's T(h, a) = 1/(2 pi) int_0^a exp(-h^2 (1 + t^2) / 2) / (1 + t^2) dt,
    # even in h and odd in a.  qh, when the caller has it, is Q(|h|).
    if a < 0.0:
        return -_owens_t(h, -a, qh)
    h = abs(h)
    x = h * a
    if x >= _OWEN_CUT:
        return 0.5 * (_q(h) if qh is None else qh)
    if a > 1.0:
        # Owen (1956): T(h, a) + T(ah, 1/a) = Q(h)/2 + Q(ah)/2 - Q(h) Q(ah).
        qh, qx = (_q(h) if qh is None else qh), _q(x)
        return 0.5 * qh + qx * (0.5 - qh) - _owens_t(x, 1.0 / a, qx)
    # Gauss-Legendre on [0, a]: the pole at t = i is at least 2 half-widths
    # away, and x = h a sets how sharply the Gaussian factor falls across it.
    n = 8 if x < 1.0 and a < 0.25 else 12 if x < 2.0 else 16 if x < 5.0 else 24
    k = -0.5 * h * h
    aa = a * a
    total = 0.0
    for u2, w in _SQUARED[n]:
        t2 = aa * u2
        total += w * exp(k * t2) / (1.0 + t2)
    return a * _gauss(h) * total / (2.0 * math.pi)


def _tail_difference(m: float, width: float) -> float:
    # Q(m - width) - Q(m), the normal density integrated over [m - width, m]:
    # phi(m) width int_0^1 exp(s (m - s/2)) du with s = width u.  Eight
    # nodes hold it to 1e-16 while |width m| < 2.
    total = 0.0
    for u, w in _GL8:
        s = width * u
        total += w * exp(s * (m - 0.5 * s))
    return width * _gauss(m) * total / _SQRT_2PI


def _positive_gain_tail(c: float, m: float, qm: float) -> float:
    # E[Q(c X) 1{X > 0}] for X ~ N(m, 1), given qm = Q(m): the orthant
    # probability P(Z > c X, X > 0) of a bivariate normal in Owen's T form (Owen 1956).
    if c < 0.0:
        return (1.0 - qm) - _positive_gain_tail(-c, m, qm)
    if c == 0.0:
        return 0.5 * (1.0 - qm)
    r = math.hypot(1.0, c)
    h = c * m / r
    # Q(m) / Q(h) is about exp(-(m - h) m), so once (m - h) m < 2 the
    # difference Q(h) - Q(m) would lose leading digits and the density is
    # integrated over [h, m] instead.  The width is written without
    # cancellation: at large c it is about m / 2c^2, and m minus the
    # rounded h has no correct digits.  (0 < h < m, as m > 0 here.)
    width = m / (r * (r + c))
    if abs(width * m) < 2.0:
        return 0.5 * _tail_difference(m, width) + _owens_t(h, 1.0 / c)
    qh = _q(h)
    return 0.5 * (qh - qm) + _owens_t(h, 1.0 / c, qh)


def ber_numeric(params: UserAnalyticParams, snr: float) -> float:
    """Exact-tail oracle: conditional error rate averaged over the gain PDF.

    Each sign-combination term E[Q(A phi sqrt(2 rho snr / P)) 1{phi > 0}] is
    evaluated exactly over ``[0, inf)``, the domain the closed form
    integrates over, so the closed-vs-oracle gap is the tail fit's error
    alone.  Against 50-digit quadrature it is within 2.5e-14 relative up
    to 60 dB on the figure presets, 2.3e-14 at 120 dB and 1e-14 at
    snr = 1e16.  The degenerate zero-variance case collapses to the
    conditional error rate at the mean.
    """
    mu, v = params.mean, params.variance
    root = _root_effective_snr(params, snr)
    amps = params.amplitudes
    # Plain loops, not sum(): from Python 3.12 sum() compensates float
    # rounding, and these loops give the same bits on every version.
    total = 0.0
    if v == 0.0:
        for amp in amps:
            total += _q(amp * mu * root)
        return total / len(amps)
    sigma = math.sqrt(v)
    scale, m = sigma * root, mu / sigma
    qm = _q(m)
    for amp in amps:
        total += _positive_gain_tail(amp * scale, m, qm)
    return total / len(amps)


def _closed_form_sum(params: UserAnalyticParams, root_snr: float) -> float:
    # Per term, the exact integral over [0, inf) of the exponential tail fit
    # evaluated at amp * x * root_snr against an (unnormalised) Gaussian in
    # x.  The argument d stays below FIT_B / (2 sqrt(FIT_A)) ~ 0.62, where
    # log(exp(d^2) erfc(d)) = d^2 + log(erfc(d)) needs no scaled form.
    mu, v = params.mean, params.variance
    if v == 0.0:
        raise InvalidParameterError(
            "closed form divides by the gain variance; zero-element users "
            "have none (use the numeric oracle instead)")
    amps = params.amplitudes
    if min(amps) <= 0.0:
        raise InvalidParameterError(
            "a sign combination has non-positive amplitude; the one-sided "
            "tail fit does not cover this allocation")
    # Each exponent is summed left to right, its constant terms first, and
    # the terms in a plain loop, as in ber_numeric.
    base = -FIT_C - mu * mu / (2.0 * v)
    two_v = 2.0 * v
    total = 0.0
    for amp in amps:
        beta = amp * root_snr
        bv = beta * v
        d = (FIT_B * bv - mu) / math.sqrt(4.0 * FIT_A * bv * bv + two_v)
        total += exp(base + d * d + math.log(math.erfc(d)) - _LOG_2
                     - 0.5 * math.log1p(2.0 * FIT_A * beta * bv))
    return total / len(amps)


def ber_closed_form(params: UserAnalyticParams, snr: float) -> float:
    """Closed-form average error rate under the exponential tail fit.

    Each sign-combination term is the exact Gaussian integral of the fit,
    expressed through the complementary error function in log space; the
    only gap versus ``ber_numeric`` is the fit's own accuracy.
    """
    return _closed_form_sum(params, _root_effective_snr(params, snr))


def ber_asymptotic(params: UserAnalyticParams) -> float:
    """High-SNR error floor: the closed form at the limiting effective SNR.

    Raises :class:`NoErrorFloor` for sole-occupant users, whose error rate
    vanishes with SNR instead of flattening.
    """
    extra = params.co_zone_elements
    if extra == 0:
        raise NoErrorFloor(f"user {params.index + 1} is the sole occupant of its zone; "
                           "its error rate keeps falling with SNR")
    # As the noise P / snr vanishes, 2 rho snr / P tends to 2 / (L N_c).
    return _closed_form_sum(
        params, math.sqrt(COHERENT_SNR_FACTOR / (params.overall_gain * extra)))


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
                      snr: float) -> float:
    """Two-user error rate of the cancelling user with detected (not genie) SIC.

    ``params_x1_at_user2`` describes the stronger user's symbol as decoded
    at the cancelling user's position: its sign-combination set with the
    cancelling user's channel moments.  The stronger user itself performs
    no cancellation, so its imperfect-SIC error rate equals its perfect-SIC
    one.  Any other pair is refused, a stage built with another power split
    included.
    """
    user, stage = params_user2, params_x1_at_user2
    if user.n_users != 2 or user.index != 1:
        raise UnsupportedScenarioError(
            "the imperfect-cancellation combination is derived for two users "
            "only, at the cancelling user (index 1)")
    if ((stage.index, stage.alloc, stage.overall_gain, stage.own_elements,
         stage.zone_elements) != (0, user.alloc, user.overall_gain,
                                  user.own_elements, user.zone_elements)):
        raise UnsupportedScenarioError(
            "expected the stronger user's symbol (index 0) with the cancelling "
            "user's channel, power split and power")
    root_snr = _root_effective_snr(user, snr)  # shared, as the channel is
    return imperfect_sic_mixture(_closed_form_sum(user, root_snr),
                                 1.0 - _closed_form_sum(stage, root_snr))
