"""Monte Carlo bit-error-rate estimation for the surface-assisted downlink
and the single-hop classical baseline.

Trial model
-----------
Every trial draws a fresh channel realization (fast fading), superimposes
one BPSK symbol per user, adds the same-zone subsurface leakage and
circularly symmetric Gaussian noise, and runs the cancellation/detection
chain of the receiver under test.  Decisions depend on the real part of
the received sample only, so the quadrature component is never
materialised.

Interfering subsurfaces are phase-aligned to their own users, which makes
their composite coefficients circularly symmetric as seen by the observed
user; they carry unit-power streams decorrelated from the served stream
(a stream's sign then drops out of the composite term's distribution).

Trials are sharded into fixed-size blocks.  Block ``b`` draws from a
counter-based generator keyed by ``(seed, stream_key, b)``, blocks merge
in index order, and stopping rules fire at block boundaries, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analytic
from .analytic import UserAnalyticParams
from .channel import (
    ZONES,
    PathLossParams,
    SubsurfaceAllocation,
    clt_moments,
    path_gain,
    sample_cascade_batch,
)
from .errors import ConfigError, InvalidParameterError, NoErrorFloor, NumericError
from .noma import DETECTED, GENIE, SIC_MODES, PowerAllocation
from .rules import count, nonnegative, number, one_of, positive, power_coefficients

WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile

STAR_VARIANT = "star-ris-noma"
CLASSICAL_VARIANT = "classical-noma"
VARIANTS = (STAR_VARIANT, CLASSICAL_VARIANT)

SNR_AXIS = "snr_db"
ELEMENTS_AXIS = "elements"
POWER_AXIS = "power"
AXES = (SNR_AXIS, ELEMENTS_AXIS, POWER_AXIS)

THREADS_ENV = "STARNOMA_THREADS"

DEFAULT_BLOCK_SIZE = 1 << 16


def default_workers() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class UserSpec:
    """One user's geometry, zone, subsurface size and power share."""

    distance: float
    zone: str
    elements: int
    power_coefficient: float
    classical_distance: Optional[float] = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for either system variant."""

    variant: str
    users: Tuple[UserSpec, ...]
    bs_ris_distance: float = 50.0
    bs_exponent: float = 2.0
    ris_user_exponent: float = 2.0
    transmit_power: float = 1.0
    sic_mode: str = GENIE
    classical_exponent: float = 2.0

    def __post_init__(self) -> None:
        one_of("system.variant", self.variant, VARIANTS)
        one_of("system.sic_mode", self.sic_mode, SIC_MODES)
        positive("system.bs_ris_distance", self.bs_ris_distance)
        positive("system.transmit_power", self.transmit_power)
        for name in ("bs_exponent", "ris_user_exponent", "classical_exponent"):
            nonnegative(f"system.{name}", getattr(self, name))
        for i, u in enumerate(self.users):
            positive(f"users[{i}].distance", u.distance)
            one_of(f"users[{i}].zone", u.zone, ZONES)
            count(f"users[{i}].elements", u.elements)
            if u.classical_distance is not None:
                positive(f"users[{i}].classical_distance", u.classical_distance)
        power_coefficients("users[{}].power_coefficient",
                           [u.power_coefficient for u in self.users])

    @property
    def n_users(self) -> int:
        return len(self.users)

    def power_allocation(self) -> PowerAllocation:
        return PowerAllocation(tuple(u.power_coefficient for u in self.users),
                               self.transmit_power)

    def allocation(self) -> SubsurfaceAllocation:
        return SubsurfaceAllocation(tuple(u.elements for u in self.users),
                                    tuple(u.zone for u in self.users))

    def path_loss(self, user: int) -> PathLossParams:
        return PathLossParams(self.bs_ris_distance, self.users[user].distance,
                              self.bs_exponent, self.ris_user_exponent)

    def overall_gain(self, user: int) -> float:
        return self.path_loss(user).overall_gain()

    def classical_gain(self, user: int) -> float:
        d = self.users[user].classical_distance
        if d is None:
            raise ConfigError(f"users[{user}].classical_distance is required "
                              "for the classical variant")
        return path_gain(d, self.classical_exponent)

    def analytic_params(self, user: int) -> UserAnalyticParams:
        if self.variant != STAR_VARIANT:
            raise ConfigError("analytic parameters exist for the surface variant only")
        alloc = self.allocation()
        return UserAnalyticParams(
            index=user,
            alloc=self.power_allocation(),
            overall_gain=self.overall_gain(user),
            own_elements=alloc.counts[user],
            zone_elements=alloc.zone_total(user),
        )


def ordering_warnings(config: ScenarioConfig) -> Tuple[str, ...]:
    """Non-fatal check that power order is inverse to channel strength.

    Channel strength is measured by the mean cascaded gain (surface
    variant) or the single-hop gain (classical variant).
    """
    if config.variant == STAR_VARIANT:
        alloc = config.allocation()
        strength = [clt_moments(config.overall_gain(k), alloc.counts[k])[0]
                    for k in range(config.n_users)]
        label = "mean cascaded gain"
    else:
        strength = [config.classical_gain(k) for k in range(config.n_users)]
        label = "path gain"
    out = []
    for k in range(config.n_users - 1):
        if strength[k] > strength[k + 1]:
            out.append(
                f"user {k + 1} has higher power than user {k + 2} but also higher "
                f"{label} ({strength[k]:.6g} > {strength[k + 1]:.6g}); power order "
                "is normally inverse to channel strength")
    return tuple(out)


@dataclass(frozen=True)
class StoppingRule:
    """Stop at the first block boundary satisfying any enabled criterion."""

    min_errors: int = 200
    max_trials: int = 10**9
    target_ci_width: Optional[float] = None  # relative to the point estimate

    def __post_init__(self) -> None:
        count("min_errors", self.min_errors, 1)
        count("max_trials", self.max_trials, 1)
        if self.target_ci_width is not None:
            positive("target_ci_width", self.target_ci_width)


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion (well-behaved at 0)."""
    if trials < 1:
        raise InvalidParameterError("trials must be positive")
    if not 0 <= errors <= trials:
        raise InvalidParameterError("errors must lie in [0, trials]")
    n = float(trials)
    p = errors / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = p + z2 / (2.0 * n)
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    lo = max(0.0, (centre - half) / denom)
    hi = min(1.0, (centre + half) / denom)
    return lo, hi


@dataclass(frozen=True)
class BerEstimate:
    """Point estimate with binomial interval and reproducibility provenance."""

    errors: int
    trials: int
    ber: float
    ci_low: float
    ci_high: float
    seed: int
    stream_key: Tuple[int, ...]
    block_size: int
    blocks: int

    @property
    def underflow(self) -> bool:
        """No errors observed, so the interval is one-sided."""
        return self.errors == 0

    @staticmethod
    def from_counts(errors: int, trials: int, seed: int,
                    stream_key: Tuple[int, ...], block_size: int,
                    blocks: int) -> "BerEstimate":
        lo, hi = wilson_interval(errors, trials)
        return BerEstimate(errors, trials, errors / trials, lo, hi,
                           seed, stream_key, block_size, blocks)


# ---------------------------------------------------------------------------
# trial simulation


@dataclass(frozen=True)
class _TrialPlan:
    """Precomputed constants for simulating one (config, user) pair."""

    amplitudes: np.ndarray   # sqrt(a_j P), shape (K,)
    user: int
    sic_mode: str
    power: float
    own_elements: int
    bs_gain: float           # per-element first-hop gain
    user_gain: float         # per-element second-hop gain of this receiver
    co_zone_elements: int
    classical: bool = False
    classical_gain: float = 0.0


def _make_plan(config: ScenarioConfig, user: int) -> _TrialPlan:
    if not 0 <= user < config.n_users:
        raise InvalidParameterError(f"user index {user} out of range")
    amps = np.array(config.power_allocation().amplitudes())
    if config.variant == CLASSICAL_VARIANT:
        return _TrialPlan(
            amplitudes=amps, user=user, sic_mode=config.sic_mode,
            power=config.transmit_power, own_elements=0, bs_gain=0.0,
            user_gain=0.0, co_zone_elements=0,
            classical=True, classical_gain=config.classical_gain(user))
    alloc = config.allocation()
    pl = config.path_loss(user)
    return _TrialPlan(
        amplitudes=amps, user=user, sic_mode=config.sic_mode,
        power=config.transmit_power, own_elements=alloc.counts[user],
        bs_gain=pl.bs_gain(), user_gain=pl.user_gain(),
        co_zone_elements=alloc.co_zone_elements(user))


def _block_errors(plan: _TrialPlan, snr: float, rng: np.random.Generator, m: int) -> int:
    """Simulate ``m`` trials; return the observed own-bit error count."""
    k = plan.user
    n_users = plan.amplitudes.size
    sigma2 = plan.power / snr

    if plan.classical:
        gain = rng.rayleigh(math.sqrt(plan.classical_gain / 2.0), m)
    else:
        gain = sample_cascade_batch(plan.bs_gain, plan.user_gain,
                                    plan.own_elements, m, rng)

    bits = rng.integers(0, 2, (m, n_users)) * 2 - 1
    r = gain * (bits @ plan.amplitudes)

    if plan.co_zone_elements > 0:
        # Same-zone leakage: each element contributes (BS amplitude) times a
        # circularly symmetric second hop carrying a unit-power stream; only
        # the real part reaches decisions.
        shape = (m, plan.co_zone_elements)
        r = r + (rng.rayleigh(math.sqrt(plan.bs_gain / 2.0), shape)
                 * rng.normal(0.0, math.sqrt(plan.user_gain / 2.0), shape)
                 ).sum(axis=1)

    r = r + rng.normal(0.0, math.sqrt(sigma2 / 2.0), m)

    genie = plan.sic_mode == GENIE
    for j in range(k):
        sub = bits[:, j] if genie else np.where(r >= 0.0, 1, -1)
        r = r - plan.amplitudes[j] * gain * sub
    decision = np.where(r >= 0.0, 1, -1)
    return int(np.count_nonzero(decision != bits[:, k]))


def _block_rng(seed: int, stream_key: Tuple[int, ...], block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(*stream_key, block))
    return np.random.Generator(np.random.Philox(ss))


def _run_point(plan: _TrialPlan, snr_db: float, rule: StoppingRule, seed: int,
               stream_key: Tuple[int, ...], block_size: int,
               workers: Optional[int]) -> BerEstimate:
    snr = 10.0 ** (number("snr_db", snr_db) / 10.0)
    count("seed", seed)
    count("block_size", block_size, 1)
    n_workers = default_workers() if workers is None else max(1, workers)

    def run_block(b: int) -> int:
        return _block_errors(plan, snr, _block_rng(seed, stream_key, b), block_size)

    errors = 0
    trials = 0
    blocks = 0

    def stopped() -> bool:
        if trials >= rule.max_trials:
            return True
        if errors < rule.min_errors:
            return False
        if rule.target_ci_width is None:
            return True
        lo, hi = wilson_interval(errors, trials)
        return (hi - lo) <= rule.target_ci_width * (errors / trials)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        while not stopped():
            # Merge strictly in index order; once a stopping rule fires,
            # the wave's later (speculative) blocks are discarded.
            for res in pool.map(run_block, range(blocks, blocks + n_workers)):
                errors += res
                trials += block_size
                blocks += 1
                if stopped():
                    break

    return BerEstimate.from_counts(errors, trials, seed, stream_key,
                                   block_size, blocks)


def run_ber_point(config: ScenarioConfig, snr_db: float, user: int,
                  rule: StoppingRule = StoppingRule(), seed: int = 0,
                  stream_key: Tuple[int, ...] = (),
                  block_size: int = DEFAULT_BLOCK_SIZE,
                  workers: Optional[int] = None) -> BerEstimate:
    """Estimate one user's BER at one SNR point for the surface variant."""
    if config.variant != STAR_VARIANT:
        raise ConfigError("run_ber_point expects the surface variant; "
                          "use run_classical_point for the baseline")
    return _run_point(_make_plan(config, user), snr_db, rule, seed,
                      stream_key, block_size, workers)


def run_classical_point(config: ScenarioConfig, snr_db: float, user: int,
                        rule: StoppingRule = StoppingRule(), seed: int = 0,
                        stream_key: Tuple[int, ...] = (),
                        block_size: int = DEFAULT_BLOCK_SIZE,
                        workers: Optional[int] = None) -> BerEstimate:
    """Same trial loop with a single flat-fading BS-user coefficient."""
    if config.variant != CLASSICAL_VARIANT:
        raise ConfigError("run_classical_point expects the classical variant")
    return _run_point(_make_plan(config, user), snr_db, rule, seed,
                      stream_key, block_size, workers)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepCell:
    """One (axis value, user) result with its aligned analytic values."""

    axis_value: float
    user: int
    estimate: BerEstimate
    ber_closed_form: float
    ber_numeric: float
    ber_asymptotic: Optional[float]  # None means no floor exists
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    axis: str
    values: Tuple[float, ...]
    users: Tuple[int, ...]
    cells: Tuple[SweepCell, ...]
    seed: int
    warnings: Tuple[str, ...] = ()


def _config_at(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    if axis == SNR_AXIS:
        return config
    if axis == ELEMENTS_AXIS:
        n = count("sweep.values", value)
        users = tuple(replace(u, elements=n) for u in config.users)
        return replace(config, users=users)
    if axis == POWER_AXIS:
        if config.n_users != 2:
            raise ConfigError("sweep.axis=power supports exactly two users")
        if not 0.5 <= value < 1.0:
            raise ConfigError(f"sweep.values: the stronger-power coefficient must "
                              f"lie in [0.5, 1), got {value}")
        users = (replace(config.users[0], power_coefficient=value),
                 replace(config.users[1], power_coefficient=1.0 - value))
        return replace(config, users=users)
    raise ConfigError(f"sweep.axis must be one of {AXES}, got {axis!r}")


def _analytic_cell(config: ScenarioConfig, user: int, snr_db: float
                   ) -> Tuple[float, float, Optional[float], Tuple[str, ...]]:
    if config.variant != STAR_VARIANT:
        return float("nan"), float("nan"), None, ()
    params = config.analytic_params(user)
    snr = 10.0 ** (snr_db / 10.0)
    notes: List[str] = []
    nan = float("nan")

    # Detected-mode cancellation has its own analytic combination, derived
    # for two users; the non-cancelling user's value is mode-independent.
    if config.sic_mode == DETECTED and user > 0:
        if config.n_users != 2:
            return nan, nan, nan, (
                "detected-SIC analytics are derived for two users only",)
        params_x1 = replace(params, index=0)
        try:
            closed = analytic.ber_imperfect_sic(params, params_x1, snr)
        except InvalidParameterError as exc:
            closed = nan
            notes.append(f"imperfect-SIC closed form unavailable: {exc}")
        try:
            own = analytic.ber_numeric(params, snr)
            stage_err = analytic.ber_numeric(params_x1, snr)
            numeric = analytic.imperfect_sic_mixture(own, 1.0 - stage_err)
        except NumericError as exc:
            numeric = nan
            notes.append(f"numeric oracle failed for user {user + 1}: {exc}")
        if params.co_zone_elements == 0:
            asym: Optional[float] = None
        else:
            asym = nan
            notes.append("no high-SNR limit derived for detected SIC with "
                         "subsurface interference")
        return closed, numeric, asym, tuple(notes)

    try:
        closed = analytic.ber_closed_form(params, snr)
    except InvalidParameterError as exc:
        closed = nan
        notes.append(f"closed form unavailable for user {user + 1}: {exc}")
    try:
        numeric = analytic.ber_numeric(params, snr)
    except NumericError as exc:
        numeric = nan
        notes.append(f"numeric oracle failed for user {user + 1}: {exc}")
    try:
        asym = analytic.ber_asymptotic(params)
    except NoErrorFloor:
        asym = None
    except InvalidParameterError as exc:
        asym = nan
        notes.append(f"asymptote unavailable for user {user + 1}: {exc}")
    return closed, numeric, asym, tuple(notes)


def run_sweep(config: ScenarioConfig, axis: str, values: Sequence[float],
              users: Sequence[int], rule: StoppingRule = StoppingRule(),
              seed: int = 0, snr_db: Optional[float] = None,
              block_size: int = DEFAULT_BLOCK_SIZE,
              workers: Optional[int] = None) -> SweepResult:
    """One BER estimate per (axis value, user) plus aligned analytic series.

    ``snr_db`` is the fixed operating point for element-count and power
    sweeps and is ignored for SNR sweeps.  Cell-level numeric failures are
    recorded in the cell notes without aborting the sweep.
    """
    one_of("sweep.axis", axis, AXES)
    vals = tuple(number(f"sweep.values[{i}]", v) for i, v in enumerate(values))
    if not vals:
        raise ConfigError("sweep.values must be nonempty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("sweep.values must be strictly increasing")
    if axis != SNR_AXIS:
        if snr_db is None:
            raise ConfigError(f"sweep over {axis} needs a fixed snr_db")
        snr_db = number("sweep.snr_db", snr_db)
    user_list = tuple(int(u) for u in users)
    for u in user_list:
        if not 0 <= u < config.n_users:
            raise ConfigError(f"sweep.users: user {u + 1} out of range "
                              f"1..{config.n_users}")
    # Every point's config is built (and so checked) before any trial runs.
    point_configs = [_config_at(config, axis, value) for value in vals]

    warn = ordering_warnings(config)
    cells: List[SweepCell] = []
    for vi, (value, point_config) in enumerate(zip(vals, point_configs)):
        point_snr = value if axis == SNR_AXIS else snr_db
        for user in user_list:
            runner = (run_ber_point if config.variant == STAR_VARIANT
                      else run_classical_point)
            est = runner(point_config, point_snr, user, rule, seed,
                         stream_key=(vi, user), block_size=block_size,
                         workers=workers)
            closed, numeric, asym, notes = _analytic_cell(point_config, user, point_snr)
            if est.underflow:
                notes = notes + (f"no errors observed in {est.trials} trials; "
                                 "interval is one-sided",)
            cells.append(SweepCell(value, user, est, closed, numeric, asym, notes))
    return SweepResult(axis, vals, user_list, tuple(cells), seed, warn)
