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

Trials are sharded into fixed-size blocks; the last one is cut short so
that no more than ``max_trials`` trials run.  Block ``b`` draws from its
own PCG64 generator, seeded by ``SeedSequence(seed, spawn_key=(*stream_key,
b))``; blocks merge in index order, and stopping rules fire at block
boundaries, so results are bit-identical for any worker count.

A point submits its blocks in waves of ``workers`` to one thread pool per
process, with one thread per CPU, made at the first point (and again in
a forked child, which has none of its parent's threads).  A point
returns, or raises a block's error, only when every block it started has
finished.  Each thread keeps its block arrays (:func:`channel.scratch`)
at the size of the largest block it has run, so the memory of one
block is reused by the next instead of going back to the system.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import analytic
from .analytic import UserAnalyticParams
from .channel import (
    ZONES,
    clt_moments,
    path_gain,
    sample_cascade_batch,
    sample_leakage_noise_batch,
    scratch,
)
from .errors import ConfigError, InvalidParameterError, NoErrorFloor
from .noma import DETECTED, GENIE, SIC_MODES, PowerAllocation
from .rules import (count, increasing, nonempty, nonnegative, number, one_of,
                    positive, power_coefficients, snr_from_db, user_indices)

if TYPE_CHECKING:
    import numpy as np

WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile

STAR_VARIANT = "star-ris-noma"
CLASSICAL_VARIANT = "classical-noma"
VARIANTS = (STAR_VARIANT, CLASSICAL_VARIANT)

SNR_AXIS = "snr_db"
ELEMENTS_AXIS = "elements"
POWER_AXIS = "power"
AXES = (SNR_AXIS, ELEMENTS_AXIS, POWER_AXIS)

DEFAULT_BLOCK_SIZE = 1 << 16
STOP_MAX_TRIALS, STOP_MIN_ERRORS, STOP_CI_WIDTH = "max_trials", "min_errors", "ci_width"


@dataclass(frozen=True)
class UserSpec:
    """One user's geometry, zone, subsurface size and power share: the schema
    of a config's ``users`` entries, checked by :class:`ScenarioConfig`."""

    distance: float
    zone: str
    elements: int
    power_coefficient: float
    classical_distance: Optional[float] = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for either system variant; its fields
    other than ``users`` are the schema of a config's ``system`` section.

    Each value is stored as its rule in :mod:`starnoma.rules` returns it, so
    a config built in Python equals and hashes like its JSON form.
    """

    variant: str
    users: Tuple[UserSpec, ...]
    bs_ris_distance: float = 50.0
    bs_exponent: float = 2.0
    ris_user_exponent: float = 2.0
    transmit_power: float = 1.0
    sic_mode: str = GENIE
    classical_exponent: float = 2.0

    def __post_init__(self) -> None:
        checked = {
            "variant": one_of("system.variant", self.variant, VARIANTS),
            "sic_mode": one_of("system.sic_mode", self.sic_mode, SIC_MODES),
            "bs_ris_distance": positive("system.bs_ris_distance", self.bs_ris_distance),
            "transmit_power": positive("system.transmit_power", self.transmit_power),
            **{name: nonnegative(f"system.{name}", getattr(self, name))
               for name in ("bs_exponent", "ris_user_exponent", "classical_exponent")},
        }
        users = [{
            "distance": positive(f"users[{i}].distance", u.distance),
            "zone": one_of(f"users[{i}].zone", u.zone, ZONES),
            "elements": count(f"users[{i}].elements", u.elements),
            "classical_distance": None if u.classical_distance is None else
            positive(f"users[{i}].classical_distance", u.classical_distance),
        } for i, u in enumerate(self.users)]
        coeffs = power_coefficients("users[{}].power_coefficient",
                                    [u.power_coefficient for u in self.users])
        checked["users"] = tuple(UserSpec(power_coefficient=a, **u)
                                 for u, a in zip(users, coeffs))
        for i, u in enumerate(users):
            if checked["variant"] == CLASSICAL_VARIANT and u["classical_distance"] is None:
                raise ConfigError(f"users[{i}].classical_distance is required "
                                  "for the classical variant")
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def power_allocation(self) -> PowerAllocation:
        return PowerAllocation(tuple(u.power_coefficient for u in self.users),
                               self.transmit_power)

    def bs_gain(self) -> float:
        """Per-element gain of the BS-surface hop."""
        return path_gain(self.bs_ris_distance, self.bs_exponent)

    def user_gain(self, user: int) -> float:
        """Per-element gain of the surface-user hop of ``user``."""
        return path_gain(self.users[user].distance, self.ris_user_exponent)

    def overall_gain(self, user: int) -> float:
        """Composite per-element gain of the cascaded link."""
        return self.bs_gain() * self.user_gain(user)

    def zone_elements(self, user: int) -> int:
        """Element count of the surface part serving ``user``, its own
        subsurface included."""
        zone = self.users[user].zone
        return sum(u.elements for u in self.users if u.zone == zone)

    def classical_gain(self, user: int) -> float:
        """Gain of the single BS-user hop of ``user`` (classical variant)."""
        return path_gain(self.users[user].classical_distance, self.classical_exponent)

    def analytic_params(self, user: int) -> UserAnalyticParams:
        if self.variant != STAR_VARIANT:
            raise ConfigError("analytic parameters exist for the surface variant only")
        return UserAnalyticParams(
            index=user,
            alloc=self.power_allocation(),
            overall_gain=self.overall_gain(user),
            own_elements=self.users[user].elements,
            zone_elements=self.zone_elements(user),
        )


def ordering_warnings(config: ScenarioConfig) -> Tuple[str, ...]:
    """Non-fatal check that power order is inverse to channel strength.

    Channel strength is measured by the mean cascaded gain (surface
    variant) or the single-hop gain (classical variant).
    """
    if config.variant == STAR_VARIANT:
        strength = [clt_moments(config.overall_gain(k), u.elements)[0]
                    for k, u in enumerate(config.users)]
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

    def reason(self, errors: int, trials: int) -> Optional[str]:
        """The criterion (``STOP_*``) met by ``errors`` in ``trials``, checked
        in the order max_trials, min_errors, target_ci_width; None if none is."""
        if trials >= self.max_trials:
            return STOP_MAX_TRIALS
        if errors < self.min_errors:
            return None
        if self.target_ci_width is None:
            return STOP_MIN_ERRORS
        lo, hi = wilson_interval(errors, trials)
        return STOP_CI_WIDTH if (hi - lo) <= self.target_ci_width * (errors / trials) else None


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion; with no errors the
    lower end is exactly 0, and with every trial an error the upper end is
    exactly 1 (centre and half-width agree there only up to rounding)."""
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
    lo = 0.0 if errors == 0 else max(0.0, (centre - half) / denom)
    hi = 1.0 if errors == trials else min(1.0, (centre + half) / denom)
    return lo, hi


@dataclass(frozen=True)
class BerEstimate:
    """Point estimate, binomial interval, provenance and what stopped it (``STOP_*``)."""

    errors: int
    trials: int
    ber: float
    ci_low: float
    ci_high: float
    seed: int
    stream_key: Tuple[int, ...]
    block_size: int
    blocks: int
    stop_reason: str

    @property
    def underflow(self) -> bool:
        """No errors observed, so the interval is one-sided."""
        return self.errors == 0

    @staticmethod
    def from_counts(errors: int, trials: int, seed: int,
                    stream_key: Tuple[int, ...], block_size: int,
                    blocks: int, stop_reason: str) -> "BerEstimate":
        lo, hi = wilson_interval(errors, trials)
        return BerEstimate(errors, trials, errors / trials, lo, hi,
                           seed, stream_key, block_size, blocks, stop_reason)


# ---------------------------------------------------------------------------
# trial simulation


def _block_errors(config: ScenarioConfig, user: int, snr: float,
                  rng: np.random.Generator, m: int) -> int:
    """Simulate ``m`` trials of ``user``; return the observed own-bit error count.

    The arrays are the thread's :func:`scratch` buffers; each value is
    formed as in ``tests/oracles.py::reference_block_errors``, bit for bit.
    """
    import numpy as np
    amplitudes = np.array(config.power_allocation().amplitudes())  # sqrt(a_j P)
    sigma2 = config.transmit_power / snr
    bs_gain, user_gain = config.bs_gain(), config.user_gain(user)
    own = config.users[user].elements

    if config.variant == CLASSICAL_VARIANT:
        # One flat-fading BS-user coefficient; no surface, so no leakage.
        # A Rayleigh draw is mode * sqrt(2 * standard exponential) in numpy.
        gain = rng.standard_exponential(out=scratch("gain", m))
        gain *= 2.0
        np.sqrt(gain, out=gain)
        gain *= math.sqrt(config.classical_gain(user) / 2.0)
        co_zone = 0
    else:
        gain = sample_cascade_batch(bs_gain, user_gain, own, m, rng,
                                    out=scratch("gain", m))
        co_zone = config.zone_elements(user) - own

    bits = rng.integers(0, 2, (m, config.n_users))
    signs = scratch("signs", bits.size).reshape(bits.shape)
    np.multiply(bits, 2.0, out=signs)
    signs -= 1.0
    # Same-zone leakage and noise reach decisions through the real part only.
    leak = sample_leakage_noise_batch(bs_gain, user_gain, co_zone, sigma2 / 2.0, m,
                                      rng, out=scratch("leak", m))
    r = np.matmul(signs, amplitudes, out=scratch("r", m))
    r *= gain
    r += leak

    term, mask = scratch("term", m), scratch("mask", m, "bool")
    for j in range(user):
        np.multiply(gain, amplitudes[j], out=term)  # a_j |h|, then its sign
        if config.sic_mode == GENIE:
            term *= signs[:, j]
        else:  # the detected bit: r >= 0 (-0.0 included) decides +1
            np.negative(term, out=term, where=np.less(r, 0.0, out=mask))
        r -= term
    np.greater_equal(r, 0.0, out=mask)
    return int(np.count_nonzero(np.not_equal(mask, bits[:, user], out=mask)))


def _block_rng(seed: int, stream_key: Tuple[int, ...], block: int) -> np.random.Generator:
    import numpy as np
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(*stream_key, block))
    return np.random.Generator(np.random.PCG64(ss))


_pool = None  # (pid, executor): the process's block pool, made with the first point
_pool_lock = threading.Lock()


def _block_pool():
    """The process's block pool, one thread per CPU; a forked child, which
    has none of its parent's threads, makes its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor  # loaded with the first point
            _pool = (os.getpid(), ThreadPoolExecutor(max_workers=os.cpu_count() or 1))
        return _pool[1]


def _run_point(runner: str, variant: str, config: ScenarioConfig, snr_db: float,
               user: int, rule: StoppingRule, seed: int, stream_key: Tuple[int, ...],
               block_size: int, workers: int) -> BerEstimate:
    """The Monte Carlo point of the public ``runner``, which takes ``variant`` only."""
    from concurrent.futures import wait

    if config.variant != variant:
        hint = "; use run_classical_point for the baseline" if variant == STAR_VARIANT else ""
        raise ConfigError(f"{runner} expects the {variant} variant{hint}")
    # Checked here: a negative index would silently simulate another user.
    if count("user", user) >= config.n_users:
        raise InvalidParameterError(f"user index {user} out of range")
    snr = snr_from_db("snr_db", snr_db)
    count("seed", seed)
    count("block_size", block_size, 1)
    n_workers = count("workers", workers, 1)

    # The last block runs only the trials left under max_trials.
    n_blocks = -(-rule.max_trials // block_size)

    def block_trials(b: int) -> int:
        return min(block_size, rule.max_trials - b * block_size)

    def run_block(b: int) -> int:
        return _block_errors(config, user, snr, _block_rng(seed, stream_key, b),
                             block_trials(b))

    pool = _block_pool()
    errors = trials = blocks = 0
    reason = None  # until a criterion fires
    # Waves are ``workers`` blocks long; at most the CPU count of them run at once.
    while reason is None:
        wave = [pool.submit(run_block, b)
                for b in range(blocks, min(blocks + n_workers, n_blocks))]
        try:
            # Merge strictly in index order; once a stopping rule fires,
            # the wave's later (speculative) blocks are discarded.
            for future in wave:
                errors += future.result()
                trials += block_trials(blocks)
                blocks += 1
                if (reason := rule.reason(errors, trials)) is not None:
                    break
        finally:
            # No block outlives its point: unstarted ones are dropped and
            # running ones finish before the point returns or raises.
            for future in wave:
                future.cancel()
            wait(wave)

    return BerEstimate.from_counts(errors, trials, seed, stream_key,
                                   block_size, blocks, reason)


def run_ber_point(config: ScenarioConfig, snr_db: float, user: int,
                  rule: StoppingRule = StoppingRule(), seed: int = 0,
                  stream_key: Tuple[int, ...] = (),
                  block_size: int = DEFAULT_BLOCK_SIZE,
                  workers: int = 1) -> BerEstimate:
    """Estimate one user's BER at one SNR point for the surface variant."""
    return _run_point("run_ber_point", STAR_VARIANT, config, snr_db, user, rule, seed,
                      stream_key, block_size, workers)


def run_classical_point(config: ScenarioConfig, snr_db: float, user: int,
                        rule: StoppingRule = StoppingRule(), seed: int = 0,
                        stream_key: Tuple[int, ...] = (),
                        block_size: int = DEFAULT_BLOCK_SIZE,
                        workers: int = 1) -> BerEstimate:
    """Same trial loop with a single flat-fading BS-user coefficient."""
    return _run_point("run_classical_point", CLASSICAL_VARIANT, config, snr_db, user,
                      rule, seed, stream_key, block_size, workers)


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
    # The power axis, the last of AXES: run_sweep has checked the axis.
    if config.n_users != 2:
        raise ConfigError("sweep.axis=power supports exactly two users")
    if not 0.5 <= value < 1.0:
        raise ConfigError(f"sweep.values: the stronger-power coefficient must "
                          f"lie in [0.5, 1), got {value}")
    users = (replace(config.users[0], power_coefficient=value),
             replace(config.users[1], power_coefficient=1.0 - value))
    return replace(config, users=users)


def _analytic_cell(config: ScenarioConfig, user: int, snr_db: float
                   ) -> Tuple[float, float, Optional[float], Tuple[str, ...]]:
    if config.variant != STAR_VARIANT:
        return float("nan"), float("nan"), None, ()
    params = config.analytic_params(user)
    snr = snr_from_db("snr_db", snr_db)
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
        own = analytic.ber_numeric(params, snr)
        stage_err = analytic.ber_numeric(params_x1, snr)
        numeric = analytic.imperfect_sic_mixture(own, 1.0 - stage_err)
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
    numeric = analytic.ber_numeric(params, snr)
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
              workers: int = 1) -> SweepResult:
    """One BER estimate per (axis value, user) plus aligned analytic series.

    ``snr_db`` is the fixed operating point for element-count and power
    sweeps; it is checked whenever given and unused on SNR sweeps.
    """
    one_of("sweep.axis", axis, AXES)
    vals = tuple(number(f"sweep.values[{i}]", v) for i, v in enumerate(values))
    if axis == SNR_AXIS:
        for i, v in enumerate(vals):
            snr_from_db(f"sweep.values[{i}]", v)
    increasing("sweep.values", nonempty("sweep.values", vals))
    if snr_db is not None:
        snr_from_db("sweep.snr_db", snr_db)
    elif axis != SNR_AXIS:
        raise ConfigError(f"sweep over {axis} needs a fixed snr_db")
    user_list = user_indices("sweep.users", [count(f"sweep.users[{i}]", u)
                                             for i, u in enumerate(users)], config.n_users)
    # Every point's config is built (and so checked) before any trial runs.
    point_configs = [_config_at(config, axis, value) for value in vals]

    # Warnings of the configs simulated; one not held at every point names its values.
    held: Dict[str, List[float]] = {}
    for value, point_config in zip(vals, point_configs):
        for w in ordering_warnings(point_config):
            held.setdefault(w, []).append(value)
    warn = tuple(w if len(at) == len(vals) else
                 f"at {axis}={', '.join(f'{v:.10g}' for v in at)}: {w}"
                 for w, at in held.items())
    cells: List[SweepCell] = []
    for vi, (value, point_config) in enumerate(zip(vals, point_configs)):
        point_snr = value if axis == SNR_AXIS else snr_db
        for user in user_list:
            runner = (run_ber_point if config.variant == STAR_VARIANT
                      else run_classical_point)
            est = runner(point_config, point_snr, user, rule, seed,
                         stream_key=(vi, user), workers=workers)
            closed, numeric, asym, notes = _analytic_cell(point_config, user, point_snr)
            if est.underflow:
                notes = notes + (f"no errors observed in {est.trials} trials; "
                                 "interval is one-sided",)
            cells.append(SweepCell(value, user, est, closed, numeric, asym, notes))
    return SweepResult(axis, vals, user_list, tuple(cells), seed, warn)
