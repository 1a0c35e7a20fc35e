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

A point runs at most ``workers`` blocks at once.  It submits that many
tasks to one thread pool per process, with one thread per CPU, made at
the first point (and again in a forked child, which has none of its
parent's threads).  Under the point's one lock, each task merges every
finished block next in index order, stops the point once a criterion
fires, and only then claims and runs the next block; the calling thread
just waits until every task has returned.  Once the point stops, no
block is claimed, and a running block ends at its next cascade chunk
with no result.  A block that raises stops the claiming; its error is
raised if the merge reaches it.  Each thread keeps its block arrays
(:func:`channel.scratch`) at the size of the largest block it has run,
so one block's memory is reused by the next, not returned to the system.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
from .errors import BlockStopped, ConfigError, InvalidParameterError
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
    _allocation: PowerAllocation = field(init=False, repr=False, compare=False)

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
        checked["_allocation"] = PowerAllocation(coeffs, checked["transmit_power"])
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
        """The users' power split, built once from the checked coefficients."""
        return self._allocation

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
            alloc=self._allocation,
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
    """A run's counts, provenance and what stopped it (``STOP_*``); the point
    estimate ``ber`` and its Wilson interval are derived from the counts."""

    errors: int
    trials: int
    seed: int
    stream_key: Tuple[int, ...]
    block_size: int
    blocks: int
    stop_reason: str
    ber: float = field(init=False)
    ci_low: float = field(init=False)
    ci_high: float = field(init=False)

    def __post_init__(self) -> None:
        lo, hi = wilson_interval(self.errors, self.trials)
        object.__setattr__(self, "ber", self.errors / self.trials)
        object.__setattr__(self, "ci_low", lo)
        object.__setattr__(self, "ci_high", hi)

    @property
    def underflow(self) -> bool:
        """No errors observed, so the interval is one-sided."""
        return self.errors == 0


# ---------------------------------------------------------------------------
# trial simulation


def _block_errors(config: ScenarioConfig, user: int, snr: float,
                  rng: np.random.Generator, m: int,
                  stop: Optional[threading.Event] = None) -> int:
    """Simulate ``m`` trials of ``user``; return the observed own-bit error count.

    The arrays are the thread's :func:`scratch` buffers; each value is
    formed as in ``tests/oracles.py::reference_block_errors``, bit for bit.
    Once ``stop`` is set, the cascade raises :class:`BlockStopped` at its
    next chunk.
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
                                    out=scratch("gain", m), stop=stop)
        co_zone = config.zone_elements(user) - own

    # int32 bits: the same values and generator end state as int64 ones.
    bits = rng.integers(0, 2, (m, config.n_users), dtype=np.int32)
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

    finished: Dict[int, Tuple[int, Optional[BaseException]]] = {}  # not yet merged
    unclaimed = 0  # the next block to run; n_blocks once one has failed
    errors = trials = blocks = 0  # merged so far
    reason: Optional[str] = None  # until a criterion fires
    failure: Optional[BaseException] = None  # the failed block the merge reached
    stop = threading.Event()  # set once the point has stopped
    lock = threading.Lock()

    def run_blocks() -> None:
        # One task: merge what is next in index order, then run the next
        # unclaimed block, until none is left or the point has stopped.
        nonlocal unclaimed, errors, trials, blocks, reason, failure
        b = got = None
        while True:
            with lock:
                if b is not None:
                    finished[b] = got
                    if got[1] is not None:
                        unclaimed = n_blocks
                while not stop.is_set() and blocks in finished:
                    n, failure = finished.pop(blocks)
                    if failure is None:
                        errors += n
                        trials += block_trials(blocks)
                        blocks += 1
                        reason = rule.reason(errors, trials)
                    if failure is not None or reason is not None:
                        stop.set()  # blocks past the stop are discarded
                b = unclaimed
                if b >= n_blocks or stop.is_set():
                    return
                unclaimed = b + 1
            try:
                got = (_block_errors(config, user, snr, _block_rng(seed, stream_key, b),
                                     block_trials(b), stop), None)
            except BlockStopped:
                return  # the point has stopped, so it reads no more blocks
            except BaseException as exc:  # raised by the point if the merge reaches b
                got = (0, exc)

    # At most the CPU count of the tasks run at once, on the process pool.
    tasks = [_block_pool().submit(run_blocks) for _ in range(min(n_workers, n_blocks))]
    try:
        wait(tasks)  # one wake-up, when the last task returns
    finally:
        stop.set()  # no block outlives its point, an interrupted one too
        wait(tasks)
    for task in tasks:
        task.result()  # raises only what a task raised outside its blocks
    if failure is not None:
        raise failure
    return BerEstimate(errors, trials, seed, stream_key, block_size, blocks, reason)


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
    """One (axis value, user) result; ``routes`` holds a (name, value) pair
    per row of :data:`ANALYTIC_ROUTES`, in table order."""

    axis_value: float
    user: int
    estimate: BerEstimate
    routes: Tuple[Tuple[str, Optional[float]], ...]
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    run: FigureRun
    cells: Tuple[SweepCell, ...]
    warnings: Tuple[str, ...] = ()


def _config_at(config: ScenarioConfig, axis: str, name: str, value: float) -> ScenarioConfig:
    if axis == SNR_AXIS:
        return config
    if axis == ELEMENTS_AXIS:
        n = count(name, value)
        users = tuple(replace(u, elements=n) for u in config.users)
        return replace(config, users=users)
    # The power axis, the last of AXES: FigureRun has checked the axis.
    if config.n_users != 2:
        raise ConfigError("sweep.axis=power supports exactly two users")
    if not 0.5 <= value < 1.0:
        raise ConfigError(f"{name}: the stronger-power coefficient must "
                          f"lie in [0.5, 1), got {value}")
    users = (replace(config.users[0], power_coefficient=value),
             replace(config.users[1], power_coefficient=1.0 - value))
    return replace(config, users=users)


@dataclass(frozen=True)
class FigureRun:
    """One sweep: a config, an axis, its values and the users to plot.  The
    fields after ``config`` are those of a config file's ``sweep`` section,
    checked here under that name and stored as their rules return them;
    ``snr_db``, the fixed SNR of element-count and power sweeps, is checked
    whenever given.  ``snrs`` and ``configs`` hold each point's linear SNR
    and config, so a run that constructs is one that can run."""

    name: str
    config: ScenarioConfig
    axis: str
    values: Tuple[float, ...]
    users: Tuple[int, ...]
    snr_db: Optional[float] = None
    snrs: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    configs: Tuple[ScenarioConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        axis = one_of("sweep.axis", self.axis, AXES)
        names = [f"sweep.values[{i}]" for i, _ in enumerate(self.values)]
        values = tuple(map(number, names, nonempty("sweep.values", self.values)))
        snrs = tuple(map(snr_from_db, names, values)) if axis == SNR_AXIS else ()
        increasing("sweep.values", values)
        if self.snr_db is not None:
            fixed = snr_from_db("sweep.snr_db", self.snr_db)
        elif axis != SNR_AXIS:
            raise ConfigError(f"sweep.snr_db must be given for a sweep over {axis}")
        users = [count(f"sweep.users[{i}]", u) for i, u in enumerate(self.users)]
        checked = {
            "values": values, "snrs": snrs or (fixed,) * len(values),
            "users": user_indices("sweep.users", users, self.config.n_users),
            # Every point's config is built, and so checked, before any trial runs.
            "configs": tuple(_config_at(self.config, axis, name, value)
                             for name, value in zip(names, values)),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# analytic routes: each takes the cell's params (None on the classical
# baseline), the detected-SIC first stage (None unless the user cancels a
# detected symbol) and the SNR, and returns a BER or None (no error floor);
# a refusal raises InvalidParameterError whose message is the cell's note.


def _refused(note: str, route, *args) -> float:
    try:
        return route(*args)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{note}: {exc}") from None


def _covered(params: Optional[UserAnalyticParams], stage) -> bool:
    if stage is not None and params.n_users != 2:
        raise InvalidParameterError("detected-SIC analytics are derived for two users only")
    return params is not None


def _closed_form(params, stage, snr: float) -> float:
    if not _covered(params, stage):
        return math.nan
    if stage is None:
        return _refused(f"closed form unavailable for user {params.index + 1}",
                        analytic.ber_closed_form, params, snr)
    return _refused("imperfect-SIC closed form unavailable",
                    analytic.ber_imperfect_sic, params, stage, snr)


def _numeric(params, stage, snr: float) -> float:
    if not _covered(params, stage):
        return math.nan
    own = analytic.ber_numeric(params, snr)
    return own if stage is None else analytic.imperfect_sic_mixture(
        own, 1.0 - analytic.ber_numeric(stage, snr))


def _asymptote(params, stage, snr: float) -> Optional[float]:
    if not _covered(params, stage) or params.co_zone_elements == 0:
        return None  # neither the classical baseline nor a sole occupant has a floor
    if stage is not None:
        raise InvalidParameterError("no high-SNR limit derived for detected SIC "
                                    "with subsurface interference")
    return _refused(f"asymptote unavailable for user {params.index + 1}",
                    analytic.ber_asymptotic, params)


# (name, route) in output order: the names are the output fields.
ANALYTIC_ROUTES = (("ber_closed_form", _closed_form), ("ber_numeric", _numeric),
                   ("ber_asymptotic", _asymptote))


def _analytic_cell(config: ScenarioConfig, user: int, snr: float):
    # snr is the linear SNR that FigureRun has checked.  Detected-mode
    # cancellation decodes user 1's symbol first, at the user's channel.
    params = config.analytic_params(user) if config.variant == STAR_VARIANT else None
    detected = params is not None and config.sic_mode == DETECTED and user > 0
    stage = replace(params, index=0) if detected else None
    routes, notes = [], {}  # each note once, in order
    for name, route in ANALYTIC_ROUTES:
        try:
            routes.append((name, route(params, stage, snr)))
        except InvalidParameterError as exc:
            routes.append((name, math.nan))
            notes[str(exc)] = None
    return tuple(routes), tuple(notes)


def run_sweep(run: FigureRun, rule: StoppingRule = StoppingRule(), seed: int = 0,
              workers: int = 1) -> SweepResult:
    """One BER estimate per (axis value, user) of ``run`` plus its analytic values."""
    # Warnings of the configs simulated; one not held at every point names its values.
    held: Dict[str, List[float]] = {}
    for value, point_config in zip(run.values, run.configs):
        for w in ordering_warnings(point_config):
            held.setdefault(w, []).append(value)
    warn = tuple(w if len(at) == len(run.values) else
                 f"at {run.axis}={', '.join(f'{v:.10g}' for v in at)}: {w}"
                 for w, at in held.items())
    runner = run_ber_point if run.config.variant == STAR_VARIANT else run_classical_point
    cells: List[SweepCell] = []
    for vi, (value, point_config, snr) in enumerate(zip(run.values, run.configs, run.snrs)):
        point_snr = value if run.axis == SNR_AXIS else run.snr_db
        for user in run.users:
            est = runner(point_config, point_snr, user, rule, seed,
                         stream_key=(vi, user), workers=workers)
            routes, notes = _analytic_cell(point_config, user, snr)
            if est.underflow:
                notes = notes + (f"no errors observed in {est.trials} trials; "
                                 "interval is one-sided",)
            cells.append(SweepCell(value, user, est, routes, notes))
    return SweepResult(run, tuple(cells), warn)
