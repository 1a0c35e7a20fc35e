"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``setup``), runs one timed
pass through starnoma's public entry points (``run_pass``), and checks
what the pass produced (``check``) outside the timed region.  Every cell
is one BER number a user would read; a cell that fails any check counts
once in ``failed``.

Why each workload exists, and which layer metric it should move, is in
``benchmark/README.md``.
"""

from __future__ import annotations

import csv
import io
import math
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from starnoma import analytic, cli, engine, presets
from starnoma.analytic import UserAnalyticParams
from starnoma.errors import NoErrorFloor, NumericError
from starnoma.noma import DETECTED

from spans import Tracer

WORKERS = 2
BLOCK = engine.DEFAULT_BLOCK_SIZE
# A fixed cell runs exactly one wave: WORKERS blocks.  Budgets that are a
# whole multiple of WORKERS * BLOCK leave no speculative block to discard,
# so wasted blocks only show in tail-ci.
FIXED_BUDGET = WORKERS * BLOCK
UNREACHABLE_ERRORS = 10 ** 15

# A cell with at least ORACLE_MIN_ERRORS errors must have ber_numeric
# inside its Wilson interval at z = ORACLE_Z, widened by the relative
# ORACLE_ALLOWANCE on both ends.  z = 5 keeps false alarms below 1e-6 per
# cell over the thousands of cells a set of runs checks; the 10% allowance
# covers the quadrature oracle's Gaussian (CLT) model of the cascaded gain,
# which sits up to 8% above Monte Carlo on the cells used here.
ORACLE_MIN_ERRORS = 50
ORACLE_Z = 5.0
ORACLE_ALLOWANCE = 0.10

PINNED_HEADER = ("axis_value,user,ber_mc,ci_low,ci_high,ber_closed_form,"
                 "ber_numeric,ber_asymptotic,trials,errors")


@dataclass
class Checks:
    attempted: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def cell(self, cell_id: str, causes: Sequence[str]) -> None:
        self.attempted += 1
        if causes:
            self.failures.append((cell_id, "; ".join(causes)))


@dataclass
class PassResult:
    cells: List[float]           # wall seconds per timed cell
    trials: int = 0              # summed BerEstimate.trials (MC workloads)
    mc_s: float = 0.0            # wall seconds inside MC point calls
    output: object = None        # what ``check`` inspects
    output_bytes: int = 0
    wall: float = 0.0            # wall seconds of the whole pass
    speed: float = 1.0           # host speed around the pass (calibrate.py)
    probe: Optional[Tuple[int, int]] = None   # (errors, trials) of the determinism cell


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def oracle_causes(errors: int, trials: int, numeric: float) -> List[str]:
    if errors < ORACLE_MIN_ERRORS:
        return []
    lo, hi = engine.wilson_interval(errors, trials, z=ORACLE_Z)
    if lo / (1.0 + ORACLE_ALLOWANCE) <= numeric <= hi * (1.0 + ORACLE_ALLOWANCE):
        return []
    return [f"ber_numeric {numeric:.4e} outside widened interval "
            f"[{lo:.4e}, {hi:.4e}] x (1 +- {ORACLE_ALLOWANCE})"]


def estimate_causes(est: engine.BerEstimate, numeric: float) -> List[str]:
    causes = []
    if not est.ci_low <= est.ber <= est.ci_high:
        causes.append("ci_low <= ber <= ci_high does not hold")
    return causes + oracle_causes(est.errors, est.trials, numeric)


# ---------------------------------------------------------------------------
# fixed-work figure sweeps through the command line


@dataclass
class FigureInputs:
    seed: int
    plan: presets.FigurePlan
    argv: List[str]


class FigureFixed:
    """``starnoma figure`` via ``cli.main`` at a fixed budget per cell."""

    mc = True
    block_size = BLOCK
    calibration = "mc"

    def __init__(self, name: str, figure: str, elements: Sequence[int],
                 snr_values: Sequence[float]) -> None:
        self.name = name
        self.figure = figure
        self.elements = tuple(elements)
        self.snr_values = tuple(float(s) for s in snr_values)

    def rule(self) -> str:
        return (f"min_errors={UNREACHABLE_ERRORS} (unreachable), "
                f"max_trials={FIXED_BUDGET} = {WORKERS} workers x {BLOCK} block")

    def setup(self, seed: int) -> FigureInputs:
        if self.figure == "fig2":
            plan = presets.fig2(element_counts=self.elements, snr_values=self.snr_values)
        else:
            plan = presets.fig5(self.elements, self.snr_values)
        argv = ["figure", self.figure,
                "--elements", ",".join(str(n) for n in self.elements),
                "--snr-values", ",".join(f"{s:g}" for s in self.snr_values),
                "--min-errors", str(UNREACHABLE_ERRORS),
                "--max-trials", str(FIXED_BUDGET),
                "--workers", str(WORKERS), "--seed", str(seed)]
        return FigureInputs(seed, plan, argv)

    def run_pass(self, inputs: FigureInputs, tracer: Tracer, out_dir: Path) -> PassResult:
        with tracer.span("cli.main"), redirect_stdout(io.StringIO()):
            code = cli.main(inputs.argv + ["--out", str(out_dir)])
        points = tracer.named("engine.point")
        cells = [s.duration for s in points if s.attrs.get("variant") == "star"]
        return PassResult(cells, mc_s=sum(s.duration for s in points),
                          output=(code, out_dir))

    def check(self, inputs: FigureInputs, result: PassResult, checks: Checks) -> None:
        code, out_dir = result.output
        first = inputs.plan.runs[0]
        probe_row = len(first.values) // 2 * len(first.users)
        trials = 0
        size = 0
        for run in inputs.plan.runs:
            path = out_dir / f"{inputs.plan.name}_{run.name}.csv"
            expected = len(run.values) * len(run.users)
            try:
                text = path.read_text()
            except OSError as exc:
                text = ""
                file_causes = [f"{path.name} unreadable: {exc}"]
            else:
                size += len(text.encode())
                file_causes = []
            lines = text.splitlines()
            if code != 0:
                file_causes.append(f"exit code {code}")
            if not lines or lines[0] != PINNED_HEADER:
                file_causes.append("CSV header differs from the pinned one")
            rows = list(csv.DictReader(lines)) if lines else []
            if len(rows) != expected:
                file_causes.append(f"{len(rows)} rows, expected {expected}")
            for i in range(max(expected, len(rows))):
                row = rows[i] if i < len(rows) else None
                cell_id = f"{path.name}#{i}"
                causes = list(file_causes)
                if row is not None:
                    causes += self._row_causes(run, row)
                    if (row.get("trials") or "").isdigit() and \
                            (row.get("errors") or "").isdigit():
                        trials += int(row["trials"])
                        if run is first and i == probe_row:
                            result.probe = (int(row["errors"]), int(row["trials"]))
                checks.cell(cell_id, causes)
        manifest = out_dir / f"{inputs.plan.name}.manifest.json"
        if manifest.is_file():
            size += manifest.stat().st_size
            if "numeric oracle failed" in manifest.read_text():
                checks.cell(manifest.name, ["NumericError note in manifest"])
        result.trials = trials
        result.output_bytes = size
        shutil.rmtree(out_dir, ignore_errors=True)

    @staticmethod
    def _row_causes(run: presets.FigureRun, row: Dict[str, str]) -> List[str]:
        causes = []
        surface = run.config.variant == engine.STAR_VARIANT
        # Documented non-finite values: the classical baseline has no
        # analytic routes, and sole-occupant users have no error floor.
        must_be_finite = ["ber_mc", "ci_low", "ci_high"]
        if surface:
            must_be_finite += ["ber_closed_form", "ber_numeric"]
            if row.get("ber_asymptotic") != "no-floor":
                must_be_finite.append("ber_asymptotic")
        for col in must_be_finite:
            if not _finite(row.get(col) or ""):
                causes.append(f"{col}={row.get(col)!r} is not finite")
        if causes:
            return causes
        lo, ber, hi = (float(row[c]) for c in ("ci_low", "ber_mc", "ci_high"))
        if not lo <= ber <= hi:
            causes.append("ci_low <= ber <= ci_high does not hold")
        if row.get("trials") != str(FIXED_BUDGET):
            causes.append(f"trials {row.get('trials')!r} != budget {FIXED_BUDGET}")
        elif not (row.get("errors") or "").isdigit():
            causes.append(f"errors {row.get('errors')!r} is not a count")
        elif surface:
            causes += oracle_causes(int(row["errors"]), FIXED_BUDGET,
                                    float(row["ber_numeric"]))
        return causes

    def probe_cell(self, inputs: FigureInputs
                   ) -> Tuple[engine.ScenarioConfig, float, int, Tuple[int, int]]:
        """The middle SNR cell of the first surface run, with its stream key."""
        run = inputs.plan.runs[0]
        vi = len(run.values) // 2
        user = run.users[0]
        return run.config, run.values[vi], user, (vi, user)

    def determinism(self, inputs: FigureInputs, result: PassResult, checks: Checks) -> None:
        config, snr, user, key = self.probe_cell(inputs)
        rule = engine.StoppingRule(min_errors=UNREACHABLE_ERRORS, max_trials=FIXED_BUDGET)
        one = engine.run_ber_point(config, snr, user, rule, inputs.seed,
                                   stream_key=key, workers=1)
        causes = []
        if (one.errors, one.trials) != result.probe:
            causes.append(f"workers=1 gave {one.errors}/{one.trials}, "
                          f"workers={WORKERS} gave {result.probe}")
        checks.cell(f"determinism snr={snr:g} user={user + 1}", causes)

    def scaling_point(self, inputs: FigureInputs):
        config, snr, user, _ = self.probe_cell(inputs)
        return config, snr, user


# ---------------------------------------------------------------------------
# time to a confidence interval in the BER tail


# (fig2 element count, user index, SNR dB).  ber_numeric is 1.0e-3, 1.0e-3
# and 1.5e-3, so each point needs ~0.2M trials at N=50 cost (the N=75
# point costs 1.5x per trial and needs 2/3 of the trials): every point has
# about the same expected cost, so the per-point median stays inside one
# population.  Blocks of 16384 trials give ~6 waves per point, fine enough
# that the per-point time is not dominated by whole-wave steps.  N=25
# points are left out: there the oracle's Gaussian gain model sits
# 1.5-1.6x above Monte Carlo at BER 1e-4 (measured), beyond any allowance
# that would still catch a broken sampler.
TAIL_POINTS = ((50, 1, 26.71), (50, 0, 35.09), (75, 0, 30.97))
TAIL_BLOCK = 16384
TAIL_RULE = engine.StoppingRule(min_errors=200, max_trials=1024 * WORKERS * TAIL_BLOCK)
TAIL_REPLICAS = 4


@dataclass
class TailInputs:
    seed: int
    configs: List[engine.ScenarioConfig]
    oracle: List[float]


class TailCi:
    """``run_ber_point`` under the default stopping rule at BER ~1e-3.

    A pass runs TAIL_REPLICAS replicas of every point, each replica with
    its own stream key.
    """

    name = "tail-ci"
    mc = True
    block_size = TAIL_BLOCK
    calibration = "mc"

    def rule(self) -> str:
        return (f"min_errors={TAIL_RULE.min_errors}, max_trials={TAIL_RULE.max_trials}, "
                f"block={TAIL_BLOCK}, waves of {WORKERS} blocks")

    def setup(self, seed: int) -> TailInputs:
        configs, oracle = [], []
        for n, user, snr_db in TAIL_POINTS:
            config = presets.fig2(element_counts=[n]).runs[0].config
            configs.append(config)
            oracle.append(analytic.ber_numeric(config.analytic_params(user),
                                               10.0 ** (snr_db / 10.0)))
        return TailInputs(seed, configs, oracle)

    def _point(self, inputs: TailInputs, kind: int, replica: int, workers: int):
        _, user, snr_db = TAIL_POINTS[kind]
        return engine.run_ber_point(inputs.configs[kind], snr_db, user, TAIL_RULE,
                                    inputs.seed, stream_key=(kind, replica),
                                    block_size=TAIL_BLOCK, workers=workers)

    def run_pass(self, inputs: TailInputs, tracer: Tracer, out_dir: Path) -> PassResult:
        points = [(k, r) for r in range(TAIL_REPLICAS) for k in range(len(TAIL_POINTS))]
        ests = [self._point(inputs, k, r, WORKERS) for k, r in points]
        cells = [s.duration for s in tracer.named("engine.point")]
        return PassResult(cells, trials=sum(e.trials for e in ests),
                          mc_s=sum(cells), output=list(zip(points, ests)))

    def check(self, inputs: TailInputs, result: PassResult, checks: Checks) -> None:
        for (kind, replica), est in result.output:
            causes = estimate_causes(est, inputs.oracle[kind])
            if est.errors < TAIL_RULE.min_errors:
                causes.append(f"max_trials reached with {est.errors} errors")
            checks.cell(f"point {TAIL_POINTS[kind]} replica {replica}", causes)

    def determinism(self, inputs: TailInputs, result: PassResult, checks: Checks) -> None:
        # The cheapest point of the pass, rerun on one worker.
        (kind, replica), est = min(result.output, key=lambda pe: pe[1].trials)
        one = self._point(inputs, kind, replica, workers=1)
        causes = []
        if (one.errors, one.trials) != (est.errors, est.trials):
            causes.append(f"workers=1 gave {one.errors}/{one.trials}, "
                          f"workers={WORKERS} gave {est.errors}/{est.trials}")
        checks.cell(f"determinism point {TAIL_POINTS[kind]} replica {replica}", causes)

    def scaling_point(self, inputs: TailInputs):
        _, user, snr_db = TAIL_POINTS[0]
        return inputs.configs[0], snr_db, user


# ---------------------------------------------------------------------------
# the analytic routes over a dense grid, no Monte Carlo


FIG2_ELEMENTS = (10, 25, 40, 50, 60, 75)
FIG5_SPLITS = ((16, 16, 32), (25, 25, 50), (32, 32, 64))


@dataclass
class Curve:
    label: str
    params: UserAnalyticParams
    params_x1: Optional[UserAnalyticParams]   # set for detected SIC
    snrs: Tuple[float, ...]


class AnalyticGrid:
    """Closed form, quadrature, asymptote and imperfect SIC per grid cell."""

    name = "analytic-grid"
    mc = False
    block_size = None
    calibration = "py"

    def rule(self) -> str:
        return "none (no Monte Carlo)"

    def setup(self, seed: int) -> List[Curve]:
        # The seed shifts the whole SNR grid by an offset in [0, 1) dB.
        offset = random.Random(seed).random()
        fig2_snrs = tuple(s + offset for s in range(0, 48, 4))
        fig5_snrs = tuple(s + offset for s in range(0, 52, 4))
        curves = []
        for n in FIG2_ELEMENTS:
            config = presets.fig2(element_counts=[n]).runs[0].config
            for user in (0, 1):
                curves.append(Curve(f"fig2 N={n} user {user + 1}",
                                    config.analytic_params(user), None, fig2_snrs))
            # Detected SIC at the cancelling user: the stronger user's symbol
            # seen with the cancelling user's channel (as the engine does).
            p = replace(config, sic_mode=DETECTED).analytic_params(1)
            x1 = UserAnalyticParams(index=0, alloc=p.alloc, overall_gain=p.overall_gain,
                                    own_elements=p.own_elements,
                                    zone_elements=p.zone_elements)
            curves.append(Curve(f"fig2 N={n} user 2 detected", p, x1, fig2_snrs))
        for split in FIG5_SPLITS:
            config = presets.fig5(split).runs[0].config
            for user in range(3):
                curves.append(Curve(f"fig5 {split} user {user + 1}",
                                    config.analytic_params(user), None, fig5_snrs))
        return curves

    @staticmethod
    def _cell(curve: Curve, snr: float):
        if curve.params_x1 is None:
            closed = analytic.ber_closed_form(curve.params, snr)
            numeric = analytic.ber_numeric(curve.params, snr)
            try:
                asym = analytic.ber_asymptotic(curve.params)
            except NoErrorFloor:
                asym = None
        else:
            closed = analytic.ber_imperfect_sic(curve.params, curve.params_x1, snr)
            own = analytic.ber_numeric(curve.params, snr)
            stage = analytic.ber_numeric(curve.params_x1, snr)
            numeric = analytic.imperfect_sic_mixture(own, 1.0 - stage)
            asym = None
        return closed, numeric, asym

    def run_pass(self, inputs: List[Curve], tracer: Tracer, out_dir: Path) -> PassResult:
        values = []
        for curve in inputs:
            for snr_db in curve.snrs:
                with tracer.span("bench.cell"):
                    try:
                        values.append(self._cell(curve, 10.0 ** (snr_db / 10.0)))
                    except NumericError as exc:
                        values.append(exc)
        cells = [s.duration for s in tracer.named("bench.cell")]
        return PassResult(cells, output=values)

    def check(self, inputs: List[Curve], result: PassResult, checks: Checks) -> None:
        values = iter(result.output)
        for curve in inputs:
            previous = math.inf
            sole = curve.params.co_zone_elements == 0
            for snr_db in curve.snrs:
                value = next(values)
                cell_id = f"{curve.label} snr={snr_db:.3f}"
                if isinstance(value, NumericError):
                    checks.cell(cell_id, [f"NumericError: {value}"])
                    continue
                closed, numeric, asym = value
                causes = []
                for label, v in (("closed form", closed), ("numeric", numeric)):
                    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                        causes.append(f"{label} {v!r} is not a probability")
                if curve.params_x1 is None:
                    if sole != (asym is None):
                        causes.append(f"asymptote {asym!r} but sole occupant={sole}")
                    if asym is not None and closed < asym * (1.0 - 1e-9):
                        causes.append(f"closed form {closed:.4e} below its floor {asym:.4e}")
                if numeric > previous * (1.0 + 1e-6) + 1e-15:
                    causes.append(f"numeric rose with SNR: {previous:.6e} -> {numeric:.6e}")
                previous = numeric
                checks.cell(cell_id, causes)

    def determinism(self, inputs, result, checks) -> None:
        pass

    def scaling_point(self, inputs):
        return None


WORKLOADS = {
    w.name: w for w in (
        FigureFixed("fig2-fixed", "fig2", (50,), range(0, 48, 8)),
        FigureFixed("fig5-same-zone-fixed", "fig5", (25, 25, 50), range(0, 60, 10)),
        TailCi(),
        AnalyticGrid(),
    )
}
