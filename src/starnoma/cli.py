"""Command-line front end: scenario configs, sweep runs, figure presets.

Configs are flat JSON with three sections::

    {
      "system": {"variant": "star-ris-noma", "bs_ris_distance": 50.0,
                 "bs_exponent": 2.0, "ris_user_exponent": 2.0,
                 "transmit_power": 1.0, "sic_mode": "genie",
                 "classical_exponent": 2.0},
      "users": [{"distance": 6.0, "zone": "transmission", "elements": 50,
                 "power_coefficient": 0.7, "classical_distance": 17.3}, ...],
      "sweep": {"axis": "snr_db", "values": [0, 10, 20], "users": [1, 2],
                "snr_db": 40.0}
    }

The ``system`` and ``users`` fields are those of :class:`ScenarioConfig`
and :class:`UserSpec`, whose rules check and convert each value: numeric
fields must be JSON numbers, not ``true``/``false`` or quoted numbers.
Users are numbered from 1 in configs, options and outputs; indices are
zero-based inside the package.  An absent list option means its default
(every user, a preset's grid); an empty one is an error.  ``figure``
takes the options its preset has parameters for: fig2 and fig5
``--elements`` and ``--snr-values``, fig3 those and ``--allocations``, fig4
``--elements``, ``--allocations`` and ``--fixed-snr-db``.  fig3 needs
``--allocations`` and ``--elements``, fig5 ``--elements``, and any other
option is an error.  A value the preset refuses (an SNR or element grid
that does not increase, fig5 counts that are not three) is reported
under the option that gave it.  Exit codes: 0
success, 1 validation failure (including NaN or infinite input), 2
runtime/numeric failure.
Outputs are written to a temporary file and renamed into place, so a
failed run leaves earlier outputs untouched.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, presets
from .engine import (
    AXES,
    DEFAULT_BLOCK_SIZE,
    SNR_AXIS,
    ScenarioConfig,
    StoppingRule,
    SweepResult,
    UserSpec,
    run_sweep,
)
from .errors import ConfigError, StarNomaError
from .rules import count, nonempty, power_coefficients, snr_from_db, user_indices

CSV_HEADER = ("axis_value,user,ber_mc,ci_low,ci_high,ber_closed_form,"
              "ber_numeric,ber_asymptotic,trials,errors")

_SWEEP_FIELDS = ("axis", "values", "users", "snr_db")


# ---------------------------------------------------------------------------
# config parsing / serialisation


def _section(name: str, raw, allowed: Sequence[str], required: Sequence[str]) -> Dict:
    """Check a JSON object's field names; the values go to the constructors,
    whose rules check and convert them."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: missing or not an object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown field(s) {sorted(unknown)}")
    for field in required:
        if field not in raw:
            raise ConfigError(f"{name}.{field}: required field missing")
    for field, value in raw.items():
        # null would otherwise pass as an absent classical_distance.
        if value is None:
            raise ConfigError(f"{name}.{field}: null is not allowed")
    return raw


def _schema(cls) -> Tuple[List[str], List[str]]:
    """The allowed and required field names of a config dataclass's section;
    ``users`` is a section of its own."""
    names = [f for f in fields(cls) if f.name != "users"]
    return ([f.name for f in names],
            [f.name for f in names if f.default is MISSING])


def parse_config(raw: Dict) -> Tuple[ScenarioConfig, Optional[Dict]]:
    """Validate a parsed JSON document and build the scenario.

    The field names come from :class:`ScenarioConfig` and :class:`UserSpec`,
    which check and convert the values.  Every diagnostic names the
    offending section and field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object with sections "
                          "'system' and 'users'")
    unknown = set(raw) - {"system", "users", "sweep"}
    if unknown:
        raise ConfigError(f"top level: unknown section(s) {sorted(unknown)}")
    system = _section("system", raw.get("system"), *_schema(ScenarioConfig))

    users_raw = raw.get("users")
    if not isinstance(users_raw, list) or not users_raw:
        raise ConfigError("users: a nonempty list is required")
    users = tuple(UserSpec(**_section(f"users[{i}]", u, *_schema(UserSpec)))
                  for i, u in enumerate(users_raw))
    config = ScenarioConfig(users=users, **system)

    if raw.get("sweep") is None:
        return config, None
    sweep = _section("sweep", raw["sweep"], _SWEEP_FIELDS, ())
    for field in ("values", "users"):
        if not isinstance(sweep.get(field, []), list):
            raise ConfigError(f"sweep.{field}: not a list (got {sweep[field]!r})")
    return config, sweep


def load_config(path: str) -> Tuple[ScenarioConfig, Optional[Dict]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return parse_config(raw)


def config_to_dict(config: ScenarioConfig) -> Dict:
    system, _ = _schema(ScenarioConfig)
    users = [{k: v for k, v in asdict(u).items() if v is not None} for u in config.users]
    return {"system": {k: getattr(config, k) for k in system}, "users": users}


def config_hash(config: ScenarioConfig) -> str:
    """Digest of the semantic content; insensitive to JSON key order."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# result serialisation


def _fmt_ber(x: Optional[float]) -> str:
    if x is None:
        return "no-floor"
    if math.isnan(x):
        return "nan"
    return f"{x:.12e}"


def _fmt_axis(x: float) -> str:
    return f"{x:.10g}"


def sweep_rows(result: SweepResult) -> List[Tuple]:
    rows = []
    for cell in result.cells:
        est = cell.estimate
        rows.append((
            _fmt_axis(cell.axis_value), cell.user + 1, _fmt_ber(est.ber),
            _fmt_ber(est.ci_low), _fmt_ber(est.ci_high),
            _fmt_ber(cell.ber_closed_form), _fmt_ber(cell.ber_numeric),
            _fmt_ber(cell.ber_asymptotic), est.trials, est.errors,
        ))
    return rows


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it into
    place, so an interrupted or failed run never leaves a partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_sweep_csv(result: SweepResult, path: Path) -> None:
    lines = [CSV_HEADER]
    for row in sweep_rows(result):
        lines.append(",".join(str(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def write_sweep_json(result: SweepResult, path: Path) -> None:
    header = CSV_HEADER.split(",")
    rows = [dict(zip(header, row), stop_reason=cell.estimate.stop_reason)
            for row, cell in zip(sweep_rows(result), result.cells)]
    doc = {"axis": result.axis, "rows": rows}
    _write_atomic(path, json.dumps(doc, indent=2) + "\n")


def collect_notes(result: SweepResult) -> List[str]:
    notes = list(result.warnings)
    for cell in result.cells:
        for note in cell.notes:
            notes.append(f"{result.axis}={_fmt_axis(cell.axis_value)} "
                         f"user={cell.user + 1}: {note}")
    return notes


def write_manifest(path: Path, config_digests: Sequence[str], seed: int,
                   outputs: Sequence[Path], warnings_list: Sequence[str],
                   rule: StoppingRule, workers: int) -> None:
    """Record what produced ``outputs``, including what byte-identity needs."""
    from datetime import datetime, timezone

    import numpy
    doc = {
        "tool": "starnoma",
        "version": __version__,
        "config_hash": list(config_digests) if len(config_digests) != 1
        else config_digests[0],
        "seed": seed,
        "block_size": DEFAULT_BLOCK_SIZE,
        "workers": workers,
        "stopping_rule": asdict(rule),
        "versions": {"python": ".".join(map(str, sys.version_info[:3])),
                     "numpy": numpy.__version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        "warnings": list(warnings_list),
    }
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_writable(path: Path) -> None:
    """Fail before any computation if ``path`` cannot be written; the probe
    is a file beside it, so an existing output stays as it is."""
    probe = path.with_name(f".{path.name}.{os.getpid()}.probe")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IsADirectoryError(f"{path} is a directory")
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output path {path} is not writable: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _comma_list(item):
    """An argparse type: comma-separated values, each converted by ``item``.
    argparse reports a ValueError as a usage error naming the option."""
    def parse(text: str) -> List:
        return [item(v) for v in text.split(",") if v != ""]
    parse.__name__ = f"comma-separated {item.__name__.strip('_')}"
    return parse


def _power_pair(text: str) -> Tuple[float, float]:
    a1, a2 = text.split(":")
    return float(a1), float(a2)


def _rule_from_args(args) -> StoppingRule:
    return StoppingRule(min_errors=count("--min-errors", args.min_errors, 1),
                        max_trials=count("--max-trials", args.max_trials, 1))


def _workers_from_args(args) -> int:
    return count("--workers", args.workers, 1)


def _user_indices(name: str, users_1based: Optional[Sequence[int]],
                  n_users: int) -> Tuple[int, ...]:
    """Zero-based indices of the 1-based users read from ``name``.  No list
    means every user; an empty one, a non-integer, an unknown user or a
    repeated one is an error naming ``name``."""
    if users_1based is None:
        return tuple(range(n_users))
    return user_indices(name, [count(f"{name}[{i}]", u) - 1
                               for i, u in enumerate(users_1based)], n_users)


def cmd_point(args) -> int:
    config, _ = load_config(args.config)
    users = _user_indices("--user", None if args.user is None else [args.user],
                          config.n_users)
    rule = _rule_from_args(args)
    workers = _workers_from_args(args)
    snr_from_db("--snr-db", args.snr_db)
    result = run_sweep(config, SNR_AXIS, [args.snr_db], users, rule,
                       seed=args.seed, workers=workers)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for cell in result.cells:
        est = cell.estimate
        print(f"user={cell.user + 1} ber_mc={_fmt_ber(est.ber)} "
              f"ci95=[{_fmt_ber(est.ci_low)},{_fmt_ber(est.ci_high)}] "
              f"ber_closed_form={_fmt_ber(cell.ber_closed_form)} "
              f"ber_numeric={_fmt_ber(cell.ber_numeric)} "
              f"ber_asymptotic={_fmt_ber(cell.ber_asymptotic)} "
              f"trials={est.trials} errors={est.errors} stop={est.stop_reason}")
        for note in cell.notes:
            print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    config, sweep_section = load_config(args.config)
    sweep_section = sweep_section or {}
    axis = args.axis or sweep_section.get("axis")
    values = (args.values if args.values is not None
              else sweep_section.get("values", ()))
    name, users_1based = (("--users", args.users) if args.users is not None
                          else ("sweep.users", sweep_section.get("users")))
    users = _user_indices(name, users_1based, config.n_users)
    snr_db = args.snr_db if args.snr_db is not None else sweep_section.get("snr_db")

    out = Path(args.out)
    _check_writable(out)

    rule = _rule_from_args(args)
    workers = _workers_from_args(args)
    result = run_sweep(config, axis, values, users, rule,
                       seed=args.seed, snr_db=snr_db, workers=workers)
    if args.format == "csv":
        write_sweep_csv(result, out)
    else:
        write_sweep_json(result, out)
    manifest = out.with_name(out.name + ".manifest.json")
    write_manifest(manifest, [config_hash(config)], args.seed, [out],
                   collect_notes(result), rule, workers)
    print(f"wrote {out} and {manifest}")
    return 0


def _each(rule):
    """The check of a list option: nonempty, and ``rule`` on each item."""
    return lambda option, values: [rule(f"{option}[{i}]", v)
                                   for i, v in enumerate(nonempty(option, values))]


# (option, args attribute, preset parameter, check naming the option); the
# preset's signature says which options a figure takes, needs and defaults.
_FIGURE_OPTIONS = (
    ("--elements", "elements", "element_counts", _each(count)),
    ("--snr-values", "snr_values", "snr_values", _each(snr_from_db)),
    ("--allocations", "allocations", "allocations",
     _each(lambda name, pair: power_coefficients(name + "[{}]", pair))),
    ("--fixed-snr-db", "fixed_snr_db", "snr_db", snr_from_db),
)


def _figure_plan(args) -> presets.FigurePlan:
    preset = getattr(presets, args.name)
    params = inspect.signature(preset).parameters
    given, missing = {}, []
    for option, attr, param, check in _FIGURE_OPTIONS:
        value = getattr(args, attr)
        if value is not None:
            if param not in params:
                raise ConfigError(f"{args.name} takes no {option}")
            check(option, value)
            given[param] = value
        elif param in params and params[param].default is params[param].empty:
            missing.append(option)
    if missing:
        raise ConfigError(f"{args.name} leaves these parameters open; pass "
                          + " and ".join(missing))
    try:
        return preset(**given)
    except ConfigError as exc:
        # A preset names a bad argument "<figure> <parameter>"; name its option.
        for option, _, param, _ in _FIGURE_OPTIONS:
            prefix = f"{args.name} {param} "
            if str(exc).startswith(prefix):
                raise ConfigError(option + " " + str(exc)[len(prefix):]) from None
        raise


def cmd_figure(args) -> int:
    plan = _figure_plan(args)
    out_dir = Path(args.out)
    rule = _rule_from_args(args)
    workers = _workers_from_args(args)
    paths = [out_dir / f"{plan.name}_{run.name}.csv" for run in plan.runs]
    for p in paths:
        _check_writable(p)
    # Every run finishes before any file is written, so a failed run leaves
    # the directory as the previous invocation left it.
    results = [run_sweep(run.config, run.axis, run.values, run.users, rule,
                         seed=args.seed, snr_db=run.snr_db, workers=workers)
               for run in plan.runs]
    notes: List[str] = []
    for run, result, path in zip(plan.runs, results, paths):
        write_sweep_csv(result, path)
        notes.extend(f"{run.name}: {n}" for n in collect_notes(result))
        print(f"wrote {path}")
    manifest = out_dir / f"{plan.name}.manifest.json"
    write_manifest(manifest, [config_hash(run.config) for run in plan.runs],
                   args.seed, paths, notes, rule, workers)
    print(f"wrote {manifest}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-errors", type=int, default=StoppingRule.min_errors)
    parser.add_argument("--max-trials", type=int, default=StoppingRule.max_trials)
    parser.add_argument("--workers", type=int, default=1, help="blocks per wave")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starnoma",
        description="BER curves for a surface-assisted power-domain downlink")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="single SNR point with analytic values")
    p.add_argument("--config", required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--user", type=int, default=None, help="1-based; default all")
    _add_common(p)
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("sweep", help="sweep an axis and write curve data")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=AXES, default=None)
    p.add_argument("--values", type=_comma_list(float), default=None)
    p.add_argument("--users", type=_comma_list(int), default=None,
                   help="1-based, comma separated")
    p.add_argument("--snr-db", type=float, default=None,
                   help="fixed SNR for elements/power sweeps")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="run a figure-reproduction preset")
    p.add_argument("name", choices=presets.FIGURE_NAMES)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--snr-values", type=_comma_list(float), default=None)
    p.add_argument("--elements", type=_comma_list(int), default=None)
    p.add_argument("--allocations", type=_comma_list(_power_pair), default=None)
    p.add_argument("--fixed-snr-db", type=float, default=None,
                   help="operating SNR for element sweeps (fig4)")
    _add_common(p)
    p.set_defaults(func=cmd_figure)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StarNomaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
