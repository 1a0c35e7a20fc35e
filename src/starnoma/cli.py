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

Users are numbered from 1 in configs, options and outputs; indices are
zero-based inside the package.  Exit codes: 0 success, 1 validation
failure (including NaN or infinite input), 2 runtime/numeric failure.
Outputs are written to a temporary file and renamed into place, so a
failed run leaves earlier outputs untouched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, presets
from .engine import (
    AXES,
    SNR_AXIS,
    ScenarioConfig,
    StoppingRule,
    SweepResult,
    UserSpec,
    run_sweep,
)
from .errors import ConfigError, NumericError, StarNomaError
from .rules import count, number, power_coefficients

CSV_HEADER = ("axis_value,user,ber_mc,ci_low,ci_high,ber_closed_form,"
              "ber_numeric,ber_asymptotic,trials,errors")

_SYSTEM_FIELDS = {
    "variant": str,
    "bs_ris_distance": float,
    "bs_exponent": float,
    "ris_user_exponent": float,
    "transmit_power": float,
    "sic_mode": str,
    "classical_exponent": float,
}
_USER_FIELDS = {
    "distance": float,
    "zone": str,
    "elements": int,
    "power_coefficient": float,
    "classical_distance": float,
}
_USER_REQUIRED = ("distance", "zone", "elements", "power_coefficient")
# A one-element list means a list whose entries are each of that type.
_SWEEP_FIELDS = {"axis": str, "values": [float], "users": [int], "snr_db": float}


# ---------------------------------------------------------------------------
# config parsing / serialisation


def _coerce(section: str, field: str, value, kind):
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{section}.{field}: not a list (got {value!r})")
        return [_coerce(section, f"{field}[{i}]", v, kind[0])
                for i, v in enumerate(value)]
    try:
        if kind is float:
            return float(value)
        if kind is int:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError("not an integer")
            return int(value)
        if kind is str:
            if not isinstance(value, str):
                raise ValueError("not a string")
            return value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{field}: {exc} (got {value!r})") from exc
    raise AssertionError(kind)


def parse_config(raw: Dict) -> Tuple[ScenarioConfig, Optional[Dict]]:
    """Validate a parsed JSON document and build the scenario.

    Every diagnostic names the offending section and field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object with sections "
                          "'system' and 'users'")
    unknown = set(raw) - {"system", "users", "sweep"}
    if unknown:
        raise ConfigError(f"top level: unknown section(s) {sorted(unknown)}")
    system = raw.get("system")
    if not isinstance(system, dict):
        raise ConfigError("system: section missing or not an object")
    unknown = set(system) - set(_SYSTEM_FIELDS)
    if unknown:
        raise ConfigError(f"system: unknown field(s) {sorted(unknown)}")
    if "variant" not in system:
        raise ConfigError("system.variant: required field missing")
    sys_kwargs = {k: _coerce("system", k, v, _SYSTEM_FIELDS[k])
                  for k, v in system.items()}

    users_raw = raw.get("users")
    if not isinstance(users_raw, list) or not users_raw:
        raise ConfigError("users: a nonempty list is required")
    users: List[UserSpec] = []
    for i, u in enumerate(users_raw):
        if not isinstance(u, dict):
            raise ConfigError(f"users[{i}]: expected an object")
        unknown = set(u) - set(_USER_FIELDS)
        if unknown:
            raise ConfigError(f"users[{i}]: unknown field(s) {sorted(unknown)}")
        for req in _USER_REQUIRED:
            if req not in u:
                raise ConfigError(f"users[{i}].{req}: required field missing")
        kwargs = {k: _coerce(f"users[{i}]", k, v, _USER_FIELDS[k])
                  for k, v in u.items()}
        users.append(UserSpec(**kwargs))

    config = ScenarioConfig(users=tuple(users), **sys_kwargs)

    sweep = raw.get("sweep")
    if sweep is None:
        return config, None
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: expected an object")
    unknown = set(sweep) - set(_SWEEP_FIELDS)
    if unknown:
        raise ConfigError(f"sweep: unknown field(s) {sorted(unknown)}")
    # run_sweep checks the values against their rules before any trial runs.
    return config, {k: _coerce("sweep", k, v, _SWEEP_FIELDS[k]) for k, v in sweep.items()}


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
    users = []
    for u in config.users:
        d = asdict(u)
        if d["classical_distance"] is None:
            del d["classical_distance"]
        users.append(d)
    return {"system": {k: getattr(config, k) for k in _SYSTEM_FIELDS},
            "users": users}


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
    rows = [dict(zip(header, row)) for row in sweep_rows(result)]
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
                   outputs: Sequence[Path], warnings_list: Sequence[str]) -> None:
    doc = {
        "tool": "starnoma",
        "version": __version__,
        "config_hash": list(config_digests) if len(config_digests) != 1
        else config_digests[0],
        "seed": seed,
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


def _parse_int_list(text: str, option: str) -> List[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"{option}: expected comma-separated integers, "
                          f"got {text!r}") from exc


def _parse_float_list(text: str, option: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"{option}: expected comma-separated numbers, "
                          f"got {text!r}") from exc


def _parse_allocations(text: str) -> List[Tuple[float, float]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError("--allocations: expected pairs like 0.7:0.3,0.8:0.2")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"--allocations: {exc}") from exc
    return pairs


def _rule_from_args(args) -> StoppingRule:
    return StoppingRule(min_errors=count("--min-errors", args.min_errors, 1),
                        max_trials=count("--max-trials", args.max_trials, 1))


def cmd_point(args) -> int:
    config, _ = load_config(args.config)
    rule = _rule_from_args(args)
    users = ([args.user - 1] if args.user is not None
             else list(range(config.n_users)))
    result = run_sweep(config, SNR_AXIS, [number("--snr-db", args.snr_db)], users, rule,
                       seed=args.seed, workers=args.workers)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for cell in result.cells:
        est = cell.estimate
        print(f"user={cell.user + 1} ber_mc={_fmt_ber(est.ber)} "
              f"ci95=[{_fmt_ber(est.ci_low)},{_fmt_ber(est.ci_high)}] "
              f"ber_closed_form={_fmt_ber(cell.ber_closed_form)} "
              f"ber_numeric={_fmt_ber(cell.ber_numeric)} "
              f"ber_asymptotic={_fmt_ber(cell.ber_asymptotic)} "
              f"trials={est.trials} errors={est.errors}")
        for note in cell.notes:
            print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    config, sweep_section = load_config(args.config)
    sweep_section = sweep_section or {}
    axis = args.axis or sweep_section.get("axis")
    values = (args.values if args.values is not None
              else sweep_section.get("values", ()))
    users_1based = (args.users if args.users is not None
                    else sweep_section.get("users")
                    or list(range(1, config.n_users + 1)))
    users = [int(u) - 1 for u in users_1based]
    snr_db = args.snr_db if args.snr_db is not None else sweep_section.get("snr_db")

    out = Path(args.out)
    _check_writable(out)

    rule = _rule_from_args(args)
    result = run_sweep(config, axis, values, users, rule,
                       seed=args.seed, snr_db=snr_db, workers=args.workers)
    if args.format == "csv":
        write_sweep_csv(result, out)
    else:
        write_sweep_json(result, out)
    manifest = out.with_name(out.name + ".manifest.json")
    write_manifest(manifest, [config_hash(config)], args.seed, [out],
                   collect_notes(result))
    print(f"wrote {out} and {manifest}")
    return 0


def _figure_plan(args) -> presets.FigurePlan:
    name = args.name
    snr_values = [number(f"--snr-values[{i}]", v)
                  for i, v in enumerate(args.snr_values or ())]
    allocations = [power_coefficients(f"--allocations[{j}][{{}}]", pair)
                   for j, pair in enumerate(args.allocations or ())]
    if name == "fig2":
        counts = args.elements or [25, 50, 75]
        return presets.fig2(element_counts=counts, snr_values=snr_values)
    if name == "fig3":
        missing = []
        if not allocations:
            missing.append("--allocations (power splits per curve)")
        if not args.elements:
            missing.append("--elements (subsurface sizes per curve)")
        if missing:
            raise ConfigError(
                "fig3 leaves these parameters open; pass " + " and ".join(missing))
        return presets.fig3(allocations, args.elements, snr_values)
    if name == "fig4":
        return presets.fig4(allocations or [(0.7, 0.3), (0.8, 0.2)], args.elements,
                            snr_db=number("--fixed-snr-db", args.fixed_snr_db))
    if name == "fig5":
        if not args.elements:
            raise ConfigError("fig5 leaves the per-user element split open; "
                              "pass --elements N1,N2,N3")
        return presets.fig5(args.elements, snr_values)
    raise ConfigError(f"--name: unknown figure {name!r}; "
                      f"choose from {presets.FIGURE_NAMES}")


def cmd_figure(args) -> int:
    plan = _figure_plan(args)
    out_dir = Path(args.out)
    rule = _rule_from_args(args)
    outputs: List[Path] = []
    digests: List[str] = []
    notes: List[str] = []
    paths = [out_dir / f"{plan.name}_{run.name}.csv" for run in plan.runs]
    for p in paths:
        _check_writable(p)
    for run, path in zip(plan.runs, paths):
        result = run_sweep(run.config, run.axis, run.values, run.users, rule,
                           seed=args.seed, snr_db=run.snr_db,
                           workers=args.workers)
        write_sweep_csv(result, path)
        outputs.append(path)
        digests.append(config_hash(run.config))
        notes.extend(f"{run.name}: {n}" for n in collect_notes(result))
        print(f"wrote {path}")
    manifest = out_dir / f"{plan.name}.manifest.json"
    write_manifest(manifest, digests, args.seed, outputs, notes)
    print(f"wrote {manifest}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-errors", type=int, default=200)
    parser.add_argument("--max-trials", type=int, default=10**9)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads (default: STARNOMA_THREADS or 1)")


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
    p.add_argument("--values", type=lambda s: _parse_float_list(s, "--values"),
                   default=None)
    p.add_argument("--users", type=lambda s: _parse_int_list(s, "--users"),
                   default=None, help="1-based, comma separated")
    p.add_argument("--snr-db", type=float, default=None,
                   help="fixed SNR for elements/power sweeps")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="run a figure-reproduction preset")
    p.add_argument("name", choices=presets.FIGURE_NAMES)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--snr-values",
                   type=lambda s: _parse_float_list(s, "--snr-values"),
                   default=None)
    p.add_argument("--elements",
                   type=lambda s: _parse_int_list(s, "--elements"),
                   default=None)
    p.add_argument("--allocations", type=_parse_allocations, default=None)
    p.add_argument("--fixed-snr-db", type=float, default=40.0,
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
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except StarNomaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
