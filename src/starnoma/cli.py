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
(every user, a preset's grid); an empty one is an error.  Each ``figure``
subcommand takes only the options its preset has parameters for, and needs
those with no default: ``starnoma figure figN --help`` lists them, and a
missing or untaken option exits 1 with argparse's message.  One object,
:class:`FigureRun`, checks a sweep's fields.  ``sweep``, ``point`` and
``figure`` check every value before any output path is created, and name
a refused value (an SNR or element grid that does not increase, fig5
counts that are not three) or a missing fixed SNR by the option or
``sweep`` field it came from.
``--seed`` must be an integer >= 0.
Exit codes: 0 success, 1 validation failure (including NaN or infinite
input), 2 runtime/numeric failure.  Every output, the manifest included,
is checked before the first Monte Carlo block: a new one must be
creatable and an existing one hard-linkable, so on a filesystem without
hard links a rerun over existing outputs exits 1 (a fresh directory
works).  Once every run has finished, each output is written to a
temporary file, each existing one is hard-linked to keep it, and then the
files are renamed into place; a failed step puts back the outputs already
replaced.  So after a failed run, write, link or rename the directory
holds the complete old set of outputs, and after a successful one the
complete new set; a failed write, link or rename exits 2 naming the path.
A command whose runs would write one file twice exits 1 naming it.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, presets
from .engine import (
    AXES,
    DEFAULT_BLOCK_SIZE,
    SNR_AXIS,
    FigureRun,
    ScenarioConfig,
    StoppingRule,
    SweepCell,
    SweepResult,
    UserSpec,
    run_sweep,
)
from .errors import ConfigError, StarNomaError
from .rules import count, user_indices

CSV_HEADER = ("axis_value,user,ber_mc,ci_low,ci_high,ber_closed_form,"
              "ber_numeric,ber_asymptotic,trials,errors")


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
    names = [f for f in fields(cls) if f.init and f.name != "users"]
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
    # The sweep fields are those of a figure run, less its name and config.
    sweep = _section("sweep", raw["sweep"], [f.name for f in fields(FigureRun) if f.init
                                             and f.name not in ("name", "config")], ())
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
    return "no-floor" if x is None else f"{x:.12e}"  # NaN formats as "nan"


def _fmt_axis(x: float) -> str:
    return f"{x:.10g}"


def _row(cell: SweepCell) -> Dict[str, object]:
    """One cell's output fields: the CSV reads those in ``CSV_HEADER``, a
    JSON row is all of them, with every analytic route in table order."""
    est = cell.estimate
    return {"axis_value": _fmt_axis(cell.axis_value), "user": cell.user + 1,
            "ber_mc": _fmt_ber(est.ber), "ci_low": _fmt_ber(est.ci_low),
            "ci_high": _fmt_ber(est.ci_high),
            **{name: _fmt_ber(value) for name, value in cell.routes},
            "trials": est.trials, "errors": est.errors, "stop_reason": est.stop_reason}


def write_sweep_csv(result: SweepResult, path: Path) -> None:
    rows = [",".join(str(row[name]) for name in CSV_HEADER.split(","))
            for row in map(_row, result.cells)]
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")


def write_sweep_json(result: SweepResult, path: Path) -> None:
    doc = {"axis": result.run.axis, "rows": [_row(cell) for cell in result.cells]}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def collect_notes(result: SweepResult) -> List[str]:
    """The run's warnings and its cells' notes; a named run's carry its name."""
    run = result.run
    notes = list(result.warnings)
    for cell in result.cells:
        for note in cell.notes:
            notes.append(f"{run.axis}={_fmt_axis(cell.axis_value)} "
                         f"user={cell.user + 1}: {note}")
    return [f"{run.name}: {n}" for n in notes] if run.name else notes


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
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_writable(path: Path) -> None:
    """Fail before any computation if the commit could not replace ``path``:
    an existing output must take the hard link that keeps it until its new
    file is in place, and a new one must be creatable.  The probe is a file
    beside ``path``, so an existing output stays as it is."""
    probe = path.with_name(f".{path.name}.{os.getpid()}.probe")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IsADirectoryError(f"{path} is a directory")
        if os.path.lexists(path):
            os.link(path, probe, follow_symlinks=False)
        else:
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


def _user_indices(name: str, users_1based: Optional[Sequence[int]],
                  n_users: int) -> Tuple[int, ...]:
    """Zero-based indices of the 1-based users read from ``name``.  No list
    means every user; an empty one, a non-integer, an unknown user or a
    repeated one is an error naming ``name``."""
    if users_1based is None:
        return tuple(range(n_users))
    return user_indices(name, [count(f"{name}[{i}]", u) - 1
                               for i, u in enumerate(users_1based)], n_users)


@contextmanager
def _renamed(names: Dict[str, str]):
    """Name a refused value by its option: each key in the message becomes its value."""
    try:
        yield
    except ConfigError as exc:
        message = str(exc)
        for field, option in names.items():
            message = message.replace(field, option)
        raise ConfigError(message) from None


def _run(args, runs: Sequence[FigureRun],
         outputs: Sequence[Path] = ()) -> Tuple[List[SweepResult], StoppingRule, int]:
    """The one path from the command line to ``run_sweep``: check the run
    options, each under its own name, and every output path, then run each
    sweep.  A refused option or path, or a path given twice (the second run
    would replace the first's output), stops before the first block."""
    with _renamed({"min_errors": "--min-errors", "max_trials": "--max-trials"}):
        rule = StoppingRule(args.min_errors, args.max_trials)
    workers = count("--workers", args.workers, 1)
    seed = count("--seed", args.seed)
    for i, path in enumerate(outputs):
        if path in outputs[:i]:
            raise ConfigError(f"output path {path} would be written by two runs")
        _check_writable(path)
    results = [run_sweep(run, rule, seed, workers) for run in runs]
    return results, rule, workers


def _run_and_write(args, runs: Sequence[FigureRun], paths: Sequence[Path],
                   manifest: Path, write) -> int:
    """Run every sweep, then replace the outputs in one transaction: write
    each result with ``write``, and the manifest, to a temporary file beside
    its path; hard-link each existing output to a kept-back file; rename the
    temporary files into place, the manifest last.  A failure or interrupt
    at any step puts back the old file of each output already renamed, or
    removes it if it had none, so the directory holds the complete old set
    of outputs or the complete new one."""
    targets = [*paths, manifest]
    results, rule, workers = _run(args, runs, targets)
    temps, olds = ([path.with_name(f".{path.name}.{os.getpid()}.{kind}") for path in targets]
                   for kind in ("tmp", "old"))
    renamed: List[Path] = []
    try:  # ``path`` is the output being written, linked or renamed
        for path, result, tmp in zip(paths, results, temps):
            write(result, tmp)
        path = manifest
        write_manifest(temps[-1], [config_hash(result.run.config) for result in results],
                       args.seed, paths, [n for r in results for n in collect_notes(r)],
                       rule, workers)
        for path, old in zip(targets, olds):
            if os.path.lexists(path):
                os.link(path, old, follow_symlinks=False)
        for path, tmp in zip(targets, temps):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException as exc:  # a failed step or an interrupt
        for done, old in zip(renamed, olds):
            if os.path.lexists(old):
                os.replace(old, done)
            else:
                done.unlink()
        if isinstance(exc, OSError):
            raise StarNomaError(f"cannot write {path}: {exc}") from exc
        raise
    finally:
        for leftover in temps + olds:
            leftover.unlink(missing_ok=True)
    for path in targets:
        print(f"wrote {path}")
    return 0


def cmd_point(args) -> int:
    config, _ = load_config(args.config)
    users = _user_indices("--user", None if args.user is None else [args.user],
                          config.n_users)
    with _renamed({"sweep.values[0]": "--snr-db"}):
        run = FigureRun("point", config, SNR_AXIS, (args.snr_db,), users)
    (result,), _, _ = _run(args, [run])
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for cell in result.cells:
        row = _row(cell)
        routes = "".join(f"{name}={row[name]} " for name, _ in cell.routes)
        print(f"user={row['user']} ber_mc={row['ber_mc']} "
              f"ci95=[{row['ci_low']},{row['ci_high']}] {routes}"
              f"trials={row['trials']} errors={row['errors']} stop={row['stop_reason']}")
        for note in cell.notes:
            print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    config, section = load_config(args.config)
    section = section or {}

    def pick(field: str, option: str):
        # An option overrides the sweep section's field; either names the value.
        value = getattr(args, field)
        return (option, value) if value is not None else (f"sweep.{field}", section.get(field))

    axis_name, axis = pick("axis", "--axis")
    values_name, values = pick("values", "--values")
    users_name, users = pick("users", "--users")
    snr_name, snr_db = pick("snr_db", "--snr-db")
    if snr_db is None and args.axis is not None:
        snr_name = "--snr-db"  # the fixed SNR an --axis sweep may need
    with _renamed({"sweep.axis": axis_name, "sweep.values": values_name,
                   "sweep.snr_db": snr_name}):
        run = FigureRun("", config, axis, values or (),
                        _user_indices(users_name, users, config.n_users), snr_db)
    out = Path(args.out)
    return _run_and_write(args, [run], [out], out.with_name(out.name + ".manifest.json"),
                          write_sweep_csv if args.format == "csv" else write_sweep_json)


# (option, preset parameter, argparse type, metavar, help); a figure's
# subcommand takes the options its preset has a parameter for, and needs
# those with no default.
_FIGURE_OPTIONS = (
    ("--elements", "element_counts", _comma_list(int), "N,...",
     "element counts: one curve each (fig2, fig3), the swept grid (fig4), "
     "or the three users' counts (fig5)"),
    ("--snr-values", "snr_values", _comma_list(float), "DB,...", "the swept SNRs in dB"),
    ("--allocations", "allocations", _comma_list(_power_pair), "A1:A2,...",
     "power splits of the two users, one curve each"),
    ("--fixed-snr-db", "snr_db", float, "DB", "operating SNR of the element sweep (fig4)"),
)


def _figure_plan(args) -> presets.FigurePlan:
    given = {param: getattr(args, param) for _, param, *_ in _FIGURE_OPTIONS
             if getattr(args, param, None) is not None}
    # A preset names a refused count or split "<figure> <parameter>[i]", and
    # its runs the SNR grid and fixed SNR they were given as sweep fields.
    names = {f"{args.name} {param}": option for option, param, *_ in _FIGURE_OPTIONS}
    with _renamed({**names, "sweep.values": "--snr-values", "sweep.snr_db": "--fixed-snr-db"}):
        return getattr(presets, args.name)(**given)


def cmd_figure(args) -> int:
    plan = _figure_plan(args)
    out_dir = Path(args.out)
    return _run_and_write(args, plan.runs,
                          [out_dir / f"{plan.name}_{run.name}.csv" for run in plan.runs],
                          out_dir / f"{plan.name}.manifest.json", write_sweep_csv)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed of the random streams, an integer >= 0 (default: 0)")
    parser.add_argument("--min-errors", type=int, default=StoppingRule.min_errors, metavar="R",
                        help="a point stops once it has R errors (default: %(default)s)")
    parser.add_argument("--max-trials", type=int, default=StoppingRule.max_trials, metavar="N",
                        help="a point stops after N trials (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=1, metavar="W",
                        help="the most blocks one point runs at once")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starnoma",
        description="BER curves for a surface-assisted power-domain downlink")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="single SNR point with analytic values")
    p.add_argument("--config", required=True, metavar="FILE", help="scenario config (JSON)")
    p.add_argument("--snr-db", type=float, required=True, metavar="DB", help="the SNR in dB")
    p.add_argument("--user", type=int, default=None, metavar="K", help="1-based; default all")
    _add_common(p)
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("sweep", help="sweep an axis and write curve data")
    p.add_argument("--config", required=True, metavar="FILE",
                   help="scenario config (JSON); its sweep section gives the defaults")
    p.add_argument("--axis", choices=AXES, default=None, help="the swept axis")
    p.add_argument("--values", type=_comma_list(float), default=None, metavar="X,...",
                   help="the axis values, comma separated")
    p.add_argument("--users", type=_comma_list(int), default=None, metavar="K,...",
                   help="the users, 1-based, comma separated (default: every user)")
    p.add_argument("--snr-db", type=float, default=None, metavar="DB",
                   help="fixed SNR for elements/power sweeps")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="output file; its manifest is written to FILE.manifest.json")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default: csv)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    figures = sub.add_parser("figure", help="run a figure-reproduction preset").add_subparsers(
        dest="name", required=True)
    for name in presets.FIGURE_NAMES:
        preset = getattr(presets, name)
        p = figures.add_parser(name, help=preset.__doc__.splitlines()[0])
        p.add_argument("--out", required=True, metavar="DIR", help="output directory")
        params = inspect.signature(preset).parameters
        for option, param, kind, metavar, text in _FIGURE_OPTIONS:
            if param in params:
                p.add_argument(option, dest=param, type=kind, default=None, metavar=metavar,
                               help=text, required=params[param].default is params[param].empty)
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
