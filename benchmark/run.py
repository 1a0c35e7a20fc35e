#!/usr/bin/env python3
"""starnoma benchmark: one command per workload and seed.

Run from the root of a starnoma checkout::

    python3 benchmark/run.py --workload fig2-fixed --seed 1 --seconds 25 --trace 0

Workloads: fig2-fixed, fig5-same-zone-fixed, tail-ci, analytic-grid (see
``benchmark/README.md``).  The package is imported from ``src/`` of the
checkout; nothing is installed.  A run repeats one pass of its workload
on the same inputs for about ``--seconds`` (at least MIN_PASSES passes).

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it spends half the time on untraced passes and half on
traced passes of the same inputs, and reports the per-layer split and
the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
SETUP_PROBES = 5
MIN_PASSES = 4
HI_TAIL = 10  # cell_s_hi leaves exactly this many cells above it


def import_package():
    """Import starnoma from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "starnoma" / "__init__.py").is_file():
        print(f"benchmark: no starnoma package under {SRC}; run from the root "
              "of a starnoma checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import starnoma
    if Path(starnoma.__file__).resolve().parent != (SRC / "starnoma").resolve():
        print(f"benchmark: imported starnoma from {starnoma.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def high_percentile(values):
    """(value, percentile, cells above): the highest percentile with at
    least HI_TAIL cells above it, or the maximum when there are too few."""
    xs = sorted(values)
    k = max(1, len(xs) - HI_TAIL)
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


def provenance(args, workload) -> dict:
    import numpy
    import scipy
    import starnoma
    from workloads import WORKERS

    digest = hashlib.sha256()
    for path in sorted((SRC / "starnoma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "block_size": workload.block_size,
        "stopping_rule": workload.rule(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "starnoma": starnoma.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def measure_setup(args) -> list:
    """Wall seconds from a cold interpreter to the workload's first call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # No timeout: with one, the wait polls every 50 ms and quantizes the
        # measurement.
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def install(tracer, full: bool) -> None:
    """Wrap the point runners always (the cell clock); every layer if ``full``."""
    from starnoma import analytic, cli, engine

    tracer.wrap(engine, "run_ber_point", "engine.point", variant="star")
    tracer.wrap(engine, "run_classical_point", "engine.point", variant="classical")
    if not full:
        return
    tracer.wrap(engine, "_block_errors", "engine.block")
    tracer.wrap(engine, "sample_cascade_batch", "channel.cascade")
    tracer.wrap(cli, "write_sweep_csv", "cli.write")
    tracer.wrap(cli, "write_manifest", "cli.write")
    for fn, name in (("ber_numeric", "analytic.numeric"),
                     ("ber_closed_form", "analytic.closed_form"),
                     ("ber_asymptotic", "analytic.asymptotic"),
                     ("ber_imperfect_sic", "analytic.imperfect_sic")):
        tracer.wrap(analytic, fn, name)


def timed_passes(workload, inputs, calibrator, budget_s: float, min_passes: int,
                 full: bool, checks, label: str):
    """Repeat the workload's pass on the same inputs for about ``budget_s``.

    The calibration kernel runs before the first pass and after every
    pass; a pass's speed factor uses the samples on both sides of it.  A
    new pass starts only if the mean pass so far still fits the
    budget, and at least ``min_passes`` run.
    """
    from spans import Tracer

    results, tracers = [], []
    start = perf_counter()
    before = calibrator.sample()
    while len(results) < min_passes or \
            (perf_counter() - start) * (len(results) + 1) / len(results) <= budget_s:
        tracer = Tracer()
        out_dir = WORK / f"{label}{len(results)}"
        install(tracer, full)
        try:
            t0 = perf_counter()
            result = workload.run_pass(inputs, tracer, out_dir)
            result.wall = perf_counter() - t0
        finally:
            tracer.unwrap_all()
        after = calibrator.sample()
        result.speed = calibrator.speed(before, after)
        before = after
        workload.check(inputs, result, checks)
        results.append(result)
        tracers.append(tracer)
    return results, tracers


def scaling_w2(workload, inputs, rounds: int = 5) -> float:
    """Trials/s at 2 workers over trials/s at 1 worker on one 4-block cell:
    the median over ``rounds`` back-to-back pairs, so that host-speed drift
    between pairs cancels."""
    from starnoma import engine
    from workloads import FIXED_BUDGET, UNREACHABLE_ERRORS

    point = workload.scaling_point(inputs)
    if point is None:
        return 0.0
    config, snr, user = point
    rule = engine.StoppingRule(min_errors=UNREACHABLE_ERRORS, max_trials=2 * FIXED_BUDGET)
    ratios = []
    for _ in range(rounds):
        seconds = {}
        for workers in (1, 2):
            t0 = perf_counter()
            engine.run_ber_point(config, snr, user, rule, inputs.seed,
                                 stream_key=(999,), workers=workers)
            seconds[workers] = perf_counter() - t0
        ratios.append(seconds[1] / seconds[2])
    return statistics.median(ratios)


def layer_metrics(tracers, results, untraced, workload, inputs) -> dict:
    from spans import self_times

    spans = [s for t in tracers for s in t.spans]
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def point_of(span):
        while span is not None and span.name != "engine.point":
            span = span.parent
        return span

    def mean(xs, scale):
        return scale * sum(s.duration for s in xs) / len(xs) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    points = named("engine.point")
    blocks = named("engine.block")
    cascades = named("channel.cascade")
    numeric = named("analytic.numeric")
    closed = named("analytic.closed_form")
    # Shares are over surface-variant points (the classical baseline has no
    # cascade).  Engine busy time is thread-summed block time plus the point
    # thread's time outside any block (dispatch, merge, stopping rule).
    star = {id(p) for p in points if p.attrs.get("variant") == "star"}
    star_blocks = [b for b in blocks if id(point_of(b)) in star]
    star_block_s = sum(b.duration for b in star_blocks)
    star_cascade = sum(s.duration for s in cascades if id(point_of(s)) in star)
    star_busy = star_block_s + sum(selfs[id(p)] for p in points if id(p) in star)
    analytic_names = {"analytic.numeric", "analytic.closed_form",
                      "analytic.asymptotic", "analytic.imperfect_sic"}
    analytic_s = sum(s.duration for s in spans if s.name in analytic_names
                     and (s.parent is None or s.parent.name not in analytic_names))
    block_s = sum(b.duration for b in blocks)
    point_s = sum(p.duration for p in points)
    trials = sum(r.trials for r in results)
    merged = trials // workload.block_size if workload.block_size else 0
    csv_files = len(inputs.plan.runs) * len(results) if hasattr(inputs, "plan") else 0
    wall = sum(r.wall for r in results)
    traced_wall = statistics.median(r.wall for r in results)
    untraced_wall = statistics.median(r.wall for r in untraced)
    n = len(results)
    return {
        "channel.cascade_calls": (len(cascades) / n, "count"),
        "channel.cascade_s": (sum(s.duration for s in cascades) / n, "s"),
        "channel.cascade_share": (ratio(star_cascade, star_busy), "fraction"),
        "engine.point_calls": (len(points) / n, "count"),
        "engine.point_s": (point_s / n, "s"),
        "engine.block_s": (block_s / n, "s"),
        "engine.point_self_s": (sum(selfs[id(s)] for s in blocks + points) / n, "s"),
        "engine.self_share": (ratio(star_busy - star_cascade, star_busy), "fraction"),
        "engine.ms_per_block": (ratio(1e3 * star_block_s, len(star_blocks)), "ms"),
        "engine.blocks": (merged / n, "count"),
        "engine.blocks_executed": (len(blocks) / n, "count"),
        "engine.block_yield": (ratio(merged, len(blocks)), "ratio"),
        "engine.scaling_w2": (scaling_w2(workload, inputs), "ratio"),
        "engine.trials": (trials / n, "count"),
        "engine.trials_per_s": (ratio(trials, point_s), "1/s"),
        "analytic.numeric_calls": (len(numeric) / n, "count"),
        "analytic.numeric_ms": (mean(numeric, 1e3), "ms"),
        "analytic.numeric_errors": (sum(s.error == "NumericError" for s in numeric) / n,
                                    "count"),
        "analytic.closed_form_calls": (len(closed) / n, "count"),
        "analytic.closed_form_us": (mean(closed, 1e6), "us"),
        "analytic.share": (ratio(analytic_s, wall), "fraction"),
        "cli.write_ms": (ratio(1e3 * sum(s.duration for s in named("cli.write")), csv_files),
                         "ms"),
        "cli.output_bytes": (sum(r.output_bytes for r in results) / n, "bytes"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_frac": (ratio(traced_wall - untraced_wall, untraced_wall), "fraction"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the workload's inputs, then exit")
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    if args.setup_probe:
        workload.setup(args.seed)
        return 0

    from calibrate import Calibrator

    checks = Checks()
    WORK.mkdir(exist_ok=True)
    try:
        setup_times = measure_setup(args)
        inputs = workload.setup(args.seed)
        prov = provenance(args, workload)
        print("provenance " + json.dumps(prov, sort_keys=True))
        with Calibrator(workload.calibration) as calibrator:
            if trace:
                untraced, _ = timed_passes(workload, inputs, calibrator, args.seconds / 2,
                                           2, False, checks, "plain")
                results, tracers = timed_passes(workload, inputs, calibrator,
                                                args.seconds / 2, 2, True, checks, "traced")
            else:
                results, tracers = timed_passes(workload, inputs, calibrator, args.seconds,
                                                MIN_PASSES, False, checks, "pass")
        workload.determinism(inputs, results[0], checks)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = len(checks.failures)
    for cell_id, cause in checks.failures:
        print(f"FAILED {cell_id}: {cause}")
    print(f"failed_frac {failed}/{checks.attempted} = "
          f"{failed / checks.attempted:.6f}")

    if trace:
        metrics = layer_metrics(tracers, results, untraced, workload, inputs)
        TRACES.mkdir(exist_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.write_jsonl(TRACES / f"{args.workload}-seed{args.seed}-pass{i}.jsonl")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:.6g} {unit}")
    else:
        # Timings are scaled to the reference host speed (calibrate.py);
        # the raw wall times are printed beside them.
        cells = [c * r.speed for r in results for c in r.cells]
        hi, pct, above = high_percentile(cells)
        wall_s = statistics.median(r.wall * r.speed for r in results)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "cell_s_p50": (statistics.median(cells), "s"),
        }
        first = results[0]
        per_pass = len(first.cells)
        print(f"passes {len(results)}; cells {len(cells)} ({per_pass} per pass); "
              f"cell_s_hi is p{pct:.1f} ({above} cells above it)")
        print("raw pass wall " + ", ".join(f"{r.wall:.3f}" for r in results)
              + f" (median {statistics.median(r.wall for r in results):.6g} s)")
        print("host speed " + ", ".join(f"{r.speed:.3f}" for r in results)
              + "; setup probes " + ", ".join(f"{t:.3f}" for t in setup_times))
        extra = {
            "cell_s_hi": (hi, "s"),
            "mc_trials_per_s": (sum(r.trials for r in results) / sum(r.mc_s for r in results)
                                if workload.mc else None, "1/s"),
            "time_to_ci_s": (statistics.mean(cells) if workload.name == "tail-ci" else None,
                             "s"),
            "trials_to_ci": (first.trials if workload.name == "tail-ci" else None, "count"),
            "analytic_cells_per_s": (per_pass / wall_s if not workload.mc else None, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "failed_frac": (failed / checks.attempted, "fraction"),
        }
        for name, (value, unit) in {**metrics, **extra}.items():
            shown = "n/a (not this workload)" if value is None else f"{value:.6g} {unit}"
            print(f"  {name:<22} {shown}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
