"""Acceptance gate: one test per criterion, one printed verdict line each.

Budgets are sized for a run of the whole module in about two and a half
minutes on two cores.  Three checks bound the closed forms' built-in
approximations tighter than those approximations actually are.  Two of
them fail by margins that no implementation can close, and the third
passes only by sampling noise:

* criterion 1 at deep-tail SNR points (the exponential tail fit overshoots
  the exact tail by tens of percent below BER ~1e-3); on the current
  random streams its deciding point lands inside the allowance, but at
  3000 errors the closed form sits 28-32% above the simulation,
* criterion 2 over the low-BER part of its grid (same mechanism, up to
  ~+80% near BER 1e-6), which fails,
* criterion 5's simulation-vs-formula clause (conditioned on a failed
  cancellation stage the weak user's bit is almost surely wrong, not
  coin-flip wrong, so the two-term mixture undershoots by up to ~2x),
  which fails.

The tests assert the criteria as stated and report every measured margin.
"""

import math
import time

import numpy as np
import pytest

import starnoma.analytic as an
from starnoma.channel import clt_moments, sample_cascade_batch
from starnoma.cli import main
from starnoma.engine import (
    CLASSICAL_VARIANT,
    STAR_VARIANT,
    ScenarioConfig,
    StoppingRule,
    UserSpec,
    run_ber_point,
    run_classical_point,
)
from starnoma.noma import DETECTED, GENIE, PowerAllocation
from oracles import decision_region_oracle, sample_interference_batch


def fig2_config(n, sic_mode=GENIE):
    return ScenarioConfig(
        variant=STAR_VARIANT,
        users=(UserSpec(6.0, "transmission", n, 0.7),
               UserSpec(4.0, "reflection", n, 0.3)),
        bs_ris_distance=50.0, sic_mode=sic_mode)


def classical_fig2_config():
    return ScenarioConfig(
        variant=CLASSICAL_VARIANT,
        users=(UserSpec(6.0, "transmission", 0, 0.7,
                        classical_distance=math.sqrt(50.0 * 6.0)),
               UserSpec(4.0, "reflection", 0, 0.3,
                        classical_distance=math.sqrt(50.0 * 4.0))),
        bs_ris_distance=50.0, sic_mode=GENIE)


def same_zone_config(n=16):
    return ScenarioConfig(
        variant=STAR_VARIANT,
        users=(UserSpec(3.0, "transmission", n, 0.7),
               UserSpec(2.5, "transmission", n, 0.3)),
        bs_ris_distance=20.0, sic_mode=GENIE)


def crossing(xs, bers, level=1e-3):
    """Interpolate the level crossing on a log-BER scale; NaN if absent."""
    logs = np.log10(np.maximum(np.asarray(bers, dtype=float), 1e-300))
    target = math.log10(level)
    for i in range(len(xs) - 1):
        if logs[i] >= target >= logs[i + 1]:
            frac = (target - logs[i]) / (logs[i + 1] - logs[i])
            return xs[i] + frac * (xs[i + 1] - xs[i])
    return float("nan")


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestAcceptance:
    def test_1_closed_form_vs_monte_carlo(self):
        started = time.monotonic()
        cfg = fig2_config(50)
        rule = StoppingRule(min_errors=200, max_trials=25_000_000)
        snrs = [2.5 * i for i in range(14)]  # 0 .. 32.5 dB
        rows = []
        failures = []
        for user in (0, 1):
            params = cfg.analytic_params(user)
            for snr_db in snrs:
                est = run_ber_point(cfg, snr_db, user, rule, seed=101,
                                    stream_key=(user,))
                if est.errors < 200 or est.ber < 1e-5:
                    rows.append((user, snr_db, est.ber, None, "exempt"))
                    continue
                closed = an.ber_closed_form(params, 10 ** (snr_db / 10.0))
                in_widened_ci = est.ci_low * 0.9 <= closed <= est.ci_high * 1.1
                within_rel = abs(closed - est.ber) <= 0.10 * est.ber
                ok = in_widened_ci or within_rel
                rows.append((user, snr_db, est.ber, closed,
                             "ok" if ok else "FAIL"))
                if not ok:
                    failures.append(
                        f"user {user + 1} at {snr_db} dB: mc={est.ber:.3e} "
                        f"closed={closed:.3e} ({closed / est.ber - 1:+.1%})")
        elapsed = time.monotonic() - started
        for user, snr_db, mc, closed, status in rows:
            closed_s = "-" if closed is None else f"{closed:.3e}"
            print(f"    u{user + 1} {snr_db:5.1f} dB mc={mc:.3e} "
                  f"closed={closed_s} {status}")
        runtime_ok = elapsed < 600.0
        detail = (f"{len(failures)} of {sum(r[4] != 'exempt' for r in rows)} "
                  f"checked points outside tolerance; runtime {elapsed:.0f}s "
                  f"(target <600s)")
        ok = verdict(1, "closed form vs Monte Carlo", not failures and runtime_ok,
                     detail + ("" if not failures else "; " + "; ".join(failures)))
        assert runtime_ok
        assert ok, ("closed form outside tolerance at: " + "; ".join(failures)
                    + " (tail-fit overshoot below BER ~1e-3; see README)")

    def test_2_oracle_sandwich(self):
        families = [
            (PowerAllocation((1.0,)), [(0, 50.0**-2 * 4.0**-2, 1)]),
            (PowerAllocation((0.7, 0.3)),
             [(0, 50.0**-2 * 6.0**-2, 1), (1, 50.0**-2 * 4.0**-2, 1)]),
            (PowerAllocation((0.7, 0.3)),
             [(0, 20.0**-2 * 3.0**-2, 2), (1, 20.0**-2 * 2.5**-2, 2)]),
            (PowerAllocation((0.75, 0.248, 0.002)),
             [(0, 20.0**-2 * 3.0**-2, 2), (1, 20.0**-2 * 2.5**-2, 2),
              (2, 20.0**-2 * 2.0**-2, 1)]),
        ]
        checked = 0
        failures = []
        worst = 0.0
        for alloc, user_rows in families:
            for index, gain, zone_mult in user_rows:
                for n in (16, 25, 50, 75):
                    params = an.UserAnalyticParams(index, alloc, gain, n,
                                                   n * zone_mult)
                    for snr_db in range(0, 70, 10):
                        snr = 10.0 ** (snr_db / 10.0)
                        numeric = an.ber_numeric(params, snr)
                        if numeric < 1e-6:
                            continue
                        closed = an.ber_closed_form(params, snr)
                        dev = abs(closed - numeric) / numeric
                        checked += 1
                        worst = max(worst, dev)
                        if dev > 0.05:
                            failures.append((dev, alloc.n_users, index, n, snr_db))
        detail = (f"{len(failures)} of {checked} grid cells exceed 5% "
                  f"(worst {worst:.0%})")
        ok = verdict(2, "oracle sandwich", not failures, detail)
        assert ok, (detail + "; the gap is the exponential tail fit's own "
                    "relative error at deep-tail arguments (see README)")

    def test_3_snr_gains_over_classical(self):
        rule = StoppingRule(min_errors=300, max_trials=3_000_000)
        star_brackets = {25: (29, 37), 50: (23, 31), 75: (19, 27)}
        star_cross = {}
        for n, (lo, hi) in star_brackets.items():
            cfg = fig2_config(n)
            snrs = list(range(lo, hi + 1))
            bers = [run_ber_point(cfg, s, 1, rule, seed=103,
                                  stream_key=(n, s)).ber for s in snrs]
            star_cross[n] = crossing(snrs, bers)
        ccfg = classical_fig2_config()
        snrs = list(range(46, 59))
        bers = [run_classical_point(ccfg, s, 1, rule, seed=104,
                                    stream_key=(s,)).ber for s in snrs]
        classical_cross = crossing(snrs, bers)
        targets = {25: 20.0, 50: 25.0, 75: 29.0}
        gains = {n: classical_cross - star_cross[n] for n in targets}
        deviations = {n: abs(gains[n] - targets[n]) for n in targets}
        detail = ", ".join(
            f"N={n}: {gains[n]:.1f} dB (target {targets[n]:.0f} +-2)"
            for n in (25, 50, 75))
        ok = verdict(3, "SNR gain vs classical baseline",
                     all(d <= 2.0 for d in deviations.values()), detail)
        assert ok, detail

    def test_4_error_floor(self):
        # Same-zone pair: the 60 dB estimate must sit on the analytic floor.
        cfg = same_zone_config(16)
        rule = StoppingRule(min_errors=5000, max_trials=2_000_000)
        floor_devs = {}
        for user in (0, 1):
            est = run_ber_point(cfg, 60.0, user, rule, seed=105,
                                stream_key=(user,))
            asym = an.ber_asymptotic(cfg.analytic_params(user))
            floor_devs[user] = abs(est.ber - asym) / asym
        floors_ok = all(d <= 0.10 for d in floor_devs.values())

        # Cross-zone pair: no floor, at least one decade drop 40 -> 60 dB.
        cross = fig2_config(25)
        est40 = run_ber_point(cross, 40.0, 0,
                              StoppingRule(min_errors=2000, max_trials=2_000_000),
                              seed=106, stream_key=(40,))
        est60 = run_ber_point(cross, 60.0, 0,
                              StoppingRule(min_errors=10**9, max_trials=100_000_000),
                              seed=106, stream_key=(60,))
        level60 = est60.ber if est60.errors else est60.ci_high
        no_floor_ok = level60 <= est40.ber / 10.0
        detail = (f"floor devs u1={floor_devs[0]:.1%} u2={floor_devs[1]:.1%} "
                  f"(tol 10%); cross-zone 40dB={est40.ber:.2e} vs "
                  f"60dB<={level60:.2e}")
        ok = verdict(4, "error floor emergence and absence",
                     floors_ok and no_floor_ok, detail)
        assert ok, detail

    def test_5_imperfect_sic(self):
        allocs = ((0.7, 0.3), (0.8, 0.2), (0.9, 0.1))
        snr_grid = [10.0 ** (db / 10.0) for db in range(0, 42, 3)]

        def pair(coeffs):
            alloc = PowerAllocation(coeffs)
            gain = 50.0**-2 * 4.0**-2
            p2 = an.UserAnalyticParams(1, alloc, gain, 50, 50)
            p1 = an.UserAnalyticParams(0, alloc, gain, 50, 50)
            return p2, p1

        dominance_ok = True
        for coeffs in allocs:
            p2, p1 = pair(coeffs)
            for snr in snr_grid:
                if an.ber_imperfect_sic(p2, p1, snr) < an.ber_closed_form(p2, snr) - 1e-15:
                    dominance_ok = False
        print(f"    5a dominance over grid: {'ok' if dominance_ok else 'FAIL'}")

        gap_ok = True
        for snr in (100.0, 300.0, 1000.0):
            gaps = []
            for coeffs in allocs:
                p2, p1 = pair(coeffs)
                gaps.append(an.ber_imperfect_sic(p2, p1, snr)
                            - an.ber_closed_form(p2, snr))
            if not gaps[0] > gaps[1] > gaps[2] > 0:
                gap_ok = False
        print(f"    5b gap shrinks with weak-user share: {'ok' if gap_ok else 'FAIL'}")

        cfg = fig2_config(50, sic_mode=DETECTED)
        p2, p1 = pair((0.7, 0.3))
        rule = StoppingRule(min_errors=300, max_trials=3_000_000)
        mc_failures = []
        checked = 0
        for snr_db in (10.0, 15.0, 20.0, 25.0, 30.0):
            est = run_ber_point(cfg, snr_db, 1, rule, seed=107,
                                stream_key=(int(snr_db),))
            if est.ber < 1e-4:
                continue
            formula = an.ber_imperfect_sic(p2, p1, 10.0 ** (snr_db / 10.0))
            dev = abs(formula - est.ber) / est.ber
            checked += 1
            status = "ok" if dev <= 0.15 else "FAIL"
            print(f"    5c {snr_db} dB: mc={est.ber:.3e} formula={formula:.3e} "
                  f"({formula / est.ber - 1:+.1%}) {status}")
            if dev > 0.15:
                mc_failures.append(snr_db)
        mc_ok = not mc_failures
        detail = (f"dominance={'ok' if dominance_ok else 'fail'}, "
                  f"gap-monotone={'ok' if gap_ok else 'fail'}, "
                  f"formula-vs-MC {len(mc_failures)}/{checked} points over 15%")
        ok = verdict(5, "imperfect SIC", dominance_ok and gap_ok and mc_ok, detail)
        assert ok, (detail + "; conditioned on a stage error the weak bit is "
                    "almost surely wrong, so the 0.5 mixture term undershoots "
                    "(see README)")

    def test_6_element_sensitivity(self):
        rule = StoppingRule(min_errors=400, max_trials=2_000_000)
        snr_db = 40.0

        def cfg_at(a1, a2, n):
            return ScenarioConfig(
                variant=STAR_VARIANT,
                users=(UserSpec(8.0, "transmission", n, a1),
                       UserSpec(4.0, "reflection", n, a2)),
                bs_ris_distance=50.0, sic_mode=GENIE)

        def curve_crossing(a1, a2, user, grid):
            bers = []
            for n in grid:
                est = run_ber_point(cfg_at(a1, a2, n), snr_db, user, rule,
                                    seed=108, stream_key=(user, n))
                bers.append(est.ber)
            return crossing(list(grid), bers)

        u1_a70 = curve_crossing(0.7, 0.3, 0, range(30, 50, 2))
        u1_a80 = curve_crossing(0.8, 0.2, 0, range(18, 38, 2))
        u2_a70 = curve_crossing(0.7, 0.3, 1, range(8, 21))
        u2_a80 = curve_crossing(0.8, 0.2, 1, range(10, 23))
        shift_u1 = u1_a70 - u1_a80   # stronger share: fewer elements needed
        shift_u2 = u2_a80 - u2_a70   # weaker share shrinks: more elements needed
        detail = (f"user1 shift {shift_u1:.1f} elements (target 13 +-3), "
                  f"user2 shift {shift_u2:.1f} (target 3 +-2, opposite direction)")
        ok = verdict(6, "element sensitivity", 10.0 <= shift_u1 <= 16.0
                     and 1.0 <= shift_u2 <= 5.0, detail)
        assert ok, detail

    def test_7_gain_statistics(self):
        rng = np.random.default_rng(109)
        bs_gain, user_gain = 50.0**-2, 4.0**-2
        overall = bs_gain * user_gain
        mean_devs, var_devs = [], []
        for n in (16, 25, 50):
            draws = sample_cascade_batch(bs_gain, user_gain, n, 1_000_000, rng)
            mu, v = clt_moments(overall, n)
            mean_devs.append(abs(draws.mean() - mu) / mu)
            var_devs.append(abs(draws.var() - v) / v)
        leak = sample_interference_batch(bs_gain, user_gain, 25, 1_000_000, rng)
        leak_var = np.mean(np.abs(leak) ** 2)
        leak_dev = abs(leak_var - overall * 25) / (overall * 25)
        detail = (f"mean devs {['%.2f%%' % (d * 100) for d in mean_devs]} (tol 1%), "
                  f"var devs {['%.2f%%' % (d * 100) for d in var_devs]} (tol 3%), "
                  f"leakage var dev {leak_dev:.2%} (tol 2%)")
        ok = verdict(7, "gain statistics", max(mean_devs) <= 0.01
                     and max(var_devs) <= 0.03 and leak_dev <= 0.02, detail)
        assert ok, detail

    def test_8_conditional_ber_brute_force(self):
        rng = np.random.default_rng(110)
        worst = 0.0
        for _ in range(100):
            n_users = int(rng.integers(1, 4))
            raw = np.sort(rng.uniform(0.1, 1.0, n_users))[::-1]
            alloc = PowerAllocation(tuple(raw / raw.sum()))
            index = int(rng.integers(0, n_users))
            own = int(rng.integers(1, 40))
            zone = own + int(rng.integers(0, 40))
            params = an.UserAnalyticParams(index, alloc,
                                           float(rng.uniform(1e-6, 1e-3)),
                                           own, zone)
            phi = float(rng.uniform(0.0, 0.5))
            snr = float(10.0 ** rng.uniform(0.0, 4.5))
            got = an.conditional_ber(phi, params, snr)
            want = decision_region_oracle(params, phi, snr)
            worst = max(worst, abs(got - want))
        ok = verdict(8, "conditional BER brute force", worst <= 1e-10,
                     f"worst absolute deviation {worst:.2e} over 100 draws "
                     f"(tol 1e-10)")
        assert ok

    def test_9_preset_determinism(self, tmp_path):
        args = ["figure", "fig4", "--elements", "8,12,16", "--seed", "17",
                "--min-errors", "50", "--max-trials", "131072"]
        for sub in ("one", "two"):
            rc = main(args + ["--out", str(tmp_path / sub)])
            assert rc == 0
        names = sorted(p.name for p in (tmp_path / "one").glob("*.csv"))
        identical = all(
            (tmp_path / "one" / n).read_bytes() == (tmp_path / "two" / n).read_bytes()
            for n in names)
        ok = verdict(9, "preset determinism", identical and bool(names),
                     f"{len(names)} CSV files byte-identical across reruns")
        assert ok
