import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import starnoma.analytic as analytic
import starnoma.channel as channel
import starnoma.engine as engine
from oracles import (ConditionalTally, align_all, cascaded_gain, conditional_block,
                     interference_coefficient, reference_block_errors, sample_realization,
                     sic_receive)
from starnoma import presets
from starnoma.cli import config_to_dict, main
from starnoma.engine import (
    CLASSICAL_VARIANT,
    DEFAULT_BLOCK_SIZE,
    SNR_AXIS,
    STAR_VARIANT,
    STOP_CI_WIDTH,
    STOP_MAX_TRIALS,
    STOP_MIN_ERRORS,
    WILSON_Z,
    BerEstimate,
    Bernoulli,
    FigureRun,
    ScenarioConfig,
    StoppingRule,
    UserSpec,
    ordering_warnings,
    run_ber_point,
    run_classical_point,
    run_sweep,
    _block_errors,
    _block_rng,
    wilson_interval,
)
from starnoma.errors import BlockStopped, ConfigError, InvalidParameterError
from starnoma.noma import DETECTED, GENIE, PowerAllocation

# Single-seed interval checks use z=4 (two-sided miss rate 6e-5) rather
# than 95%, which misses one seed in twenty on a correct sampler.  Their
# trial budgets are scaled by (4 / 1.96)^2 so the interval keeps the width,
# and so the power against a biased sampler, that the 95% form had.
STRICT_Z = 4.0
BUDGET_SCALE = (STRICT_Z / WILSON_Z) ** 2


ROUTE_NAMES = ("ber_closed_form", "ber_numeric", "ber_asymptotic")


def route(cell, name):
    """The value of the analytic route ``name`` in a sweep cell."""
    return dict(cell.routes)[name]


def strict_interval(est):
    return wilson_interval(est.errors, est.trials, z=STRICT_Z)


def star_config(n1=16, n2=16, same_zone=False, a=(0.7, 0.3), d=(3.0, 2.5),
                d_bs=20.0, sic_mode=GENIE):
    zones = ("transmission", "transmission" if same_zone else "reflection")
    return ScenarioConfig(
        variant=STAR_VARIANT,
        users=(UserSpec(d[0], zones[0], n1, a[0]),
               UserSpec(d[1], zones[1], n2, a[1])),
        bs_ris_distance=d_bs,
        sic_mode=sic_mode,
    )


class TestConfigValidation:
    def test_power_sum_names_field(self):
        with pytest.raises(ConfigError, match="power_coefficient"):
            ScenarioConfig(variant=STAR_VARIANT,
                           users=(UserSpec(3.0, "transmission", 8, 0.7),
                                  UserSpec(2.0, "reflection", 8, 0.2)))

    def test_zone_names_field(self):
        with pytest.raises(ConfigError, match=r"users\[1\]\.zone"):
            ScenarioConfig(variant=STAR_VARIANT,
                           users=(UserSpec(3.0, "transmission", 8, 0.7),
                                  UserSpec(2.0, "sideways", 8, 0.3)))

    def test_power_order_enforced(self):
        with pytest.raises(ConfigError, match="power_coefficient"):
            ScenarioConfig(variant=STAR_VARIANT,
                           users=(UserSpec(3.0, "transmission", 8, 0.3),
                                  UserSpec(2.0, "reflection", 8, 0.7)))

    def test_variant_checked(self):
        with pytest.raises(ConfigError, match="variant"):
            ScenarioConfig(variant="magic", users=(UserSpec(3.0, "transmission", 8, 1.0),))

    def test_classical_requires_distance(self):
        with pytest.raises(ConfigError, match=r"users\[1\]\.classical_distance"):
            ScenarioConfig(variant=CLASSICAL_VARIANT,
                           users=(UserSpec(3.0, "transmission", 0, 0.7, 10.0),
                                  UserSpec(2.0, "reflection", 0, 0.3)))

    def test_classical_has_no_analytic_params(self):
        cfg = ScenarioConfig(variant=CLASSICAL_VARIANT,
                             users=(UserSpec(3.0, "transmission", 0, 0.7, 10.0),
                                    UserSpec(2.0, "reflection", 0, 0.3, 8.0)))
        with pytest.raises(ConfigError, match="surface variant only"):
            cfg.analytic_params(0)

    def test_runner_variant_mismatch(self):
        cfg = star_config()
        with pytest.raises(ConfigError):
            run_classical_point(cfg, 10.0, 0)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 1000)
        assert lo < 7 / 1000 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_zero_errors_one_sided(self):
        # With no errors the upper end is z^2 / (n + z^2); at 3 and 1000
        # trials centre - half-width leaves a rounding residue above 0.
        z2 = WILSON_Z ** 2
        for n in (3, 1000, 10_000):
            lo, hi = wilson_interval(0, n)
            assert lo == 0.0
            assert hi == pytest.approx(z2 / (n + z2), rel=1e-12)

    def test_all_errors_one_sided(self):
        # With every trial an error the lower end is n / (n + z^2); at 10 and
        # 25 trials centre + half-width leaves a rounding residue below 1.
        z2 = WILSON_Z ** 2
        for n in (10, 25, 1000, 10_000):
            lo, hi = wilson_interval(n, n)
            assert hi == 1.0
            assert lo == pytest.approx(n / (n + z2), rel=1e-12, abs=0.0)

    def test_coverage_at_least_93_percent(self):
        rng = np.random.default_rng(42)
        p, n, reps = 0.02, 1500, 1000
        covered = 0
        for errors in rng.binomial(n, p, reps):
            lo, hi = wilson_interval(int(errors), n)
            covered += lo <= p <= hi
        assert covered / reps >= 0.93

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            wilson_interval(5, 0)
        with pytest.raises(InvalidParameterError):
            wilson_interval(7, 5)


class TestBerEstimate:
    """An estimate is its tally: the counts, rate and interval are read from it."""

    @pytest.mark.parametrize("errors, trials", [(0, 100), (7, 1000), (25, 25)])
    def test_rate_and_interval_are_the_counts(self, errors, trials):
        est = BerEstimate(Bernoulli(errors, trials), 0, (), trials, 1, STOP_MAX_TRIALS)
        assert (est.errors, est.trials) == (errors, trials)
        assert est.ber == errors / trials
        assert (est.ci_low, est.ci_high) == wilson_interval(errors, trials)

    def test_takes_only_what_a_run_produced(self):
        assert [f.name for f in fields(BerEstimate) if f.init] == [
            "tally", "seed", "stream_key", "block_size", "blocks", "stop_reason"]
        for derived in ("errors", "trials", "ber", "ci_low", "ci_high"):
            with pytest.raises(TypeError):
                BerEstimate(Bernoulli(7, 1000), 0, (), 1000, 1, STOP_MAX_TRIALS,
                            **{derived: 0.5})

    def test_refuses_counts_with_no_rate(self):
        with pytest.raises(InvalidParameterError):
            BerEstimate(Bernoulli(7, 5), 0, (), 5, 1, STOP_MAX_TRIALS)
        with pytest.raises(InvalidParameterError):
            BerEstimate(Bernoulli(0, 0), 0, (), 5, 0, STOP_MAX_TRIALS)

    def test_tallies_add_counts(self):
        assert Bernoulli(3, 100) + Bernoulli(4, 28) == Bernoulli(7, 128)
        assert Bernoulli(7, 1000).interval() == wilson_interval(7, 1000)


# The configs whose block kernel is checked draw for draw.
KERNEL_CONFIGS = {
    **{f"fig2_n{n}": presets.fig2(element_counts=[n]).runs[0].config for n in (1, 8, 50)},
    "classical": presets.fig2(element_counts=[1]).runs[-1].config,
    "fig5_25_25_50": presets.fig5((25, 25, 50)).runs[0].config,
}


class TestStoppingRule:
    """``StoppingRule.reason`` on its own: which criterion a tally meets."""

    def test_max_trials(self):
        rule = StoppingRule(min_errors=10, max_trials=100)
        assert rule.reason(Bernoulli(0, 100)) == STOP_MAX_TRIALS
        assert rule.reason(Bernoulli(5, 99)) is None

    def test_max_trials_wins_over_min_errors(self):
        rule = StoppingRule(min_errors=10, max_trials=100)
        assert rule.reason(Bernoulli(50, 100)) == STOP_MAX_TRIALS
        rule = StoppingRule(min_errors=10, max_trials=100, target_ci_width=10.0)
        assert rule.reason(Bernoulli(50, 100)) == STOP_MAX_TRIALS

    def test_min_errors(self):
        rule = StoppingRule(min_errors=10, max_trials=100)
        assert rule.reason(Bernoulli(10, 50)) == STOP_MIN_ERRORS
        assert rule.reason(Bernoulli(9, 50)) is None

    def test_ci_width_either_side_of_its_boundary(self):
        # At 10**6 trials a 95% Wilson interval is 0.20025 of the estimate
        # wide with 384 errors and 0.19999 with 385.
        rule = StoppingRule(min_errors=1, max_trials=10**7, target_ci_width=0.2)
        assert rule.reason(Bernoulli(384, 10**6)) is None
        assert rule.reason(Bernoulli(385, 10**6)) == STOP_CI_WIDTH

    def test_ci_width_waits_for_min_errors(self):
        rule = StoppingRule(min_errors=1000, max_trials=10**7, target_ci_width=0.2)
        assert rule.reason(Bernoulli(385, 10**6)) is None
        assert rule.reason(Bernoulli(1000, 10**6)) == STOP_CI_WIDTH


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        cfg = star_config(same_zone=True)
        rule = StoppingRule(min_errors=150, max_trials=400_000)
        runs = [run_ber_point(cfg, 12.0, 0, rule, seed=31, workers=w)
                for w in (1, 2, 5)]
        assert len({(r.errors, r.trials, r.blocks) for r in runs}) == 1

    def test_min_errors_point_identical_across_worker_counts(self):
        # Stops on min_errors after several blocks, with later blocks
        # claimed (and ended early) past the stop at 2 and 5 workers.
        rule = StoppingRule(min_errors=200, max_trials=10**7)
        runs = [run_ber_point(star_config(), 22.0, 1, rule, seed=7, block_size=4096,
                              workers=w) for w in (1, 2, 5)]
        assert runs[0].stop_reason == STOP_MIN_ERRORS and runs[0].blocks >= 3
        assert len({repr(r) for r in runs}) == 1

    def test_seed_changes_result(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=50, max_trials=200_000)
        a = run_ber_point(cfg, 10.0, 1, rule, seed=1)
        b = run_ber_point(cfg, 10.0, 1, rule, seed=2)
        assert (a.errors, a.trials) != (b.errors, b.trials)

    def test_short_last_block_identical_across_worker_counts(self):
        # 150_000 trials are two full blocks and a last block of 18_928.
        cfg = star_config(same_zone=True)
        rule = StoppingRule(min_errors=10**9, max_trials=150_000)
        runs = [run_ber_point(cfg, 12.0, 0, rule, seed=31, workers=w)
                for w in (1, 2, 5)]
        assert {(r.errors, r.trials, r.blocks) for r in runs} == {
            (runs[0].errors, 150_000, 3)}

    def test_target_ci_width_stops_at_first_boundary_meeting_it(self):
        cfg, snr, block, target = star_config(), 30.0, 4096, 0.2

        def point(max_trials, workers=1):
            rule = StoppingRule(min_errors=1, max_trials=max_trials,
                                target_ci_width=target)
            return run_ber_point(cfg, snr, 0, rule, seed=5, block_size=block,
                                 workers=workers)

        def met(est):
            lo, hi = wilson_interval(est.errors, est.trials)
            return hi - lo <= target * est.ber

        est = point(10**7)
        assert point(10**7, workers=2) == est
        assert met(est) and est.blocks >= 3 and est.trials == est.blocks * block
        # One block fewer does not meet the target.
        earlier = point(est.trials - block)
        assert earlier.trials == est.trials - block and not met(earlier)

    @pytest.mark.parametrize("rule,snr_db,reason", [
        (StoppingRule(min_errors=10**9, max_trials=3 * 4096), 0.0, STOP_MAX_TRIALS),
        (StoppingRule(min_errors=50, max_trials=10**7), 0.0, STOP_MIN_ERRORS),
        (StoppingRule(min_errors=1, max_trials=10**7, target_ci_width=0.2), 30.0,
         STOP_CI_WIDTH),
        # Both hold at the first boundary: max_trials is checked first.
        (StoppingRule(min_errors=1, max_trials=4096), 0.0, STOP_MAX_TRIALS),
    ], ids=["max_trials", "min_errors", "ci_width", "max_trials_first"])
    def test_stop_reason_names_the_criterion_that_fired(self, rule, snr_db, reason):
        for workers in (1, 2):
            est = run_ber_point(star_config(), snr_db, 0, rule, seed=5, block_size=4096,
                                workers=workers)
            assert est.stop_reason == reason, workers
            if reason == STOP_MIN_ERRORS:
                assert est.errors >= rule.min_errors and est.trials < rule.max_trials
            if reason == STOP_MAX_TRIALS:
                assert est.trials == rule.max_trials

    def test_stream_keys_decorrelate_cells(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=50, max_trials=200_000)
        a = run_ber_point(cfg, 10.0, 1, rule, seed=1, stream_key=(0,))
        b = run_ber_point(cfg, 10.0, 1, rule, seed=1, stream_key=(1,))
        assert a.errors != b.errors

    @pytest.mark.parametrize("seed, stream_key, block, words", [
        (0, (), 0, (0xf1645affcd5f76ee, 0x50fb78bc01675596, 0xb8eb71a2c24c942d)),
        (7, (0, 1), 0, (0x9238b23fea81c29a, 0xa37d60c0969542f1, 0x0d46190f62476dbf)),
        (31, (3, 2), 5, (0x1848b2d0e5091db0, 0x1cc185a8efec9ca4, 0xe83485f20ebf5458)),
    ])
    def test_block_generator_words_are_pinned(self, seed, stream_key, block, words):
        # SeedSequence(seed, spawn_key=(*stream_key, block)) into PCG64; numpy
        # keeps both streams fixed across versions.
        raw = _block_rng(seed, stream_key, block).bit_generator.random_raw(3)
        assert tuple(int(w) for w in raw) == words

    @pytest.mark.parametrize("sic_mode", [GENIE, DETECTED])
    @pytest.mark.parametrize("name", list(KERNEL_CONFIGS))
    def test_block_kernel_keeps_its_random_streams(self, name, sic_mode):
        # Same error count (in a tally of m trials) and same generator end
        # state as the reference kernel, for one trial, a chunk and a row
        # past it, and a full block.
        cfg = replace(KERNEL_CONFIGS[name], sic_mode=sic_mode)
        snr = 10 ** (20.0 / 10)
        for user in range(cfg.n_users):
            for m in (1, 2049, 65536):
                got, want = _block_rng(3, (user, m), 0), _block_rng(3, (user, m), 0)
                assert (_block_errors(cfg, user, snr, got, m)
                        == Bernoulli(reference_block_errors(cfg, user, snr, want, m), m)), \
                    (user, m)
                assert got.bit_generator.state == want.bit_generator.state, (user, m)

    def test_pool_holds_at_most_the_cpu_count_of_threads(self, monkeypatch):
        # A point submits ``workers`` pull tasks, but every point's tasks run
        # on one process pool of at most the CPU count of threads, so only
        # that many blocks run (and hold their arrays) at once.
        cpus = os.cpu_count() or 1
        threads, running, peak = set(), [0], [0]
        lock = threading.Lock()

        def recording(*args):
            with lock:
                threads.add(threading.get_ident())
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                return block_errors(*args)
            finally:
                with lock:
                    running[0] -= 1

        block_errors = engine._block_errors
        monkeypatch.setattr(engine, "_block_errors", recording)
        rule = StoppingRule(min_errors=10**9, max_trials=64 * 256)
        est = run_ber_point(star_config(), 10.0, 0, rule, seed=3, block_size=256,
                            workers=10**6)
        assert engine._block_pool()._max_workers <= cpus
        assert est.blocks == 64
        assert est == run_ber_point(star_config(), 10.0, 0, rule, seed=3, block_size=256)
        assert len(threads) <= cpus and peak[0] <= cpus
        assert len(engine._block_pool()._threads) <= cpus

    def test_concurrent_points_share_the_pool_not_the_arrays(self):
        # Points run from several threads at once share the process pool,
        # with more pull tasks per point than cores; each pool thread's block
        # arrays are its own, so every estimate is the one-thread estimate.
        cases = [(star_config(same_zone=True), 12.0, 0), (star_config(), 6.0, 1),
                 (presets.fig5((4, 6, 8)).runs[0].config, 20.0, 2)]
        rule = StoppingRule(min_errors=10**9, max_trials=12 * 1000)
        want = [run_ber_point(cfg, snr, user, rule, seed=9, block_size=1000)
                for cfg, snr, user in cases]
        got, failures = {}, []

        def caller(k):
            try:
                for i in range(3):
                    cfg, snr, user = cases[(k + i) % len(cases)]
                    got[k, i] = run_ber_point(cfg, snr, user, rule, seed=9,
                                              block_size=1000, workers=5)
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers) and failures == []
        assert got == {(k, i): want[(k + i) % len(cases)]
                       for k in range(4) for i in range(3)}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads, 3.12+
    def test_forked_child_runs_points_on_its_own_pool(self):
        # The child has none of its parent's pool threads; a pool it shared
        # would take its blocks and never run them.
        rule = StoppingRule(min_errors=10**9, max_trials=4 * 256)

        def point():
            est = run_ber_point(star_config(), 10.0, 1, rule, seed=4, block_size=256,
                                workers=2)
            return f"{est.errors} {est.trials} {est.blocks}".encode()

        want = point()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read)
                os.write(write, point())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                os.close(read)
                pytest.fail("the forked child's point did not finish")
            time.sleep(0.05)
        with os.fdopen(read, "rb") as fh:
            got = fh.read()
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert got == want

    def test_block_failure_raises_from_its_own_point(self, monkeypatch):
        # A block that raises while the other tasks pull blocks fails its
        # point only after every block that point started has finished; the
        # next point is unharmed.
        rule = StoppingRule(min_errors=10**9, max_trials=8 * 256)
        want = run_ber_point(star_config(), 10.0, 1, rule, seed=5, block_size=256,
                             workers=4)
        calls, finished = [], []
        lock = threading.Lock()

        def failing(*args):
            with lock:
                calls.append(None)
                failed = len(calls) == 2
            try:
                if failed:
                    raise RuntimeError("block failed")
                time.sleep(0.05)
                return block_errors(*args)
            finally:
                with lock:
                    finished.append(None)

        block_errors = engine._block_errors
        monkeypatch.setattr(engine, "_block_errors", failing)
        with pytest.raises(RuntimeError, match="block failed"):
            run_ber_point(star_config(), 10.0, 1, rule, seed=5, block_size=256,
                          workers=4)
        assert len(finished) == len(calls) <= 4
        monkeypatch.setattr(engine, "_block_errors", block_errors)
        assert run_ber_point(star_config(), 10.0, 1, rule, seed=5, block_size=256,
                             workers=4) == want

    def test_each_block_is_claimed_once(self, monkeypatch):
        # A point's tasks share one claim counter and the merged counts;
        # with more tasks than cores and frequent thread switches, a lost
        # update would run a block twice or drop a block's errors.
        claimed, got = [], []

        def block_rng(*args):
            claimed.append(args[-1])
            return real_block_rng(*args)

        rule = StoppingRule(min_errors=10**9, max_trials=200 * 64)
        want = run_ber_point(star_config(), 10.0, 0, rule, seed=2, block_size=64)
        real_block_rng = engine._block_rng
        monkeypatch.setattr(engine, "_block_rng", block_rng)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=lambda: got.append(run_ber_point(
                star_config(), 10.0, 0, rule, seed=2, block_size=64, workers=8)))
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and got[0] == want and want.blocks == 200
        assert sorted(claimed) == list(range(200))

    @pytest.mark.parametrize("workers", [2, 5])
    def test_point_starts_no_block_past_its_stop_but_those_in_flight(self, monkeypatch,
                                                                     workers):
        # Block 0 alone meets min_errors, and every later block holds until
        # the point stops.  The task that merges block 0 stops the point
        # before it claims again, so past the stop only the blocks already
        # running on the other tasks start: at most one per pool thread.
        started = []

        def block_rng(seed, stream_key, b):
            started.append(b)
            return b  # the block's generator is its index, which ``held`` reads

        def held(config, user, snr, b, m, stop):
            if b == 0:
                return Bernoulli(m, m)
            assert stop.wait(timeout=60)
            raise BlockStopped

        monkeypatch.setattr(engine, "_block_rng", block_rng)
        monkeypatch.setattr(engine, "_block_errors", held)
        est = run_ber_point(star_config(), 10.0, 0, StoppingRule(min_errors=1),
                            seed=6, block_size=256, workers=workers)
        assert (est.blocks, est.errors, est.stop_reason) == (1, 256, STOP_MIN_ERRORS)
        assert sorted(started) == list(range(len(started)))
        assert len(started) <= est.blocks + min(workers, os.cpu_count() or 1) - 1

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two pool threads")
    def test_block_past_the_stop_ends_at_its_next_cascade_chunk(self, monkeypatch):
        # Block 0 waits until block 1 has drawn its first cascade chunk, then
        # returns and stops the point; block 1 is held after that chunk until
        # the stop, so it must end at its second chunk with no result.
        cfg, m, seed = star_config(), 4096, 8
        rule = StoppingRule(min_errors=1, max_trials=2 * m)
        want = run_ber_point(cfg, 0.0, 1, rule, seed=seed, block_size=m)
        chunk_words = channel._CASCADE_ROWS * cfg.users[1].elements
        made, outcome, drawn = {}, {}, []
        first_chunk = threading.Event()

        class HeldWords:
            # Block 1's bit generator: each draw waits for the point to stop.
            def __init__(self, rng, stop):
                self.rng, self.stop = rng, stop

            def random_raw(self, size):
                drawn.append(size)
                words = self.rng.bit_generator.random_raw(size)
                first_chunk.set()
                assert self.stop.wait(timeout=60)
                return words

        def block_rng(*args):
            made[args[-1]] = real_block_rng(*args)
            return made[args[-1]]

        def held(config, user, snr, rng, m, stop):
            b = next(k for k, made_rng in made.items() if made_rng is rng)
            if b == 1:
                rng = SimpleNamespace(bit_generator=HeldWords(rng, stop))
            else:
                assert first_chunk.wait(timeout=60)
            try:
                outcome[b] = block_errors(config, user, snr, rng, m, stop)
            except BaseException as exc:
                outcome[b] = type(exc).__name__
                raise
            return outcome[b]

        real_block_rng, block_errors = engine._block_rng, engine._block_errors
        monkeypatch.setattr(engine, "_block_rng", block_rng)
        monkeypatch.setattr(engine, "_block_errors", held)
        est = run_ber_point(cfg, 0.0, 1, rule, seed=seed, block_size=m, workers=2)
        assert est == want and est.blocks == 1 and est.stop_reason == STOP_MIN_ERRORS
        assert outcome == {0: want.tally, 1: "BlockStopped"}
        # Block 1 drew one chunk of words, fewer than its cascade alone needs.
        assert drawn == [chunk_words] and chunk_words < m * cfg.users[1].elements
        ref = real_block_rng(seed, (), 1)
        ref.bit_generator.random_raw(chunk_words)
        assert made[1].bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_tallies_merge_in_block_order(self, monkeypatch, workers):
        # Integer counts add in any order, so only a tally whose ``+`` does
        # not commute shows the merge order.  Past one worker each even block
        # finishes only after the odd block next to it.
        if workers > 1 and (os.cpu_count() or 1) < 2:
            pytest.skip("needs two pool threads")
        n_blocks, finished = 6, []
        done = [threading.Event() for _ in range(n_blocks)]

        def ordered(config, user, snr, b, m, stop):
            if workers > 1 and b % 2 == 0:
                assert done[b + 1].wait(timeout=60)
            finished.append(b)
            done[b].set()
            return OrderTally((b,), m)

        monkeypatch.setattr(engine, "_block_rng", lambda seed, stream_key, b: b)
        monkeypatch.setattr(engine, "_block_errors", ordered)
        rule = StoppingRule(min_errors=10**9, max_trials=n_blocks * 256)
        est = run_ber_point(star_config(), 10.0, 0, rule, block_size=256, workers=workers)
        assert est.tally == OrderTally(tuple(range(n_blocks)), n_blocks * 256)
        assert (finished == sorted(finished)) == (workers == 1)


@dataclass(frozen=True)
class OrderTally:
    """A tally with no errors whose ``+`` concatenates its blocks' indices."""

    order: tuple
    trials: int
    errors: int = 0

    def __add__(self, other):
        return OrderTally(self.order + other.order, self.trials + other.trials)

    def interval(self):
        return 0.0, 1.0


class TestEstimatorSeam:
    """The run path reads a block's result only through its tally, so the
    conditional estimator of ``tests/oracles.py`` replaces the error count by
    taking the place of ``engine._block_errors`` alone."""

    @pytest.mark.parametrize("snr_db", [22.5, 27.5])
    def test_conditional_tally_agrees_with_the_error_count(self, monkeypatch, tmp_path,
                                                          capsys, snr_db):
        # fig2 N=50, user 2: independent streams, within 4 joint standard errors.
        cfg = presets.fig2((50,)).runs[0].config
        rule = StoppingRule(min_errors=10**9, max_trials=8 * DEFAULT_BLOCK_SIZE)
        count = run_ber_point(cfg, snr_db, 1, rule, seed=2, stream_key=(0, 1))
        monkeypatch.setattr(engine, "_block_errors", conditional_block)
        est = run_ber_point(cfg, snr_db, 1, rule, seed=1, stream_key=(0, 1))
        assert isinstance(est.tally, ConditionalTally)
        assert (est.blocks, est.trials, est.stop_reason) == (8, rule.max_trials,
                                                            STOP_MAX_TRIALS)
        joint = math.hypot(est.tally.standard_error(),
                           math.sqrt(count.ber * (1.0 - count.ber) / count.trials))
        assert abs(est.ber - count.ber) <= STRICT_Z * joint
        assert est.ci_low < est.ber < est.ci_high and not est.underflow
        # The point command prints the same estimate: user 2 at the one SNR
        # value is the cell with stream key (0, 1).
        path = tmp_path / "fig2_n50.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert main(["point", "--config", str(path), "--snr-db", str(snr_db), "--user", "2",
                     "--seed", "1", "--min-errors", str(rule.min_errors),
                     "--max-trials", str(rule.max_trials)]) == 0
        out = capsys.readouterr().out
        assert f" ber_mc={est.ber:.12e} ci95=[{est.ci_low:.12e},{est.ci_high:.12e}] " in out
        assert out.endswith(f" trials={est.trials} errors={est.errors} stop=max_trials\n")


class TestPointEstimates:
    def test_config_builds_the_only_power_split(self, monkeypatch):
        # A config builds its power split once; a point's blocks and a
        # sweep's analytic columns read that object and build none.
        built = []
        post_init = PowerAllocation.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PowerAllocation, "__post_init__", counted)
        cfg = star_config(n1=4, n2=4, sic_mode=DETECTED)
        assert len(built) == 1 and built[0] is cfg.power_allocation()
        built.clear()
        rule = StoppingRule(min_errors=10**9, max_trials=4 * 1024)
        est = run_ber_point(cfg, 10.0, 1, rule, block_size=1024, workers=2)
        assert est.blocks == 4
        run_sweep(FigureRun("", cfg, SNR_AXIS, [0.0, 10.0], [0, 1]), rule)
        assert built == []

    def test_sweep_builds_one_params_per_config_and_user(self, monkeypatch):
        # fig3 at one split and size plus fig2's N=25 run: 84 cells, once
        # 105 params (one per cell, and a stage per detected cell), now 5:
        # fig2's two users, fig3's user 2 under each SIC mode and its stage.
        built = []
        post_init = analytic.UserAnalyticParams.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(analytic.UserAnalyticParams, "__post_init__", counted)
        monkeypatch.setattr(engine, "_block_errors",
                            lambda config, user, snr, rng, m, stop=None: Bernoulli(1, m))
        runs = presets.fig3([(0.7, 0.3)], [8]).runs + presets.fig2(element_counts=[25]).runs[:1]
        rule = StoppingRule(min_errors=1, max_trials=1024)
        cells = [cell for run in runs for cell in run_sweep(run, rule).cells]
        assert (len(cells), len(built)) == (84, 5)
        detected = runs[1].config.analytic_params(1)
        assert built[1:3] == [detected, detected.first_stage]

    def test_params_change_no_config_equality_or_hash(self):
        cfg, twin = (star_config(same_zone=True, sic_mode=DETECTED) for _ in range(2))
        hashed = hash(cfg)
        params = [cfg.analytic_params(k) for k in range(2)]
        assert all(cfg.analytic_params(k) is p for k, p in enumerate(params))
        assert cfg == twin and hash(cfg) == hashed == hash(twin) and repr(cfg) == repr(twin)
        assert replace(cfg, sic_mode=GENIE).analytic_params(1) is not params[1]
        with pytest.raises(InvalidParameterError, match="out of range"):
            cfg.analytic_params(-1)

    def test_noise_dominated_limit(self):
        # The 95% form stopped after one 65536-trial block.
        cfg = star_config()
        rule = StoppingRule(min_errors=10**9, max_trials=round(65536 * BUDGET_SCALE))
        lo, hi = strict_interval(run_ber_point(cfg, -40.0, 0, rule, seed=3))
        assert lo <= 0.5 <= hi

    def test_single_user_matches_quadrature_oracle(self):
        cfg = ScenarioConfig(variant=STAR_VARIANT,
                             users=(UserSpec(2.0, "transmission", 32, 1.0),),
                             bs_ris_distance=20.0)
        expected = analytic.ber_numeric(cfg.analytic_params(0), 10 ** 0.8)
        rule = StoppingRule(min_errors=round(3000 * BUDGET_SCALE),
                            max_trials=round(1_000_000 * BUDGET_SCALE))
        lo, hi = strict_interval(run_ber_point(cfg, 8.0, 0, rule, seed=5))
        assert lo <= expected <= hi

    def test_numeric_oracle_matches_monte_carlo_at_power_4(self):
        # snr is P / sigma^2 and the co-zone interferers carry unit power;
        # an analytic route that counts P twice is 160x low here.
        cfg = replace(presets.fig5((25, 25, 50)).runs[0].config, transmit_power=4.0)
        expected = analytic.ber_numeric(cfg.analytic_params(1), 100.0)
        rule = StoppingRule(min_errors=round(2000 * BUDGET_SCALE),
                            max_trials=round(500_000 * BUDGET_SCALE))
        lo, hi = strict_interval(run_ber_point(cfg, 20.0, 1, rule, seed=13))
        assert lo <= expected <= hi

    def test_classical_single_user_matches_textbook_form(self):
        gain = 0.02
        cfg = ScenarioConfig(
            variant=CLASSICAL_VARIANT,
            users=(UserSpec(2.0, "transmission", 0, 1.0,
                            classical_distance=1.0 / math.sqrt(gain)),),
            bs_ris_distance=20.0)
        g_bar = gain * 10.0 ** 2.0
        expected = 0.5 * (1.0 - math.sqrt(g_bar / (1.0 + g_bar)))
        rule = StoppingRule(min_errors=round(5000 * BUDGET_SCALE),
                            max_trials=round(1_000_000 * BUDGET_SCALE))
        lo, hi = strict_interval(run_classical_point(cfg, 20.0, 0, rule, seed=6))
        assert lo <= expected <= hi

    def test_detected_sic_never_beats_genie(self):
        rule = StoppingRule(min_errors=800, max_trials=600_000)
        for snr_db in (6.0, 12.0, 18.0):
            genie = run_ber_point(star_config(sic_mode=GENIE), snr_db, 1, rule, seed=9)
            det = run_ber_point(star_config(sic_mode=DETECTED), snr_db, 1, rule, seed=9)
            assert det.ber >= genie.ci_low * 0.9

    def test_underflow_flag_and_one_sided_interval(self):
        cfg = ScenarioConfig(variant=STAR_VARIANT,
                             users=(UserSpec(2.0, "transmission", 64, 1.0),),
                             bs_ris_distance=5.0)
        est = run_ber_point(cfg, 60.0, 0,
                            StoppingRule(min_errors=10, max_trials=100_000), seed=7)
        assert est.errors == 0
        assert est.underflow
        assert est.ci_low == 0.0
        assert est.ci_high > 0.0

    def test_full_chain_matches_object_reference(self):
        # Statistical cross-check of the vectorised trial loop against a
        # scalar reference built from the realization API and the scalar
        # receiver, including the same-zone leakage path.
        cfg = star_config(n1=4, n2=4, same_zone=True, sic_mode=DETECTED)
        snr_db, trials = 10.0, 20_000
        est = run_ber_point(cfg, snr_db, 0,
                            StoppingRule(min_errors=10**9, max_trials=trials), seed=11)

        rng = np.random.default_rng(12)
        palloc = cfg.power_allocation()
        snr = 10 ** (snr_db / 10)
        sigma = math.sqrt(cfg.transmit_power / snr / 2.0)
        errors = 0
        for _ in range(trials):
            real = align_all(sample_realization(cfg, rng))
            phi = cascaded_gain(real, 0)
            xi = interference_coefficient(real, 0)
            bits = (1 if rng.random() < 0.5 else -1, 1 if rng.random() < 0.5 else -1)
            s = palloc.amplitude(0) * bits[0] + palloc.amplitude(1) * bits[1]
            stream = 1 if rng.random() < 0.5 else -1
            noise = complex(rng.normal(0, sigma), rng.normal(0, sigma))
            y = phi * s + xi * stream + noise
            out = sic_receive(y, 0, phi, palloc, mode=DETECTED)
            errors += out.final != bits[0]
        ref = errors / trials
        se = math.sqrt(ref * (1 - ref) / trials + est.ber * (1 - est.ber) / est.trials)
        assert abs(ref - est.ber) < 5 * se


class TestOrderingCheck:
    def test_silent_when_consistent(self):
        assert ordering_warnings(star_config()) == ()

    def test_warns_when_power_order_contradicts_channel(self):
        # User 1 gets more power but also the stronger channel.
        cfg = ScenarioConfig(
            variant=STAR_VARIANT,
            users=(UserSpec(2.0, "transmission", 32, 0.7),
                   UserSpec(6.0, "reflection", 8, 0.3)),
            bs_ris_distance=20.0)
        warnings_ = ordering_warnings(cfg)
        assert len(warnings_) == 1
        assert "power" in warnings_[0]

    def test_classical_uses_path_gain(self):
        cfg = ScenarioConfig(
            variant=CLASSICAL_VARIANT,
            users=(UserSpec(2.0, "transmission", 0, 0.7, classical_distance=2.0),
                   UserSpec(6.0, "reflection", 0, 0.3, classical_distance=6.0)),
            bs_ris_distance=20.0)
        assert len(ordering_warnings(cfg)) == 1

    RULE = StoppingRule(min_errors=1, max_trials=1000)

    def test_elements_sweep_drops_a_base_split_warning(self):
        # The base split (60, 6) favours the farther user 1; every swept
        # point gives both users the same count, so user 2 is stronger.
        cfg = star_config(n1=60, n2=6, d=(8.0, 4.0))
        assert len(ordering_warnings(cfg)) == 1
        result = run_sweep(FigureRun("", cfg, "elements", [8, 16], [0], snr_db=20.0),
                           self.RULE)
        assert result.warnings == ()
        # An SNR sweep simulates the base config at every point: the warning
        # holds throughout and reads as ordering_warnings gives it.
        result = run_sweep(FigureRun("", cfg, "snr_db", [0.0, 10.0], [0]), self.RULE)
        assert result.warnings == ordering_warnings(cfg)

    def test_elements_sweep_warns_where_each_point_does(self):
        # Silent on the base split (6, 60); with equal counts the nearer
        # user 1 has the stronger channel at every swept point.
        cfg = star_config(n1=6, n2=60, d=(4.0, 8.0))
        assert ordering_warnings(cfg) == ()
        result = run_sweep(FigureRun("", cfg, "elements", [8, 16], [0], snr_db=20.0),
                           self.RULE)
        assert result.warnings == tuple(
            f"at elements={n}: {w}" for n in (8, 16)
            for w in ordering_warnings(replace(cfg, users=tuple(
                replace(u, elements=n) for u in cfg.users))))
        assert len(result.warnings) == 2


class TestSweep:
    def test_cardinality(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(FigureRun("", cfg, "snr_db", [0.0, 5.0, 10.0], [0, 1]), rule,
                           seed=1)
        assert len(result.cells) == 6
        assert result.run.values == (0.0, 5.0, 10.0)

    def test_single_point_axis(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(FigureRun("", cfg, "snr_db", [5.0], [1]), rule, seed=1)
        assert len(result.cells) == 1

    def test_axis_validation(self):
        cfg = star_config()
        with pytest.raises(ConfigError, match="strictly increasing"):
            FigureRun("", cfg, "snr_db", [5.0, 5.0], [0])
        with pytest.raises(ConfigError, match="nonempty"):
            FigureRun("", cfg, "snr_db", [], [0])
        with pytest.raises(ConfigError, match="axis"):
            FigureRun("", cfg, "frequency", [1.0], [0])

    def test_elements_axis_requires_fixed_snr(self):
        cfg = star_config()
        with pytest.raises(ConfigError, match="snr_db"):
            FigureRun("", cfg, "elements", [8, 16], [0])

    def test_elements_axis_applies_counts(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(FigureRun("", cfg, "elements", [4, 8], [1], snr_db=10.0), rule,
                           seed=2)
        bers = [c.estimate.ber for c in result.cells]
        assert bers[1] < bers[0]

    def test_power_axis_two_users_only(self):
        cfg = ScenarioConfig(
            variant=STAR_VARIANT,
            users=(UserSpec(3.0, "transmission", 8, 0.5),
                   UserSpec(2.5, "transmission", 8, 0.3),
                   UserSpec(2.0, "reflection", 8, 0.2)),
            bs_ris_distance=20.0)
        with pytest.raises(ConfigError, match="two users"):
            FigureRun("", cfg, "power", [0.6, 0.7], [0], snr_db=10.0)

    def test_power_axis_value_range(self):
        cfg = star_config()
        with pytest.raises(ConfigError, match="0.5"):
            FigureRun("", cfg, "power", [0.3, 0.7], [0], snr_db=10.0)

    def test_analytic_columns_align(self):
        cfg = star_config(n1=16, n2=16, same_zone=True)
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(FigureRun("", cfg, "snr_db", [10.0], [0, 1]), rule, seed=3)
        for cell in result.cells:
            params = cfg.analytic_params(cell.user)
            assert route(cell, "ber_closed_form") == pytest.approx(
                analytic.ber_closed_form(params, 10.0 ** 1.0), rel=1e-12, abs=0)
            assert route(cell, "ber_asymptotic") == pytest.approx(
                analytic.ber_asymptotic(params), rel=1e-12, abs=0)

    def test_no_floor_marked_as_none(self):
        cfg = star_config(same_zone=False)
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(FigureRun("", cfg, "snr_db", [10.0], [0]), rule, seed=3)
        assert route(result.cells[0], "ber_asymptotic") is None

    def test_detected_mode_uses_sic_error_combination(self):
        cfg = star_config(n1=16, n2=16, sic_mode=DETECTED)
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(FigureRun("", cfg, "snr_db", [10.0], [0, 1]), rule, seed=4)
        p_perfect = analytic.ber_closed_form(cfg.analytic_params(1), 10.0)
        cell_u1, cell_u2 = result.cells
        # non-cancelling user is mode independent
        assert route(cell_u1, "ber_closed_form") == pytest.approx(
            analytic.ber_closed_form(cfg.analytic_params(0), 10.0), rel=1e-12, abs=0)
        assert route(cell_u2, "ber_closed_form") > p_perfect

    # The note a refused analytic route leaves: (0.5, 0.5) gives the stronger
    # user's symbol a zero-amplitude sign combination.
    ZERO_AMPLITUDE = ("a sign combination has non-positive amplitude; the one-sided "
                      "tail fit does not cover this allocation")

    def test_refused_closed_form_and_asymptote_leave_notes(self):
        cfg = star_config(n1=8, n2=8, same_zone=True, a=(0.5, 0.5))
        rule = StoppingRule(min_errors=1, max_trials=1000)
        cell_u1, cell_u2 = run_sweep(FigureRun("", cfg, "snr_db", [0.0], [0, 1]), rule,
                                     seed=1).cells
        assert (math.isnan(route(cell_u1, "ber_closed_form"))
                and math.isnan(route(cell_u1, "ber_asymptotic")))
        assert math.isfinite(route(cell_u1, "ber_numeric"))
        assert cell_u1.notes == (f"closed form unavailable for user 1: {self.ZERO_AMPLITUDE}",
                                 f"asymptote unavailable for user 1: {self.ZERO_AMPLITUDE}")
        assert cell_u2.notes == ()
        assert all(math.isfinite(route(cell_u2, name)) for name in ROUTE_NAMES)

    def test_refused_imperfect_sic_closed_form_leaves_a_note(self):
        cfg = star_config(n1=8, n2=8, a=(0.5, 0.5), sic_mode=DETECTED)
        rule = StoppingRule(min_errors=1, max_trials=1000)
        cell = run_sweep(FigureRun("", cfg, "snr_db", [0.0], [1]), rule, seed=1).cells[0]
        assert (math.isnan(route(cell, "ber_closed_form"))
                and math.isfinite(route(cell, "ber_numeric")))
        assert route(cell, "ber_asymptotic") is None
        assert cell.notes == (f"imperfect-SIC closed form unavailable: {self.ZERO_AMPLITUDE}",)

    def test_detected_sic_beyond_two_users_leaves_a_note(self):
        cfg = ScenarioConfig(
            variant=STAR_VARIANT,
            users=(UserSpec(3.0, "transmission", 8, 0.5),
                   UserSpec(2.5, "transmission", 8, 0.3),
                   UserSpec(2.0, "reflection", 8, 0.2)),
            bs_ris_distance=20.0, sic_mode=DETECTED)
        rule = StoppingRule(min_errors=1, max_trials=1000)
        for cell in run_sweep(FigureRun("", cfg, "snr_db", [0.0], [1, 2]), rule, seed=1).cells:
            assert all(math.isnan(route(cell, name)) for name in ROUTE_NAMES)
            assert cell.notes == ("detected-SIC analytics are derived for two users only",)

    def test_underflow_note_propagates(self):
        cfg = ScenarioConfig(variant=STAR_VARIANT,
                             users=(UserSpec(2.0, "transmission", 64, 1.0),),
                             bs_ris_distance=5.0)
        rule = StoppingRule(min_errors=10, max_trials=70_000)
        result = run_sweep(FigureRun("", cfg, "snr_db", [60.0], [0]), rule, seed=5)
        assert any("one-sided" in n for n in result.cells[0].notes)
