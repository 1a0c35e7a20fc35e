import math

import numpy as np
import pytest

import starnoma.analytic as analytic
from oracles import (align_all, cascaded_gain, interference_coefficient,
                     sample_realization, sic_receive)
from starnoma.engine import (
    CLASSICAL_VARIANT,
    STAR_VARIANT,
    BerEstimate,
    ScenarioConfig,
    StoppingRule,
    UserSpec,
    ordering_warnings,
    run_ber_point,
    run_classical_point,
    run_sweep,
    wilson_interval,
)
from starnoma.errors import ConfigError, InvalidParameterError
from starnoma.noma import DETECTED, GENIE


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
        cfg = ScenarioConfig(variant=CLASSICAL_VARIANT,
                             users=(UserSpec(3.0, "transmission", 0, 1.0),))
        with pytest.raises(ConfigError, match="classical_distance"):
            cfg.classical_gain(0)

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
        lo, hi = wilson_interval(0, 10_000)
        assert lo == 0.0
        assert 0.0 < hi < 1e-3

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


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        cfg = star_config(same_zone=True)
        rule = StoppingRule(min_errors=150, max_trials=400_000)
        runs = [run_ber_point(cfg, 12.0, 0, rule, seed=31, workers=w)
                for w in (1, 2, 5)]
        assert len({(r.errors, r.trials, r.blocks) for r in runs}) == 1

    def test_seed_changes_result(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=50, max_trials=200_000)
        a = run_ber_point(cfg, 10.0, 1, rule, seed=1)
        b = run_ber_point(cfg, 10.0, 1, rule, seed=2)
        assert (a.errors, a.trials) != (b.errors, b.trials)

    def test_stream_keys_decorrelate_cells(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=50, max_trials=200_000)
        a = run_ber_point(cfg, 10.0, 1, rule, seed=1, stream_key=(0,))
        b = run_ber_point(cfg, 10.0, 1, rule, seed=1, stream_key=(1,))
        assert a.errors != b.errors


class TestPointEstimates:
    def test_noise_dominated_limit(self):
        cfg = star_config()
        est = run_ber_point(cfg, -40.0, 0, StoppingRule(min_errors=200, max_trials=200_000), seed=3)
        assert est.ci_low <= 0.5 <= est.ci_high

    def test_single_user_matches_quadrature_oracle(self):
        cfg = ScenarioConfig(variant=STAR_VARIANT,
                             users=(UserSpec(2.0, "transmission", 32, 1.0),),
                             bs_ris_distance=20.0)
        expected = analytic.ber_numeric(cfg.analytic_params(0), 10 ** 0.8)
        est = run_ber_point(cfg, 8.0, 0,
                            StoppingRule(min_errors=3000, max_trials=1_000_000), seed=5)
        assert est.ci_low <= expected <= est.ci_high

    def test_classical_single_user_matches_textbook_form(self):
        gain = 0.02
        cfg = ScenarioConfig(
            variant=CLASSICAL_VARIANT,
            users=(UserSpec(2.0, "transmission", 0, 1.0,
                            classical_distance=1.0 / math.sqrt(gain)),),
            bs_ris_distance=20.0)
        g_bar = gain * 10.0 ** 2.0
        expected = 0.5 * (1.0 - math.sqrt(g_bar / (1.0 + g_bar)))
        est = run_classical_point(cfg, 20.0, 0,
                                  StoppingRule(min_errors=5000, max_trials=1_000_000),
                                  seed=6)
        assert est.ci_low <= expected <= est.ci_high

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
        alloc = cfg.allocation()
        pls = tuple(cfg.path_loss(k) for k in range(2))
        palloc = cfg.power_allocation()
        snr = 10 ** (snr_db / 10)
        sigma = math.sqrt(cfg.transmit_power / snr / 2.0)
        errors = 0
        for _ in range(trials):
            real = align_all(sample_realization(alloc, pls, rng))
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


class TestSweep:
    def test_cardinality(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(cfg, "snr_db", [0.0, 5.0, 10.0], [0, 1], rule, seed=1)
        assert len(result.cells) == 6
        assert result.values == (0.0, 5.0, 10.0)

    def test_single_point_axis(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(cfg, "snr_db", [5.0], [1], rule, seed=1)
        assert len(result.cells) == 1

    def test_axis_validation(self):
        cfg = star_config()
        with pytest.raises(ConfigError, match="strictly increasing"):
            run_sweep(cfg, "snr_db", [5.0, 5.0], [0])
        with pytest.raises(ConfigError, match="nonempty"):
            run_sweep(cfg, "snr_db", [], [0])
        with pytest.raises(ConfigError, match="axis"):
            run_sweep(cfg, "frequency", [1.0], [0])

    def test_elements_axis_requires_fixed_snr(self):
        cfg = star_config()
        with pytest.raises(ConfigError, match="snr_db"):
            run_sweep(cfg, "elements", [8, 16], [0])

    def test_elements_axis_applies_counts(self):
        cfg = star_config()
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(cfg, "elements", [4, 8], [1], rule, seed=2, snr_db=10.0)
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
            run_sweep(cfg, "power", [0.6, 0.7], [0], snr_db=10.0)

    def test_power_axis_value_range(self):
        cfg = star_config()
        with pytest.raises(ConfigError, match="0.5"):
            run_sweep(cfg, "power", [0.3, 0.7], [0], snr_db=10.0)

    def test_analytic_columns_align(self):
        cfg = star_config(n1=16, n2=16, same_zone=True)
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(cfg, "snr_db", [10.0], [0, 1], rule, seed=3)
        for cell in result.cells:
            params = cfg.analytic_params(cell.user)
            assert cell.ber_closed_form == pytest.approx(
                analytic.ber_closed_form(params, 10.0 ** 1.0), rel=1e-12)
            assert cell.ber_asymptotic == pytest.approx(
                analytic.ber_asymptotic(params), rel=1e-12)

    def test_no_floor_marked_as_none(self):
        cfg = star_config(same_zone=False)
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(cfg, "snr_db", [10.0], [0], rule, seed=3)
        assert result.cells[0].ber_asymptotic is None

    def test_detected_mode_uses_sic_error_combination(self):
        cfg = star_config(n1=16, n2=16, sic_mode=DETECTED)
        rule = StoppingRule(min_errors=20, max_trials=70_000)
        result = run_sweep(cfg, "snr_db", [10.0], [0, 1], rule, seed=4)
        p_perfect = analytic.ber_closed_form(cfg.analytic_params(1), 10.0)
        cell_u1, cell_u2 = result.cells
        # non-cancelling user is mode independent
        assert cell_u1.ber_closed_form == pytest.approx(
            analytic.ber_closed_form(cfg.analytic_params(0), 10.0), rel=1e-12)
        assert cell_u2.ber_closed_form > p_perfect

    def test_underflow_note_propagates(self):
        cfg = ScenarioConfig(variant=STAR_VARIANT,
                             users=(UserSpec(2.0, "transmission", 64, 1.0),),
                             bs_ris_distance=5.0)
        rule = StoppingRule(min_errors=10, max_trials=70_000)
        result = run_sweep(cfg, "snr_db", [60.0], [0], rule, seed=5)
        assert any("one-sided" in n for n in result.cells[0].notes)
