import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ChannelRealization,
    align_all,
    align_phases,
    cascaded_gain,
    co_zone_users,
    interference_coefficient,
    sample_float32_cascade_batch,
    sample_interference_batch,
    sample_rayleigh_cascade_batch,
    sample_realization,
    subsurface_response,
)
from starnoma import channel
from starnoma.channel import (
    clt_moments,
    path_gain,
    sample_cascade_batch,
    sample_leakage_noise_batch,
)
from starnoma.engine import STAR_VARIANT, ScenarioConfig, UserSpec
from starnoma.errors import InvalidParameterError


def rng(seed=0):
    return np.random.default_rng(seed)


def scenario(counts, zones, distances, bs_ris_distance=50.0, **system):
    """Surface-variant config with equal power shares; the channel model
    reads only the geometry, the zones and the element counts."""
    share = 1.0 / len(counts)
    return ScenarioConfig(
        variant=STAR_VARIANT, bs_ris_distance=bs_ris_distance,
        users=tuple(UserSpec(d, z, n, share)
                    for n, z, d in zip(counts, zones, distances)),
        **system)


class TestPathGain:
    def test_inverse_square_at_50m(self):
        assert path_gain(50, 2) == pytest.approx(4.0e-4, rel=1e-12, abs=0)

    def test_unit_distance(self):
        assert path_gain(1, 7.3) == 1.0

    def test_two_hop_product(self):
        # 6**-2 * 50**-2 = 1/90000
        overall = path_gain(6, 2) * path_gain(50, 2)
        assert overall == pytest.approx(1.1111111111111112e-05, rel=1e-12, abs=0)
        assert overall == pytest.approx(1.0 / 90000.0, rel=1e-12, abs=0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(InvalidParameterError):
            path_gain(0.0, 2)
        with pytest.raises(InvalidParameterError):
            path_gain(-3.0, 2)

    def test_params_compose_gains(self):
        cfg = scenario((4, 3), ("transmission", "reflection"), (6.0, 4.0),
                       bs_ris_distance=40.0, bs_exponent=2.2, ris_user_exponent=2.7)
        assert cfg.bs_gain() == path_gain(40.0, 2.2)
        assert cfg.user_gain(0) == path_gain(6.0, 2.7)
        assert cfg.user_gain(1) == path_gain(4.0, 2.7)
        for k in range(2):
            assert cfg.overall_gain(k) == cfg.bs_gain() * cfg.user_gain(k)


class TestAllocation:
    def test_zone_totals(self):
        cfg = scenario((10, 20, 25), ("transmission", "transmission", "reflection"),
                       (3.0, 4.0, 5.0))
        assert [cfg.zone_elements(k) for k in range(3)] == [30, 30, 25]
        assert [cfg.analytic_params(k).co_zone_elements for k in range(3)] == [20, 10, 0]
        assert [cfg.analytic_params(k).zone_elements for k in range(3)] == [30, 30, 25]
        assert co_zone_users(cfg, 0) == (1,)
        assert co_zone_users(cfg, 2) == ()


class TestCltMoments:
    def test_unit_gain_four_elements(self):
        mu, v = clt_moments(1.0, 4)
        assert mu == pytest.approx(math.pi, rel=1e-12, abs=0)
        assert v == pytest.approx(4.0 - math.pi**2 / 4.0, rel=1e-12, abs=0)

    def test_empty_subsurface(self):
        assert clt_moments(0.5, 0) == (0.0, 0.0)

    def test_small_gain_fifty_elements(self):
        mu, _ = clt_moments(1.111e-6, 50)
        assert mu == pytest.approx(0.041392048016516476, rel=1e-12, abs=0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            clt_moments(0.0, 4)
        with pytest.raises(InvalidParameterError):
            clt_moments(1.0, -1)


def two_user_setup(n1=4, n2=3, same_zone=False):
    zones = ("transmission", "transmission" if same_zone else "reflection")
    return scenario((n1, n2), zones, (6.0, 4.0))


class TestSampling:
    def test_deterministic_given_seed(self):
        cfg = two_user_setup(same_zone=True)
        a = sample_realization(cfg, rng(123))
        b = sample_realization(cfg, rng(123))
        for i in range(2):
            np.testing.assert_array_equal(a.bs_vectors[i], b.bs_vectors[i])
        for key in a.user_vectors:
            np.testing.assert_array_equal(a.user_vectors[key], b.user_vectors[key])

    def test_zero_element_subsurface_is_empty(self):
        cfg = two_user_setup(n1=0, n2=5)
        real = sample_realization(cfg, rng(1))
        assert real.bs_vectors[0].size == 0
        assert cascaded_gain(align_all(real), 0) == 0.0

    def test_entry_variances_match_hop_gains(self):
        # One huge subsurface gives a million i.i.d. entries in one draw.
        cfg = scenario((1_000_000,), ("transmission",), (6.0,))
        real = sample_realization(cfg, rng(7))
        h2 = np.abs(real.bs_vectors[0]) ** 2
        g2 = np.abs(real.user_vectors[(0, 0)]) ** 2
        assert h2.mean() == pytest.approx(cfg.bs_gain(), rel=0.01, abs=0)
        assert g2.mean() == pytest.approx(cfg.user_gain(0), rel=0.01, abs=0)


class TestAlignment:
    def test_single_element_magnitudes_multiply(self):
        cfg = scenario((1,), ("transmission",), (6.0,))
        real = sample_realization(cfg, rng(0))
        h = np.array([0.3 * np.exp(-1j * math.pi / 3)])
        g = np.array([2.0 * np.exp(-1j * math.pi / 6)])
        real = ChannelRealization(cfg, (h,), {(0, 0): g}, real.phases)
        aligned = real.with_phases(0, align_phases(real, 0))
        resp = subsurface_response(aligned, 0, 0)
        assert abs(resp) == pytest.approx(0.6, rel=1e-12, abs=0)
        assert resp.imag == pytest.approx(0.0, abs=1e-12)

    def test_aligned_gain_is_sum_of_amplitude_products(self):
        real = align_all(sample_realization(two_user_setup(), rng(5)))
        for k in range(2):
            expected = np.sum(np.abs(real.bs_vectors[k])
                              * np.abs(real.user_vectors[(k, k)]))
            assert cascaded_gain(real, k) == pytest.approx(expected, rel=1e-12, abs=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_alignment_dominates_any_phase_choice(self, seed):
        cfg = scenario((6,), ("transmission",), (6.0,))
        r = rng(seed)
        real = sample_realization(cfg, r)
        aligned = cascaded_gain(real.with_phases(0, align_phases(real, 0)), 0)
        random_theta = r.uniform(0.0, 2.0 * math.pi, 6)
        other = abs(subsurface_response(real.with_phases(0, random_theta), 0, 0))
        assert other <= aligned + 1e-12

    def test_cascaded_moments_match_gaussian_limit(self):
        # Moderate draw count; the strict large-sample check lives in the
        # acceptance suite.
        n_draws, n_elem = 40_000, 25
        cfg = scenario((n_elem,), ("transmission",), (4.0,))
        r = rng(21)
        gains = np.empty(n_draws)
        for i in range(n_draws):
            real = sample_realization(cfg, r)
            gains[i] = cascaded_gain(real.with_phases(0, align_phases(real, 0)), 0)
        mu, v = clt_moments(cfg.overall_gain(0), n_elem)
        assert gains.mean() == pytest.approx(mu, rel=0.01, abs=0)
        assert gains.var() == pytest.approx(v, rel=0.05, abs=0)

    def test_single_element_unit_gain_mean(self):
        vals = sample_cascade_batch(1.0, 1.0, 1, 400_000, rng(3))
        assert vals.mean() == pytest.approx(math.pi / 4.0, rel=0.005, abs=0)


class TestInterference:
    def test_sole_occupant_sees_exact_zero(self):
        real = align_all(sample_realization(two_user_setup(same_zone=False), rng(2)))
        assert interference_coefficient(real, 0) == 0j
        assert interference_coefficient(real, 1) == 0j

    def test_zone_isolation(self):
        # The reflection-zone user's interference ignores transmission
        # elements entirely, whatever their count.
        for n1 in (1, 64):
            real = align_all(sample_realization(two_user_setup(n1=n1, n2=8), rng(4)))
            assert interference_coefficient(real, 1) == 0j

    def test_object_path_statistics(self):
        cfg = two_user_setup(n1=6, n2=6, same_zone=True)
        r = rng(11)
        n_draws = 20_000
        vals = np.empty(n_draws, dtype=complex)
        for i in range(n_draws):
            real = align_all(sample_realization(cfg, r))
            vals[i] = interference_coefficient(real, 0)
        L = cfg.overall_gain(0)
        var_expected = L * cfg.users[1].elements
        assert np.abs(vals) .var(ddof=0) > 0  # sanity: nondegenerate
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(var_expected, rel=0.05, abs=0)
        # zero-mean within 3 sigma of the estimator for each part
        se = math.sqrt(var_expected / 2.0 / n_draws)
        assert abs(vals.real.mean()) < 3 * se
        assert abs(vals.imag.mean()) < 3 * se

    def test_batch_matches_object_path_law(self):
        cfg = two_user_setup(n1=5, n2=7, same_zone=True)
        r = rng(13)
        n_draws = 15_000
        obj = np.empty(n_draws, dtype=complex)
        for i in range(n_draws):
            real = align_all(sample_realization(cfg, r))
            obj[i] = interference_coefficient(real, 0)
        batch = sample_interference_batch(cfg.bs_gain(), cfg.user_gain(0),
                                          cfg.users[1].elements, n_draws, rng(14))
        assert np.mean(np.abs(batch) ** 2) == pytest.approx(
            np.mean(np.abs(obj) ** 2), rel=0.06, abs=0)
        # real parts carry half the power in both paths
        assert batch.real.var() == pytest.approx(obj.real.var(), rel=0.08, abs=0)

    def test_batch_variance_large_sample(self):
        bs_gain, user_gain, extra = 4e-4, 1/16.0, 25
        vals = sample_interference_batch(bs_gain, user_gain, extra, 400_000, rng(15))
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(
            bs_gain * user_gain * extra, rel=0.02, abs=0)


class TestLeakageNoise:
    BS, USER, EXTRA, DRAWS = 4e-4, 1 / 16.0, 4, 400_000

    def test_moments_match_per_element_law(self):
        # Real leakage is a Gaussian scale mixture with variance
        # (user/2) * G, G ~ Gamma(EXTRA, scale=BS): E[X^2] = c * EXTRA and
        # E[X^4] = 3 c^2 EXTRA (EXTRA + 1) with c = BS * USER / 2.  A
        # sampler that used the mean of G instead of its draw would give
        # EXTRA^2 in place of EXTRA (EXTRA + 1), 20% low here.  Tolerances
        # are about six standard errors (0.26% and 0.77%).
        c = self.BS * self.USER / 2.0
        second, fourth = c * self.EXTRA, 3.0 * c * c * self.EXTRA * (self.EXTRA + 1)
        collapsed = sample_leakage_noise_batch(self.BS, self.USER, self.EXTRA, 0.0,
                                               self.DRAWS, rng(31))
        per_element = sample_interference_batch(self.BS, self.USER, self.EXTRA,
                                                self.DRAWS, rng(32)).real
        for vals in (collapsed, per_element):
            assert np.mean(vals**2) == pytest.approx(second, rel=0.015, abs=0)
            assert np.mean(vals**4) == pytest.approx(fourth, rel=0.04, abs=0)

    def test_noise_variance_adds(self):
        noise_var = 3e-5
        alone = sample_leakage_noise_batch(self.BS, self.USER, 0, noise_var,
                                           self.DRAWS, rng(33))
        assert np.mean(alone**2) == pytest.approx(noise_var, rel=0.015, abs=0)
        both = sample_leakage_noise_batch(self.BS, self.USER, self.EXTRA, noise_var,
                                          self.DRAWS, rng(34))
        assert np.mean(both**2) == pytest.approx(
            noise_var + self.BS * self.USER / 2.0 * self.EXTRA, rel=0.015, abs=0)


class TestBatchCascade:
    def test_matches_object_path_moments(self):
        cfg = scenario((16,), ("reflection",), (2.5,), bs_ris_distance=20.0)
        r = rng(17)
        n_draws = 20_000
        obj = np.empty(n_draws)
        for i in range(n_draws):
            real = sample_realization(cfg, r)
            obj[i] = cascaded_gain(real.with_phases(0, align_phases(real, 0)), 0)
        batch = sample_cascade_batch(cfg.bs_gain(), cfg.user_gain(0),
                                     16, n_draws, rng(18))
        assert batch.mean() == pytest.approx(obj.mean(), rel=0.01, abs=0)
        assert batch.var() == pytest.approx(obj.var(), rel=0.08, abs=0)

    def test_zero_elements(self):
        assert np.all(sample_cascade_batch(1.0, 1.0, 0, 10, rng(0)) == 0.0)

    def test_lower_tail_matches_rayleigh_product_sampler(self):
        # P(S < q) at the per-element sampler's 1e-2, 3e-3 and 1e-3
        # quantiles, within 4.5 two-sample standard errors (3.2% of p at
        # 1e-3).
        bs_gain, user_gain, elements, draws = 4e-4, 1 / 36.0, 16, 2_000_000
        reference = sample_rayleigh_cascade_batch(bs_gain, user_gain, elements,
                                                  draws, rng(41))
        collapsed = sample_cascade_batch(bs_gain, user_gain, elements, draws, rng(42))
        for p in (1e-2, 3e-3, 1e-3):
            q = np.quantile(reference, p)
            p_ref = np.mean(reference < q)
            se = math.sqrt(p_ref * (1.0 - p_ref) * 2.0 / draws)
            assert abs(np.mean(collapsed < q) - p_ref) < 4.5 * se

    def test_float32_draws_lose_nothing_measurable(self):
        # The float32 route against float64 arithmetic on the very same
        # uniforms (worst relative gap measured: 3e-8); 5000 rows cross a
        # chunk boundary.  A twin generator on the same seed regenerates
        # the uniforms chunk by chunk with Generator.random.
        got = sample_cascade_batch(4e-4, 1 / 36.0, 50, 5000, rng(43))
        twin = rng(43)
        u = np.concatenate([twin.random((2, min(2048, 5000 - start), 50),
                                        dtype=np.float32)
                            for start in range(0, 5000, 2048)],
                           axis=1).astype(np.float64)
        e = -np.log1p(-u)
        want = math.sqrt(4e-4 / 36.0) * np.sqrt(e[0] * e[1]).sum(axis=1)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    @pytest.mark.parametrize("elements, size", [
        *((n, m) for n in (1, 7, 25, 50, 75) for m in (1, 2047, 2048, 2049, 5000)),
        (50, 65536)])
    def test_raw_words_match_float32_uniforms(self, elements, size):
        # Same gains bit for bit as Generator.random(dtype=float32), and the
        # generator left where that route leaves it.
        new_rng, old_rng = rng(elements * 100_003 + size), rng(elements * 100_003 + size)
        got = sample_cascade_batch(4e-4, 1 / 36.0, elements, size, new_rng)
        want = sample_float32_cascade_batch(4e-4, 1 / 36.0, elements, size, old_rng)
        assert np.array_equal(got, want)
        # ``uinteger`` is the buffered upper half of the last 64-bit word;
        # with ``has_uint32 == 0`` it is never read again, and only the
        # float32 route writes it.
        new_state, old_state = new_rng.bit_generator.state, old_rng.bit_generator.state
        assert old_state["has_uint32"] == 0
        new_state.pop("uinteger")
        old_state.pop("uinteger")
        assert new_state == old_state
        assert np.array_equal(new_rng.random(3, dtype=np.float32),
                              old_rng.random(3, dtype=np.float32))
        assert np.array_equal(new_rng.gamma(3.0, 1.0, 3), old_rng.gamma(3.0, 1.0, 3))


class TestOutArrays:
    """The samplers write into a caller's array when given one."""

    @pytest.mark.parametrize("elements, size", [(0, 7), (1, 1), (25, 2049), (50, 5000)])
    def test_cascade_out_gives_the_same_values(self, elements, size):
        want = sample_cascade_batch(4e-4, 1 / 36.0, elements, size, rng(5))
        out = np.full(size, np.nan)
        got = sample_cascade_batch(4e-4, 1 / 36.0, elements, size, rng(5), out=out)
        assert got is out and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("elements, noise_var", [(0, 0.3), (25, 0.0), (25, 1e-4)])
    def test_leakage_out_gives_the_same_values(self, elements, noise_var):
        want = sample_leakage_noise_batch(4e-4, 1 / 9.0, elements, noise_var, 3000, rng(6))
        out = np.full(3000, np.nan)
        got = sample_leakage_noise_batch(4e-4, 1 / 9.0, elements, noise_var, 3000, rng(6),
                                         out=out)
        assert got is out and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("noise_var", [0.0, 1e-4, 0.3, 7.0])
    def test_noise_only_is_scaled_standard_normals(self, noise_var):
        want = math.sqrt(noise_var) * rng(6).standard_normal(3000)
        got = sample_leakage_noise_batch(4e-4, 1 / 9.0, 0, noise_var, 3000, rng(6))
        assert got.tobytes() == want.tobytes()

    def test_scratch_honours_its_dtype(self):
        assert channel.scratch("dtype_probe", 8, "bool").dtype == np.bool_
        again = channel.scratch("dtype_probe", 4)
        assert again.dtype == np.float64 and again.size == 4

    def test_calls_without_out_share_no_memory(self):
        first = sample_cascade_batch(4e-4, 1 / 36.0, 25, 3000, rng(7))
        second = sample_cascade_batch(4e-4, 1 / 36.0, 25, 3000, rng(8))
        assert not np.shares_memory(first, second)
        first = sample_leakage_noise_batch(4e-4, 1 / 9.0, 25, 0.1, 3000, rng(7))
        second = sample_leakage_noise_batch(4e-4, 1 / 9.0, 25, 0.1, 3000, rng(8))
        assert not np.shares_memory(first, second)


class TestRowSums:
    """The cascade's row sums are numpy's float64 pairwise sums, bit for bit."""

    @pytest.mark.parametrize("elements", [1, 7, 8, 25, 50, 75, 200])
    def test_exact_rows_and_tiny_terms(self, elements):
        g = rng(elements)
        big = g.uniform(1e-3, 16.6, (2048, elements)).astype(np.float32)
        # Terms far below the exact-sum floor make float64 round, so the
        # summation order shows in the last bits of many rows.
        tiny = big.copy()
        tiny[:, ::3] = g.uniform(1e-12, 1e-7, tiny[:, ::3].shape).astype(np.float32)
        for terms in (big, tiny):
            out = np.full(2048, np.nan)
            channel._row_sums(terms, np.empty(terms.size), out)
            assert out.tobytes() == terms.sum(axis=1, dtype=np.float64).tobytes()
