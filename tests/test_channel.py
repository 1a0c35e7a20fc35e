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
    interference_coefficient,
    sample_interference_batch,
    sample_realization,
    subsurface_response,
)
from starnoma.channel import (
    PathLossParams,
    SubsurfaceAllocation,
    clt_moments,
    path_gain,
    sample_cascade_batch,
)
from starnoma.errors import InvalidParameterError


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPathGain:
    def test_inverse_square_at_50m(self):
        assert path_gain(50, 2) == pytest.approx(4.0e-4, rel=1e-12)

    def test_unit_distance(self):
        assert path_gain(1, 7.3) == 1.0

    def test_two_hop_product(self):
        # 6**-2 * 50**-2 = 1/90000
        overall = path_gain(6, 2) * path_gain(50, 2)
        assert overall == pytest.approx(1.1111111111111112e-05, rel=1e-12)
        assert overall == pytest.approx(1.0 / 90000.0, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(InvalidParameterError):
            path_gain(0.0, 2)
        with pytest.raises(InvalidParameterError):
            path_gain(-3.0, 2)

    def test_params_compose_gains(self):
        pl = PathLossParams(50.0, 6.0)
        assert pl.overall_gain() == pytest.approx(pl.bs_gain() * pl.user_gain())
        with pytest.raises(InvalidParameterError):
            PathLossParams(50.0, -1.0)


class TestAllocation:
    def test_zone_totals(self):
        alloc = SubsurfaceAllocation((10, 20, 30), ("transmission", "transmission", "reflection"))
        assert alloc.n_transmission == 30
        assert alloc.n_reflection == 30
        assert alloc.n_total == 60
        assert alloc.zone_total(0) == 30
        assert alloc.co_zone_elements(0) == 20
        assert alloc.co_zone_users(0) == (1,)
        assert alloc.co_zone_users(2) == ()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SubsurfaceAllocation((10,), ("sideways",))
        with pytest.raises(InvalidParameterError):
            SubsurfaceAllocation((10, -1), ("transmission", "reflection"))
        with pytest.raises(InvalidParameterError):
            SubsurfaceAllocation((10,), ("transmission", "reflection"))


class TestCltMoments:
    def test_unit_gain_four_elements(self):
        mu, v = clt_moments(1.0, 4)
        assert mu == pytest.approx(math.pi, rel=1e-12)
        assert v == pytest.approx(4.0 - math.pi**2 / 4.0, rel=1e-12)

    def test_empty_subsurface(self):
        assert clt_moments(0.5, 0) == (0.0, 0.0)

    def test_small_gain_fifty_elements(self):
        mu, _ = clt_moments(1.111e-6, 50)
        assert mu == pytest.approx(0.041392048016516476, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            clt_moments(0.0, 4)
        with pytest.raises(InvalidParameterError):
            clt_moments(1.0, -1)


def two_user_setup(n1=4, n2=3, same_zone=False):
    zones = ("transmission", "transmission" if same_zone else "reflection")
    alloc = SubsurfaceAllocation((n1, n2), zones)
    pl = (PathLossParams(50.0, 6.0), PathLossParams(50.0, 4.0))
    return alloc, pl


class TestSampling:
    def test_deterministic_given_seed(self):
        alloc, pl = two_user_setup(same_zone=True)
        a = sample_realization(alloc, pl, rng(123))
        b = sample_realization(alloc, pl, rng(123))
        for i in range(2):
            np.testing.assert_array_equal(a.bs_vectors[i], b.bs_vectors[i])
        for key in a.user_vectors:
            np.testing.assert_array_equal(a.user_vectors[key], b.user_vectors[key])

    def test_zero_element_subsurface_is_empty(self):
        alloc = SubsurfaceAllocation((0, 5), ("transmission", "reflection"))
        pl = (PathLossParams(50.0, 6.0), PathLossParams(50.0, 4.0))
        real = sample_realization(alloc, pl, rng(1))
        assert real.bs_vectors[0].size == 0
        assert cascaded_gain(align_all(real), 0) == 0.0

    def test_entry_variances_match_hop_gains(self):
        # One huge subsurface gives a million i.i.d. entries in one draw.
        alloc = SubsurfaceAllocation((1_000_000,), ("transmission",))
        pl = (PathLossParams(50.0, 6.0),)
        real = sample_realization(alloc, pl, rng(7))
        h2 = np.abs(real.bs_vectors[0]) ** 2
        g2 = np.abs(real.user_vectors[(0, 0)]) ** 2
        assert h2.mean() == pytest.approx(pl[0].bs_gain(), rel=0.01)
        assert g2.mean() == pytest.approx(pl[0].user_gain(), rel=0.01)

    def test_requires_one_path_loss_per_user(self):
        alloc, _ = two_user_setup()
        with pytest.raises(InvalidParameterError):
            sample_realization(alloc, (PathLossParams(50.0, 6.0),), rng(0))


class TestAlignment:
    def test_single_element_magnitudes_multiply(self):
        alloc = SubsurfaceAllocation((1,), ("transmission",))
        pl = (PathLossParams(50.0, 6.0),)
        real = sample_realization(alloc, pl, rng(0))
        h = np.array([0.3 * np.exp(-1j * math.pi / 3)])
        g = np.array([2.0 * np.exp(-1j * math.pi / 6)])
        real = ChannelRealization(alloc, (h,), {(0, 0): g}, real.phases)
        aligned = real.with_phases(0, align_phases(real, 0))
        resp = subsurface_response(aligned, 0, 0)
        assert abs(resp) == pytest.approx(0.6, rel=1e-12)
        assert resp.imag == pytest.approx(0.0, abs=1e-12)

    def test_aligned_gain_is_sum_of_amplitude_products(self):
        alloc, pl = two_user_setup()
        real = align_all(sample_realization(alloc, pl, rng(5)))
        for k in range(2):
            expected = np.sum(np.abs(real.bs_vectors[k])
                              * np.abs(real.user_vectors[(k, k)]))
            assert cascaded_gain(real, k) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_alignment_dominates_any_phase_choice(self, seed):
        alloc = SubsurfaceAllocation((6,), ("transmission",))
        pl = (PathLossParams(50.0, 6.0),)
        r = rng(seed)
        real = sample_realization(alloc, pl, r)
        aligned = cascaded_gain(real.with_phases(0, align_phases(real, 0)), 0)
        random_theta = r.uniform(0.0, 2.0 * math.pi, 6)
        other = abs(subsurface_response(real.with_phases(0, random_theta), 0, 0))
        assert other <= aligned + 1e-12

    def test_cascaded_moments_match_gaussian_limit(self):
        # Moderate draw count; the strict large-sample check lives in the
        # acceptance suite.
        n_draws, n_elem = 40_000, 25
        alloc = SubsurfaceAllocation((n_elem,), ("transmission",))
        pl = (PathLossParams(50.0, 4.0),)
        r = rng(21)
        gains = np.empty(n_draws)
        for i in range(n_draws):
            real = sample_realization(alloc, pl, r)
            gains[i] = cascaded_gain(real.with_phases(0, align_phases(real, 0)), 0)
        mu, v = clt_moments(pl[0].overall_gain(), n_elem)
        assert gains.mean() == pytest.approx(mu, rel=0.01)
        assert gains.var() == pytest.approx(v, rel=0.05)

    def test_single_element_unit_gain_mean(self):
        vals = sample_cascade_batch(1.0, 1.0, 1, 400_000, rng(3))
        assert vals.mean() == pytest.approx(math.pi / 4.0, rel=0.005)


class TestInterference:
    def test_sole_occupant_sees_exact_zero(self):
        alloc, pl = two_user_setup(same_zone=False)
        real = align_all(sample_realization(alloc, pl, rng(2)))
        assert interference_coefficient(real, 0) == 0j
        assert interference_coefficient(real, 1) == 0j

    def test_zone_isolation(self):
        # The reflection-zone user's interference ignores transmission
        # elements entirely, whatever their count.
        for n1 in (1, 64):
            alloc = SubsurfaceAllocation((n1, 8), ("transmission", "reflection"))
            pl = (PathLossParams(50.0, 6.0), PathLossParams(50.0, 4.0))
            real = align_all(sample_realization(alloc, pl, rng(4)))
            assert interference_coefficient(real, 1) == 0j

    def test_object_path_statistics(self):
        alloc, pl = two_user_setup(n1=6, n2=6, same_zone=True)
        r = rng(11)
        n_draws = 20_000
        vals = np.empty(n_draws, dtype=complex)
        for i in range(n_draws):
            real = align_all(sample_realization(alloc, pl, r))
            vals[i] = interference_coefficient(real, 0)
        L = pl[0].overall_gain()
        var_expected = L * alloc.co_zone_elements(0)
        assert np.abs(vals) .var(ddof=0) > 0  # sanity: nondegenerate
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(var_expected, rel=0.05)
        # zero-mean within 3 sigma of the estimator for each part
        se = math.sqrt(var_expected / 2.0 / n_draws)
        assert abs(vals.real.mean()) < 3 * se
        assert abs(vals.imag.mean()) < 3 * se

    def test_batch_matches_object_path_law(self):
        alloc, pl = two_user_setup(n1=5, n2=7, same_zone=True)
        r = rng(13)
        n_draws = 15_000
        obj = np.empty(n_draws, dtype=complex)
        for i in range(n_draws):
            real = align_all(sample_realization(alloc, pl, r))
            obj[i] = interference_coefficient(real, 0)
        batch = sample_interference_batch(pl[0].bs_gain(), pl[0].user_gain(),
                                          alloc.co_zone_elements(0), n_draws, rng(14))
        assert np.mean(np.abs(batch) ** 2) == pytest.approx(
            np.mean(np.abs(obj) ** 2), rel=0.06)
        # real parts carry half the power in both paths
        assert batch.real.var() == pytest.approx(obj.real.var(), rel=0.08)

    def test_batch_variance_large_sample(self):
        bs_gain, user_gain, extra = 4e-4, 1/16.0, 25
        vals = sample_interference_batch(bs_gain, user_gain, extra, 400_000, rng(15))
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(
            bs_gain * user_gain * extra, rel=0.02)


class TestBatchCascade:
    def test_matches_object_path_moments(self):
        alloc = SubsurfaceAllocation((16,), ("reflection",))
        pl = (PathLossParams(20.0, 2.5),)
        r = rng(17)
        n_draws = 20_000
        obj = np.empty(n_draws)
        for i in range(n_draws):
            real = sample_realization(alloc, pl, r)
            obj[i] = cascaded_gain(real.with_phases(0, align_phases(real, 0)), 0)
        batch = sample_cascade_batch(pl[0].bs_gain(), pl[0].user_gain(),
                                     16, n_draws, rng(18))
        assert batch.mean() == pytest.approx(obj.mean(), rel=0.01)
        assert batch.var() == pytest.approx(obj.var(), rel=0.08)

    def test_zero_elements(self):
        assert np.all(sample_cascade_batch(1.0, 1.0, 0, 10, rng(0)) == 0.0)
