import builtins
import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import owens_t

from oracles import (
    decision_region_oracle,
    mpmath_oracle,
    mpmath_owens_t,
    probit_oracle,
    quadrature_oracle,
)
from starnoma import analytic, presets
from starnoma.analytic import (
    FIT_A,
    FIT_B,
    FIT_C,
    UserAnalyticParams,
    ber_asymptotic,
    ber_closed_form,
    ber_imperfect_sic,
    ber_numeric,
    conditional_ber,
    imperfect_sic_mixture,
    q_exact,
    sign_combinations,
)
from starnoma.channel import clt_moments
from starnoma.errors import (
    InvalidParameterError,
    NoErrorFloor,
    UnsupportedScenarioError,
)
from starnoma.noma import PowerAllocation
from starnoma.rules import snr_from_db

FIG2_GAIN_U1 = 50.0**-2 * 6.0**-2
FIG2_GAIN_U2 = 50.0**-2 * 4.0**-2


def tail_fit(x):
    """The paper's one-sided exponential fit to Q(x), x >= 0."""
    return np.exp(-(FIT_A * x * x + FIT_B * x + FIT_C))


def effective_snr(params, snr):
    """The decision-axis SNR 2 rho snr / P, written out from the model:
    half of the noise-plus-leakage power P / snr + L N_c lands on the axis."""
    return 2.0 * snr / (params.alloc.power
                        + params.overall_gain * params.co_zone_elements * snr)


def floor_snr(params):
    """The limit of ``effective_snr`` as the noise P / snr vanishes."""
    return 2.0 / (params.overall_gain * params.co_zone_elements)


def make_params(index=1, coeffs=(0.7, 0.3), gain=FIG2_GAIN_U2, own=50, zone=None,
                power=1.0):
    alloc = PowerAllocation(coeffs, power)
    return UserAnalyticParams(index=index, alloc=alloc, overall_gain=gain,
                              own_elements=own,
                              zone_elements=own if zone is None else zone)


class TestQExact:
    def test_half_at_zero(self):
        assert q_exact(0.0) == 0.5

    def test_reflection_identity(self):
        for x in (0.3, 1.7, 4.0, 9.0):
            assert q_exact(-x) == pytest.approx(1.0 - q_exact(x), abs=1e-15)

    def test_unit_argument(self):
        assert float(q_exact(1.0)) == pytest.approx(0.15865525393145705, rel=1e-14, abs=0)

    def test_monotone_to_zero(self):
        xs = np.linspace(0, 30, 100)
        vals = q_exact(xs)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-190

    def test_twelve_digits_against_mpmath(self):
        # Representable range: the tail underflows past ~37.5 in double
        # precision, so the spec'd window is checked up to there, at the
        # 2e-14 the docstring states.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for x in np.arange(-37.0, 37.5, 0.05):
            expected = float(mp.ncdf(-mp.mpf(float(x))))
            assert float(q_exact(float(x))) == pytest.approx(expected, rel=2e-14, abs=0)

    def test_array_in_array_out(self):
        xs = np.array([[0.0, 1.0], [12.0, 40.0]])
        vals = q_exact(xs)
        assert vals.shape == xs.shape and vals.dtype == float
        assert vals[0, 0] == 0.5 and vals[1, 1] == 0.0
        assert [q_exact(x) for x in xs.ravel()] == list(vals.ravel())


OWEN_RULES = (analytic._GL8, analytic._GL12, analytic._GL16, analytic._GL24)


class TestOwensT:
    """The package's Owen's T against scipy, a 50-digit oracle and identities."""

    @pytest.mark.parametrize("rule", OWEN_RULES, ids=[str(len(r)) for r in OWEN_RULES])
    def test_rule_matches_leggauss(self, rule):
        x, w = np.polynomial.legendre.leggauss(len(rule))
        nodes, weights = np.array(rule).T
        # leggauss itself is good to about 1e-13 relative at the end nodes.
        np.testing.assert_allclose(nodes, 0.5 * (1.0 + x), rtol=3e-13, atol=0)
        np.testing.assert_allclose(weights, 0.5 * w, rtol=3e-13, atol=0)
        # The literals themselves: exact for every degree below 2n.
        for k in range(2 * len(rule)):
            assert math.fsum(wt * u ** k for u, wt in rule) == pytest.approx(
                1.0 / (k + 1), rel=3e-15, abs=0)

    def test_matches_scipy_on_dense_grid(self):
        # scipy.special.owens_t 1.17 is itself off by up to 2.5e-9 relative
        # for a < 1e-3 once h >= 4, and by 1.1e-13 for h >= 24 (against
        # mpmath_owens_t); those cells are checked in the next test.
        hs = np.concatenate([[0.0], np.geomspace(1e-3, 24.0, 70)])
        a_s = np.geomspace(1e-8, 1e8, 97)
        compared = 0
        for h in hs:
            for a in a_s:
                if h >= 4.0 and a < 1e-3:
                    continue
                expected = owens_t(h, a)
                if expected > 1e-300:
                    compared += 1
                    assert analytic._owens_t(h, a) == pytest.approx(
                        expected, rel=1e-13, abs=0), (h, a)
        assert compared > 5000

    @pytest.mark.parametrize("h", [4.0, 6.5, 10.0, 15.0, 24.0, 30.0, 37.0, 40.0])
    def test_matches_mpmath_where_scipy_is_off(self, h):
        pytest.importorskip("mpmath")
        a_s = [1e-8, 1e-6, 1e-4, 9e-4]
        if h >= 24.0:
            a_s += [0.01, 0.2, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3, 1e8]
        for a in a_s:
            expected = mpmath_owens_t(h, a)
            if expected > 1e-300:
                assert analytic._owens_t(h, a) == pytest.approx(
                    expected, rel=1e-13, abs=0), a

    def test_zero_h(self):
        for a in np.geomspace(1e-8, 1e8, 33):
            assert analytic._owens_t(0.0, a) == pytest.approx(
                math.atan(a) / (2.0 * math.pi), rel=1e-14, abs=0)

    def test_unit_a(self):
        for h in np.linspace(0.0, 37.0, 149):
            q = float(q_exact(h))
            assert analytic._owens_t(h, 1.0) == pytest.approx(
                0.5 * q * (1.0 - q), rel=1e-13, abs=0)

    def test_zero_a_odd_in_a_even_in_h(self):
        for h in (0.0, 0.7, 5.0, 12.0):
            assert analytic._owens_t(h, 0.0) == 0.0
            for a in (1e-6, 0.3, 1.0, 7.0, 1e6):
                t = analytic._owens_t(h, a)
                assert analytic._owens_t(h, -a) == -t
                assert analytic._owens_t(-h, a) == t


class TestQApprox:
    """The tail fit the closed form integrates, and where it holds."""

    def test_value_at_zero(self):
        assert float(tail_fit(0.0)) == pytest.approx(0.498376232622752, rel=1e-12, abs=0)
        # At zero SNR every closed-form term is the fit at 0 times P(gain > 0).
        params = make_params()
        positive_gain = 1.0 - float(q_exact(params.mean / math.sqrt(params.variance)))
        assert ber_closed_form(params, 0.0) == pytest.approx(
            float(tail_fit(0.0)) * positive_gain, rel=1e-12, abs=0)

    def test_value_at_one(self):
        assert float(tail_fit(1.0)) == pytest.approx(0.158088543661715, rel=1e-12, abs=0)

    def test_rejects_negative(self):
        # The fit is one-sided: the closed form refuses a negative argument,
        # which a non-positive sign amplitude would give.
        params = make_params(index=0, coeffs=(0.4, 0.3, 0.3), own=25, zone=25)
        with pytest.raises(InvalidParameterError, match="one-sided"):
            ber_closed_form(params, 100.0)

    def test_accuracy_envelope(self):
        # Measured behaviour of the default fit: sub-2.4% relative error on
        # [0, 2], degrading steeply beyond (documented limitation; some
        # closed-form/oracle gaps downstream inherit this).
        xs = np.linspace(0.0, 2.0, 201)
        rel = np.abs(tail_fit(xs) / q_exact(xs) - 1.0)
        assert rel.max() < 0.024
        assert abs(float(tail_fit(3.0) / q_exact(3.0)) - 1.0) == pytest.approx(
            0.175, abs=0.01)
        assert float(tail_fit(6.0) / q_exact(6.0)) > 3.0


class TestSignCombinations:
    def test_last_user_single_combination(self):
        alloc = PowerAllocation((0.7, 0.3))
        amps = sign_combinations(1, alloc)
        assert amps == (pytest.approx(math.sqrt(0.3), rel=1e-6, abs=0),)

    def test_first_of_two(self):
        amps = sign_combinations(0, PowerAllocation((0.7, 0.3)))
        assert sorted(amps) == pytest.approx(
            [0.2889374690289095, 1.3843825840392416], rel=1e-6, abs=0)

    def test_user_past_the_split_is_refused(self):
        with pytest.raises(InvalidParameterError, match="user index 2 out of range"):
            make_params(index=2)

    def test_first_of_three_counts(self):
        assert len(sign_combinations(0, PowerAllocation((0.5, 0.3, 0.2)))) == 4

    @pytest.mark.parametrize("coeffs", [(1.0,), (0.7, 0.3), (0.5, 0.3, 0.2),
                                        (0.4, 0.3, 0.2, 0.1)])
    def test_weights_sum_to_one_and_all_plus_invariant(self, coeffs):
        alloc = PowerAllocation(coeffs)
        for user in range(len(coeffs)):
            # One amplitude per sign pattern, each weighted 1 / count.
            amps = sign_combinations(user, alloc)
            assert len(amps) == 2 ** (len(coeffs) - user - 1)
            assert max(amps) == pytest.approx(
                sum(alloc.amplitude(j) for j in range(user, len(coeffs))), rel=1e-6, abs=0)


class TestInterferencePenalty:
    """The SNR deflation rho by same-zone leakage, read off the root of the
    decision-axis SNR sqrt(2 rho snr / P) that every route uses."""

    def test_sole_occupant(self):
        params = make_params(own=50, zone=50)
        assert analytic._root_effective_snr(params, 1e6) == math.sqrt(2.0) * math.sqrt(1e6)

    def test_hand_value(self):
        params = make_params(index=0, gain=1e-6, own=25, zone=50)
        rho = analytic._root_effective_snr(params, 1e4) ** 2 / (2.0 * 1e4)
        assert rho == pytest.approx(0.8, rel=1e-12, abs=0)

    def test_high_snr_limit(self):
        params = make_params(index=0, gain=1e-6, own=25, zone=50)
        limit = floor_snr(params)
        for snr in (1e8, 1e10):
            assert analytic._root_effective_snr(params, snr) ** 2 == pytest.approx(
                limit, rel=1e-3 * 1e8 / snr + 1e-6, abs=0)

    @pytest.mark.parametrize("power", [0.25, 4.0])
    def test_sole_occupant_values_do_not_depend_on_power(self, power):
        # snr is P / sigma^2 and the amplitudes carry sqrt(P), so without
        # interference the transmit power drops out of every value.
        for index in (0, 1):
            unit = make_params(index=index)
            scaled = make_params(index=index, power=power)
            for route in (ber_numeric, ber_closed_form):
                assert route(scaled, 300.0) == pytest.approx(
                    route(unit, 300.0), rel=1e-12, abs=0)
            assert conditional_ber(0.01, scaled, 300.0) == pytest.approx(
                conditional_ber(0.01, unit, 300.0), rel=1e-12, abs=0)

    @pytest.mark.parametrize("power", [0.25, 4.0])
    def test_limit_does_not_depend_on_power(self, power):
        # The amplitudes carry sqrt(P) against unit-power interferers, and
        # the noise P / snr vanishes: the multiplier tends to 2 / (L N_c).
        unit = make_params(index=0, gain=1e-6, own=25, zone=50)
        scaled = make_params(index=0, gain=1e-6, own=25, zone=50, power=power)
        assert analytic._root_effective_snr(scaled, 1e12) ** 2 == pytest.approx(
            floor_snr(unit), rel=1e-6, abs=0)
        # The floor is the closed form's sum at exactly that limit.
        for params in (unit, scaled):
            assert ber_asymptotic(params) == analytic._closed_form_sum(
                params, math.sqrt(floor_snr(unit)))

    def test_rejects_negative_snr(self):
        with pytest.raises(InvalidParameterError):
            analytic._root_effective_snr(make_params(), -1.0)


class TestConditionalBer:
    def test_half_at_zero_gain(self):
        params = make_params(index=0, coeffs=(0.5, 0.3, 0.2), own=10, zone=25)
        assert conditional_ber(0.0, params, 123.0) == pytest.approx(0.5, rel=1e-12, abs=0)

    def test_single_user_form(self):
        params = make_params(index=0, coeffs=(1.0,), own=50, zone=50)
        phi, snr = 0.1, 500.0
        expected = q_exact(phi * math.sqrt(2.0 * snr))
        assert conditional_ber(phi, params, snr) == pytest.approx(
            float(expected), rel=1e-14, abs=0)

    def test_matches_decision_region_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            K = int(rng.integers(1, 4))
            raw = np.sort(rng.uniform(0.1, 1.0, K))[::-1]
            coeffs = tuple(raw / raw.sum())
            k = int(rng.integers(0, K))
            own = int(rng.integers(1, 40))
            zone = own + int(rng.integers(0, 40))
            gain = float(rng.uniform(1e-6, 1e-3))
            params = make_params(index=k, coeffs=coeffs, gain=gain,
                                 own=own, zone=zone)
            phi = float(rng.uniform(0.0, 0.5))
            snr = float(10 ** rng.uniform(0.0, 4.5))
            got = conditional_ber(phi, params, snr)
            want = decision_region_oracle(params, phi, snr)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("power", [0.25, 4.0])
    def test_matches_decision_region_oracle_at_other_powers(self, power):
        rng = np.random.default_rng(78)
        for _ in range(10):
            params = make_params(index=int(rng.integers(0, 2)),
                                 gain=float(rng.uniform(1e-6, 1e-3)), own=16,
                                 zone=16 + int(rng.integers(0, 40)), power=power)
            phi = float(rng.uniform(0.0, 0.5))
            snr = float(10 ** rng.uniform(0.0, 4.5))
            assert conditional_ber(phi, params, snr) == pytest.approx(
                decision_region_oracle(params, phi, snr), abs=1e-10)

    def test_rejects_negative_gain_value(self):
        with pytest.raises(InvalidParameterError):
            conditional_ber(-0.1, make_params(), 10.0)


class TestBerNumeric:
    def test_degenerate_variance_collapses_to_conditional(self):
        params = make_params(own=0, zone=0)
        assert ber_numeric(params, 100.0) == pytest.approx(0.5, rel=1e-6, abs=0)
        # Bit for bit the array route's value at the mean gain.
        for params in (params, make_params(index=0, coeffs=(0.5, 0.3, 0.2), own=0, zone=25)):
            for snr in (1e-3, 100.0, 1e9):
                assert ber_numeric(params, snr) == float(
                    conditional_ber(params.mean, params, snr))

    @pytest.mark.parametrize("index,coeffs,own,zone,snr", [
        (0, (1.0,), 50, 50, 100.0),
        (0, (0.7, 0.3), 64, 64, 300.0),
        (1, (0.7, 0.3), 50, 50, 1000.0),
        (0, (0.7, 0.3), 50, 100, 10000.0),
    ])
    def test_matches_probit_identity(self, index, coeffs, own, zone, snr):
        params = make_params(index=index, coeffs=coeffs, gain=FIG2_GAIN_U2,
                             own=own, zone=zone)
        assert ber_numeric(params, snr) == pytest.approx(
            probit_oracle(params, snr), rel=1e-6, abs=0)

    def test_noise_dominated_limit(self):
        params = make_params()
        assert ber_numeric(params, 1e-8) == pytest.approx(0.5, rel=1e-4, abs=0)


def _fig5_params(split, user):
    return presets.fig5(split).runs[0].config.analytic_params(user)


# (label, params, snr): fig2 cross-zone users, the stronger user's symbol
# seen at user 2 (the detected-SIC stage), fig5 same-zone users, an
# allocation whose all-minus amplitude is negative, four users, and the
# extremes of the SNR range.  Eight cells sit below BER 1e-15, where
# double-precision quadrature of the gain average breaks down.
DEEP_TAIL_CELLS = [
    *[(f"fig2 n={n} user {k + 1} {db} dB",
       make_params(index=k, gain=(FIG2_GAIN_U1, FIG2_GAIN_U2)[k], own=n),
       10.0 ** (db / 10.0))
      for n in (10, 50, 75) for k in (0, 1) for db in (12, 36, 60)],
    ("fig2 n=75 user 2 48 dB", make_params(own=75), 10.0 ** 4.8),
    ("fig2 n=50 x1 at user 2 48 dB", make_params(index=0, own=50), 10.0 ** 4.8),
    *[(f"fig5 25/25/50 user {k + 1} {db} dB", _fig5_params((25, 25, 50), k),
       10.0 ** (db / 10.0))
      for k in range(3) for db in (24, 48)],
    ("fig2 n=50 user 2 snr 1e12", make_params(), 1e12),
    ("fig2 n=50 user 2 snr 0", make_params(), 0.0),
    *[(f"(0.4, 0.3, 0.3) user 1 {db} dB",
       make_params(index=0, coeffs=(0.4, 0.3, 0.3), own=25, zone=25),
       10.0 ** (db / 10.0)) for db in (20, 50)],
    *[(f"four users, user {k + 1} 30 dB",
       make_params(index=k, coeffs=(0.4, 0.3, 0.2, 0.1), gain=FIG2_GAIN_U1,
                   own=16, zone=32), 1e3) for k in (0, 1)],
]


class TestBerNumericDeepTail:
    @pytest.mark.parametrize("label,params,snr", DEEP_TAIL_CELLS,
                             ids=[c[0] for c in DEEP_TAIL_CELLS])
    def test_matches_mpmath(self, label, params, snr):
        pytest.importorskip("mpmath")
        exact = mpmath_oracle(params, snr)
        assert exact > 0.0
        assert ber_numeric(params, snr) == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_agrees_with_quadrature_above_1e14(self):
        # The quadrature's absolute tolerance (1e-15) caps its accuracy: at
        # fig5 user 3, 48 dB (BER 3.7e-15) it is 2.4e-6 off the 50-digit value.
        compared = 0
        for label, params, snr in DEEP_TAIL_CELLS:
            reference = quadrature_oracle(params, snr)
            if reference >= 1e-14:
                compared += 1
                assert ber_numeric(params, snr) == pytest.approx(
                    reference, rel=1e-6, abs=0.0), label
        assert compared >= 15

    def test_quadrature_does_not_share_the_effective_snr(self, monkeypatch):
        # fig2 N=50 user 2 at 20 dB.  The oracle writes its own effective
        # SNR and tail, so a wrong one in the package moves ber_numeric
        # (0.0669 -> 0.0500 at 1.1 times the root) and not the oracle.
        params, snr = make_params(), 100.0
        reference = quadrature_oracle(params, snr)
        assert ber_numeric(params, snr) == pytest.approx(reference, rel=1e-6, abs=0)
        root = analytic._root_effective_snr
        monkeypatch.setattr(analytic, "_root_effective_snr",
                            lambda p, s: 1.1 * root(p, s))
        assert quadrature_oracle(params, snr) == reference
        assert ber_numeric(params, snr) < 0.8 * reference


class TestExtremeSnr:
    """Machine accuracy far past the presets, up to the largest SNR accepted."""

    @pytest.mark.parametrize("index,gain", [(0, FIG2_GAIN_U1), (1, FIG2_GAIN_U2)])
    @pytest.mark.parametrize("snr", [1e12, 1e14, 1e16])
    def test_numeric_matches_mpmath(self, index, gain, snr):
        # Q(h) - Q(m) cancels here; its width m - h shrinks like m / (2 c^2).
        pytest.importorskip("mpmath")
        params = make_params(index=index, gain=gain)
        assert ber_numeric(params, snr) == pytest.approx(
            mpmath_oracle(params, snr), rel=1e-12, abs=0)

    def test_finite_and_non_increasing_to_largest_snr(self):
        db_max = 10.0 * math.log10(sys.float_info.max)
        while True:
            try:
                snr_from_db("snr", db_max)
                break
            except InvalidParameterError:
                db_max = math.nextafter(db_max, 0.0)
        for params in (make_params(index=0, gain=FIG2_GAIN_U1), make_params()):
            previous = (1.0, 1.0)
            for db in (3000.0, 3075.0, 3080.0, db_max):
                snr = snr_from_db("snr", db)
                values = (ber_closed_form(params, snr), ber_numeric(params, snr))
                assert all(0.0 < v <= p for v, p in zip(values, previous)), (db, values)
                previous = values
            # the two columns agree to the fit's accuracy at the largest SNR
            assert values[0] == pytest.approx(values[1], rel=0.01, abs=0)


class TestSnrRule:
    """Every entry point refuses a non-finite or negative SNR by name."""

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
    def test_closed_form(self, snr):
        with pytest.raises(InvalidParameterError, match="snr"):
            ber_closed_form(make_params(), snr)

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
    def test_numeric(self, snr):
        with pytest.raises(InvalidParameterError, match="snr"):
            ber_numeric(make_params(), snr)

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
    def test_imperfect_sic(self, snr):
        alloc = PowerAllocation((0.7, 0.3))
        params = UserAnalyticParams(1, alloc, FIG2_GAIN_U2, 50, 50)
        with pytest.raises(InvalidParameterError, match="snr"):
            ber_imperfect_sic(params, UserAnalyticParams(0, alloc, FIG2_GAIN_U2, 50, 50),
                              snr)

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("zone", [50, 75])
    def test_penalty_and_effective_snr(self, snr, zone):
        # The sole occupant (zone 50) skips the penalty but not the rule.
        with pytest.raises(InvalidParameterError, match="snr"):
            analytic._root_effective_snr(make_params(zone=zone), snr)

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
    def test_conditional_snr(self, snr):
        with pytest.raises(InvalidParameterError, match="snr"):
            conditional_ber(1.0, make_params(zone=75), snr)

    @pytest.mark.parametrize("phi", [math.nan, [1.0, math.nan], -1.0])
    def test_conditional_gain(self, phi):
        with pytest.raises(InvalidParameterError, match="gain"):
            conditional_ber(phi, make_params(zone=75), 10.0)


class TestDerivedFields:
    """Moments and amplitudes are derived once, at construction."""

    CASES = [
        *[(f"fig2 n={n} user {k + 1}", presets.fig2(element_counts=[n]).runs[0].config, k)
          for n in (10, 50, 75) for k in (0, 1)],
        *[(f"fig5 25/25/50 user {k + 1}", presets.fig5((25, 25, 50)).runs[0].config, k)
          for k in range(3)],
    ]

    @staticmethod
    def assert_derived(params):
        assert (params.mean, params.variance) == clt_moments(
            params.overall_gain, params.own_elements)
        assert params.amplitudes == sign_combinations(params.index, params.alloc)

    @pytest.mark.parametrize("label,config,user", CASES, ids=[c[0] for c in CASES])
    def test_presets(self, label, config, user):
        self.assert_derived(config.analytic_params(user))

    @pytest.mark.parametrize("index", range(4))
    def test_four_users(self, index):
        self.assert_derived(make_params(index=index, coeffs=(0.4, 0.3, 0.2, 0.1),
                                        gain=FIG2_GAIN_U1, own=16, zone=32))

    def test_replace_rederives(self):
        params = make_params(index=1, coeffs=(0.5, 0.3, 0.2), own=25, zone=50)
        moved = replace(params, index=0)
        self.assert_derived(moved)
        assert len(moved.amplitudes) == 4 and len(params.amplitudes) == 2
        regained = replace(params, overall_gain=FIG2_GAIN_U1, own_elements=10)
        self.assert_derived(regained)
        assert regained.mean != params.mean

    @staticmethod
    def derived(params):
        return {f.name: getattr(params, f.name) for f in fields(params) if not f.init}

    def test_replace_matches_fresh_construction(self):
        params = make_params(index=1, coeffs=(0.5, 0.3, 0.2), own=25, zone=50)
        given = {f.name: getattr(params, f.name) for f in fields(params) if f.init}
        for changes in ({"index": 0}, {"overall_gain": FIG2_GAIN_U1, "own_elements": 10},
                        {"own_elements": 0}):
            fresh = UserAnalyticParams(**{**given, **changes})
            assert self.derived(replace(params, **changes)) == self.derived(fresh), changes

    def test_routes_change_no_equality_or_hash(self):
        user2 = make_params(own=25, zone=50)
        x1 = replace(user2, index=0)
        twins = [make_params(own=25, zone=50), make_params(index=0, own=25, zone=50)]
        hashes = [hash(user2), hash(x1)]
        for params in (user2, x1):
            ber_closed_form(params, 100.0)
            ber_numeric(params, 100.0)
            ber_asymptotic(params)
        ber_imperfect_sic(user2, x1, 100.0)
        assert [user2, x1] == twins
        assert [hash(user2), hash(x1)] == hashes == [hash(t) for t in twins]
        assert [repr(user2), repr(x1)] == [repr(t) for t in twins]

    def test_zero_elements_take_the_zero_variance_branches(self, monkeypatch):
        def gaussian_gain_tail(*args):
            raise AssertionError("integrated over a gain distribution with no variance")

        monkeypatch.setattr(analytic, "_positive_gain_tail", gaussian_gain_tail)
        for params in (make_params(own=0, zone=10),
                       make_params(index=0, coeffs=(0.5, 0.3, 0.2), own=0, zone=25)):
            assert params.variance == 0.0
            assert ber_numeric(params, 100.0) == 0.5
            # the variance is named even where a sign amplitude is negative
            for route, args in ((ber_closed_form, (100.0,)), (ber_asymptotic, ())):
                with pytest.raises(InvalidParameterError, match="variance"):
                    route(params, *args)


class TestBerClosedForm:
    def test_zero_snr_level(self):
        params = make_params()
        assert ber_closed_form(params, 0.0) == pytest.approx(0.4984, abs=5e-4)

    def test_matches_numeric_at_moderate_depth(self):
        # Where the tail fit is accurate (arguments below ~2) the only gap
        # versus the exact-tail oracle is sub-percent.
        params = make_params()
        for snr in (1.0, 10.0, 100.0):
            num = ber_numeric(params, snr)
            closed = ber_closed_form(params, snr)
            assert closed == pytest.approx(num, rel=0.01, abs=0)

    def test_fit_error_propagates_at_depth(self):
        # At deep-tail operating points the closed form inherits the fit's
        # overshoot; the measured ratio at this reference point is ~1.46.
        params = make_params()
        ratio = ber_closed_form(params, 1000.0) / ber_numeric(params, 1000.0)
        assert 1.3 < ratio < 1.6

    def test_monotone_in_snr(self):
        params = make_params(index=0, gain=FIG2_GAIN_U1, own=25, zone=50)
        snrs = np.logspace(-1, 6, 40)
        vals = [ber_closed_form(params, s) for s in snrs]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_elements(self):
        vals = []
        for n in (16, 25, 50, 75):
            params = make_params(own=n)
            vals.append(ber_closed_form(params, 300.0))
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_variance(self):
        with pytest.raises(InvalidParameterError):
            ber_closed_form(make_params(own=0, zone=0), 100.0)

    def test_rejects_nonpositive_combination_amplitude(self):
        # sqrt(0.4) < sqrt(0.3) + sqrt(0.3): the all-minus combination of the
        # strongest user goes negative, outside the one-sided fit's domain.
        params = make_params(index=0, coeffs=(0.4, 0.3, 0.3), own=25, zone=25)
        with pytest.raises(InvalidParameterError):
            ber_closed_form(params, 100.0)

    def test_converges_to_floor(self):
        params = make_params(index=0, gain=20.0**-2 * 3.0**-2, own=16, zone=32)
        floor = ber_asymptotic(params)
        assert ber_closed_form(params, 1e10) == pytest.approx(floor, rel=1e-4, abs=0)
        # approach is monotone from above
        vals = [ber_closed_form(params, s) for s in np.logspace(2, 9, 20)]
        gaps = [v - floor for v in vals]
        assert all(g >= -1e-12 for g in gaps)
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_vanishes_without_interference(self):
        # Decay is polynomial at extreme SNR (the gain PDF's mass near zero
        # dominates) but it never flattens.
        params = make_params(own=50, zone=50)
        assert ber_closed_form(params, 1e9) < 1e-20
        assert ber_closed_form(params, 1e9) < ber_closed_form(params, 1e6) / 10.0


class TestBerAsymptotic:
    def test_no_floor_signal(self):
        with pytest.raises(NoErrorFloor):
            ber_asymptotic(make_params(own=50, zone=50))

    @pytest.mark.parametrize("index", [0, 1])
    def test_no_floor_names_the_user_from_one(self, index):
        # Users are numbered from 1 in every message; index 0 is user 1.
        with pytest.raises(NoErrorFloor, match=f"^user {index + 1} is the sole occupant"):
            ber_asymptotic(make_params(index=index, own=50, zone=50))

    def test_substitution_identity(self):
        params = make_params(index=0, gain=20.0**-2 * 3.0**-2, own=16, zone=32)
        limit = floor_snr(params)
        # pick the finite snr whose effective value is within epsilon of limit
        snr = 1e12
        assert effective_snr(params, snr) == pytest.approx(limit, rel=1e-6, abs=0)
        assert analytic._root_effective_snr(params, snr) ** 2 == pytest.approx(
            effective_snr(params, snr), rel=1e-12, abs=0)
        assert ber_closed_form(params, snr) == pytest.approx(
            ber_asymptotic(params), rel=1e-5, abs=0)


class TestImperfectSic:
    def _pair(self, coeffs=(0.7, 0.3), own=50):
        alloc = PowerAllocation(coeffs)
        p2 = UserAnalyticParams(1, alloc, FIG2_GAIN_U2, own, own)
        p1_at_2 = UserAnalyticParams(0, alloc, FIG2_GAIN_U2, own, own)
        return p2, p1_at_2

    def test_mixture_limits(self):
        assert imperfect_sic_mixture(1e-3, 1.0) == pytest.approx(1e-3, rel=1e-6, abs=0)
        assert imperfect_sic_mixture(1e-3, 0.0) == pytest.approx(0.5, rel=1e-6, abs=0)
        with pytest.raises(InvalidParameterError):
            imperfect_sic_mixture(1e-3, 1.5)

    def test_dominates_perfect_sic(self):
        p2, p1_at_2 = self._pair()
        for snr in np.logspace(0, 4, 12):
            perfect = ber_closed_form(p2, snr)
            imperfect = ber_imperfect_sic(p2, p1_at_2, snr)
            assert imperfect >= perfect - 1e-15

    def test_gap_shrinks_as_weak_share_drops(self):
        snr = 300.0
        gaps = []
        for coeffs in ((0.7, 0.3), (0.8, 0.2), (0.9, 0.1)):
            p2, p1_at_2 = self._pair(coeffs=coeffs)
            gaps.append(ber_imperfect_sic(p2, p1_at_2, snr)
                        - ber_closed_form(p2, snr))
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_reduces_to_perfect_when_stage_reliable(self):
        p2, p1_at_2 = self._pair(own=75)
        snr = 10000.0
        # imperfect - perfect = stage_err * (1/2 - perfect): never below the
        # perfect value, and never above it by more than the stage error.
        stage_err = ber_closed_form(p1_at_2, snr)
        assert 0.0 < stage_err < 1e-12
        gap = ber_imperfect_sic(p2, p1_at_2, snr) - ber_closed_form(p2, snr)
        assert 0.0 <= gap <= stage_err

    def test_rejects_other_user_counts(self):
        alloc = PowerAllocation((0.5, 0.3, 0.2))
        p = UserAnalyticParams(1, alloc, FIG2_GAIN_U2, 25, 50)
        q = UserAnalyticParams(0, alloc, FIG2_GAIN_U2, 25, 50)
        with pytest.raises(UnsupportedScenarioError):
            ber_imperfect_sic(p, q, 100.0)

    def test_rejects_mismatched_channels(self):
        alloc = PowerAllocation((0.7, 0.3))
        p2 = UserAnalyticParams(1, alloc, FIG2_GAIN_U2, 50, 50)
        p1 = UserAnalyticParams(0, alloc, FIG2_GAIN_U1, 50, 50)
        with pytest.raises(UnsupportedScenarioError):
            ber_imperfect_sic(p2, p1, 100.0)
        # Both stages share one effective SNR, which carries the transmit power.
        p1 = UserAnalyticParams(0, PowerAllocation((0.7, 0.3), 2.0), FIG2_GAIN_U2, 50, 50)
        with pytest.raises(UnsupportedScenarioError, match="power"):
            ber_imperfect_sic(p2, p1, 100.0)

    def test_rejects_a_stage_with_another_power_split(self):
        # Same channel and transmit power, but the stage's sign combinations
        # come from (0.8, 0.2), not from the cancelling user's (0.7, 0.3).
        p2, p1_at_2 = self._pair(coeffs=(0.7, 0.3))
        _, other_split = self._pair(coeffs=(0.8, 0.2))
        assert ber_imperfect_sic(p2, p1_at_2, 100.0) == pytest.approx(0.1128, abs=1e-4)
        with pytest.raises(UnsupportedScenarioError, match="power"):
            ber_imperfect_sic(p2, other_split, 100.0)


# ---------------------------------------------------------------------------
# golden values: every route's result pinned bit for bit


def _golden_cases():
    fig5 = presets.fig5((25, 25, 50)).runs[0].config
    return {
        "fig2 n=50 user 1": make_params(index=0, gain=FIG2_GAIN_U1, own=50),
        "fig2 n=50 user 2": make_params(own=50),
        "fig2 n=50 x1 at user 2": make_params(index=0, own=50),
        "fig2 n=4 user 2": make_params(own=4),
        "fig2 n=4 x1 at user 2": make_params(index=0, own=4),
        "fig2 n=1 user 2": make_params(own=1),
        "fig2 n=1 x1 at user 2": make_params(index=0, own=1),
        **{f"fig5 25/25/50 user {k + 1}": fig5.analytic_params(k) for k in range(3)},
        "(0.5, 0.3, 0.2) user 1": make_params(index=0, coeffs=(0.5, 0.3, 0.2),
                                              own=25, zone=50),
        "(0.5, 0.5) user 1": make_params(index=0, coeffs=(0.5, 0.5), own=25, zone=50),
        "zero elements, shared zone": make_params(own=0, zone=10),
        "zero elements, sole occupant": make_params(own=0, zone=0),
    }


GOLDEN_CASES = _golden_cases()
GOLDEN_PAIRS = ("fig2 n=50", "fig2 n=4", "fig2 n=1")

# float.hex of each route's value, or the name of the exception it raises.
# Computed with CPython's math module on glibc; any change to the order of
# floating-point operations in the routes shows here.
GOLDEN_ASYMPTOTE = {
    'fig2 n=50 user 1': 'NoErrorFloor',
    'fig2 n=50 user 2': 'NoErrorFloor',
    'fig2 n=50 x1 at user 2': 'NoErrorFloor',
    'fig2 n=4 user 2': 'NoErrorFloor',
    'fig2 n=4 x1 at user 2': 'NoErrorFloor',
    'fig2 n=1 user 2': 'NoErrorFloor',
    'fig2 n=1 x1 at user 2': 'NoErrorFloor',
    'fig5 25/25/50 user 1': '0x1.dd65689230e65p-7',
    'fig5 25/25/50 user 2': '0x1.bbd32f40a2ea0p-8',
    'fig5 25/25/50 user 3': 'NoErrorFloor',
    '(0.5, 0.3, 0.2) user 1': 'InvalidParameterError',
    '(0.5, 0.5) user 1': 'InvalidParameterError',
    'zero elements, shared zone': 'InvalidParameterError',
    'zero elements, sole occupant': 'NoErrorFloor',
}
GOLDEN_CELLS = [  # (case, snr, closed form, numeric)
    ('fig2 n=50 user 1', 0.0, '0x1.fe5656d0dfa46p-2', '0x1.0000000000000p-1'),
    ('fig2 n=50 user 1', 0.01, '0x1.f8487659fd1b6p-2', '0x1.f9ac62dd34c7ep-2'),
    ('fig2 n=50 user 1', 1.0, '0x1.c142fa73518cdp-2', '0x1.c152406e9306ep-2'),
    ('fig2 n=50 user 1', 100.0, '0x1.37a267fd8dfcap-3', '0x1.36d84e3eff82dp-3'),
    ('fig2 n=50 user 1', 1000.0, '0x1.8cbb632ea4066p-6', '0x1.8b2e95a2f1fd0p-6'),
    ('fig2 n=50 user 1', 10000.0, '0x1.cdf6b1d35d4acp-20', '0x1.235b2cc42dd6ap-20'),
    ('fig2 n=50 user 1', 100000.0, '0x1.ed5d6083c7cf7p-51', '0x1.4624f6afd5a43p-51'),
    ('fig2 n=50 user 1', 100000000.0, '0x1.b83ab631ca2f6p-68', '0x1.b778db92bb4e4p-68'),
    ('fig2 n=50 user 1', 1e+16, '0x1.4b4d2ebe0bc33p-81', '0x1.4ade5096aa25ap-81'),
    ('fig2 n=50 user 2', 0.0, '0x1.fe5656d0dfa86p-2', '0x1.0000000000000p-1'),
    ('fig2 n=50 user 2', 0.01, '0x1.f865885f91b74p-2', '0x1.f9c97bd0f6406p-2'),
    ('fig2 n=50 user 2', 1.0, '0x1.c255467555a2fp-2', '0x1.c21d919c44b52p-2'),
    ('fig2 n=50 user 2', 100.0, '0x1.11c2371192121p-4', '0x1.11e50f5f11206p-4'),
    ('fig2 n=50 user 2', 1000.0, '0x1.136ff24e9e3fap-16', '0x1.78d05fb20a08ep-17'),
    ('fig2 n=50 user 2', 10000.0, '0x1.43f19d7212501p-47', '0x1.8ab90669f3288p-48'),
    ('fig2 n=50 user 2', 100000.0, '0x1.1ef1f7afb0b16p-61', '0x1.1709755294b98p-61'),
    ('fig2 n=50 user 2', 100000000.0, '0x1.e6cd54439dacdp-69', '0x1.e6178da2ad768p-69'),
    ('fig2 n=50 user 2', 1e+16, '0x1.81938aad0ee06p-82', '0x1.81128365c566ep-82'),
    ('fig2 n=50 x1 at user 2', 0.0, '0x1.fe5656d0dfa86p-2', '0x1.0000000000000p-1'),
    ('fig2 n=50 x1 at user 2', 0.01, '0x1.f53edac46a1b0p-2', '0x1.f682ddf8395a3p-2'),
    ('fig2 n=50 x1 at user 2', 1.0, '0x1.a331181dc8810p-2', '0x1.a3118f6b46751p-2'),
    ('fig2 n=50 x1 at user 2', 100.0, '0x1.b243936c16373p-4', '0x1.b2d073c2f7709p-4'),
    ('fig2 n=50 x1 at user 2', 1000.0, '0x1.fbb9fc565818dp-9', '0x1.df60ada8e5059p-9'),
    ('fig2 n=50 x1 at user 2', 10000.0, '0x1.36f0004d19a46p-30', '0x1.3162f3beee790p-31'),
    ('fig2 n=50 x1 at user 2', 100000.0, '0x1.2491a968874e6p-57', '0x1.f1b0f6d33c1e3p-58'),
    ('fig2 n=50 x1 at user 2', 100000000.0, '0x1.1d1a455bb5c09p-68', '0x1.1ca7d0be64388p-68'),
    ('fig2 n=50 x1 at user 2', 1e+16, '0x1.b9bbef68ebc1dp-82', '0x1.b9281cfb40100p-82'),
    ('fig2 n=4 user 2', 0.0, '0x1.fb7d620d4fe29p-2', '0x1.fd24ab3ae9d77p-2'),
    ('fig2 n=4 user 2', 0.01, '0x1.fb03d4922e152p-2', '0x1.fca55549560ddp-2'),
    ('fig2 n=4 user 2', 1.0, '0x1.f6bc12fccc3eap-2', '0x1.f82b5b7520686p-2'),
    ('fig2 n=4 user 2', 100.0, '0x1.cb7fc9db86e1bp-2', '0x1.cb94ea3dd4e98p-2'),
    ('fig2 n=4 user 2', 1000.0, '0x1.65ca2804ef175p-2', '0x1.654b6ab9f2434p-2'),
    ('fig2 n=4 user 2', 10000.0, '0x1.107ade93f0756p-3', '0x1.10b902c925314p-3'),
    ('fig2 n=4 user 2', 100000.0, '0x1.b8bea0f1b8c2dp-7', '0x1.b561ac9982a6cp-7'),
    ('fig2 n=4 user 2', 100000000.0, '0x1.2009a45baff60p-13', '0x1.1f9e3be67af81p-13'),
    ('fig2 n=4 user 2', 1e+16, '0x1.c859b77986d6fp-27', '0x1.c7c1012b588b4p-27'),
    ('fig2 n=4 x1 at user 2', 0.0, '0x1.fb7d620d4fe29p-2', '0x1.fd24ab3ae9d77p-2'),
    ('fig2 n=4 x1 at user 2', 0.01, '0x1.fac3abe784da2p-2', '0x1.fc6229206dfeep-2'),
    ('fig2 n=4 x1 at user 2', 1.0, '0x1.f436af55da867p-2', '0x1.f58bf53286ea0p-2'),
    ('fig2 n=4 x1 at user 2', 100.0, '0x1.b2874845073e5p-2', '0x1.b296903158a3fp-2'),
    ('fig2 n=4 x1 at user 2', 1000.0, '0x1.312748340467cp-2', '0x1.31117de3b3d62p-2'),
    ('fig2 n=4 x1 at user 2', 10000.0, '0x1.248f146677edap-3', '0x1.245a88e602e03p-3'),
    ('fig2 n=4 x1 at user 2', 100000.0, '0x1.ca532864571b8p-6', '0x1.c899e655a5b39p-6'),
    ('fig2 n=4 x1 at user 2', 100000000.0, '0x1.5148f3a358eb4p-13', '0x1.50c21fc4506adp-13'),
    ('fig2 n=4 x1 at user 2', 1e+16, '0x1.05687a6839149p-26', '0x1.05110020541f2p-26'),
    ('fig2 n=1 user 2', 0.0, '0x1.ca27c9d449d5cp-2', '0x1.cba5ecf20c3cap-2'),
    ('fig2 n=1 user 2', 0.01, '0x1.ca0842e36adc7p-2', '0x1.cb84e50fb8affp-2'),
    ('fig2 n=1 user 2', 1.0, '0x1.c8ec5bf57e76fp-2', '0x1.ca5b9e76a2ed6p-2'),
    ('fig2 n=1 user 2', 100.0, '0x1.bdc7bf3bc109dp-2', '0x1.bec042b2c2e02p-2'),
    ('fig2 n=1 user 2', 1000.0, '0x1.a2cc031e7a07bp-2', '0x1.a30529089b420p-2'),
    ('fig2 n=1 user 2', 10000.0, '0x1.501a6defc4381p-2', '0x1.4fd3bad591f73p-2'),
    ('fig2 n=1 user 2', 100000.0, '0x1.41732b4600c71p-3', '0x1.41780686d51b3p-3'),
    ('fig2 n=1 user 2', 100000000.0, '0x1.92aaa26e0e106p-9', '0x1.9215270e42609p-9'),
    ('fig2 n=1 user 2', 1e+16, '0x1.3f20a9678171bp-22', '0x1.3eb5de9c2706dp-22'),
    ('fig2 n=1 x1 at user 2', 0.0, '0x1.ca27c9d449d5cp-2', '0x1.cba5ecf20c3cap-2'),
    ('fig2 n=1 x1 at user 2', 0.01, '0x1.c9f7a07193fa2p-2', '0x1.cb73785f2119bp-2'),
    ('fig2 n=1 x1 at user 2', 1.0, '0x1.c845a7eedce22p-2', '0x1.c9ad622123e72p-2'),
    ('fig2 n=1 x1 at user 2', 100.0, '0x1.b72f62b0cf2fep-2', '0x1.b7fbe031c2e97p-2'),
    ('fig2 n=1 x1 at user 2', 1000.0, '0x1.8e7e57edf2866p-2', '0x1.8eb1616949ce5p-2'),
    ('fig2 n=1 x1 at user 2', 10000.0, '0x1.27205c544c344p-2', '0x1.27145ba9a7884p-2'),
    ('fig2 n=1 x1 at user 2', 100000.0, '0x1.405a6a5a58fa1p-3', '0x1.403103a97daf6p-3'),
    ('fig2 n=1 x1 at user 2', 100000000.0, '0x1.d70cf2cbebf38p-9', '0x1.d6533ed658204p-9'),
    ('fig2 n=1 x1 at user 2', 1e+16, '0x1.6d9b7b8b2f1acp-22', '0x1.6d2122bc0d0c2p-22'),
    ('fig5 25/25/50 user 1', 0.0, '0x1.fe5656cfea941p-2', '0x1.ffffffff0a234p-2'),
    ('fig5 25/25/50 user 1', 0.01, '0x1.ee9f6ba53a680p-2', '0x1.efa30254687dep-2'),
    ('fig5 25/25/50 user 1', 1.0, '0x1.65c0e4608bc14p-2', '0x1.658d78c4003e5p-2'),
    ('fig5 25/25/50 user 1', 100.0, '0x1.a3e2fce15752ep-5', '0x1.a4f1c109c1dbap-5'),
    ('fig5 25/25/50 user 1', 1000.0, '0x1.2f51717071943p-6', '0x1.2ced6a3779b16p-6'),
    ('fig5 25/25/50 user 1', 10000.0, '0x1.ea3078a640702p-7', '0x1.e48461362f16ep-7'),
    ('fig5 25/25/50 user 1', 100000.0, '0x1.deac735e77a85p-7', '0x1.d8ece1dd4c1e9p-7'),
    ('fig5 25/25/50 user 1', 100000000.0, '0x1.dd65bc47bf25ap-7', '0x1.d7a40cef3d28cp-7'),
    ('fig5 25/25/50 user 1', 1e+16, '0x1.dd65689230f7ep-7', '0x1.d7a3b8af22fb0p-7'),
    ('fig5 25/25/50 user 2', 0.0, '0x1.fe5656cfea9a0p-2', '0x1.ffffffff0a234p-2'),
    ('fig5 25/25/50 user 2', 0.01, '0x1.f38515d6db08dp-2', '0x1.f4b4337ef218ep-2'),
    ('fig5 25/25/50 user 2', 1.0, '0x1.91cd6d3b52f1dp-2', '0x1.911e4a313d1f8p-2'),
    ('fig5 25/25/50 user 2', 100.0, '0x1.0cd7f811086c6p-5', '0x1.0a102743d93fcp-5'),
    ('fig5 25/25/50 user 2', 1000.0, '0x1.1f637bc12fff7p-7', '0x1.137aa8b8339eep-7'),
    ('fig5 25/25/50 user 2', 10000.0, '0x1.c846aa696430ap-8', '0x1.b274aaa9b3c8ep-8'),
    ('fig5 25/25/50 user 2', 100000.0, '0x1.bd10365d30af4p-8', '0x1.a777fd2d6dd8ep-8'),
    ('fig5 25/25/50 user 2', 100000000.0, '0x1.bbd3805ccd664p-8', '0x1.a641c37ed6434p-8'),
    ('fig5 25/25/50 user 2', 1e+16, '0x1.bbd32f40a2f88p-8', '0x1.a641740c9ce56p-8'),
    ('fig5 25/25/50 user 3', 0.0, '0x1.fe5656d0dfa86p-2', '0x1.0000000000000p-1'),
    ('fig5 25/25/50 user 3', 0.01, '0x1.fbea1ea0e957cp-2', '0x1.fd76a71cd10b4p-2'),
    ('fig5 25/25/50 user 3', 1.0, '0x1.e5f8bec9851b4p-2', '0x1.e6a6cf4c8cc80p-2'),
    ('fig5 25/25/50 user 3', 100.0, '0x1.125a260d9a91bp-2', '0x1.123e7cd4b46eep-2'),
    ('fig5 25/25/50 user 3', 1000.0, '0x1.ca527a15db5ecp-6', '0x1.c35d8bf4c3076p-6'),
    ('fig5 25/25/50 user 3', 10000.0, '0x1.39b2eb4536f36p-22', '0x1.61e19936fb86ep-23'),
    ('fig5 25/25/50 user 3', 100000.0, '0x1.05208507ffcacp-52', '0x1.809e477671bdap-53'),
    ('fig5 25/25/50 user 3', 100000000.0, '0x1.3976b9d5feebdp-67', '0x1.38eda48040110p-67'),
    ('fig5 25/25/50 user 3', 1e+16, '0x1.d83c23a1525f3p-81', '0x1.d79e1be6d56c5p-81'),
    ('(0.5, 0.3, 0.2) user 1', 0.0, 'InvalidParameterError', '0x1.ffffffff0a234p-2'),
    ('(0.5, 0.3, 0.2) user 1', 0.01, 'InvalidParameterError', '0x1.fbfd5bf041508p-2'),
    ('(0.5, 0.3, 0.2) user 1', 1.0, 'InvalidParameterError', '0x1.d82e43357f386p-2'),
    ('(0.5, 0.3, 0.2) user 1', 100.0, 'InvalidParameterError', '0x1.044f658cd1af3p-2'),
    ('(0.5, 0.3, 0.2) user 1', 1000.0, 'InvalidParameterError', '0x1.bb109f8b6d73fp-3'),
    ('(0.5, 0.3, 0.2) user 1', 10000.0, 'InvalidParameterError', '0x1.db6b53aa078c5p-3'),
    ('(0.5, 0.3, 0.2) user 1', 100000.0, 'InvalidParameterError', '0x1.e123e4850a534p-3'),
    ('(0.5, 0.3, 0.2) user 1', 100000000.0, 'InvalidParameterError', '0x1.e1cd988700134p-3'),
    ('(0.5, 0.3, 0.2) user 1', 1e+16, 'InvalidParameterError', '0x1.e1cdc42f61881p-3'),
    ('(0.5, 0.5) user 1', 0.0, 'InvalidParameterError', '0x1.ffffffff0a234p-2'),
    ('(0.5, 0.5) user 1', 0.01, 'InvalidParameterError', '0x1.fbfd5bf059761p-2'),
    ('(0.5, 0.5) user 1', 1.0, 'InvalidParameterError', '0x1.d82e676976374p-2'),
    ('(0.5, 0.5) user 1', 100.0, 'InvalidParameterError', '0x1.116e623ad423cp-2'),
    ('(0.5, 0.5) user 1', 1000.0, 'InvalidParameterError', '0x1.0007536ecb72bp-2'),
    ('(0.5, 0.5) user 1', 10000.0, 'InvalidParameterError', '0x1.00001c7dc8f73p-2'),
    ('(0.5, 0.5) user 1', 100000.0, 'InvalidParameterError', '0x1.00000e899b615p-2'),
    ('(0.5, 0.5) user 1', 100000000.0, 'InvalidParameterError', '0x1.00000d6dc8c0cp-2'),
    ('(0.5, 0.5) user 1', 1e+16, 'InvalidParameterError', '0x1.00000d6d826fbp-2'),
    ('zero elements, shared zone', 0.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 0.01, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 1.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 100.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 1000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 10000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 100000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 100000000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, shared zone', 1e+16, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 0.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 0.01, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 1.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 100.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 1000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 10000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 100000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 100000000.0, 'InvalidParameterError', '0x1.0000000000000p-1'),
    ('zero elements, sole occupant', 1e+16, 'InvalidParameterError', '0x1.0000000000000p-1'),
]
GOLDEN_IMPERFECT_SIC = [  # (pair, snr, value)
    ('fig2 n=50', 0.0, '0x1.ff2a7a77a4420p-2'),
    ('fig2 n=50', 0.01, '0x1.fc1e52e0e5b54p-2'),
    ('fig2 n=50', 1.0, '0x1.db93d6bfff3d5p-2'),
    ('fig2 n=50', 100.0, '0x1.cdddc87a3844ep-4'),
    ('fig2 n=50', 1000.0, '0x1.0001bbc8f905ap-9'),
    ('fig2 n=50', 10000.0, '0x1.36f143f19d6bfp-31'),
    ('fig2 n=50', 100000.0, '0x1.1ef1f7afb0b16p-61'),
    ('fig2 n=50', 100000000.0, '0x1.e6cd54439dacdp-69'),
    ('fig2 n=50', 1e+16, '0x1.81938aad0ee06p-82'),
    ('fig2 n=4', 0.0, '0x1.fdb99b218f957p-2'),
    ('fig2 n=4', 0.01, '0x1.fd7b63e374426p-2'),
    ('fig2 n=4', 1.0, '0x1.fb42bc627ece3p-2'),
    ('fig2 n=4', 100.0, '0x1.e1c71069ad575p-2'),
    ('fig2 n=4', 1000.0, '0x1.93be9c060f460p-2'),
    ('fig2 n=4', 10000.0, '0x1.7bd5dabff4cf4p-3'),
    ('fig2 n=4', 100000.0, '0x1.bb5ebc3c75966p-6'),
    ('fig2 n=4', 100000000.0, '0x1.c8a242372ad71p-13'),
    ('fig2 n=4', 1e+16, '0x1.66e118b283b4ap-26'),
    ('fig2 n=1', 0.0, '0x1.e23f15a7c1410p-2'),
    ('fig2 n=1', 0.01, '0x1.e22b1ffffc002p-2'),
    ('fig2 n=1', 1.0, '0x1.e176da1d46cdfp-2'),
    ('fig2 n=1', 100.0, '0x1.da2e6d76ad4dap-2'),
    ('fig2 n=1', 1000.0, '0x1.c71137ce92712p-2'),
    ('fig2 n=1', 10000.0, '0x1.82cc5fcc9cfe4p-2'),
    ('fig2 n=1', 100000.0, '0x1.af5830af320d3p-3'),
    ('fig2 n=1', 100000000.0, '0x1.3e5f52d6527a7p-8'),
    ('fig2 n=1', 1e+16, '0x1.f5ee600e73e06p-22'),
]


def _hex(route, *args):
    try:
        return route(*args).hex()
    except Exception as exc:  # the table records which type is raised
        return type(exc).__name__


def _owens_t_branch(h, a):
    # The branch _owens_t takes for these arguments, in its own order.
    if a < 0.0:
        return "odd"
    x = abs(h) * a
    if x >= analytic._OWEN_CUT:
        return "cut"
    if a > 1.0:
        return "reflection"
    return 8 if x < 1.0 and a < 0.25 else 12 if x < 2.0 else 16 if x < 5.0 else 24


def _compensated_sum(iterable, /, start=0):
    # CPython 3.12's built-in sum(): once the running total is a float, a
    # run of floats is added with Neumaier's compensation (Objects/bltinmodule.c).
    items = list(iterable)
    total, i = start, 0
    while i < len(items) and type(total) is not float:
        total, i = total + items[i], i + 1
    rest = items[i:]
    if not all(type(x) is float for x in rest):
        return _BUILTIN_SUM(rest, total)
    c = 0.0
    for x in rest:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


_BUILTIN_SUM = builtins.sum


class TestGolden:
    """Every route returns the same bits as the reference table."""

    def test_asymptote(self):
        for name, params in GOLDEN_CASES.items():
            assert _hex(ber_asymptotic, params) == GOLDEN_ASYMPTOTE[name], name

    def test_closed_form_and_numeric(self):
        for name, snr, closed, numeric in GOLDEN_CELLS:
            params = GOLDEN_CASES[name]
            assert _hex(ber_closed_form, params, snr) == closed, (name, snr)
            assert _hex(ber_numeric, params, snr) == numeric, (name, snr)

    def test_imperfect_sic(self):
        for pair, snr, value in GOLDEN_IMPERFECT_SIC:
            user2 = GOLDEN_CASES[pair + " user 2"]
            x1 = GOLDEN_CASES[pair + " x1 at user 2"]
            assert _hex(ber_imperfect_sic, user2, x1, snr) == value, (pair, snr)

    def test_same_bits_under_compensated_sum(self, monkeypatch):
        # The table holds on every supported Python: no route may add its
        # terms with sum(), whose float rounding changed in 3.12.
        assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
        assert _compensated_sum([0.1] * 10) == 1.0  # 0.9999999999999999 on 3.11
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        self.test_asymptote()
        self.test_closed_form_and_numeric()
        self.test_imperfect_sic()

    def test_table_reaches_every_branch(self, monkeypatch):
        branches, tails = set(), []
        owens_t, tail_difference = analytic._owens_t, analytic._tail_difference

        def counted_owens_t(h, a, *known):
            branches.add(_owens_t_branch(h, a))
            return owens_t(h, a, *known)

        def counted_tail_difference(m, width):
            tails.append(m)
            return tail_difference(m, width)

        monkeypatch.setattr(analytic, "_owens_t", counted_owens_t)
        monkeypatch.setattr(analytic, "_tail_difference", counted_tail_difference)
        self.test_closed_form_and_numeric()
        assert branches == {"cut", "reflection", 8, 12, 16, 24}
        assert tails
        # the zero-variance shortcut and a negative sign amplitude
        assert GOLDEN_CASES["zero elements, shared zone"].variance == 0.0
        assert min(GOLDEN_CASES["(0.5, 0.3, 0.2) user 1"].amplitudes) < 0.0
