import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DetectionOutcome, mld_detect, sic_receive, superpose
from starnoma.errors import InvalidParameterError
from starnoma.noma import DETECTED, GENIE, PowerAllocation


class TestPowerAllocation:
    def test_amplitudes(self):
        alloc = PowerAllocation((0.7, 0.3), power=1.0)
        assert alloc.amplitude(0) == pytest.approx(math.sqrt(0.7), rel=1e-6, abs=0)
        assert alloc.amplitudes() == pytest.approx((math.sqrt(0.7), math.sqrt(0.3)),
                                                   rel=1e-6, abs=0)

    @pytest.mark.parametrize("coeffs", [(0.7, 0.2), (0.3, 0.7), (1.0, 0.0), ()])
    def test_rejects_bad_coefficients(self, coeffs):
        with pytest.raises(InvalidParameterError):
            PowerAllocation(coeffs)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(InvalidParameterError):
            PowerAllocation((1.0,), power=0.0)


class TestSuperpose:
    def test_two_user_sum(self):
        alloc = PowerAllocation((0.7, 0.3))
        assert superpose([1, 1], alloc) == pytest.approx(1.3843825840392416, rel=1e-12, abs=0)
        assert superpose([1, -1], alloc) == pytest.approx(0.2889374690289095, rel=1e-12, abs=0)

    def test_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            superpose([1], PowerAllocation((0.7, 0.3)))

    def test_rejects_non_bpsk(self):
        with pytest.raises(InvalidParameterError):
            superpose([1, 0], PowerAllocation((0.7, 0.3)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4))
    def test_negating_all_symbols_negates_sample(self, symbols):
        k = len(symbols)
        coeffs = tuple(2.0 * (k - i) / (k * (k + 1)) for i in range(k))
        alloc = PowerAllocation(coeffs)
        plus = superpose(symbols, alloc)
        minus = superpose([-s for s in symbols], alloc)
        assert minus == pytest.approx(-plus, abs=1e-12)


class TestMldDetect:
    def test_sign_decisions(self):
        assert mld_detect(0.3 + 0j) == 1
        assert mld_detect(-0.01 + 5j) == -1

    def test_tie_breaks_positive(self):
        assert mld_detect(0.0 + 2j) == 1

    def test_matches_argmin_form(self):
        # Exhaustive grid: sign detection equals the minimum-distance rule.
        for re in np.linspace(-2.0, 2.0, 41):
            for gain in (0.1, 1.0, 3.0):
                for power in (0.2, 1.0):
                    r = complex(re, 0.7)
                    dists = {c: abs(r - power * gain * c) ** 2 for c in (1, -1)}
                    argmin = min(dists, key=dists.get)
                    got = mld_detect(r)
                    if dists[1] != dists[-1]:
                        assert got == argmin
                    else:
                        assert got == 1


class TestSicReceive:
    def test_rejects_negative_gain(self):
        with pytest.raises(InvalidParameterError):
            sic_receive(1.0 + 0j, 0, -1.0, PowerAllocation((0.7, 0.3)), mode=DETECTED)

    def test_first_user_has_no_stages(self):
        alloc = PowerAllocation((0.7, 0.3))
        out = sic_receive(1.0 + 0j, 0, 1.0, alloc, mode=DETECTED)
        assert out == DetectionOutcome((), 1, DETECTED)

    def test_noiseless_two_user_chain(self):
        alloc = PowerAllocation((0.7, 0.3))
        gain = 2.0
        y = gain * superpose([1, -1], alloc)
        out = sic_receive(y, 1, gain, alloc, mode=DETECTED)
        assert out.stages == (1,)
        assert out.final == -1

    def test_genie_requires_true_symbols(self):
        alloc = PowerAllocation((0.7, 0.3))
        with pytest.raises(InvalidParameterError):
            sic_receive(1.0 + 0j, 1, 1.0, alloc, mode=GENIE)

    def test_genie_and_detected_agree_when_stages_correct(self):
        alloc = PowerAllocation((0.6, 0.3, 0.1))
        rng = np.random.default_rng(3)
        for _ in range(300):
            bits = tuple(rng.choice([1, -1]) for _ in range(3))
            gain = rng.uniform(0.5, 2.0)
            noise = complex(*rng.normal(0, 0.05, 2))
            y = gain * superpose(bits, alloc) + noise
            det = sic_receive(y, 2, gain, alloc, mode=DETECTED)
            gen = sic_receive(y, 2, gain, alloc, mode=GENIE, true_symbols=bits)
            if det.stages == bits[:2]:
                assert det.final == gen.final

    def test_symbol_symmetry(self):
        # Negating the transmitted bits and the noise negates every decision.
        alloc = PowerAllocation((0.7, 0.3))
        rng = np.random.default_rng(4)
        for _ in range(300):
            bits = tuple(rng.choice([1, -1]) for _ in range(2))
            gain = rng.uniform(0.2, 2.0)
            noise = complex(*rng.normal(0, 0.5, 2))
            y = gain * superpose(bits, alloc) + noise
            out_p = sic_receive(y, 1, gain, alloc, mode=DETECTED)
            out_m = sic_receive(-y, 1, gain, alloc, mode=DETECTED)
            assert out_m.stages == tuple(-s for s in out_p.stages)
            assert out_m.final == -out_p.final

    def test_stage_count_equals_user_index(self):
        alloc = PowerAllocation((0.5, 0.3, 0.2))
        for k in range(3):
            out = sic_receive(0.4 + 0j, k, 1.0, alloc, mode=DETECTED)
            assert len(out.stages) == k

    def test_conditional_error_rate_is_symbol_independent(self):
        # Small end-to-end check of the symmetry across transmitted bits.
        alloc = PowerAllocation((0.7, 0.3))
        rng = np.random.default_rng(9)
        errs = {1: 0, -1: 0}
        n = 6000
        for _ in range(n):
            b2 = rng.choice([1, -1])
            bits = (rng.choice([1, -1]), b2)
            gain = 0.8
            noise = complex(*rng.normal(0, 0.45, 2))
            y = gain * superpose(bits, alloc) + noise
            out = sic_receive(y, 1, gain, alloc, mode=GENIE, true_symbols=bits)
            errs[b2] += out.final != b2
        p_plus = errs[1] / (n / 2)
        p_minus = errs[-1] / (n / 2)
        se = math.sqrt(2 * p_plus * (1 - p_plus) / (n / 2))
        assert abs(p_plus - p_minus) < 4 * se + 1e-9
