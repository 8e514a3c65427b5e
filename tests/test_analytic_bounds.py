import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from xtalk_quant.analytic_bounds import (
    WernerBoundParams,
    bound_asymptotic_coefficient,
    bound_general_per_tone,
    bound_main_band,
    bound_main_per_tone,
    bound_relative,
    bound_simplified_per_tone,
    bound_werner_decay,
    j_integral_bound,
    spectral_efficiency_floor,
    min_admissible_bits,
    werner_snr_profile,
)
from xtalk_quant.channel_model import ToneGrid
from xtalk_quant.errors import (
    BitDepthTooSmall,
    BoundInapplicable,
    FloorNonpositive,
    InvalidParams,
)
from xtalk_quant.rate_analysis import LinkBudget, loss_exact
from xtalk_quant.units import LN2

from conftest import REF_SNR0, REF_SNR_DECAY, one_tone, random_dominant_tone


class TestGeneralBound:
    def test_zero_delta_ceiling(self):
        assert bound_general_per_tone(10, 1.0, 0.0, 1e6) == 0.0

    def test_spsd_example(self):
        val = bound_general_per_tone(10, 1.0, 1e-4, 1e6)
        assert val == pytest.approx(
            math.log2((1 + 9e-8 * 1e6) / (1 - 1e-4) ** 2), rel=1e-12
        )
        assert val == pytest.approx(0.1246, abs=2e-4)

    def test_interference_free_denominator_only(self):
        assert bound_general_per_tone(10, 0.0, 0.5, 1e6) == pytest.approx(2.0, rel=1e-12)

    def test_t_at_one_rejected(self):
        with pytest.raises(BoundInapplicable):
            bound_general_per_tone(4, 1.0, 1.0, 1e4)


class TestMainBound:
    def test_reference_point_values(self):
        assert bound_main_per_tone(10, 0.0, 14, 1e6) == pytest.approx(0.0939, abs=2e-4)
        assert bound_main_per_tone(10, 0.0, 13, 1e6) == pytest.approx(0.3433, abs=2e-4)

    def test_one_percent_design_story_at_60db(self):
        rate = math.log2(1 + 1e6 / 10**1.07)
        assert bound_main_per_tone(10, 0.0, 14, 1e6) < 0.01 * rate
        assert bound_main_per_tone(10, 0.0, 13, 1e6) > 0.01 * rate

    def test_floor_enforced_not_clamped(self):
        with pytest.raises(BitDepthTooSmall) as err:
            bound_main_per_tone(10, 3.0, 2, 1e6)
        assert err.value.min_bits == pytest.approx(min_admissible_bits(3.0))

    def test_monotone_in_d(self):
        vals = [bound_main_per_tone(10, 0.5, d, 1e7) for d in range(4, 24)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_band_single_tone_consistency(self):
        grid = ToneGrid.single_tone(1e6)
        per_tone = bound_main_per_tone(10, 0.3, 12, 2e5)
        band = bound_main_band(10, 0.3, 12, np.array([2e5]), grid)
        assert band == per_tone * grid.spacing

    def test_band_floor_term_only(self):
        grid = ToneGrid(0.0, 1e6, 1e5)
        band = bound_main_band(8, 0.2, 10, np.zeros(grid.count), grid)
        expected = grid.bandwidth * (-2.0) * math.log1p(-math.sqrt(2) * 1.2 * 2.0**-10) / LN2
        assert band == pytest.approx(expected, rel=1e-12)


class TestSimplifiedBound:
    def test_values_and_preconditions(self):
        assert bound_simplified_per_tone(2, 1.0, 10, 0.0) == pytest.approx(
            2.0**-6.5, rel=1e-12
        )
        with pytest.raises(BoundInapplicable):
            bound_simplified_per_tone(2, 1.2, 10, 1e5)
        with pytest.raises(BoundInapplicable):
            bound_simplified_per_tone(2, 1.0, 2, 1e5)

    def test_dominates_main_bound_on_grid(self):
        for r in (0.0, 0.3, 1.0):
            for d in range(4, 20, 3):
                for snr in (1e2, 1e5, 1e8):
                    if math.sqrt(2) * (1 + r) * 2.0**-d > 0.5:
                        continue
                    assert bound_simplified_per_tone(10, r, d, snr) >= bound_main_per_tone(
                        10, r, d, snr
                    )

    def test_vanishes_for_large_d(self):
        assert bound_simplified_per_tone(2, 1.0, 50, 0.0) == pytest.approx(
            2.0**-46.5, rel=1e-12
        )


class TestDominationChain:
    def test_exact_le_general_le_main_le_simplified(self, small_ensemble, small_budget):
        rng = np.random.default_rng(21)
        d = 9
        p = small_ensemble.p
        for k in range(0, small_ensemble.grid.count, 6):
            snr = small_budget.snr(small_ensemble)[k]
            q_mat = small_ensemble.Q[k]
            r = float(small_ensemble.r[k])
            tone = one_tone(small_ensemble.grid.freq(k), small_ensemble.H[k])
            for _ in range(40):
                e2 = 2.0**-d * (
                    rng.uniform(-1, 1, (p, p))
                    + 1j * rng.uniform(-1, 1, (p, p))
                )
                delta = q_mat @ e2
                for u in range(p):
                    t_actual = float(np.max(np.abs(delta[u])))
                    rec = loss_exact(small_budget, tone, delta, u)
                    exact = max(0.0, rec.loss)
                    general = bound_general_per_tone(p, 1.0, t_actual, snr[u])
                    main = bound_main_per_tone(p, r, d, snr[u])
                    assert exact <= general + 1e-12
                    assert general <= main + 1e-12
                    if r <= 1.0:
                        assert main <= bound_simplified_per_tone(p, r, d, snr[u]) + 1e-12

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=1e-3, max_value=0.9),
        st.floats(min_value=-100.0, max_value=-30.0),
        st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_le_general_le_main_on_random_dominant_tones(
        self, seed, p, r_target, psd_dbm, bits_above_floor
    ):
        rng = np.random.default_rng(seed)
        tone = random_dominant_tone(rng, p, r_target)
        budget = LinkBudget(psd_dbm, -140.0, 10.7, tone.grid)
        snr, r = budget.snr(tone)[0], float(tone.r[0])
        # the least integer word length strictly above the admissibility floor, and up
        d = math.floor(min_admissible_bits(r)) + 1 + bits_above_floor
        e2 = 2.0**-d * (rng.uniform(-1, 1, (p, p)) + 1j * rng.uniform(-1, 1, (p, p)))
        delta = tone.Q[0] @ e2
        for u in range(p):
            exact = max(0.0, loss_exact(budget, tone, delta, u).loss)
            general = bound_general_per_tone(p, 1.0, float(np.max(np.abs(delta[u]))), snr[u])
            main = bound_main_per_tone(p, r, d, snr[u])
            assert exact <= general + 1e-12
            assert general <= main + 1e-12


class TestAsymptotics:
    def test_coefficient_values(self):
        assert bound_asymptotic_coefficient(1.0, 1.0) == pytest.approx(
            math.sqrt(32) / LN2, rel=1e-12
        )
        assert bound_asymptotic_coefficient(0.0, 1.0) == pytest.approx(
            2 * math.sqrt(2) / LN2, rel=1e-12
        )
        assert bound_asymptotic_coefficient(1.0, 1.0) == pytest.approx(8.1611, abs=1e-4)

    def test_band_bound_converges(self):
        grid = ToneGrid.vdsl_band(decimation=13)
        snr = werner_snr_profile(REF_SNR0, REF_SNR_DECAY, grid.freqs)
        coef = bound_asymptotic_coefficient(1.0, grid.bandwidth)
        ratio = bound_main_band(10, 1.0, 30, snr, grid) * 2.0**30 / coef
        assert abs(ratio - 1.0) <= 0.01


class TestWernerParams:
    def _params(self, **kw):
        base = dict(
            alpha_ell=REF_SNR_DECAY,
            gamma1=0.1596,
            gamma2=3.1729e-8,
            p=10,
            snr0=REF_SNR0,
            bandwidth_hz=30e6,
            gap=10**1.07,
        )
        base.update(kw)
        return WernerBoundParams(**base)

    def test_rho_reduces_to_square(self):
        p = self._params(gamma1=0.0, gamma2=0.0)
        assert p.rho_ell == 1.0
        p = self._params(gamma2=0.0)
        assert p.rho_ell == (1 + 0.1596) ** 2

    def test_rho_formula(self):
        p = self._params()
        g = p.gamma2 / p.alpha_ell**2
        expected = (1 + p.gamma1) ** 2 + 12 * (1 + p.gamma1) * g + 240 * g * g
        assert p.rho_ell == pytest.approx(expected, rel=1e-14)

    def test_amplitude_constructor_doubles(self):
        p = WernerBoundParams.from_amplitude_aggregate(
            0.0019, 0.1596, 3.1729e-8, 10, REF_SNR0, 30e6, gap=10**1.07
        )
        assert p.alpha_ell == REF_SNR_DECAY

    def test_rho_limit_long_loops(self):
        # with gamma2 = O(sqrt(length)), rho -> (1+gamma1)^2
        base = self._params()
        vals = [base.scaled_to_length(ell, 300.0).rho_ell for ell in (300, 3000, 3e4, 3e6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx((1 + base.gamma1) ** 2, rel=1e-4)

    def test_decay_bound_reductions(self):
        p = self._params()
        assert bound_werner_decay(p, 60) == pytest.approx(0.0, abs=1e-14)
        lone = self._params(gamma1=0.0, gamma2=0.0)
        assert bound_werner_decay(lone, 12) == pytest.approx(
            (4 / LN2) * 9 * REF_SNR0 / (lone.alpha_ell**2 * 30e6) * 4.0**-12
            + 2.0**-8.5,
            rel=1e-12,
        )

    def test_relative_bound_monotone_and_reduction(self):
        p = self._params()
        vals = [bound_relative(p, d) for d in range(8, 24)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSpectralFloor:
    def test_flat_channel(self):
        assert spectral_efficiency_floor(2.0**20, 1.0, 0.0, 30e6) == pytest.approx(20.0)

    def test_two_level_example(self):
        # snr0/gap = 2^30 and edge snr/gap = 2^15 -> floor = 10 + 10
        band = 30e6
        alpha = 15 * LN2 / math.sqrt(band)
        c = spectral_efficiency_floor(2.0**30, 1.0, alpha, band)
        assert c == pytest.approx(20.0, rel=1e-12)

    def test_nonpositive_floor_raises(self):
        with pytest.raises(FloorNonpositive):
            spectral_efficiency_floor(1e4, 1.0, 1.0, 30e6)

    def test_floor_below_quadrature_rate(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            snr0 = 10 ** rng.uniform(4, 9)
            gap = 10 ** rng.uniform(0, 1.2)
            band = 10 ** rng.uniform(6, 7.7)
            a_max = 1.4 * math.log(snr0 / gap) / math.sqrt(band)
            alpha = float(rng.uniform(0.2, 1.0)) * a_max
            c = spectral_efficiency_floor(snr0, gap, alpha, band)
            val, _ = integrate.quad(
                lambda f: np.log1p(snr0 * math.exp(-alpha * math.sqrt(f)) / gap) / LN2,
                0.0,
                band,
                limit=300,
            )
            assert val / band >= c - 1e-9


class TestJIntegral:
    def test_zero_mu(self):
        assert j_integral_bound(1.0, 0.0, 1e-3, 30e6, 1e8, 0.0) == 0.0

    def test_b_zero_reduction(self):
        alpha, band, snr0, mu = 2e-3, 30e6, 1e8, 1e-7
        got = j_integral_bound(1.0, 0.0, alpha, band, snr0, mu)
        f_edge = snr0 * math.exp(-alpha * math.sqrt(band))
        term1 = (
            math.exp(alpha * math.sqrt(band))
            / (alpha**2 * band)
            * 2.0
            * math.log1p(mu * f_edge)
            / LN2
        )
        term2 = math.log1p(snr0 * mu) / LN2  # peak sits at f = 0 when b = 0
        assert got == pytest.approx(min(term1, term2), rel=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParams):
            j_integral_bound(1.0, 0.0, 0.0, 30e6, 1e8, 1e-6)

    def test_quadrature_domination_and_small_mu_sharpness(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = float(rng.uniform(1.0, 2.5))
            band = 10 ** rng.uniform(6, 7.7)
            alpha = float(rng.uniform(8, 24)) / math.sqrt(band)
            b = float(rng.uniform(0.0, 0.3)) * alpha**2
            snr0 = 10 ** rng.uniform(5, 9)
            for mu in (10 ** rng.uniform(-12, 2), 10 ** rng.uniform(-12, -6)):
                bound = j_integral_bound(a, b, alpha, band, snr0, mu)
                val, _ = integrate.quad(
                    lambda x: np.log1p(mu * (a + b * x) ** 2 * snr0 * math.exp(-alpha * math.sqrt(x)))
                    / LN2,
                    0.0,
                    band,
                    limit=400,
                )
                j_true = val / band
                assert j_true <= bound * (1 + 1e-9) + 1e-300
                if mu <= 1e-6:
                    assert bound <= 10.0 * j_true


class TestReductionIdentity:
    def test_rho_one_is_bitwise_spsd(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = int(rng.integers(2, 40))
            r = float(rng.uniform(0, 2))
            snr = 10 ** rng.uniform(0, 9)
            d = int(rng.integers(math.ceil(min_admissible_bits(r)), 28))
            via_rho = bound_main_per_tone(p, r, d, snr, rho=1.0)
            gamma = 2.0 * (p - 1) * (1.0 + r) ** 2 * 4.0 ** (-d)
            z = math.sqrt(2) * (1.0 + r) * 2.0 ** (-d)
            spsd = math.log1p(gamma * snr) / LN2 - 2.0 * math.log1p(-z) / LN2
            assert via_rho == spsd

    def test_rho_scales_interference_term(self):
        base = bound_main_per_tone(10, 0.2, 12, 1e5, rho=1.0)
        wide = bound_main_per_tone(10, 0.2, 12, 1e5, rho=4.0)
        assert wide > base
