"""The exact worst case over the quantization box, ``worst_case_loss``.

The oracles here rebuild the zonotope of each row's Delta entries without
the sort-and-chain construction: a vertex is the box corner that is extreme
in some direction u, c = sign(Re(conj(u) g)) per generator g, one for each
arc between consecutive critical angles (the angles at which some
generator turns perpendicular to u).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import one_tone, random_dominant_tone, reference_params

from xtalk_quant import precoding
from xtalk_quant.analytic_bounds import bound_general_per_tone, bound_main_per_tone
from xtalk_quant.channel_model import ToneGrid, synthesize_channel
from xtalk_quant.errors import InvalidParams
from xtalk_quant.monte_carlo import CERT_MARGIN, TrialConfig, run_trials_sweep
from xtalk_quant.precoding import (
    E2_DETERMINISTIC,
    E2_UNIFORM,
    PerturbationSpec,
    ideal_precoder,
    make_bundle,
    quantize_precoder,
)
from xtalk_quant.rate_analysis import LinkBudget, build_report, loss_arrays, worst_case_loss
from xtalk_quant.scenario import Scenario
from xtalk_quant.units import LN2


@pytest.fixture(scope="module")
def reference():
    scen = Scenario()
    ensemble = scen.ensemble()
    return scen, ensemble, scen.budget(ensemble.grid)


def _generators(q_row: np.ndarray) -> np.ndarray:
    """The 2p generators of a row's zonotope at unit half-width."""
    return np.concatenate((q_row, 1j * q_row))


def _vertex_coefficients(gens: np.ndarray) -> np.ndarray:
    """Box coefficients of every vertex of the zonotope, in angular order."""
    live = np.angle(gens[gens != 0.0])
    crit = np.sort(np.concatenate((live + np.pi / 2, live - np.pi / 2)) % (2 * np.pi))
    ends = np.append(crit[1:], crit[0] + 2 * np.pi)
    mids = ((crit + ends) / 2)[ends - crit > 1e-12]
    u = np.exp(1j * mids)
    return np.sign((gens[None, :] * np.conj(u)[:, None]).real)


def _extremes(q_row: np.ndarray, h: float) -> tuple:
    """Box coefficients of the vertex farthest from 0 and of the point of the
    zonotope nearest to -1, at half-width ``h``."""
    gens = h * _generators(q_row)
    coef = _vertex_coefficients(gens)
    verts = coef @ gens
    far = coef[np.argmax(np.abs(verts))]
    best, near = np.inf, None
    for a, b in zip(coef, np.roll(coef, -1, axis=0)):
        start, edge = a @ gens, (b - a) @ gens
        length2 = abs(edge) ** 2
        t = 0.0 if length2 == 0.0 else ((-1.0 - start) * np.conj(edge)).real / length2
        t = min(1.0, max(0.0, t))
        c = a + t * (b - a)
        dist = abs(1.0 + c @ gens)
        if dist < best:
            best, near = dist, c
    return far, near


def _e2(coef: np.ndarray, h: float) -> np.ndarray:
    p = coef.size // 2
    return h * (coef[:p] + 1j * coef[p:])


def _rates(ensemble, budget):
    snr = budget.snr(ensemble)
    return np.log1p(snr / budget.gap).T / LN2


class TestAttained:
    @pytest.mark.parametrize("d", [8, 14, 20])
    def test_a_box_feasible_e2_reaches_the_supremum(self, reference, d):
        # column i of E2 puts Delta_ii on the point nearest to -1, every other
        # column puts Delta_ij on the farthest vertex
        _, ensemble, budget = reference
        h = 2.0**-d
        sup = worst_case_loss(budget, ensemble, h)
        snr, psd = budget.snr(ensemble), budget.psd_linear(ensemble.p)
        p, Q = ensemble.p, ensemble.row_normalized()
        for k in range(0, ensemble.grid.count, 9):  # 13 tones, tone 0 (Q = I) among them
            q_mat = Q[k]
            for i in range(p):
                far, near = _extremes(q_mat[i], h)
                e2 = np.repeat(_e2(far, h)[:, None], p, axis=1)
                e2[:, i] = _e2(near, h)
                assert np.all(np.abs(e2.real) <= h) and np.all(np.abs(e2.imag) <= h)
                loss = loss_arrays(snr[k], budget.gap, psd, q_mat @ e2)["loss"][i]
                assert loss == pytest.approx(sup[i, k], rel=1e-12, abs=0.0), (k, i)

    def test_tone_zero_closed_form(self, reference):
        # Q = I: Z_i is the square of half-width s for the diagonal and for
        # every off-diagonal entry, so dist = 1 - s and R = sqrt(2) s
        _, ensemble, budget = reference
        assert np.array_equal(ensemble.row_normalized()[0], np.eye(ensemble.p))
        psd = budget.psd_linear(ensemble.p)
        snr = budget.snr(ensemble)[0]
        esnr = snr / budget.gap
        for d in (4, 8, 14, 20):
            s = 2.0**-d
            q_min = (1.0 - s) ** 2 / (1.0 + 2.0 * s * s * snr * (psd.sum() - psd) / psd)
            closed = np.log1p(esnr) / LN2 - np.log1p(esnr * q_min) / LN2
            sup = worst_case_loss(budget, ensemble, s)[:, 0]
            assert np.allclose(sup, closed, rtol=1e-12, atol=0.0), d

    @pytest.mark.parametrize("h", [2.0**-4, 0.55])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brute_force_never_exceeds_it(self, seed, h):
        # p = 2: maximize each user's loss over the 8 real coordinates of E2
        # from many starts; the supremum is never beaten and is nearly reached
        # (at h = 0.55, -1 lies 0.04 to 0.36 outside the Z_i)
        rng = np.random.default_rng(seed)
        tone = random_dominant_tone(rng, 2, 0.6)
        budget = LinkBudget([-60.0, -63.0], -110.0, 10.7, tone.grid)
        sup = worst_case_loss(budget, tone, h)[:, 0]
        snr, psd, q_mat = budget.snr(tone)[0], budget.psd_linear(2), tone.row_normalized()[0]

        def loss(x, i):
            e2 = (x[:4] + 1j * x[4:]).reshape(2, 2)
            return loss_arrays(snr, budget.gap, psd, q_mat @ e2)["loss"][i]

        for i in range(2):
            best = max(
                -minimize(lambda x: -loss(x, i), rng.uniform(-h, h, 8), method="L-BFGS-B",
                          bounds=[(-h, h)] * 8).fun
                for _ in range(40)
            )
            assert best <= sup[i] * (1.0 + 1e-12)
            assert best >= sup[i] * (1.0 - 1e-6)


class TestAboveEveryTrial:
    def test_reference_scenario(self, reference):
        scen, ensemble, budget = reference
        d_values = range(8, 21)
        reports = run_trials_sweep(ensemble, budget, scen.trial_config(), d_values)
        sup = worst_case_loss(budget, ensemble, 2.0 ** -np.array(d_values, float)[:, None])
        rate = _rates(ensemble, budget)
        for rep, s in zip(reports, sup):
            assert np.all(rep.per_tone <= s * (1.0 + CERT_MARGIN)), rep.d_bits
            # what min_bits_empirical's certificate relies on
            assert np.all(rep.per_tone / rate <= s / rate + CERT_MARGIN), rep.d_bits

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=1e-3, max_value=0.9),
        st.floats(min_value=-100.0, max_value=-30.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_dominant_tones(self, seed, p, r_target, psd_dbm):
        tone = random_dominant_tone(np.random.default_rng(seed), p, r_target)
        budget = LinkBudget(psd_dbm, -140.0, 10.7, tone.grid)
        config = TrialConfig(60, PerturbationSpec(1, E2_UNIFORM, seed=seed))
        d_values = (2, 5, 9, 14)
        reports = run_trials_sweep(tone, budget, config, d_values)
        sup = worst_case_loss(budget, tone, 2.0 ** -np.array(d_values, float)[:, None])
        rate = _rates(tone, budget)
        for rep, s in zip(reports, sup):
            assert np.all(rep.per_tone <= s * (1.0 + CERT_MARGIN)), rep.d_bits
            assert np.all(rep.per_tone / rate <= s / rate + CERT_MARGIN), rep.d_bits


class TestBoundChain:
    def test_below_the_general_and_main_bounds(self, reference):
        # the supremum is a loss at a Delta with max |Delta_ij| = R_i, so the
        # general bound at t = R_i holds it, and R_i <= sqrt(2)(1 + r)2^-d
        _, ensemble, budget = reference
        p = ensemble.p
        snr = budget.snr(ensemble)
        rho = budget.psd_dynamic_range(p)
        radius = np.array([
            [np.abs(_vertex_coefficients(_generators(row)) @ _generators(row)).max() for row in q]
            for q in ensemble.row_normalized()
        ])  # (tones, p) at unit half-width
        for d in range(8, 21):
            h = 2.0**-d
            sup = worst_case_loss(budget, ensemble, h)
            for i in range(p):
                general = bound_general_per_tone(p, rho, radius[:, i] * h, snr[:, i])
                main = bound_main_per_tone(p, ensemble.r, d, snr[:, i], rho)
                assert np.all(sup[i] <= general), (d, i)
                # at tone 0 (Q = I) R_i = sqrt(2) 2^-d is the ceiling itself, up to an ulp
                assert np.all(general <= main * (1.0 + 1e-12)), (d, i)

    @staticmethod
    def _analyze_and_supremum(scen, d):
        """analyze's exact loss under deterministic rounding at word length d,
        and the supremum at each tone's deployed half-width: rounding keeps
        E2 in [-sigma 2^(-d-1), sigma 2^(-d-1)], sigma the tone's block scale."""
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        spec = PerturbationSpec(d, E2_DETERMINISTIC)
        scale = quantize_precoder(ideal_precoder(ensemble), spec, normalize=True).scale
        report = build_report(budget, ensemble, make_bundle(ensemble, spec, normalize=True))
        return report.loss, worst_case_loss(budget, ensemble, scale * 2.0 ** (-d - 1))

    @pytest.mark.parametrize("length", [300.0, 1200.0])
    @pytest.mark.parametrize("d", [8, 10, 14, 18, 20])
    def test_above_analyze(self, length, d):
        # the cross-path oracle: analyze's exact loss stays below the
        # supremum on every tone and user of the 109-tone grid
        loss, sup = self._analyze_and_supremum(Scenario(loop_length_m=length), d)
        assert np.all(loss <= sup)
        assert np.max(loss / sup) > 0.5  # not vacuous: 0.73 to 0.92 on these channels

    @pytest.mark.parametrize("d", [10, 14])
    def test_above_analyze_on_the_30a_plan(self, d):
        # the same oracle on the VDSL2 30a plan at 300 m, the paper's 14-bit
        # case: 3479 tones, so analyze's report runs over 14 tone blocks
        scen = Scenario(loop_length_m=300.0, decimation=2)
        assert scen.grid().count == 3479 and -(-3479 // precoding.BUNDLE_BLOCK) == 14
        loss, sup = self._analyze_and_supremum(scen, d)
        assert np.all(loss <= sup)
        assert np.max(loss / sup) > 0.5  # 0.89 at d = 10, 0.74 at d = 14


class TestShapesAndMemory:
    def test_half_widths_broadcast(self, reference):
        _, ensemble, budget = reference
        n = ensemble.grid.count
        one = worst_case_loss(budget, ensemble, 2.0**-12)
        assert one.shape == (ensemble.p, n)
        assert np.array_equal(worst_case_loss(budget, ensemble, np.full(n, 2.0**-12)), one)
        stack = worst_case_loss(budget, ensemble, np.array([[2.0**-12], [2.0**-13]]))
        assert stack.shape == (2, ensemble.p, n)
        assert np.array_equal(stack[0], one)
        assert np.array_equal(stack[1], worst_case_loss(budget, ensemble, 2.0**-13))

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
    def test_half_width_must_be_positive(self, reference, h):
        _, ensemble, budget = reference
        with pytest.raises(InvalidParams):
            worst_case_loss(budget, ensemble, h)

    def test_peak_does_not_grow_with_the_tone_count(self):
        # the 30a plan: 3479 tones; beyond its (p, tones) result the traced
        # peak stays under a fixed 1 MB, whatever the tone count
        grid = ToneGrid.vdsl_band(decimation=2)
        ensemble = synthesize_channel(reference_params(), grid, 5)
        budget = LinkBudget(-60.0, -140.0, 10.7, grid)
        assert grid.count == 3479
        tracemalloc.start()
        try:
            out = worst_case_loss(budget, ensemble, 2.0**-14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2**20

    def test_peak_does_not_grow_with_the_number_of_widths(self):
        # min_bits_empirical's certificate: 32 half-widths in one call on the
        # 30a plan; beyond the (32, p, tones) result the peak stays under 1 MB
        grid = ToneGrid.vdsl_band(decimation=2)
        ensemble = synthesize_channel(reference_params(), grid, 5)
        budget = LinkBudget(-60.0, -140.0, 10.7, grid)
        widths = np.array([2.0**-d for d in range(1, 33)])[:, None]
        tracemalloc.start()
        try:
            out = worst_case_loss(budget, ensemble, widths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (32, 10, 3479)
        assert peak - out.nbytes <= 2**20

    def test_minus_one_inside_loses_the_whole_rate(self, reference):
        # at h = 2 each Z_i holds the square of half-width 2 |Q_ii| = 2 around
        # 0, so Delta_ii = -1 is feasible: q = 0 and the loss is the rate
        _, ensemble, budget = reference
        sup = worst_case_loss(budget, ensemble, 2.0)
        assert np.array_equal(sup, _rates(ensemble, budget))

    def test_zero_length_edges_are_not_nan(self):
        # Q = I: the off-diagonal generators are zero, so the polygon has
        # zero-length edges; every user still gets a finite supremum
        tone = one_tone(1e6, np.eye(3))
        budget = LinkBudget(-60.0, -140.0, 10.7, tone.grid)
        sup = worst_case_loss(budget, tone, 2.0**-6)
        assert np.all(np.isfinite(sup)) and np.all(sup > 0.0)
