import math

import numpy as np
import pytest

from xtalk_quant.channel_model import ChannelEnsemble, ToneGrid
from xtalk_quant.errors import InvalidBudget, InvalidParams
from xtalk_quant.rate_analysis import LinkBudget, build_report, loss_exact

from conftest import one_tone, random_dominant_tone


def _flat_tone(p=2, freq=1e6, gain=1.0):
    return one_tone(freq, gain * np.eye(p))


def _budget(psd=-60.0, noise=-140.0, gap_db=10.7, grid=None):
    return LinkBudget(psd, noise, gap_db, grid or ToneGrid.single_tone(1e6))


def _rate(budget, tone, user):
    """The crosstalk-free rate log2(1 + SNR/Gamma): the exact loss record at Delta = 0."""
    return loss_exact(budget, tone, np.zeros((tone.p, tone.p)), user).rate


class TestRateIdeal:
    def test_zero_snr(self):
        snap = _flat_tone(gain=1.0)
        budget = _budget(psd=-140.0, noise=-140.0, gap_db=0.0)
        # SNR = 1 at 0 dB gap -> exactly 1 bit; scale the gain to zero the SNR
        assert _rate(budget, snap, 0) == 1.0
        tiny = one_tone(1e6, np.eye(2) * 1e-300)
        assert _rate(budget, tiny, 0) == pytest.approx(0.0, abs=1e-250)

    def test_sixty_db_with_reference_gap(self):
        snap = _flat_tone()
        budget = _budget(psd=-80.0, noise=-140.0)  # SNR = 60 dB
        expected = math.log2(1.0 + 10.0**4.93)
        assert _rate(budget, snap, 0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(16.38, abs=0.01)

    def test_bad_budget_rejected(self):
        with pytest.raises(InvalidBudget):
            _budget(gap_db=-1.0)
        with pytest.raises(InvalidBudget):
            _budget(psd=float("nan"))

    def test_psd_spread_statistics(self):
        flat = _budget()
        assert flat.psd_ratio_max(5) == 1.0
        assert flat.psd_dynamic_range(5) == 1.0
        mixed = _budget(psd=[-60.0, -66.0, -63.0])
        # min-PSD victim against the max-PSD interferer: 6 dB
        assert mixed.psd_ratio_max(3) == pytest.approx(10 ** 0.6, rel=1e-12)
        assert mixed.psd_dynamic_range(3) == pytest.approx(10 ** 0.6, rel=1e-12)


class TestLossExact:
    def test_zero_delta(self):
        snap = _flat_tone(p=3)
        budget = _budget()
        rec = loss_exact(budget, snap, np.zeros((3, 3)), 1)
        assert rec.q == 1.0
        assert rec.loss == 0.0
        assert rec.rate_perturbed == rec.rate

    def test_full_cancellation(self):
        # Delta_ii = -1 wipes the direct path: loss equals the whole rate
        snap = _flat_tone(p=2)
        budget = _budget()
        delta = np.diag([-1.0, 0.0]).astype(complex)
        rec = loss_exact(budget, snap, delta, 0)
        assert rec.loss == pytest.approx(rec.rate, rel=1e-12)

    def test_rate_differencing_oracle(self):
        rng = np.random.default_rng(123)
        grid = ToneGrid.single_tone(1e6)
        worst = 0.0
        for _ in range(200):
            p = int(rng.choice([2, 4, 10]))
            snap = random_dominant_tone(rng, p, float(rng.uniform(0, 0.8)))
            psd = rng.uniform(-70, -50, p)
            budget = LinkBudget(psd, -140.0, float(rng.uniform(0, 12)), grid)
            delta = 2.0 ** -rng.integers(2, 16) * (
                rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            )
            u = int(rng.integers(0, p))
            rec = loss_exact(budget, snap, delta, u)
            # independent route: raw received powers per the perturbed system
            plin = 10.0 ** (psd / 10.0)
            nlin = 10.0 ** (-140.0 / 10.0)
            gap = budget.gap
            dii2 = abs(snap.D[0, u]) ** 2
            sig = plin[u] * dii2 * abs(1.0 + delta[u, u]) ** 2
            intf = sum(
                plin[j] * dii2 * abs(delta[u, j]) ** 2 for j in range(p) if j != u
            )
            l_oracle = math.log2(1.0 + plin[u] * dii2 / (gap * nlin)) - math.log2(
                1.0 + sig / (gap * (intf + nlin))
            )
            worst = max(worst, abs(rec.loss - l_oracle))
        assert worst <= 1e-12

    def test_gap_independence_of_a_and_q(self):
        rng = np.random.default_rng(7)
        snap = random_dominant_tone(rng, 4, 0.3)
        delta = 1e-3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        grid = ToneGrid.single_tone(1e6)
        recs = [
            loss_exact(LinkBudget(-60.0, -140.0, g, grid), snap, delta, 2)
            for g in (0.0, 6.0, 10.7, 20.0)
        ]
        for rec in recs[1:]:
            assert rec.a == recs[0].a
            assert rec.q == recs[0].q

    def test_offdiagonal_scaling_monotonicity(self):
        rng = np.random.default_rng(11)
        snap = random_dominant_tone(rng, 4, 0.3)
        budget = _budget()
        delta = 1e-3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        np.fill_diagonal(delta, 0.0)
        losses = [
            loss_exact(budget, snap, s * delta, 1).loss for s in (1.0, 0.7, 0.4, 0.1)
        ]
        assert losses[0] > 0
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_sign_cases(self):
        snap = _flat_tone(p=2)
        budget = _budget()
        off = np.array([[0.0, 1e-3], [0.0, 0.0]], dtype=complex)
        assert loss_exact(budget, snap, off, 0).loss > 0.0
        # a favorable diagonal rotation is a gain: q > 1, loss < 0 and unclamped
        gain = np.diag([0.1, 0.0]).astype(complex)
        rec = loss_exact(budget, snap, gain, 0)
        assert rec.q > 1.0
        assert rec.loss < 0.0

    def test_one_tone_only(self):
        # a tone is a one-tone ensemble; a wider one is refused, not read at tone 0
        two = ChannelEnsemble(ToneGrid(1e6, 2.2e6, 1e6), np.stack([np.eye(2)] * 2))
        budget = LinkBudget(-60.0, -140.0, 10.7, two.grid)
        with pytest.raises(InvalidParams):
            loss_exact(budget, two, np.zeros((2, 2)), 0)


class TestBand:
    def _two_tone(self, p=2):
        grid = ToneGrid(1e6, 2.2e6, 1e6)
        return ChannelEnsemble(grid=grid, H=np.stack([np.eye(p)] * grid.count), source={})

    def test_zero_deltas(self):
        ens = self._two_tone()
        budget = LinkBudget(-60.0, -140.0, 10.7, ens.grid)
        zero = [np.zeros((2, 2))] * 2
        report = build_report(budget, ens, zero)
        assert report.band_loss[0] == 0.0
        assert report.eta[0] == 0.0

    def test_single_tone_band_equals_tone_times_spacing(self):
        ens = _flat_tone()
        grid = ens.grid
        budget = LinkBudget(-60.0, -140.0, 10.7, grid)
        delta = np.array([[0.01, 0.002], [0.0, 0.0]], dtype=complex)
        report = build_report(budget, ens, [delta])
        rec = loss_exact(budget, ens, delta, 0)
        assert report.band_loss[0] == pytest.approx(rec.loss * grid.spacing, rel=1e-14)
        assert report.band_rate[0] == pytest.approx(rec.rate * grid.spacing, rel=1e-14)

    def test_two_tone_hand_sum(self):
        ens = self._two_tone()
        budget = LinkBudget(-60.0, -140.0, 10.7, ens.grid)
        d1 = np.array([[0.01, 0.001], [0.0, 0.0]], dtype=complex)
        d2 = np.array([[0.02, 0.003], [0.0, 0.0]], dtype=complex)
        l1, l2 = (
            loss_exact(budget, one_tone(ens.grid.freq(k), ens.H[k]), d, 0).loss
            for k, d in enumerate((d1, d2))
        )
        report = build_report(budget, ens, [d1, d2])
        assert report.band_loss[0] == pytest.approx((l1 + l2) * ens.grid.spacing, rel=1e-14)

    def test_relative_loss_undefined(self):
        # user 0's SNR underflows to 0: its band rate is 0, so its eta is NaN,
        # while the band loss is still reported and user 1 is unaffected
        ens = one_tone(1e6, np.diag([1e-300, 1.0]))
        report = build_report(_budget(), ens, [np.zeros((2, 2))])
        assert report.band_rate[0] == 0.0 and report.band_loss[0] == 0.0
        assert np.isnan(report.eta[0])
        assert report.band_rate[1] > 0.0 and report.eta[1] == 0.0

    def test_report_covers_all_users(self, small_ensemble, small_budget):
        deltas = [np.zeros((small_ensemble.p,) * 2)] * small_ensemble.grid.count
        rep = build_report(small_budget, small_ensemble, deltas)
        assert rep.rate.shape == (small_ensemble.p, small_ensemble.grid.count)
        for band in (rep.band_rate, rep.band_loss, rep.eta):
            assert band.shape == (small_ensemble.p,)
        assert np.all(rep.eta == 0.0)
