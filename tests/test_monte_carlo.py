import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dominant_tone, reference_params

from xtalk_quant.analytic_bounds import bound_main_per_tone
from xtalk_quant.channel_model import ToneGrid, synthesize_channel
from xtalk_quant.errors import InvalidParams, SingularChannel, TargetUnreachable
from xtalk_quant import monte_carlo, streams
from xtalk_quant.monte_carlo import (
    RETRY_CAP,
    TrialConfig,
    _invert_with_resampling,
    min_bits_empirical,
    run_trials,
    run_trials_sweep,
)
from xtalk_quant.precoding import E2_DETERMINISTIC, E2_UNIFORM, PerturbationSpec
from xtalk_quant.rate_analysis import LinkBudget, loss_arrays
from xtalk_quant.reports import render_table
from xtalk_quant.scenario import Scenario
from xtalk_quant.units import LN2


def _config(d, n=200, seed=42, statistic="worst_case", q=None, zero=False, e1_samples=None):
    return TrialConfig(
        n_trials=n,
        spec=PerturbationSpec(d_bits=d, e2_model=E2_UNIFORM, e1_samples=e1_samples, seed=seed),
        statistic=statistic,
        quantile_q=q,
        zero_errors=zero,
    )


def _report_bytes(rep, config, ensemble) -> bytes:
    rows = [
        (u, float(f), float(rep.per_tone[u, k]))
        for u in range(rep.per_tone.shape[0])
        for k, f in enumerate(ensemble.freqs)
    ]
    return render_table(
        "sim", {"seed": config.spec.seed, "d": rep.d_bits}, ["u", "f", "loss"], rows, "test"
    ).encode()


class TestTrialConfig:
    def test_non_uniform_e2_model_refused(self):
        # the engine draws only uniform errors, so a spec saying otherwise is refused
        with pytest.raises(InvalidParams, match="uniform_random"):
            TrialConfig(n_trials=10, spec=PerturbationSpec(d_bits=14))

    def test_scenario_trials_draw_uniform_errors(self):
        # the scenario's e2_model sets analyze's quantizer, not the trials
        spec = Scenario(e2_model=E2_DETERMINISTIC, csi_samples=1000).trial_config().spec
        assert (spec.e2_model, spec.e1_samples) == (E2_UNIFORM, 1000)


class TestRunTrials:
    @pytest.mark.parametrize("d_values", [[0], [-3], [8, 0, 12]])
    def test_word_length_below_one_refused(self, small_ensemble, small_budget, d_values):
        # PerturbationSpec refuses d_bits < 1; the sweep's word lengths must too
        with pytest.raises(InvalidParams, match="word length"):
            run_trials_sweep(small_ensemble, small_budget, _config(8, n=5), d_values)

    def test_zero_errors_zero_loss(self, small_ensemble, small_budget):
        rep = run_trials(small_ensemble, small_budget, _config(12, n=1, zero=True))
        assert np.all(rep.per_tone == 0.0)
        assert np.all(rep.band_per_bin == 0.0)
        assert np.all(rep.band_joint == 0.0)

    def test_statistic_coherence(self, small_ensemble, small_budget):
        worst = run_trials(small_ensemble, small_budget, _config(10, n=400))
        q99 = run_trials(
            small_ensemble, small_budget, _config(10, n=400, statistic="quantile", q=0.99)
        )
        mean = run_trials(small_ensemble, small_budget, _config(10, n=400, statistic="mean"))
        assert np.all(worst.per_tone >= q99.per_tone - 1e-15)
        assert np.all(q99.per_tone >= mean.per_tone - 1e-15)

    def test_seed_determinism_bytes(self, small_ensemble, small_budget):
        cfg7, cfg8 = _config(11, seed=7), _config(11, seed=8)
        a = run_trials(small_ensemble, small_budget, cfg7)
        b = run_trials(small_ensemble, small_budget, cfg7)
        assert _report_bytes(a, cfg7, small_ensemble) == _report_bytes(b, cfg7, small_ensemble)
        c = run_trials(small_ensemble, small_budget, cfg8)
        assert _report_bytes(a, cfg7, small_ensemble) != _report_bytes(c, cfg8, small_ensemble)

    def test_thread_count_does_not_change_results(
        self, small_ensemble, small_budget, monkeypatch
    ):
        """Every worker owns its trial workspace, so each engine path gives the
        same bits on one thread as on several (34 tones: each worker reuses its
        workspace on many of them)."""
        ens, budget = small_ensemble, small_budget

        def engine_paths() -> dict:
            out = {"run_trials": run_trials(ens, budget, _config(11, seed=7)).per_tone}
            # min_bits_empirical's worst case before the log
            worst, rate, _, _ = monte_carlo._sweep_tones(
                ens, budget, _config(1, n=100, seed=7), range(1, 33), band_joint=False
            )
            out.update(worst=worst, worst_rate=rate)
            for label, cfg in [
                ("mean", _config(1, n=100, seed=7, statistic="mean")),
                ("csi", _config(1, n=100, seed=7, e1_samples=1000)),
            ]:
                for rep in run_trials_sweep(ens, budget, cfg, (8, 12, 16)):
                    for name in ("per_tone", "band_per_bin", "band_joint"):
                        out[label, rep.d_bits, name] = getattr(rep, name)
            return out

        monkeypatch.delenv("XTALK_THREADS", raising=False)
        base = engine_paths()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often: a buffer shared by workers shows up
        try:
            for threads in ("2", "4"):
                monkeypatch.setenv("XTALK_THREADS", threads)
                threaded = engine_paths()
                assert threaded.keys() == base.keys()
                for key, value in base.items():
                    assert np.array_equal(value, threaded[key]), (threads, key)
        finally:
            sys.setswitchinterval(interval)

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=1e-3, max_value=0.9),
        st.floats(min_value=-100.0, max_value=-30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_common_random_numbers_monotone_in_d(self, seed, p, r_target, psd_dbm):
        # each d's run redraws the same uniforms, so a finer word length only
        # shrinks every trial's error: the worst cases never grow with d
        ensemble = random_dominant_tone(np.random.default_rng(seed), p, r_target)
        budget = LinkBudget(psd_dbm, -140.0, 10.7, ensemble.grid)
        worst = [
            run_trials(ensemble, budget, _config(d, n=100, seed=seed))
            for d in range(3, 19)
        ]
        for lo, hi in zip(worst, worst[1:]):
            assert np.all(hi.per_tone <= lo.per_tone), hi.d_bits
            assert np.all(hi.band_per_bin <= lo.band_per_bin), hi.d_bits
            assert np.all(hi.band_joint <= lo.band_joint), hi.d_bits

    def test_domination_by_main_bound(self, small_ensemble, small_budget):
        snrs = small_budget.snr_matrix(small_ensemble)
        for d in (8, 12):
            rep = run_trials(small_ensemble, small_budget, _config(d, n=300))
            for k, snap in enumerate(small_ensemble.snapshots):
                for u in range(small_ensemble.p):
                    bound = bound_main_per_tone(small_ensemble.p, snap.r, d, snrs[u, k])
                    assert max(0.0, rep.per_tone[u, k]) <= bound


def _draw_e1(seed, tone, n, snr, n_samples):
    return streams.csi_error(streams.stream(seed, streams.MC_E1, tone), snr, n_samples, (n,))


def _reference_one_word_length(ensemble, budget, config, d):
    """The engine's original per-word-length path, kept as the oracle: draw the
    uniforms again, form Q @ (2^-d U) (minus E1 inv(Q + E1) with CSI error),
    then the full loss kernel; worst case per tone and across band trials."""
    p, n, seed = ensemble.p, config.n_trials, config.spec.seed
    e1_samples = config.spec.e1_samples
    psd = budget.psd_linear(p)
    per_tone = np.empty((p, ensemble.grid.count))
    joint = np.zeros((n, p))
    for k, snr in enumerate(budget.snr(ensemble)):
        q_mat = ensemble.Q[k]
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(10, k)))
        )
        base = rng.uniform(-1.0, 1.0, size=(2, n, p, p))
        delta = q_mat[None, :, :] @ (2.0 ** (-d) * (base[0] + 1j * base[1]))
        if e1_samples is not None:
            e1 = _draw_e1(seed, k, n, snr, e1_samples)
            delta = delta - e1 @ np.linalg.inv(q_mat[None, :, :] + e1)
        losses = loss_arrays(snr, budget.gap, psd, delta)["loss"]
        per_tone[:, k] = losses.max(axis=0)
        joint += losses
    spacing = ensemble.grid.spacing
    return per_tone, per_tone.sum(axis=1) * spacing, (joint * spacing).max(axis=0)


class TestOneDrawServesEveryWordLength:
    """Reports from one shared draw are bitwise equal to a fresh draw per d."""

    def _check(self, reports, ensemble, budget, config, d_values):
        assert [rep.d_bits for rep in reports] == list(d_values)
        for rep in reports:
            per_tone, per_bin, joint = _reference_one_word_length(
                ensemble, budget, config, rep.d_bits
            )
            assert np.array_equal(rep.per_tone, per_tone), rep.d_bits
            assert np.array_equal(rep.band_per_bin, per_bin), rep.d_bits
            assert np.array_equal(rep.band_joint, joint), rep.d_bits

    def test_quantization_only_d_1_to_32(self, small_ensemble, small_budget):
        cfg = _config(1, n=100)
        d_values = range(1, 33)
        reports = run_trials_sweep(small_ensemble, small_budget, cfg, d_values)
        self._check(reports, small_ensemble, small_budget, cfg, d_values)

    def test_with_csi_error(self, small_ensemble, small_budget):
        cfg = _config(1, n=100, e1_samples=1000)
        d_values = (6, 10, 14, 20)
        reports = run_trials_sweep(small_ensemble, small_budget, cfg, d_values)
        self._check(reports, small_ensemble, small_budget, cfg, d_values)

    @pytest.mark.parametrize("p", [1, 3, 5, 10])
    def test_every_block_of_word_lengths(self, p):
        # p sets how many word lengths share a kernel pass (1, 1, 2 and 4 here;
        # p = 1 keeps them outside U), and 7 word lengths leave a partial block
        rng = np.random.default_rng(p)
        ensemble = random_dominant_tone(rng, p, 0.3)
        budget = LinkBudget(-60.0, -140.0, 10.7, ensemble.grid)
        for e1_samples in (None, 1000):
            cfg = _config(1, n=50, seed=p, e1_samples=e1_samples)
            d_values = range(3, 10)
            reports = run_trials_sweep(ensemble, budget, cfg, d_values)
            self._check(reports, ensemble, budget, cfg, d_values)
            per_tone, _, _, _ = monte_carlo._sweep_tones(
                ensemble, budget, cfg, d_values, band_joint=False
            )
            assert np.array_equal(per_tone, [rep.per_tone for rep in reports])

    @pytest.mark.parametrize("e1_samples", [None, 1000], ids=["None", "csi1"])
    def test_two_threads_match_one(self, small_ensemble, small_budget, monkeypatch, e1_samples):
        cfg = _config(1, n=100, e1_samples=e1_samples)
        d_values = (8, 12, 16)
        one = run_trials_sweep(small_ensemble, small_budget, cfg, d_values)
        monkeypatch.setenv("XTALK_THREADS", "2")
        two = run_trials_sweep(small_ensemble, small_budget, cfg, d_values)
        for a, b in zip(one, two):
            for name in ("per_tone", "rate_per_tone", "band_per_bin", "band_joint", "band_rate"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (a.d_bits, name)


class TestWorstCaseBeforeTheLog:
    """min over trials of q, then one log1p per (user, d), is bitwise the max
    over trials of the per-trial losses that run_trials_sweep reduces (and
    TestOneDrawServesEveryWordLength pins to the loss_arrays oracle); this
    relies on log1p being monotone."""

    def _check(self, ensemble, budget, config):
        d_values = range(1, 33)
        per_tone, rate, joint, _ = monte_carlo._sweep_tones(
            ensemble, budget, config, d_values, band_joint=False
        )
        assert joint is None
        reports = run_trials_sweep(ensemble, budget, config, d_values)
        for stat, rep in zip(per_tone, reports):
            assert np.array_equal(stat, rep.per_tone), rep.d_bits
            assert np.array_equal(stat / rate, rep.eta_per_tone), rep.d_bits
        assert np.array_equal(rate, reports[0].rate_per_tone)

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_small_ensemble(self, small_ensemble, small_budget, monkeypatch, threads):
        if threads:
            monkeypatch.setenv("XTALK_THREADS", threads)
        self._check(small_ensemble, small_budget, _config(1, n=200))

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_reference_scenario(self, monkeypatch, threads):
        if threads:
            monkeypatch.setenv("XTALK_THREADS", threads)
        scen = Scenario()
        ensemble = scen.ensemble()
        self._check(ensemble, scen.budget(ensemble.grid), scen.trial_config(e2_model=E2_UNIFORM))

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=1e-3, max_value=0.9),
        st.floats(min_value=-100.0, max_value=-30.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_dominant_tones(self, seed, p, r_target, psd_dbm):
        ensemble = random_dominant_tone(np.random.default_rng(seed), p, r_target)
        budget = LinkBudget(psd_dbm, -140.0, 10.7, ensemble.grid)
        self._check(ensemble, budget, _config(1, n=60, seed=seed))

    @pytest.mark.parametrize("statistic, q", [("mean", None), ("quantile", 0.9)])
    def test_other_statistics_scan_the_sweep(self, small_ensemble, small_budget, statistic, q):
        # MEAN and QUANTILE keep the per-trial losses; the result is the first
        # d of run_trials_sweep's table that meets the target
        cfg = _config(8, n=100, statistic=statistic, q=q)
        reports = run_trials_sweep(small_ensemble, small_budget, cfg, range(1, 33))
        for target in (0.1, 0.02, 0.005, 1e-3):
            first = next(r.d_bits for r in reports if np.max(r.eta_per_tone) <= target)
            assert min_bits_empirical(small_ensemble, small_budget, cfg, target) == first


class TestWorkspaceMemory:
    """The engine's traced peak is one worker's workspace (U and Q U, complex
    (n, p, p)) plus O(n p len(d)): it does not grow with the tone count."""

    N, P, D_VALUES = 1000, 10, (8, 12, 16)

    def _peak_beyond_outputs(self, n_tones: int) -> int:
        grid = ToneGrid(1e6, 1e6 + (n_tones - 0.5) * 1e5, 1e5)
        ensemble = synthesize_channel(reference_params(self.P), grid, 5)
        ensemble.Q  # derived once per ensemble, outside the measurement
        budget = LinkBudget(-60.0, -140.0, 10.7, grid)
        tracemalloc.start()
        try:
            run_trials_sweep(ensemble, budget, _config(1, n=self.N, seed=3), self.D_VALUES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, p, n_d = self.N, self.P, len(self.D_VALUES)
        # per-tone statistic and rate, and the per-trial band accumulator
        outputs = 8 * (n_d * p * n_tones + p * n_tones + n_d * n * p)
        return peak - outputs

    def test_peak_is_one_workspace_at_any_tone_count(self):
        n, p, n_d = self.N, self.P, len(self.D_VALUES)
        few, many = self._peak_beyond_outputs(8), self._peak_beyond_outputs(64)
        # a leak of one (n, p) float array per tone would add 56 of them
        assert many <= few + n * p * 8
        assert many <= 2 * (n * p * p * 16) + 6 * (n * p * n_d * 8)


class TestCsiTrials:
    def test_vanishing_estimation_error_matches_quant_only(
        self, small_ensemble, small_budget
    ):
        quant = run_trials(small_ensemble, small_budget, _config(10, n=150))
        joint = run_trials(small_ensemble, small_budget, _config(10, n=150, e1_samples=10**16))
        assert np.allclose(joint.per_tone, quant.per_tone, rtol=1e-3, atol=1e-12)

    def test_estimation_error_adds_loss(self, small_ensemble, small_budget):
        quant = run_trials(small_ensemble, small_budget, _config(14, n=150))
        joint = run_trials(small_ensemble, small_budget, _config(14, n=150, e1_samples=100))
        assert joint.band_per_bin.max() > quant.band_per_bin.max()


class TestResampling:
    def test_resampler_has_its_own_stream(self, small_ensemble, small_budget):
        q_mat, snr = small_ensemble.Q[0], small_budget.snr(small_ensemble)[0]
        seed, n_samples = 42, 1000
        e1 = _draw_e1(seed, 0, 3, snr, n_samples)
        e1[1] = -q_mat  # Q + E1 = 0: trial 1 must be resampled
        failures = []
        _invert_with_resampling(q_mat, e1, snr, n_samples, seed, 0, failures)
        assert failures == [(0, 1, 0)]
        assert np.all(np.isfinite(e1[1])) and not np.array_equal(e1[1], -q_mat)
        # the resample must not replay the primary E1 draws of another seed
        other_seed = _draw_e1(seed ^ 0x5EED, 0, 1, snr, n_samples)[0]
        assert not np.array_equal(e1[1], other_seed)

    def test_forced_resample_is_thread_count_invariant(
        self, small_ensemble, small_budget, monkeypatch
    ):
        """A singular Q + E1, forced on one (tone, trial) found by the tone's
        SNR row rather than by call order, is resampled alike on any schedule."""
        tone, trial = 5, 7
        snrs = small_budget.snr(small_ensemble)
        assert sum(np.array_equal(row, snrs[tone]) for row in snrs) == 1
        q_mat, real_csi_error = small_ensemble.Q[tone], streams.csi_error

        def csi_error(rng, snr, n_samples, trials=()):
            e1 = real_csi_error(rng, snr, n_samples, trials)
            if trials and np.array_equal(snr, snrs[tone]):  # the tone's primary draw
                e1[trial] = -q_mat
            return e1

        monkeypatch.setattr(streams, "csi_error", csi_error)
        monkeypatch.delenv("XTALK_THREADS", raising=False)
        cfg, d_values = _config(1, n=20, e1_samples=1000), (8, 12, 16)
        one = run_trials_sweep(small_ensemble, small_budget, cfg, d_values)
        monkeypatch.setenv("XTALK_THREADS", "2")
        two = run_trials_sweep(small_ensemble, small_budget, cfg, d_values)
        for a, b in zip(one, two):
            assert a.trial_failures == b.trial_failures == [(tone, trial, 0)]
            for name in ("per_tone", "rate_per_tone", "band_per_bin", "band_joint", "band_rate"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (a.d_bits, name)

    def test_exhausted_resamples_name_the_tone(self, small_ensemble, small_budget, monkeypatch):
        q_mat, snr = small_ensemble.Q[3], small_budget.snr(small_ensemble)[3]
        e1 = _draw_e1(42, 3, 2, snr, 1000)
        e1[1] = -q_mat
        # every resample lands on the singular point again
        monkeypatch.setattr(streams, "csi_error", lambda rng, snr, n: -q_mat)
        failures = []
        with pytest.raises(SingularChannel, match="tone 3 trial 1") as err:
            _invert_with_resampling(q_mat, e1, snr, 1000, 42, 3, failures)
        assert err.value.tone == 3
        assert failures == [(3, 1, a) for a in range(RETRY_CAP + 1)]


class TestUnequalPsdDomination:
    def test_rho_bound_covers_psd_spread(self, small_ensemble):
        from xtalk_quant.rate_analysis import LinkBudget

        budget = LinkBudget(
            [-58.0, -60.0, -63.0, -66.0], -140.0, 10.7, small_ensemble.grid
        )
        rho = budget.psd_dynamic_range(small_ensemble.p)
        assert rho > 1.0
        snr = budget.snr_matrix(small_ensemble)
        d = 9
        rep = run_trials(small_ensemble, budget, _config(d, n=300))
        for k, snap in enumerate(small_ensemble.snapshots):
            for u in range(small_ensemble.p):
                bound = bound_main_per_tone(small_ensemble.p, snap.r, d, snr[u, k], rho=rho)
                assert max(0.0, rep.per_tone[u, k]) <= bound


class TestPerUserRate:
    def test_eta_per_tone_divides_by_each_users_rate(self, small_ensemble):
        budget = LinkBudget([-58.0, -60.0, -63.0, -66.0], -140.0, 10.7, small_ensemble.grid)
        rep = run_trials(small_ensemble, budget, _config(10, n=50))
        rate = np.log1p(budget.snr_matrix(small_ensemble) / budget.gap) / LN2
        assert np.array_equal(rep.rate_per_tone, rate)
        assert np.array_equal(rep.eta_per_tone, rep.per_tone / rate)
        assert np.array_equal(rep.band_rate, rate.sum(axis=1) * small_ensemble.grid.spacing)


class TestWernerDecayDomination:
    def test_closed_form_dominates_band_average(self, reference_ensemble, reference_budget):
        from xtalk_quant.analytic_bounds import WernerBoundParams, bound_werner_decay

        params = WernerBoundParams.from_amplitude_aggregate(
            0.0019, 0.1596, 3.1729e-8, 10, 1e8, reference_ensemble.grid.bandwidth,
            gap=reference_budget.gap,
        )
        cfg = TrialConfig(
            n_trials=1000,
            spec=PerturbationSpec(d_bits=14, e2_model=E2_UNIFORM, seed=3),
        )
        rep = run_trials(reference_ensemble, reference_budget, cfg)
        avg_worst = float(rep.band_per_bin.max()) / reference_ensemble.grid.bandwidth
        assert avg_worst <= bound_werner_decay(params, 14)


class TestMinBitsEmpirical:
    def test_trivial_target(self, small_ensemble, small_budget):
        assert min_bits_empirical(small_ensemble, small_budget, _config(8, n=50), 1.0) == 1

    def test_unreachable_target(self, small_ensemble, small_budget):
        with pytest.raises(TargetUnreachable):
            min_bits_empirical(
                small_ensemble, small_budget, _config(8, n=50), 1e-9, d_max=6
            )

    def test_result_is_minimal(self, small_ensemble, small_budget):
        cfg = _config(8, n=100)
        target = 0.02
        d = min_bits_empirical(small_ensemble, small_budget, cfg, target)

        def eta(dd):
            rep = run_trials(
                small_ensemble,
                small_budget,
                _config(dd, n=100),
            )
            return float(np.max(rep.eta_per_tone))

        assert eta(d) <= target
        if d > 1:
            assert eta(d - 1) > target

    def test_scan_agrees_with_bisection(self, small_ensemble, small_budget):
        cfg = _config(8, n=100)
        reports = run_trials_sweep(small_ensemble, small_budget, cfg, range(1, 33))
        worst = [float(np.max(rep.eta_per_tone)) for rep in reports]
        for target in (0.5, 0.1, 0.02, 0.005, 1e-3, 1e-4):
            assert min_bits_empirical(small_ensemble, small_budget, cfg, target) == (
                _bisect_table(worst, target)
            )

    def test_honours_estimation_error(self, small_ensemble, small_budget):
        # with 100 training samples this ensemble's worst eta floors near 0.667:
        # 0.668 is first met at d = 8 (at d = 7 without estimation error), and
        # 0.01 is never met (at d = 16 without)
        cfg = _config(8, n=100, e1_samples=100)
        reports = run_trials_sweep(small_ensemble, small_budget, cfg, range(1, 33))
        for target in (0.668, 0.01):
            first = next((r.d_bits for r in reports if np.max(r.eta_per_tone) <= target), None)
            try:
                found = min_bits_empirical(small_ensemble, small_budget, cfg, target)
            except TargetUnreachable:
                found = None
            assert found == first
            quant_only = min_bits_empirical(small_ensemble, small_budget, _config(8, n=100), target)
            assert found != quant_only

    def test_first_word_length_meeting_target(self, small_ensemble, small_budget, monkeypatch):
        # a table that is not monotone in d, where a bisection returns 6
        table = [0.5, 0.005, 0.5, 0.5, 0.5, 0.005, 0.005, 0.005]

        def sweep(ensemble, budget, config, d_values, band_joint):
            # per-tone statistic (d, users, tones) over a unit rate: eta is the table
            per_tone = np.array([[[table[d - 1]]] for d in d_values])
            return per_tone, np.ones((1, 1)), None, []

        monkeypatch.setattr(monte_carlo, "_sweep_tones", sweep)
        assert _bisect_table(table, 0.01) == 6
        assert min_bits_empirical(small_ensemble, small_budget, _config(8), 0.01, d_max=8) == 2


def _bisect_table(worst, target):
    """The bisection min_bits_empirical once ran over its table of worst
    relative losses, worst[d - 1] for d = 1..len(worst)."""
    lo, hi = 1, len(worst)
    if worst[lo - 1] <= target:
        return lo
    assert worst[hi - 1] <= target, "target unreachable"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if worst[mid - 1] <= target:
            hi = mid
        else:
            lo = mid
    return hi
