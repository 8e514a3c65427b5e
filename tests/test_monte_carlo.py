import json
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dominant_tone, reference_params

from xtalk_quant.analytic_bounds import bound_main_per_tone
from xtalk_quant.channel_model import ToneGrid, synthesize_channel
from xtalk_quant.errors import (
    InvalidParams,
    NumericalError,
    SingularChannel,
    TargetUnreachable,
)
from xtalk_quant import monte_carlo, streams
from xtalk_quant.monte_carlo import (
    CERT_MARGIN,
    RETRY_CAP,
    TrialConfig,
    _invert_with_resampling,
    min_bits_empirical,
    run_trials,
    run_trials_sweep,
)
from xtalk_quant.precoding import (
    COND_LIMIT,
    E2_DETERMINISTIC,
    E2_UNIFORM,
    MAX_BITS,
    PerturbationSpec,
)
from xtalk_quant.rate_analysis import LinkBudget, loss_arrays, worst_case_loss
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


def _is_tone(snr, row) -> bool:
    """Whether the kernel's ``snr`` argument (the tone's SNR, or one copy of
    it per trial) is that of the tone whose SNR is ``row``."""
    return np.array_equal(snr, np.broadcast_to(row, np.shape(snr)))


class TestTrialConfig:
    def test_non_uniform_e2_model_refused(self):
        # the engine draws only uniform errors, so a spec saying otherwise is refused
        with pytest.raises(InvalidParams, match="uniform_random"):
            TrialConfig(n_trials=10, spec=PerturbationSpec(d_bits=14))

    def test_scenario_trials_draw_uniform_errors(self):
        # the scenario's e2_model sets analyze's quantizer, not the trials
        spec = Scenario(e2_model=E2_DETERMINISTIC, csi_samples=1000).trial_config().spec
        assert (spec.e2_model, spec.e1_samples) == (E2_UNIFORM, 1000)

    @pytest.mark.parametrize("statistic", ["worst_case", "mean"])
    def test_quantile_q_without_the_quantile_statistic_refused(self, statistic):
        # no statistic but the quantile reads q, so a q given with another is refused
        with pytest.raises(InvalidParams, match="quantile_q"):
            _config(12, statistic=statistic, q=0.5)


def _past_the_ceiling():
    """Word lengths 60..65, then a failure if read any further."""
    yield from range(60, 66)
    raise AssertionError("a word length read past the first one over the ceiling")


class TestRunTrials:
    # PerturbationSpec refuses d_bits outside 1..MAX_BITS; the sweep's word
    # lengths must too, before a long range is listed (2**1024 overflows)
    @pytest.mark.parametrize(
        "d_values", [[0], [-3], [8, 0, 12], [65], [8, 1024], _past_the_ceiling()]
    )
    def test_word_length_outside_one_to_the_ceiling_refused(
        self, small_ensemble, small_budget, d_values
    ):
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
            # min_bits_empirical's path: no band_joint accumulator
            worst, rate, _, _ = monte_carlo._sweep_tones(
                ens, budget, _config(1, n=100, seed=7), range(1, 33), band_joint=False
            )
            out.update(worst=worst, worst_rate=rate)
            for label, cfg in [
                ("worst", _config(1, n=100, seed=7)),  # slices share band_joint's accumulator
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
    uniforms again (zero with ``zero_errors``), form Q @ (2^-d U) (minus
    E1 inv(Q + E1) with CSI error), then the full loss kernel; the configured
    statistic per tone and across band trials."""
    p, n, seed = ensemble.p, config.n_trials, config.spec.seed
    e1_samples = config.spec.e1_samples
    reduce = {
        "worst_case": lambda x: x.max(axis=0),
        "mean": lambda x: x.mean(axis=0),
        "quantile": lambda x: np.quantile(x, config.quantile_q, axis=0),
    }[config.statistic]
    psd = budget.psd_linear(p)
    per_tone = np.empty((p, ensemble.grid.count))
    joint = np.zeros((n, p))
    for k, (snr, q_mat) in enumerate(zip(budget.snr(ensemble), ensemble.row_normalized())):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(10, k)))
        )
        base = rng.uniform(-1.0, 1.0, size=(2, n, p, p))
        if config.zero_errors:
            base[...] = 0.0
        delta = q_mat[None, :, :] @ (2.0 ** (-d) * (base[0] + 1j * base[1]))
        if e1_samples is not None:
            e1 = _draw_e1(seed, k, n, snr, e1_samples)
            delta = delta - e1 @ np.linalg.inv(q_mat[None, :, :] + e1)
        losses = loss_arrays(snr, budget.gap, psd, delta)["loss"]
        per_tone[:, k] = reduce(losses)
        joint += losses
    spacing = ensemble.grid.spacing
    return per_tone, per_tone.sum(axis=1) * spacing, reduce(joint * spacing)


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

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_every_block_of_word_lengths(self, p):
        # p sets how many word lengths share a kernel pass without E1; the
        # ranges fill one pass exactly and spill into a second by one word
        # length, under each statistic, and with zero errors every loss ties at 0
        rng = np.random.default_rng(p)
        ensemble = random_dominant_tone(rng, p, 0.3)
        budget = LinkBudget(-60.0, -140.0, 10.7, ensemble.grid)
        fill = monte_carlo._Workspace(1, p, MAX_BITS, csi=False).block
        statistics = [{}, {"statistic": "mean"}, {"statistic": "quantile", "q": 0.9}]
        for e1_samples in (None, 1000):
            for kwargs in [*statistics, {"zero": True}]:
                cfg = _config(1, n=50, seed=p, e1_samples=e1_samples, **kwargs)
                for d_values in (range(3, 3 + fill), range(3, 4 + fill)):
                    reports = run_trials_sweep(ensemble, budget, cfg, d_values)
                    self._check(reports, ensemble, budget, cfg, d_values)
                    per_tone, _, _, _ = monte_carlo._sweep_tones(
                        ensemble, budget, cfg, d_values, band_joint=False
                    )
                    assert np.array_equal(per_tone, [rep.per_tone for rep in reports])
                    if kwargs.get("zero") and e1_samples is None:
                        assert not np.any([rep.per_tone for rep in reports])

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


class TestSearchPathMatchesTheSweep:
    """The band_joint=False path that min_bits_empirical takes gives, for
    d = 1..32, bitwise the per-tone worst case and rate of run_trials_sweep
    (which TestOneDrawServesEveryWordLength pins to the loss_arrays oracle)."""

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


class TestToneSubset:
    """A tone's stream is keyed by its index, so drawing a subset of the tones
    gives bitwise those tones' columns of the full sweep."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"statistic": "mean"}, {"e1_samples": 1000}],
        ids=["worst", "mean", "csi"],
    )
    def test_subset_draws_the_full_sweeps_bits(self, monkeypatch, threads, kwargs):
        monkeypatch.setenv("XTALK_THREADS", threads)
        scen = Scenario()
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        cfg = _config(1, n=100, **kwargs)
        d_values, idx = range(8, 14), np.array([0, 3, 57, 108])
        assert ensemble.grid.count == 109
        full = monte_carlo._sweep_tones(ensemble, budget, cfg, d_values, band_joint=False)
        part = monte_carlo._sweep_tones(
            ensemble, budget, cfg, d_values, band_joint=False, tones=idx
        )
        assert np.array_equal(part[0], full[0][:, :, idx])
        assert np.array_equal(part[1], full[1][:, idx])


class TestMoreThreadsThanTones:
    """``XTALK_THREADS`` above the tone count: the workers split each tone's
    trials, not the tones, so a worst-case sweep makes one workspace per trial
    slice, the slices' trials add up to ``n_trials``, and 1, 3 or 8 threads
    give the same bits.  The mean runs as one slice."""

    N = 60

    @pytest.mark.parametrize("n_tones", [1, 3])
    def test_eight_threads_match_one(self, monkeypatch, n_tones):
        grid = ToneGrid(1e6, 1e6 + (n_tones - 0.5) * 1e5, 1e5)
        ensemble = synthesize_channel(reference_params(p=4), grid, 8)
        budget = LinkBudget(-60.0, -140.0, 10.7, grid)
        made = []
        make_workspace = monte_carlo._Workspace

        def workspace(n, *args, **kwargs):
            made.append(n)
            return make_workspace(n, *args, **kwargs)

        monkeypatch.setattr(monte_carlo, "_Workspace", workspace)

        def check_workspaces(threads: int, one_slice: bool):
            slices = 1 if one_slice else min(threads, self.N // monte_carlo.MIN_SLICE)
            assert len(made) == slices
            assert sum(made) == self.N
            made.clear()

        def sweeps(threads: str) -> list:
            monkeypatch.setenv("XTALK_THREADS", threads)
            out = []
            for kwargs in ({}, {"e1_samples": 1000}, {"statistic": "mean"}):
                cfg = _config(1, n=self.N, **kwargs)
                for rep in run_trials_sweep(ensemble, budget, cfg, (6, 10, 14)):
                    out += [rep.per_tone, rep.rate_per_tone, rep.band_per_bin, rep.band_joint]
                check_workspaces(int(threads), one_slice="statistic" in kwargs)
            out += monte_carlo._sweep_tones(
                ensemble, budget, _config(1, n=self.N), range(1, 33), band_joint=False
            )[:2]
            check_workspaces(int(threads), one_slice=False)
            return out

        one = sweeps("1")
        for threads in ("3", "8"):
            other = sweeps(threads)
            assert len(one) == len(other)
            for a, b in zip(one, other):
                assert np.array_equal(a, b), threads

    def test_slices_start_on_multiples_of_four(self):
        for n in (1, 7, 8, 9, 17, 60, 100, 1000, 1001):
            for threads in (1, 2, 3, 8):
                bounds = monte_carlo._trial_slices(n, threads)
                assert bounds[0] == 0 and bounds[-1] == n
                assert all(t % 4 == 0 for t in bounds[:-1])
                assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
                assert len(bounds) - 1 == max(1, min(threads, n // monte_carlo.MIN_SLICE))

    def test_worker_error_propagates_after_every_thread_joins(
        self, small_ensemble, small_budget, monkeypatch
    ):
        # the second slice fails on tone 3; the caller sees that error, typed
        real_ratio = monte_carlo.interference_ratio

        def ratio(snr, cross, *args, **kwargs):
            if cross.shape[0] == 52 and _is_tone(snr, small_budget.snr(small_ensemble)[3]):
                raise NumericalError("tone 3 broke")
            return real_ratio(snr, cross, *args, **kwargs)

        monkeypatch.setattr(monte_carlo, "interference_ratio", ratio)
        monkeypatch.setenv("XTALK_THREADS", "2")
        assert monte_carlo._trial_slices(100, 2) == [0, 48, 100]
        before = threading.active_count()
        with pytest.raises(NumericalError, match="^tone 3 broke$"):
            run_trials_sweep(small_ensemble, small_budget, _config(1, n=100), (8, 12))
        assert threading.active_count() == before


class TestEngineThreads:
    """``XTALK_THREADS`` unset means the usable cores."""

    def test_unset_means_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("XTALK_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert monte_carlo._engine_threads() == 3

    def test_without_affinity_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("XTALK_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert monte_carlo._engine_threads() == 5

    def test_set_value_wins(self, monkeypatch):
        monkeypatch.setenv("XTALK_THREADS", "4")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert monte_carlo._engine_threads() == 4


class TestWorkspaceMemory:
    """The engine's traced peak is one workspace (U and Q U, complex (n, p, p),
    split among the workers by trial slice) plus O(n p len(d)): it does not
    grow with the tone count."""

    N, P, D_VALUES = 1000, 10, (8, 12, 16)

    def _peak_beyond_outputs(self, n_tones: int) -> int:
        grid = ToneGrid(1e6, 1e6 + (n_tones - 0.5) * 1e5, 1e5)
        ensemble = synthesize_channel(reference_params(self.P), grid, 5)
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

    def test_peak_is_one_workspace_at_any_tone_count(self, monkeypatch):
        # on one worker the peak is the same on every run, so a per-tone leak shows
        monkeypatch.setenv("XTALK_THREADS", "1")
        n, p, n_d = self.N, self.P, len(self.D_VALUES)
        few, many = self._peak_beyond_outputs(8), self._peak_beyond_outputs(64)
        # a leak of one (n, p) float array per tone would add 56 of them
        assert many <= few + n * p * 8
        assert many <= 2 * (n * p * p * 16) + 6 * (n * p * n_d * 8)

    def test_trial_slices_share_one_workspace(self, monkeypatch):
        # two workers hold half a workspace each; the 64 KB buffers numpy's
        # broadcasting ufuncs take may coincide across them, so the peak varies
        # by a buffer from run to run and only its ceiling is pinned here
        monkeypatch.setenv("XTALK_THREADS", "2")
        n, p, n_d = self.N, self.P, len(self.D_VALUES)
        assert len(monte_carlo._trial_slices(n, 2)) == 3
        assert self._peak_beyond_outputs(64) <= 2 * (n * p * p * 16) + 6 * (n * p * n_d * 8)


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
        q_mat, snr = small_ensemble.row_normalized()[0], small_budget.snr(small_ensemble)[0]
        seed, n_samples = 42, 1000
        e1 = _draw_e1(seed, 0, 3, snr, n_samples)
        e1[1] = -q_mat  # Q + E1 = 0: trial 1 must be resampled
        failures = []
        _invert_with_resampling(q_mat, e1, snr, n_samples, seed, 0, 0, failures)
        assert failures == [(0, 1, 0)]
        assert np.all(np.isfinite(e1[1])) and not np.array_equal(e1[1], -q_mat)
        # the resample must not replay the primary E1 draws of another seed
        other_seed = _draw_e1(seed ^ 0x5EED, 0, 1, snr, n_samples)[0]
        assert not np.array_equal(e1[1], other_seed)

    def test_forced_resample_is_thread_count_invariant(
        self, small_ensemble, small_budget, monkeypatch
    ):
        """A singular Q + E1, forced on one (tone, trial) found by the tone's
        SNR row rather than by call order, is resampled alike on any schedule:
        its fresh draw is keyed by (tone, trial), not by the slice."""
        tone, trial, n = 5, 13, 24
        for threads in (2, 3):  # the planted trial sits in the second slice
            bounds = monte_carlo._trial_slices(n, threads)
            assert len(bounds) == threads + 1 and bounds[1] <= trial < bounds[2]
        snrs = small_budget.snr(small_ensemble)
        assert sum(np.array_equal(row, snrs[tone]) for row in snrs) == 1
        q_mat, real_csi_error = small_ensemble.row_normalized()[tone], streams.csi_error

        resamples = []

        def csi_error(rng, snr, n_samples, trials=()):
            e1 = real_csi_error(rng, snr, n_samples, trials)
            if trials and np.array_equal(snr, snrs[tone]):  # the tone's primary draw
                e1[trial] = -q_mat
            elif not trials:
                resamples.append(e1)
            return e1

        monkeypatch.setattr(streams, "csi_error", csi_error)
        cfg, d_values = _config(1, n=n, e1_samples=1000), (8, 12, 16)
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("XTALK_THREADS", threads)
            runs.append(run_trials_sweep(small_ensemble, small_budget, cfg, d_values))
        # the resampled trial need not be the worst, so its fresh draw is compared too
        assert len(resamples) == 3
        assert all(np.array_equal(resamples[0], other) for other in resamples[1:])
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert a.trial_failures == b.trial_failures == [(tone, trial, 0)]
                for name in ("per_tone", "rate_per_tone", "band_per_bin", "band_joint", "band_rate"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (a.d_bits, name)

    def test_exhaustion_names_the_same_trial_at_any_thread_count(
        self, small_ensemble, small_budget, monkeypatch
    ):
        """Two trials stay singular after every resample; at any thread count
        the error names the one a single slice meets first, the lower tone,
        although with two slices the other one is in the first slice."""
        planted = {2: 55, 5: 3}  # tone: trial
        snrs, Q = small_budget.snr(small_ensemble), small_ensemble.row_normalized()
        real_csi_error = streams.csi_error

        def csi_error(rng, snr, n_samples, trials=()):
            k = next((k for k in planted if np.array_equal(snr, snrs[k])), None)
            if k is None:
                return real_csi_error(rng, snr, n_samples, trials)
            if not trials:  # a resample lands on the singular point again
                return -Q[k]
            e1 = real_csi_error(rng, snr, n_samples, trials)
            e1[planted[k]] = -Q[k]
            return e1

        monkeypatch.setattr(streams, "csi_error", csi_error)
        cfg = _config(1, n=100, e1_samples=1000)
        assert monte_carlo._trial_slices(100, 2) == [0, 48, 100]
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("XTALK_THREADS", threads)
            with pytest.raises(SingularChannel) as err:
                run_trials_sweep(small_ensemble, small_budget, cfg, (8, 12))
            assert str(err.value) == (
                f"tone 2 trial 55 singular or ill-conditioned after {RETRY_CAP} resamples"
            ), threads
            assert err.value.tone == 2

    def test_ill_conditioned_trial_is_resampled(self, small_ensemble, small_budget):
        # Q + E1 = diag(1, 1, 1, 1e-14) on trial 1 inverts without LinAlgError,
        # but its condition number is far above COND_LIMIT
        q_mat, snr = small_ensemble.row_normalized()[2], small_budget.snr(small_ensemble)[2]
        seed, n_samples = 42, 1000
        e1 = _draw_e1(seed, 2, 3, snr, n_samples)
        e1[1] = np.diag([1.0, 1.0, 1.0, 1e-14]) - q_mat
        assert 1e13 < np.linalg.cond(q_mat + e1[1]) < 1e15
        np.linalg.inv(q_mat + e1)
        failures = []
        m_inv = _invert_with_resampling(q_mat, e1, snr, n_samples, seed, 2, 0, failures)
        assert failures == [(2, 1, 0)]
        assert np.all(np.linalg.cond(q_mat + e1) <= COND_LIMIT)
        assert np.allclose(m_inv @ (q_mat + e1), np.eye(4))

    def test_ill_conditioned_trial_is_recorded_by_the_sweep(
        self, small_ensemble, small_budget, monkeypatch
    ):
        tone, trial = 5, 7
        snrs = small_budget.snr(small_ensemble)
        q_mat, real_csi_error = small_ensemble.row_normalized()[tone], streams.csi_error

        def csi_error(rng, snr, n_samples, trials=()):
            e1 = real_csi_error(rng, snr, n_samples, trials)
            if trials and np.array_equal(snr, snrs[tone]):  # the tone's primary draw
                e1[trial] = np.diag([1.0, 1.0, 1.0, 1e-14]) - q_mat
            return e1

        monkeypatch.setattr(streams, "csi_error", csi_error)
        cfg = _config(1, n=20, e1_samples=1000)
        rep = run_trials_sweep(small_ensemble, small_budget, cfg, [12])
        assert rep[0].trial_failures == [(tone, trial, 0)]
        assert np.all(np.isfinite(rep[0].per_tone))

    def test_trial_failures_are_python_ints(self, monkeypatch):
        # a forced resample on the reference scenario: the report's failures
        # serialize as JSON, each a tuple of Python ints
        scen = Scenario()
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        tone, trial = 3, 5
        snrs = budget.snr(ensemble)
        q_mat, real_csi_error = ensemble.row_normalized()[tone], streams.csi_error

        def csi_error(rng, snr, n_samples, trials=()):
            e1 = real_csi_error(rng, snr, n_samples, trials)
            if trials and np.array_equal(snr, snrs[tone]):  # the tone's primary draw
                e1[trial] = -q_mat
            return e1

        monkeypatch.setattr(streams, "csi_error", csi_error)
        report = run_trials_sweep(ensemble, budget, _config(1, n=20, e1_samples=1000), [12])[0]
        assert report.trial_failures == [(tone, trial, 0)]
        assert json.loads(json.dumps(report.trial_failures)) == [[tone, trial, 0]]
        for entry in report.trial_failures:
            assert type(entry) is tuple and all(type(v) is int for v in entry)

    def test_exhausted_resamples_name_the_tone(self, small_ensemble, small_budget, monkeypatch):
        q_mat, snr = small_ensemble.row_normalized()[3], small_budget.snr(small_ensemble)[3]
        e1 = _draw_e1(42, 3, 2, snr, 1000)
        e1[1] = -q_mat
        # every resample lands on the singular point again
        monkeypatch.setattr(streams, "csi_error", lambda rng, snr, n: -q_mat)
        failures = []
        with pytest.raises(SingularChannel, match="tone 3 trial 1") as err:
            _invert_with_resampling(q_mat, e1, snr, 1000, 42, 3, 0, failures)
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

    @pytest.mark.parametrize("d_max", [0, 65, 1024])
    def test_d_max_outside_one_to_the_ceiling_refused(self, small_ensemble, small_budget, d_max):
        with pytest.raises(InvalidParams, match="d_max"):
            min_bits_empirical(small_ensemble, small_budget, _config(8, n=5), 0.01, d_max=d_max)

    def test_unreachable_target(self, small_ensemble, small_budget):
        with pytest.raises(TargetUnreachable):
            min_bits_empirical(
                small_ensemble, small_budget, _config(8, n=50), 1e-9, d_max=6
            )

    @pytest.mark.parametrize(
        "statistic, q, name",
        [
            ("worst_case", None, "worst-case"),
            ("mean", None, "mean"),
            ("quantile", 0.9, "0.9-quantile"),
        ],
    )
    def test_unreachable_target_names_the_statistic(
        self, small_ensemble, small_budget, statistic, q, name
    ):
        cfg = _config(8, n=50, statistic=statistic, q=q)
        message = re.escape(f"{name} relative loss still above 1e-09 at d=6")
        with pytest.raises(TargetUnreachable, match=f"^{message}$"):
            min_bits_empirical(small_ensemble, small_budget, cfg, 1e-9, d_max=6)

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

        def sweep(ensemble, budget, config, d_values, band_joint, tones=None):
            # per-tone statistic (d, users, tones) over a unit rate: eta is the
            # table on every tone; no tone of this ensemble is certified for
            # 0.01 below d = 8
            per_tone = np.array([[[table[d - 1]]] for d in d_values])
            return per_tone, np.ones((1, 1)), None, []

        monkeypatch.setattr(monte_carlo, "_sweep_tones", sweep)
        assert _bisect_table(table, 0.01) == 6
        assert min_bits_empirical(small_ensemble, small_budget, _config(8), 0.01, d_max=8) == 2


class TestScanStopsEarly:
    """min_bits_empirical walks the tones in order, draws each once at the
    word lengths still in the running and drops those that miss the target;
    the answer is still the first passing d of the full table."""

    @pytest.mark.parametrize("threads", ["1", "2", "3", "8"])
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"statistic": "mean"}, {"statistic": "quantile", "q": 0.9}, {"e1_samples": 1000}],
        ids=["worst", "mean", "quantile", "csi"],
    )
    def test_first_passing_d_of_the_full_table(
        self, small_ensemble, small_budget, monkeypatch, threads, kwargs
    ):
        # the trial slices of each tone combine by an exact max; switching
        # often makes a slice that leaks into another's buffers show
        monkeypatch.setenv("XTALK_THREADS", threads)
        cfg = _config(8, n=100, seed=5, **kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for d_max in (32, 12):
                reports = run_trials_sweep(
                    small_ensemble, small_budget, cfg, range(1, d_max + 1)
                )
                for target in (1.0, 0.3, 0.02, 1e-3, 1e-6):
                    first = next(
                        (r.d_bits for r in reports if np.max(r.eta_per_tone) <= target), None
                    )
                    try:
                        found = min_bits_empirical(
                            small_ensemble, small_budget, cfg, target, d_max
                        )
                    except TargetUnreachable:
                        found = None
                    assert found == first, (d_max, target)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_kernel_passes_on_the_reference_scenario(self, monkeypatch, threads):
        # every tone is certified for 1 % at d = 17, and tone 0 (Q = I, 80 dB
        # SNR) misses it at d = 1..16 on every trial slice, so the search
        # draws tone 0 alone, once, in two kernel passes: 12 word lengths fit
        # in the workspace of 10 users, and 4 are left
        monkeypatch.setenv("XTALK_THREADS", threads)
        scen = Scenario()
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        cfg = scen.trial_config(e2_model=E2_UNIFORM)
        snr0 = budget.snr(ensemble)[0]
        calls = []
        real_ratio = monte_carlo.interference_ratio

        def ratio(snr, cross, re, im, scale=1.0, out=None):
            calls.append((_is_tone(snr, snr0), int(-np.log2(np.max(scale))), cross.shape[0]))
            return real_ratio(snr, cross, re, im, scale, out)

        monkeypatch.setattr(monte_carlo, "interference_ratio", ratio)
        assert min_bits_empirical(ensemble, budget, cfg, 0.01) == 17
        bounds = monte_carlo._trial_slices(cfg.n_trials, int(threads))
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        # one kernel call per slice and pass, on tone 0 only
        assert sorted(calls) == sorted((True, d, n) for d in (1, 13) for n in sizes)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_reference_scenario_matches_the_full_table(self, monkeypatch, threads):
        monkeypatch.setenv("XTALK_THREADS", threads)
        scen = Scenario()
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        cfg = scen.trial_config(e2_model=E2_UNIFORM)
        reports = run_trials_sweep(ensemble, budget, cfg, range(1, 21))
        for target in (0.05, 0.01, 0.002):
            first = next(r.d_bits for r in reports if np.max(r.eta_per_tone) <= target)
            assert min_bits_empirical(ensemble, budget, cfg, target, d_max=20) == first, target

    def test_one_engine_call_per_drawn_tone(self, small_ensemble, small_budget, monkeypatch):
        calls = []
        real_sweep = monte_carlo._sweep_tones

        def sweep(ensemble, budget, config, d_values, band_joint, tones=None):
            calls.append((list(tones), list(d_values)))
            return real_sweep(ensemble, budget, config, d_values, band_joint, tones)

        monkeypatch.setattr(monte_carlo, "_sweep_tones", sweep)
        scen = Scenario()
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        cfg = scen.trial_config(e2_model=E2_UNIFORM)
        assert min_bits_empirical(ensemble, budget, cfg, 0.01) == 17
        assert calls == [([0], list(range(1, 17)))]
        # CSI trials certify no tone: the walk draws tones in order, each once
        calls.clear()
        cfg = _config(8, n=20, e1_samples=1000)
        assert min_bits_empirical(small_ensemble, small_budget, cfg, 0.3) == 11
        drawn = [tone for tones, _ in calls for tone in tones]
        assert len(drawn) > 1 and all(a < b for a, b in zip(drawn, drawn[1:]))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_error_past_the_stop_is_not_raised_at_any_thread_count(
        self, small_ensemble, small_budget, monkeypatch, threads
    ):
        # the first slice misses every d on tone 2 (NaN), but only after a
        # pause; the last slice breaks on tone 6.  CSI trials certify no
        # tone, so the search draws tones 0, 1 and 2, leaves no word length
        # in the running there and never draws tone 6: no thread count raises
        n = 100
        bounds = monte_carlo._trial_slices(n, threads)
        first, last = bounds[1] - bounds[0], bounds[-1] - bounds[-2]
        snrs = small_budget.snr(small_ensemble)
        real_ratio = monte_carlo.interference_ratio
        drawn = set()

        def ratio(snr, cross, re, im, scale=1.0, out=None):
            a, q = real_ratio(snr, cross, re, im, scale, out)
            drawn.update(k for k, row in enumerate(snrs) if _is_tone(snr, row))
            if cross.shape[0] == first and _is_tone(snr, snrs[2]):
                time.sleep(0.2)
                q[...] = np.nan
            if cross.shape[0] == last and _is_tone(snr, snrs[6]):
                raise NumericalError("tone 6 broke")
            return a, q

        monkeypatch.setattr(monte_carlo, "interference_ratio", ratio)
        monkeypatch.setenv("XTALK_THREADS", str(threads))
        cfg = _config(8, n=n, e1_samples=1000)
        with pytest.raises(TargetUnreachable):
            min_bits_empirical(small_ensemble, small_budget, cfg, 0.3)
        assert drawn == {0, 1, 2}
        with pytest.raises(NumericalError, match="^tone 6 broke$"):
            run_trials_sweep(small_ensemble, small_budget, cfg, (12, 13))

    def test_error_after_every_window_stopped_is_not_raised(
        self, small_ensemble, small_budget, monkeypatch
    ):
        # CSI trial 7 of tone 5 is singular after every resample; with 100
        # training samples every d misses 1e-6 on tone 0 already, so the
        # search never draws tone 5
        tone, trial = 5, 7
        snrs = small_budget.snr(small_ensemble)
        q_mat, real_csi_error = small_ensemble.row_normalized()[tone], streams.csi_error

        def csi_error(rng, snr, n_samples, trials=()):
            if not np.array_equal(snr, snrs[tone]):
                return real_csi_error(rng, snr, n_samples, trials)
            if not trials:  # a resample lands on the singular point again
                return -q_mat
            e1 = real_csi_error(rng, snr, n_samples, trials)
            e1[trial] = -q_mat
            return e1

        monkeypatch.setattr(streams, "csi_error", csi_error)
        cfg = _config(8, n=20, e1_samples=100)
        with pytest.raises(SingularChannel) as err:
            run_trials_sweep(small_ensemble, small_budget, cfg, range(1, 9))
        assert err.value.tone == tone
        with pytest.raises(TargetUnreachable):
            min_bits_empirical(small_ensemble, small_budget, cfg, 1e-6, d_max=8)

    @staticmethod
    def _break_kernel(monkeypatch, ensemble, budget, tone, broken):
        """The kernel raises on ``tone`` at the word lengths in ``broken``."""
        snr_k = budget.snr(ensemble)[tone]
        real_ratio = monte_carlo.interference_ratio

        def ratio(snr, cross, re, im, scale=1.0, out=None):
            if _is_tone(snr, snr_k) and np.any(np.isin(scale, broken)):
                raise NumericalError(f"tone {tone} overflowed")
            return real_ratio(snr, cross, re, im, scale, out)

        monkeypatch.setattr(monte_carlo, "interference_ratio", ratio)

    @staticmethod
    def _certified(ensemble, budget, d, target):
        """Per tone: does the supremum at word length d meet ``target``?"""
        rate = np.log1p(budget.snr(ensemble) / budget.gap).T / LN2
        eta = worst_case_loss(budget, ensemble, 2.0**-d) / rate
        return np.all(eta <= target - CERT_MARGIN, axis=0)

    def test_error_at_a_failed_word_length_is_not_raised(
        self, small_ensemble, small_budget, monkeypatch
    ):
        # a break on tone 5 at d = 1, which misses the target on tone 0
        # already, is not raised; a break on tone 0 at the answer, which the
        # search draws there (its supremum misses the target), is
        cfg = _config(8, n=100)
        answer = min_bits_empirical(small_ensemble, small_budget, cfg, 0.02)
        assert answer > 2
        assert not self._certified(small_ensemble, small_budget, answer, 0.02)[0]
        broken = [2.0**-1]
        self._break_kernel(monkeypatch, small_ensemble, small_budget, 5, broken)
        with pytest.raises(NumericalError):
            run_trials_sweep(small_ensemble, small_budget, cfg, range(1, 33))
        assert min_bits_empirical(small_ensemble, small_budget, cfg, 0.02) == answer
        self._break_kernel(monkeypatch, small_ensemble, small_budget, 0, [2.0**-answer])
        with pytest.raises(NumericalError):
            min_bits_empirical(small_ensemble, small_budget, cfg, 0.02)

    def test_error_at_a_certified_tone_is_not_raised(
        self, small_ensemble, small_budget, monkeypatch
    ):
        # tone 5's supremum meets the target at the answer, so the search
        # does not draw it there and a break there is not raised
        cfg = _config(8, n=100)
        answer = min_bits_empirical(small_ensemble, small_budget, cfg, 0.02)
        assert self._certified(small_ensemble, small_budget, answer, 0.02)[5]
        self._break_kernel(monkeypatch, small_ensemble, small_budget, 5, [2.0**-answer])
        with pytest.raises(NumericalError):
            run_trials_sweep(small_ensemble, small_budget, cfg, range(1, 33))
        assert min_bits_empirical(small_ensemble, small_budget, cfg, 0.02) == answer


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
