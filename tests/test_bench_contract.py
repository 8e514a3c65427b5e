"""The package names and calls the benchmark under ``bench/`` relies on.

``bench/spans.py`` patches the names in its ``PATCH_POINTS`` for ``--trace 1``,
and ``bench/workload.py`` and ``bench/checks.py`` call a few entry points
directly.  A cleanup that drops or renames one of them breaks the benchmark
without failing any other test; these fail instead.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

import xtalk_quant
from xtalk_quant import Scenario, cli, monte_carlo, precoding

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


PATCH_POINTS = _load_spans().PATCH_POINTS


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in PATCH_POINTS], ids=[f"{m}.{a}" for m, a, _ in PATCH_POINTS]
)
def test_patch_point_resolves(module, attr):
    owner = importlib.import_module(f"xtalk_quant.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_entry_points_on_a_small_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    Scenario(users=4, decimation=208, seed=5, n_trials=20).save(path)
    scen = Scenario.load(path)
    assert scen.grid().count * scen.users * scen.n_trials > 0
    ensemble = scen.ensemble()
    budget = scen.budget(ensemble.grid)
    config = scen.trial_config(d_bits=12, e2_model="uniform_random")
    report = xtalk_quant.run_trials(ensemble, budget, config)
    assert report.eta_per_tone.shape == (ensemble.p, ensemble.grid.count)
    assert report.trial_failures == []
    assert np.array_equal(ensemble.snapshots[0].H, ensemble.H[0])
    assert ensemble.grid.spacing > 0
    config = scen.trial_config(e2_model="uniform_random")
    assert 1 <= monte_carlo.min_bits_empirical(ensemble, budget, config, 0.01) <= 32


def test_min_bits_empirical_does_not_call_run_trials(monkeypatch):
    # bench/workload.py counts the loss evaluations of mc_sweep's search by
    # wrapping monte_carlo.run_trials, so a search that called through that
    # name would change what loss_evals_per_s measures
    def run_trials(*args, **kwargs):
        raise AssertionError("min_bits_empirical called monte_carlo.run_trials")

    monkeypatch.setattr(monte_carlo, "run_trials", run_trials)
    for kwargs in ({}, {"statistic": "mean"}, {"csi_samples": 10**6}):
        scen = Scenario(users=4, decimation=208, seed=5, n_trials=20, **kwargs)
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        config = scen.trial_config(e2_model="uniform_random")
        assert 1 <= monte_carlo.min_bits_empirical(ensemble, budget, config, 0.1) <= 32


def _traced_round(tmp_path, monkeypatch, capsys):
    """The benchmark's ``--trace 1`` path: its observers read positional
    arguments and results of patched names, so a signature change to one of
    them fails here rather than only in a traced benchmark run.  Its spans
    assume one thread, so a patched name called from an engine worker fails
    too."""
    monkeypatch.chdir(tmp_path)
    small = ["--users", "4", "--decimation", "208", "--seed", "5"]
    tracer = _load_spans().Tracer()
    off_main, wrap = [], tracer.wrap

    def wrap_on_main_thread(name, fn):
        traced = wrap(name, fn)

        def call(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return traced(*args, **kwargs)

        return call

    tracer.wrap = wrap_on_main_thread
    tracer.install("xtalk_quant")
    try:
        assert cli.run(["synth-channel", *small, "--out", "chan.json"]) == 0
        for argv in (
            ["analyze", "--channel-file", "chan.json", "--normalize", "--out", "analyze.tsv"],
            ["bound", "--out", "bound.tsv"],
            ["design-bits", "--target-tone", "0.1"],
            ["simulate", "--d-range", "8:10", "--n-trials", "20", "--out", "sim.tsv"],
        ):
            assert cli.run([*argv, *small]) == 0, capsys.readouterr().err
        scen = Scenario(users=4, decimation=208, seed=5, n_trials=20)
        ensemble = scen.ensemble()
        budget, config = scen.budget(ensemble.grid), scen.trial_config(d_bits=12)
        report = monte_carlo.run_trials(ensemble, budget, config)
        assert report.trial_failures == []
    finally:
        tracer.uninstall()
    assert cli.make_bundle is precoding.make_bundle  # every original is back
    assert off_main == []
    spans = {tracer.names[name_id] for name_id, *_ in tracer.spans}
    assert {"precoding.make_bundle", "precoding.build_delta"} <= spans
    for key in ("file_bytes", "report_rows", "trials"):
        assert tracer.counts.get(key, 0) > 0, key


def test_traced_round_on_a_small_scenario(tmp_path, monkeypatch, capsys):
    _traced_round(tmp_path, monkeypatch, capsys)


def test_traced_round_on_two_engine_threads(tmp_path, monkeypatch, capsys):
    # 20 trials make two slices, so the engine runs two workers
    monkeypatch.setenv("XTALK_THREADS", "2")
    assert len(monte_carlo._trial_slices(20, 2)) == 3
    _traced_round(tmp_path, monkeypatch, capsys)
