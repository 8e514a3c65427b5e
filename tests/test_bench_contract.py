"""The package names and calls the benchmark under ``bench/`` relies on.

``bench/spans.py`` patches the names in its ``PATCH_POINTS`` for ``--trace 1``,
and ``bench/workload.py`` and ``bench/checks.py`` call a few entry points
directly.  A cleanup that drops or renames one of them breaks the benchmark
without failing any other test; these fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import xtalk_quant
from xtalk_quant import Scenario, monte_carlo

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _patch_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCH_POINTS


PATCH_POINTS = _patch_points()


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
