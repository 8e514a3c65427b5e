"""The correctness checks reject altered reports and accept real ones.

    python3 -m pytest -q bench/test_checks.py

For each workload this runs three rounds on seed 2, in a fresh child process
with the benchmark's thread settings, and then requires that

* every check of the workload accepts the real reports, and
* each check rejects the reports with one value altered.

It takes about a minute and a half on two cores.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import checks  # noqa: E402
import run  # noqa: E402
import workload as wl  # noqa: E402

SEED = 2


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def real(request, tmp_path_factory):
    """(workload, reports, context) of a real three-round run."""
    name = request.param
    workdir = str(tmp_path_factory.mktemp(name))
    env = dict(os.environ)
    run.pin_threads(env)
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "workload.py"), "run",
                    "--workload", name, "--seed", str(SEED), "--dir", workdir],
                   env=env, check=True, timeout=run.CHILD_TIMEOUT_S)
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        rounds = json.load(fh)["rounds"]
    reports = checks.read_reports(name, workdir)
    return name, reports, checks.load_context(name, workdir, rounds)


def alter_cell(text: str, table: int, column: str, row: int, fn) -> str:
    """The report with one cell of one table replaced by fn(its value); a
    blank cell reads as NaN."""
    lines = text.splitlines(keepends=True)
    header = [i for i, line in enumerate(lines) if line.startswith("# format_version=")][table]
    while lines[header].startswith("#"):
        header += 1
    columns = lines[header].rstrip("\n").split("\t")
    at = header + 1 + row
    cells = lines[at].rstrip("\n").split("\t")
    cell = cells[columns.index(column)]
    cells[columns.index(column)] = repr(fn(float(cell) if cell else math.nan))
    lines[at] = "\t".join(cells) + "\n"
    return "".join(lines)


def alter_printed(text: str, prefix: str, fn) -> str:
    """The printed output with the number after ``prefix`` replaced by fn(it)."""
    pattern = re.escape(prefix) + r"\s*([-+0-9.eE]+)"
    match = re.search(pattern, text)
    new = fn(float(match.group(1)))
    shown = str(int(new)) if float(new).is_integer() else repr(new)
    return text[:match.start(1)] + shown + text[match.end(1):]


def _report(report: str, fn):
    def mutate(reports, ctx):
        return dict(reports, **{report: fn(reports[report])}), ctx
    return mutate


# Per check: one altered value that it must reject.
MUTATIONS = {
    "mc_sweep": {
        "check_band_bound": _report("simulate", lambda t: alter_cell(
            t, 0, "stat_band_bps", 0, lambda v: 10.0 * v)),
        "check_eta_at_14": _report("simulate", lambda t: alter_cell(
            t, 0, "eta_band", 14 - 8, lambda v: 0.011)),
        "check_monotone_in_d": _report("simulate", lambda t: alter_cell(
            t, 0, "stat_tone_bps_hz", 12, lambda v: 10.0 * v)),
        "check_min_bits_bracket": _report("min_bits_empirical", lambda t: f"{int(t) + 1}\n"),
        "check_rerun_identical": _report("simulate", lambda t: alter_cell(
            t, 0, "eta_band", 3, lambda v: v * (1.0 + 2**-40))),
    },
    "design_study": {
        "check_analyze": _report("analyze", lambda t: alter_cell(
            t, 0, "loss_bps_hz", 1234, lambda v: v * (1.0 + 1e-3))),
        "check_inspect": _report("inspect_channel", lambda t: alter_printed(
            t, "alpha*ell =", lambda v: v * 1.01)),
        "check_bound_dominates": _report("bound", lambda t: alter_cell(
            t, 0, "main", 14 - 10, lambda v: v * 1e-3)),
        # 600 m has no bit count (its rate floor is not positive): give it one
        # below the 300 m count
        "check_sweep_monotone": _report("sweep", lambda t: alter_cell(
            t, 0, "d_min_bits", 1, lambda v: 1)),
        "check_design_bits_tone": _report("design_bits_tone", lambda t: alter_printed(
            t, "d_min =", lambda v: v + 1)),
        "check_rerun_identical": _report("analyze", lambda t: alter_cell(
            t, 1, "eta", 0, lambda v: v * (1.0 + 2**-40))),
    },
}


def test_every_check_has_a_mutation():
    for name, check_list in checks.CHECKS.items():
        assert sorted(c.__name__ for c in check_list) == sorted(MUTATIONS[name])


def test_real_reports_pass(real):
    name, reports, ctx = real
    assert checks.run_checks(name, reports, ctx) == []


def test_each_check_rejects_one_altered_value(real):
    name, reports, ctx = real
    for check in checks.CHECKS[name]:
        bad_reports, bad_ctx = MUTATIONS[name][check.__name__](reports, ctx)
        assert bad_reports != reports or bad_ctx is not ctx
        with pytest.raises(checks.CheckFailed):
            check(bad_reports, bad_ctx)
        check(reports, ctx)  # the unaltered input still passes


def test_alter_cell_changes_exactly_one_value():
    text = "# format_version=1\n# kind=x\na\tb\n1\t2.0\n3\t4.0\n"
    assert alter_cell(text, 0, "b", 1, lambda v: v + 1) == (
        "# format_version=1\n# kind=x\na\tb\n1\t2.0\n3\t5.0\n")
    assert np.isnan(checks.column(checks.parse_tables(alter_cell(
        text, 0, "a", 0, lambda v: float("nan")))[0], "a")[0])
