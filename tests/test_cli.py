import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xtalk_quant import __version__, cli
from xtalk_quant.analytic_bounds import bound_main_per_tone
from xtalk_quant.cli import run
from xtalk_quant.errors import BitDepthTooSmall, XtalkError
from xtalk_quant.scenario import Scenario


def _read_table(path):
    """Parse a report: meta dict plus column-name -> list of strings."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
            continue
        if header is None:
            header = line.split("\t")
            continue
        rows.append(line.split("\t"))
    cols = {name: [r[i] for r in rows if len(r) == len(header)] for i, name in enumerate(header)}
    return meta, cols


@pytest.fixture()
def fast_args(tmp_path):
    """Overrides that keep CLI runs small: 4 users, ~33 tones."""
    return ["--users", "4", "--decimation", "208", "--seed", "5"]


class TestSynthAndInspect:
    def test_synth_writes_deterministic_file(self, tmp_path, fast_args, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(["synth-channel", "--out", str(out1), *fast_args]) == 0
        assert run(["synth-channel", "--out", str(out2), *fast_args]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = capsys.readouterr().out
        assert "gamma1=" in text and "gamma2=" in text

    def test_inspect(self, tmp_path, fast_args, capsys):
        out = tmp_path / "a.json"
        run(["synth-channel", "--out", str(out), *fast_args])
        assert run(["inspect-channel", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "alpha*ell" in text

    def test_bad_channel_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["inspect-channel", "--in", str(bad)]) == 2

    def test_length_and_band_overrides(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = run(
            [
                "synth-channel",
                "--users",
                "4",
                "--decimation",
                "208",
                "--seed",
                "5",
                "--length",
                "600",
                "--band",
                "15e6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "gamma2=" in text
        from xtalk_quant.channel_model import fit_alpha, load_channel

        ens = load_channel(out)
        assert ens.grid.f_end <= 15e6 + ens.grid.spacing
        # doubled length doubles the fitted aggregate
        assert fit_alpha(ens) == pytest.approx(0.0038, rel=1e-10)


class TestAnalyze:
    def test_zero_loss_at_exactly_representable_precoder(self, tmp_path, capsys):
        # an identity channel has precoder I: rounding is exact, losses are 0
        chan = {
            "format_version": 1,
            "kind": "xtalk-quant-channel",
            "p": 2,
            "tone_count": 2,
            "f_start": 1e6,
            "spacing": 4312.5,
            "tones": [
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9, 0.0]],
            ],
        }
        cpath = tmp_path / "chan.json"
        cpath.write_text(json.dumps(chan))
        out = tmp_path / "report.tsv"
        assert run(["analyze", "--channel-file", str(cpath), "--out", str(out)]) == 0
        meta, cols = _read_table(out)
        assert meta["format_version"] == "1"
        assert "scenario_hash" in meta
        losses = [float(x) for x in cols["loss_bps_hz"]]
        assert all(l == 0.0 for l in losses)

    def test_reference_scenario_band_loss_under_one_percent(self, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        code = run(
            [
                "analyze",
                "--decimation",
                "208",
                "--seed",
                "5",
                "--d-bits",
                "14",
                "--normalize",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        worst = float(err.rsplit("=", 1)[1])
        assert worst < 0.01

    def test_determinism(self, tmp_path, fast_args):
        out1, out2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        run(["analyze", "--normalize", "--out", str(out1), *fast_args])
        run(["analyze", "--normalize", "--out", str(out2), *fast_args])
        assert out1.read_bytes() == out2.read_bytes()


class TestReportBlocks:
    """``_write_report`` renders each table ``REPORT_ROW_BLOCK`` rows at a
    time, through ``cli.render_table``, the header with the first block."""

    BLOCK = cli.REPORT_ROW_BLOCK

    @pytest.mark.parametrize("count", [0, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_join_to_one_table(self, tmp_path, monkeypatch, count):
        calls, render = [], cli.render_table

        def counted(*args, **kwargs):
            calls.append((len(args[3]), kwargs.get("header", True)))
            return render(*args, **kwargs)

        monkeypatch.setattr(cli, "render_table", counted)
        rows = [(k, 0.1 * k, np.float64(k) / 3, "x") for k in range(count)]
        out = tmp_path / "t.tsv"
        scen = Scenario()
        tables = [("kind-a", ["i", "f", "g", "s"], iter(rows)), ("kind-b", ["n"], [(7,)])]
        cli._write_report(mock.Mock(out=str(out)), scen, tables, d_bits=3)

        meta = {"d_bits": 3, "scenario_hash": cli.scenario_hash(scen.to_dict())}

        def one_join(kind, columns, rows):
            lines = [
                "# format_version=1", f"# kind={kind}", f"# tool=xtalk-quant {__version__}",
                *(f"# {key}={meta[key]}" for key in sorted(meta)),
                "\t".join(columns),
                *("\t".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                  for row in rows),
            ]
            return "\n".join(lines) + "\n"

        want = one_join("kind-a", ["i", "f", "g", "s"], rows) + one_join("kind-b", ["n"], [(7,)])
        assert out.read_text() == want
        sizes = [min(self.BLOCK, count - k) for k in range(0, count, self.BLOCK)] or [0]
        assert calls == [(n, k == 0) for k, n in enumerate(sizes)] + [(1, True)]


class TestBound:
    def test_all_columns_monotone(self, tmp_path, fast_args):
        out = tmp_path / "bounds.tsv"
        assert (
            run(
                [
                    "bound",
                    "--which",
                    "all",
                    "--d-min",
                    "10",
                    "--d-max",
                    "18",
                    "--out",
                    str(out),
                    *fast_args,
                ]
            )
            == 0
        )
        _, cols = _read_table(out)
        for name, vals in cols.items():
            if name == "d_bits":
                continue
            nums = [float(v) for v in vals if v != ""]
            assert all(a > b for a, b in zip(nums, nums[1:])), name

    def test_below_floor_exit_4(self, capsys):
        # 10 users push r_max past 1, so the floor 1/2 + log2(1+r) exceeds d=1
        args = ["--users", "10", "--decimation", "208", "--seed", "5"]
        assert (
            run(["bound", "--which", "main", "--d-min", "1", "--d-max", "2", *args])
            == 4
        )
        assert "minimum admissible" in capsys.readouterr().err

    def test_relative_curve_crosses_target(self, tmp_path, capsys):
        out = tmp_path / "rel.tsv"
        code = run(
            [
                "bound",
                "--which",
                "relative",
                "--d-min",
                "10",
                "--d-max",
                "20",
                "--decimation",
                "64",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, cols = _read_table(out)
        vals = [float(v) for v in cols["relative"]]
        assert vals[0] > 0.01 > vals[-1]
        crossings = sum(1 for a, b in zip(vals, vals[1:]) if a > 0.01 >= b)
        assert crossings == 1


class TestDesignBits:
    def test_relative_target(self, capsys):
        code = run(
            [
                "design-bits",
                "--target-relative",
                "0.01",
                "--decimation",
                "64",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "d_min =" in text
        assert "bound at d_min" in text

    def test_tone_target_floor_note(self, capsys):
        args = ["--users", "10", "--decimation", "208", "--seed", "5"]
        code = run(["design-bits", "--target-tone", "100.0", *args])
        assert code == 0
        assert "floor" in capsys.readouterr().out

    def test_tone_target_meets_rho_aware_bound_on_every_tone(self, tmp_path, capsys):
        # half the users 10 dB below the others: rho = 10 scales every per-tone gamma
        scen = Scenario(users=10, decimation=208, psd_dbm_hz=[-60.0] * 5 + [-70.0] * 5)
        path = tmp_path / "spread.json"
        scen.save(path)
        assert run(["design-bits", "--config", str(path), "--target-tone", "0.01"]) == 0
        d_min = int(capsys.readouterr().out.split()[2])
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        snr = budget.snr_matrix(ensemble).max(axis=0)
        rho = budget.psd_dynamic_range(ensemble.p)
        assert rho == pytest.approx(10.0)

        def worst_tone(d):
            return max(
                bound_main_per_tone(ensemble.p, float(r), d, float(s), rho)
                for r, s in zip(ensemble.r, snr)
            )

        assert worst_tone(d_min) <= 0.01 < worst_tone(d_min - 1)

    def test_requires_exactly_one_target(self, fast_args):
        assert run(["design-bits", *fast_args]) == 2

    @pytest.mark.parametrize("freq", ["1e12", "-5e6", "nan"])
    def test_freq_outside_grid_exit_2(self, capsys, fast_args, freq):
        # the small grid's tones run from 0 to 29.601 MHz, 897 kHz apart
        assert run(["design-bits", "--target-tone", "0.1", f"--freq={freq}", *fast_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "outside the tone grid" in err

    def test_freq_with_relative_target_exit_2(self, capsys, fast_args):
        # --freq picks a tone; the relative target designs for the whole band
        assert run(["design-bits", "--target-relative", "0.01", "--freq", "5e6", *fast_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--freq" in err

    @pytest.mark.parametrize("freq, edge", [("-4e5", "0"), ("3e7", "29.601e6")])
    def test_freq_within_half_spacing_of_grid_edge(self, capsys, fast_args, freq, edge):
        assert run(["design-bits", "--target-tone", "0.1", f"--freq={edge}", *fast_args]) == 0
        at_edge = capsys.readouterr().out
        assert run(["design-bits", "--target-tone", "0.1", f"--freq={freq}", *fast_args]) == 0
        assert capsys.readouterr().out == at_edge


class TestSimulate:
    def test_zero_errors(self, tmp_path, fast_args):
        out = tmp_path / "sim.tsv"
        code = run(
            ["simulate", "--n-trials", "3", "--zero-errors", "--out", str(out), *fast_args]
        )
        assert code == 0
        _, cols = _read_table(out)
        assert float(cols["stat_tone_bps_hz"][0]) == 0.0
        assert float(cols["eta_band"][0]) == 0.0

    def test_d_range_curve_and_determinism(self, tmp_path, fast_args):
        out1, out2 = tmp_path / "s1.tsv", tmp_path / "s2.tsv"
        args = [
            "simulate",
            "--n-trials",
            "50",
            "--d-range",
            "8:12",
            *fast_args,
        ]
        assert run([*args, "--out", str(out1)]) == 0
        assert run([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, cols = _read_table(out1)
        worst = [float(v) for v in cols["stat_tone_bps_hz"]]
        assert all(a >= b for a, b in zip(worst, worst[1:]))

    def test_csi_run(self, tmp_path, fast_args):
        out = tmp_path / "csi.tsv"
        code = run(
            [
                "simulate",
                "--n-trials",
                "20",
                "--csi-samples",
                "1000",
                "--out",
                str(out),
                *fast_args,
            ]
        )
        assert code == 0
        meta, cols = _read_table(out)
        assert meta["csi_samples"] == "1000"

    def test_scenario_csi_samples_matches_flag(self, tmp_path):
        scen = Scenario(users=4, decimation=208, seed=5, n_trials=20)
        plain, with_csi = tmp_path / "plain.json", tmp_path / "csi.json"
        scen.save(plain)
        scen.csi_samples = 1000
        scen.save(with_csi)
        by_flag, by_scenario = tmp_path / "flag.tsv", tmp_path / "scen.tsv"
        argv = ["simulate", "--d-range", "10:12"]
        assert run([*argv, "--config", str(plain), "--csi-samples", "1000", "--out", str(by_flag)]) == 0
        assert run([*argv, "--config", str(with_csi), "--out", str(by_scenario)]) == 0
        assert by_scenario.read_bytes() == by_flag.read_bytes()
        meta, _ = _read_table(by_scenario)
        assert meta["csi_samples"] == "1000"

    def test_skip_failures_tolerates_a_forced_resample(self, tmp_path, fast_args, monkeypatch):
        """A singular Q + E1 in one trial is resampled; without --skip-failures
        that is an error (exit 3), with it the report is written."""
        real_inv = np.linalg.inv
        calls = {"single": 0}

        def inv(m):
            if m.ndim > 2:  # the batched inverse: make the engine invert trial by trial
                raise np.linalg.LinAlgError("forced")
            calls["single"] += 1
            if calls["single"] == 1:  # the first trial of the first tone is "singular"
                raise np.linalg.LinAlgError("forced")
            return real_inv(m)

        monkeypatch.setattr(np.linalg, "inv", inv)
        argv = ["simulate", "--n-trials", "3", "--csi-samples", "1000", *fast_args]
        strict, tolerant = tmp_path / "strict.tsv", tmp_path / "tolerant.tsv"
        assert run([*argv, "--out", str(strict)]) == 3
        assert not strict.exists()
        calls["single"] = 0
        assert run([*argv, "--skip-failures", "--out", str(tolerant)]) == 0
        meta, cols = _read_table(tolerant)
        assert meta["csi_samples"] == "1000"
        assert len(cols["d_bits"]) == 1

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_zero_csi_samples_exit_2(self, tmp_path, capsys, command):
        # both commands read csi_samples as PerturbationSpec.e1_samples, which refuses 0
        scen = tmp_path / "scen.json"
        Scenario(users=4, decimation=208, seed=5, n_trials=3, csi_samples=0).save(scen)
        assert run([command, "--config", str(scen), "--out", str(tmp_path / "r.tsv")]) == 2
        assert "e1_samples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_quantile_q_with_the_worst_case_statistic_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        Scenario(users=4, decimation=208, seed=5, n_trials=20, quantile_q=0.5).save(scen)
        out = tmp_path / "r.tsv"
        argv = ["simulate", "--config", str(scen), "--d-range", "10:10", "--out", str(out)]
        assert run(argv) == 2
        assert "quantile_q" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_invalid_thread_count_exit_2(self, monkeypatch, capsys, fast_args, value):
        monkeypatch.setenv("XTALK_THREADS", value)
        assert run(["simulate", "--n-trials", "3", *fast_args]) == 2
        assert "XTALK_THREADS" in capsys.readouterr().err


GOLDEN_DIR = Path(__file__).parent / "golden"


class TestSimulateGolden:
    """``simulate --d-range 8:20`` report bytes, pinned on the small scenario."""

    @pytest.mark.parametrize("threads", [None, "1", "3"], ids=["unset", "1", "3"])
    @pytest.mark.parametrize(
        "golden, extra",
        [
            ("simulate_d8-20.tsv", []),
            ("simulate_d8-20_csi1000.tsv", ["--csi-samples", "1000"]),
        ],
    )
    def test_report_bytes(self, tmp_path, monkeypatch, fast_args, golden, extra, threads):
        # the same bytes at any worker count, not only this machine's core count
        if threads is None:
            monkeypatch.delenv("XTALK_THREADS", raising=False)
        else:
            monkeypatch.setenv("XTALK_THREADS", threads)
        out = tmp_path / golden
        assert run(["simulate", "--d-range", "8:20", *extra, "--out", str(out), *fast_args]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


class TestReportGoldens:
    """Report, stdout and channel-file bytes of every subcommand, pinned on the
    small scenario.  A golden changes only with an argued behaviour change."""

    CASES = [
        ("synth-channel.json", ["synth-channel", "--out", "{out}", "{fast}"], "out"),
        ("inspect-channel.txt", ["inspect-channel", "--in", "{chan}"], "stdout"),
        ("analyze_normalize.tsv", ["analyze", "--normalize", "--out", "{out}", "{fast}"], "out"),
        (
            "analyze_uniform_csi1000.tsv",
            ["analyze", "--config", "{uniform_csi}", "--normalize", "--out", "{out}"],
            "out",
        ),
        ("bound_all.tsv", ["bound", "--which", "all", "--out", "{out}", "{fast}"], "out"),
        ("design-bits_relative.txt", ["design-bits", "--target-relative", "0.01", "{fast}"], "stdout"),
        ("design-bits_tone.txt", ["design-bits", "--target-tone", "0.1", "{fast}"], "stdout"),
        (
            "design-bits_tone_5MHz.txt",
            ["design-bits", "--target-tone", "0.1", "--freq", "5e6", "{fast}"],
            "stdout",
        ),
        (
            "sweep.tsv",
            ["sweep", "--lengths", "300,600,900,5000", "--target-relative", "0.01",
             "--out", "{out}", "{fast}"],
            "out",
        ),
    ]

    @pytest.mark.parametrize("golden, argv, source", CASES, ids=[c[0] for c in CASES])
    def test_bytes(self, tmp_path, fast_args, capsys, golden, argv, source):
        chan = tmp_path / "chan.json"
        assert run(["synth-channel", "--out", str(chan), *fast_args]) == 0
        uniform_csi = tmp_path / "uniform_csi.json"
        Scenario(
            users=4, decimation=208, seed=5, e2_model="uniform_random", csi_samples=1000
        ).save(uniform_csi)
        out = tmp_path / golden
        subs = {"{out}": str(out), "{chan}": str(chan), "{uniform_csi}": str(uniform_csi)}
        full = []
        for arg in argv:
            full.extend(fast_args if arg == "{fast}" else [subs.get(arg, arg)])
        capsys.readouterr()
        assert run(full) == 0
        got = out.read_bytes() if source == "out" else capsys.readouterr().out.encode()
        assert got == (GOLDEN_DIR / golden).read_bytes()


class TestBatchedBounds:
    """The per-tone bounds run once per word length on the whole tone array, and
    a per-tone design is one call; counted through the ``cli`` names that the
    benchmark's tracer patches."""

    NAMES = ("bound_general_per_tone", "bound_main_per_tone", "bound_simplified_per_tone",
             "bits_for_tone_loss")

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.NAMES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        return counts

    def test_bound_calls_each_per_tone_bound_once_per_word_length(self, calls, fast_args, tmp_path):
        out = tmp_path / "bound.tsv"
        argv = ["bound", "--which", "all", "--d-min", "10", "--d-max", "20", "--out", str(out)]
        assert run([*argv, *fast_args]) == 0
        assert calls["bound_general_per_tone"] == 11
        assert calls["bound_simplified_per_tone"] == 11
        assert calls["bound_main_per_tone"] == 0  # the main column is the band form

    def test_tone_design_is_one_call(self, calls, fast_args, capsys):
        assert run(["design-bits", "--target-tone", "0.1", *fast_args]) == 0
        assert calls["bits_for_tone_loss"] == 1


class TestSweep:
    def test_rows_with_errors_recorded(self, tmp_path, fast_args):
        out = tmp_path / "sweep.tsv"
        code = run(
            [
                "sweep",
                "--lengths",
                "300,5000",
                "--target-relative",
                "0.01",
                "--out",
                str(out),
                *fast_args,
            ]
        )
        assert code == 0
        _, cols = _read_table(out)
        assert cols["d_min_bits"][0] != ""
        assert cols["d_min_bits"][1] == ""
        assert "FloorNonpositive" in cols["error"][1]


class TestScenarioFile:
    def test_round_trip_idempotent(self, tmp_path):
        scen = Scenario(users=4, decimation=208, seed=5, d_bits=12)
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        scen.save(p1)
        Scenario.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_drives_cli_and_flags_override(self, tmp_path, capsys):
        scen = Scenario(users=3, decimation=208, seed=5)
        cfg = tmp_path / "scen.json"
        scen.save(cfg)
        out = tmp_path / "chan.json"
        assert run(["synth-channel", "--config", str(cfg), "--out", str(out)]) == 0
        assert "p=3" in capsys.readouterr().out
        assert run(["synth-channel", "--config", str(cfg), "--users", "2", "--out", str(out)]) == 0
        assert "p=2" in capsys.readouterr().out

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "scen.json"
        cfg.write_text(json.dumps({"format_version": 1, "nonsense": 1}))
        assert run(["synth-channel", "--config", str(cfg), "--out", str(cfg) + ".c"]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "scen.json"
        cfg.write_bytes(b'{"users": 4}\xff')
        assert run(["bound", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: scenario file is not valid JSON")


class TestMalformedScenario:
    """A scenario value of the wrong JSON type (or a negative seed) is a
    config error naming the key (exit 2), not a traceback."""

    @pytest.fixture()
    def config(self, tmp_path):
        def write(**doc):
            path = tmp_path / "scen.json"
            path.write_text(json.dumps({"users": 4, "decimation": 208, "seed": 5, **doc}))
            return str(path)

        return write

    @pytest.mark.parametrize(
        "key, value",
        [
            ("users", "10"),
            ("decimation", "2"),
            ("seed", 1.5),
            ("users", True),
            ("d_bits", None),
            ("seed", -1),
        ],
    )
    def test_malformed_value_exit_2(self, tmp_path, capsys, config, key, value):
        out = tmp_path / "report.tsv"
        assert run(["analyze", "--config", config(**{key: value}), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err

    PER_USER_PSD = [-60.0, -61.0, -62.0, -63.0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--which", "all"],
            ["design-bits", "--target-relative", "0.01"],
            ["sweep", "--lengths", "300,600", "--target-relative", "0.01"],
        ],
        ids=["bound", "design-bits", "sweep"],
    )
    def test_per_user_psd_refused_by_band_bounds(self, tmp_path, capsys, config, argv):
        cfg = config(psd_dbm_hz=self.PER_USER_PSD)
        assert run([*argv, "--config", cfg, "--out", str(tmp_path / "out.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "psd_dbm_hz" in err

    def test_per_user_psd_serves_analyze(self, tmp_path, config):
        cfg = config(psd_dbm_hz=self.PER_USER_PSD)
        assert run(["analyze", "--config", cfg, "--normalize", "--out", str(tmp_path / "r.tsv")]) == 0


def _error_types(cls=XtalkError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


_CONFIG = (2, "config error")
_NUMERICAL = (3, "numerical/channel error")
_BOUND = (4, "bound precondition error")

# the README's exit-code paragraph, one entry per error type
EXIT_TABLE = {
    "XtalkError": _NUMERICAL,
    "ConfigError": _CONFIG,
    "InvalidParams": _CONFIG,
    "InvalidBudget": _CONFIG,
    "ParseError": _CONFIG,
    "InsufficientData": _CONFIG,
    "SingularDiagonal": _NUMERICAL,
    "SingularChannel": _NUMERICAL,
    "RangeError": _NUMERICAL,
    "NumericalError": _NUMERICAL,
    "TargetUnreachable": _NUMERICAL,
    "BoundError": _BOUND,
    "BoundInapplicable": _BOUND,
    "BitDepthTooSmall": _BOUND,
    "FloorNonpositive": _BOUND,
}


class TestExitCodes:
    def test_table_covers_every_error_type(self):
        assert {cls.__name__ for cls in _error_types()} == set(EXIT_TABLE)

    @pytest.mark.parametrize("cls", list(_error_types()), ids=lambda cls: cls.__name__)
    def test_code_and_stderr_prefix(self, monkeypatch, capsys, cls):
        def handler(args):
            raise cls("boom", min_bits=1.0) if cls is BitDepthTooSmall else cls("boom")

        monkeypatch.setattr(cli, "cmd_inspect_channel", handler)
        code, prefix = EXIT_TABLE[cls.__name__]
        assert run(["inspect-channel", "--in", "chan.json"]) == code
        assert capsys.readouterr().err == f"{prefix}: boom\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["design-bits", "--target-tone", "2000"], 2),
            (["design-bits", "--target-tone", "nan"], 2),
            (["sweep", "--lengths", "300,abc", "--target-relative", "0.01"], 2),
            (["simulate", "--d-range", "8:x"], 2),
            (["bound", "--d-min", "12", "--d-max", "10"], 2),
            # past the 64-bit ceiling: 1024 overflowed 2**d untyped, 65..1023 wrote rows
            (["analyze", "--d-bits", "1024"], 2),
            (["analyze", "--d-bits", "65"], 2),
            (["simulate", "--d-range", "8:65"], 2),
            (["simulate", "--d-bits", "65"], 2),
            (["bound", "--which", "main", "--d-min", "10", "--d-max", "65"], 2),
            (["bound", "--d-min", "0", "--which", "werner"], 2),
            (["design-bits", "--target-relative", "1e-300"], 3),
            (["bound", "--d-min", "1", "--which", "main", "--users", "10"], 4),
            # linear powers that overflow to inf once wrote NaN reports and exited 0
            (["bound", "--which", "main", "--psd", "1e308", "--decimation", "1024"], 2),
            (["analyze", "--normalize", "--gap", "1e6", "--decimation", "1024"], 2),
            (["simulate", "--noise", "1e308", "--decimation", "1024"], 2),
            # a tone count past the ceiling, refused before any array is formed
            (["bound", "--band", "1e300"], 2),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_bad_flag_value_is_a_typed_exit(self, capsys, fast_args, argv, code):
        command, *flags = argv
        assert run([command, *fast_args, *flags]) == code  # a later flag overrides fast_args
        err = capsys.readouterr().err
        prefix = {2: _CONFIG, 3: _NUMERICAL, 4: _BOUND}[code][1]
        assert err.startswith(f"{prefix}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("d_bits", ["0", "65", "1024"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--which", "main", "--d-min", "10", "--d-max", "12"],
            ["design-bits", "--target-relative", "0.01"],
            ["sweep", "--lengths", "300", "--target-relative", "0.01"],
        ],
        ids=["bound", "design-bits", "sweep"],
    )
    def test_word_length_refused_by_commands_that_do_not_read_it(
        self, capsys, fast_args, argv, d_bits
    ):
        # these commands ignore d_bits; they once exited 0 and hashed the value
        assert run([*argv, *fast_args, "--d-bits", d_bits]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{_CONFIG[1]}: ") and "'d_bits'" in err

    def test_unreadable_file_is_a_config_error(self, tmp_path, capsys):
        assert run(["inspect-channel", "--in", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


_EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 1e-300, 1e308]


def _bits():
    """A word-length flag value: mostly in 0..40, sometimes at or past the
    64-bit ceiling, or where 2**d overflows."""
    return st.one_of(st.integers(0, 40), st.sampled_from([64, 65, 1023, 1024]))


def _number(lo: float, hi: float):
    """A float flag value: mostly in [lo, hi], sometimes an edge case."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(_EDGE_FLOATS))


@st.composite
def _cli_argv(draw) -> list:
    """One small run of analyze, bound, design-bits, simulate or sweep, with
    a random subset of its flags (``--flag=value``, so that negative values
    parse as values)."""
    flags = {
        "users": st.integers(-1, 6),
        "seed": st.integers(-1, 2**32),
        "d-bits": _bits(),
        "psd": _number(-100.0, -20.0),
        "noise": _number(-170.0, -100.0),
        "gap": _number(0.0, 20.0),
        "length": _number(10.0, 3000.0),
        "band": _number(1e5, 1e8),
        "phases": st.sampled_from(["uniform", "zero"]),
    }
    command = draw(st.sampled_from(["analyze", "bound", "design-bits", "simulate", "sweep"]))
    target = _number(1e-6, 0.5)
    flags.update({
        "analyze": {"normalize": st.none()},
        "bound": {
            "which": st.sampled_from(["general", "main", "simplified", "werner", "relative", "all"]),
            "d-min": _bits(),
            "d-max": _bits(),
        },
        "design-bits": {"target-tone": _number(1e-6, 10.0), "target-relative": target,
                        "freq": _number(0.0, 3e7)},
        "simulate": {
            "d-range": st.tuples(_bits(), _bits()).map("{0[0]}:{0[1]}".format),
            "csi-samples": st.integers(0, 5000),
            "zero-errors": st.none(),
            "skip-failures": st.none(),
        },
        "sweep": {},
    }[command])
    argv = [command, f"--decimation={draw(st.integers(256, 4096))}", "--n-trials=16"]
    for name in draw(st.sets(st.sampled_from(sorted(flags)))):
        value = draw(flags[name])
        argv.append(f"--{name}" if value is None else f"--{name}={value}")
    if command == "sweep":
        lengths = draw(st.lists(_number(10.0, 3000.0), min_size=1, max_size=4))
        argv += ["--lengths=" + ",".join(map(str, lengths)), f"--target-relative={draw(target)}"]
    return argv


class TestCliProperty:
    """Any small run of a report command exits 0, 2, 3 or 4, lets no warning
    escape, and a report written with exit 0 holds no NaN."""

    SWEEP = ["sweep", "--decimation=256", "--n-trials=16"]

    @given(_cli_argv())
    @settings(max_examples=60, deadline=None)
    # a NaN target or length once filled every row with an error and exited 0
    @example(SWEEP + ["--lengths=10.0", "--target-relative=nan"])
    @example(SWEEP + ["--lengths=nan", "--target-relative=0.5"])
    # alpha_ell squared to zero: an untyped ZeroDivisionError
    @example(SWEEP + ["--lengths=1e-300", "--target-relative=0.5"])
    # the closed-form gap overflowed with a RuntimeWarning
    @example(SWEEP + ["--gap=1e+308", "--lengths=10.0", "--target-relative=0.5"])
    # 2**1024 overflowed in the quantizer: an untyped OverflowError
    @example(["analyze", "--decimation=4096", "--n-trials=16", "--users=2", "--d-bits=1024"])
    def test_exit_code_and_report(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"XTALK_THREADS": "1"}), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 0:
            assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), out.getvalue()
        else:
            assert err.getvalue().count("\n") == 1


def test_module_entry_point_prints_version():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "xtalk_quant", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout == f"xtalk-quant {__version__}\n"
