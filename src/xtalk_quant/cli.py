"""Command-line front end.

Subcommands: synth-channel, inspect-channel, analyze, bound, design-bits,
simulate, sweep.  A scenario JSON file (--config) supplies defaults; each
flag overrides the scenario field it names.  Exit code 0 on success; a
failure exits with its error type's code (see :mod:`xtalk_quant.errors`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from . import __version__
from .analytic_bounds import (
    WernerBoundParams,
    bound_general_per_tone,
    bound_main_band,
    bound_main_per_tone,
    bound_relative,
    bound_simplified_per_tone,
    bound_werner_decay,
    min_admissible_bits,
)
from .channel_model import fit_alpha, fit_row_dominance, load_channel, save_channel
from .design import bits_for_relative_loss, bits_for_tone_loss, sweep_bits_vs_loop_length
from .errors import (
    BitDepthTooSmall,
    BoundError,
    BoundInapplicable,
    ConfigError,
    InvalidParams,
    NumericalError,
    XtalkError,
)
# run_trials stays bound here for the benchmark's tracing, which patches cli.run_trials
from .monte_carlo import run_trials, run_trials_sweep  # noqa: F401
from .precoding import delta_entry_bound, make_bundle
from .rate_analysis import build_report
from .reports import LazyRows, render_table, scenario_hash
from .scenario import Scenario

_SCENARIO_FIELDS = frozenset(f.name for f in fields(Scenario))


def _load_scenario(args) -> Scenario:
    """The --config scenario (else the default) with every flag given that
    names a scenario field; the constructor validates the result."""
    scen = Scenario.load(args.config) if args.config else Scenario()
    flags = {k: v for k, v in vars(args).items() if k in _SCENARIO_FIELDS and v is not None}
    return replace(scen, **flags)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _werner_bound_params(scen: Scenario, ensemble) -> WernerBoundParams:
    """Closed-form bound inputs derived from the scenario's own channel."""
    if isinstance(scen.psd_dbm_hz, list):
        raise InvalidParams("the closed-form band bounds need one psd_dbm_hz for all users")
    fit = fit_row_dominance(ensemble)
    snr0 = 10.0 ** ((scen.psd_dbm_hz - scen.noise_dbm_hz) / 10.0)
    return WernerBoundParams.from_amplitude_aggregate(
        amplitude_aggregate=fit_alpha(ensemble),
        gamma1=max(fit.gamma1, 0.0),
        gamma2=max(fit.gamma2, 0.0),
        p=ensemble.p,
        snr0=snr0,
        bandwidth_hz=ensemble.grid.bandwidth,
        gap=10.0 ** (scen.gamma_db / 10.0),
    )


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def cmd_synth_channel(args) -> int:
    scen = _load_scenario(args)
    ensemble = scen.ensemble()
    save_channel(ensemble, args.out)
    fit = fit_row_dominance(ensemble)
    r = ensemble.r
    print(f"wrote {args.out}: p={ensemble.p}, tones={ensemble.grid.count}")
    print(
        f"r(H): min={r.min():.4g} max={r.max():.4g}; "
        f"fit gamma1={fit.gamma1:.6g} gamma2={fit.gamma2:.6g} "
        f"(max residual {fit.max_residual:.3g})"
    )
    return 0


def cmd_inspect_channel(args) -> int:
    ensemble = load_channel(getattr(args, "in"))
    fit = fit_row_dominance(ensemble)
    agg = fit_alpha(ensemble)
    r = ensemble.r
    print(f"p={ensemble.p} tones={ensemble.grid.count}")
    print(
        f"grid: f_start={ensemble.grid.f_start} spacing={ensemble.grid.spacing} "
        f"bandwidth={ensemble.grid.bandwidth}"
    )
    print(f"insertion-loss aggregate alpha*ell = {agg:.6g} per sqrt(Hz)")
    print(
        f"r(H): min={r.min():.4g} max={r.max():.4g}; "
        f"fit gamma1={fit.gamma1:.6g} gamma2={fit.gamma2:.6g}"
    )
    return 0


def cmd_analyze(args) -> int:
    scen = _load_scenario(args)
    ensemble = scen.ensemble()
    budget = scen.budget(ensemble.grid)
    spec = scen.perturbation()
    snr = budget.snr(ensemble) if spec.e1_samples else None
    # only Delta is kept: the bundle's other stacks are freed before rendering
    delta = make_bundle(ensemble, spec, snr=snr, normalize=args.normalize).delta
    report = build_report(budget, ensemble, delta)

    meta = {"scenario_hash": scenario_hash(scen.to_dict()), "d_bits": spec.d_bits}
    columns = (report.rate, report.rate_perturbed, report.loss, report.a, report.q, report.k)
    freqs = ensemble.freqs.tolist()
    rows = LazyRows(ensemble.p * len(freqs), lambda: (
        (u, f, *values)
        for u in range(ensemble.p)
        for f, *values in zip(freqs, *(col[u].tolist() for col in columns))
    ))
    band = zip(report.band_rate.tolist(), report.band_loss.tolist(), report.eta.tolist())
    band_rows = [("band", u, *values) for u, values in enumerate(band)]
    table = render_table(
        "loss-report",
        meta,
        [
            "user",
            "freq_hz",
            "rate_bps_hz",
            "rate_perturbed_bps_hz",
            "loss_bps_hz",
            "a",
            "q",
            "k",
        ],
        rows,
        __version__,
    )
    table += render_table(
        "loss-report-band",
        meta,
        ["row", "user", "band_rate_bps", "band_loss_bps", "eta"],
        band_rows,
        __version__,
    )
    _emit(args, table)
    worst = max(report.eta[np.isfinite(report.eta)].tolist(), default=float("nan"))
    print(f"band relative loss: worst user eta = {worst:.6g}", file=sys.stderr)
    return 0


_BOUND_NAMES = ("general", "main", "simplified", "werner", "relative")


def cmd_bound(args) -> int:
    scen = _load_scenario(args)
    ensemble = scen.ensemble()
    budget = scen.budget(ensemble.grid)
    which = _BOUND_NAMES if args.which == "all" else (args.which,)
    soft = args.which == "all"  # blank inapplicable cells instead of failing
    snr = budget.snr_matrix(ensemble)
    worst_snr = snr.max(axis=0)
    r = ensemble.r
    r_max = ensemble.r_max
    bw = ensemble.grid.bandwidth
    rho = budget.psd_dynamic_range(ensemble.p)
    wparams = _werner_bound_params(scen, ensemble) if {"werner", "relative"} & set(which) else None

    d_values = list(range(args.d_min, args.d_max + 1))
    for d in d_values:
        if d < min_admissible_bits(r_max) and {"main", "general", "simplified"} & set(which):
            raise BitDepthTooSmall(
                f"d={d} below the admissibility floor; minimum admissible d = "
                f"{min_admissible_bits(r_max):.3f}",
                min_bits=min_admissible_bits(r_max),
            )

    def cell(fn):
        try:
            return fn()
        except BoundError:
            if soft:
                return ""
            raise

    def tone_mean(fn):
        """Rectangle-mean of a per-tone bound over the tones where it applies."""
        vals = []
        for k in range(ensemble.grid.count):
            try:
                vals.append(fn(k))
            except BoundInapplicable:
                continue
        if not vals:
            if soft:
                return ""
            raise BoundInapplicable("bound inapplicable on every tone")
        return float(np.mean(vals))

    rows = []
    for d in d_values:
        row = [d]
        t = delta_entry_bound(ensemble, d)
        for name in which:
            if name == "general":
                row.append(
                    tone_mean(
                        lambda k: bound_general_per_tone(ensemble.p, rho, t[k], worst_snr[k])
                    )
                )
            elif name == "main":
                row.append(
                    bound_main_band(ensemble.p, r_max, d, worst_snr, ensemble.grid, rho=rho)
                    / bw
                )
            elif name == "simplified":
                row.append(
                    tone_mean(
                        lambda k: bound_simplified_per_tone(ensemble.p, r[k], d, worst_snr[k])
                    )
                )
            elif name == "werner":
                row.append(cell(lambda: bound_werner_decay(wparams, d)))
            elif name == "relative":
                row.append(cell(lambda: bound_relative(wparams, d)))
        rows.append(row)

    meta = {"scenario_hash": scenario_hash(scen.to_dict())}
    table = render_table(
        "bound-curves", meta, ["d_bits"] + list(which), rows, __version__
    )
    _emit(args, table)
    return 0


def cmd_design_bits(args) -> int:
    scen = _load_scenario(args)
    ensemble = scen.ensemble()
    budget = scen.budget(ensemble.grid)
    if (args.target_tone is None) == (args.target_relative is None):
        raise InvalidParams("pass exactly one of --target-tone or --target-relative")
    if args.target_relative is not None and args.freq is not None:
        raise InvalidParams("--freq applies to --target-tone only; --target-relative is a band target")

    if args.target_tone is not None:
        snr = budget.snr_matrix(ensemble)
        if args.freq is not None:
            freqs, half = ensemble.freqs, 0.5 * ensemble.grid.spacing
            if not freqs[0] - half <= args.freq <= freqs[-1] + half:  # also refuses nan
                raise InvalidParams(
                    f"--freq {args.freq} Hz lies outside the tone grid "
                    f"({freqs[0]} to {freqs[-1]} Hz)"
                )
            tones = [int(np.argmin(np.abs(freqs - args.freq)))]
        else:
            tones = range(ensemble.grid.count)
        best = None
        for k in tones:
            res = bits_for_tone_loss(
                ensemble.p, float(ensemble.r[k]), float(snr[:, k].max()), args.target_tone
            )
            if best is None or res.d_bits > best.d_bits:
                best = res
        target = f"per-tone loss target {args.target_tone} bps/Hz"
    else:
        best = bits_for_relative_loss(_werner_bound_params(scen, ensemble), args.target_relative)
        target = f"relative band-loss target {best.target}"
    print(f"d_min = {best.d_bits} bits ({target})")
    print(
        f"analytic d = {best.d_analytic:.4f}, exact root = {best.d_exact:.4f}, "
        f"bound at d_min = {best.bound_value:.6g} <= {best.target}"
    )
    if best.floored:
        print("note: word length pinned at the admissibility floor of the bound")
    return 0


def cmd_simulate(args) -> int:
    scen = _load_scenario(args)
    ensemble = scen.ensemble()
    budget = scen.budget(ensemble.grid)
    if args.d_range is None:
        d_lo = d_hi = scen.d_bits
    else:
        try:
            d_lo, d_hi = (int(x) for x in args.d_range.split(":"))
        except ValueError as exc:
            raise InvalidParams(f"--d-range must look like 8:16, got {args.d_range!r}") from exc
        if d_lo < 1 or d_hi < d_lo:
            raise InvalidParams(f"bad --d-range {args.d_range!r}")
    config = replace(scen.trial_config(), zero_errors=args.zero_errors)
    reports = run_trials_sweep(ensemble, budget, config, range(d_lo, d_hi + 1))
    failures = reports[0].trial_failures
    if failures and not args.skip_failures:
        tone, trial, _ = failures[0]
        raise NumericalError(
            f"trial {trial} at tone {tone} required resampling "
            "(rerun with --skip-failures to tolerate)"
        )
    rows = [
        (
            rep.d_bits,
            float(rep.per_tone.max()),
            float(rep.band_per_bin.max()),
            float(rep.band_joint.max()),
            float(np.nanmax(rep.eta_band)),
        )
        for rep in reports
    ]

    meta = {
        "scenario_hash": scenario_hash(scen.to_dict()),
        "statistic": scen.statistic,
        "n_trials": scen.n_trials,
        "csi_samples": scen.csi_samples or 0,
    }
    table = render_table(
        "simulation",
        meta,
        ["d_bits", "stat_tone_bps_hz", "stat_band_bps", "stat_band_joint_bps", "eta_band"],
        rows,
        __version__,
    )
    _emit(args, table)
    return 0


def cmd_sweep(args) -> int:
    scen = _load_scenario(args)
    ensemble = scen.ensemble()
    template = _werner_bound_params(scen, ensemble)
    lengths = [float(x) for x in args.lengths.split(",")]
    sweep = sweep_bits_vs_loop_length(lengths, template, args.target_relative, scen.loop_length_m)
    rows = [tuple("" if v is None else v for v in astuple(row)) for row in sweep]
    meta = {
        "scenario_hash": scenario_hash(scen.to_dict()),
        "target_relative": args.target_relative,
    }
    table = render_table(
        "bits-vs-length",
        meta,
        ["length_m", "d_min_bits", "bound_at_d", "c_floor", "error"],
        rows,
        __version__,
    )
    _emit(args, table)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(sp, out_required: bool = False) -> None:
    sp.add_argument("--config", help="scenario JSON file")
    sp.add_argument("--out", required=out_required, help="output file (default: stdout)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--users", type=int)
    sp.add_argument("--decimation", type=int)
    sp.add_argument("--d-bits", dest="d_bits", type=int)
    sp.add_argument("--n-trials", dest="n_trials", type=int)
    sp.add_argument("--psd", dest="psd_dbm_hz", type=float)
    sp.add_argument("--noise", dest="noise_dbm_hz", type=float)
    sp.add_argument("--gap", dest="gamma_db", type=float)
    sp.add_argument(
        "--length", dest="loop_length_m", metavar="LENGTH", type=float, help="loop length in meters"
    )
    sp.add_argument("--band", dest="f_end", metavar="BAND", type=float, help="top band edge in Hz")
    sp.add_argument("--phases", choices=["uniform", "zero"])
    sp.add_argument("--channel-file", dest="channel_file", help="load instead of synthesizing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xtalk-quant",
        description="Rate-loss analysis of finite-word-length zero-forcing precoders",
    )
    parser.add_argument("--version", action="version", version=f"xtalk-quant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-channel", help="synthesize and save a channel file")
    _add_common(sp, out_required=True)
    sp.set_defaults(func=cmd_synth_channel)

    sp = sub.add_parser("inspect-channel", help="print channel file statistics")
    sp.add_argument("--in", required=True, help="channel file")
    sp.set_defaults(func=cmd_inspect_channel)

    sp = sub.add_parser("analyze", help="exact per-tone and band losses")
    _add_common(sp)
    sp.add_argument(
        "--normalize",
        action="store_true",
        help="block-scale precoders that leave the unit box (power-of-two scale)",
    )
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("bound", help="bound-vs-d curves")
    _add_common(sp)
    sp.add_argument("--which", choices=list(_BOUND_NAMES) + ["all"], default="all")
    sp.add_argument("--d-min", dest="d_min", type=int, default=10)
    sp.add_argument("--d-max", dest="d_max", type=int, default=20)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("design-bits", help="minimum word length for a loss target")
    _add_common(sp)
    sp.add_argument("--target-tone", dest="target_tone", type=float)
    sp.add_argument("--target-relative", dest="target_relative", type=float)
    sp.add_argument("--freq", type=float, help="tone for --target-tone (default: worst tone)")
    sp.set_defaults(func=cmd_design_bits)

    sp = sub.add_parser("simulate", help="randomized quantization-error trials")
    _add_common(sp)
    sp.add_argument("--d-range", dest="d_range", help="inclusive range lo:hi")
    sp.add_argument("--csi-samples", dest="csi_samples", type=int)
    sp.add_argument("--zero-errors", dest="zero_errors", action="store_true")
    sp.add_argument("--skip-failures", dest="skip_failures", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="required bits vs loop length")
    _add_common(sp)
    sp.add_argument("--lengths", required=True, help="comma-separated meters")
    sp.add_argument(
        "--target-relative", dest="target_relative", type=float, required=True
    )
    sp.set_defaults(func=cmd_sweep)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except XtalkError as exc:
        return _fail(exc)
    except OSError as exc:  # a file that cannot be read or written
        return _fail(ConfigError(str(exc)))


def _fail(exc: XtalkError) -> int:
    print(f"{exc.kind}: {exc}", file=sys.stderr)
    return exc.exit_code


def main() -> None:
    sys.exit(run())
