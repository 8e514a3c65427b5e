"""Correctness checks on the reports a workload run leaves in its directory.

Every check is either a recomputation made apart from the program (numpy on
the channel matrices, with the paper's formulas) or a property the method must
have.  None compares against a stored copy of earlier output.  A check raises
``CheckFailed`` with the reason; ``run_checks`` runs all checks of a workload
and returns the failures.

Inputs the checks need beyond the report texts (channel matrices, engine runs
made outside the timed window) are gathered by ``load_context``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import workload as wl

ETA_TARGET_AT_14 = 0.01
# Direct rate differencing against the program's stable form: both carry
# rounding of order 1e-15 times the rate (< 30 bits/s/Hz); Delta itself is
# formed two ways, which agree to about 1e-12 of its size.
ANALYZE_ATOL = 1e-10
ANALYZE_RTOL = 1e-7


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- report parsing -------------------------------------------------------------


def parse_tables(text: str) -> list[dict]:
    """Split a report into its tables: {'meta': {...}, 'columns': [...], 'rows': [[str]]}."""
    tables = []
    for line in text.splitlines():
        if line.startswith("# format_version="):
            tables.append({"meta": {}, "columns": None, "rows": []})
        if not tables:
            raise CheckFailed("report does not start with a format_version header")
        table = tables[-1]
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            table["meta"][key] = value
        elif table["columns"] is None:
            table["columns"] = line.split("\t")
        else:
            table["rows"].append(line.split("\t"))
    _require(bool(tables), "empty report")
    for table in tables:
        _require(table["columns"] is not None, "table without a column header")
        for row in table["rows"]:
            _require(len(row) == len(table["columns"]), f"ragged row {row!r}")
    return tables


def column(table: dict, name: str) -> np.ndarray:
    """A numeric column; blank cells read as NaN."""
    idx = table["columns"].index(name)
    return np.array([float(r[idx]) if r[idx] != "" else math.nan for r in table["rows"]])


def _printed_number(text: str, prefix: str) -> float:
    """The number that follows ``prefix`` in a line of printed output."""
    for line in text.splitlines():
        if prefix in line:
            tail = line.split(prefix, 1)[1].strip()
            return float(tail.split()[0].rstrip(";,"))
    raise CheckFailed(f"no {prefix!r} in output")


# -- independent channel quantities ---------------------------------------------


def read_channel_file(path: str) -> dict:
    """The channel-file format read with json and numpy alone."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    p, n = int(doc["p"]), int(doc["tone_count"])
    flat = np.asarray(doc["tones"], dtype=float)
    H = (flat[..., 0] + 1j * flat[..., 1]).reshape(n, p, p)
    freqs = doc["f_start"] + np.arange(n) * doc["spacing"]
    return {"H": H, "freqs": freqs, "spacing": float(doc["spacing"])}


def row_dominance(H: np.ndarray) -> np.ndarray:
    """r(H(f)) = max_i sum_{j != i} |h_ij| / |h_ii| per tone."""
    a = np.abs(H)
    diag = np.diagonal(a, axis1=1, axis2=2)
    return ((a.sum(axis=2) - diag) / diag).max(axis=1)


def snr_per_user(H: np.ndarray, scen: dict) -> np.ndarray:
    """(tones, p) raw SNR = P |h_ii|^2 / noise for a flat per-user PSD."""
    ratio = 10.0 ** ((scen["psd_dbm_hz"] - scen["noise_dbm_hz"]) / 10.0)
    return ratio * np.abs(np.diagonal(H, axis1=1, axis2=2)) ** 2


def main_band_bound_bps(H: np.ndarray, spacing: float, scen: dict, d: int) -> float:
    """The paper's main band bound (bits/s) at word length d, equal PSDs:
    spacing * sum_f log2(1 + 2(p-1)(1+r_max)^2 4^-d SNR_max(f))
    + B * (-2 log2(1 - sqrt(2)(1+r_max) 2^-d))."""
    p = H.shape[1]
    r_max = float(row_dominance(H).max())
    z = math.sqrt(2.0) * (1.0 + r_max) * 2.0 ** (-d)
    _require(z < 1.0, f"d={d} below the admissibility floor for r_max={r_max}")
    gamma = 2.0 * (p - 1) * (1.0 + r_max) ** 2 * 4.0 ** (-d)
    worst_snr = snr_per_user(H, scen).max(axis=1)
    integral = float(np.sum(np.log2(1.0 + gamma * worst_snr))) * spacing
    return integral + H.shape[0] * spacing * (-2.0 * math.log2(1.0 - z))


# -- mc_sweep -------------------------------------------------------------------


def check_band_bound(reports: dict, ctx: dict) -> None:
    """stat_band_bps never exceeds the main band bound recomputed from r_max and SNR."""
    table = parse_tables(reports["simulate"])[0]
    for d, band in zip(column(table, "d_bits"), column(table, "stat_band_bps")):
        bound = main_band_bound_bps(ctx["H"], ctx["spacing"], ctx["scenario"], int(d))
        _require(band <= bound, f"d={int(d)}: worst band loss {band} above bound {bound}")


def check_eta_at_14(reports: dict, ctx: dict) -> None:
    """The worst user's band relative loss stays below 1 % at 14 bits."""
    table = parse_tables(reports["simulate"])[0]
    eta = dict(zip(column(table, "d_bits"), column(table, "eta_band")))
    _require(14.0 in eta, "no d=14 row")
    _require(eta[14.0] < ETA_TARGET_AT_14, f"eta_band at d=14 is {eta[14.0]}")


def check_monotone_in_d(reports: dict, ctx: dict) -> None:
    """With common random numbers the worst case cannot grow as d grows."""
    table = parse_tables(reports["simulate"])[0]
    d = column(table, "d_bits")
    _require(np.all(np.diff(d) == 1), "d_bits rows are not consecutive")
    for name in ("stat_tone_bps_hz", "stat_band_bps", "stat_band_joint_bps", "eta_band"):
        values = column(table, name)
        _require(np.all(values > 0), f"{name} has a non-positive worst case")
        _require(np.all(np.diff(values) <= 0), f"{name} increases with d: {values}")


def check_min_bits_bracket(reports: dict, ctx: dict) -> None:
    """min_bits_empirical's d meets the target and d - 1 misses it."""
    d = int(reports["min_bits_empirical"].strip())
    eta_at = ctx["eta_at"]
    target = wl.MIN_BITS_TARGET
    _require(eta_at(d) <= target, f"at d={d} worst per-tone eta {eta_at(d)} > {target}")
    if d > 1:
        _require(eta_at(d - 1) > target, f"d={d - 1} already meets the target")


# -- design_study ---------------------------------------------------------------


def analyze_oracle(chan: dict, scen: dict) -> dict:
    """Exact losses of the deterministically rounded ZF precoder, from scratch.

    P = H^-1 diag(H); a power-of-two block scale brings P into the unit box;
    every real/imag component is rounded to a multiple of 2^-d; Delta follows
    from H P~ = D (I + Delta); the loss is the direct rate difference."""
    H = chan["H"]
    n, p, _ = H.shape
    D = np.diagonal(H, axis1=1, axis2=2)
    P = np.linalg.solve(H, D[:, None, :] * np.eye(p))
    box = np.maximum(np.abs(P.real).max(axis=(1, 2)), np.abs(P.imag).max(axis=(1, 2)))
    scale = np.where(box > 1.0, 2.0 ** np.ceil(np.log2(np.maximum(box, 1.0))), 1.0)[:, None, None]
    step = 2.0 ** scen["d_bits"]
    work = P / scale
    P_q = (np.round(work.real * step) + 1j * np.round(work.imag * step)) / step * scale
    delta = (H @ P_q) / D[:, :, None] - np.eye(p)

    psd = 10.0 ** (scen["psd_dbm_hz"] / 10.0)
    noise = 10.0 ** (scen["noise_dbm_hz"] / 10.0)
    gap = 10.0 ** (scen["gamma_db"] / 10.0)
    d2 = np.abs(D) ** 2
    ad2 = np.abs(delta) ** 2
    dii = np.diagonal(delta, axis1=1, axis2=2)
    interference = psd * d2 * (ad2.sum(axis=2) - np.abs(dii) ** 2)
    signal = psd * d2 * np.abs(1.0 + dii) ** 2
    rate = np.log2(1.0 + psd * d2 / (gap * noise))
    rate_perturbed = np.log2(1.0 + signal / (gap * (interference + noise)))
    snr = psd * d2 / noise
    a = interference / noise
    # (tones, p) -> (p, tones), the report's user-major row order
    return {
        "rate_bps_hz": rate.T,
        "rate_perturbed_bps_hz": rate_perturbed.T,
        "loss_bps_hz": (rate - rate_perturbed).T,
        "a": a.T,
        "q": (np.abs(1.0 + dii) ** 2 / (a + 1.0)).T,
        "k": (snr / gap / (snr / gap + 1.0)).T,
    }


def check_analyze(reports: dict, ctx: dict) -> None:
    """Every analyze row and band row matches the from-scratch recomputation."""
    tone_table, band_table = parse_tables(reports["analyze"])
    chan = ctx["channel"]
    n, p, _ = chan["H"].shape
    _require(len(tone_table["rows"]) == n * p, f"{len(tone_table['rows'])} rows for {n * p}")
    users = column(tone_table, "user").reshape(p, n)
    freqs = column(tone_table, "freq_hz").reshape(p, n)
    _require(np.all(users == np.arange(p)[:, None]), "rows are not user-major")
    _require(np.allclose(freqs, chan["freqs"][None, :], rtol=1e-15, atol=0), "frequency column")
    oracle = ctx["analyze_oracle"]
    for name, expected in oracle.items():
        got = column(tone_table, name).reshape(p, n)
        bad = np.abs(got - expected) > ANALYZE_ATOL + ANALYZE_RTOL * np.abs(expected)
        if name == "loss_bps_hz":
            # the loss is a difference of two rates: compare on the rates' scale
            bad = np.abs(got - expected) > ANALYZE_ATOL + 1e-12 * oracle["rate_bps_hz"]
        if bad.any():
            raise CheckFailed(f"{name} differs at {int(bad.sum())} rows, first "
                              f"{np.argwhere(bad)[0].tolist()}")
    spacing = chan["spacing"]
    band_rate = oracle["rate_bps_hz"].sum(axis=1) * spacing
    band_loss = oracle["loss_bps_hz"].sum(axis=1) * spacing
    _require(np.array_equal(column(band_table, "user"), np.arange(p)), "band rows per user")
    for name, expected, atol in (
        ("band_rate_bps", band_rate, 1e-9 * band_rate),
        ("band_loss_bps", band_loss, 1e-9 * band_rate),
        ("eta", band_loss / band_rate, 1e-9 * np.ones(p)),
    ):
        got = column(band_table, name)
        _require(bool(np.all(np.abs(got - expected) <= atol)), f"band {name}: {got} vs {expected}")


def check_inspect(reports: dict, ctx: dict) -> None:
    """inspect-channel's r(H) range and alpha*ell match the file's matrices."""
    text = reports["inspect_channel"]
    chan = ctx["channel"]
    r = row_dominance(chan["H"])
    mags = np.abs(np.diagonal(chan["H"], axis1=1, axis2=2))  # (tones, p)
    x = np.sqrt(chan["freqs"])
    # least-squares slope through the origin of -ln|h_ii| against sqrt(f)
    alpha_ell = float(np.sum(-np.log(mags) * x[:, None]) / (mags.shape[1] * np.dot(x, x)))
    _require(abs(alpha_ell - ctx["alpha_ell"]) <= 1e-9 * ctx["alpha_ell"],
             f"file alpha*ell {alpha_ell} vs scenario {ctx['alpha_ell']}")
    printed = {
        "alpha*ell": (_printed_number(text, "alpha*ell ="), alpha_ell, 6),
        "r min": (_printed_number(text, "r(H): min="), float(r.min()), 4),
        "r max": (_printed_number(text, "max="), float(r.max()), 4),
    }
    for name, (shown, expected, digits) in printed.items():
        _require(float(f"{expected:.{digits}g}") == shown,
                 f"{name}: printed {shown}, file {expected}")


def check_bound_dominates(reports: dict, ctx: dict) -> None:
    """The main bound column at analyze's word length lies at or above every
    user's band-average exact loss."""
    bound = parse_tables(reports["bound"])[0]
    band = parse_tables(reports["analyze"])[1]
    d = ctx["scenario"]["d_bits"]
    main = dict(zip(column(bound, "d_bits"), column(bound, "main")))
    _require(float(d) in main, f"no d={d} row in the bound report")
    chan = ctx["channel"]
    bandwidth = chan["H"].shape[0] * chan["spacing"]
    average = column(band, "band_loss_bps") / bandwidth
    _require(bool(np.all(main[float(d)] >= average)),
             f"main bound {main[float(d)]} below band-average loss {average.max()}")


def check_sweep_monotone(reports: dict, ctx: dict) -> None:
    """Longer loops never need fewer bits, where the bit count is defined."""
    table = parse_tables(reports["sweep"])[0]
    lengths = column(table, "length_m")
    bits = column(table, "d_min_bits")
    _require(np.all(np.diff(lengths) > 0), "lengths not increasing")
    defined = bits[~np.isnan(bits)]
    _require(defined.size > 0, "no length has a bit count")
    _require(np.all(np.diff(defined) >= 0), f"bit counts decrease with length: {bits}")


def check_design_bits_tone(reports: dict, ctx: dict) -> None:
    """design-bits --target-tone answers the smallest d at which the main
    per-tone bound, recomputed from each tone's r(H) and largest SNR, meets
    the target on every tone (the bound falls as d grows)."""
    text = reports["design_bits_tone"]
    d_min = int(_printed_number(text, "d_min ="))
    target = _printed_number(text, "per-tone loss target")
    H = ctx["channel"]["H"]
    p = H.shape[1]
    r = row_dominance(H)[None, :]
    snr = snr_per_user(H, ctx["scenario"]).max(axis=1)[None, :]
    d = np.arange(1, 65, dtype=float)[:, None]
    z = math.sqrt(2.0) * (1.0 + r) * 2.0 ** (-d)
    with np.errstate(invalid="ignore", divide="ignore"):
        gamma = 2.0 * (p - 1) * (1.0 + r) ** 2 * 4.0 ** (-d)
        bound = np.log2(1.0 + gamma * snr) - 2.0 * np.log2(1.0 - z)
    meets = (z < 1.0) & (d >= np.ceil(0.5 + np.log2(1.0 + r))) & (bound <= target)
    _require(bool(np.all(meets.any(axis=0))), "some tone meets the target at no d <= 64")
    expected = int(d[meets.argmax(axis=0), 0].max())
    _require(d_min == expected, f"d_min = {d_min}, recomputed {expected}")


# -- every workload -------------------------------------------------------------


def check_rerun_identical(reports: dict, ctx: dict) -> None:
    """Every round wrote byte-identical outputs, and the reports on disk are those."""
    rounds = ctx["rounds"]
    _require(len(rounds) >= 2, "fewer than two rounds")
    digests = {}
    for i, rnd in enumerate(rounds):
        for op in rnd["ops"]:
            first = digests.setdefault(op["name"], op["digest"])
            _require(op["digest"] is not None and op["digest"] == first,
                     f"{op['name']}: round {i} differs from round 0")
    for name, text in reports.items():
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        _require(digest == digests.get(name),
                 f"{name}: the report on disk differs from the rounds")


CHECKS = {
    "mc_sweep": [check_band_bound, check_eta_at_14, check_monotone_in_d,
                 check_min_bits_bracket, check_rerun_identical],
    "design_study": [check_analyze, check_inspect, check_bound_dominates,
                     check_sweep_monotone, check_design_bits_tone, check_rerun_identical],
}


# -- context ----------------------------------------------------------------------


def read_reports(workload: str, directory: str) -> dict:
    """Report texts by operation name (channel files are inputs, not reports)."""
    out = {}
    for op in wl.WORKLOADS[workload]["ops"]:
        if op["report"] != wl.CHANNEL_FILE:
            with open(os.path.join(directory, op["report"]), "r", encoding="utf-8") as fh:
                out[op["name"]] = fh.read()
    return out


def load_context(workload: str, directory: str, rounds: list) -> dict:
    """Inputs of the checks.  The engine runs made here are outside the timed window."""
    from xtalk_quant import Scenario, run_trials

    with open(os.path.join(directory, wl.SCENARIO_FILE), "r", encoding="utf-8") as fh:
        scen_doc = json.load(fh)
    scen = Scenario.from_dict(scen_doc)
    ctx = {"scenario": scen_doc, "rounds": rounds}
    if workload == "design_study":
        chan = read_channel_file(os.path.join(directory, wl.CHANNEL_FILE))
        ctx["channel"] = chan
        ctx["alpha_ell"] = scen_doc["alpha"] * scen_doc["loop_length_m"]
        ctx["analyze_oracle"] = analyze_oracle(chan, scen_doc)
        return ctx

    # mc_sweep: the synthesized binder, and the engine's worst per-tone eta at any d
    ensemble = scen.ensemble()
    budget = scen.budget(ensemble.grid)
    ctx["H"] = np.stack([s.H for s in ensemble.snapshots])
    ctx["spacing"] = ensemble.grid.spacing
    cache = {}

    def eta_at(d: int) -> float:
        if d not in cache:
            config = scen.trial_config(d_bits=d, e2_model="uniform_random")
            cache[d] = float(np.max(run_trials(ensemble, budget, config).eta_per_tone))
        return cache[d]

    ctx["eta_at"] = eta_at
    return ctx


def run_checks(workload: str, reports: dict, ctx: dict) -> list[str]:
    """Run every check of the workload; return one message per failed check.

    A report too malformed to parse fails its check instead of ending the run.
    """
    failures = []
    for check in CHECKS[workload]:
        try:
            check(reports, ctx)
        except CheckFailed as exc:
            failures.append(f"{check.__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001  (any parse error is a failed check)
            failures.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return failures
