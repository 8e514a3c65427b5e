"""Randomized quantization-error trials and worst-case loss extraction.

Per tone, ``n_trials`` error matrices E2 are drawn with i.i.d. real/imag
components uniform on [-2^-d, 2^-d] (so complex entries stay within the
2^(-d+1/2) disk), the exact per-user loss is evaluated for each draw, and a
statistic (worst case, mean, or a quantile) is reduced per (user, tone).

Band figures come in two flavors:

* ``band_per_bin``: integrate the per-bin statistic (worst case per bin, then
  rectangle-rule sum) - the "maximal loss" convention;
* ``band_joint``: per-trial band integral first, statistic across trials.

Randomness is counter-based (:mod:`xtalk_quant.streams`): each (purpose,
tone) pair owns a Philox stream keyed by the seed, so results do not depend
on evaluation order or thread count.  The uniform base variates U do not
depend on the word length: E2 is 2^-d U.  That gives common random numbers,
which keeps the empirical worst case monotone in d, and it lets one draw
serve every word length of a sweep.
Per tone, ``run_trials_sweep`` draws U (and the CSI error E1) once, forms
Q U (and E1 inv(Q + E1)) once, and with E1 absent also the O(p^2) part of
the loss kernel once; each d then costs O(n p), since Delta(d) = 2^-d Q U
scales the interference by 4^-d and Delta_ii by 2^-d.  Power-of-two scaling
is exact in floating point, so every report is bitwise identical to a fresh
draw at that d alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .channel_model import ChannelEnsemble
from .errors import InvalidParams, SingularChannel, TargetUnreachable
from .precoding import PerturbationSpec
from .rate_analysis import LinkBudget, interference_terms, loss_arrays, loss_from_terms

WORST_CASE = "worst_case"
MEAN = "mean"
QUANTILE = "quantile"

RETRY_CAP = 5  # fresh E1 draws per singular trial before giving up


@dataclass(frozen=True)
class TrialConfig:
    """How many draws, which error spec, which statistic."""

    n_trials: int
    spec: PerturbationSpec
    statistic: str = WORST_CASE
    quantile_q: float | None = None
    zero_errors: bool = False

    def __post_init__(self):
        if self.n_trials < 1:
            raise InvalidParams("n_trials must be >= 1")
        if self.statistic not in (WORST_CASE, MEAN, QUANTILE):
            raise InvalidParams(f"unknown statistic {self.statistic!r}")
        if self.statistic == QUANTILE:
            if self.quantile_q is None or not 0.0 < self.quantile_q < 1.0:
                raise InvalidParams("quantile statistic needs q in (0, 1)")


@dataclass(frozen=True)
class CsiErrorModel:
    """Channel-estimation error: row-i entries of E1 are zero-mean complex
    Gaussian with variance 1/(n_samples * SNR_i(f))."""

    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidParams("n_samples must be >= 1")


@dataclass
class TrialReport:
    """Reduced losses; arrays are (p, tones) or (p,)."""

    d_bits: int
    per_tone: np.ndarray
    rate_per_tone: np.ndarray
    band_per_bin: np.ndarray
    band_joint: np.ndarray
    band_rate: np.ndarray
    trial_failures: list = field(default_factory=list)

    @property
    def eta_band(self) -> np.ndarray:
        """Relative band loss using the per-bin statistic."""
        return self.band_per_bin / self.band_rate

    @property
    def eta_per_tone(self) -> np.ndarray:
        return self.per_tone / self.rate_per_tone


def _reduce(losses: np.ndarray, config: TrialConfig) -> np.ndarray:
    """(trials, p) -> (p,) per the configured statistic."""
    if config.statistic == WORST_CASE:
        return losses.max(axis=0)
    if config.statistic == MEAN:
        return losses.mean(axis=0)
    return np.quantile(losses, config.quantile_q, axis=0)


def _tone_count_threads() -> int:
    """Worker threads for the tone loop: ``XTALK_THREADS``, 1 when unset."""
    raw = os.environ.get("XTALK_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise InvalidParams(f"XTALK_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _map_tones(fn, n_tones: int):
    """Yield ``fn(k)`` for every tone in tone order.  With several threads the
    tones run a chunk at a time, so at most one chunk of results is held."""
    threads = _tone_count_threads()
    if threads == 1:
        for k in range(n_tones):
            yield fn(k)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, n_tones, threads):
            yield from pool.map(fn, range(start, min(start + threads, n_tones)))


def _draw_e2(seed: int, tone: int, n: int, p: int, zero: bool) -> np.ndarray:
    """Base variates U, real/imag parts uniform on [-1, 1]; E2 = 2^-d U."""
    if zero:
        return np.zeros((n, p, p), dtype=complex)
    return streams.uniform_complex(streams.stream(seed, streams.MC_E2, tone), (n, p, p))


def run_trials(ensemble: ChannelEnsemble, budget: LinkBudget, config: TrialConfig) -> TrialReport:
    """Quantization-only trials (perfect channel knowledge) at ``config``'s d."""
    return run_trials_sweep(ensemble, budget, config, [config.spec.d_bits])[0]


def run_trials_with_csi_error(
    ensemble: ChannelEnsemble,
    budget: LinkBudget,
    config: TrialConfig,
    csi: CsiErrorModel,
) -> TrialReport:
    """Joint trials: Gaussian channel-estimation error plus uniform
    quantization error, with the full two-term equivalent perturbation."""
    return run_trials_sweep(ensemble, budget, config, [config.spec.d_bits], csi=csi)[0]


def run_trials_sweep(
    ensemble: ChannelEnsemble,
    budget: LinkBudget,
    config: TrialConfig,
    d_values,
    csi: CsiErrorModel | None = None,
) -> list[TrialReport]:
    """One ``TrialReport`` per word length in ``d_values`` (``config``'s own
    d_bits is not used), all from one draw per tone.

    Without ``csi`` the trials are quantization-only; with it, each trial also
    carries Gaussian channel-estimation error (see ``run_trials_with_csi_error``).
    """
    d_values = [int(d) for d in d_values]
    if not d_values:
        raise InvalidParams("no word lengths to simulate")
    p = ensemble.p
    n = config.n_trials
    seed = config.spec.seed
    psd_lin = budget.psd_linear(p)
    gap = budget.gap
    n_tones = ensemble.grid.count
    scales = [2.0 ** (-d) for d in d_values]
    snr_all, q_all = budget.snr(ensemble), ensemble.Q

    def one_tone(k: int):
        snr = snr_all[k]
        q_mat = q_all[k]
        qu = q_mat[None, :, :] @ _draw_e2(seed, k, n, p, config.zero_errors)
        failures: list = []
        if csi is None:
            cross, dii = interference_terms(qu, psd_lin)
            outs = (loss_from_terms(snr, gap, cross * (s * s), s * dii) for s in scales)
        else:
            e1 = streams.csi_error(streams.stream(seed, streams.MC_E1, k), snr, csi.n_samples, (n,))
            m_inv = _invert_with_resampling(q_mat, e1, snr, csi.n_samples, seed, k, failures)
            e1_term = e1 @ m_inv
            outs = (loss_arrays(snr, gap, psd_lin, s * qu - e1_term) for s in scales)
        losses = []
        for out in outs:
            losses.append(out["loss"])
            rates = out["rate"]  # the same at every d
        return [_reduce(loss, config) for loss in losses], losses, rates, failures

    per_tone = np.empty((len(d_values), p, n_tones))
    rate = np.empty((p, n_tones))
    band_joint_acc = np.zeros((len(d_values), n, p))
    failures: list = []
    for k, (stats, losses, rates, tone_failures) in enumerate(_map_tones(one_tone, n_tones)):
        for i, (stat, loss) in enumerate(zip(stats, losses)):
            per_tone[i, :, k] = stat
            band_joint_acc[i] += loss
        rate[:, k] = rates
        failures.extend(tone_failures)

    spacing = ensemble.grid.spacing
    band_rate = rate.sum(axis=1) * spacing
    rate.flags.writeable = band_rate.flags.writeable = False  # every report shares them
    reports = []
    for i, d in enumerate(d_values):
        band_per_bin = per_tone[i].sum(axis=1) * spacing
        band_joint = _reduce(band_joint_acc[i] * spacing, config)
        reports.append(
            TrialReport(
                d_bits=d,
                per_tone=per_tone[i],
                rate_per_tone=rate,
                band_per_bin=band_per_bin,
                band_joint=band_joint,
                band_rate=band_rate,
                trial_failures=list(failures),
            )
        )
    return reports


def _invert_with_resampling(
    q_mat: np.ndarray,
    e1: np.ndarray,
    snr: np.ndarray,
    n_samples: int,
    seed: int,
    tone: int,
    failures: list,
) -> np.ndarray:
    """inv(Q + E1) per trial; singular trials get a fresh E1 draw (in place,
    so the caller's delta uses the same matrices), up to ``RETRY_CAP`` times."""
    try:
        return np.linalg.inv(q_mat[None, :, :] + e1)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(e1)
    resampler = streams.stream(seed, streams.MC_E1_RESAMPLE, tone)
    for t in range(e1.shape[0]):
        for attempt in range(RETRY_CAP + 1):
            try:
                out[t] = np.linalg.inv(q_mat + e1[t])
                break
            except np.linalg.LinAlgError:
                failures.append((tone, t, attempt))
                if attempt == RETRY_CAP:
                    raise SingularChannel(
                        f"tone {tone} trial {t} singular after {RETRY_CAP} resamples",
                        tone=tone,
                    )
                e1[t] = streams.csi_error(resampler, snr, n_samples)
    return out


def min_bits_empirical(
    ensemble: ChannelEnsemble,
    budget: LinkBudget,
    config: TrialConfig,
    target_eta: float,
    d_max: int = 32,
) -> int:
    """Smallest word length in 1..``d_max`` whose per-tone relative loss
    statistic meets ``target_eta``.

    One sweep over d = 1..``d_max`` tabulates the statistic from one draw per
    tone, and the first d that meets the target is returned.
    """
    if not 0.0 < target_eta <= 1.0:
        raise InvalidParams("target_eta must lie in (0, 1]")
    if d_max < 1:
        raise InvalidParams("d_max must be >= 1")
    reports = run_trials_sweep(ensemble, budget, config, range(1, d_max + 1))
    for rep in reports:
        if np.max(rep.eta_per_tone) <= target_eta:
            return rep.d_bits
    raise TargetUnreachable(f"worst-case relative loss still above {target_eta} at d={d_max}")
