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

Each worker of the tone loop owns one workspace (``_Workspace``), made on
its first tone of a sweep and reused on every later tone and word length,
so quantization-only trials allocate no (n, p, p) array per tone.  U is
drawn into it plane by plane, through a float plane that lives in the Q U
buffer until the matmul fills it.  Once Q U is formed, U's memory holds the
two |Delta_ij|^2 planes of ``interference_terms`` and then a and q for up to
``D_BLOCK`` word lengths per pass of the kernel: fewer numpy calls, the same
operations on each element.  A tone's results never live in a workspace, so
they are the same bits at any ``XTALK_THREADS``.

The worst case is taken before the log.  A user's loss,
rate - log1p(eSNR q)/ln 2, falls as q grows, and each floating-point step
from q to the loss is monotone, so the worst trial is the one with the least
q.  When nothing reads the per-trial losses (``min_bits_empirical`` with the
worst-case statistic), each (user, tone, d) takes one log1p of min_t q_t.
``band_joint`` and the mean and quantile statistics need every trial's loss,
so ``run_trials_sweep`` and those statistics form them all.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .channel_model import ChannelEnsemble
from .errors import InvalidParams, SingularChannel, TargetUnreachable
from .precoding import E2_UNIFORM, PerturbationSpec
from .rate_analysis import LinkBudget, interference_ratio, interference_terms
from .rate_analysis import loss_arrays  # noqa: F401  (bench/spans.py patches monte_carlo.loss_arrays)
from .units import LN2

WORST_CASE = "worst_case"
MEAN = "mean"
QUANTILE = "quantile"

RETRY_CAP = 5  # fresh E1 draws per singular trial before giving up
D_BLOCK = 4  # most word lengths per pass of the per-d kernel: fewer numpy calls per d
_UNIT_SCALE = np.ones((1, 1, 1))  # CSI trials scale Delta before the kernel, one d per pass


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
        if self.spec.e2_model != E2_UNIFORM:
            raise InvalidParams(f"trials draw {E2_UNIFORM!r} errors, not {self.spec.e2_model!r}")
        if self.statistic not in (WORST_CASE, MEAN, QUANTILE):
            raise InvalidParams(f"unknown statistic {self.statistic!r}")
        if self.statistic == QUANTILE:
            if self.quantile_q is None or not 0.0 < self.quantile_q < 1.0:
                raise InvalidParams("quantile statistic needs q in (0, 1)")


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


def _map_tones(fn, n_tones: int, make_workspace):
    """Yield ``fn(k, workspace)`` for every tone in tone order, where
    ``workspace`` is the calling worker's own, made by ``make_workspace`` on
    its first tone and reused on every later one.  With several threads the
    tones run a chunk at a time, so at most one chunk of results is held;
    ``fn`` must return nothing that lives in its workspace."""
    threads = _tone_count_threads()
    if threads == 1:
        workspace = make_workspace()
        for k in range(n_tones):
            yield fn(k, workspace)
        return
    local = threading.local()

    def run(k: int):
        if not hasattr(local, "workspace"):
            local.workspace = make_workspace()
        return fn(k, local.workspace)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, n_tones, threads):
            yield from pool.map(run, range(start, min(start + threads, n_tones)))


class _Workspace:
    """One worker's trial buffers for a sweep of n trials of p users.

    U and Q U are complex (n, p, p).  The float plane that the draw passes
    through lives in the first half of Q U, which the matmul overwrites only
    after the draw is copied into U.  U is not read after Q U is formed, so
    its memory then serves, in turn, as the two |Delta_ij|^2 planes of
    ``interference_terms`` and as a, q, the kernel's scratch and the (p, n)
    copy of q for a block of ``block`` word lengths; with p = 1 these are too
    large for it and get their own.  The interference terms are (n, p).
    """

    def __init__(self, n: int, p: int, block: int):
        self.u = np.empty((n, p, p), dtype=complex)
        self.qu = np.empty((n, p, p), dtype=complex)
        self.plane = self.qu.reshape(-1).view(float)[: n * p * p].reshape(n, p, p)
        free = self.u.reshape(-1).view(float)
        self.terms = (free.reshape(2, n, p, p), *np.empty((3, n, p)))
        size = 4 * block * n * p
        a, q, tmp, q_t = (free[:size] if size <= free.size else np.empty(size)).reshape(4, -1)
        self.ratio = tuple(x.reshape(block, n, p) for x in (a, q, tmp))
        self.q_t = q_t.reshape(block, p, n)


def run_trials(ensemble: ChannelEnsemble, budget: LinkBudget, config: TrialConfig) -> TrialReport:
    """Trials at ``config``'s own word length."""
    return run_trials_sweep(ensemble, budget, config, [config.spec.d_bits])[0]


def run_trials_sweep(
    ensemble: ChannelEnsemble, budget: LinkBudget, config: TrialConfig, d_values
) -> list[TrialReport]:
    """One ``TrialReport`` per word length in ``d_values`` (``config``'s own
    d_bits is not used), all from one draw per tone.

    With ``config.spec.e1_samples`` None the trials are quantization-only
    (perfect channel knowledge).  Set, each trial also carries Gaussian
    channel-estimation error E1, row-i entries of variance
    1/(e1_samples * SNR_i), and the full two-term perturbation
    Q E2 - E1 inv(Q + E1).
    """
    d_values = [int(d) for d in d_values]
    if not d_values:
        raise InvalidParams("no word lengths to simulate")
    if min(d_values) < 1:
        raise InvalidParams(f"word lengths must be >= 1, got {min(d_values)}")
    per_tone, rate, joint, failures = _sweep_tones(
        ensemble, budget, config, d_values, band_joint=True
    )
    spacing = ensemble.grid.spacing
    band_rate = rate.sum(axis=1) * spacing
    rate.flags.writeable = band_rate.flags.writeable = False  # every report shares them
    return [
        TrialReport(
            d_bits=d,
            per_tone=per_tone[i],
            rate_per_tone=rate,
            band_per_bin=per_tone[i].sum(axis=1) * spacing,
            band_joint=_reduce(joint[i] * spacing, config),
            band_rate=band_rate,
            trial_failures=list(failures),
        )
        for i, d in enumerate(d_values)
    ]


def _sweep_tones(
    ensemble: ChannelEnsemble,
    budget: LinkBudget,
    config: TrialConfig,
    d_values,
    band_joint: bool,
) -> tuple:
    """The trial engine behind ``run_trials_sweep`` and ``min_bits_empirical``.

    Returns the per-tone statistic (len(d_values), p, tones), the rate
    (p, tones), with ``band_joint`` the per-trial losses summed over tones
    (len(d_values), n_trials, p) and else None, and the resampled trials.
    Per-trial losses are formed only when ``band_joint`` or the statistic
    reads them; the worst case alone takes one log1p per (user, d).
    """
    p = ensemble.p
    n = config.n_trials
    seed, e1_samples = config.spec.seed, config.spec.e1_samples
    psd_lin = budget.psd_linear(p)
    gap = budget.gap
    n_tones = ensemble.grid.count
    scales = [2.0 ** (-d) for d in d_values]
    block = max(1, min(D_BLOCK, p // 2))  # a block's 4 (n, p) buffers fit in U for p >= 2
    scale_blocks = [
        np.array(scales[i : i + block])[:, None, None] for i in range(0, len(scales), block)
    ]
    snr_all, q_all = budget.snr(ensemble), ensemble.Q
    per_trial = band_joint or config.statistic != WORST_CASE

    def one_tone(k: int, ws: _Workspace):
        snr = snr_all[k]
        esnr = snr / gap
        rate = np.log1p(esnr) / LN2
        q_mat = q_all[k]
        if config.zero_errors:
            ws.u.fill(0.0)
        else:
            rng = streams.stream(seed, streams.MC_E2, k)
            streams.uniform_complex(rng, ws.u.shape, ws.u, ws.plane)
        qu = np.matmul(q_mat, ws.u, out=ws.qu)
        failures: list = []
        if e1_samples is None:
            terms = interference_terms(qu, psd_lin, out=ws.terms)
            per_block = ((terms, s) for s in scale_blocks)
        else:
            e1 = streams.csi_error(streams.stream(seed, streams.MC_E1, k), snr, e1_samples, (n,))
            m_inv = _invert_with_resampling(q_mat, e1, snr, e1_samples, seed, k, failures)
            e1_term = e1 @ m_inv
            per_block = (
                (interference_terms(s * qu - e1_term, psd_lin, out=ws.terms), _UNIT_SCALE)
                for s in scales
            )
        stats, losses = [], []
        for (cross, re, im), s in per_block:
            k_d = s.shape[0]
            q = interference_ratio(snr, cross, re, im, s, out=[b[:k_d] for b in ws.ratio])[1]
            if per_trial:
                q = np.log1p(np.multiply(esnr, q, out=q), out=q)
                q /= LN2
                loss = np.subtract(rate, q, out=None if band_joint else q)
                stats.extend(_reduce(loss_d, config) for loss_d in loss)
                if band_joint:
                    losses.extend(loss)
            else:
                # q -> loss is monotone decreasing, so the worst trial is the one with the
                # least q; the min runs over a contiguous (p, n) copy, the fast axis
                q_t = ws.q_t[:k_d]
                np.copyto(q_t, q.transpose(0, 2, 1))
                stats.extend(rate - np.log1p(esnr * q_t.min(axis=2)) / LN2)
        return stats, losses, rate, failures

    per_tone = np.empty((len(d_values), p, n_tones))
    rate = np.empty((p, n_tones))
    joint = np.zeros((len(d_values), n, p)) if band_joint else None
    failures: list = []
    tones = _map_tones(one_tone, n_tones, lambda: _Workspace(n, p, block))
    for k, (stats, losses, rates, tone_failures) in enumerate(tones):
        per_tone[:, :, k] = stats
        if band_joint:
            for acc, loss in zip(joint, losses):
                acc += loss
        rate[:, k] = rates
        failures.extend(tone_failures)
    return per_tone, rate, joint, failures


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
    per_tone, rate, _, _ = _sweep_tones(
        ensemble, budget, config, range(1, d_max + 1), band_joint=False
    )
    for d, stat in enumerate(per_tone, start=1):
        if np.max(stat / rate) <= target_eta:
            return d
    raise TargetUnreachable(f"worst-case relative loss still above {target_eta} at d={d_max}")
