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
tone) pair, and each resampled (tone, trial), owns a Philox stream keyed by
the seed, so results do not depend on evaluation order or thread count.
The uniform base variates U do not depend on the word length: E2 is 2^-d U.
That gives common random numbers, which keeps the empirical worst case
monotone in d, and it lets one draw serve every word length of a sweep.
Per tone, ``run_trials_sweep`` draws U (and the CSI error E1) once, forms
Q, Q U (and E1 inv(Q + E1)) once, and with E1 absent also the O(p^2) part of
the loss kernel once; each d then costs O(n p), since Delta(d) = 2^-d Q U
scales the interference by 4^-d and Delta_ii by 2^-d.  Power-of-two scaling
is exact in floating point, so every report is bitwise identical to a fresh
draw at that d alone.

The workers split each tone's trials, not the tones: worker c owns trial
slice [t0_c, t1_c) of every tone and walks the tones in order, with no
barrier between tones.  There are at most ``XTALK_THREADS`` slices (the
usable cores when it is unset) of about ``MIN_SLICE`` trials or more, each
starting on a multiple of 4.  A worker draws only its own trials
(``streams.uniform_complex`` skips the others') into its own workspace
(``_Workspace``), reused on every tone and word length, so quantization-only
trials allocate no (n, p, p) array per tone.  Without E1 one pass of the
per-d kernel serves as many word lengths as the workspace holds (12 at
p = 10), every operand contiguous; the worst case takes the max along each
user's trials, which is exact.  With E1 each d takes its own pass.  E1's
Gaussian draw takes a varying number of words and cannot skip, so each
worker draws the tone's full E1, keeps its own rows and forms each Delta(d)
in them.  Every trial's loss is formed; each slice keeps
its own worst case, the slices combine by an exact max, and each worker adds
its tones to its own columns of ``band_joint`` in tone order, so every result
is the same bits at any ``XTALK_THREADS``.  So is every error: the one raised
is the lowest tone's, the first slice's on a tie, as one slice meets it.  The
mean and quantile statistics run as one slice: the mean sums the trials in
order, and the quantile needs all of them.

``min_bits_empirical`` needs only the first word length that meets its
target on every tone.  Quantization-only trials draw E2 = 2^-d U inside the
box that ``rate_analysis.worst_case_loss`` maximizes over exactly, so no
trial's loss, and no statistic of them, exceeds that supremum; one call over
d = 1..d_max certifies each (d, tone) whose supremum meets the target with
``CERT_MARGIN`` to spare.  The first d certified on every tone passes, and
only the word lengths below it stay in the running.  The search then walks
the tones in order, drawing each once at the word lengths still in the
running that are not certified on it, and drops every d that misses there.
An error is raised only by a draw at word lengths still in the running (on
the reference scenario at 1 % the one draw is tone 0 at d = 1..16).

A CSI trial whose Q + E1 the package's one condition guard refuses
(``precoding.guarded_inverse``: one batched inverse per tone, an SVD only
for the trials its Frobenius bound flags) is resampled from its own (tone,
trial) stream.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .channel_model import ChannelEnsemble
from .errors import InvalidParams, SingularChannel, TargetUnreachable
from .precoding import E2_UNIFORM, PerturbationSpec, guarded_inverse, word_length
from .rate_analysis import LinkBudget, interference_ratio, interference_terms, loss_tail, rate_bits
from .rate_analysis import loss_arrays, worst_case_loss  # noqa: F401  (bench patches loss_arrays)

WORST_CASE = "worst_case"
MEAN = "mean"
QUANTILE = "quantile"

RETRY_CAP = 5  # fresh E1 draws per singular or ill-conditioned trial before giving up
MIN_SLICE = 8  # fewest trials worth a worker: a smaller n_trials runs on one
MAX_TRIALS = 2**32  # most trials per tone: a (2, n, p, p) complex workspace is 512 GiB at p = 2
CERT_MARGIN = 1e-9  # loss/rate a certified tone keeps below the target; the kernel errs ~1e-14
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
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise InvalidParams(f"n_trials must lie in 1..{MAX_TRIALS}")
        if self.spec.e2_model != E2_UNIFORM:
            raise InvalidParams(f"trials draw {E2_UNIFORM!r} errors, not {self.spec.e2_model!r}")
        if self.statistic not in (WORST_CASE, MEAN, QUANTILE):
            raise InvalidParams(f"unknown statistic {self.statistic!r}")
        if self.statistic == QUANTILE:
            if self.quantile_q is None or not 0.0 < self.quantile_q < 1.0:
                raise InvalidParams("quantile statistic needs q in (0, 1)")
        elif self.quantile_q is not None:
            raise InvalidParams(f"quantile_q is read only by the {QUANTILE!r} statistic")


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


def _reduce(losses: np.ndarray, config: TrialConfig, axis: int = 0) -> np.ndarray:
    """The configured statistic over the trial ``axis`` of ``losses``."""
    if config.statistic == WORST_CASE:
        return losses.max(axis=axis)
    if config.statistic == MEAN:
        return losses.mean(axis=axis)
    return np.quantile(losses, config.quantile_q, axis=axis)


def _engine_threads() -> int:
    """Worker threads of the trial engine: ``XTALK_THREADS``, or the usable
    cores when it is unset."""
    raw = os.environ.get("XTALK_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not raw.isdecimal() or int(raw) < 1:
        raise InvalidParams(f"XTALK_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _trial_slices(n: int, threads: int) -> list[int]:
    """Bounds of the workers' trial slices: at most ``threads`` slices of
    about ``MIN_SLICE`` trials or more, each starting on a multiple of 4."""
    count = max(1, min(threads, n // MIN_SLICE))
    units = -(-n // 4)
    return [min(n, 4 * (units * c // count)) for c in range(count + 1)]


class _Workspace:
    """One worker's trial buffers for its slice of n trials of p users, and
    how many of ``n_d`` word lengths share a kernel pass (``block``).

    U and Q U share one complex (2, n, p, p) buffer.  The draw passes through
    a float plane in Q U's first half, which the matmul overwrites only after
    U is filled; U then holds the |Delta_ij|^2 planes of ``interference_terms``
    (whose results are (n, p)).  After that U is spare, and so is Q U without
    E1: they hold the tone's snr, esnr and rate as (n, p) ``rows``, then a, q
    and the kernel's scratch (``ratio``) for as many word lengths as fit.  With
    E1 (Q U read at every d) U holds the ratio of one.  With p = 1 not even one
    fits, and it gets its own buffer.  Made once per worker, reused per tone.
    """

    def __init__(self, n: int, p: int, n_d: int, csi: bool):
        uq = np.empty((2, n, p, p), dtype=complex)
        self.u, self.qu = uq
        free = uq.reshape(-1).view(float).reshape(4 * p, n, p)  # (n, p) float rows
        self.plane = free[2 * p : 3 * p].reshape(n, p, p)
        self.terms = (free[: 2 * p].reshape(2, n, p, p), *np.empty((3, n, p)))
        rows, free = (0, free[: 2 * p]) if csi else (3, free)
        fit = (len(free) - rows) // 3
        if fit < 1:
            free, fit = np.empty((rows + 3, n, p)), 1
        self.block = min(fit, 1 if csi else n_d)
        self.rows = free[:rows]
        self.ratio = free[rows : rows + 3 * self.block].reshape(3, self.block, n, p)


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
    d_values = [word_length(int(d)) for d in d_values]  # refused before a long range is listed
    if not d_values:
        raise InvalidParams("no word lengths to simulate")
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
    tones=None,
) -> tuple:
    """The trial engine behind ``run_trials_sweep`` and ``min_bits_empirical``.

    Returns the per-tone statistic (len(d_values), p, tones), the rate
    (p, tones), with ``band_joint`` the per-trial losses summed over tones
    (len(d_values), n_trials, p) and else None, and the resampled trials,
    sorted by (tone, trial, attempt).

    With ``tones`` (ascending tone indices) only those tones are drawn, and
    the statistic and the rate hold only their columns.  A tone's stream is
    keyed by its index, so its draws do not depend on which tones are given.
    """
    p = ensemble.p
    n = config.n_trials
    seed, e1_samples = config.spec.seed, config.spec.e1_samples
    psd_lin = budget.psd_linear(p)
    tones = list(range(ensemble.grid.count)) if tones is None else [int(k) for k in tones]
    scales = np.array([2.0 ** (-d) for d in d_values])[:, None, None]
    snr_all = budget.snr(ensemble, tones)
    esnr_all = snr_all / budget.gap
    rate_all = rate_bits(esnr_all)
    tone_rows = np.stack((snr_all, esnr_all, rate_all), axis=1)[:, :, None]  # (tones, 3, 1, p)
    joint = np.zeros((len(d_values), n, p)) if band_joint else None
    threads = _engine_threads()
    if config.statistic != WORST_CASE:
        threads = 1  # one slice: see the module docstring
    bounds = _trial_slices(n, threads)
    at = [0] * (len(bounds) - 1)  # the tone each slice is on, to place its error

    def run_slice(w: int, t0: int, t1: int) -> tuple:
        """Every tone's trials t0..t1-1, in tone order: per (d, user, tone)
        the statistic of the slice, and ``band_joint``'s columns t0..t1-1."""
        ws = _Workspace(t1 - t0, p, len(d_values), csi=e1_samples is not None)
        scale_blocks = np.split(scales, range(ws.block, len(scales), ws.block))
        part = np.empty((len(d_values), p, len(tones)))
        failures: list = []
        for c, (k, snr) in enumerate(zip(tones, snr_all)):
            at[w] = c
            q_mat = ensemble.row_normalized(slice(k, k + 1))[0]  # the tone's own Q: no stack
            if config.zero_errors:
                ws.u.fill(0.0)
            else:
                rng = streams.stream(seed, streams.MC_E2, k)
                streams.uniform_complex(rng, ws.u.shape, ws.u, ws.plane, start=t0, total=n)
            qu = np.matmul(q_mat, ws.u, out=ws.qu)
            if e1_samples is None:
                terms = interference_terms(qu, psd_lin, out=ws.terms)
                rows = ws.rows  # over the planes, which ``terms`` no longer needs
                np.copyto(rows, tone_rows[c])
                per_block = ((terms, s) for s in scale_blocks)
            else:
                rows = tone_rows[c]  # one row, broadcast over the trials
                rng = streams.stream(seed, streams.MC_E1, k)
                e1 = streams.csi_error(rng, snr, e1_samples, (n,))[t0:t1]
                m_inv = _invert_with_resampling(q_mat, e1, snr, e1_samples, seed, k, t0, failures)
                e1_term = np.matmul(e1, m_inv, out=m_inv)
                deltas = (np.subtract(np.multiply(s, qu, out=e1), e1_term, out=e1) for s in scales)
                per_block = ((interference_terms(x, psd_lin, out=ws.terms), _UNIT_SCALE)
                             for x in deltas)
            snr_rows, esnr_rows, rate_rows = rows
            i = 0
            for (cross, re, im), s in per_block:
                k_d = s.shape[0]
                out = [b[:k_d] for b in ws.ratio]
                a, q = interference_ratio(snr_rows, cross, re, im, s, out=out)
                loss = loss_tail(rate_rows, esnr_rows, q, out=q)
                if band_joint:
                    joint[i : i + k_d, t0:t1] += loss
                if config.statistic == WORST_CASE:  # max along contiguous trials: exact
                    by_user = a.reshape(k_d, p, -1)
                    np.copyto(by_user, loss.transpose(0, 2, 1))
                    by_user.max(axis=-1, out=part[i : i + k_d, :, c])
                else:
                    part[i : i + k_d, :, c] = _reduce(loss, config, axis=1)
                i += k_d
        return part, failures

    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        runs = [pool.submit(run_slice, w, *bounds[w : w + 2]) for w in range(len(bounds) - 1)]
    errors = [(at[w], w) for w, run in enumerate(runs) if run.exception() is not None]
    if errors:
        raise runs[min(errors)[1]].exception()
    slices = [run.result() for run in runs]
    # a lone mean or quantile passes through
    per_tone = functools.reduce(np.maximum, [part for part, _ in slices])
    rate = np.ascontiguousarray(rate_all.T)
    return per_tone, rate, joint, sorted(f for _, failures in slices for f in failures)


def _invert_with_resampling(
    q_mat: np.ndarray,
    e1: np.ndarray,
    snr: np.ndarray,
    n_samples: int,
    seed: int,
    tone: int,
    t0: int,
    failures: list,
) -> np.ndarray:
    """inv(Q + E1) per trial of E1, whose rows are trials t0, t0 + 1, ...; a
    trial that ``guarded_inverse`` refuses gets fresh E1 draws from its own
    (tone, trial) stream (in place, so the caller's delta uses the same
    matrices), up to ``RETRY_CAP`` of them.  Failures and errors name the
    trial by its global index."""
    out, bad = guarded_inverse(q_mat[None, :, :] + e1)
    for t in bad.tolist():
        resampler = streams.stream(seed, streams.MC_E1_RESAMPLE, tone, t0 + t)
        for attempt in range(RETRY_CAP + 1):
            failures.append((tone, t0 + t, attempt))
            if attempt == RETRY_CAP:
                raise SingularChannel(
                    f"tone {tone} trial {t0 + t} singular or ill-conditioned after "
                    f"{RETRY_CAP} resamples",
                    tone=tone,
                )
            e1[t] = streams.csi_error(resampler, snr, n_samples)
            retry, still_bad = guarded_inverse(q_mat[None, :, :] + e1[t : t + 1])
            out[t] = retry[0]
            if not still_bad.size:
                break
    return out


def min_bits_empirical(
    ensemble: ChannelEnsemble,
    budget: LinkBudget,
    config: TrialConfig,
    target_eta: float,
    d_max: int = 32,
) -> int:
    """Smallest word length in 1..``d_max`` whose per-tone relative loss
    statistic meets ``target_eta``: the first passing d of
    ``run_trials_sweep``'s full table.

    Without estimation error, a tone is certified at d when its exact worst
    case (``worst_case_loss`` at half-width 2^-d) stays at least
    ``CERT_MARGIN`` below the target.  The first d certified on every tone
    passes, so only the word lengths below it are in the running.  The tones
    are walked in order: each is drawn once, at the word lengths still in the
    running that are not certified on it, and every d that misses on it (NaN
    misses) leaves the running.  The walk ends when none is left.  An error
    is raised only by a draw at word lengths still in the running, at any
    thread count.
    """
    if not 0.0 < target_eta <= 1.0:
        raise InvalidParams("target_eta must lie in (0, 1]")
    word_length(d_max, "d_max")
    if config.spec.e1_samples is None:  # per (d, tone): the supremum meets the target at d
        widths = np.array([2.0 ** (-d) for d in range(1, d_max + 1)])[:, None]
        sup = worst_case_loss(budget, ensemble, widths)
        sup /= rate_bits(budget.snr(ensemble) / budget.gap).T  # in place, by the engine's rate
        certified = np.all(sup <= target_eta - CERT_MARGIN, axis=1)
        del sup  # the walk reads only the flags
    else:
        certified = np.zeros((d_max, ensemble.grid.count), dtype=bool)
    top = next((d for d in range(1, d_max + 1) if certified[d - 1].all()), None)
    running = list(range(1, top or d_max + 1))
    for k in range(ensemble.grid.count):
        if not running:
            break
        drawn_d = [d for d in running if not certified[d - 1, k]]
        if drawn_d:
            per_tone, drawn_rate, _, _ = _sweep_tones(
                ensemble, budget, config, drawn_d, band_joint=False, tones=[k]
            )
            eta = per_tone / drawn_rate  # (len(drawn_d), p, 1)
            missed = {d for d, e in zip(drawn_d, eta) if not np.all(e <= target_eta)}
            running = [d for d in running if d not in missed]
    if running:
        return running[0]
    if top:
        return top
    statistic = {WORST_CASE: "worst-case", MEAN: "mean"}.get(
        config.statistic, f"{config.quantile_q}-quantile"
    )
    raise TargetUnreachable(f"{statistic} relative loss still above {target_eta} at d={d_max}")
