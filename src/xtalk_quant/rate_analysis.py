"""Exact per-tone and band transmission rates, losses, and relative losses.

With the equivalent channel D (I + Delta), user i at tone f sees

    rate      R_i(f)  = log2(1 + SNR_i(f) / Gamma)
    loss      L_i(f)  = -log2(1 - k_i (1 - q_i))

where, writing eSNR = SNR/Gamma,

    a_i = sum_{j != i} (P_j / P_i) |Delta_ij|^2 * SNR_i      (gap-independent)
    q_i = |1 + Delta_ii|^2 / (a_i + 1)
    k_i = eSNR_i / (eSNR_i + 1).

The loss is evaluated through the algebraically identical form
log2(1 + eSNR) - log2(1 + eSNR * q), which avoids the cancellation in
1 - k at high SNR; both ``a`` and ``q`` are reported as defined.
Band quantities are rectangle-rule sums (each tone owns one bin of width
``grid.spacing``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel_model import ChannelEnsemble, ToneGrid
from .errors import InvalidBudget, InvalidParams, NumericalError
from .units import LN2, db_to_linear


@dataclass(frozen=True)
class LinkBudget:
    """Per-user transmit PSD, noise PSD, and Shannon gap over a tone grid.

    PSDs are in dBm/Hz; ``psd_dbm_hz`` may be one value (equal PSDs) or one
    per user.  Only PSD/noise *ratios* enter any formula.
    """

    psd_dbm_hz: float | Sequence[float]
    noise_dbm_hz: float
    gamma_db: float
    grid: ToneGrid

    def __post_init__(self):
        psd = np.atleast_1d(np.asarray(self.psd_dbm_hz, dtype=float))
        if psd.ndim != 1 or not np.all(np.isfinite(psd)):
            raise InvalidBudget("per-user PSD must be a finite scalar or 1-D list")
        if not np.isfinite(self.noise_dbm_hz):
            raise InvalidBudget("noise PSD must be finite")
        if not np.isfinite(self.gamma_db) or self.gamma_db < 0:
            raise InvalidBudget("Shannon gap must be finite and >= 0 dB")

    @property
    def gap(self) -> float:
        return float(db_to_linear(self.gamma_db))

    def psd_linear(self, p: int) -> np.ndarray:
        psd = np.atleast_1d(np.asarray(self.psd_dbm_hz, dtype=float))
        if psd.size == 1:
            psd = np.full(p, psd[0])
        if psd.size != p:
            raise InvalidBudget(f"{psd.size} PSD entries for {p} users")
        return db_to_linear(psd)

    def noise_linear(self) -> float:
        return float(db_to_linear(self.noise_dbm_hz))

    def snr(self, ensemble: ChannelEnsemble) -> np.ndarray:
        """(tones, p) raw (gap-free) linear SNR_i = P_i |d_ii|^2 / noise."""
        p_lin = self.psd_linear(ensemble.p)
        return p_lin * np.abs(ensemble.D) ** 2 / self.noise_linear()

    def snr_matrix(self, ensemble: ChannelEnsemble) -> np.ndarray:
        """(p, tones) raw SNR array."""
        return np.ascontiguousarray(self.snr(ensemble).T)

    def psd_dynamic_range(self, p: int) -> float:
        """P_max / P_min over users with nonzero PSD (the SPSD(rho) width)."""
        p_lin = self.psd_linear(p)
        return float(p_lin.max() / p_lin.min())


@dataclass(frozen=True)
class ToneLoss:
    """Exact per-tone loss record for one user."""

    freq: float
    user: int
    rate: float
    rate_perturbed: float
    loss: float
    a: float
    q: float
    k: float


@dataclass
class LossReport:
    """Per-tone and band losses for every user of an ensemble.

    Band figures are rectangle-rule sums in bits/s, one per user; ``eta`` is
    band_loss / band_rate, NaN for a user whose band rate is zero.
    """

    rate: np.ndarray            # (p, tones) bits/s/Hz
    loss: np.ndarray            # (p, tones) bits/s/Hz
    a: np.ndarray
    q: np.ndarray
    k: np.ndarray
    band_rate: np.ndarray       # (p,) bits/s
    band_loss: np.ndarray       # (p,) bits/s
    eta: np.ndarray             # (p,)

    @property
    def rate_perturbed(self) -> np.ndarray:
        return self.rate - self.loss


def loss_arrays(
    snr: np.ndarray, gap: float, psd_lin: np.ndarray, delta: np.ndarray
) -> dict:
    """Vectorized exact-loss kernel.

    ``delta`` has shape (..., p, p); returns arrays of shape (..., p) for
    loss, rate, a, q, k.
    """
    esnr = snr / gap
    a, q = interference_ratio(snr, *interference_terms(delta, psd_lin))
    k = esnr / (esnr + 1.0)
    rate = np.log1p(esnr) / LN2
    loss = rate - np.log1p(esnr * q) / LN2
    return {"loss": loss, "rate": rate, "a": a, "q": q, "k": k}


def interference_terms(
    delta: np.ndarray, psd_lin: np.ndarray, out: tuple | None = None
) -> tuple:
    """The O(p^2) half of the loss kernel.

    Returns ``cross`` = sum_{j != i} (P_j / P_i) |Delta_ij|^2 and the real and
    imaginary parts of the diagonal Delta_ii, each a contiguous (..., p) array.
    Scaling ``delta`` by a power of two scales Delta_ii by it and ``cross`` by
    its square, exactly.  ``out`` = (planes, cross, re, im) takes the results
    in caller-owned buffers: ``planes`` is a C-contiguous float scratch of
    shape (2, ..., p, p) that must not overlap ``delta``, the rest are (..., p).
    """
    if out is None:
        out = np.empty((2, *delta.shape)), *np.empty((3, *delta.shape[:-1]))
    planes, cross, re, im = out
    ad2 = np.square(delta.real, out=planes[0])
    ad2 += np.square(delta.imag, out=planes[1])
    tot = np.matmul(ad2, psd_lin, out=cross)
    dii = np.diagonal(delta, axis1=-2, axis2=-1)
    np.copyto(re, dii.real)  # the trial engine reads them once per d
    np.copyto(im, dii.imag)
    # P_i |Delta_ii|^2, in the planes, which are free once tot is formed
    own, own_im = (plane.reshape(-1)[: re.size].reshape(re.shape) for plane in planes)
    np.square(re, out=own)
    own += np.square(im, out=own_im)
    own *= psd_lin
    tot -= own
    np.maximum(tot, 0.0, out=tot)
    tot /= psd_lin
    return cross, re, im


def interference_ratio(
    snr: np.ndarray,
    cross: np.ndarray,
    re: np.ndarray,
    im: np.ndarray,
    scale: float = 1.0,
    out: tuple | None = None,
) -> tuple:
    """``a`` and ``q`` of every user under the perturbation ``scale`` * Delta,
    from Delta's ``interference_terms``; ``scale`` is a power of two, or an
    array of them that broadcasts against the terms (a block of word lengths
    along a leading axis), so the scaled terms are exact.  ``out`` = (a, q,
    scratch) takes them in caller-owned buffers of the broadcast shape of
    ``cross``, ``snr`` and ``scale``.  Raises ``NumericalError`` if either is
    not finite."""
    if out is None:
        shape = np.broadcast_shapes(cross.shape, np.shape(snr), np.shape(scale))
        out = np.empty((3, *shape))
    a, q, tmp = out
    np.multiply(cross, scale * scale, out=a)
    a *= snr
    np.multiply(re, scale, out=q)
    q += 1.0
    np.square(q, out=q)
    q += np.square(np.multiply(im, scale, out=tmp), out=tmp)
    q /= np.add(a, 1.0, out=tmp)
    if not (np.isfinite(a).all() and np.isfinite(q).all()):
        raise NumericalError("non-finite interference statistics")
    return a, q


def loss_exact(
    budget: LinkBudget, channel: ChannelEnsemble, delta: np.ndarray, user: int
) -> ToneLoss:
    """Exact rate loss of one user of a one-tone ensemble under the p x p
    perturbation ``delta``; negative values (gains) kept."""
    if channel.grid.count != 1:
        raise InvalidParams(f"expected a one-tone ensemble, got {channel.grid.count} tones")
    delta = np.asarray(delta, dtype=complex)
    if not np.all(np.isfinite(delta)):
        raise InvalidBudget("Delta must be finite")
    out = loss_arrays(budget.snr(channel)[0], budget.gap, budget.psd_linear(channel.p), delta)
    return ToneLoss(
        freq=channel.grid.f_start,
        user=user,
        rate_perturbed=float(out["rate"][user] - out["loss"][user]),
        **{key: float(values[user]) for key, values in out.items()},
    )


def build_report(
    budget: LinkBudget, ensemble: ChannelEnsemble, deltas: np.ndarray
) -> LossReport:
    """Exact losses for all users over all tones; ``deltas`` is (tones, p, p)."""
    deltas = np.asarray(deltas, dtype=complex)
    if deltas.shape != ensemble.H.shape:
        raise InvalidBudget(f"Delta stack of shape {deltas.shape} for channels {ensemble.H.shape}")
    p = ensemble.p
    out = loss_arrays(budget.snr(ensemble), budget.gap, budget.psd_linear(p), deltas)
    # (p, tones), C-ordered: a user's band sum reads one contiguous row
    cols = {key: np.ascontiguousarray(out[key].T) for key in ("rate", "loss", "a", "q", "k")}
    spacing = ensemble.grid.spacing
    band_rate = cols["rate"].sum(axis=1) * spacing
    band_loss = cols["loss"].sum(axis=1) * spacing
    eta = np.divide(band_loss, band_rate, out=np.full(p, np.nan), where=band_rate != 0.0)
    return LossReport(band_rate=band_rate, band_loss=band_loss, eta=eta, **cols)
