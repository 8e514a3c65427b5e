"""Exact per-tone and band transmission rates, losses, and relative losses.

With the equivalent channel D (I + Delta), user i at tone f sees

    rate      R_i(f)  = log2(1 + SNR_i(f) / Gamma)
    loss      L_i(f)  = -log2(1 - k_i (1 - q_i))

where, writing eSNR = SNR/Gamma,

    a_i = sum_{j != i} (P_j / P_i) |Delta_ij|^2 * SNR_i      (gap-independent)
    q_i = |1 + Delta_ii|^2 / (a_i + 1)
    k_i = eSNR_i / (eSNR_i + 1).

The loss is evaluated (``loss_tail``) through the algebraically identical form
log2(1 + eSNR) - log2(1 + eSNR * q), which avoids the cancellation in
1 - k at high SNR; both ``a`` and ``q`` are reported as defined.
Band quantities are rectangle-rule sums (each tone owns one bin of width
``grid.spacing``).

``worst_case_loss`` gives the exact supremum of every user's loss over a box
of quantization errors, in closed form (see its docstring), and
``min_bits_worst_case`` each tone's first word length whose supremum meets a
target, by bisection: the boxes are nested, so the supremum grows with h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
        with np.errstate(over="ignore"):  # an overflow to inf is refused below
            linear = (db_to_linear(psd), db_to_linear(self.noise_dbm_hz), self.gap)
        for name, value in zip(("per-user PSD", "noise PSD", "Shannon gap"), linear):
            if not np.all(np.isfinite(value) & (value > 0.0)):
                raise InvalidBudget(f"{name} is not a finite, positive linear power")

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

    def snr(self, ensemble: ChannelEnsemble, tones: slice = slice(None)) -> np.ndarray:
        """(tones, p) raw (gap-free) linear SNR_i = P_i |d_ii|^2 / noise, of
        every tone or of the block ``tones``."""
        p_lin = self.psd_linear(ensemble.p)
        return p_lin * np.abs(ensemble.D[tones]) ** 2 / self.noise_linear()

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


def rate_bits(esnr, out: np.ndarray | None = None) -> np.ndarray:
    """log2(1 + ``esnr``), eSNR = SNR/Gamma; into ``out`` (may be ``esnr``) when given."""
    return np.divide(np.log1p(esnr, out=out), LN2, out=out)


def loss_tail(rate, esnr, q, out: np.ndarray | None = None) -> np.ndarray:
    """The loss ``rate`` - log2(1 + ``esnr`` q) at ``q``; into ``out`` (may be q) if given."""
    return np.subtract(rate, rate_bits(np.multiply(esnr, q, out=out), out=out), out=out)


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
    rate = rate_bits(esnr)
    return {"loss": loss_tail(rate, esnr, q), "rate": rate, "a": a, "q": q, "k": k}


def interference_terms(
    delta: np.ndarray, psd_lin: np.ndarray, out: tuple | None = None
) -> tuple:
    """The O(p^2) half of the loss kernel.

    Returns ``cross`` = sum_{j != i} (P_j / P_i) |Delta_ij|^2 and the real and
    imaginary parts of the diagonal Delta_ii, each a contiguous (..., p) array.
    Scaling ``delta`` by a power of two scales Delta_ii by it and ``cross`` by
    its square, exactly.  ``out`` = (planes, cross, re, im) takes the results
    in caller-owned buffers: ``planes`` is a float scratch of shape
    (2, ..., p, p) that must not overlap ``delta``, the rest are (..., p).
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
    # P_i |Delta_ii|^2, in the planes: they are free once ``cross`` is formed
    sq = planes.reshape(-1)[: 2 * re.size].reshape(2, *re.shape)
    np.add(np.square(re, out=sq[0]), np.square(im, out=sq[1]), out=sq[0])
    tot -= np.multiply(sq[0], psd_lin, out=sq[0])
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
    # min and max propagate nan, and between them reach any inf: no bool temporaries
    if not np.isfinite((a.min(), a.max(), q.min(), q.max())).all():
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
    """Exact losses for all users over all tones; ``deltas`` is (tones, p, p).

    The kernel runs on ``ensemble.tone_blocks()``, the blocks ``make_bundle``
    walks, into preallocated (p, tones) columns, so its temporaries grow with
    the block and not the grid.  It is elementwise per tone, so every bit is
    the whole-stack call's; the band sums run over the full columns.
    """
    deltas = np.asarray(deltas, dtype=complex)
    if deltas.shape != ensemble.H.shape:
        raise InvalidBudget(f"Delta stack of shape {deltas.shape} for channels {ensemble.H.shape}")
    p, n = ensemble.p, ensemble.grid.count
    psd = budget.psd_linear(p)
    # (p, tones), C-ordered: a user's band sum reads one contiguous row
    cols = {key: np.empty((p, n)) for key in ("rate", "loss", "a", "q", "k")}
    for tones in ensemble.tone_blocks():
        out = loss_arrays(budget.snr(ensemble, tones), budget.gap, psd, deltas[tones])
        for key, col in cols.items():
            col[:, tones] = out[key].T
    spacing = ensemble.grid.spacing
    band_rate = cols["rate"].sum(axis=1) * spacing
    band_loss = cols["loss"].sum(axis=1) * spacing
    eta = np.divide(band_loss, band_rate, out=np.full(p, np.nan), where=band_rate != 0.0)
    return LossReport(band_rate=band_rate, band_loss=band_loss, eta=eta, **cols)


def worst_case_loss(
    budget: LinkBudget, ensemble: ChannelEnsemble, half_width
) -> np.ndarray:
    """Exact supremum of every user's loss on every tone under Delta = Q E2,
    over all E2 whose real and imaginary parts lie in [-h, h], h = ``half_width``.

    Delta_ij = sum_m Q_im E2_mj, so every entry of row i ranges over one
    zonotope Z_i with the 2p generators h Q_im and i h Q_im, and the columns
    of E2 are free of each other.  q_i therefore falls as low as
    dist(-1, Z_i)^2 / (1 + SNR_i R_i^2 sum_{j != i} P_j / P_i), where
    R_i = max |Z_i| is reached by every off-diagonal entry at once and
    dist(-1, Z_i) by the diagonal one; the loss is ``loss_tail`` at that q.
    Z_i's vertices: flip each generator into the upper half-plane, sort them
    by angle, v_0 = sum g and v_k = v_{k-1} - 2 g_(k), k = 1..2p; the negated
    chain closes the polygon.

    ``half_width`` (> 0) broadcasts against the tones: a float or a (tones,)
    array gives (p, tones), and a (k, 1) or (k, tones) array gives
    (k, p, tones).  The tones are taken in ``ensemble.tone_blocks``, sized by
    the largest temporary per tone, Q too, so the temporaries grow with
    neither the tone count nor the number of widths.  Each block's polygons
    are built once at unit half-width (``_zonotopes``) and evaluated at every
    width (``_supremum``: R scales by h, dist(-1, hZ) = h dist(-1/h, Z)), so
    a tone's bits do not depend on its block or on the other widths.  The
    supremum only grows with h, the boxes being nested, so a search for the
    first word length that meets a target bisects (``min_bits_worst_case``,
    0.2 s on the 30a plan at 1 %) rather than evaluating all 32 half-widths
    here (0.9 s).
    """
    n_tones, p = ensemble.grid.count, ensemble.p
    widths = np.asarray(half_width, dtype=float)
    widths = np.broadcast_to(widths, np.broadcast_shapes(widths.shape, (n_tones,)))
    if not np.all(np.isfinite(widths) & (widths > 0.0)):
        raise InvalidParams("half_width must be positive and finite")
    out = np.empty((*widths.shape[:-1], p, n_tones))
    for tones in ensemble.tone_blocks(_tone_bytes(p, widths[..., 0].size)):
        loss = _supremum(_zonotopes(budget, ensemble, tones), widths[..., tones, None])
        out[..., tones] = np.swapaxes(loss, -1, -2)
    return out


def min_bits_worst_case(
    budget: LinkBudget, ensemble: ChannelEnsemble, eta_max: float, d_max: int
) -> np.ndarray:
    """Per tone, the smallest word length d in 1..``d_max`` at which every
    user's ``worst_case_loss`` at half-width 2^-d is at most ``eta_max`` of
    its rate, or ``d_max`` + 1 where no d is; an int array of the tones.

    Every E2 of the box of half-width h' <= h lies in the box of half-width
    h, so the exact supremum can only grow with h: a tone that meets
    ``eta_max`` at d meets it at every larger d, up to the closed form's
    rounding (about 1e-14 of the rate).  So the word length is found by a
    bisection over the tones at once, d_max.bit_length() steps (6 at
    d_max = 32) of one half-width per tone, each step the value
    ``worst_case_loss`` gives there, bit for bit.  The tones are taken in
    ``ensemble.tone_blocks`` sized for one half-width per tone (39 tones at
    p = 10), and each block's polygons are built once for all its steps.
    """
    if d_max < 1:  # no step would run, and every tone would read 1
        raise InvalidParams(f"d_max must be at least 1, got {d_max}")
    p = ensemble.p
    first = np.empty(ensemble.grid.count, dtype=int)
    for tones in ensemble.tone_blocks(_tone_bytes(p, 1)):
        zonotopes = _zonotopes(budget, ensemble, tones)
        missed = np.zeros(len(zonotopes.rate), dtype=int)  # the largest d known to miss, or 0
        for step in (1 << b for b in reversed(range(int(d_max).bit_length()))):
            d = missed + step
            h = np.ldexp(1.0, -np.minimum(d, d_max))[:, None]
            eta = _supremum(zonotopes, h)
            eta /= zonotopes.rate
            meets = np.all(eta <= eta_max, axis=-1)
            missed = np.where((d <= d_max) & ~meets, d, missed)
        first[tones] = missed + 1
        del zonotopes  # before the next block's are built
    return first


def _tone_bytes(p: int, n_widths: int) -> int:
    """The largest temporary per tone of ``_supremum`` at ``n_widths``
    half-widths: (widths, p, 2p) floats, or the (p, 2p + 1) complex chain."""
    return max(n_widths, 2) * p * (2 * p + 1) * 8


class _Zonotopes(NamedTuple):
    radius: np.ndarray  # (tones, p)
    edges: tuple  # (ar, ai, er, ei, |e|^2): edge k runs from a_k along e_k, (tones, p, 2p)
    snr: np.ndarray  # (tones, p), and so are esnr and rate
    esnr: np.ndarray
    rate: np.ndarray
    spread: np.ndarray  # (p,)


def _zonotopes(budget: LinkBudget, ensemble: ChannelEnsemble, tones: slice) -> _Zonotopes:
    """What ``_supremum`` reads of the block ``tones``, none of it depending
    on the half-width: R_i = max |Z_i|, (tones, p), the edges of Z_i's
    polygon at unit half-width, and the block's snr, esnr, rate and the PSD
    spread sum_{j != i} P_j / P_i, for every row i of every tone's Q.

    The chain v_0..v_2p is the half of Z_i's boundary whose outward normals
    n have Re n <= 0.  An edge that separates x < 0 from Z_i has
    <n, x> > max_Z <n, z> >= 0 (Z_i holds 0), so Re n < 0, and so does the
    nearest boundary point's normal, x - z: the chain's edges decide both.
    """
    q_mat = ensemble.row_normalized(tones)
    g = np.concatenate((q_mat, 1j * q_mat), axis=-1)  # (tones, p, 2p) generators
    g = np.where((g.imag < 0.0) | ((g.imag == 0.0) & (g.real < 0.0)), -g, g)
    g = np.take_along_axis(g, np.argsort(np.angle(g), axis=-1), axis=-1)
    top = g.sum(axis=-1, keepdims=True)
    chain = np.concatenate((top, top - 2.0 * np.cumsum(g, axis=-1)), axis=-1)  # counterclockwise
    radius = np.abs(chain).max(axis=-1)
    ar, ai = chain.real[..., :-1], chain.imag[..., :-1]
    edge = np.diff(chain, axis=-1)
    er, ei = edge.real, edge.imag
    psd = budget.psd_linear(ensemble.p)
    snr = budget.snr(ensemble, tones)
    esnr = snr / budget.gap
    edges = (ar, ai, er, ei, np.square(er) + np.square(ei))
    return _Zonotopes(radius, edges, snr, esnr, rate_bits(esnr), (psd.sum() - psd) / psd)


def _supremum(zonotopes: _Zonotopes, h: np.ndarray) -> np.ndarray:
    """Every user's ``worst_case_loss`` on the block of ``zonotopes`` at the
    half-widths ``h``, (..., tones, 1): R_i h and dist(-1, h Z_i) =
    h dist(-1/h, Z_i), the latter from the polygon's edges; (..., tones, p)."""
    radius, (ar, ai, er, ei, length2), snr, esnr, rate, spread = zonotopes
    x = (-1.0 / h)[..., None]
    inside = np.all(ei * ar - er * ai >= ei * x, axis=-1)  # cross(e_k, x - a_k) >= 0
    t = np.zeros(np.broadcast_shapes(x.shape, er.shape))
    # a zero generator (Q = I off the diagonal) gives a zero-length edge: t = 0 there
    np.divide(er * (x - ar) - ei * ai, length2, out=t, where=length2 > 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    near = np.hypot(x - ar - t * er, ai + t * ei).min(axis=-1)
    dist = np.where(inside, 0.0, near)
    q = np.square(dist * h) / (1.0 + snr * np.square(radius * h) * spread)
    return loss_tail(rate, esnr, q, out=q)
