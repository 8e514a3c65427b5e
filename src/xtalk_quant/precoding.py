"""Ideal diagonalizing precoder, word-length quantization, and the equivalent
channel perturbation.

The zero-forcing precoder is P = (I + D^{-1}F)^{-1} = H^{-1} D, which turns
the precoded channel into pure per-user direct gains.  A perturbed precoder

    P~ = (I + D^{-1}F + E1)^{-1} + E2

(E1: channel estimation error, E2: precoder quantization error) yields an
equivalent channel D (I + Delta) with

    Delta = (I + D^{-1}F) E2 - E1 (I + D^{-1}F + E1)^{-1}.

Everything here is pure and works on whole tone stacks: the channel is a
``ChannelEnsemble`` and matrices are (tones, p, p) arrays, each tone computed
independently.  Batching over trials lives in :mod:`xtalk_quant.monte_carlo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .channel_model import ChannelEnsemble
from .errors import InvalidParams, NumericalError, RangeError, SingularChannel
from .units import SQRT2

COND_LIMIT = 1e12
IDENTITY_CHECK_TOL = 1e-10

E2_DETERMINISTIC = "deterministic_rounding"
E2_UNIFORM = "uniform_random"


@dataclass(frozen=True)
class PerturbationSpec:
    """Word length and error models for one experiment.

    ``d_bits`` counts mantissa bits per real/imaginary component (sign
    excluded); ``e1_samples`` is the channel-estimation sample count (None for
    perfect channel knowledge).
    """

    d_bits: int
    e2_model: str = E2_DETERMINISTIC
    e1_samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.d_bits < 1:
            raise InvalidParams("d_bits must be >= 1")
        if self.e2_model not in (E2_DETERMINISTIC, E2_UNIFORM):
            raise InvalidParams(f"unknown e2 model {self.e2_model!r}")
        if self.e1_samples is not None and self.e1_samples < 1:
            raise InvalidParams("e1_samples must be >= 1 when set")

    @property
    def step(self) -> float:
        return 2.0 ** (-self.d_bits)


@dataclass(frozen=True)
class QuantizedPrecoder:
    """Quantized stack, its error E2 and the per-tone block scale."""

    p_quantized: np.ndarray
    e2: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class PrecoderBundle:
    """Stacks over tones; ``e1`` is None without an estimation-error model."""

    p_ideal: np.ndarray
    p_perturbed: np.ndarray
    e1: np.ndarray | None
    e2: np.ndarray
    delta: np.ndarray
    scale: np.ndarray


def ideal_precoder(channel: ChannelEnsemble) -> np.ndarray:
    """Solve H P = diag(D) on every tone with one refinement step; refuse
    tones whose condition number exceeds ``COND_LIMIT`` (the first one found
    raises)."""
    H = channel.H
    cond = np.linalg.cond(H)
    bad = np.flatnonzero(~(cond <= COND_LIMIT))  # also catches nan
    if bad.size:
        k = int(bad[0])
        raise SingularChannel(
            f"channel condition estimate {cond[k]:.3e} exceeds {COND_LIMIT:.1e} "
            f"at f={channel.grid.freq(k)} Hz",
            tone=k,
        )
    rhs = np.zeros_like(H)
    idx = np.arange(channel.p)
    rhs[:, idx, idx] = channel.D
    P = np.linalg.solve(H, rhs)
    P += np.linalg.solve(H, rhs - H @ P)
    return P


def quantize_precoder(
    P: np.ndarray, spec: PerturbationSpec, normalize: bool = False
) -> QuantizedPrecoder:
    """Represent each real/imag component of a (..., p, p) stack with
    ``d_bits`` fractional bits.

    Deterministic rounding maps each component to the nearest multiple of
    2^-d (error <= 2^-d-1); the uniform model adds i.i.d. errors on
    [-2^-d, 2^-d], drawn for matrix k of the stack from stream (E2, k).
    Entries must lie in the unit box; with ``normalize`` a matrix that leaves
    it is pre-divided by the smallest power of two that brings it back
    instead (the reported ``e2`` is the error of the *deployed* precoder,
    i.e. already rescaled).
    """
    P = np.asarray(P, dtype=complex)
    box = np.maximum(np.abs(P.real).max(axis=(-2, -1)), np.abs(P.imag).max(axis=(-2, -1)))
    outside = box > 1.0
    if np.any(outside) and not normalize:
        k = int(np.flatnonzero(outside)[0])
        raise RangeError(
            f"precoder entry magnitude {box.flat[k]:.6f} outside the unit box "
            f"(matrix {k}); pass normalize=True to apply block scaling",
            tone=k,
        )
    mant, expo = np.frexp(box)
    scale = np.where(outside, np.ldexp(1.0, expo - (mant == 0.5)), 1.0)
    work = np.where(outside[..., None, None], P / scale[..., None, None], P)

    if spec.e2_model == E2_DETERMINISTIC:
        s = 2.0**spec.d_bits
        pq = (np.round(work.real * s) + 1j * np.round(work.imag * s)) / s
    else:
        p = P.shape[-1]
        u = np.empty((box.size, p, p), dtype=complex)
        plane = np.empty((p, p))
        for k in range(box.size):
            streams.uniform_complex(streams.stream(spec.seed, streams.E2, k), (p, p), u[k], plane)
        pq = work + spec.step * u.reshape(P.shape)

    pq = pq * scale[..., None, None]
    return QuantizedPrecoder(p_quantized=pq, e2=pq - P, scale=scale)


def build_delta(channel: ChannelEnsemble, e1: np.ndarray | None, e2: np.ndarray) -> np.ndarray:
    """Equivalent-channel perturbation of every tone for given error stacks.

    Also re-derives H P~ = D (I + Delta) from scratch and fails loudly if the
    identity does not hold to ``IDENTITY_CHECK_TOL`` (relative to max |d_ii|)
    on some tone.
    """
    Q = channel.Q
    eye = np.eye(channel.p)
    e2 = np.asarray(e2, dtype=complex)
    delta = Q @ e2
    if e1 is None or not np.any(e1):
        p_perturbed = _solve(channel, Q, eye)
    else:
        e1 = np.asarray(e1, dtype=complex)
        p_perturbed = _solve(channel, Q + e1, eye)  # (I + D^{-1}F + E1)^{-1}
        delta -= e1 @ p_perturbed
    p_perturbed += e2
    resid = channel.H @ p_perturbed  # H P~ - D (I + Delta), formed in place
    rhs = np.add(delta, eye, out=p_perturbed)  # P~ is not needed any more
    rhs *= channel.D[:, :, None]
    resid -= rhs
    del p_perturbed, rhs
    err = np.max(np.abs(resid), axis=(1, 2)) / np.max(np.abs(channel.D), axis=1)
    bad = np.flatnonzero(~(err < IDENTITY_CHECK_TOL))
    if bad.size:
        k = int(bad[0])
        raise NumericalError(
            f"equivalent-channel identity violated: residual {err[k]:.3e} at "
            f"f={channel.grid.freq(k)} Hz",
            tone=k,
        )
    return delta


def _solve(channel: ChannelEnsemble, m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the (tones, p, p) systems; the first singular or non-finite tone raises."""
    try:
        out = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        out = np.full(m.shape, np.nan, dtype=complex)
        for k, mk in enumerate(m):  # find the singular tone
            try:
                out[k] = np.linalg.solve(mk, rhs)
            except np.linalg.LinAlgError:
                break
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
    if bad.size:
        k = int(bad[0])
        raise SingularChannel(f"singular system at f={channel.grid.freq(k)} Hz", tone=k)
    return out


def delta_entry_bound(channel: ChannelEnsemble, d_bits: int) -> np.ndarray:
    """2^(-d+1/2) (1 + r) per tone: entrywise ceiling on Delta under
    quantization only."""
    return SQRT2 * 2.0 ** (-d_bits) * (1.0 + channel.r)


def make_bundle(
    channel: ChannelEnsemble,
    spec: PerturbationSpec,
    snr: np.ndarray | None = None,
    normalize: bool = False,
) -> PrecoderBundle:
    """Ideal precoders, their perturbation per ``spec``, and the resulting
    Delta, for every tone.

    With an estimation-error model (``snr``: the (tones, p) raw SNR) the
    quantizer acts on the *estimated* precoder (I + D^{-1}F + E1)^{-1},
    matching the additive error split; tone k's E1 comes from stream (E1, k).
    """
    p_ideal = ideal_precoder(channel)
    e1 = None
    p_estimated = p_ideal
    if spec.e1_samples is not None:
        if snr is None:
            raise InvalidParams("snr required for the estimation-error model")
        e1 = np.stack([
            streams.csi_error(streams.stream(spec.seed, streams.E1, k), snr[k], spec.e1_samples)
            for k in range(channel.grid.count)
        ])
        p_estimated = _solve(channel, channel.Q + e1, np.eye(channel.p))

    quant = quantize_precoder(p_estimated, spec, normalize=normalize)
    delta = build_delta(channel, e1, quant.e2)
    return PrecoderBundle(
        p_ideal=p_ideal,
        p_perturbed=quant.p_quantized,
        e1=e1,
        e2=quant.e2,
        delta=delta,
        scale=quant.scale,
    )
