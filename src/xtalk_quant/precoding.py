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
independently.  H for the ideal precoder and I + D^{-1}F + E1 for the
estimated one pass the package's one condition guard, ``guarded_inverse``
(the trial engine's too): a tone whose condition number exceeds
``COND_LIMIT`` raises ``SingularChannel``.  It costs one batched inverse, and
an SVD only on the tones that ||M||_F ||inv(M)||_F flags.
Batching over trials lives in :mod:`xtalk_quant.monte_carlo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .channel_model import ChannelEnsemble
from .errors import InvalidParams, NumericalError, RangeError, SingularChannel

COND_LIMIT = 1e12
IDENTITY_CHECK_TOL = 1e-10
BUNDLE_BLOCK = 256  # tones per make_bundle block: its temporaries grow with the block, not the grid
MAX_BITS = 64  # longest word length any command takes: past the double mantissa's 53 bits already
MAX_CSI_SAMPLES = 2**64  # training symbols per estimate: a 64-bit count (past 1e308, no float)

E2_DETERMINISTIC = "deterministic_rounding"
E2_UNIFORM = "uniform_random"


def word_length(d, name: str = "word length"):
    """``d``, once it lies in 1..``MAX_BITS``; refused with ``InvalidParams``
    otherwise, before anything is sized by it."""
    if not 1 <= d <= MAX_BITS:
        raise InvalidParams(f"{name} must lie in 1..{MAX_BITS}, got {d}")
    return d


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
        word_length(self.d_bits, "d_bits")
        if self.e2_model not in (E2_DETERMINISTIC, E2_UNIFORM):
            raise InvalidParams(f"unknown e2 model {self.e2_model!r}")
        if self.e1_samples is not None and not 1 <= self.e1_samples <= MAX_CSI_SAMPLES:
            raise InvalidParams(f"e1_samples must be >= 1 and at most {MAX_CSI_SAMPLES} when set")
        streams.check_seed(self.seed)  # refused here, before any stream is drawn

    @property
    def step(self) -> float:
        return 2.0 ** (-self.d_bits)


@dataclass(frozen=True)
class QuantizedPrecoder:
    """The quantization error E2 and the per-tone block scale."""

    e2: np.ndarray
    scale: np.ndarray


def _cond(m: np.ndarray) -> float:
    """2-norm condition number of the matrix ``m``; inf if it is not finite."""
    return np.linalg.cond(m) if np.isfinite(m).all() else np.inf  # the SVD refuses nan and inf


def guarded_inverse(m: np.ndarray) -> tuple:
    """inv(M) of every matrix of the (n, p, p) stack ``m``, and the indices of
    those refused: singular to LAPACK, or a condition number above
    ``COND_LIMIT``.  ||M||_F ||inv(M)||_F >= cond_2(M) is read off the
    inverse, so only the matrices it flags pay for an SVD.  If LAPACK
    refuses the batch, the matrices are inverted one at a time."""
    bad = np.zeros(len(m), dtype=bool)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv = np.full_like(m, np.nan)
        for t in range(len(m)):
            try:
                inv[t] = np.linalg.inv(m[t])
            except np.linalg.LinAlgError:
                bad[t] = True
    planes = (x.reshape(len(x), -1).view(float) for x in (m, inv))
    norm2 = [np.einsum("ti,ti->t", x, x) for x in planes]  # squared Frobenius norms
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny or huge scale: 0 * inf flags
        flagged = np.flatnonzero(~(norm2[0] * norm2[1] <= COND_LIMIT**2))  # nan is flagged too
    for t in flagged:
        bad[t] = bad[t] or not _cond(m[t]) <= COND_LIMIT
    return inv, np.flatnonzero(bad)


def _conditioned(channel: ChannelEnsemble, m: np.ndarray, name: str, first: int = 0) -> np.ndarray:
    """The ``guarded_inverse`` of ``m``, the (tones, p, p) stack ``name`` for
    the tones from ``first`` on; the first tone it refuses raises."""
    inv, bad = guarded_inverse(m)
    if bad.size:
        k = int(bad[0])
        raise SingularChannel(
            f"{name} condition estimate {_cond(m[k]):.3e} exceeds "
            f"{COND_LIMIT:.1e} at f={channel.grid.freq(first + k)} Hz",
            tone=first + k,
        )
    return inv


def ideal_precoder(channel: ChannelEnsemble, tones: slice = slice(None)) -> np.ndarray:
    """Solve H P = diag(D) on every tone, or on the block ``tones``, with one
    refinement step; refuse tones whose condition number exceeds
    ``COND_LIMIT`` (the first one found raises)."""
    H = channel.H[tones]
    _conditioned(channel, H, "channel", _first(channel, tones))
    rhs = np.zeros_like(H)
    idx = np.arange(channel.p)
    rhs[:, idx, idx] = channel.D[tones]
    P = np.linalg.solve(H, rhs)
    P += np.linalg.solve(H, rhs - H @ P)
    return P


def quantize_precoder(
    P: np.ndarray, spec: PerturbationSpec, normalize: bool = False, first: int = 0
) -> QuantizedPrecoder:
    """Represent each real/imag component of a (..., p, p) stack with
    ``d_bits`` fractional bits.

    Deterministic rounding maps each component to the nearest multiple of
    2^-d (error <= 2^-d-1); the uniform model adds i.i.d. errors on
    [-2^-d, 2^-d], drawn for matrix k of the stack from stream (E2, first + k):
    ``first`` is the tone of the stack's first matrix, which errors name too.
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
            f"(matrix {first + k}); pass normalize=True to apply block scaling",
            tone=first + k,
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
            rng = streams.stream(spec.seed, streams.E2, first + k)
            streams.uniform_complex(rng, (p, p), u[k], plane)
        pq = work + spec.step * u.reshape(P.shape)

    pq = pq * scale[..., None, None]
    pq -= P  # E2, formed in place: the quantized stack is not kept beside it
    return QuantizedPrecoder(e2=pq, scale=scale)


def build_delta(
    channel: ChannelEnsemble,
    p_estimated: np.ndarray,
    e1: np.ndarray | None,
    e2: np.ndarray,
    tones: slice = slice(None),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Equivalent-channel perturbation of every tone, or of the block
    ``tones``, given the precoder the quantizer acted on (ideal, or
    (I + D^{-1}F + E1)^{-1} with ``e1``) and E2; written into ``out`` when
    given.

    Also checks H P~ = D (I + Delta) for the deployed P~ = ``p_estimated`` + E2
    and fails loudly if the identity does not hold to ``IDENTITY_CHECK_TOL``
    (relative to max |d_ii|) on some tone.
    """
    delta = np.matmul(channel.row_normalized(tones), e2, out=out)
    if e1 is not None:
        delta -= e1 @ p_estimated
    H, D = channel.H[tones], channel.D[tones]
    p_perturbed = p_estimated + e2
    resid = H @ p_perturbed  # H P~ - D (I + Delta), formed in place
    rhs = np.add(delta, np.eye(channel.p), out=p_perturbed)  # P~ is not needed any more
    rhs *= D[:, :, None]
    resid -= rhs
    del p_perturbed, rhs
    err = np.max(np.abs(resid), axis=(1, 2)) / np.max(np.abs(D), axis=1)
    bad = np.flatnonzero(~(err < IDENTITY_CHECK_TOL))
    if bad.size:
        k = int(bad[0])
        tone = _first(channel, tones) + k
        raise NumericalError(
            f"equivalent-channel identity violated: residual {err[k]:.3e} at "
            f"f={channel.grid.freq(tone)} Hz",
            tone=tone,
        )
    return delta


def make_bundle(
    channel: ChannelEnsemble,
    spec: PerturbationSpec,
    snr: np.ndarray | None = None,
    normalize: bool = False,
) -> np.ndarray:
    """Delta of every tone: the precoder quantized per ``spec``, and the
    equivalent-channel perturbation it leaves.

    Without an estimation-error model the quantizer acts on the ideal
    precoder.  With one (``snr``: the (tones, p) raw SNR) it acts on the
    *estimated* precoder (I + D^{-1}F + E1)^{-1} instead, matching the
    additive error split; tone k's E1 comes from stream (E1, k).  H and
    I + D^{-1}F + E1 are both held to ``COND_LIMIT``.

    The tones are taken ``BUNDLE_BLOCK`` at a time: each block is solved,
    quantized and checked on its own and written into one preallocated
    Delta, so besides Delta only one block's precoders are held.  Streams
    and errors use the absolute tone; the first block with a failing tone
    raises, at the first stage that fails there.
    """
    n = channel.grid.count
    if spec.e1_samples is not None and snr is None:
        raise InvalidParams("snr required for the estimation-error model")
    delta = np.empty(channel.H.shape, dtype=complex)
    for k0 in range(0, n, BUNDLE_BLOCK):
        tones = slice(k0, min(k0 + BUNDLE_BLOCK, n))
        if spec.e1_samples is None:
            e1 = None
            p_estimated = ideal_precoder(channel, tones)
        else:
            _conditioned(channel, channel.H[tones], "channel", k0)
            e1 = np.stack([
                streams.csi_error(streams.stream(spec.seed, streams.E1, k), snr[k], spec.e1_samples)
                for k in range(tones.start, tones.stop)
            ])
            estimated = channel.row_normalized(tones)
            estimated += e1
            p_estimated = _conditioned(channel, estimated, "estimated channel", k0)
        e2 = quantize_precoder(p_estimated, spec, normalize=normalize, first=k0).e2
        build_delta(channel, p_estimated, e1, e2, tones, out=delta[tones])
    return delta


def _first(channel: ChannelEnsemble, tones: slice) -> int:
    """The absolute index of the block's first tone."""
    return range(channel.grid.count)[tones].start
