"""Counter-based random streams and the samplers that draw from them.

Every random draw in the package comes from ``stream(seed, purpose, *index)``:
a Philox generator keyed by position, so a draw depends on its key and not on
evaluation order or thread count.  The purposes below are the only keys in
use; changing one moves every draw made under it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .units import SQRT2

# Stream purposes: the first element of every key.
K_GAINS = 0          # synthesis: coupling gains K_ij, one draw per binder
PHASES = 1           # synthesis: entry phases, keyed by tone
E2 = 2               # analyze: uniform precoder quantization error, by tone
E1 = 3               # analyze: channel-estimation error, by tone
MC_E2 = 10           # trials: uniform base variates U, by tone
MC_E1 = 11           # trials: channel-estimation error, by tone
MC_E1_RESAMPLE = 12  # trials: fresh E1 for a singular trial, by (tone, trial)


def check_seed(seed: int) -> int:
    """``seed``, once it is non-negative, as every stream's key must be;
    refused with ``InvalidParams`` otherwise."""
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")
    return seed


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for ``key`` = (purpose, index...) under ``seed``
    (``check_seed``)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=check_seed(seed), spawn_key=key))
    )


def uniform_complex(
    rng: np.random.Generator,
    shape: tuple,
    out: np.ndarray | None = None,
    plane: np.ndarray | None = None,
    start: int = 0,
    total: int | None = None,
) -> np.ndarray:
    """Complex draws with real and imaginary parts i.i.d. uniform on [-1, 1].

    All real parts are drawn first, then all imaginary parts, bitwise as
    ``z = rng.uniform(-1, 1, (2, *shape)); z[0] + 1j * z[1]``: numpy's uniform
    is low + (high - low) * next_double, and 2x - 1 rounds like -1 + 2x.  The
    draw goes into ``out`` (complex) through ``plane`` (float, C-contiguous),
    both of ``shape``: 2x in the plane, then 2x - 1 straight into the real or
    imaginary part.  Either is allocated when not given.

    With ``start`` and ``total`` the draw is rows [start, start + shape[0])
    of a draw of ``total`` rows, bitwise: each plane skips the words of the
    rows before it (``_skip``), so a worker draws only its own slice.
    """
    out = np.empty(shape, dtype=complex) if out is None else out
    plane = np.empty(shape) if plane is None else plane
    rows = shape[0]
    row_words = plane.size // rows
    total = rows if total is None else total
    for part, skip in ((out.real, start), (out.imag, total - rows)):
        _skip(rng, skip * row_words)
        rng.random(out=plane)
        np.subtract(np.multiply(plane, 2.0, out=plane), 1.0, out=part)
    return out


def _skip(rng: np.random.Generator, words: int) -> None:
    """Move a Philox generator ``words`` doubles ahead, one 64-bit word each:
    through the rest of its buffered 4-word block, whole blocks by
    ``advance``, then single words."""
    if not words:
        return
    bits = rng.bit_generator
    left = min(words, 4 - bits.state["buffer_pos"])
    blocks, rest = divmod(words - left, 4)
    rng.random(left)
    if blocks:
        bits.advance(blocks)
    rng.random(rest)


def csi_error(
    rng: np.random.Generator, snr: np.ndarray, n_samples: int, trials: tuple = ()
) -> np.ndarray:
    """E1 of shape (*trials, p, p): row-i entries complex Gaussian with
    variance 1/(n_samples * SNR_i).

    Bitwise ``sigma * (z[0] + 1j * z[1]) / SQRT2``, formed in place in one
    complex buffer beside the draw z."""
    p = snr.shape[-1]
    sigma = np.sqrt(1.0 / (n_samples * snr))[:, None]
    z = rng.standard_normal((2, *trials, p, p))
    e1 = np.multiply(z[1], 1j)
    e1 += z[0]
    e1 *= sigma
    e1 /= SQRT2
    return e1
