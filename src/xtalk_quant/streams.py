"""Counter-based random streams and the samplers that draw from them.

Every random draw in the package comes from ``stream(seed, purpose, *index)``:
a Philox generator keyed by position, so a draw depends on its key and not on
evaluation order or thread count.  The purposes below are the only keys in
use; changing one moves every draw made under it.
"""

from __future__ import annotations

import numpy as np

from .units import SQRT2

# Stream purposes: the first element of every key.
K_GAINS = 0          # synthesis: coupling gains K_ij, one draw per binder
PHASES = 1           # synthesis: entry phases, keyed by tone
E2 = 2               # analyze: uniform precoder quantization error, by tone
E1 = 3               # analyze: channel-estimation error, by tone
MC_E2 = 10           # trials: uniform base variates U, by tone
MC_E1 = 11           # trials: channel-estimation error, by tone
MC_E1_RESAMPLE = 12  # trials: fresh E1 for singular trials, by tone


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for ``key`` = (purpose, index...) under ``seed``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def uniform_complex(
    rng: np.random.Generator,
    shape: tuple,
    out: np.ndarray | None = None,
    plane: np.ndarray | None = None,
) -> np.ndarray:
    """Complex draws with real and imaginary parts i.i.d. uniform on [-1, 1].

    All real parts are drawn first, then all imaginary parts, bitwise as
    ``z = rng.uniform(-1, 1, (2, *shape)); z[0] + 1j * z[1]``: numpy's uniform
    is low + (high - low) * next_double, and 2x - 1 rounds like -1 + 2x.  The
    draw goes into ``out`` (complex) through ``plane`` (float, C-contiguous),
    both of ``shape``; either is allocated when not given.
    """
    out = np.empty(shape, dtype=complex) if out is None else out
    plane = np.empty(shape) if plane is None else plane
    for part in (out.real, out.imag):
        rng.random(out=plane)
        plane *= 2.0
        plane -= 1.0
        part[...] = plane
    return out


def csi_error(
    rng: np.random.Generator, snr: np.ndarray, n_samples: int, trials: tuple = ()
) -> np.ndarray:
    """E1 of shape (*trials, p, p): row-i entries complex Gaussian with
    variance 1/(n_samples * SNR_i)."""
    p = snr.shape[-1]
    sigma = np.sqrt(1.0 / (n_samples * snr))[:, None]
    z = rng.standard_normal((2, *trials, p, p))
    return sigma * (z[0] + 1j * z[1]) / SQRT2
