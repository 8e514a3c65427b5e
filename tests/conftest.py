import numpy as np
import pytest

from xtalk_quant.channel_model import ChannelEnsemble, ToneGrid, WernerParams, synthesize_channel
from xtalk_quant.rate_analysis import LinkBudget

REF_SEED = 20080330

# Reference setup used across the suite: 10-pair binder, 300 m, amplitude
# aggregate alpha*ell = 0.0019, flat -60 dBm/Hz signal and -140 dBm/Hz noise,
# 10.7 dB Shannon gap, 0-30 MHz band.
REF_ALPHA_PER_M = 0.0019 / 300.0
REF_LOOP_M = 300.0
REF_PSD_DBM = -60.0
REF_NOISE_DBM = -140.0
REF_GAP_DB = 10.7
REF_SNR0 = 1e8          # (psd - noise) = 80 dB
REF_SNR_DECAY = 0.0038  # SNR profile decay: twice the amplitude aggregate


def reference_params(p: int = 10) -> WernerParams:
    return WernerParams(alpha=REF_ALPHA_PER_M, loop_length_m=REF_LOOP_M, p=p)


@pytest.fixture(scope="session")
def reference_ensemble():
    """536-tone decimated 0-30 MHz grid (the "512-tone class" resolution)."""
    grid = ToneGrid.vdsl_band(decimation=13)
    return synthesize_channel(reference_params(), grid, REF_SEED)


@pytest.fixture(scope="session")
def reference_budget(reference_ensemble):
    return LinkBudget(
        REF_PSD_DBM, REF_NOISE_DBM, REF_GAP_DB, reference_ensemble.grid
    )


@pytest.fixture(scope="session")
def small_ensemble():
    """Coarse 34-tone version for cheap module tests."""
    grid = ToneGrid.vdsl_band(decimation=208)
    return synthesize_channel(reference_params(p=4), grid, 11)


@pytest.fixture(scope="session")
def small_budget(small_ensemble):
    return LinkBudget(
        REF_PSD_DBM, REF_NOISE_DBM, REF_GAP_DB, small_ensemble.grid
    )


def one_tone(freq: float, H) -> ChannelEnsemble:
    """A single tone: the ensemble over a one-tone grid at ``freq``."""
    return ChannelEnsemble(ToneGrid.single_tone(freq), np.asarray(H, dtype=complex)[None])


def random_dominant_tone(rng: np.random.Generator, p: int, r_target: float, freq: float = 1e6):
    """One tone of a random complex matrix with unit-ish diagonal and row
    dominance <= r_target."""
    off = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    np.fill_diagonal(off, 0.0)
    scale = r_target / max(np.abs(off).sum(axis=1).max(), 1e-30)
    diag_phase = np.exp(1j * rng.uniform(0, 2 * np.pi, p))
    H = np.diag(diag_phase) + scale * off
    return one_tone(freq, H)
