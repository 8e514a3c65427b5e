"""Werner-model channel synthesis, measured-channel loading, and parameter fits.

A vectored binder of ``p`` twisted pairs is described per tone by a complex
``p x p`` matrix ``H(f)``; a ``ChannelEnsemble`` holds every tone of a grid as
one ``(tones, p, p)`` stack.  The direct paths sit on the diagonal ``D``, the
far-end crosstalk (FEXT) on the off-diagonal part ``F = H - diag(D)``.  The
synthetic model used throughout:

    |H_ii(f)|   = exp(-alpha * ell * sqrt(f))            (insertion loss, amplitude)
    |H_ij(f)|^2 = K_ij * f^2 * exp(-2 * alpha * ell * sqrt(f))   (FEXT power)

with one log-normal coupling gain ``K_ij`` drawn per ordered pair and reused
across the whole band (the coupling is frequency-flat; only the ``f^2`` ramp
and the insertion loss shape the spectrum).

Note the squared-magnitude (and hence SNR) decay constant is *twice* the
amplitude aggregate ``alpha * ell``.  Both parameterizations are exposed;
closed-form bound helpers in :mod:`xtalk_quant.analytic_bounds` expect the
SNR decay constant.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import streams
from .errors import InsufficientData, InvalidParams, ParseError, SingularDiagonal

DMT_SPACING_HZ = 4312.5

# Calibrated so that a 10-pair, 300 m binder has r(H) near the measured-line
# row-dominance trend at the top of a 0-30 MHz band (see calibrate_k_mean_slope).
DEFAULT_K_MEAN_SLOPE = 4.5e-20
DEFAULT_K_SIGMA_LOG = 1.0

CHANNEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ToneGrid:
    """Uniform frequency grid; tone k sits at ``f_start + k * spacing``."""

    f_start: float
    f_end: float
    spacing: float

    def __post_init__(self):
        if not (
            math.isfinite(self.f_start)
            and math.isfinite(self.f_end)
            and math.isfinite(self.spacing)
        ):
            raise InvalidParams("tone grid fields must be finite")
        if self.f_start < 0 or self.f_end <= self.f_start or self.spacing <= 0:
            raise InvalidParams(
                f"bad tone grid: f_start={self.f_start}, f_end={self.f_end}, "
                f"spacing={self.spacing}"
            )

    @property
    def count(self) -> int:
        return int(math.floor((self.f_end - self.f_start) / self.spacing)) + 1

    def freq(self, k: int) -> float:
        return self.f_start + k * self.spacing

    @property
    def freqs(self) -> np.ndarray:
        return self.f_start + np.arange(self.count) * self.spacing

    @property
    def bandwidth(self) -> float:
        """Rectangle-rule measure of the band: every tone owns one bin."""
        return self.count * self.spacing

    @classmethod
    def vdsl_band(cls, decimation: int = 1, f_end: float = 30e6) -> "ToneGrid":
        """0..f_end grid at the standard DMT spacing, optionally decimated."""
        if decimation < 1:
            raise InvalidParams("decimation must be >= 1")
        return cls(0.0, f_end, DMT_SPACING_HZ * decimation)

    @classmethod
    def single_tone(cls, freq: float) -> "ToneGrid":
        return cls(freq, freq + 0.5, 1.0)


@dataclass(frozen=True)
class WernerParams:
    """Cable/binder parameters of the synthetic channel model.

    ``alpha`` is the per-meter attenuation constant; only the aggregate
    ``alpha * loop_length_m`` enters the matrices, so a fitted aggregate can be
    carried with ``loop_length_m=1``.
    """

    alpha: float
    loop_length_m: float
    p: int
    k_mean_slope: float = DEFAULT_K_MEAN_SLOPE
    k_sigma_log: float = DEFAULT_K_SIGMA_LOG

    def __post_init__(self):
        vals = (self.alpha, self.loop_length_m, self.k_mean_slope, self.k_sigma_log)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParams("non-finite Werner parameter")
        if self.alpha <= 0 or self.loop_length_m <= 0:
            raise InvalidParams("alpha and loop_length_m must be positive")
        if self.p < 2:
            raise InvalidParams("need at least two pairs")
        if self.k_mean_slope <= 0 or self.k_sigma_log < 0:
            raise InvalidParams("bad coupling-gain distribution parameters")

    @property
    def aggregate(self) -> float:
        """Amplitude attenuation aggregate alpha * ell (per sqrt-Hz)."""
        return self.alpha * self.loop_length_m


@dataclass(frozen=True)
class RowDominanceFit:
    """Least-squares line r(f) ~ gamma1 + gamma2 * f with its worst residual."""

    gamma1: float
    gamma2: float
    max_residual: float = 0.0


def row_dominance(h: np.ndarray) -> np.ndarray:
    """max_i sum_{j != i} |h_ij| / |h_ii| of each (..., p, p) matrix
    (Gersgorin-style dominance measure)."""
    a = np.abs(np.asarray(h))
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    if np.any(diag == 0.0):
        raise SingularDiagonal("zero diagonal entry")
    off = a.sum(axis=-1) - diag
    return np.max(off / diag, axis=-1)


def _check_tones(H: np.ndarray, grid: ToneGrid) -> None:
    """Raise naming the first tone with a non-finite entry or a zero diagonal."""
    nonfinite = ~np.isfinite(H).all(axis=(1, 2))
    zero_diag = (np.diagonal(H, axis1=1, axis2=2) == 0.0).any(axis=1)
    bad = np.flatnonzero(nonfinite | zero_diag)
    if bad.size:
        k = int(bad[0])
        where = f"tone {k} (f={grid.freq(k)} Hz)"
        if nonfinite[k]:
            raise InvalidParams(f"non-finite channel entry at {where}", tone=k)
        raise SingularDiagonal(f"zero diagonal entry at {where}", tone=k)


@dataclass(frozen=True)
class ChannelSnapshot:
    """One tone of an ensemble: its frequency and read-only views into the stacks."""

    freq: float
    H: np.ndarray
    D: np.ndarray
    r: float


@dataclass(frozen=True)
class ChannelEnsemble:
    """The channel matrices of every tone of a grid as one (tones, p, p) stack.

    ``H`` is a read-only copy of the stack it is given (``load_channel`` and
    ``synthesize_channel`` hand over their fresh stack uncopied), and ``D`` a
    read-only view of its diagonals; ``r`` and ``Q`` are derived from it for
    all tones at once, on first use.  A single tone is an ensemble over a
    one-tone grid.
    """

    grid: ToneGrid
    H: np.ndarray

    def __post_init__(self):
        self._take(np.array(self.H, dtype=complex, order="C"))

    @classmethod
    def _adopt(cls, grid: ToneGrid, H: np.ndarray) -> ChannelEnsemble:
        """An ensemble over ``H``, a fresh stack that nothing else holds,
        without the constructor's copy; ``H`` becomes read-only."""
        ensemble = object.__new__(cls)
        object.__setattr__(ensemble, "grid", grid)
        ensemble._take(np.ascontiguousarray(H, dtype=complex))
        return ensemble

    def _take(self, H: np.ndarray) -> None:
        if H.ndim != 3 or H.shape[1] != H.shape[2]:
            raise InvalidParams(f"channel stack must have shape (tones, p, p), got {H.shape}")
        if H.shape[0] != self.grid.count:
            raise InvalidParams(f"{H.shape[0]} channel matrices for a {self.grid.count}-tone grid")
        _check_tones(H, self.grid)
        H.flags.writeable = False
        object.__setattr__(self, "H", H)

    @property
    def p(self) -> int:
        return self.H.shape[1]

    @property
    def freqs(self) -> np.ndarray:
        return self.grid.freqs

    @cached_property
    def D(self) -> np.ndarray:
        """(tones, p) direct-path gains d_ii(f)."""
        return np.diagonal(self.H, axis1=1, axis2=2)

    @cached_property
    def r(self) -> np.ndarray:
        """(tones,) row dominance r(H(f))."""
        return row_dominance(self.H)

    @property
    def r_max(self) -> float:
        return float(np.max(self.r))

    @cached_property
    def Q(self) -> np.ndarray:
        """(tones, p, p) row-normalized channel I + D^{-1} F."""
        F = self.H.copy()
        idx = np.arange(self.p)
        F[:, idx, idx] = 0.0
        return np.eye(self.p) + F / self.D[:, :, None]

    @property
    def snapshots(self) -> tuple:
        """Per-tone views, for reading one tone at a time."""
        return tuple(
            ChannelSnapshot(freq=f, H=h, D=d, r=r)
            for f, h, d, r in zip(self.freqs.tolist(), self.H, self.D, self.r.tolist())
        )


def synthesize_channel(
    params: WernerParams,
    grid: ToneGrid,
    seed: int,
    phases: str = "uniform",
) -> ChannelEnsemble:
    """Draw a binder realization and evaluate it on every tone of the grid.

    The coupling gains K_ij are drawn once (frequency-flat) from a log-normal
    with mean ``k_mean_slope * loop_length_m``; phases are drawn per entry per
    tone (``phases="uniform"``) or fixed to zero (``phases="zero"``).
    Deterministic for a fixed seed and independent of evaluation order.
    """
    if phases not in ("uniform", "zero"):
        raise InvalidParams(f"unknown phase mode {phases!r}")
    p = params.p
    sigma = params.k_sigma_log
    mean_k = params.k_mean_slope * params.loop_length_m
    mu = math.log(mean_k) - 0.5 * sigma * sigma
    k_gain = streams.stream(seed, streams.K_GAINS).lognormal(mu, sigma, size=(p, p))
    sqrt_k = np.sqrt(k_gain)
    agg = params.aggregate

    freqs = grid.freqs
    il = np.array([math.exp(-agg * math.sqrt(f)) for f in freqs])
    mag = sqrt_k * (freqs * il)[:, None, None]
    idx = np.arange(p)
    mag[:, idx, idx] = il[:, None]
    if phases == "zero":
        H = mag.astype(complex)
    else:
        ph = np.stack([
            streams.stream(seed, streams.PHASES, k).uniform(0.0, 2.0 * math.pi, size=(p, p))
            for k in range(grid.count)
        ])
        H = mag * np.exp(1j * ph)

    return ChannelEnsemble._adopt(grid, H)


def calibrate_k_mean_slope(
    p: int,
    loop_length_m: float,
    k_sigma_log: float,
    target_r: float,
    f_ref: float,
) -> float:
    """Coupling-gain slope that puts the expected r(H(f_ref)) near target_r.

    For this model r(f) = f * max_i sum_{j!=i} sqrt(K_ij), so the calibration
    reduces to moments of the log-normal; the max over rows is approximated by
    mean + c * std with c = 1.539 (expected max of ten standard normals).
    """
    if target_r <= 0 or f_ref <= 0:
        raise InvalidParams("target_r and f_ref must be positive")
    s2 = k_sigma_log * k_sigma_log
    # E sqrt(K) = sqrt(mean_K) * exp(-s2/8); Var sqrt(K) = mean_K (1 - exp(-s2/4))
    mean_term = (p - 1) * math.exp(-s2 / 8.0)
    std_term = 1.539 * math.sqrt((p - 1) * (1.0 - math.exp(-s2 / 4.0)))
    sqrt_mean_k = (target_r / f_ref) / (mean_term + std_term)
    return sqrt_mean_k * sqrt_mean_k / loop_length_m


def fit_row_dominance(ensemble: ChannelEnsemble) -> RowDominanceFit:
    """Least-squares line through the (f, r(H(f))) points of the ensemble."""
    f = ensemble.freqs
    if f.size < 2:
        raise InsufficientData("need at least two tones to fit a line")
    r = ensemble.r
    design = np.column_stack([np.ones_like(f), f])
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    resid = r - design @ coef
    return RowDominanceFit(
        gamma1=float(coef[0]),
        gamma2=float(coef[1]),
        max_residual=float(np.max(np.abs(resid))),
    )


def fit_alpha(ensemble: ChannelEnsemble) -> float:
    """Aggregate attenuation alpha*ell from -ln|H_ii(f)| ~ slope * sqrt(f).

    Pooled over users and tones, slope-only (the model has no intercept).
    """
    mags = np.abs(np.ascontiguousarray(ensemble.D.T))  # (p, tones)
    if np.any(mags == 0.0):
        raise SingularDiagonal("zero diagonal magnitude")
    if np.any(mags > 1.0 + 1e-12):
        raise InvalidParams("diagonal magnitudes must lie in (0, 1]")
    x = np.sqrt(ensemble.freqs)
    y = -np.log(mags)  # (p, tones)
    sxx = float(mags.shape[0] * np.dot(x, x))
    if sxx == 0.0:
        raise InsufficientData("all tones at f=0; slope is unidentifiable")
    sxy = float(np.dot(y.sum(axis=0), x))
    return sxy / sxx


def save_channel(ensemble: ChannelEnsemble, path) -> None:
    """Write the documented JSON channel format (lossless for float64).

    Any (tones, p, p) stack travels in this grammar, computed precoders too:
    build a ``ChannelEnsemble`` over it (its diagonal must be nonzero).
    """
    grid = ensemble.grid
    head = json.dumps({
        "format_version": CHANNEL_FORMAT_VERSION,
        "kind": "xtalk-quant-channel",
        "p": ensemble.p,
        "tone_count": grid.count,
        "f_start": grid.f_start,
        "spacing": grid.spacing,
    })
    # one record of [re, im] pairs per tone, encoded one tone at a time
    pairs = ensemble.H.view(float).reshape(grid.count, -1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "tones": [')
        for k, rec in enumerate(pairs):
            fh.write(", " if k else "")
            fh.write(json.dumps(rec.tolist()))
        fh.write("]}\n")


def load_channel(path) -> ChannelEnsemble:
    """Parse a channel file; errors carry the first offending tone index.

    The top-level object is read one field at a time and each ``tones`` record
    becomes a float array as soon as it is decoded, so the parse holds the
    text and one record's lists, never the whole document's.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # an empty or non-object document is left to json, which names a syntax error first
        doc = _fields(text) if _KEYED_OBJECT.match(text) else json.loads(text)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("a channel file holds one JSON object")
    del text

    for key in (*_HEADER_TYPES, "tones"):
        if key not in doc:
            raise ParseError(f"missing header field {key!r}")
    # JSON integers and numbers only: int() and float() would read "4", 4.7 and true
    for key, types in _HEADER_TYPES.items():
        if type(doc[key]) not in types:
            kind = "number" if float in types else "integer"
            raise ParseError(f"header field {key!r} must be a JSON {kind}, got {doc[key]!r}")
    if doc["format_version"] != CHANNEL_FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    p, n = doc["p"], doc["tone_count"]
    try:
        f_start, spacing = float(doc["f_start"]), float(doc["spacing"])
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"bad header field: {exc}") from exc
    if p < 1 or n < 1:
        raise ParseError("p and tone_count must be positive")
    records = doc.pop("tones")
    if not isinstance(records, list) or len(records) != n:
        raise ParseError(f"tone_count={n} but the tones field is not a list of {n} records")
    grid = ToneGrid(f_start, f_start + (n - 1) * spacing + 0.5 * spacing, spacing)
    if grid.count != n:
        raise ParseError("grid reconstruction mismatch")
    for k, rec in enumerate(records):
        if rec is None or rec.shape != (p * p, 2):
            if k:  # an earlier tone may hold a bad value or a zero diagonal
                _check_tones(np.stack(records[:k]).view(complex).reshape(k, p, p), grid)
            raise ParseError(f"tone {k}: expected {p * p} [re, im] number pairs", tone=k)
    # .view pairs the floats exactly as complex(re, im) does
    H = np.stack(records).view(complex).reshape(n, p, p)
    del records  # the per-tone lists, freed before the tone checks run
    return ChannelEnsemble._adopt(grid, H)


_HEADER_TYPES = {
    "format_version": (int,), "p": (int,), "tone_count": (int,),
    "f_start": (int, float), "spacing": (int, float),
}
_DECODER = json.JSONDecoder()
_PUNCT = re.compile(r"[ \t\n\r]*(.?)[ \t\n\r]*")
_KEYED_OBJECT = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"')
_FILLED_ARRAY = re.compile(r"\[[ \t\n\r]*[^ \t\n\r\]]")


def _punct(text: str, i: int, allowed: str) -> tuple:
    """The first non-blank character of text[i:], one of ``allowed``, and the
    index past it and the blanks after it."""
    m = _PUNCT.match(text, i)
    if not m[1] or m[1] not in allowed:
        raise json.JSONDecodeError(f"Expecting one of {allowed!r}", text, m.start(1))
    return m[1], m.end()


def _fields(text: str) -> dict:
    """The fields of the object ``text`` (a repeated key keeps its last value,
    as in ``json.load``), with a non-empty ``tones`` array read by ``_records``."""
    doc = {}
    mark, i = _punct(text, 0, "{")
    while mark != "}":
        key, i = _DECODER.raw_decode(text, i)
        if not isinstance(key, str):
            raise json.JSONDecodeError("Expecting property name", text, i)
        _, i = _punct(text, i, ":")
        read = _records if key == "tones" and _FILLED_ARRAY.match(text, i) else _DECODER.raw_decode
        doc[key], i = read(text, i)
        mark, i = _punct(text, i, ",}")
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return doc


def _records(text: str, i: int) -> tuple:
    """The array at text[i] as one float array per record (None for a record
    that is not all JSON numbers), each made as soon as its lists are decoded."""
    records = []
    mark, i = _punct(text, i, "[")
    while mark != "]":
        start = i
        rec, i = _DECODER.raw_decode(text, i)
        # np.asarray reads true and false as numbers; their "u" and "l" occur in
        # no JSON number, NaN or Infinity, and one-letter searches are fast
        boolean = text.find("u", start, i) >= 0 or text.find("l", start, i) >= 0
        records.append(None if boolean else _number_pairs(rec))
        mark, i = _punct(text, i, ",]")
    return records, i


def _number_pairs(records) -> np.ndarray | None:
    """``records`` as a float array, or None unless every entry is a JSON
    number (np.asarray alone would take "1.0" and turn null into nan)."""
    try:
        arr = np.asarray(records)
    except (ValueError, OverflowError):  # ragged, or an integer beyond 64 bits
        return None
    return arr.astype(float, copy=False) if arr.dtype.kind in "iuf" else None
