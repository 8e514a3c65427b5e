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

import io
import json
import math
import re
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import streams
from .errors import InsufficientData, InvalidParams, ParseError, SingularDiagonal

DMT_SPACING_HZ = 4312.5

# Calibrated so that a 10-pair, 300 m binder has r(H) near the measured-line
# row-dominance trend at the top of a 0-30 MHz band (see calibrate_k_mean_slope).
DEFAULT_K_MEAN_SLOPE = 4.5e-20
DEFAULT_K_SIGMA_LOG = 1.0

CHANNEL_FORMAT_VERSION = 1

# Most tones of a grid: 8x the 8192 tones of VDSL2 profile 35b, so no DSL band
# plan comes near it, while a (tones, p, p) complex stack at p = 10 stays near
# 100 MB.  A larger count is refused before any per-tone array is formed.
MAX_TONES = 2**16
# Largest tone decimation: 2**32 DMT spacings (18.5 THz) leave one tone in any
# band already, and a decimation past about 1e304 has no float spacing at all.
MAX_DECIMATION = 2**32
# Most pairs in a binder: one tone's p x p matrix is 64 GiB at 2**16 pairs,
# and the draws are sized by p * p before any tone is formed.
MAX_USERS = 2**16
PHASE_MODES = ("uniform", "zero")  # synthesis: entry phases drawn per tone, or all zero
# Bytes a bounded walk holds per block: the tone blocks of every whole-grid
# pass, and the characters of each refill of the load window.  Below glibc's
# initial mmap threshold, so no block's temporaries are mapped and unmapped afresh.
BLOCK_BYTES = 2**17


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
        if not (self.f_end - self.f_start) / self.spacing < MAX_TONES:  # inf is refused too
            raise InvalidParams(f"tone grid of more than {MAX_TONES} tones")

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
    def vdsl_band(
        cls, decimation: int = 1, f_end: float = 30e6, f_start: float = 0.0
    ) -> "ToneGrid":
        """f_start..f_end grid at the standard DMT spacing, optionally decimated."""
        if not 1 <= decimation <= MAX_DECIMATION:
            raise InvalidParams(f"decimation must lie in 1..{MAX_DECIMATION}")
        return cls(f_start, f_end, DMT_SPACING_HZ * decimation)

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
        if not 2 <= self.p <= MAX_USERS:
            raise InvalidParams(f"need 2..{MAX_USERS} pairs, got {self.p}")
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

    ``H`` is a read-only copy of the stack it is given and ``D`` a read-only
    view of its diagonals; ``r`` is derived from it on first use, and Q by
    ``row_normalized`` for the tones asked.  A single tone is an ensemble over a one-tone grid.
    Synthesis and loading hand over the complex C-ordered stack they built with
    ``_adopt``, which makes it read-only in place instead of copying it.
    """

    grid: ToneGrid
    H: np.ndarray
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        H = self.H if _adopt else np.array(self.H, dtype=complex, order="C")
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

    def row_normalized(self, tones: slice = slice(None)) -> np.ndarray:
        """Q = I + D^{-1} F of every tone or of the block ``tones``, formed in
        place in one copy of H (bitwise equal to the expression)."""
        F = self.H[tones].copy()
        idx = np.arange(self.p)
        F[:, idx, idx] = 0.0
        F /= self.D[tones, :, None]
        return np.add(np.eye(self.p), F, out=F)

    def tone_blocks(self, tone_bytes: int | None = None) -> list:
        """Slices of consecutive tones covering every tone once, in order:
        each holds as many tones as keep ``tone_bytes`` per tone (default: one
        (p, p) complex matrix) under ``BLOCK_BYTES``, and at least one."""
        n = self.grid.count
        block = max(1, (BLOCK_BYTES - 1) // (tone_bytes or self.H[0].nbytes))
        return [slice(k0, min(k0 + block, n)) for k0 in range(0, n, block)]

    @property
    def snapshots(self) -> tuple:
        """Per-tone views, for reading one tone at a time."""
        return tuple(
            ChannelSnapshot(freq=f, H=h, D=d, r=r)
            for f, h, d, r in zip(self.freqs.tolist(), self.H, self.D, self.r.tolist())
        )


def check_phase_mode(phases: str) -> None:
    """Refuse, with ``InvalidParams``, a phase mode not in ``PHASE_MODES``."""
    if phases not in PHASE_MODES:
        raise InvalidParams(f"unknown phase mode {phases!r}")


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
    check_phase_mode(phases)
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
        # mag * exp(1j * phase), in place in the one complex stack
        H = np.zeros(mag.shape, dtype=complex)
        for k in range(grid.count):
            rng = streams.stream(seed, streams.PHASES, k)
            H.real[k] = rng.uniform(0.0, 2.0 * math.pi, size=(p, p))
        H *= 1j
        np.exp(H, out=H)
        H *= mag
    del mag
    return ChannelEnsemble(grid=grid, H=H, _adopt=True)


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
    mags = np.abs(np.ascontiguousarray(ensemble.D.T))  # (p, tones), nonzero by construction
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

    The text is read ``BLOCK_BYTES`` characters at a time into a window that
    drops what the parse has consumed.  The top-level object is walked one
    field at a time, and once the header has given ``p`` and ``tone_count``
    (``save_channel`` writes them first) each ``tones`` record is written into
    one preallocated float stack as soon as it is decoded.  So the load holds
    one window, one record's lists and that stack, never the whole text, the
    whole parsed document or a second stack; a document that is not an
    object is refused at its first character.  A file whose records come
    before the header, or whose header changes after them, is read a second
    time with the final header; a pipe is copied to a temporary file for that.
    """
    with ExitStack() as files:
        fh = files.enter_context(open(path, "r", encoding="utf-8"))
        if not fh.seekable():  # a pipe: copied to a file, so that it can be read twice
            tmp = files.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(fh.buffer, tmp)
            tmp.seek(0)
            fh = files.enter_context(io.TextIOWrapper(tmp, encoding="utf-8"))
        doc = _fields(fh)
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
        try:
            f_start, spacing = float(doc["f_start"]), float(doc["spacing"])
        except OverflowError as exc:  # an integer beyond the float range
            raise ParseError(f"bad header field: {exc}") from exc
        shape = _header_shape(doc)
        if shape is None:
            raise ParseError("p and tone_count must be positive")
        n, p = shape
        tones = doc.pop("tones")
        if isinstance(tones, _Tones) and tones.shape != shape:
            tones = _fields(fh, shape)["tones"]
    if not isinstance(tones, _Tones) or tones.length != n:
        raise ParseError(f"tone_count={n} but the tones field is not a list of {n} records")
    grid = ToneGrid(f_start, f_start + (n - 1) * spacing + 0.5 * spacing, spacing)
    if grid.count != n:
        raise ParseError("grid reconstruction mismatch")
    k = tones.good
    if k < n:
        if k:  # an earlier tone may hold a bad value or a zero diagonal
            _check_tones(tones.stack[:k].view(complex).reshape(k, p, p), grid)
        raise ParseError(f"tone {k}: expected {p * p} [re, im] number pairs", tone=k)
    # .view pairs the floats exactly as complex(re, im) does
    return ChannelEnsemble(grid=grid, H=tones.stack.view(complex).reshape(n, p, p), _adopt=True)


_HEADER_TYPES = {
    "format_version": (int,), "p": (int,), "tone_count": (int,),
    "f_start": (int, float), "spacing": (int, float),
}
_DECODER = json.JSONDecoder()
_PUNCT = re.compile(r"[ \t\n\r]*(.?)[ \t\n\r]*")


class _Window:
    """The part of a text file the parse has not consumed: ``text`` holds its
    characters from ``offset`` on, refilled ``BLOCK_BYTES`` characters at a
    time.  Indices passed in and handed back are into the current ``text``; a
    refill drops the consumed part, so every method returns indices into the
    window as it leaves it.

    A value or a blank run that reaches the window's edge is decoded again after
    a refill, since more text could extend it; a decode error is final only
    at the end of the file.
    """

    def __init__(self, fh):
        self.size = fh.seek(0, io.SEEK_END)  # bytes: at least the characters
        fh.seek(0)
        self.fh, self.text, self.offset, self.eof = fh, "", 0, False
        self.longest = 0  # the longest value decoded so far

    def refill(self, i: int) -> int:
        """Drop text[:i] and read at least as many characters as are kept,
        so a value longer than ``BLOCK_BYTES`` characters takes a few
        refills, not one per block; returns where text[i] now sits (0)."""
        kept = self.text[i:]
        more = self.fh.read(max(BLOCK_BYTES, len(kept)))
        self.eof = not more
        self.text, self.offset = kept + more, self.offset + i
        return 0

    def value(self, i: int) -> tuple:
        """The JSON value at text[i], with its start and end.  A number cut
        at the edge can leave up to two characters unread ("1e+" decodes as
        1), so a value is settled only three characters short of the edge.
        A window shorter than the longest value so far is refilled first,
        so that a run of like values (the tones records) is seldom decoded
        twice."""
        if len(self.text) - i <= self.longest and not self.eof:
            i = self.refill(i)
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, i)
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos) from None
            else:
                if end + 2 < len(self.text) or self.eof:
                    self.longest = max(self.longest, end - i + 2)
                    return value, i, end
            i = self.refill(i)

    def punct(self, i: int, allowed: str | None = None) -> tuple:
        """The first non-blank character from text[i] ("" at the end of the
        file), one of ``allowed`` if that is given, and the index past it and
        the blanks after it; the match is settled short of the window's edge."""
        while (m := _PUNCT.match(self.text, i)).end() == len(self.text) and not self.eof:
            i = self.refill(i)
        if allowed is not None and (not m[1] or m[1] not in allowed):
            raise self.error(f"Expecting one of {allowed!r}", m.start(1))
        return m[1], m.end()

    def error(self, msg: str, i: int) -> ValueError:
        """``msg`` at text[i], placed in the whole file as ``json`` places it;
        the text before it is read again, a chunk at a time, to count lines."""
        pos, line, last_newline, done = self.offset + i, 1, -1, 0
        self.fh.seek(0)
        while done < pos:
            part = self.fh.read(min(BLOCK_BYTES, pos - done))
            if not part:
                break
            if "\n" in part:
                line += part.count("\n")
                last_newline = done + part.rfind("\n")
            done += len(part)
        return ValueError(f"{msg}: line {line} column {pos - last_newline} (char {pos})")


def _fields(fh, shape: tuple | None = None) -> dict:
    """The fields of the one object in the seekable text file ``fh``, read
    from its start (a repeated key keeps its last value, as in ``json.load``),
    with a ``tones`` array read by ``_records`` under ``shape`` = (tone_count,
    p), else under the header fields read before it."""
    win, doc = _Window(fh), {}
    try:
        mark, i = win.punct(0)
        if mark != "{":
            raise ParseError("a channel file holds one JSON object")
        if win.text.startswith("}", i):  # the empty object
            mark, i = win.punct(i, "}")
        while mark != "}":
            key, _, i = win.value(i)
            if not isinstance(key, str):
                raise win.error("Expecting property name", i)
            _, i = win.punct(i, ":")
            if key == "tones" and win.text.startswith("[", i):
                doc.pop(key, None)  # an earlier tones array is dropped before this one is read
                doc[key], i = _records(win, i, shape or _header_shape(doc))
            else:
                doc[key], _, i = win.value(i)
            mark, i = win.punct(i, ",}")
        if i != len(win.text):  # a non-blank character: the window is settled there
            raise win.error("Extra data", i)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"not valid JSON: {exc}") from exc
    return doc


def _header_shape(doc: dict) -> tuple | None:
    """(tone_count, p) if ``doc`` holds both as positive JSON integers: the
    one rule on them, which load_channel checks and ``_fields`` reads a
    ``tones`` array under before the header is complete."""
    n, p = doc.get("tone_count"), doc.get("p")
    if type(n) is int and type(p) is int and n >= 1 and p >= 1:
        return n, p
    return None


class _Tones(NamedTuple):
    """A ``tones`` array as ``_records`` read it: ``length`` records, of which
    the first ``good`` are p*p [re, im] number pairs in ``stack[:good]``
    (none without a ``shape``)."""

    shape: tuple | None
    stack: np.ndarray | None
    length: int
    good: int


def _records(win: _Window, i: int, shape: tuple | None) -> tuple:
    """The array at text[i] as ``_Tones``.  With ``shape`` = (tone_count, p),
    each record is written into one preallocated (tone_count, p*p, 2) float
    stack as soon as its lists are decoded, up to the first record that is
    not all JSON numbers in that shape; records are counted in any case.  A
    record takes at least 6 p^2 characters, so a file too short to hold
    tone_count of them gets a stack of only as many as it can hold."""
    n, p = shape or (0, 1)
    rows = min(n, win.size // (6 * p * p))
    stack = np.empty((rows, p * p, 2)) if rows else None
    length = good = 0
    mark, i = win.punct(i, "[")
    if win.text.startswith("]", i):  # the empty array
        mark, i = win.punct(i, "]")
    while mark != "]":
        rec, start, i = win.value(i)
        if good == length < rows:
            # np.asarray reads true and false as numbers; their "u" and "l" occur in
            # no JSON number, NaN or Infinity, and one-letter searches are fast
            text = win.text
            boolean = text.find("u", start, i) >= 0 or text.find("l", start, i) >= 0
            pairs = None if boolean else _number_pairs(rec)
            if pairs is not None and pairs.shape == (p * p, 2):
                stack[good] = pairs
                good += 1
        length += 1
        mark, i = win.punct(i, ",]")
    return _Tones(shape, stack, length, good), i


def _number_pairs(records) -> np.ndarray | None:
    """``records`` as a float array, or None unless every entry is a JSON
    number (np.asarray alone would take "1.0" and turn null into nan)."""
    try:
        arr = np.asarray(records)
    except (ValueError, OverflowError):  # ragged, or an integer beyond 64 bits
        return None
    return arr.astype(float, copy=False) if arr.dtype.kind in "iuf" else None
