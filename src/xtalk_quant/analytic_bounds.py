"""Closed-form upper bounds on the quantization-induced rate loss.

Per-tone chain (each step only loosens):

  exact loss <= general bound at t = max_j |Delta_ij|
             <= main per-tone bound (t replaced by its ceiling sqrt(2)(1+r)2^-d)
             <= simplified bound (valid for r <= 1).

The per-tone bounds take floats or tone arrays for t, r and snr.  A tone where
a bound does not apply reads NaN; the bound raises only if it applies on no tone.

Band-level forms integrate the per-tone bound with r frozen at r_max, and the
attenuation-model (Werner) forms replace the integral by closed expressions in
the fitted dominance line (gamma1, gamma2) and the SNR decay constant.

Convention used by every Werner-model helper here: ``alpha_ell`` is the decay
constant of the *SNR profile*, SNR(f) = snr0 * exp(-alpha_ell * sqrt(f)).
Since SNR follows the squared channel magnitude, this is twice the amplitude
aggregate fitted from insertion losses; ``WernerBoundParams.from_amplitude_aggregate``
performs the doubling.  Mixing the two conventions silently invalidates either
the loss bound (xi) or the rate floor (c); see the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel_model import ToneGrid
from .errors import BitDepthTooSmall, BoundInapplicable, FloorNonpositive, InvalidParams
from .units import LN2, SQRT2


def _libm(fn):
    """``fn`` of the math module element by element: numpy's log1p differs from
    libm's in the last ulp on ~2% of inputs, and arrays must match scalar calls."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: np.asarray(ufunc(x), dtype=float)


_log1p, _log2 = _libm(math.log1p), _libm(math.log2)


def min_admissible_bits(r):
    """Admissibility floor of the main per-tone bound: d >= 1/2 + log2(1+r)."""
    return 0.5 + _log2(1.0 + r)


def delta_entry_bound(r, d_bits: float):
    """t = sqrt(2) (1+r) 2^-d: the entrywise ceiling on Delta under quantization
    alone."""
    return SQRT2 * (1.0 + r) * 2.0 ** (-d_bits)


def _floor_term(r, d_bits: float):
    """-2 log2(1 - t), t = ``delta_entry_bound(r, d)``: the diagonal-contraction penalty.

    Shared by the per-tone and band bounds so their single-tone consistency is
    bitwise.  ``min_bits`` is the least word length admissible on some tone.
    """
    z = delta_entry_bound(r, d_bits)
    inadmissible = z >= 1.0
    if np.all(inadmissible):
        r_min = np.min(r)
        floor = min_admissible_bits(r_min)
        raise BitDepthTooSmall(
            f"word length {d_bits} below admissibility floor {floor:.4f} for r={r_min:.4f}",
            min_bits=floor,
        )
    return -2.0 * _log1p(np.where(inadmissible, np.nan, -z)) / LN2


def bound_general_per_tone(p: int, psd_ratio_max: float, t_max, snr):
    """log2((1 + (p-1) M t^2 SNR) / (1-t)^2) for any entrywise Delta ceiling t < 1.

    M = max_{i != j} P_j / P_i is the PSD dynamic range rho = P_max / P_min
    (``LinkBudget.psd_dynamic_range``).
    """
    if np.any(t_max < 0) or psd_ratio_max < 0 or np.any(snr < 0):
        raise InvalidParams("inputs must be nonnegative")
    undefined = t_max >= 1.0
    if np.all(undefined):
        raise BoundInapplicable(f"t={np.min(t_max)} >= 1: general per-tone bound undefined")
    t = np.where(undefined, np.nan, t_max)
    num = _log1p((p - 1) * psd_ratio_max * t * t * snr) / LN2
    return num - 2.0 * _log1p(-t) / LN2


def gamma_factor(p: int, r, d_bits: float, rho: float):
    """2 (p-1) (1+r)^2 4^-d rho, the SNR factor of the main and simplified bounds."""
    if rho < 1.0:
        raise InvalidParams("PSD dynamic range rho must be >= 1")
    return 2.0 * (p - 1) * np.square(1.0 + r) * 4.0 ** (-d_bits) * rho


def bound_main_per_tone(p: int, r, d_bits: float, snr, rho: float = 1.0):
    """Per-tone quantization-loss bound log2(1 + gamma SNR) plus the floor term.

    The equal-PSD form is the rho = 1 case and the bounded-PSD-dynamic-range
    generalization multiplies the same gamma by rho, so one routine serves both.
    """
    return _log1p(gamma_factor(p, r, d_bits, rho) * snr) / LN2 + _floor_term(r, d_bits)


def bound_main_band(
    p: int,
    r_max: float,
    d_bits: float,
    snr_per_tone: np.ndarray,
    grid: ToneGrid,
    rho: float = 1.0,
) -> float:
    """Band loss bound in bits/s: rectangle-rule integral of the r_max-frozen
    per-tone first term plus the bandwidth-scaled floor term."""
    snr_per_tone = np.asarray(snr_per_tone, dtype=float)
    if snr_per_tone.size != grid.count:
        raise InvalidParams(f"{snr_per_tone.size} SNR values for {grid.count} tones")
    gamma = gamma_factor(p, r_max, d_bits, rho)
    integral = float(np.sum(np.log1p(gamma * snr_per_tone)) / LN2) * grid.spacing
    return integral + grid.bandwidth * _floor_term(r_max, d_bits)


def bound_simplified_per_tone(p: int, r, d_bits: float, snr, rho: float = 1.0):
    """Looser per-tone form 2^(-d+3.5) + log2(1 + 8 rho (p-1) SNR 2^-2d), r <= 1:
    the main bound with gamma taken at r = 1."""
    too_wide = r > 1.0
    skipped = too_wide | (delta_entry_bound(r, d_bits) > 0.5)
    if np.all(skipped):
        raise BoundInapplicable(
            f"simplified bound needs r <= 1, got {np.min(r)}" if np.all(too_wide)
            else "simplified bound needs sqrt(2)(1+r)2^-d <= 1/2; increase d"
        )
    snr = np.where(skipped, np.nan, snr)
    return 2.0 ** (-d_bits + 3.5) + _log1p(gamma_factor(p, 1.0, d_bits, rho) * snr) / LN2


def bound_asymptotic_coefficient(r_max: float, bandwidth_hz: float) -> float:
    """c with band_bound(d) * 2^d -> c as d grows: 2 t(r_max, d=0) B / ln 2."""
    return 2.0 * delta_entry_bound(r_max, 0) * bandwidth_hz / LN2


def werner_snr_profile(snr0: float, alpha_ell: float, freqs) -> np.ndarray:
    """SNR(f) = snr0 exp(-alpha_ell sqrt(f)); alpha_ell is the SNR decay."""
    return snr0 * np.exp(-alpha_ell * np.sqrt(np.asarray(freqs, dtype=float)))


def spectral_efficiency_floor(
    snr0: float, gap: float, alpha_ell: float, bandwidth_hz: float
) -> float:
    """Closed-form floor on the band-average rate of an exponentially decaying
    SNR profile:

        c = (1/3) log2(snr0/gap) + (2/3) log2(snr_edge/gap),
        snr_edge = snr0 exp(-alpha_ell sqrt(B)).

    Valid as a floor only when ``alpha_ell`` is the decay constant of the
    actual SNR profile.  Raises when the floor is nonpositive (long/lossy
    loops), where relative-loss bounds built on it stop applying.
    """
    if snr0 <= 0 or gap < 1.0 or bandwidth_hz <= 0 or alpha_ell < 0:
        raise InvalidParams("need snr0 > 0, gap >= 1, bandwidth > 0, alpha_ell >= 0")
    base = math.log2(snr0 / gap)
    edge = base - alpha_ell * math.sqrt(bandwidth_hz) / LN2
    c = base / 3.0 + 2.0 * edge / 3.0
    if c <= 0.0:
        raise FloorNonpositive(
            f"spectral-efficiency floor {c:.4f} <= 0 "
            f"(alpha_ell*sqrt(B)={alpha_ell * math.sqrt(bandwidth_hz):.2f})"
        )
    return c


@dataclass(frozen=True)
class WernerBoundParams:
    """Inputs of the attenuation-model band bounds.

    ``alpha_ell``: SNR-profile decay constant (see module docstring).
    ``snr0``: raw (gap-free) P/sigma^2 at f = 0.  ``gap`` only enters the
    rate floor ``c_floor``.
    """

    alpha_ell: float
    gamma1: float
    gamma2: float
    p: int
    snr0: float
    bandwidth_hz: float
    gap: float = 1.0

    def __post_init__(self):
        vals = (self.alpha_ell, self.gamma1, self.gamma2, self.snr0, self.bandwidth_hz, self.gap)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParams("non-finite Werner bound parameter")
        if not self.alpha_ell * self.alpha_ell > 0:  # the bounds divide by alpha_ell^2
            raise InvalidParams(f"alpha_ell must square to a positive float, got {self.alpha_ell}")
        if self.gamma1 < 0 or self.gamma2 < 0 or self.p < 2:
            raise InvalidParams("bad dominance fit or pair count")
        if self.snr0 <= 0 or self.bandwidth_hz <= 0 or self.gap < 1.0:
            raise InvalidParams("need snr0 > 0, bandwidth > 0, gap >= 1")

    @classmethod
    def from_amplitude_aggregate(
        cls,
        amplitude_aggregate: float,
        gamma1: float,
        gamma2: float,
        p: int,
        snr0: float,
        bandwidth_hz: float,
        gap: float = 1.0,
    ) -> "WernerBoundParams":
        """Build from the insertion-loss (amplitude) aggregate alpha*ell.

        The SNR profile follows the squared magnitude, so the decay constant
        is doubled here.
        """
        return cls(
            alpha_ell=2.0 * amplitude_aggregate,
            gamma1=gamma1,
            gamma2=gamma2,
            p=p,
            snr0=snr0,
            bandwidth_hz=bandwidth_hz,
            gap=gap,
        )

    @property
    def rho_ell(self) -> float:
        """(1+g1)^2 + 12 (1+g1) g2/a^2 + 240 (g2/a^2)^2, a = alpha_ell."""
        g = self.gamma2 / (self.alpha_ell * self.alpha_ell)
        return (1.0 + self.gamma1) ** 2 + 12.0 * (1.0 + self.gamma1) * g + 240.0 * g * g

    @property
    def xi_ell(self) -> float:
        """Coefficient of 2^-2d in the band-average loss bound."""
        return (
            (4.0 / LN2)
            * (self.p - 1)
            * self.snr0
            * self.rho_ell
            / (self.alpha_ell * self.alpha_ell * self.bandwidth_hz)
        )

    @property
    def c_floor(self) -> float:
        return spectral_efficiency_floor(self.snr0, self.gap, self.alpha_ell, self.bandwidth_hz)

    @property
    def zeta_ell(self) -> float:
        return self.xi_ell / self.c_floor

    def scaled_to_length(self, length_m: float, length_ref_m: float) -> "WernerBoundParams":
        """Re-anchor to another loop length: the attenuation aggregate scales
        linearly and the dominance slope like sqrt(length)."""
        if length_m <= 0 or length_ref_m <= 0:
            raise InvalidParams("lengths must be positive")
        s = length_m / length_ref_m
        return replace(self, alpha_ell=self.alpha_ell * s, gamma2=self.gamma2 * math.sqrt(s))


def bound_werner_decay(params: WernerBoundParams, d_bits: float) -> float:
    """Band-average loss bound xi 2^-2d + 2^(-d+3.5) in bits/s/Hz."""
    return params.xi_ell * 4.0 ** (-d_bits) + 2.0 ** (-d_bits + 3.5)


def bound_relative(params: WernerBoundParams, d_bits: float) -> float:
    """Relative band-loss bound zeta 2^-2d + (1/c) 2^(-d+3.5)."""
    c = params.c_floor
    return params.zeta_ell * 4.0 ** (-d_bits) + 2.0 ** (-d_bits + 3.5) / c


def _fext_weighted_max(a: float, b: float, alpha: float, bandwidth_hz: float, snr0: float) -> float:
    """max over [0, B] of (a + b x)^2 snr0 exp(-alpha sqrt(x)).

    Stationary points solve a quadratic in u = sqrt(x); endpoints always
    compete, which also covers the degenerate b = 0 case (monotone decrease).
    """
    def g(x: float) -> float:
        return (a + b * x) ** 2 * snr0 * math.exp(-alpha * math.sqrt(x))

    candidates = [0.0, bandwidth_hz]
    if b > 0:
        disc = 4.0 - alpha * alpha * a / b
        if disc >= 0.0:
            root = math.sqrt(disc)
            for u in ((2.0 - root) / alpha, (2.0 + root) / alpha):
                if 0.0 < u < math.sqrt(bandwidth_hz):
                    candidates.append(u * u)
    return max(g(x) for x in candidates)


def j_integral_bound(
    a: float, b: float, alpha: float, bandwidth_hz: float, snr0: float, mu: float
) -> float:
    """Upper bound on J(mu) = (1/B) int_0^B log2(1 + mu (a+bx)^2 f(x)) dx with
    f(x) = snr0 exp(-alpha sqrt(x)):

        min( e^{alpha sqrt(B)} / (alpha^2 B) * (2a^2 + 24ab/alpha^2 + 240 (b/alpha^2)^2)
               * log2(1 + mu f(B)),
             log2(1 + M mu) )

    where M is the exact maximum of the integrand's argument over the band.
    Sharp for small mu when the band captures the bulk of the weighting
    integrals (alpha sqrt(B) of a few or more).
    """
    if alpha <= 0 or bandwidth_hz <= 0 or snr0 <= 0:
        raise InvalidParams("alpha, bandwidth, snr0 must be positive")
    if a < 1.0 or b < 0.0 or mu < 0.0:
        raise InvalidParams("need a >= 1, b >= 0, mu >= 0")
    if mu == 0.0:
        return 0.0
    a2 = alpha * alpha
    poly = 2.0 * a * a + 24.0 * a * b / a2 + 240.0 * (b / a2) ** 2
    root_b = math.sqrt(bandwidth_hz)
    f_edge = snr0 * math.exp(-alpha * root_b)
    term1 = math.exp(alpha * root_b) / (a2 * bandwidth_hz) * poly * math.log1p(mu * f_edge) / LN2
    m_peak = _fext_weighted_max(a, b, alpha, bandwidth_hz, snr0)
    term2 = math.log1p(m_peak * mu) / LN2
    return min(term1, term2)
