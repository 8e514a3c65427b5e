"""Inverse design rules: minimum word length for a given loss budget.

All rules reduce to one quadratic fact: if a bound has the shape
A 2^-2d + B 2^-d with A, B > 0, then it drops below a target T for every

    d >= d(T) = log2(1.25 B / T)        when T <= B^2 / (4A)
                0.5 log2(6.25 A / T)    otherwise,

while the exact crossing point is d0(T) = log2((sqrt(B^2+4AT) + B) / (2T)).
The closed-form d(T) costs at most ~1.33 bits over d0.

Every bit-count returned here is *verified*: starting from the analytic
value, the integer word length is probed against the actual bound (up until
admissible, then down while still admissible), so the guarantee
"bound(d) <= target" holds by construction rather than by formula trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic_bounds import (
    WernerBoundParams,
    bound_main_per_tone,
    bound_relative,
    min_admissible_bits,
)
from .errors import BitDepthTooSmall, InvalidParams, TargetUnreachable, XtalkError
from .units import LN2, SQRT2

MAX_BITS = 64


@dataclass(frozen=True)
class QuadraticBudget:
    """Coefficients of A 2^-2d + B 2^-d and the target T."""

    A: float
    B_coef: float
    T: float

    def __post_init__(self):
        if not all(
            math.isfinite(v) and v > 0 for v in (self.A, self.B_coef, self.T)
        ):
            raise InvalidParams("A, B, T must be finite and positive")

    def value(self, d_bits: float) -> float:
        return self.A * 4.0 ** (-d_bits) + self.B_coef * 2.0 ** (-d_bits)


@dataclass(frozen=True)
class QuadraticSolution:
    d_bits: float       # closed-form sufficient word length d(T)
    d_exact: float      # exact crossing point d0(T)
    case: str           # which branch of d(T) applied


def solve_quadratic_budget(q: QuadraticBudget) -> QuadraticSolution:
    """Closed-form d(T) plus the exact root for slack reporting.

    Guarantees A 2^-2d + B 2^-d <= T for all d >= d(T).
    """
    a, b, t = q.A, q.B_coef, q.T
    # d0 via the rationalized root: avoids cancellation when 4AT << B^2.
    d_exact = math.log2((math.sqrt(b * b + 4.0 * a * t) + b) / (2.0 * t))
    if t <= b * b / (4.0 * a):
        d_bits = math.log2(1.25 * b / t)
        case = "linear-term"
    else:
        d_bits = 0.5 * math.log2(6.25 * a / t)
        case = "quadratic-term"
    return QuadraticSolution(d_bits=d_bits, d_exact=d_exact, case=case)


@dataclass(frozen=True)
class BitsResult:
    """Verified integer word length plus design diagnostics."""

    d_bits: int
    d_analytic: float       # closed-form real-valued d before probing
    d_exact: float          # exact root of the quadratic budget
    bound_value: float      # bound evaluated at d_bits (<= target)
    target: float
    floored: bool = False   # d is pinned at the admissibility floor, not the target


def _probe(admissible, d_start: int, d_floor: int) -> int:
    """Smallest admissible integer >= d_floor near d_start, at most MAX_BITS.

    Walks up until admissible (the analytic start may sit below the true
    minimum), then down while the next smaller word length still passes.
    A start above MAX_BITS starts at MAX_BITS.
    """
    d = min(max(d_start, d_floor, 1), MAX_BITS)
    while not admissible(d):
        d += 1
        if d > MAX_BITS:
            raise TargetUnreachable(f"no d <= {MAX_BITS} meets the target")
    while d - 1 >= max(d_floor, 1) and admissible(d - 1):
        d -= 1
    return d


def bits_for_tone_loss(
    p: int, r: float, snr: float, t: float, rho: float = 1.0
) -> BitsResult:
    """Minimum d with per-tone loss bound <= t bits/s/Hz.

    Closed form: with u = 2 rho (p-1)(1+r)^2 SNR and v = sqrt(2)(1+r),

        d(t) = log2(1.25 v 2^(t+1) / (t ln 2))     small-t branch
               0.5 log2(6.25 u / (t ln 2))         otherwise

    (branch chosen by 2^t - 1 <= B^2/(4A) for the local quadratic A = u,
    B = 2^(t+1) v).  The returned integer is bound-verified.
    """
    if not 0.0 < t < 1023.0:  # 2^(t+1) below must stay a float
        raise InvalidParams(f"per-tone loss target must lie in (0, 1023) bits/s/Hz, got {t}")
    u = 2.0 * rho * (p - 1) * (1.0 + r) ** 2 * snr
    v = SQRT2 * (1.0 + r)
    b_local = 2.0 ** (t + 1.0) * v
    if 2.0**t - 1.0 <= b_local * b_local / (4.0 * u):
        d_analytic = math.log2(1.25 * b_local / (t * LN2))
    else:
        d_analytic = 0.5 * math.log2(6.25 * u / (t * LN2))
    d_exact = solve_quadratic_budget(
        QuadraticBudget(A=u, B_coef=b_local, T=2.0**t - 1.0)
    ).d_exact

    d_floor = math.ceil(min_admissible_bits(r))

    def admissible(d: int) -> bool:
        try:
            return bound_main_per_tone(p, r, d, snr, rho=rho) <= t
        except BitDepthTooSmall:
            return False

    d = _probe(admissible, math.ceil(d_analytic), d_floor)
    return BitsResult(
        d_bits=d,
        d_analytic=d_analytic,
        d_exact=d_exact,
        bound_value=bound_main_per_tone(p, r, d, snr, rho=rho),
        target=t,
        floored=(d == d_floor and d_floor > 1),
    )


def bits_for_relative_loss(params: WernerBoundParams, tau: float) -> BitsResult:
    """Minimum d with relative band-loss bound <= tau.

    Closed form: d(tau) = log2(12 sqrt(2) / (c tau)) on the small-tau branch
    (tau <= 32 / (zeta c^2)), else 0.5 log2(6.25 zeta / tau); bound-verified.
    """
    if not 0.0 < tau <= 1.0:
        raise InvalidParams("tau must lie in (0, 1]")
    c = params.c_floor
    zeta = params.zeta_ell
    if tau <= 32.0 / (zeta * c * c):
        d_analytic = math.log2(12.0 * SQRT2 / (c * tau))
    else:
        d_analytic = 0.5 * math.log2(6.25 * zeta / tau)
    d_exact = solve_quadratic_budget(
        QuadraticBudget(A=zeta, B_coef=2.0**3.5 / c, T=tau)
    ).d_exact

    def admissible(d: int) -> bool:
        return bound_relative(params, d) <= tau

    d = _probe(admissible, math.ceil(d_analytic), 1)
    return BitsResult(
        d_bits=d,
        d_analytic=d_analytic,
        d_exact=d_exact,
        bound_value=bound_relative(params, d),
        target=tau,
    )


@dataclass(frozen=True)
class SweepRow:
    length_m: float
    d_bits: int | None
    bound_value: float | None
    c_floor: float | None
    error: str | None = None


def sweep_bits_vs_loop_length(
    lengths_m,
    template: WernerBoundParams,
    tau: float,
    length_ref_m: float,
) -> list[SweepRow]:
    """bits_for_relative_loss across loop lengths (plot data for bits-vs-length).

    The template is re-anchored per length (attenuation linear in length,
    dominance slope like sqrt(length)); the package's typed per-length
    failures are recorded in the row and the sweep continues.
    """
    if not lengths_m:
        raise InvalidParams("need at least one loop length")
    rows = []
    for ell in lengths_m:
        try:
            params = template.scaled_to_length(ell, length_ref_m)
            res = bits_for_relative_loss(params, tau)
            row = SweepRow(float(ell), res.d_bits, res.bound_value, params.c_floor)
        except XtalkError as exc:  # record and continue: sweep rows are independent
            row = SweepRow(float(ell), None, None, None, error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows
