"""Inverse design rules: minimum word length for a given loss budget.

All rules reduce to one quadratic fact: if a bound has the shape
A 2^-2d + B 2^-d with A, B > 0, then it drops below a target T for every

    d >= d(T) = log2(1.25 B / T)        when T <= B^2 / (4A)
                0.5 log2(6.25 A / T)    otherwise,

while the exact crossing point is d0(T) = log2((sqrt(B^2+4AT) + B) / (2T)).
The closed-form d(T) costs at most ~1.33 bits over d0.

Every bit-count returned here is *verified*: the bounds fall as d grows, so
the first word length of an upward scan that meets the target is the minimum,
and "bound(d) <= target" holds by construction rather than by formula trust.
The closed-form d(T) is reported as a diagnostic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic_bounds import (
    WernerBoundParams,
    bound_main_per_tone,
    bound_relative,
    delta_entry_bound,
    gamma_factor,
    min_admissible_bits,
)
from .errors import BitDepthTooSmall, InvalidParams, TargetUnreachable, XtalkError
from .precoding import MAX_BITS
from .units import LN2, SQRT2


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
    # d0 via the rationalized root: avoids cancellation when 4AT << B^2; hypot
    # keeps sqrt(B^2 + 4AT) finite where B^2 or AT alone would overflow.
    d_exact = math.log2((math.hypot(b, 2.0 * math.sqrt(a) * math.sqrt(t)) + b) / (2.0 * t))
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
    d_analytic: float       # closed-form real-valued d (diagnostic only)
    d_exact: float          # exact root of the quadratic budget
    bound_value: float      # bound evaluated at d_bits (<= target)
    target: float
    floored: bool = False   # d is pinned at the admissibility floor, not the target


def _first_passing(passes) -> int:
    """Smallest d in 1..MAX_BITS with passes(d); the bounds fall as d grows."""
    for d in range(1, MAX_BITS + 1):
        if passes(d):
            return d
    raise TargetUnreachable(f"no d <= {MAX_BITS} meets the target")


def bits_for_tone_loss(p: int, r, snr, t: float, rho: float = 1.0) -> BitsResult:
    """Minimum d with per-tone loss bound <= t bits/s/Hz on every tone.

    ``r`` and ``snr`` are floats or tone arrays.  A tone's word length is the
    first d of an upward scan from its admissibility floor that meets the
    target; the result is that of the first tone needing the most bits.

    Its closed form: with u = ``gamma_factor`` at d = 0 times SNR, i.e.
    2 rho (p-1)(1+r)^2 SNR, and v = ``delta_entry_bound`` at d = 0, i.e. sqrt(2)(1+r),

        d(t) = log2(1.25 v 2^(t+1) / (t ln 2))     small-t branch
               0.5 log2(6.25 u / (t ln 2))         otherwise

    (branch chosen by 2^t - 1 <= B^2/(4A) for the local quadratic A = u,
    B = 2^(t+1) v), reported as ``d_analytic``.
    """
    if not (0.0 < t < 1023.0 and 2.0**t > 1.0):  # 2^(t+1) below stays a float, 2^t - 1 > 0
        raise InvalidParams(f"per-tone loss target must lie in (0, 1023) with 2^t > 1, got {t}")
    r, snr = np.broadcast_arrays(np.atleast_1d(r), np.atleast_1d(snr))
    if r.size == 0:
        raise InvalidParams("need at least one tone")
    d_floor = np.ceil(min_admissible_bits(r))
    d_tone = np.zeros(r.shape, dtype=int)  # 0 until the tone meets the target

    def all_met(d: int) -> bool:
        todo = np.flatnonzero((d_tone == 0) & (d_floor <= d))
        if todo.size:
            try:  # a tone whose bound reads NaN (z >= 1) does not meet the target
                met = bound_main_per_tone(p, r[todo], d, snr[todo], rho=rho) <= t
            except BitDepthTooSmall:  # z >= 1 on every tone scanned
                return False
            d_tone[todo[met]] = d
        return bool(d_tone.all())

    d = _first_passing(all_met)
    k = int(np.argmax(d_tone))  # the first tone that needs d bits
    r_k, snr_k = float(r[k]), float(snr[k])
    u = gamma_factor(p, r_k, 0, rho) * snr_k
    v = delta_entry_bound(r_k, 0)
    b_local = 2.0 ** (t + 1.0) * v
    t_lin = 2.0**t - 1.0  # the local quadratic's T
    if u == 0.0 or t_lin <= b_local * b_local / (4.0 * u):
        d_analytic = math.log2(1.25 * b_local / (t * LN2))
    else:
        d_analytic = 0.5 * math.log2(6.25 * u / (t * LN2))
    if u == 0.0:  # one pair: no quadratic term, and the root is its A -> 0 limit
        d_exact = math.log2(b_local / t_lin)
    else:
        d_exact = solve_quadratic_budget(QuadraticBudget(A=u, B_coef=b_local, T=t_lin)).d_exact
    return BitsResult(
        d_bits=d,
        d_analytic=d_analytic,
        d_exact=d_exact,
        bound_value=bound_main_per_tone(p, r_k, d, snr_k, rho=rho),
        target=t,
        floored=bool(d == d_floor[k] and d > 1),
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
    d_exact = solve_quadratic_budget(QuadraticBudget(A=zeta, B_coef=2.0**3.5 / c, T=tau)).d_exact

    d = _first_passing(lambda d: bound_relative(params, d) <= tau)
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
    # a bad target, or a length that would print as nan or inf, fails the
    # whole sweep instead of filling its rows
    if not all(math.isfinite(ell) for ell in lengths_m):
        raise InvalidParams(f"loop lengths must be finite, got {list(lengths_m)}")
    if not 0.0 < tau <= 1.0:
        raise InvalidParams("tau must lie in (0, 1]")
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
