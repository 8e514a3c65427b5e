import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalk_quant.analytic_bounds import (
    WernerBoundParams,
    bound_main_per_tone,
    bound_relative,
    min_admissible_bits,
)
from xtalk_quant.design import (
    MAX_BITS,
    QuadraticBudget,
    _probe,
    bits_for_relative_loss,
    bits_for_tone_loss,
    solve_quadratic_budget,
    sweep_bits_vs_loop_length,
)
from xtalk_quant.errors import InvalidParams, TargetUnreachable

from conftest import REF_SNR0, REF_SNR_DECAY

GAP = 10**1.07


class TestQuadraticLemma:
    def test_linear_branch_example(self):
        # A=4, B=4, T=1: threshold B^2/4A = 1 >= T -> linear branch, d = log2(5)
        sol = solve_quadratic_budget(QuadraticBudget(4.0, 4.0, 1.0))
        assert sol.case == "linear-term"
        assert sol.d_bits == pytest.approx(math.log2(5.0), rel=1e-14)
        x = 2.0**-sol.d_bits
        assert 4 * x * x + 4 * x == pytest.approx(0.96, rel=1e-12)

    def test_quadratic_branch_example(self):
        # A=100, B=1, T=1: B^2/4A << T -> quadratic branch, d = 0.5 log2(625)
        sol = solve_quadratic_budget(QuadraticBudget(100.0, 1.0, 1.0))
        assert sol.case == "quadratic-term"
        assert sol.d_bits == pytest.approx(0.5 * math.log2(625.0), rel=1e-14)
        assert QuadraticBudget(100.0, 1.0, 1.0).value(sol.d_bits) <= 1.0

    def test_guarantee_near_branch_boundary(self):
        # the balanced triple that breaks the naive quadratic-branch constant
        q = QuadraticBudget(1.0, 1.0, 1.0)
        sol = solve_quadratic_budget(q)
        assert q.value(sol.d_bits) <= q.T

    @given(
        st.floats(min_value=-3, max_value=9),
        st.floats(min_value=-3, max_value=9),
        st.floats(min_value=-6, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_guarantee_and_slack_property(self, la, lb, lt):
        q = QuadraticBudget(10.0**la, 10.0**lb, 10.0**lt)
        sol = solve_quadratic_budget(q)
        assert q.value(sol.d_bits) <= q.T * (1 + 1e-12)
        assert sol.d_exact <= sol.d_bits <= sol.d_exact + 2.0
        # d_exact really is the crossing point
        assert q.value(sol.d_exact) == pytest.approx(q.T, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            QuadraticBudget(0.0, 1.0, 1.0)


class TestBitsForToneLoss:
    def test_sixty_db_needs_fourteen(self):
        rate = math.log2(1 + 1e6 / GAP)
        res = bits_for_tone_loss(10, 0.16, 1e6, 0.01 * rate)
        assert res.d_bits == 14
        assert res.bound_value <= res.target

    def test_forty_db_needs_eleven(self):
        rate = math.log2(1 + 1e4 / GAP)
        res = bits_for_tone_loss(10, 0.16, 1e4, 0.01 * rate)
        assert res.d_bits == 11
        assert res.bound_value <= res.target

    def test_huge_target_hits_floor(self):
        r = 2.0
        res = bits_for_tone_loss(10, r, 1e4, 50.0)
        assert res.floored
        assert res.d_bits == math.ceil(min_admissible_bits(r))
        assert res.bound_value <= 50.0

    def test_guarantee_is_structural(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            p = int(rng.integers(2, 30))
            r = float(rng.uniform(0, 1.5))
            snr = 10 ** rng.uniform(1, 9)
            t = 10 ** rng.uniform(-3, 0.5)
            res = bits_for_tone_loss(p, r, snr, t)
            assert res.bound_value <= t
            # minimality: one bit less either violates the target or the floor
            d_less = res.d_bits - 1
            if d_less >= 1 and d_less >= min_admissible_bits(r):
                assert bound_main_per_tone(p, r, d_less, snr) > t

    def test_monotone_in_target_snr_users(self):
        rate = math.log2(1 + 1e6 / GAP)
        base = bits_for_tone_loss(10, 0.16, 1e6, 0.01 * rate).d_bits
        assert bits_for_tone_loss(10, 0.16, 1e6, 0.001 * rate).d_bits >= base
        assert bits_for_tone_loss(10, 0.16, 1e8, 0.01 * rate).d_bits >= base
        assert bits_for_tone_loss(50, 0.16, 1e6, 0.01 * rate).d_bits >= base


def reference_werner_params() -> WernerBoundParams:
    return WernerBoundParams(
        alpha_ell=REF_SNR_DECAY,
        gamma1=0.1596,
        gamma2=3.1729e-8,
        p=10,
        snr0=REF_SNR0,
        bandwidth_hz=30e6,
        gap=GAP,
    )


class TestBitsForRelativeLoss:
    def test_slack_target_minimal_bits(self):
        # generous target: the verified minimum is returned, not the analytic ceil
        params = reference_werner_params()
        res = bits_for_relative_loss(params, 1.0)
        assert bound_relative(params, res.d_bits) <= 1.0
        assert bound_relative(params, res.d_bits - 1) > 1.0
        assert res.d_bits <= math.ceil(res.d_analytic)
        # a mild scenario (small zeta, large floor) admits a genuinely small d
        mild = WernerBoundParams(
            alpha_ell=2.5e-4,
            gamma1=0.0,
            gamma2=0.0,
            p=2,
            snr0=16.0,
            bandwidth_hz=30e6,
            gap=1.0,
        )
        assert bits_for_relative_loss(mild, 1.0).d_bits <= 4

    def test_posthoc_guarantee_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            params = WernerBoundParams(
                alpha_ell=10 ** rng.uniform(-3.6, -2.6),
                gamma1=float(rng.uniform(0, 0.5)),
                gamma2=10 ** rng.uniform(-9, -7.3),
                p=int(rng.integers(2, 30)),
                snr0=10 ** rng.uniform(6, 9),
                bandwidth_hz=30e6,
                gap=GAP,
            )
            try:
                params.c_floor
            except Exception:
                continue
            tau = 10 ** rng.uniform(-3, 0)
            res = bits_for_relative_loss(params, tau)
            assert bound_relative(params, res.d_bits) <= tau
            if res.d_bits > 1:
                assert bound_relative(params, res.d_bits - 1) > tau

    def test_reference_scenario_needs_fifteen(self):
        # the explicit closed-form chain at 300 m / 1% lands one bit above the
        # headline 14 (see the acceptance module for the full story)
        res = bits_for_relative_loss(reference_werner_params(), 0.01)
        assert res.d_bits == 15


class TestWordLengthCap:
    """No verified word length exceeds MAX_BITS, wherever the analytic start lies."""

    def test_probe_start_above_cap(self):
        with pytest.raises(TargetUnreachable):
            _probe(lambda d: d > MAX_BITS, MAX_BITS + 30, 1)
        assert _probe(lambda d: d >= MAX_BITS, MAX_BITS + 30, 1) == MAX_BITS
        assert _probe(lambda d: d >= 20, MAX_BITS + 30, 1) == 20

    def test_relative_target_beyond_cap_unreachable(self):
        # the closed form asks for about 999 bits
        with pytest.raises(TargetUnreachable):
            bits_for_relative_loss(reference_werner_params(), 1e-300)


class TestSweep:
    def test_single_length_matches_direct_call(self):
        params = reference_werner_params()
        rows = sweep_bits_vs_loop_length([300.0], params, 0.01, 300.0)
        assert len(rows) == 1
        assert rows[0].d_bits == bits_for_relative_loss(params, 0.01).d_bits
        assert rows[0].error is None

    def test_errors_recorded_not_raised(self):
        params = reference_werner_params()
        rows = sweep_bits_vs_loop_length([300.0, 5000.0], params, 0.01, 300.0)
        assert rows[0].d_bits is not None
        assert rows[1].d_bits is None
        assert "FloorNonpositive" in rows[1].error

    def test_empty_lengths_rejected(self):
        with pytest.raises(InvalidParams):
            sweep_bits_vs_loop_length([], reference_werner_params(), 0.01, 300.0)

    def test_programming_errors_propagate(self, monkeypatch):
        # only the package's own typed failures become table rows; a bug must not
        from xtalk_quant import design

        def broken(params, tau):
            raise TypeError("bug")

        monkeypatch.setattr(design, "bits_for_relative_loss", broken)
        with pytest.raises(TypeError):
            sweep_bits_vs_loop_length([300.0], reference_werner_params(), 0.01, 300.0)
