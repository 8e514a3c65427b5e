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
    _first_passing,
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

    def test_exact_root_finite_where_b_squared_overflows(self):
        # a 600 bits/s/Hz tone target: B = 2^601 v, so B^2 alone is inf
        a, b, t = 1e9, 2.0**601 * math.sqrt(2) * 1.3, 2.0**600 - 1.0
        q = QuadraticBudget(a, b, t)
        d_exact = solve_quadratic_budget(q).d_exact
        assert math.isfinite(d_exact)
        assert q.value(d_exact) == pytest.approx(t, rel=1e-12)
        assert math.isfinite(bits_for_tone_loss(4, 0.3, 1e9, 600.0).d_exact)

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

    def test_one_pair_has_no_quadratic_term(self):
        # p = 1: u = 0, so the budget is B 2^-d alone; the root is the A -> 0
        # limit log2(B/T) and the closed form takes the linear branch
        t = 0.1
        b, t_lin = 2.0 ** (t + 1.0) * math.sqrt(2), 2.0**t - 1.0
        res = bits_for_tone_loss(1, 0.0, 1e6, t)
        assert res.d_exact == math.log2(b / t_lin)
        assert res.d_exact == pytest.approx(
            solve_quadratic_budget(QuadraticBudget(1e-300, b, t_lin)).d_exact, rel=1e-12
        )
        assert res.d_analytic == math.log2(1.25 * b / (t * math.log(2)))
        assert res.bound_value <= t

    def test_target_below_float_resolution_refused(self):
        # 2^t rounds to 1, so 2^t - 1 is 0 and no root exists, at any pair count
        for p in (1, 2):
            with pytest.raises(InvalidParams, match="2\\^t > 1"):
                bits_for_tone_loss(p, 0.0, 1e6, 1e-17)

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
            n = int(rng.integers(1, 9))
            r = rng.uniform(0, 1.5, n)
            snr = 10 ** rng.uniform(1, 9, n)
            t = 10 ** rng.uniform(-3, 0.5)
            res = bits_for_tone_loss(p, r, snr, t)
            assert res.bound_value <= t
            assert np.all(bound_main_per_tone(p, r, res.d_bits, snr) <= t)
            # minimality: one bit less violates the target or the floor on some tone
            d_less = res.d_bits - 1
            if d_less >= 1 and d_less >= min_admissible_bits(r.max()):
                assert np.any(bound_main_per_tone(p, r, d_less, snr) > t)

    @given(
        st.integers(min_value=2, max_value=30),
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=1.0, max_value=1e9)),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=1e-3, max_value=60.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_tone_array_gives_first_worst_tone(self, p, tones, t, rho):
        # the maximum over tones, with the figures of the first tone needing it
        per_tone = [bits_for_tone_loss(p, r, snr, t, rho) for r, snr in tones]
        r, snr = (np.array(col) for col in zip(*tones))
        assert bits_for_tone_loss(p, r, snr, t, rho) == max(per_tone, key=lambda res: res.d_bits)

    def test_large_target_scans_up_from_the_floor(self, monkeypatch):
        # the closed form asks for about 96 bits; the scan stops at the floor
        from xtalk_quant import design

        calls = []
        scalar = design.bound_main_per_tone
        monkeypatch.setattr(
            design, "bound_main_per_tone", lambda *a, **k: calls.append(a) or scalar(*a, **k)
        )
        res = bits_for_tone_loss(10, np.array([0.5, 0.8]), np.array([1e6, 1e7]), 100.0)
        assert res.d_analytic > 90
        assert res.d_bits == 2 and res.floored
        assert [a[2] for a in calls] == [2, 2]  # the scan at the floor, then the result's figure

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
    """No verified word length exceeds MAX_BITS, wherever the analytic d lies."""

    def test_scan_stops_at_cap(self):
        with pytest.raises(TargetUnreachable):
            _first_passing(lambda d: d > MAX_BITS)
        assert _first_passing(lambda d: d >= MAX_BITS) == MAX_BITS
        assert _first_passing(lambda d: d >= 20) == 20

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
