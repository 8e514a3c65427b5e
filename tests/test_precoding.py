import math

import numpy as np
import pytest

from xtalk_quant import streams
from xtalk_quant.channel_model import ChannelEnsemble, ToneGrid
from xtalk_quant.errors import RangeError, SingularChannel
from xtalk_quant.precoding import (
    COND_LIMIT,
    E2_DETERMINISTIC,
    E2_UNIFORM,
    PerturbationSpec,
    build_delta,
    delta_entry_bound,
    ideal_precoder,
    make_bundle,
    quantize_precoder,
)
from xtalk_quant.rate_analysis import build_report, loss_arrays
from xtalk_quant.units import SQRT2

from conftest import one_tone, random_dominant_tone


def _uniform_errors(rng, p, d):
    """E2 with real/imag components uniform on [-2^-d, 2^-d]."""
    return 2.0**-d * streams.uniform_complex(rng, (p, p))


class TestIdealPrecoder:
    def test_diagonal_channel_gives_identity(self):
        H = np.diag([1.0 + 0.5j, -2.0, 0.25j])
        assert np.array_equal(ideal_precoder(one_tone(1e6, H)), np.eye(3)[None].astype(complex))

    def test_two_by_two_linear_solve_oracle(self):
        H = np.array([[1.0, 0.1], [0.1, 1.0]], dtype=complex)
        P = ideal_precoder(one_tone(1e6, H))[0]
        prod = H @ P
        assert np.max(np.abs(prod - np.diag(np.diagonal(prod)))) <= 1e-12
        assert np.allclose(P, np.linalg.inv(H) @ np.diag(np.diagonal(H)), atol=1e-14)

    def test_zf_residual_random_dominant(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            tone = random_dominant_tone(rng, int(rng.integers(2, 9)), 0.5)
            P = ideal_precoder(tone)[0]
            equiv = (tone.H[0] @ P) / tone.D[0][:, None]
            off = np.abs(equiv - np.diag(np.diagonal(equiv)))
            assert off.sum(axis=1).max() <= 1e-10

    def test_singular_channel_rejected(self):
        H = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
        with pytest.raises(SingularChannel) as err:
            ideal_precoder(one_tone(2e6, H))
        assert err.value.freq == 2e6

    def test_first_ill_conditioned_tone_named(self, small_ensemble):
        H = small_ensemble.H.copy()
        H[[5, 9]] = [[1.0, 1.0, 0, 0], [1.0, 1.0 + 1e-15, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(SingularChannel) as err:
            ideal_precoder(ChannelEnsemble(small_ensemble.grid, H))
        assert err.value.freq == small_ensemble.grid.freq(5)

    def test_batched_equals_one_tone_at_a_time(self, small_ensemble):
        P = ideal_precoder(small_ensemble)
        for k, snap in enumerate(small_ensemble.snapshots):
            assert np.array_equal(P[k], ideal_precoder(one_tone(snap.freq, snap.H))[0])


class TestQuantizer:
    def test_identity_is_exactly_representable(self):
        for d in (1, 5, 14):
            out = quantize_precoder(np.eye(4).astype(complex), PerturbationSpec(d_bits=d))
            assert np.array_equal(out.p_quantized, np.eye(4).astype(complex))
            assert np.all(out.e2 == 0.0)

    def test_rounding_example(self):
        out = quantize_precoder(
            np.array([[0.3 + 0.0j]]), PerturbationSpec(d_bits=2)
        )
        assert out.p_quantized[0, 0] == 0.25
        assert out.e2[0, 0] == pytest.approx(-0.05, abs=1e-15)
        assert abs(out.e2[0, 0]) <= 2.0**-3

    @pytest.mark.parametrize("d", [3, 8, 14])
    def test_deterministic_error_ceiling(self, d):
        rng = np.random.default_rng(d)
        P = rng.uniform(-1, 1, (20, 20)) + 1j * rng.uniform(-1, 1, (20, 20))
        out = quantize_precoder(P, PerturbationSpec(d_bits=d))
        assert np.max(np.abs(out.e2.real)) <= 2.0 ** (-d - 1)
        assert np.max(np.abs(out.e2.imag)) <= 2.0 ** (-d - 1)

    def test_monotone_word_length(self):
        rng = np.random.default_rng(5)
        P = rng.uniform(-1, 1, (12, 12)) + 1j * rng.uniform(-1, 1, (12, 12))
        for d in range(2, 12):
            e_lo = quantize_precoder(P, PerturbationSpec(d_bits=d)).e2
            e_hi = quantize_precoder(P, PerturbationSpec(d_bits=d + 1)).e2
            assert np.max(np.abs(e_hi.real)) <= 2.0 ** (-d - 2)
            assert np.max(np.abs(e_hi.real)) <= max(np.max(np.abs(e_lo.real)), 2.0 ** (-d - 2))

    def test_uniform_model_statistics(self):
        d = 6
        zeros = np.zeros((1, 700, 700), dtype=complex)  # ~1e6 components
        e2 = quantize_precoder(zeros, PerturbationSpec(d_bits=d, e2_model=E2_UNIFORM, seed=9)).e2
        comps = np.concatenate([e2.real.ravel(), e2.imag.ravel()])
        q = 2.0**-d
        assert np.max(np.abs(comps)) <= q
        sigma = q / np.sqrt(3 * comps.size)
        assert abs(comps.mean()) <= 3 * sigma

    def test_unit_box_enforced(self):
        P = np.array([[1.25 + 0.0j]])
        with pytest.raises(RangeError):
            quantize_precoder(P, PerturbationSpec(d_bits=8))
        out = quantize_precoder(P, PerturbationSpec(d_bits=8), normalize=True)
        assert out.scale == 2.0
        assert abs(out.e2[0, 0]) <= out.scale * 2.0**-9

    def test_block_scale_per_matrix(self):
        # the smallest power of two that brings each matrix back into the box
        P = np.array([0.5, 1.0, 1.25, 2.0, 2.0000000000000004, 3.9]).reshape(6, 1, 1) + 0j
        out = quantize_precoder(P, PerturbationSpec(d_bits=8), normalize=True)
        assert np.array_equal(out.scale, [1.0, 1.0, 2.0, 2.0, 4.0, 4.0])
        with pytest.raises(RangeError, match="matrix 2"):
            quantize_precoder(P, PerturbationSpec(d_bits=8))


class TestDelta:
    def test_zero_errors_zero_delta(self, small_ensemble):
        z = np.zeros_like(small_ensemble.H)
        assert np.all(build_delta(small_ensemble, None, z) == 0.0)

    def test_quantization_only_closed_form(self, small_ensemble):
        rng = np.random.default_rng(2)
        e2 = np.stack([_uniform_errors(rng, small_ensemble.p, 10) for _ in small_ensemble.freqs])
        delta = build_delta(small_ensemble, None, e2)
        for k in range(small_ensemble.grid.count):
            assert np.allclose(delta[k], small_ensemble.Q[k] @ e2[k], rtol=0, atol=1e-16)

    def test_identity_residual_with_estimation_error(self):
        rng = np.random.default_rng(3)
        tone = random_dominant_tone(rng, 3, 0.4)
        e1 = 1e-3 * (rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3)))
        e2 = 1e-4 * (rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3)))
        delta = build_delta(tone, e1, e2)[0]  # raises NumericalError on violation
        p_pert = np.linalg.inv(tone.Q[0] + e1[0]) + e2[0]
        lhs = tone.H[0] @ p_pert
        rhs = tone.D[0][:, None] * (np.eye(3) + delta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(tone.D))

    def test_singular_tone_named(self):
        H = np.stack([np.eye(2), np.eye(2), np.ones((2, 2)), np.ones((2, 2))]).astype(complex)
        chan = ChannelEnsemble(ToneGrid(1e6, 1e6 + 3.5, 1.0), H)
        with pytest.raises(SingularChannel) as err:
            build_delta(chan, None, np.zeros_like(H))
        assert err.value.freq == 1e6 + 2.0

    def test_delta_affine_in_e2(self):
        rng = np.random.default_rng(4)
        tone = random_dominant_tone(rng, 4, 0.3)
        e1 = 1e-3 * (rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
        e2a = 1e-4 * (rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
        e2b = 1e-4 * (rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
        base = build_delta(tone, e1, np.zeros_like(e2a))
        da = build_delta(tone, e1, e2a) - base
        db = build_delta(tone, e1, e2b) - base
        dab = build_delta(tone, e1, e2a + e2b) - base
        assert np.allclose(dab, da + db, atol=1e-12)

    def test_entry_bound_dominates(self, small_ensemble):
        rng = np.random.default_rng(6)
        d = 9
        ceiling = delta_entry_bound(small_ensemble, d)[-1]
        assert ceiling == pytest.approx(2.0 ** (-d + 0.5) * (1 + small_ensemble.r[-1]), rel=1e-12)
        q_mat = small_ensemble.Q[-1]
        worst = 0.0
        for _ in range(1000):
            e2 = _uniform_errors(rng, small_ensemble.p, d)
            worst = max(worst, np.max(np.abs(q_mat @ e2)))
        assert worst <= ceiling

    def test_entry_bound_values(self):
        flat = one_tone(0.0, np.eye(2))
        assert delta_entry_bound(flat, 1)[0] == pytest.approx(2.0**-0.5, rel=1e-12)
        fitted = one_tone(1e6, np.array([[1.0, 0.1596], [0.0, 1.0]]))
        assert delta_entry_bound(fitted, 14)[0] == pytest.approx(
            2.0**-13.5 * 1.1596, rel=1e-12
        )
        assert delta_entry_bound(fitted, 14)[0] == pytest.approx(1.0009e-4, rel=1e-4)


class TestBundle:
    def test_bundle_consistency(self, small_ensemble, small_budget):
        # the same channel on two tones: only the tone index keys the draws
        snap = small_ensemble.snapshots[2]
        two = ChannelEnsemble(ToneGrid(snap.freq, snap.freq + 1.5, 1.0), np.stack([snap.H, snap.H]))
        spec = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, seed=77)
        bundle = make_bundle(two, spec)
        assert np.allclose(
            bundle.p_perturbed, bundle.p_ideal + bundle.e2, atol=1e-15
        )
        # distinct tones draw from distinct streams under one seed
        assert not np.array_equal(bundle.e2[0], bundle.e2[1])
        again = make_bundle(two, spec)
        assert np.array_equal(again.e2, bundle.e2)

        # estimated precoders routinely poke just over the unit box, so the
        # estimation-error path needs the explicit block-scaling opt-in
        spec_csi = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, e1_samples=1000, seed=77)
        bundle = make_bundle(two, spec_csi, snr=small_budget.snr(two), normalize=True)
        est = np.linalg.inv(two.Q + bundle.e1)
        assert np.allclose(bundle.p_perturbed, est + bundle.e2, atol=1e-12)


def _philox(seed, *key):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _per_tone_reference(ensemble, budget, spec, normalize):
    """The per-tone make_bundle -> build_report path that the batched code
    replaced, kept as the oracle: one tone at a time, E2 from stream (2, k)
    and E1 from stream (3, k), then the loss kernel on that tone alone."""
    p, n, d = ensemble.p, ensemble.grid.count, spec.d_bits
    cols = {key: np.empty((p, n)) for key in ("rate", "loss", "a", "q", "k")}
    for k, snap in enumerate(ensemble.snapshots):
        H, D = snap.H, snap.D
        F = H.copy()
        np.fill_diagonal(F, 0.0)
        Q = np.eye(p) + F / D[:, None]
        assert np.linalg.cond(H) <= COND_LIMIT
        rhs = np.diag(D)
        P = np.linalg.solve(H, rhs)
        P += np.linalg.solve(H, rhs - H @ P)
        snr = budget.psd_linear(p) * np.abs(D) ** 2 / budget.noise_linear()
        e1, est = None, P
        if spec.e1_samples:
            rng = _philox(spec.seed, 3, k)
            sigma = np.sqrt(1.0 / (spec.e1_samples * snr))[:, None]
            e1 = sigma * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))) / SQRT2
            est = np.linalg.solve(Q + e1, np.eye(p))
        box = max(np.max(np.abs(est.real)), np.max(np.abs(est.imag)))
        scale, work = 1.0, est
        if box > 1.0:
            assert normalize
            scale = float(2.0 ** math.ceil(math.log2(box)))
            work = est / scale
        if spec.e2_model == E2_DETERMINISTIC:
            s = 2.0**d
            pq = (np.round(work.real * s) + 1j * np.round(work.imag * s)) / s
        else:
            rng = _philox(spec.seed, 2, k)
            u = rng.uniform(-1.0, 1.0, (p, p))
            pq = work + 2.0**-d * (u + 1j * rng.uniform(-1.0, 1.0, (p, p)))
        e2 = pq * scale - est
        delta = Q @ e2
        if e1 is not None:
            delta = delta - e1 @ np.linalg.solve(Q + e1, np.eye(p))
        out = loss_arrays(snr, budget.gap, budget.psd_linear(p), delta)
        for key, col in cols.items():
            col[:, k] = out[key]
    return cols


class TestBatchedPathMatchesPerTone:
    """make_bundle -> build_report over the whole stack is bitwise equal to
    the per-tone path."""

    @pytest.mark.parametrize(
        "spec, normalize",
        [
            (PerturbationSpec(d_bits=14), True),
            (PerturbationSpec(d_bits=11, e2_model=E2_UNIFORM, seed=5), True),
            (PerturbationSpec(d_bits=14, e2_model=E2_UNIFORM, e1_samples=1000, seed=7), True),
        ],
        ids=["deterministic", "uniform", "uniform_csi"],
    )
    def test_reference_scenario(self, reference_ensemble, reference_budget, spec, normalize):
        self._check(reference_ensemble, reference_budget, spec, normalize)

    @staticmethod
    def _check(ensemble, budget, spec, normalize):
        snr = budget.snr(ensemble) if spec.e1_samples else None
        bundle = make_bundle(ensemble, spec, snr=snr, normalize=normalize)
        report = build_report(budget, ensemble, bundle.delta)
        assert 1.0 in bundle.scale and np.any(bundle.scale > 1.0)  # both branches
        ref = _per_tone_reference(ensemble, budget, spec, normalize)
        for key, col in ref.items():
            assert np.array_equal(getattr(report, key), col), key
