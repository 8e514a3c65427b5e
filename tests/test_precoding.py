import math
import tracemalloc

import numpy as np
import pytest

from xtalk_quant import design, precoding, streams
from xtalk_quant.analytic_bounds import delta_entry_bound
from xtalk_quant.channel_model import ChannelEnsemble, ToneGrid, synthesize_channel
from xtalk_quant.errors import (
    InvalidParams,
    NumericalError,
    RangeError,
    SingularChannel,
    XtalkError,
)
from xtalk_quant.precoding import (
    COND_LIMIT,
    E2_DETERMINISTIC,
    E2_UNIFORM,
    MAX_BITS,
    PerturbationSpec,
    build_delta,
    guarded_inverse,
    ideal_precoder,
    make_bundle,
    quantize_precoder,
)
from xtalk_quant.rate_analysis import LinkBudget, build_report, loss_arrays
from xtalk_quant.units import SQRT2

from conftest import one_tone, random_dominant_tone, reference_params


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
        assert err.value.tone == 0

    def test_first_ill_conditioned_tone_named(self, small_ensemble):
        H = small_ensemble.H.copy()
        H[[5, 9]] = [[1.0, 1.0, 0, 0], [1.0, 1.0 + 1e-15, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(SingularChannel) as err:
            ideal_precoder(ChannelEnsemble(small_ensemble.grid, H))
        assert err.value.tone == 5

    def test_batched_equals_one_tone_at_a_time(self, small_ensemble):
        P = ideal_precoder(small_ensemble)
        for k, snap in enumerate(small_ensemble.snapshots):
            assert np.array_equal(P[k], ideal_precoder(one_tone(snap.freq, snap.H))[0])


class TestGuardedInverse:
    """The one condition guard behind every inverse the package forms."""

    def _stack(self):
        well = random_dominant_tone(np.random.default_rng(3), 4, 0.3).H[0]
        return np.stack([
            well,
            np.diag([1.0, 1.0, 1.0, 1e-14]).astype(complex),  # LAPACK inverts it; cond 1e14
            np.zeros((4, 4), dtype=complex),  # LAPACK refuses it
            np.full((4, 4), np.nan, dtype=complex),
            1e-200 * well,  # the Frobenius product underflows and overflows: 0 * inf
            1e200 * well,
        ])

    def test_refuses_what_the_exact_condition_number_refuses(self):
        m = self._stack()
        inv, bad = guarded_inverse(m)
        assert bad.tolist() == [1, 2, 3]
        for t in (0, 4, 5):  # LAPACK refused the batch: one matrix at a time
            assert inv[t].tobytes() == np.linalg.inv(m[t]).tobytes()
        conds = [np.linalg.cond(x) if np.isfinite(x).all() else np.inf for x in m]
        assert [t for t, c in enumerate(conds) if not c <= COND_LIMIT] == bad.tolist()

    def test_batch_equals_a_solve_for_the_identity(self, small_ensemble):
        m = small_ensemble.row_normalized()
        inv, bad = guarded_inverse(m)
        assert bad.size == 0
        assert inv.tobytes() == np.linalg.solve(m, np.eye(small_ensemble.p)).tobytes()


class TestQuantizer:
    def test_word_length_ceiling(self):
        # one home for the ceiling; 2**1024 once overflowed untyped in the quantizer
        assert design.MAX_BITS is MAX_BITS == 64
        out = quantize_precoder(np.full((2, 2), 0.3 + 0.0j), PerturbationSpec(d_bits=MAX_BITS))
        assert np.all(np.abs(out.e2) <= 2.0 ** (-MAX_BITS - 1))
        for d in (0, MAX_BITS + 1, 1023, 1024):
            with pytest.raises(InvalidParams, match="d_bits"):
                PerturbationSpec(d_bits=d)

    def test_identity_is_exactly_representable(self):
        for d in (1, 5, 14):
            out = quantize_precoder(np.eye(4).astype(complex), PerturbationSpec(d_bits=d))
            assert np.array_equal(np.eye(4) + out.e2, np.eye(4).astype(complex))
            assert np.all(out.e2 == 0.0)

    def test_rounding_example(self):
        out = quantize_precoder(
            np.array([[0.3 + 0.0j]]), PerturbationSpec(d_bits=2)
        )
        assert 0.3 + out.e2[0, 0] == 0.25  # 0.25 - 0.3 is exact, so E2 recovers the rounded value
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
        with pytest.raises(RangeError, match="matrix 2") as err:
            quantize_precoder(P, PerturbationSpec(d_bits=8))
        assert err.value.tone == 2


class TestDelta:
    def test_zero_errors_zero_delta(self, small_ensemble):
        z = np.zeros_like(small_ensemble.H)
        assert np.all(build_delta(small_ensemble, ideal_precoder(small_ensemble), None, z) == 0.0)

    def test_quantization_only_closed_form(self, small_ensemble):
        rng = np.random.default_rng(2)
        e2 = np.stack([_uniform_errors(rng, small_ensemble.p, 10) for _ in small_ensemble.freqs])
        delta = build_delta(small_ensemble, ideal_precoder(small_ensemble), None, e2)
        for k, q_mat in enumerate(small_ensemble.row_normalized()):
            assert np.allclose(delta[k], q_mat @ e2[k], rtol=0, atol=1e-16)

    def test_identity_residual_with_estimation_error(self):
        rng = np.random.default_rng(3)
        tone = random_dominant_tone(rng, 3, 0.4)
        e1 = 1e-3 * (rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3)))
        e2 = 1e-4 * (rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3)))
        p_est = np.linalg.solve(tone.row_normalized() + e1, np.eye(3))
        delta = build_delta(tone, p_est, e1, e2)[0]  # raises NumericalError on violation
        p_pert = np.linalg.inv(tone.row_normalized()[0] + e1[0]) + e2[0]
        lhs = tone.H[0] @ p_pert
        rhs = tone.D[0][:, None] * (np.eye(3) + delta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(tone.D))

    @pytest.mark.parametrize("e1_samples", [None, 1000], ids=["ideal", "csi"])
    def test_singular_tone_named(self, e1_samples):
        # the singular channel is refused before any Delta is built, with or
        # without an estimation-error model
        H = np.stack([np.eye(2), np.eye(2), np.ones((2, 2)), np.ones((2, 2))]).astype(complex)
        chan = ChannelEnsemble(ToneGrid(1e6, 1e6 + 3.5, 1.0), H)
        spec = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, e1_samples=e1_samples)
        with pytest.raises(SingularChannel, match="channel condition estimate inf") as err:
            make_bundle(chan, spec, snr=np.full((4, 2), 1e8), normalize=True)
        assert err.value.tone == 2

    def test_ill_conditioned_estimate_named(self):
        # cond(H) = 2e9 passes, but cond(Q) = 1e15 on tone 2: Q + E1 must be
        # refused by conditioning too, not only when it is exactly singular
        bad = [[1.0, 1e-6], [1.0, 1e-6 * (1 + 1e-3)]]
        H = np.stack([np.eye(2), [[1.0, 0.1], [0.1, 1.0]], bad]).astype(complex)
        chan = ChannelEnsemble(ToneGrid(1e6, 1e6 + 2.5, 1.0), H)
        assert np.linalg.cond(H[2]) <= COND_LIMIT < np.linalg.cond(chan.row_normalized()[2])
        spec = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, e1_samples=10**12)
        with pytest.raises(SingularChannel, match="estimated channel condition") as err:
            make_bundle(chan, spec, snr=np.full((3, 2), 1e8), normalize=True)
        assert err.value.tone == 2

    def test_non_finite_estimate_named(self):
        # a zero SNR (a user without power) makes E1 infinite on that tone:
        # refused as singular, not left to the SVD behind the condition number
        chan = ChannelEnsemble(ToneGrid(1e6, 1e6 + 2.5, 1.0), np.stack([np.eye(2)] * 3) + 0j)
        snr = np.full((3, 2), 1e8)
        snr[1, 0] = 0.0
        spec = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, e1_samples=1000)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(SingularChannel, match="condition estimate inf") as err:
                make_bundle(chan, spec, snr=snr, normalize=True)
        assert err.value.tone == 1

    def test_identity_violation_names_tone(self, monkeypatch):
        # identity tones with E2 = 0 have a zero residual; tone 2's is not
        rng = np.random.default_rng(5)
        H = np.stack([np.eye(3), np.eye(3), random_dominant_tone(rng, 3, 0.4).H[0]])
        chan = ChannelEnsemble(ToneGrid(1e6, 1e6 + 2.5, 1.0), H)
        e2 = np.zeros_like(H)
        e2[2] = 1e-4
        monkeypatch.setattr(precoding, "IDENTITY_CHECK_TOL", 1e-300)
        with pytest.raises(NumericalError, match="identity violated") as err:
            build_delta(chan, ideal_precoder(chan), None, e2)
        assert err.value.tone == 2

    def test_precoder_that_does_not_zero_force_names_tone(self, small_ensemble):
        # H (P + E2) = D (I + Q E2) holds iff H P = D: the check sees the
        # precoder that was quantized, not a second inverse
        P = ideal_precoder(small_ensemble)
        e2 = np.zeros_like(P)
        assert np.all(build_delta(small_ensemble, P, None, e2) == 0.0)
        P[7, 0, 1] += 1e-6
        with pytest.raises(NumericalError, match="identity violated") as err:
            build_delta(small_ensemble, P, None, e2)
        assert err.value.tone == 7

    def test_delta_affine_in_e2(self):
        rng = np.random.default_rng(4)
        tone = random_dominant_tone(rng, 4, 0.3)
        e1 = 1e-3 * (rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
        e2a = 1e-4 * (rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
        e2b = 1e-4 * (rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
        p_est = np.linalg.solve(tone.row_normalized() + e1, np.eye(4))
        base = build_delta(tone, p_est, e1, np.zeros_like(e2a))
        da = build_delta(tone, p_est, e1, e2a) - base
        db = build_delta(tone, p_est, e1, e2b) - base
        dab = build_delta(tone, p_est, e1, e2a + e2b) - base
        assert np.allclose(dab, da + db, atol=1e-12)

    def test_entry_bound_dominates(self, small_ensemble):
        rng = np.random.default_rng(6)
        d = 9
        ceiling = delta_entry_bound(small_ensemble.r, d)[-1]
        assert ceiling == pytest.approx(2.0 ** (-d + 0.5) * (1 + small_ensemble.r[-1]), rel=1e-12)
        q_mat = small_ensemble.row_normalized()[-1]
        worst = 0.0
        for _ in range(1000):
            e2 = _uniform_errors(rng, small_ensemble.p, d)
            worst = max(worst, np.max(np.abs(q_mat @ e2)))
        assert worst <= ceiling

    def test_entry_bound_values(self):
        flat = one_tone(0.0, np.eye(2))
        assert delta_entry_bound(flat.r, 1)[0] == pytest.approx(2.0**-0.5, rel=1e-12)
        fitted = one_tone(1e6, np.array([[1.0, 0.1596], [0.0, 1.0]]))
        assert delta_entry_bound(fitted.r, 14)[0] == pytest.approx(
            2.0**-13.5 * 1.1596, rel=1e-12
        )
        assert delta_entry_bound(fitted.r, 14)[0] == pytest.approx(1.0009e-4, rel=1e-4)


class TestBundle:
    def test_bundle_consistency(self, small_ensemble, small_budget):
        # the same channel on two tones: only the tone index keys the draws
        snap = small_ensemble.snapshots[2]
        two = ChannelEnsemble(ToneGrid(snap.freq, snap.freq + 1.5, 1.0), np.stack([snap.H, snap.H]))
        spec = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, seed=77)
        delta = make_bundle(two, spec)
        e2 = quantize_precoder(ideal_precoder(two), spec).e2
        # distinct tones draw from distinct streams under one seed
        assert not np.array_equal(e2[0], e2[1])
        assert np.array_equal(delta, two.row_normalized() @ e2)
        assert np.array_equal(make_bundle(two, spec), delta)

        # estimated precoders routinely poke just over the unit box, so the
        # estimation-error path needs the explicit block-scaling opt-in
        spec_csi = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, e1_samples=1000, seed=77)
        snr = small_budget.snr(two)
        delta = make_bundle(two, spec_csi, snr=snr, normalize=True)
        e1 = np.stack([
            streams.csi_error(streams.stream(77, streams.E1, k), snr[k], 1000) for k in range(2)
        ])
        est = np.linalg.inv(two.row_normalized() + e1)
        e2 = quantize_precoder(est, spec_csi, normalize=True).e2
        assert np.allclose(delta, two.row_normalized() @ e2 - e1 @ est, atol=1e-12)

    def test_peak_memory_below_five_and_a_half_stacks(self, reference_ensemble):
        # one solve per precoder, and the quantized stack is let go before
        # Delta is built
        ensemble = reference_ensemble
        spec = PerturbationSpec(d_bits=14)
        tracemalloc.start()
        try:
            make_bundle(ensemble, spec, normalize=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * ensemble.H.nbytes


def _philox(seed, *key):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _per_tone_reference(ensemble, budget, spec, normalize):
    """The per-tone make_bundle -> build_report path that the batched code
    replaced, kept as the oracle: one tone at a time, E2 from stream (2, k)
    and E1 from stream (3, k), then the loss kernel on that tone alone.
    Returns the report columns and each tone's block scale."""
    p, n, d = ensemble.p, ensemble.grid.count, spec.d_bits
    cols = {key: np.empty((p, n)) for key in ("rate", "loss", "a", "q", "k")}
    scales = np.empty(n)
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
        scales[k] = scale
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
    return cols, scales


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
        delta = make_bundle(ensemble, spec, snr=snr, normalize=normalize)
        report = build_report(budget, ensemble, delta)
        ref, scales = _per_tone_reference(ensemble, budget, spec, normalize)
        assert 1.0 in scales and np.any(scales > 1.0)  # both branches
        for key, col in ref.items():
            assert np.array_equal(getattr(report, key), col), key


BLOCK = precoding.BUNDLE_BLOCK


def _reference_tones(n):
    """n tones of the 4-pair reference binder across 0-30 MHz: most of their
    precoders leave the unit box, so they need ``normalize``."""
    spacing = 30e6 / n
    grid = ToneGrid(0.0, (n - 1) * spacing, spacing)
    ensemble = synthesize_channel(reference_params(p=4), grid, 3)
    assert ensemble.grid.count == n
    return ensemble


def _in_box_tones(n):
    """n random two-pair tones whose precoders stay inside the unit box:
    Q = [[1, a], [b, 1]] with a b < 0 gives P = [[1, -a], [-b, 1]] / (1 - a b)."""
    rng = np.random.default_rng(n)
    a = rng.uniform(0.01, 0.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    b = -rng.uniform(0.01, 0.5, n) * np.conj(a) / np.abs(a)
    d = rng.uniform(1e-3, 1.0, (n, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (n, 2)))
    Q = np.stack([np.ones(n), a, b, np.ones(n)], axis=1).reshape(n, 2, 2)
    return ChannelEnsemble(ToneGrid(1e6, 1e6 + (n - 0.5), 1.0), d[:, :, None] * Q)


def _bundle_outcome(ensemble, spec, normalize):
    """make_bundle's Delta bytes, or its error's type, tone and message."""
    snr = LinkBudget(-60.0, -140.0, 10.7, ensemble.grid).snr(ensemble)
    try:
        return make_bundle(ensemble, spec, snr=snr, normalize=normalize).tobytes()
    except XtalkError as exc:
        return type(exc), exc.tone, str(exc)


class TestBundleBlocks:
    """make_bundle takes the tones ``BUNDLE_BLOCK`` at a time; blocks keep
    every Delta bit, stream key and error of the whole-stack call."""

    SPECS = {
        "deterministic": PerturbationSpec(d_bits=14),
        "uniform": PerturbationSpec(d_bits=11, e2_model=E2_UNIFORM, seed=5),
        "uniform_csi": PerturbationSpec(d_bits=14, e2_model=E2_UNIFORM, e1_samples=1000, seed=7),
    }

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize(
        "tones", [_reference_tones, _in_box_tones], ids=["reference", "in_box"]
    )
    def test_blocks_equal_one_tone_at_a_time_and_the_whole_stack(
        self, monkeypatch, tones, spec, normalize, n
    ):
        ensemble, spec = tones(n), self.SPECS[spec]
        got = _bundle_outcome(ensemble, spec, normalize)
        monkeypatch.setattr(precoding, "BUNDLE_BLOCK", 1)
        assert _bundle_outcome(ensemble, spec, normalize) == got
        monkeypatch.setattr(precoding, "BUNDLE_BLOCK", n)
        assert _bundle_outcome(ensemble, spec, normalize) == got
        if normalize or tones is _in_box_tones:
            assert isinstance(got, bytes)
        else:  # the first reference tone outside the box, in the first block
            assert got[0] is RangeError and got[1] < BLOCK - 1

    @pytest.mark.parametrize("stage", ["channel", "estimated_channel", "unit_box", "identity"])
    def test_failing_tone_in_the_second_block_is_named(self, monkeypatch, stage):
        # identity tones pass every stage exactly; tone BLOCK + 4 fails one
        n, bad = BLOCK + 9, BLOCK + 4
        H = np.stack([np.eye(2, dtype=complex)] * n)
        spec, normalize = PerturbationSpec(d_bits=12), True
        if stage == "channel":
            H[bad] = 1.0
        elif stage == "estimated_channel":  # cond(H) = 2e9 passes, cond(Q) = 1e15 does not
            H[bad] = [[1.0, 1e-6], [1.0, 1e-6 * (1 + 1e-3)]]
            spec = PerturbationSpec(d_bits=12, e2_model=E2_UNIFORM, e1_samples=10**12)
        elif stage == "unit_box":  # P = [[1, -0.6], [-0.6, 1]] / 0.64
            H[bad] = [[1.0, 0.6], [0.6, 1.0]]
            normalize = False
        else:
            H[bad] = random_dominant_tone(np.random.default_rng(5), 2, 0.4).H[0]
            monkeypatch.setattr(precoding, "IDENTITY_CHECK_TOL", 1e-300)
        ensemble = ChannelEnsemble(ToneGrid(1e6, 1e6 + n - 0.5, 1.0), H)
        blocked = _bundle_outcome(ensemble, spec, normalize)
        monkeypatch.setattr(precoding, "BUNDLE_BLOCK", n)  # one block: the whole-stack call
        assert blocked == _bundle_outcome(ensemble, spec, normalize)
        assert blocked[1] == bad, blocked

    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize(
        "tones", [_reference_tones, _in_box_tones], ids=["reference", "in_box"]
    )
    def test_report_blocks_equal_the_whole_stack(self, monkeypatch, tones, spec):
        # build_report takes the tones BUNDLE_BLOCK at a time too: three
        # blocks, the last one ragged, give every bit of one whole-stack block
        n = 2 * BLOCK + 3
        ensemble, spec = tones(n), self.SPECS[spec]
        budget = LinkBudget(-60.0, -140.0, 10.7, ensemble.grid)
        delta = make_bundle(ensemble, spec, snr=budget.snr(ensemble), normalize=True)

        def report_bytes():
            report = build_report(budget, ensemble, delta)
            return {key: value.tobytes() for key, value in vars(report).items()}

        blocked = report_bytes()
        monkeypatch.setattr(precoding, "BUNDLE_BLOCK", n)
        assert report_bytes() == blocked

    @pytest.mark.parametrize("spec", ["deterministic", "uniform_csi"])
    def test_bundle_and_report_peak_below_three_stacks(self, spec):
        # 1740 tones, p = 10: Delta, one block's precoders, then one block of
        # the loss kernel's planes; neither the full Q, a full precoder stack
        # nor the kernel's planes over every tone (1.89 and 2.23 stacks)
        ensemble = synthesize_channel(reference_params(), ToneGrid.vdsl_band(decimation=4), 7)
        budget = LinkBudget(-60.0, -140.0, 10.7, ensemble.grid)
        spec = self.SPECS[spec]
        snr = budget.snr(ensemble)
        tracemalloc.start()
        try:
            delta = make_bundle(ensemble, spec, snr=snr, normalize=True)
            build_report(budget, ensemble, delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ensemble.H.nbytes, (peak, ensemble.H.nbytes)
