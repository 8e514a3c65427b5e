import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalk_quant import channel_model
from xtalk_quant.channel_model import (
    MAX_TONES,
    ChannelEnsemble,
    ToneGrid,
    WernerParams,
    calibrate_k_mean_slope,
    fit_alpha,
    fit_row_dominance,
    load_channel,
    row_dominance,
    save_channel,
    synthesize_channel,
)
from xtalk_quant.errors import (
    InsufficientData,
    InvalidParams,
    ParseError,
    SingularDiagonal,
    XtalkError,
)

from conftest import reference_params


class TestToneGrid:
    def test_count_and_freqs(self):
        g = ToneGrid(0.0, 30e6, 4312.5)
        assert g.count == math.floor(30e6 / 4312.5) + 1
        assert g.freq(0) == 0.0
        assert g.freq(3) == 3 * 4312.5
        assert np.array_equal(g.freqs, g.f_start + np.arange(g.count) * g.spacing)

    def test_bit_exact_tone_mapping(self):
        g = ToneGrid(1e5, 2e6, 4312.5)
        for k in (0, 7, g.count - 1):
            assert g.freqs[k] == g.freq(k)

    @pytest.mark.parametrize(
        "f_start,f_end,spacing",
        [(-1.0, 1e6, 1e3), (1e6, 1e6, 1e3), (0.0, 1e6, 0.0), (0.0, 1e6, -5.0)],
    )
    def test_rejects_bad_grids(self, f_start, f_end, spacing):
        with pytest.raises(InvalidParams):
            ToneGrid(f_start, f_end, spacing)

    @pytest.mark.parametrize(
        "f_end, spacing",
        [(MAX_TONES * 4312.5, 4312.5), (1e300, 4312.5), (1e10, 1e-320)],
        ids=["one above", "1e300", "inf"],
    )
    def test_refuses_more_tones_than_the_ceiling(self, f_end, spacing):
        # only the grid's fields are formed: a refused count allocates nothing
        with pytest.raises(InvalidParams, match=f"more than {MAX_TONES} tones"):
            ToneGrid(0.0, f_end, spacing)
        assert ToneGrid(0.0, (MAX_TONES - 1) * 4312.5, 4312.5).count == MAX_TONES


class TestSynthesis:
    def test_fext_vanishes_at_dc(self):
        # f = 0 kills the f^2 FEXT ramp: diagonal exactly 1, off-diagonal 0
        grid = ToneGrid.single_tone(0.0)
        ens = synthesize_channel(reference_params(p=2), grid, seed=3, phases="zero")
        snap = ens.snapshots[0]
        assert np.array_equal(snap.H, np.eye(2).astype(complex))
        assert snap.r == 0.0

    def test_insertion_loss_magnitude(self):
        grid = ToneGrid.single_tone(30e6)
        ens = synthesize_channel(reference_params(), grid, seed=3)
        expected = math.exp(-0.0019 * math.sqrt(30e6))
        mags = np.abs(ens.snapshots[0].D)
        assert np.allclose(mags, expected, rtol=1e-12)
        assert expected == pytest.approx(math.exp(-10.4067), rel=1e-3)

    def test_seed_determinism(self):
        grid = ToneGrid.vdsl_band(decimation=2000)
        a = synthesize_channel(reference_params(p=3), grid, seed=99)
        b = synthesize_channel(reference_params(p=3), grid, seed=99)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.H, sb.H)

    def test_negative_seed_is_refused_typed(self):
        # the seed floor is checked where streams are keyed, so synthesis,
        # which builds no PerturbationSpec, refuses it as every command does
        with pytest.raises(InvalidParams, match="seed must be >= 0, got -1"):
            synthesize_channel(WernerParams(1e-5, 300, 4), ToneGrid.vdsl_band(208), -1)

    def test_split_reconstruction_is_exact(self, small_ensemble):
        H, D, Q = small_ensemble.H, small_ensemble.D, small_ensemble.row_normalized()
        assert np.array_equal(np.diagonal(H, axis1=1, axis2=2), D)
        off = ~np.eye(small_ensemble.p, dtype=bool)
        assert np.array_equal(Q[:, off], (H / D[:, :, None])[:, off])
        assert np.all(Q[:, ~off] == 1.0)

    def test_row_normalized_is_bitwise_the_expression(self, reference_ensemble):
        # formed in place, in one copy of H: the same operations in the same order
        H, D = reference_ensemble.H, reference_ensemble.D
        F = H.copy()
        idx = np.arange(reference_ensemble.p)
        F[:, idx, idx] = 0.0
        want = np.eye(reference_ensemble.p) + F / D[:, :, None]
        assert reference_ensemble.row_normalized().tobytes() == want.tobytes()
        block = reference_ensemble.row_normalized(slice(100, 300))
        assert block.tobytes() == want[100:300].tobytes()
        for k in range(reference_ensemble.grid.count):  # the trial engine's one-tone Q
            one = reference_ensemble.row_normalized(slice(k, k + 1))[0]
            assert one.tobytes() == want[k].tobytes(), k

    def test_row_normalized_holds_one_copy(self):
        # the 30a plan (3479 tones, p = 10): the copy of H is the only stack formed
        ens = synthesize_channel(reference_params(), ToneGrid.vdsl_band(decimation=2), 7)
        ens.D
        tracemalloc.start()
        try:
            ens.row_normalized()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * ens.H.nbytes, (peak, ens.H.nbytes)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 400),
        p=st.integers(1, 8),
        tone_bytes=st.one_of(st.none(), st.integers(1, 2**18)),
    )
    def test_tone_blocks_cover_every_tone_once(self, n, p, tone_bytes):
        # consecutive slices, in order; each block is as full as the budget
        # allows, a single tone past it, and only the last one is short
        grid = ToneGrid(1e6, 1e6 + n - 0.5, 1.0)
        ens = ChannelEnsemble(grid, np.broadcast_to(np.eye(p), (n, p, p)))
        per_tone = tone_bytes or 16 * p * p
        blocks = ens.tone_blocks(tone_bytes)
        assert [k for b in blocks for k in range(b.start, b.stop)] == list(range(n))
        budget = channel_model.BLOCK_BYTES
        for b in blocks:
            size = b.stop - b.start
            assert size == 1 or size * per_tone < budget, (b, per_tone)
        for b in blocks[:-1]:
            assert (b.stop - b.start + 1) * per_tone >= budget, (b, per_tone)

    @pytest.mark.parametrize("phases", ["uniform", "zero"])
    def test_synthesis_hands_its_stack_over(self, phases):
        # the 30a plan (3479 tones, p = 10): the stack and its float magnitudes,
        # never a second complex stack (a copy at the handoff read 2.07 stacks)
        grid = ToneGrid.vdsl_band(decimation=2)
        tracemalloc.start()
        try:
            ens = synthesize_channel(reference_params(), grid, 7, phases=phases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * ens.H.nbytes, (peak, ens.H.nbytes)
        assert not ens.H.flags.writeable

    def test_snapshots_view_the_stack(self, small_ensemble):
        for k, snap in enumerate(small_ensemble.snapshots):
            assert snap.freq == small_ensemble.grid.freq(k)
            assert np.array_equal(snap.H, small_ensemble.H[k])
            assert np.array_equal(snap.D, small_ensemble.D[k])
            assert snap.r == small_ensemble.r[k]

    def test_stack_is_a_read_only_copy(self, tmp_path):
        H = np.stack([np.eye(2, dtype=complex)] * 2)
        ens = ChannelEnsemble(ToneGrid(1e6, 2.2e6, 1e6), H)
        H[0, 0, 0] = 0.0  # the caller's array is not the ensemble's
        assert ens.H[0, 0, 0] == 1.0
        # synthesis and loading build their stack through the same constructor
        synthesized = synthesize_channel(reference_params(p=3), ToneGrid(1e6, 1.35e6, 1e5), 4)
        save_channel(synthesized, tmp_path / "chan.json")
        for source in (ens, synthesized, load_channel(tmp_path / "chan.json")):
            for arr in (source.H, source.D, source.snapshots[0].H, source.snapshots[0].D):
                with pytest.raises(ValueError):
                    arr.flat[0] = 2.0

    def test_callers_stack_stays_writeable_and_apart(self):
        H = np.stack([np.eye(2, dtype=complex)] * 2)
        ens = ChannelEnsemble(ToneGrid(1e6, 2.2e6, 1e6), H)
        assert not np.shares_memory(ens.H, H)
        assert H.flags.writeable
        H[1, 0, 1] = 0.5
        assert ens.H[1, 0, 1] == 0.0

    def test_r_nondecreasing_in_frequency(self):
        # flat K and zero phases make r(f) exactly linear in f
        grid = ToneGrid(1e5, 20e6, 1e6)
        ens = synthesize_channel(reference_params(p=5), grid, seed=5, phases="zero")
        assert np.all(np.diff(ens.r) >= 0)

    def test_calibration_lands_near_target(self):
        target = 0.1596 + 3.1729e-8 * 30e6
        k = calibrate_k_mean_slope(10, 300.0, 1.0, target, 30e6)
        params = WernerParams(
            alpha=0.0019 / 300, loop_length_m=300, p=10, k_mean_slope=k
        )
        grid = ToneGrid.single_tone(30e6)
        rs = [
            synthesize_channel(params, grid, seed=s).snapshots[0].r for s in range(8)
        ]
        assert 0.6 * target < np.mean(rs) < 1.4 * target


class TestRowDominance:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_row_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 7))
        H = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        H += 5 * np.eye(p)
        r0 = row_dominance(H)
        scales = rng.uniform(0.1, 10.0, p) * np.exp(1j * rng.uniform(0, 2 * np.pi, p))
        assert row_dominance(scales[:, None] * H) == pytest.approx(r0, rel=1e-12)

    def test_zero_diagonal_rejected(self):
        H = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(SingularDiagonal):
            row_dominance(H)
        with pytest.raises(SingularDiagonal) as err:
            ChannelEnsemble(ToneGrid.single_tone(1e6), H[None])
        assert err.value.tone == 0

    def test_batched_equals_per_matrix(self):
        rng = np.random.default_rng(12)
        H = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4)) + 3 * np.eye(4)
        assert np.array_equal(row_dominance(H), [row_dominance(h) for h in H])


def _upper_ensemble(freqs, rs):
    """p=2 tones [[1, r], [0, 1]], whose r(H) is exactly r."""
    H = np.array([[[1.0, r], [0.0, 1.0]] for r in rs], dtype=complex)
    spacing = freqs[1] - freqs[0]
    grid = ToneGrid(freqs[0], freqs[-1] + 0.5 * spacing, spacing)
    return ChannelEnsemble(grid=grid, H=H)


def _line_ensemble(gamma1, gamma2, freqs):
    """p=2 tones whose r(H(f)) equals gamma1 + gamma2 f exactly."""
    return _upper_ensemble(freqs, [gamma1 + gamma2 * f for f in freqs])


class TestFits:
    def test_row_dominance_fit_zero(self):
        freqs = np.arange(5) * 1e6 + 1e5
        ens = _line_ensemble(0.0, 0.0, freqs)
        fit = fit_row_dominance(ens)
        assert fit.gamma1 == pytest.approx(0.0, abs=1e-14)
        assert fit.gamma2 == pytest.approx(0.0, abs=1e-20)

    def test_row_dominance_fit_recovers_line(self):
        freqs = np.linspace(1e5, 30e6, 40)
        ens = _line_ensemble(0.1596, 3.1729e-8, freqs)
        fit = fit_row_dominance(ens)
        assert fit.gamma1 == pytest.approx(0.1596, rel=1e-10)
        assert fit.gamma2 == pytest.approx(3.1729e-8, rel=1e-10)
        assert fit.max_residual < 1e-12

    def test_row_dominance_fit_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        freqs = np.linspace(1e5, 30e6, 60)
        noise = rng.uniform(-1e-3, 1e-3, freqs.size)
        rs = 0.2 + 2e-8 * freqs + noise
        ens = _upper_ensemble(freqs, rs)
        fit = fit_row_dominance(ens)
        # independent solve of the 2x2 normal equations
        n = freqs.size
        sx, sxx = freqs.sum(), (freqs * freqs).sum()
        sy, sxy = rs.sum(), (freqs * rs).sum()
        det = n * sxx - sx * sx
        g1 = (sxx * sy - sx * sxy) / det
        g2 = (n * sxy - sx * sy) / det
        assert fit.gamma1 == pytest.approx(g1, rel=1e-9)
        assert fit.gamma2 == pytest.approx(g2, rel=1e-9)

    def test_single_tone_fit_rejected(self):
        ens = synthesize_channel(reference_params(p=2), ToneGrid.single_tone(1e6), seed=1)
        with pytest.raises(InsufficientData):
            fit_row_dominance(ens)

    def test_alpha_fit_recovers_aggregate(self):
        grid = ToneGrid(1e5, 30e6, 1e6)
        ens = synthesize_channel(reference_params(p=3), grid, seed=2)
        assert fit_alpha(ens) == pytest.approx(0.0019, rel=1e-12)

    def test_alpha_fit_flat_channel(self):
        freqs = np.arange(1, 6) * 1e6
        ens = _line_ensemble(0.0, 0.0, freqs)  # diagonals exactly 1
        assert fit_alpha(ens) == 0.0

    def test_alpha_fit_pooling_symmetry(self):
        grid = ToneGrid(1e5, 10e6, 1e6)
        one = synthesize_channel(reference_params(p=2), grid, seed=4)
        two = synthesize_channel(reference_params(p=6), grid, seed=4)
        assert fit_alpha(one) == pytest.approx(fit_alpha(two), rel=1e-12)

    def test_alpha_fit_dc_only_rejected(self):
        ens = synthesize_channel(reference_params(p=2), ToneGrid.single_tone(0.0), seed=1)
        with pytest.raises(InsufficientData):
            fit_alpha(ens)


class TestChannelFiles:
    def test_round_trip(self, tmp_path, small_ensemble):
        path = tmp_path / "chan.json"
        save_channel(small_ensemble, path)
        back = load_channel(path)
        assert back.grid.count == small_ensemble.grid.count
        assert back.p == small_ensemble.p
        for a, b in zip(small_ensemble.snapshots, back.snapshots):
            assert np.array_equal(a.H, b.H)
            assert a.r == b.r

    def test_matrix_set_export_round_trip(self, tmp_path, small_ensemble):
        # a precoder stack travels in the same grammar as channels
        from xtalk_quant.precoding import ideal_precoder

        precoders = ideal_precoder(small_ensemble)
        path = tmp_path / "precoders.json"
        save_channel(ChannelEnsemble(small_ensemble.grid, precoders), path)
        back = load_channel(path)
        assert np.array_equal(back.freqs, small_ensemble.freqs)
        assert np.array_equal(back.H, precoders)

    def test_identity_file(self, tmp_path):
        doc = {
            "format_version": 1,
            "kind": "xtalk-quant-channel",
            "p": 2,
            "tone_count": 1,
            "f_start": 1e6,
            "spacing": 4312.5,
            "tones": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        }
        path = tmp_path / "id.json"
        path.write_text(json.dumps(doc))
        ens = load_channel(path)
        assert np.array_equal(ens.r, [0.0])
        assert np.array_equal(ens.D, np.ones((1, 2), dtype=complex))
        assert np.array_equal(ens.row_normalized(), np.eye(2)[None])

    def test_zero_diagonal_names_tone(self, tmp_path):
        doc = {
            "format_version": 1,
            "kind": "xtalk-quant-channel",
            "p": 2,
            "tone_count": 2,
            "f_start": 0.0,
            "spacing": 1.0,
            "tones": [
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            ],
        }
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SingularDiagonal) as err:
            load_channel(path)
        assert err.value.tone == 1

    @staticmethod
    def _doc_with_bad_tones(mutate):
        """Three p=2 identity tones; ``mutate`` spoils the records of tones 1 and 2."""
        tones = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]] for _ in range(3)]
        for k in (1, 2):
            mutate(tones[k])
        return {
            "format_version": 1,
            "kind": "xtalk-quant-channel",
            "p": 2,
            "tone_count": 3,
            "f_start": 0.0,
            "spacing": 1.0,
            "tones": tones,
        }

    BAD_RECORDS = {
        "entry_count": lambda rec: rec.pop(),
        "pair_length": lambda rec: rec[1].append(0.0),
        "string_component": lambda rec: rec.__setitem__(1, ["1.0", 0.0]),
        "string_entry": lambda rec: rec.__setitem__(1, "1.0"),
        "null_component": lambda rec: rec.__setitem__(1, [None, 0.0]),
        "null_entry": lambda rec: rec.__setitem__(1, None),
        "nan_entry": lambda rec: rec.__setitem__(2, [float("nan"), 0.0]),
        "zero_diagonal": lambda rec: rec.__setitem__(3, [0.0, 0.0]),
        # true/false read as 1/0: both records would load as the identity
        "boolean_component": lambda rec: rec.__setitem__(0, [True, False]),
        "boolean_record": lambda rec: rec.__setitem__(
            slice(None), [[True, False], [False, False], [False, False], [True, False]]
        ),
    }

    @pytest.mark.parametrize("defect", sorted(BAD_RECORDS))
    def test_bad_record_names_first_tone(self, tmp_path, defect):
        from xtalk_quant.cli import run

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self._doc_with_bad_tones(self.BAD_RECORDS[defect])))
        with pytest.raises(XtalkError) as err:
            load_channel(path)
        assert err.value.tone == 1
        if defect == "zero_diagonal":
            assert isinstance(err.value, SingularDiagonal)
        assert run(["inspect-channel", "--in", str(path)]) in (2, 3)

    @pytest.mark.parametrize("first, second", [
        ("nan_entry", "entry_count"),
        ("zero_diagonal", "null_entry"),
        ("string_entry", "nan_entry"),
        ("pair_length", "zero_diagonal"),
    ])
    def test_first_tone_named_across_defect_kinds(self, tmp_path, first, second):
        # a bad value before a malformed record, and the reverse
        doc = self._doc_with_bad_tones(lambda rec: None)
        self.BAD_RECORDS[first](doc["tones"][1])
        self.BAD_RECORDS[second](doc["tones"][2])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(XtalkError) as err:
            load_channel(path)
        assert err.value.tone == 1

    HEADER = {"format_version": 1, "p": 2, "tone_count": 1, "f_start": 0.0, "spacing": 1.0}
    ONE_TONE = json.dumps({**HEADER, "tones": [[[1.0, 0.0]] * 4]}).encode()  # a valid file
    BAD_FILES = {
        "top_level_number": b"5",
        "tones_not_a_list": json.dumps({**HEADER, "tones": 5}).encode(),
        "p_not_a_number": json.dumps({**HEADER, "p": "two", "tones": [[]]}).encode(),
        "not_utf8": b'{"p": "\xff"}',
        "tones_an_object": json.dumps({**HEADER, "tones": {"0": [[1.0, 0.0]] * 4}}).encode(),
        "top_level_array": b"[" + ONE_TONE + b"]",
        "trailing_data": ONE_TONE + b" x",
        "trailing_object": ONE_TONE + b"{}",
        "truncated": ONE_TONE[:-3],
        "trailing_comma": ONE_TONE[:-1] + b", }",
        "tones_trailing_comma": ONE_TONE[:-2] + b", ]}",
        "empty_object": b" { } ",
        "empty_tones": json.dumps({**HEADER, "tones": []}).encode(),
        "key_not_a_string": b'{"p": 2, 5: 1}',
        "missing_colon": b'{"p" 2}',
        "f_start_beyond_float": ONE_TONE.replace(b'"f_start": 0.0', b'"f_start": 1' + b"0" * 400),
    }

    def test_bad_files_spoil_a_valid_one(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_bytes(self.ONE_TONE)
        assert load_channel(path).H.shape == (1, 2, 2)

    @pytest.mark.parametrize("defect", sorted(BAD_FILES))
    def test_malformed_document_is_a_parse_error(self, tmp_path, defect):
        from xtalk_quant.cli import run

        path = tmp_path / "bad.json"
        path.write_bytes(self.BAD_FILES[defect])
        with pytest.raises(ParseError):
            load_channel(path)
        assert run(["inspect-channel", "--in", str(path)]) == 2

    # each would load as a valid p=2, one-tone file if the header were read loosely
    LOOSE_HEADERS = {
        "p_string": {"p": "2"},
        "p_float": {"p": 2.7},
        "p_integral_float": {"p": 2.0},
        "p_bool": {"p": True},
        "tone_count_string": {"tone_count": "1"},
        "tone_count_float": {"tone_count": 1.0},
        "f_start_string": {"f_start": "1e5"},
        "f_start_bool": {"f_start": False},
        "spacing_string": {"spacing": "1"},
        "spacing_null": {"spacing": None},
        "format_version_float": {"format_version": 1.0},
        "format_version_bool": {"format_version": True},
        "format_version_string": {"format_version": "1"},
    }

    @pytest.mark.parametrize("defect", sorted(LOOSE_HEADERS))
    def test_loosely_typed_header_is_a_parse_error(self, tmp_path, defect):
        from xtalk_quant.cli import run

        doc = {**self.HEADER, "tones": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({**doc, **self.LOOSE_HEADERS[defect]}))
        with pytest.raises(ParseError):
            load_channel(path)
        assert run(["inspect-channel", "--in", str(path)]) == 2
        path.write_text(json.dumps(doc))  # the same file typed strictly loads
        assert load_channel(path).p == 2

    # the file as save_channel writes it, and the same document written other ways
    LAYOUTS = {
        "as_saved": lambda text: text,
        "tones_first": lambda text: json.dumps(dict(reversed(json.loads(text).items()))),
        "indented": lambda text: json.dumps(json.loads(text), indent=2),
        # a repeated key keeps its last value, as json.load does
        "repeated_header_key": lambda text: '{"p": 3, "spacing": "x",' + text[1:],
        "repeated_tones": lambda text: '{"tones": [1, "x"],' + text[1:],
        "surrounding_whitespace": lambda text: "\n\t " + text + " \r\n",
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layouts_load_the_same_stack(self, tmp_path, small_ensemble, layout):
        path = tmp_path / "chan.json"
        save_channel(small_ensemble, path)
        path.write_text(self.LAYOUTS[layout](path.read_text()))
        back = load_channel(path)
        assert np.array_equal(back.freqs, small_ensemble.freqs)
        assert back.H.tobytes() == small_ensemble.H.tobytes()

    @pytest.mark.parametrize("layout", ["as_saved", "tones_first"])
    def test_loads_from_a_pipe(self, tmp_path, small_ensemble, layout):
        # a pipe cannot seek: its bytes are held, so a file whose records
        # come before its header is still read twice
        save_channel(small_ensemble, tmp_path / "chan.json")
        data = self.LAYOUTS[layout]((tmp_path / "chan.json").read_text()).encode()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            back = load_channel(fifo)
        finally:
            writer.join()
        assert back.H.tobytes() == small_ensemble.H.tobytes()

    @staticmethod
    def _outcome(path):
        """What load_channel makes of ``path``: the grid and the stack's bytes,
        or the error's type, tone and message."""
        try:
            ens = load_channel(path)
        except XtalkError as exc:
            return type(exc), exc.tone, str(exc)
        return ens.grid, ens.H.tobytes()

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_every_case_loads_alike_through_a_small_window(
        self, tmp_path, small_ensemble, monkeypatch, chunk
    ):
        # values, blank runs and the opening brace cut at the window's edge are
        # decoded again after a refill, and errors name the same place in the file
        save_channel(small_ensemble, tmp_path / "saved.json")
        saved = (tmp_path / "saved.json").read_text()
        one_tone = {**self.HEADER, "tones": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}
        files = {
            **{f"layout_{k}": make(saved).encode() for k, make in self.LAYOUTS.items()},
            **{f"file_{k}": data for k, data in self.BAD_FILES.items()},
            **{
                f"record_{k}": json.dumps(self._doc_with_bad_tones(spoil)).encode()
                for k, spoil in self.BAD_RECORDS.items()
            },
            **{
                f"header_{k}": json.dumps({**one_tone, **loose}).encode()
                for k, loose in self.LOOSE_HEADERS.items()
            },
            "indented_truncated": json.dumps(json.loads(saved), indent=2)[:-500].encode(),
        }
        paths = []
        for name, data in files.items():
            assert len(data) < channel_model.BLOCK_BYTES  # so ``want`` reads each in one window
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_bytes(data)
        want = [self._outcome(path) for path in paths]
        monkeypatch.setattr(channel_model, "BLOCK_BYTES", chunk)
        for path, expected in zip(paths, want):
            assert self._outcome(path) == expected, path.name
        assert want[0][1] == small_ensemble.H.tobytes()

    def test_every_window_edge_in_a_header_number(self, tmp_path, monkeypatch):
        # "15e+2" cut after "15e+" decodes as 15: each window size puts the
        # edge at another character of these numbers, which are longer than
        # any value before them, so the window is not refilled ahead of them
        text = (
            '{"format_version": 1, "p": 2, "tone_count": 1, '
            '"f_start": 0.00000000000000000000000000000015e+34, '
            '"spacing": 25000000000000000000000000000000E-31, '
            '"tones": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}'
        )
        path = tmp_path / "one.json"
        path.write_text(text)
        for chunk in range(1, len(text) + 1):
            monkeypatch.setattr(channel_model, "BLOCK_BYTES", chunk)
            ens = load_channel(path)
            assert (ens.grid.f_start, ens.grid.spacing) == (1500.0, 2.5), chunk

    @pytest.mark.parametrize("layout", ["indented", "one_long_line"])
    def test_error_position_is_the_files(self, tmp_path, small_ensemble, monkeypatch, layout):
        # a spoilt character far past the first window: line, column and
        # character offset are the ones json gives for the whole text, whether
        # the line's start is still in the window or was dropped long before
        save_channel(small_ensemble, tmp_path / "chan.json")
        doc = json.loads((tmp_path / "chan.json").read_text())
        text = json.dumps(doc, indent=2) if layout == "indented" else "\n" + json.dumps(doc)
        text = text[: len(text) // 2] + "x" + text[len(text) // 2 + 1:]
        (tmp_path / "chan.json").write_text(text)
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(text)
        where = str(want.value)[len(want.value.msg):]  # ": line L column C (char N)"
        monkeypatch.setattr(channel_model, "BLOCK_BYTES", 64)
        with pytest.raises(ParseError) as err:
            load_channel(tmp_path / "chan.json")
        assert str(err.value).endswith(where), (str(err.value), where)
        assert want.value.lineno > 1 and want.value.pos > 64

    def test_load_holds_no_parsed_document(self, tmp_path):
        # 2000 tones, p = 10: the text is about three times the stack's bytes
        grid = ToneGrid(0.0, 1999 * 4312.5, 4312.5)
        ens = synthesize_channel(reference_params(p=10), grid, 3)
        path = tmp_path / "big.json"
        save_channel(ens, path)
        text, stack = path.stat().st_size, ens.H.nbytes
        del ens
        tracemalloc.start()
        try:
            back = load_channel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.grid.count == 2000 and text > 3 * stack
        # The text passes through one window and each record goes straight
        # into the one preallocated stack the ensemble adopts (1.22 stacks,
        # with the window at 2**17 characters).
        # A loader that stacks per-record arrays peaks near 2.2 stacks, one
        # that holds the whole text above 3, and one that keeps the whole
        # parsed document (a list per number pair) near 4x the text.
        window = channel_model.BLOCK_BYTES
        assert peak < 1.3 * stack + window, (peak, text, stack)

    def test_non_object_document_is_refused_at_its_first_character(self, tmp_path):
        # a saved 2000-tone, p = 10 file wrapped in [...]: refused once its
        # first window is read, not after json has parsed the whole text
        from xtalk_quant.cli import run

        grid = ToneGrid(0.0, 1999 * 4312.5, 4312.5)
        path = tmp_path / "wrapped.json"
        save_channel(synthesize_channel(reference_params(p=10), grid, 3), path)
        path.write_text("[" + path.read_text() + "]")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="a channel file holds one JSON object"):
                load_channel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert run(["inspect-channel", "--in", str(path)]) == 2

    @pytest.mark.parametrize("p, n, tones", [(3000, 60000, [[[1.0, 0.0]]]), (3000, 2, [1, 2])])
    def test_header_sizes_no_stack_beyond_the_file(self, tmp_path, p, n, tones):
        # the stack is sized to the records the file can hold (6 p^2 characters
        # each), not to the header's claim: here 8.6 TB, or 288 MB
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({**self.HEADER, "p": p, "tone_count": n, "tones": tones}))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                load_channel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_channel(path)
        doc = {
            "format_version": 1,
            "kind": "xtalk-quant-channel",
            "p": 2,
            "tone_count": 1,
            "f_start": 0.0,
            "spacing": 1.0,
            "tones": [[[1.0, 0.0]]],  # wrong entry count
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            load_channel(path)
        assert err.value.tone == 0
