import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xtalk_quant import streams
from xtalk_quant.units import SQRT2


def _numpy_uniform_complex(rng, shape):
    """The draw the sampler must reproduce: numpy's own uniform on [-1, 1],
    real parts first, assembled as complex."""
    z = rng.uniform(-1.0, 1.0, size=(2, *shape))
    return z[0] + 1j * z[1]


class TestUniformComplex:
    """``uniform_complex`` fills its buffers plane by plane from ``random``;
    these pin it bitwise to ``Generator.uniform``, so a numpy release that maps
    next_double differently fails here rather than moving every trial."""

    @pytest.mark.parametrize("p", [2, 3, 7, 10])
    @pytest.mark.parametrize("n", [1, 5, 333])
    def test_buffers_match_numpy_uniform(self, n, p):
        shape = (n, p, p)
        out, plane = np.empty(shape, dtype=complex), np.empty(shape)
        for tone in range(20):  # n p^2 is odd for odd p and n: planes split Philox blocks
            got = streams.uniform_complex(
                streams.stream(7, streams.MC_E2, tone), shape, out=out, plane=plane
            )
            want = _numpy_uniform_complex(streams.stream(7, streams.MC_E2, tone), shape)
            assert got is out
            assert np.array_equal(got.view(float), want.view(float)), tone

    @pytest.mark.parametrize("shape", [(3, 3), (5, 7, 7)])
    def test_allocating_call_matches_numpy_uniform(self, shape):
        got = streams.uniform_complex(streams.stream(1, streams.E2, 4), shape)
        want = _numpy_uniform_complex(streams.stream(1, streams.E2, 4), shape)
        assert got.shape == shape
        assert np.array_equal(got.view(float), want.view(float))

    def test_draws_continue_the_stream(self):
        # two draws from one generator equal one numpy draw after another
        rng, ref = streams.stream(3, streams.MC_E2, 0), streams.stream(3, streams.MC_E2, 0)
        for shape in [(1, 3, 3), (2, 2, 2)]:
            got = streams.uniform_complex(rng, shape)
            assert np.array_equal(got.view(float), _numpy_uniform_complex(ref, shape).view(float))


@st.composite
def _split_draws(draw):
    """(n, p, tone, slice bounds): n trials of p x p split at multiples of 4."""
    n = draw(st.integers(min_value=1, max_value=70))
    p = draw(st.integers(min_value=1, max_value=7))
    tone = draw(st.integers(min_value=0, max_value=2**16))
    cuts = draw(st.sets(st.sampled_from(range(4, n, 4)))) if n > 4 else set()
    return n, p, tone, [0, *sorted(cuts), n]


class TestSlicedDraw:
    """A worker draws only its own trials: the real plane from word t0 p^2,
    the imaginary one from (n + t0) p^2.  Concatenated, the slices are the
    full draw bit for bit; with n p^2 odd, the imaginary plane starts inside
    a Philox block and the skip discards words one by one."""

    @given(_split_draws())
    @example((13, 3, 0, [0, 4, 12, 13]))  # n p^2 = 117
    @example((9, 1, 5, [0, 8, 9]))
    @settings(max_examples=80, deadline=None)
    def test_slices_concatenate_to_the_full_draw(self, case):
        n, p, tone, bounds = case
        full = streams.uniform_complex(streams.stream(11, streams.MC_E2, tone), (n, p, p))
        parts = [
            streams.uniform_complex(
                streams.stream(11, streams.MC_E2, tone), (t1 - t0, p, p), start=t0, total=n
            )
            for t0, t1 in zip(bounds, bounds[1:])
        ]
        assert np.array_equal(np.concatenate(parts).view(float), full.view(float))

    def test_skip_from_inside_a_block(self):
        # after 3 single draws the generator sits inside its first 4-word block
        rng, ref = streams.stream(2, streams.MC_E2, 1), streams.stream(2, streams.MC_E2, 1)
        rng.random(3)
        got = streams.uniform_complex(rng, (2, 3, 3), start=1, total=5)
        ref.random(3)
        whole = _numpy_uniform_complex(ref, (5, 3, 3))
        assert np.array_equal(got.view(float), whole[1:3].view(float))


class TestCsiError:
    SNR = np.array([1e8, 3e7, 5e6, 2e9, 7.5e4, 1e8, 4e3, 6e8, 1e9, 2.5e5])

    @pytest.mark.parametrize("trials", [(), (1,), (1000,)])
    def test_bitwise_the_expression(self, trials):
        # formed in place in one complex buffer: the same operations in the same order
        got = streams.csi_error(streams.stream(4, streams.MC_E1, 2), self.SNR, 1000, trials)
        z = streams.stream(4, streams.MC_E1, 2).standard_normal((2, *trials, 10, 10))
        want = np.sqrt(1.0 / (1000 * self.SNR))[:, None] * (z[0] + 1j * z[1]) / SQRT2
        assert got.shape == want.shape == (*trials, 10, 10)
        assert got.tobytes() == want.tobytes()

    def test_holds_the_draw_and_one_complex_buffer(self):
        tracemalloc.start()
        try:
            e1 = streams.csi_error(streams.stream(4, streams.MC_E1, 2), self.SNR, 1000, (1000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float draw z is as large as the complex result
        assert peak < 2.1 * e1.nbytes, (peak, e1.nbytes)
