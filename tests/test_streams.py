import numpy as np
import pytest

from xtalk_quant import streams


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
