"""Property tests: the divide-and-conquer engine against the operator-matrix reference."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qdsolve.dac import DAC_LEAF, dac_solve  # noqa: E402
from qdsolve.oracle import _solve_operator_matrix, make_instance, residual  # noqa: E402
from qdsolve.polymat import SeriesMatrix  # noqa: E402
from qdsolve.solution import spaces_equal  # noqa: E402


@st.composite
def instances(draw):
    """A ProblemInstance over tiny and word-size primes, q = 1 or random; at
    times its constant matrix has a zero row, which makes every step of a
    k > 1 equation singular, and at times C is planted from a solution."""
    p = draw(st.sampled_from([3, 5, 7, 101, 134217757]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 3 * DAC_LEAF))
    if p > N and draw(st.booleans()):
        q = 1
    else:
        q = draw(st.integers(2, p - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Ad = gen.integers(0, p, (n, n, N))
    if draw(st.booleans()):
        Ad[0, :, 0] = 0
    inst = make_instance(p, q, k, n, N, SeriesMatrix(p, Ad, N), SeriesMatrix.zeros(p, n, 1, N))
    F = SeriesMatrix(p, gen.integers(0, p, (n, 1, N)), N)
    if draw(st.booleans()):
        inst.C = residual(F, inst, homogeneous=True)
    else:
        inst.C = F
    return inst


@settings(max_examples=40, deadline=None)
@given(instances())
def test_dac_and_dense_agree(inst):
    s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_dense = _solve_operator_matrix(inst)
    assert (s_dac is None) == (s_dense is None)
    assert spaces_equal(s_dac, s_dense)
