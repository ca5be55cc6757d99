"""Property tests: the divide-and-conquer engine against the operator-matrix
reference, and both routes of SeriesMatrix.mul against a Python-int product."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qdsolve import instrument, polymat  # noqa: E402
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


def mul_reference(A: SeriesMatrix, B: SeriesMatrix, n: int) -> SeriesMatrix:
    """A B mod x^n from Python-int coefficient products."""
    a, b = A.data.astype(object), B.data.astype(object)
    out = np.zeros((A.rows, B.cols, n), dtype=object)
    for s in range(a.shape[2]):
        for t in range(min(b.shape[2], n - s)):
            out[:, :, s + t] += a[:, :, s].dot(b[:, :, t])
    return SeriesMatrix(A.p, (out % A.p).astype(np.int64), n)


def check_mul(A: SeriesMatrix, B: SeriesMatrix, n: int, monkeypatch) -> None:
    """A.mul(B, n) is the reference product, takes the route the dispatch
    rule names, and charges what that route forms."""
    calls = []
    conv = polymat.conv_trunc
    monkeypatch.setattr(polymat, "conv_trunc", lambda *a: calls.append(1) or conv(*a))
    rows, inner, cols = A.rows, A.cols, B.cols
    La, Lb = A.data.shape[2], B.data.shape[2]
    Lout = min(n, max(0, La + Lb - 1))
    before = instrument.mul_counter.value
    got = A.mul(B, n)
    charge = instrument.mul_counter.value - before
    monkeypatch.setattr(polymat, "conv_trunc", conv)
    assert got == mul_reference(A, B, n)
    per_entry = rows * inner * cols * La * Lb if Lout else 0
    if min(La, Lb) <= rows * cols:
        assert not calls
        # one multiplication per coefficient pair that reaches the output
        pairs = sum(1 for s in range(La) for t in range(Lb) if s + t < Lout)
        assert charge == rows * inner * cols * pairs
    else:
        assert len(calls) == (rows * inner * cols if Lout else 0)
        assert charge == per_entry
    assert charge <= per_entry


@st.composite
def mul_operands(draw):
    """(A, B, n): shapes 1..6, stored lengths 0..24 (all-zero and
    one-coefficient operands included) and n below, at or above La+Lb-1."""
    p = draw(st.sampled_from([3, 65521, 134217757, 2**31 - 1]))
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    La, Lb = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    full = La + Lb - 1
    where = draw(st.sampled_from(["below", "at", "above"]))
    if where == "below":
        n = draw(st.integers(0, max(full - 1, 0)))
    elif where == "at":
        n = max(full, 0)
    else:
        n = draw(st.integers(max(full + 1, 0), full + 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(r, c, L):
        data = gen.integers(0, p, (r, c, L))
        if L:
            data[0, 0, L - 1] = 1 + data[0, 0, L - 1] % (p - 1)  # keep length L
        if draw(st.booleans()) and draw(st.booleans()):
            data[:] = 0
        return SeriesMatrix(p, data, max(n, L))

    return operand(rows, inner, La), operand(inner, cols, Lb), n


@settings(max_examples=300, deadline=None)
@given(mul_operands())
def test_mul_matches_reference(operands):
    # function-scoped monkeypatch cannot be shared across examples
    with pytest.MonkeyPatch.context() as mp:
        check_mul(*operands, mp)


@pytest.mark.parametrize("p", [3, 2**31 - 1])
@pytest.mark.parametrize("a_short", [True, False])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("shape", [(2, 3, 2), (1, 4, 3), (1, 1, 1)])
def test_mul_dispatch_boundary(shape, extra, a_short, p, monkeypatch):
    # min(La, Lb) = rows * cols takes the shift-batched route, one more
    # coefficient the per-entry route
    rows, inner, cols = shape
    short, long = rows * cols + extra, rows * cols + 5
    La, Lb = (short, long) if a_short else (long, short)
    gen = np.random.default_rng(7 * La + Lb + p)

    def operand(r, c, L):
        data = gen.integers(0, p, (r, c, L))
        data[:, :, L - 1] = 1
        return SeriesMatrix(p, data, La + Lb)

    A, B = operand(rows, inner, La), operand(inner, cols, Lb)
    for n in (0, short - 1, La + Lb - 2, La + Lb - 1, La + Lb):
        check_mul(A, B, n, monkeypatch)
