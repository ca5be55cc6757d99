import random

import numpy as np
import pytest

from qdsolve import instrument
from qdsolve.field import PrimeField
from qdsolve.linalg import mat_inv
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext

P101 = PrimeField(101)


def rand_sm(rng, p, rows, cols, prec):
    data = np.array(
        [[[rng.randrange(p) for _ in range(prec)] for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )
    return SeriesMatrix(p, data, prec)


def test_mul_examples():
    rng = random.Random(0)
    A = rand_sm(rng, 101, 2, 2, 4)
    eye = SeriesMatrix.identity(101, 2, 4)
    assert eye.mul(A, 4) == A
    assert A.mul(SeriesMatrix.zeros(101, 2, 2, 4), 4).is_zero()
    f = SeriesMatrix(101, [[[1, -1]]], 3)
    g = SeriesMatrix(101, [[[1, 1, 1]]], 3)
    assert f.mul(g, 3) == SeriesMatrix.identity(101, 1, 3)


def test_mul_dimension_mismatch():
    A = SeriesMatrix.zeros(101, 2, 3, 4)
    B = SeriesMatrix.zeros(101, 2, 2, 4)
    with pytest.raises(ValueError):
        A.mul(B, 4)


def _eight():
    """1 + 2x + ... + 8x^7 mod x^8 as a 1 x 1 series matrix."""
    return SeriesMatrix(101, np.arange(1, 9).reshape(1, 1, 8), 8)


def test_truncate_refuses_negative_precision():
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        _eight().truncate(-3)


def test_as_poly_prec_refuses_negative_precision():
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        _eight().as_poly_prec(-3)


def test_zeros_refuses_negative_precision():
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        SeriesMatrix.zeros(101, 2, 2, -1)


def test_identity_refuses_negative_precision():
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        SeriesMatrix.identity(101, 2, -1)


def test_apply_examples():
    rng = random.Random(1)
    ctx1 = QContext(P101, 1, 1)
    A = rand_sm(rng, 101, 2, 2, 5)
    assert A.sigma(ctx1) == A
    const = SeriesMatrix(101, np.array([[3, 1], [4, 1]])[:, :, None], 5)
    assert const.delta(ctx1).is_zero()
    ctx2 = QContext(P101, 2, 1)
    xid = SeriesMatrix.identity(101, 2, 3).shift(1)
    assert xid.delta(ctx2) == SeriesMatrix.identity(101, 2, 3)


def test_shift_examples():
    s = SeriesMatrix(101, [[[0, 1, 1]]], 3)
    assert s.shift(-1) == SeriesMatrix(101, [[[1, 1]]], 2)
    one = SeriesMatrix(101, [[[1]]], 2)
    shifted = one.shift(2)
    assert shifted == SeriesMatrix(101, [[[0, 0, 1]]], 4)
    assert shifted.prec == 4
    with pytest.raises(ValueError):
        SeriesMatrix(101, [[[1, 1]]], 2).shift(-1)
    t = SeriesMatrix(101, [[[1, 1]]], 2).shift(-1, truncate=True)
    assert t == SeriesMatrix(101, [[[1]]], 1)
    rng = random.Random(2)
    A = rand_sm(rng, 101, 2, 2, 4)
    assert A.shift(3).shift(-3) == A


def test_inv_newton_examples():
    # (1-x) Id inverse is the geometric series times Id
    eye = np.eye(2, dtype=np.int64)
    geo = SeriesMatrix(101, np.stack([eye, -eye], axis=2), 4)
    inv = geo.inv_newton(4)
    want = SeriesMatrix(101, np.stack([eye] * 4, axis=2), 4)
    assert inv == want
    assert geo.mul(inv, 4) == SeriesMatrix.identity(101, 2, 4)

    # Id + x N with N nilpotent: inverse Id - x N at precision 3
    N = np.array([[0, 1], [0, 0]])
    A = SeriesMatrix(101, np.stack([eye, N], axis=2), 3)
    inv = A.inv_newton(3)
    want = SeriesMatrix(101, np.stack([eye, -N], axis=2), 3)
    assert inv == want

    bad = SeriesMatrix(101, np.ones((2, 2, 1), dtype=np.int64), 3)
    with pytest.raises(ValueError):
        bad.inv_newton(3)


def test_inv_newton_random_verified():
    rng = random.Random(3)
    p = 134217757
    for _ in range(20):
        n = rng.randrange(1, 4)
        prec = rng.randrange(1, 20)
        A = rand_sm(rng, p, n, n, prec)
        try:
            inv = A.inv_newton(prec)
        except ValueError:
            continue
        assert A.mul(inv, prec) == SeriesMatrix.identity(p, n, prec)


def rand_invertible(rng, p, n, prec):
    """A random n x n series matrix of stored length prec with A_0 invertible."""
    while True:
        data = rand_sm(rng, p, n, n, prec).data
        data = np.pad(data, ((0, 0), (0, 0), (0, prec - data.shape[2])))
        data[0, 0, prec - 1] = 1 + rng.randrange(p - 1)
        A = SeriesMatrix(p, data, prec)
        try:
            mat_inv(A.coefficient_array(0), p)
            return A
        except ValueError:
            pass


def test_inv_newton_refines_from_any_precision():
    # X mod x^s, with or without junk coefficients from x^s on, refines to
    # the inverse computed from scratch
    rng = random.Random(7)
    p = 134217757
    for _ in range(30):
        n, N = rng.randrange(1, 5), rng.randrange(2, 40)
        A = rand_invertible(rng, p, n, N)
        want = A.inv_newton(N)
        s = rng.randrange(1, N + 1)
        X = want.truncate(s)
        assert A.inv_newton(N, X, s) == want
        junk = rand_sm(rng, p, n, n, N - s).shift(s)
        assert A.inv_newton(N, X.as_poly_prec(N) + junk, s) == want


def test_inv_newton_step_is_the_full_newton_step():
    # one doubling step s -> s2 equals X (2 Id - A X) mod x^s2
    rng = random.Random(8)
    for p in (3, 65521, 134217757, 2**31 - 1):
        for _ in range(10):
            n, s = rng.randrange(1, 5), rng.randrange(1, 30)
            s2 = s + rng.randrange(1, s + 1)  # a full or a last, partial step
            A = rand_invertible(rng, p, n, s2)
            X = A.inv_newton(s)
            Xp = X.as_poly_prec(s2)
            two = SeriesMatrix.identity(p, n, s2).scale(2)
            want = Xp.mul(two - A.mul(Xp, s2), s2)
            assert A.inv_newton(s2, X, s) == want


@pytest.mark.parametrize("s", [1, 2, 5, 9])
def test_inv_newton_step_charges_the_error_window(s):
    # 3 x 3 operands of full length take conv_trunc's shift-batched route
    # (length <= 9); a step s -> 2s charges the window product E, s h
    # coefficient pairs, and the correction (X mod x^h) E, h (h + 1) / 2
    rng = random.Random(9 + s)
    p = 134217757
    h = s
    A = rand_invertible(rng, p, 3, 2 * s)
    X = A.inv_newton(s)
    assert X.data.shape[2] == s
    before = instrument.mul_counter.value
    A.inv_newton(2 * s, X, s)
    assert instrument.mul_counter.value - before == 27 * (s * h + h * (h + 1) // 2)


def test_matrix_product_rule():
    rng = random.Random(4)
    p = 134217757
    field = PrimeField(p)
    for _ in range(25):
        q = 1 if rng.random() < 0.5 else rng.randrange(2, p)
        ctx = QContext(field, q, 1)
        n = rng.randrange(3, 12)
        A = rand_sm(rng, p, 2, 2, n)
        B = rand_sm(rng, p, 2, 2, n)
        lhs = A.mul(B, n).delta(ctx)
        rhs = A.truncate(n - 1).mul(B.delta(ctx), n - 1) + A.delta(ctx).mul(
            B.sigma(ctx).truncate(n - 1), n - 1
        )
        assert lhs == rhs


def test_const_mul_and_access():
    rng = random.Random(5)
    p = 97
    A = rand_sm(rng, p, 2, 3, 4)
    # a constant factor is a one-plane series, and conv_trunc forms its
    # product as one _matmul_mod over all of A's planes, charged
    # rows * inner * cols each
    M = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(4)], dtype=np.int64)
    before = instrument.mul_counter.value
    got = SeriesMatrix(p, M[:, :, None], 4).mul(A)
    assert instrument.mul_counter.value - before == 4 * 2 * 3 * A.data.shape[2]
    for d in range(4):
        want = M.astype(object) @ A.coefficient_array(d).astype(object) % p
        assert got.coefficient_array(d).tolist() == want.tolist()
    R = np.array([[rng.randrange(p) for _ in range(5)] for _ in range(3)], dtype=np.int64)
    before = instrument.mul_counter.value
    got = A.mul(SeriesMatrix(p, R[:, :, None], 4))
    assert instrument.mul_counter.value - before == 2 * 3 * 5 * A.data.shape[2]
    for d in range(4):
        want = A.coefficient_array(d).astype(object) @ R.astype(object) % p
        assert got.coefficient_array(d).tolist() == want.tolist()
    e = A.entry(1, 2)
    assert (e.rows, e.cols, e.prec) == (1, 1, 4)
    assert [e.coefficient_array(d)[0, 0] for d in range(4)] == [A.data[1, 2, d] for d in range(4)]
    with pytest.raises(IndexError):
        A.coefficient_array(4)


def test_hstack_and_cols():
    rng = random.Random(6)
    A = rand_sm(rng, 101, 3, 2, 4)
    B = rand_sm(rng, 101, 3, 1, 4)
    C = SeriesMatrix(101, np.concatenate([A.data, B.data], axis=1), 4)
    assert C.cols == 3
    assert C.col(2) == B
    assert C.col_slice(0, 2) == A
