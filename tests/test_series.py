import random

import pytest

from qdsolve import instrument
from qdsolve.errors import PreconditionError
from qdsolve.field import PrimeField
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext

P101 = PrimeField(101)
P28 = PrimeField(134217757)


def ser(p, coeffs, prec):
    """The scalar series sum coeffs[i] x^i mod x^prec, as a 1 x 1 matrix."""
    return SeriesMatrix(p, [[coeffs]], prec)


def rand_series(rng, p, prec, ensure_zero_const=False):
    coeffs = [rng.randrange(p) for _ in range(prec)]
    if ensure_zero_const and coeffs:
        coeffs[0] = 0
    return ser(p, coeffs, prec)


def coeff(f, i):
    return int(f.coefficient_array(i)[0, 0])


def test_gamma_examples():
    assert QContext(P101, 1, 1).gamma(5) == 5
    assert QContext(P101, 2, 1).gamma(3) == 7
    for q in (1, 2, 37):
        assert QContext(P101, q, 1).gamma(0) == 0


def test_gamma_recurrence():
    ctx = QContext(P28, 12345, 1)
    for i in range(50):
        assert ctx.gamma(i + 1) == (ctx.q * ctx.gamma(i) + 1) % ctx.p


def test_delta_examples():
    ctx = QContext(P101, 1, 1)
    x2 = ser(101, [0, 0, 1], 3)
    assert x2.delta(ctx) == ser(101, [0, 2], 2)
    ctx2 = QContext(P101, 2, 1)
    x3 = ser(101, [0, 0, 0, 1], 4)
    assert x3.delta(ctx2) == ser(101, [0, 0, 7], 3)
    const = ser(101, [5], 4)
    assert const.delta(ctx2).is_zero()


def test_sigma_examples():
    f = ser(101, [3, 1, 4, 1], 4)
    assert f.sigma(QContext(P101, 1, 1)) == f
    assert ser(101, [1, 1], 2).sigma(QContext(P101, 2, 1)) == ser(101, [1, 2], 2)
    assert ser(101, [0, 0, 1], 3).sigma(QContext(P101, 3, 1)) == ser(101, [0, 0, 9], 3)


def test_q_integrate_examples():
    ctx = QContext(P101, 1, 1)
    one = ser(101, [1], 1)
    assert ctx.integrate(one) == ser(101, [0, 1], 2)
    ctx2 = QContext(P101, 2, 1)
    x = ser(101, [0, 1], 2)
    inv3 = pow(3, 99, 101)
    assert ctx2.integrate(x) == ser(101, [0, 0, inv3], 3)
    ctx5 = QContext(PrimeField(5), 1, 1)
    f = ser(5, [1, 1, 1, 1, 1], 5)
    with pytest.raises(PreconditionError, match="gamma_5"):
        ctx5.integrate(f)


def test_integrate_inverse_table_grows_once():
    # the table of 1/gamma_i grows only when a call needs more of it, and
    # growing it is uncharged set-up: every call charges one multiplication
    # per coefficient, whether it grew the table or not
    rng = random.Random(12)
    for p in (101, 2**31 - 1):
        ctx = QContext(PrimeField(p), 3, 1)
        covered = 1
        for L in (3, 1, 7, 7, 20, 20):
            f = ser(p, [rng.randrange(1, p) for _ in range(L)], L)
            before = instrument.mul_counter.value
            got = ctx.integrate(f)
            charge = instrument.mul_counter.value - before
            want = [0] + [c * pow(ctx.gamma(i), p - 2, p) % p for i, c in enumerate(f.data[0, 0].tolist(), 1)]
            assert got == ser(p, want, L + 1)
            covered = max(covered, L + 1)
            assert len(ctx._gaminv) == covered
            assert charge == L


def test_mul_examples():
    f = ser(101, [1, 1], 2)
    assert f.mul(f, 2) == ser(101, [1, 2], 2)
    z = SeriesMatrix.zeros(101, 1, 1, 4)
    assert f.mul(z, 2).is_zero()
    g = ser(101, [1, -1], 3)
    h = ser(101, [1, 1, 1], 3)
    assert g.mul(h, 3) == SeriesMatrix.identity(101, 1, 3)


def test_inv_examples():
    f = ser(101, [1, -1], 3)
    assert f.inv_newton(3) == ser(101, [1, 1, 1], 3)
    assert ser(101, [1], 4).inv_newton(4) == SeriesMatrix.identity(101, 1, 4)
    with pytest.raises(ValueError, match="singular"):
        ser(101, [0, 1], 2).inv_newton(2)


def test_shift():
    f = ser(101, [0, 1, 1], 3)
    assert f.shift(-1) == ser(101, [1, 1], 2)
    g = ser(101, [1], 2)
    assert g.shift(2) == ser(101, [0, 0, 1], 4)
    with pytest.raises(ValueError):
        ser(101, [1, 1], 2).shift(-1)
    assert ser(101, [1, 1], 2).shift(-1, truncate=True) == ser(101, [1], 1)


def test_product_rule_exact():
    # delta(fg) = f delta(g) + delta(f) sigma(g), 500 random pairs
    rng = random.Random(7)
    for p in (101, 134217757):
        field = PrimeField(p)
        for _ in range(250):
            q = 1 if rng.random() < 0.5 else rng.randrange(2, p)
            ctx = QContext(field, q, 1)
            n = rng.randrange(2, 25)
            f = rand_series(rng, p, n)
            g = rand_series(rng, p, n)
            lhs = f.mul(g, n).delta(ctx)
            rhs = f.truncate(n - 1).mul(g.delta(ctx), n - 1) + f.delta(ctx).mul(
                g.sigma(ctx).truncate(n - 1), n - 1
            )
            assert lhs == rhs


def test_sigma_is_ring_morphism():
    rng = random.Random(8)
    for _ in range(100):
        p = 134217757
        ctx = QContext(P28, rng.randrange(2, p), 1)
        n = rng.randrange(1, 20)
        f = rand_series(rng, p, n)
        g = rand_series(rng, p, n)
        assert f.mul(g, n).sigma(ctx) == f.sigma(ctx).mul(g.sigma(ctx), n)
    one = SeriesMatrix.identity(P28.p, 1, 5)
    assert one.sigma(QContext(P28, 99, 1)) == one


def test_integrate_delta_round_trip():
    rng = random.Random(9)
    for p in (101, 134217757):
        field = PrimeField(p)
        for _ in range(250):
            q = 1 if rng.random() < 0.5 else rng.randrange(2, p)
            ctx = QContext(field, q, 1)
            n = rng.randrange(1, 26)
            if any(ctx.gamma(i) == 0 for i in range(1, n + 1)):
                # q is a low-order root of unity; integration must refuse
                f = ser(p, [1] * n, n)
                with pytest.raises(PreconditionError):
                    ctx.integrate(f)
                continue
            f = rand_series(rng, p, n, ensure_zero_const=True)
            assert ctx.integrate(f.delta(ctx)) == f
            g = rand_series(rng, p, n)
            assert ctx.integrate(g).delta(ctx) == g


def test_delta_matches_formal_derivative_at_q1():
    rng = random.Random(10)
    ctx = QContext(P101, 1, 1)
    f = rand_series(rng, 101, 12)
    d = f.delta(ctx)
    for i in range(11):
        assert coeff(d, i) == (i + 1) * coeff(f, i + 1) % 101


def test_precision_discipline():
    f = ser(101, [1, 2, 3], 3)
    g = ser(101, [1, 1], 2)
    assert (f + g).prec == 2
    assert f.mul(g).prec == 2
    assert f.truncate(2).prec == 2
    with pytest.raises(ValueError):
        f.truncate(4)
    assert f.as_poly_prec(5).prec == 5
    assert coeff(f, 2) == 3
    with pytest.raises(IndexError):
        coeff(f, 3)


def test_qcontext_validation():
    with pytest.raises(PreconditionError):
        QContext(P101, 0, 1)
    with pytest.raises(ValueError):
        QContext(P101, 1, 0)
