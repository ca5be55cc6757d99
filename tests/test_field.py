import numpy as np
import pytest

from qdsolve import instrument
from qdsolve.errors import PreconditionError
from qdsolve.field import PrimeField, is_prime, mulmod
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext


def qinv(F, a):
    """a^(-1) in F, read off the q^(-i) table of the context with q = a."""
    return int(QContext(F, a, 1).qinv_pow_slice(2)[1])


def test_inverse_examples():
    F = PrimeField(7)
    assert qinv(F, 2) == 4
    assert qinv(F, 1) == 1
    with pytest.raises(PreconditionError):
        qinv(F, 0)


def test_pow_examples():
    F = PrimeField(7)
    assert QContext(F, 3, 1).qpow(2) == 2
    assert QContext(F, 5, 1).qpow(0) == 1
    assert QContext(PrimeField(101), 2, 1).qpow(100) == 1


def test_primality_enforced():
    with pytest.raises(PreconditionError):
        PrimeField(6)
    with pytest.raises(PreconditionError):
        PrimeField(2)  # p > 2 required
    with pytest.raises(PreconditionError):
        PrimeField(1)
    with pytest.raises(PreconditionError):
        PrimeField(1763)  # 41 * 43: no factor among the witnesses, a Miller-Rabin verdict
    PrimeField(134217757)


def test_modulus_ceiling():
    # _matmul_mod and _rref rely on (p - 1)^2 < 2^62
    PrimeField(2**31 - 1)
    for p in (4294967311, 2**61 - 1):
        with pytest.raises(PreconditionError, match="2\\^31"):
            PrimeField(p)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 101}
    for n in range(1, 110):
        assert is_prime(n) == (n in primes or n in {17, 19, 23, 29, 31, 37, 41, 43, 47,
                                                    53, 59, 61, 67, 71, 73, 79, 83, 89, 103, 107, 109})


def test_canonical_residues():
    # the constructor reduces every value into [0, p), whatever its sign or size
    s = SeriesMatrix(7, [[[-1, -13, 0]]], 3)
    assert s.data.tolist() == [[[6, 1]]]
    assert s.scale(2).data.tolist() == [[[5, 2]]]
    e = SeriesMatrix(7, [[[-1], [13], [7 * 10**12 + 5]]], 1)
    assert e.data.tolist() == [[[6], [6], [5]]]
    assert (e + SeriesMatrix(7, [[[1], [1], [2]]], 1)).is_zero()
    assert (-e).data.tolist() == [[[1], [1], [2]]]


def test_huge_integers_reduced_before_the_int64_cast():
    # a problem file's integers may have any size; they reduce mod p first
    assert SeriesMatrix(101, [[[2**70]]], 1).data.tolist() == [[[2**70 % 101]]]
    big = np.array([[[-(3**80), 5, 2**64 + 1]]], dtype=object)
    assert SeriesMatrix(101, big, 3).data.tolist() == [[[-(3**80) % 101, 5, (2**64 + 1) % 101]]]
    top = np.array([[[2**64 - 1]]], dtype=np.uint64)
    assert SeriesMatrix(101, top, 1).data.tolist() == [[[(2**64 - 1) % 101]]]


@pytest.mark.parametrize(
    "data",
    [
        [[[1.5, 2.7]]],
        np.array([[[1, 2]]], dtype=np.float32),
        np.array([[["1", "2"]]]),
        np.array([[[1, 0.5]]], dtype=object),
        np.array([[[True, False]]]),
    ],
)
def test_non_integer_coefficients_refused(data):
    # truncating 1.5 to 1 would be a silently wrong coefficient
    with pytest.raises(ValueError, match="integers"):
        SeriesMatrix(101, data, 2)


def test_mulmod_broadcasts_and_charges_each_entry():
    p = 101
    before = instrument.mul_counter.value
    assert int(mulmod(7, 20, p)) == 140 % p
    assert instrument.mul_counter.value - before == 1
    x = np.arange(5, dtype=np.int64) * 30
    before = instrument.mul_counter.value
    assert mulmod(np.int64(4), x, p).tolist() == [4 * v % p for v in x.tolist()]
    assert instrument.mul_counter.value - before == 5
    a = np.arange(6, dtype=np.int64).reshape(2, 1, 3) + 95
    b = np.arange(4, dtype=np.int64)[:, None] + 99
    before = instrument.mul_counter.value
    got = mulmod(a, b, p)
    assert got.shape == (2, 4, 3)
    assert got.tolist() == (a * b % p).tolist()
    assert instrument.mul_counter.value - before == 24
    before = instrument.mul_counter.value
    assert mulmod(np.zeros((0, 3), dtype=np.int64), x[:3], p).shape == (0, 3)
    assert instrument.mul_counter.value - before == 0


def test_inverse_involution_and_fermat():
    import random

    rng = random.Random(1)
    for p in (101, 134217757):
        F = PrimeField(p)
        for _ in range(100):
            a = rng.randrange(1, p)
            assert qinv(F, qinv(F, a)) == a
            # the inverse is a^(p-2), so this is Fermat's a^(p-1) = 1
            assert a * qinv(F, a) % p == 1


def test_field_protocol():
    F = PrimeField(11)
    assert F == PrimeField(11) and F != PrimeField(13) and F != 11
    assert hash(F) == hash(PrimeField(11))
    assert len({F, PrimeField(11), PrimeField(13)}) == 2
    assert repr(F) == "PrimeField(11)"


def test_series_matrix_refuses_what_prime_field_refuses():
    # at p = 2^61 - 1, (p - 1)^2 wraps in int64: scale(p - 1) of
    # [p - 1, p - 2] gave [0, 9] for [1, 2]; every constructor now refuses
    # the modulus PrimeField refuses, and accepts the ceiling's largest prime
    P = 2**61 - 1
    for p in (P, 2**31, 10, 2):
        with pytest.raises(PreconditionError):
            SeriesMatrix(p, [[[p - 1, p - 2]]], 2)
        with pytest.raises(PreconditionError):
            SeriesMatrix.zeros(p, 1, 1, 2)
        with pytest.raises(PreconditionError):
            SeriesMatrix.identity(p, 2, 2)
    p = 2**31 - 1
    assert SeriesMatrix(p, [[[p - 1, p - 2]]], 2).scale(p - 1).data.tolist() == [[[1, 2]]]
