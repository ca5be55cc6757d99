import pytest

from qdsolve.errors import PreconditionError
from qdsolve.field import PrimeField, is_prime
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
