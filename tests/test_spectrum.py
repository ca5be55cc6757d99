import random

import numpy as np
import pytest

from qdsolve import instrument
from qdsolve.errors import InternalInvariantError
from qdsolve.field import PrimeField
from qdsolve.linalg import char_poly, mat_inv
from qdsolve.series import QContext
from qdsolve.spectrum import diagonalize, good_spectrum, singular_indices

P101 = PrimeField(101)


def mat(p, rows):
    """A canonical int64 array from nested lists of any integers."""
    return np.array([[int(v) % p for v in row] for row in rows], dtype=np.int64)


def diag(p, values):
    return np.diag([int(v) % p for v in values]).astype(np.int64)


def rand_mat(rng, p, n):
    return mat(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def mm(a, b, p):
    """a b mod p in Python ints: a reference that shares no kernel."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def test_good_spectrum_examples():
    ctx = QContext(P101, 1, 1)
    rep = good_spectrum(np.zeros((1, 1), dtype=np.int64), ctx, 50)
    assert rep.good and rep.singular_indices == [0]

    A0 = mat(101, [[0, 0], [1, -5]])  # Spec = {0, -5}
    rep = good_spectrum(A0, ctx, 4)
    assert rep.good and rep.singular_indices == [0]
    # at N = 12 the clause breaks at i = 5 because the eigenvalues differ by 5
    rep12 = good_spectrum(A0, ctx, 12)
    assert not rep12.good and "i=5" in rep12.reason

    ctx2 = QContext(P101, 1, 2)
    rep = good_spectrum(diag(101, [1, 1]), ctx2, 6)
    assert not rep.good and "|Spec A0| = n fails" in rep.reason


def test_singular_indices_examples():
    one = char_poly(mat(101, [[1]]), 101)
    assert singular_indices(one, QContext(P101, 1, 1), 4) == [1]
    assert singular_indices(one, QContext(P101, 2, 1), 4) == []
    sing = char_poly(np.zeros((2, 2), dtype=np.int64), 101)
    assert singular_indices(sing, QContext(P101, 1, 2), 5) == [0, 1, 2, 3, 4]


def test_good_spectrum_k_gt_1():
    # invertible with distinct eigenvalues in K: good for q = 1
    ctx = QContext(P101, 1, 3)
    rep = good_spectrum(diag(101, [1, 2, 5]), ctx, 20)
    assert rep.good and rep.singular_indices == []
    # singular A0 is rejected
    rep = good_spectrum(diag(101, [0, 2, 5]), ctx, 20)
    assert not rep.good and "singular" in rep.reason
    # q != 1: Spec meets q Spec when eigenvalues are in ratio q
    ctxq = QContext(P101, 2, 2)
    rep = good_spectrum(diag(101, [3, 6]), ctxq, 8)
    assert not rep.good and "i=1" in rep.reason
    rep = good_spectrum(diag(101, [1, 3]), ctxq, 3)
    assert rep.good
    # q = 1 over F_7: the matrices diagonalize cannot split are refused here
    ctx7 = QContext(PrimeField(7), 1, 2)
    for A0, reason in [
        (mat(7, [[0, 1], [0, 0]]), "A0 is singular (clause k>1)"),
        (mat(7, [[1, 1], [0, 1]]), "|Spec A0| = n fails (repeated eigenvalue)"),
        (mat(7, [[0, 1], [3, 0]]), "Spec A0 not contained in K (char poly does not split)"),
    ]:
        assert good_spectrum(A0, ctx7, 4).reason == reason


def test_good_spectrum_gamma_p_clause():
    # q = 1, k > 1: the steps reach gamma_p = p = 0 once N - k >= p
    p, k = 7, 2
    ctx = QContext(PrimeField(p), 1, k)
    A0 = diag(p, [1, 2])
    assert good_spectrum(A0, ctx, p + k - 1).good
    for N in (p + k, p + k + 3):
        rep = good_spectrum(A0, ctx, N)
        assert not rep.good
        assert rep.reason == "gamma_7 = 0 in F_7 (clause k>1, q=1)"


def is_good(A0, p):
    """Whether A0 passes the good spectrum test for k = 2, q = 1."""
    return good_spectrum(A0, QContext(PrimeField(p), 1, 2), 3).good


def test_diagonalize_examples():
    A0 = diag(101, [1, 2])
    assert is_good(A0, 101)
    P, roots = diagonalize(A0, 101)
    assert roots == [1, 2] and np.array_equal(P, np.eye(2, dtype=np.int64))

    A0 = mat(7, [[0, 1], [2, 1]])  # chi = x^2 - x - 2 = (x - 2)(x + 1)
    assert is_good(A0, 7)
    P, roots = diagonalize(A0, 7)
    assert roots == [2, 6]
    D = diag(7, roots)
    assert np.array_equal(mm(A0, P, 7), mm(P, D, 7))
    assert np.array_equal(mm(mm(mat_inv(P, 7), A0, 7), P, 7), D)

    # a Jordan block has one eigenline, a scalar matrix never splits and
    # neither does the companion of the irreducible x^2 - 3 over F_7
    for A0 in (mat(7, [[1, 1], [0, 1]]), diag(7, [3, 3]), mat(7, [[0, 3], [1, 0]])):
        with pytest.raises(InternalInvariantError):
            diagonalize(A0, 7)


def test_diagonalize_random_and_seeded():
    rng = random.Random(11)
    p = 134217757
    F = PrimeField(p)
    hits = 0
    while hits < 15:
        n = rng.randrange(1, 5)
        A0 = rand_mat(rng, p, n)
        if not is_good(A0, p):
            continue
        P, roots = diagonalize(A0, p)
        hits += 1
        assert np.array_equal(mm(A0, P, p), mm(P, diag(p, roots), p))
        P2, roots2 = diagonalize(A0, p)
        assert np.array_equal(P2, P) and roots2 == roots


def test_diagonalize_and_split_clause_charge_their_powers():
    # diagonalize forms (A0 + a Id)^((p-1)/2) at least once and the split
    # clause A0^p, each by square-and-multiply with one n x n product per
    # squaring
    p, n = 65521, 6
    rng = random.Random(15)
    # a unit lower triangular P, whose inverse mat_inv always finds
    P = (np.tril(rand_mat(rng, p, n), -1) + np.eye(n, dtype=np.int64)) % p
    A0 = mm(mm(P, diag(p, rng.sample(range(1, p), n)), p), mat_inv(P, p), p)
    before = instrument.mul_counter.value
    diagonalize(A0, p)
    assert instrument.mul_counter.value - before >= (((p - 1) // 2).bit_length() - 1) * n**3
    before = instrument.mul_counter.value
    assert good_spectrum(A0, QContext(PrimeField(p), 1, 2), 8).good
    assert instrument.mul_counter.value - before >= (p.bit_length() - 1) * n**3


def brute_spectrum_report(A0, ctx, N):
    """Clause checks by exhaustive root enumeration; only for tiny p."""
    p, q, k, n = ctx.p, ctx.q, ctx.k, A0.shape[0]
    chi = char_poly(A0, p)

    def roots(poly):
        return {x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p == 0}

    spec = roots(chi)

    def is_eigenvalue_of_scaled(i):
        # members of q^i Spec - gamma_i that also lie in Spec, via closure-free check:
        # compare gcd-style by evaluating both char polys on all field points.
        shift = {(ctx.qpow(i) * s - ctx.gamma(i)) % p for s in spec}
        return spec & shift

    if k == 1:
        for i in range(1, N):
            common = is_eigenvalue_of_scaled(i)
            if common:
                # true intersection requires shared roots of both char polys over
                # the closure; over F_p with fully split chi this test is exact
                return False
        return True
    if chi[0] == 0:
        return False
    if q == 1:
        if any(i % p == 0 for i in range(1, max(N - k, 0) + 1)):
            return False
        return len(spec) == n  # distinct roots all in F_p
    for i in range(1, N):
        if {ctx.qpow(i) * s % p for s in spec} & spec:
            return False
    return True


def test_brute_force_cross_check_split_case():
    # n <= 3, p <= 97: compare clause results against exhaustive enumeration,
    # restricted to matrices whose char poly splits (where the brute force is exact)
    rng = random.Random(12)
    p = 97
    F = PrimeField(p)
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 4)
        k = rng.choice([1, 2, 3])
        q = rng.choice([1, 1, rng.randrange(2, p)])
        ctx = QContext(F, q, k)
        A0 = rand_mat(rng, p, n)
        chi = char_poly(A0, p)
        nroots = sum(
            1
            for x in range(p)
            if sum(c * pow(x, i, p) for i, c in enumerate(chi)) % p == 0
        )
        if nroots != n:
            continue  # brute force only sees K-rational eigenvalues
        N = rng.randrange(2, 17)
        rep = good_spectrum(A0, ctx, N)
        assert rep.good == brute_spectrum_report(A0, ctx, N), (A0, q, k, N)
        checked += 1


def test_singular_indices_brute_force():
    rng = random.Random(13)
    p = 97
    F = PrimeField(p)
    for _ in range(60):
        n = rng.randrange(1, 4)
        k = rng.choice([1, 2])
        q = rng.choice([1, rng.randrange(2, p)])
        ctx = QContext(F, q, k)
        A0 = rand_mat(rng, p, n)
        N = rng.randrange(1, 14)
        got = singular_indices(char_poly(A0, p), ctx, N)
        want = []
        for i in range(N):
            Ri = A0 * ctx.qpow(i) % p
            if k == 1:
                Ri = (Ri - ctx.gamma(i) * np.eye(n, dtype=np.int64)) % p
            try:
                mat_inv(Ri, p)
            except ValueError:
                want.append(i)
        assert got == want


def test_report_consistency_invariant():
    # good and k = 1 implies at most one singular index; k > 1 implies none
    rng = random.Random(14)
    p = 134217757
    F = PrimeField(p)
    for _ in range(40):
        n = rng.randrange(1, 4)
        k = rng.choice([1, 2, 3])
        q = rng.choice([1, rng.randrange(2, p)])
        ctx = QContext(F, q, k)
        A0 = rand_mat(rng, p, n)
        rep = good_spectrum(A0, ctx, 20)
        if rep.good:
            if k == 1:
                assert len(rep.singular_indices) <= 1
            else:
                assert rep.singular_indices == []
