import random

import numpy as np
import pytest

from qdsolve import instrument
from qdsolve.convolution import _matmul_mod
from qdsolve.linalg import (
    char_poly, lin_solve, mat_inv, mat_inv_stack, sylvester_solve, sylvester_tables,
)
from qdsolve.polymat import SeriesMatrix

from operator_matrix import monic_at


def mat(p, rows):
    """A canonical int64 array from nested lists of any integers."""
    return np.array([[int(v) % p for v in row] for row in rows], dtype=np.int64)


def mm(a, b, p):
    """a b mod p in Python ints: a reference that shares no kernel."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n):
    return np.eye(n, dtype=np.int64)


def diag(p, values):
    return np.diag([int(v) % p for v in values]).astype(np.int64)


def test_lin_solve_examples():
    sol = lin_solve(eye(2), mat(101, [[3], [4]]), 101)
    assert np.array_equal(sol.particular, mat(101, [[3], [4]]))
    assert sol.nullspace.shape == (2, 0)

    sol = lin_solve(zeros(1, 1), zeros(1, 1), 101)
    assert np.array_equal(sol.particular, zeros(1, 1))
    assert np.array_equal(sol.nullspace, mat(101, [[1]]))

    assert lin_solve(zeros(1, 1), mat(101, [[1]]), 101) is None


def test_lin_solve_residuals_random():
    rng = random.Random(3)
    p = 97
    for _ in range(200):
        n = rng.randrange(1, 6)
        U = mat(p, [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)])
        V = mat(p, [[rng.randrange(p)] for _ in range(n)])
        sol = lin_solve(U, V, p)
        if sol is None:
            continue
        assert np.array_equal(mm(U, sol.particular, p), V)
        if sol.nullspace.shape[1]:
            assert not mm(U, sol.nullspace, p).any()
            # columns independent: the nullspace-as-map has trivial kernel
            red = lin_solve(sol.nullspace, zeros(n, 1), p)
            assert red.nullspace.shape[1] == 0


def test_lin_solve_deterministic():
    rng = random.Random(4)
    p = 101
    U = mat(p, [[rng.randrange(p) for _ in range(4)] for _ in range(4)])
    V = mat(p, [[rng.randrange(p)] for _ in range(4)])
    s1 = lin_solve(U, V, p)
    s2 = lin_solve(U, V, p)
    assert np.array_equal(s1.particular, s2.particular)
    assert np.array_equal(s1.nullspace, s2.nullspace)


def test_mat_inv_examples():
    assert np.array_equal(mat_inv(eye(3), 101), eye(3))
    assert np.array_equal(mat_inv(diag(7, [2, 3]), 7), diag(7, [4, 5]))
    assert np.array_equal(mat_inv(mat(7, [[3]]), 7), mat(7, [[5]]))
    with pytest.raises(ValueError):
        mat_inv(mat(7, [[1, 1], [1, 1]]), 7)
    with pytest.raises(ValueError):
        mat_inv(mat(7, [[1, 1]]), 7)


def test_char_poly_examples():
    assert char_poly(diag(101, [1, 2]), 101) == [2, 98, 1]  # x^2 - 3x + 2
    assert char_poly(zeros(2, 2), 101) == [0, 0, 1]
    companion = mat(101, [[0, -5], [1, -3]])  # companion of x^2 + 3x + 5
    assert char_poly(companion, 101) == [5, 3, 1]


def test_cayley_hamilton_random():
    rng = random.Random(5)
    for p in (97, 134217757, 2147483647):
        for _ in range(40):
            n = rng.randrange(1, 6)
            U = mat(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            chi = char_poly(U, p)
            acc = zeros(n, n).astype(object)
            power = eye(n)
            for c in chi:
                acc = (acc + power.astype(object) * c) % p
                power = mm(power, U, p)
            assert not acc.any()


def _sylvester(Y, V, Z, p):
    """sylvester_solve(Y, V, Z) given V's right-side table and the
    mat_inv_stack inverse of chi_V(Y), the inputs good_spectrum reports;
    None when the singular mask shows that Spec(Y) and Spec(V) intersect."""
    chi = char_poly(V, p)
    m_inv, singular = mat_inv_stack(monic_at(chi, Y, p), p)
    if singular.any():
        return None
    return sylvester_solve(Y, V, Z, p, m_inv, sylvester_tables(V, chi, p)[1])


def test_sylvester_examples():
    p = 101
    # scalar: Y = 0, V = 1 -> -X = Z
    X = _sylvester(zeros(1, 1), eye(1), mat(p, [[13]]), p)
    assert np.array_equal(X, mat(p, [[-13]]))

    Y = diag(p, [1, 2])
    V = diag(p, [3, 4])
    Z = mat(p, [[1, 1], [1, 1]])
    X = _sylvester(Y, V, Z, p)
    # entrywise oracle for diagonal Y, V: X[i][j] = Z[i][j] / (y_i - v_j)
    want = [[pow((1 - 3) % p, p - 2, p), pow((1 - 4) % p, p - 2, p)],
            [pow((2 - 3) % p, p - 2, p), pow((2 - 4) % p, p - 2, p)]]
    assert np.array_equal(X, mat(p, want))

    assert _sylvester(eye(2), eye(2), mat(p, [[1, 0], [0, 0]]), p) is None


def test_sylvester_random_verified():
    instrument.set_runtime_checks(True)
    try:
        rng = random.Random(6)
        for p in (134217757, 2147483647):
            for _ in range(30):
                n = rng.randrange(1, 5)
                Y = _rand_matrix(rng, p, n)
                V = _rand_matrix(rng, p, n)
                Z = _rand_matrix(rng, p, n)
                X = _sylvester(Y, V, Z, p)
                if X is None:
                    continue
                assert np.array_equal((mm(Y, X, p) - mm(X, V, p)) % p, Z)
    finally:
        instrument.set_runtime_checks(False)


def _kron_sylvester(Y, V, Z, p):
    """Reference solve of Y X - X V = Z as the n^2 x n^2 Kronecker system.

    Returns None when that system is singular.
    """
    n = Y.shape[0]
    K = (np.kron(Y, eye(n)) - np.kron(eye(n), V.T)) % p
    sol = lin_solve(K, Z.reshape(n * n, 1), p)
    if sol is None or sol.nullspace.shape[1] != 0:
        return None
    return sol.particular.reshape(n, n)


def _rand_matrix(rng, p, n):
    return mat(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def _rand_invertible(rng, p, n):
    while True:
        S = _rand_matrix(rng, p, n)
        try:
            return S, mat_inv(S, p)
        except ValueError:
            pass


def _shared_eigenvalue_pair(rng, p, n):
    """(Y, V) with Y = S V S^-1 + D sharing the eigenvalue lam of V."""
    T, Tinv = _rand_invertible(rng, p, n)
    lam = rng.randrange(p)
    U = mat(p, [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)])
    U = (U + diag(p, [lam] + [rng.randrange(p) for _ in range(n - 1)])) % p
    V = mm(mm(T, U, p), Tinv, p)  # V (T e_0) = lam T e_0
    S, Sinv = _rand_invertible(rng, p, n)
    x = mm(S, T[:, :1], p)  # eigenvector of S V S^-1 for lam
    j = int(np.nonzero(x[:, 0])[0][0])
    a = zeros(1, n)
    a[0, j] = pow(int(x[j, 0]), p - 2, p)  # a x = 1
    H = _rand_matrix(rng, p, n)
    D = (H - mm(mm(H, x, p), a, p)) % p  # D x = 0, so Y x = lam x
    return (mm(mm(S, V, p), Sinv, p) + D) % p, V


def _check_sylvester(Y, V, Z, p, want):
    """_sylvester(Y, V, Z) is want; want None means the system is singular."""
    got = _sylvester(Y, V, Z, p)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)


def test_sylvester_matches_kronecker_reference():
    # Y a matrix, Y = s V, and stacks of matrices
    rng = random.Random(8)
    for p in (3, 5, 7, 101, 134217757):
        solved = singular = 0
        for n in range(1, 7):
            pairs = [(_rand_matrix(rng, p, n), _rand_matrix(rng, p, n)) for _ in range(8)]
            pairs += [_shared_eigenvalue_pair(rng, p, n) for _ in range(4)]
            for t, (Y, V) in enumerate(pairs):
                Z = _rand_matrix(rng, p, n)
                want = _kron_sylvester(Y, V, Z, p)
                if t >= 8:
                    assert want is None  # a shared eigenvalue makes the system singular
                _check_sylvester(Y, V, Z, p, want)
                if want is None:
                    singular += 1
                    continue
                solved += 1
                sV = rng.randrange(p) * V % p
                _check_sylvester(sV, V, Z, p, _kron_sylvester(sV, V, Z, p))
            # Y = V shares its whole spectrum
            _check_sylvester(V, V, Z, p, None)
            # a stack of matrices against one V, some of them s V; one
            # singular member, here Y = V, makes the whole stack raise
            V = _rand_matrix(rng, p, n)
            scales = [rng.randrange(p) for _ in range(3)]
            Ys = np.stack([_rand_matrix(rng, p, n) for _ in range(2)] + [s * V % p for s in scales])
            Zs = np.stack([_rand_matrix(rng, p, n) for _ in range(len(Ys))])
            wants = [_kron_sylvester(Y, V, Z, p) for Y, Z in zip(Ys, Zs)]
            want = None if any(w is None for w in wants) else np.stack(wants)
            _check_sylvester(Ys, V, Zs, p, want)
            _check_sylvester(np.stack([Ys[0], V]), V, Zs[:2], p, None)
        assert solved and singular
    # every entry p - 1 at the ceiling: Y = -J and V = -J - Id (J all ones)
    # have spectra {-n, 0} and {-n - 1, -1}, and s = -1 gives Y = J + Id
    p = 2**31 - 1
    for n in range(1, 7):
        J = np.full((n, n), p - 1, dtype=np.int64)
        V = (J - eye(n)) % p
        _check_sylvester(J, V, J, p, _kron_sylvester(J, V, J, p))
        sV = (p - 1) * V % p
        _check_sylvester(sV, V, J, p, _kron_sylvester(sV, V, J, p))
        Ys, Zs = np.stack([J, J]), np.stack([J, (p - 1) * eye(n) % p])
        want = np.stack([_kron_sylvester(J, V, Z, p) for Z in Zs])
        _check_sylvester(Ys, V, Zs, p, want)
        assert _kron_sylvester(J, V, J, p) is not None


def test_matmul_chunked_large_inner():
    # inner dimension big enough to force chunked accumulation
    p = 134217757
    rng = np.random.default_rng(1)
    a = rng.integers(0, p, (3, 400))
    b = rng.integers(0, p, (400, 2))
    want = np.zeros((3, 2), dtype=object)
    for i in range(3):
        for j in range(2):
            want[i, j] = sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % p
    got = _matmul_mod(a, b, p)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize(
    "p, extra",
    # at p = 2^31 - 1 the limb split covers inner < 2^15; 2^15 is chunked
    [(134217757, ()), (2147483647, (2**15,))],
)
def test_matmul_mod_limb_split(p, extra):
    step = max(1, 2**62 // ((p - 1) ** 2 + 1))
    rng = np.random.default_rng(p)
    for inner in (step, step + 1, 4097) + extra:
        a = rng.integers(0, p, (2, inner))
        b = rng.integers(0, p, (inner, 3))
        a[:, :4] = b[:4, :] = p - 1  # extreme residues
        before = instrument.mul_counter.value
        got = _matmul_mod(a, b, p)
        assert instrument.mul_counter.value - before == 2 * inner * 3
        # object arrays multiply in Python ints, which cannot overflow
        assert got.tolist() == (a.astype(object) @ b.astype(object) % p).tolist(), inner
    # the products of series matrices with a constant one go through the same kernel
    A = SeriesMatrix(p, rng.integers(0, p, (3, 3, 2)), 2)
    M = rng.integers(0, p, (3, 3))
    Mc = SeriesMatrix(p, M[:, :, None], 2)
    for d in range(2):
        Ad = A.data[:, :, d].astype(object)
        left = Mc.mul(A).data[:, :, d]
        right = A.mul(Mc).data[:, :, d]
        assert left.tolist() == (M.astype(object) @ Ad % p).tolist()
        assert right.tolist() == (Ad @ M.astype(object) % p).tolist()
