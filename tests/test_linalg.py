import random

import numpy as np
import pytest

from qdsolve import instrument
from qdsolve.linalg import Matrix, _matmul_mod, char_poly, lin_solve, mat_inv, sylvester_solve
from qdsolve.polymat import SeriesMatrix


def test_lin_solve_examples():
    sol = lin_solve(Matrix.identity(101, 2), Matrix(101, [[3], [4]]))
    assert sol.particular == Matrix(101, [[3], [4]])
    assert sol.nullspace.cols == 0

    sol = lin_solve(Matrix.zeros(101, 1, 1), Matrix.zeros(101, 1, 1))
    assert sol.particular == Matrix.zeros(101, 1, 1)
    assert sol.nullspace == Matrix(101, [[1]])

    assert lin_solve(Matrix.zeros(101, 1, 1), Matrix(101, [[1]])) is None


def test_lin_solve_residuals_random():
    rng = random.Random(3)
    p = 97
    for _ in range(200):
        n = rng.randrange(1, 6)
        U = Matrix(p, [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)])
        V = Matrix(p, [[rng.randrange(p)] for _ in range(n)])
        sol = lin_solve(U, V)
        if sol is None:
            continue
        assert U @ sol.particular == V
        if sol.nullspace.cols:
            assert (U @ sol.nullspace).is_zero()
            # columns independent: the nullspace-as-map has trivial kernel
            red = lin_solve(sol.nullspace, Matrix.zeros(p, n, 1))
            assert red.nullspace.cols == 0


def test_lin_solve_deterministic():
    rng = random.Random(4)
    p = 101
    U = Matrix(p, [[rng.randrange(p) for _ in range(4)] for _ in range(4)])
    V = Matrix(p, [[rng.randrange(p)] for _ in range(4)])
    s1 = lin_solve(U, V)
    s2 = lin_solve(U, V)
    assert s1.particular == s2.particular and s1.nullspace == s2.nullspace


def test_mat_inv_examples():
    assert mat_inv(Matrix.identity(101, 3)) == Matrix.identity(101, 3)
    assert mat_inv(Matrix.diag(7, [2, 3])) == Matrix.diag(7, [4, 5])
    with pytest.raises(ValueError):
        mat_inv(Matrix(7, [[1, 1], [1, 1]]))


def test_char_poly_examples():
    assert char_poly(Matrix.diag(101, [1, 2])) == [2, 98, 1]  # x^2 - 3x + 2
    assert char_poly(Matrix.zeros(101, 2, 2)) == [0, 0, 1]
    companion = Matrix(101, [[0, -5], [1, -3]])  # companion of x^2 + 3x + 5
    assert char_poly(companion) == [5, 3, 1]


def test_cayley_hamilton_random():
    rng = random.Random(5)
    for p in (97, 134217757):
        for _ in range(40):
            n = rng.randrange(1, 6)
            U = Matrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            chi = char_poly(U)
            acc = Matrix.zeros(p, n, n)
            power = Matrix.identity(p, n)
            for c in chi:
                acc = acc + power.scale(c)
                power = power @ U
            assert acc.is_zero()


def test_sylvester_examples():
    p = 101
    # scalar: Y = 0, V = 1 -> -X = Z
    X = sylvester_solve(Matrix.zeros(p, 1, 1), Matrix.identity(p, 1), Matrix(p, [[13]]))
    assert X == Matrix(p, [[-13]])

    Y = Matrix.diag(p, [1, 2])
    V = Matrix.diag(p, [3, 4])
    Z = Matrix(p, [[1, 1], [1, 1]])
    X = sylvester_solve(Y, V, Z)
    # entrywise oracle for diagonal Y, V: X[i][j] = Z[i][j] / (y_i - v_j)
    want = [[pow((1 - 3) % p, p - 2, p), pow((1 - 4) % p, p - 2, p)],
            [pow((2 - 3) % p, p - 2, p), pow((2 - 4) % p, p - 2, p)]]
    assert X == Matrix(p, want)

    with pytest.raises(ValueError):
        sylvester_solve(Matrix.identity(p, 2), Matrix.identity(p, 2), Matrix(p, [[1, 0], [0, 0]]))


def test_sylvester_random_verified():
    instrument.set_runtime_checks(True)
    try:
        rng = random.Random(6)
        p = 134217757
        for _ in range(30):
            n = rng.randrange(1, 5)
            Y = Matrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            V = Matrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            Z = Matrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            try:
                X = sylvester_solve(Y, V, Z)
            except ValueError:
                continue
            assert (Y @ X) - (X @ V) == Z
    finally:
        instrument.set_runtime_checks(False)


def _kron_sylvester(Y, V, Z):
    """Reference solve of Y X - X V = Z as the n^2 x n^2 Kronecker system.

    Returns None when that system is singular.
    """
    n, p = Y.rows, Y.p
    eye = np.eye(n, dtype=np.int64)
    K = (np.kron(Y.a, eye) - np.kron(eye, V.a.T)) % p
    sol = lin_solve(Matrix(p, K), Matrix(p, Z.a.reshape(n * n, 1)))
    if sol is None or sol.nullspace.cols != 0:
        return None
    return Matrix(p, sol.particular.a.reshape(n, n))


def _rand_matrix(rng, p, n):
    return Matrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def _rand_invertible(rng, p, n):
    while True:
        S = _rand_matrix(rng, p, n)
        try:
            return S, mat_inv(S)
        except ValueError:
            pass


def _shared_eigenvalue_pair(rng, p, n):
    """(Y, V) with Y = S V S^-1 + D sharing the eigenvalue lam of V."""
    T, Tinv = _rand_invertible(rng, p, n)
    lam = rng.randrange(p)
    U = Matrix(p, [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)])
    U = U + Matrix.diag(p, [lam] + [rng.randrange(p) for _ in range(n - 1)])
    V = T @ U @ Tinv  # V (T e_0) = lam T e_0
    S, Sinv = _rand_invertible(rng, p, n)
    x = S @ T.col(0)  # eigenvector of S V S^-1 for lam
    j = int(np.nonzero(x.a[:, 0])[0][0])
    a = Matrix.zeros(p, 1, n)
    a.a[0, j] = pow(int(x.a[j, 0]), p - 2, p)  # a x = 1
    H = _rand_matrix(rng, p, n)
    D = H - (H @ x) @ a  # D x = 0, so Y x = lam x
    return S @ V @ Sinv + D, V


def test_sylvester_matches_kronecker_reference():
    rng = random.Random(8)
    for p in (3, 5, 7, 101, 134217757):
        solved = singular = 0
        for n in range(1, 7):
            pairs = [(_rand_matrix(rng, p, n), _rand_matrix(rng, p, n)) for _ in range(8)]
            pairs += [_shared_eigenvalue_pair(rng, p, n) for _ in range(4)]
            for t, (Y, V) in enumerate(pairs):
                Z = _rand_matrix(rng, p, n)
                want = _kron_sylvester(Y, V, Z)
                if t >= 8:
                    assert want is None  # a shared eigenvalue makes the system singular
                if want is None:
                    singular += 1
                    with pytest.raises(ValueError, match="spectra"):
                        sylvester_solve(Y, V, Z)
                    continue
                solved += 1
                assert sylvester_solve(Y, V, Z) == want
                assert sylvester_solve(Y, V, Z, char_poly(V)) == want
        assert solved and singular


def test_matmul_chunked_large_inner():
    # inner dimension big enough to force chunked accumulation
    p = 134217757
    rng = np.random.default_rng(1)
    a = Matrix(p, rng.integers(0, p, (3, 400)))
    b = Matrix(p, rng.integers(0, p, (400, 2)))
    want = np.zeros((3, 2), dtype=object)
    for i in range(3):
        for j in range(2):
            want[i, j] = sum(int(x) * int(y) for x, y in zip(a.a[i], b.a[:, j])) % p
    got = a @ b
    assert got == Matrix(p, [[int(want[i, j]) for j in range(2)] for i in range(3)])


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
    # the constant products of series matrices go through the same kernel
    A = SeriesMatrix(p, rng.integers(0, p, (3, 3, 2)), 2)
    M = rng.integers(0, p, (3, 3))
    for d in range(2):
        Ad = A.data[:, :, d].astype(object)
        left = A.lmul_const(Matrix(p, M)).data[:, :, d]
        right = A.rmul_const(Matrix(p, M)).data[:, :, d]
        assert left.tolist() == (M.astype(object) @ Ad % p).tolist()
        assert right.tolist() == (Ad @ M.astype(object) % p).tolist()
