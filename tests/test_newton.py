import itertools
import random

import numpy as np
import pytest

from qdsolve import instrument, linalg, newton, oracle, spectrum
from qdsolve.errors import InternalInvariantError, PreconditionError, SpectrumError
from qdsolve.field import PrimeField
from qdsolve.linalg import char_poly, mat_inv
from qdsolve.newton import (
    choose_associated,
    diff_sylvester,
    diff_sylvester_differential,
    newton_ae,
    newton_solve,
    pol_coeffs_de,
    splitting_lemma,
)
from qdsolve.oracle import (
    ProblemInstance,
    _solve_term_by_term,
    random_coefficients,
    random_instance,
    residual,
)
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext
from qdsolve.solution import SolutionSpace, resolve_affine_family, spaces_equal
from qdsolve.spectrum import good_spectrum

from operator_matrix import rigged_singular_system, solve_operator_matrix

P101 = PrimeField(101)


def sm(p, grid, prec):
    return SeriesMatrix(p, np.array(grid, dtype=np.int64), prec)


def associated_residual(A, B, W, N, ctx):
    """x^k delta(W) - A sigma(W) + W B mod x^N."""
    Wp = W.as_poly_prec(N)
    return (
        Wp.delta(ctx).shift(ctx.k).truncate(N)
        - A.truncate(N).mul(Wp.sigma(ctx), N)
        + Wp.mul(B.as_poly_prec(N), N)
    )


def test_pol_coeffs_de_examples():
    p = 101
    ctx = QContext(P101, 1, 1)
    # n=1, k=1, q=1, P=0, Q=x: particular x, basis [1]
    P = SeriesMatrix.zeros(p, 1, 1, 1)
    Q = sm(p, [[[0, 1]]], 3)
    sol = pol_coeffs_de(P, Q, 3, ctx)
    assert sol.particular.entry(0, 0) == sm(p, [[[0, 1]]], 3)
    assert sol.dim == 1 and sol.basis.entry(0, 0) == sm(p, [[[1]]], 3)

    # P=0, Q=1: step 0 reads 0 = 1, inconsistent
    assert pol_coeffs_de(P, sm(p, [[[1]]], 3), 3, ctx) is None

    # k=2 with invertible P0: unique solution, empty basis
    ctx2 = QContext(P101, 1, 2)
    P2 = SeriesMatrix(p, np.array([[[1], [0]], [[0], [2]]], dtype=np.int64), 2)
    rng = np.random.default_rng(5)
    Q2 = SeriesMatrix(p, rng.integers(0, p, (2, 1, 6)), 6)
    sol = pol_coeffs_de(P2, Q2, 6, ctx2)
    assert sol is not None and sol.dim == 0
    # no parameters: the constant column is the space, and a constraint
    # is consistent exactly when its constant term is 0
    family, cons, _ = _solve_term_by_term(P2, Q2, 6, ctx2)
    assert family.cols == 1 and cons == []
    assert sol == SolutionSpace(family, SeriesMatrix.zeros(p, 2, 0, 6))
    assert resolve_affine_family(family, [np.zeros(1, dtype=np.int64)]) == sol
    assert resolve_affine_family(family, [np.ones(1, dtype=np.int64)]) is None
    # residual of x^2 delta(Y) - P sigma(Y) - Q
    Y = sol.particular
    res = Y.delta(ctx2).shift(2).truncate(6) - P2.as_poly_prec(6).mul(Y.sigma(ctx2), 6) - Q2
    assert res.is_zero()


@pytest.mark.parametrize("q, k", [(3, 2), (5, 3)])
def test_pol_coeffs_de_singular_p0_matches_dense(q, k):
    # P = x, so every step matrix -q^i P0 is zero: each coefficient is free
    # until a later step constrains it, and pinning it to 0 is inconsistent
    p, N = 101, 6
    ctx = QContext(P101, q, k)
    P = sm(p, [[[0, 1]]], N)
    Q = sm(p, [[[0, 0, 1, 2, 3, 4]]], N)
    sol = pol_coeffs_de(P, Q, N, ctx)
    want = solve_operator_matrix(ProblemInstance(P101, ctx, 1, N, P, Q))
    assert want is not None and want.dim == 1
    assert spaces_equal(sol, want)


def assert_good(A, ctx):
    """A_0 passes the good spectrum test, as newton_solve requires."""
    rep = good_spectrum(A.coefficient_array(0), ctx, A.prec)
    assert rep.good, rep.reason
    return rep


def test_splitting_lemma_examples():
    p = 101
    ctx = QContext(P101, 1, 2)
    # constant diagonal A: V = Id, B = A
    A = SeriesMatrix(p, np.array([[[1], [0]], [[0], [2]]], dtype=np.int64), 2)
    assert_good(A, ctx)
    B, V = splitting_lemma(A, ctx)
    assert V == SeriesMatrix.identity(p, 2, 2)
    assert B == A.truncate(2)

    # A0 = diag(1,2), A1 = [[0,1],[1,0]]: B = diag, V = Id + x[[0,1],[-1,0]]
    data = np.zeros((2, 2, 2), dtype=np.int64)
    data[:, :, 0] = [[1, 0], [0, 2]]
    data[:, :, 1] = [[0, 1], [1, 0]]
    A = SeriesMatrix(p, data, 2)
    B, V = splitting_lemma(A, ctx)  # A0 is unchanged
    assert B == A.truncate(1).as_poly_prec(2)  # B = diag(1,2), B_1 = 0
    want_v = np.zeros((2, 2, 2), dtype=np.int64)
    want_v[:, :, 0] = np.eye(2)
    want_v[:, :, 1] = [[0, 1], [-1 % p, 0]]
    assert V == SeriesMatrix(p, want_v, 2)
    # defining relation
    assert A.mul(V, 2) == V.mul(B, 2)

    # a defective A0 fails good_spectrum (test_spectrum), so never reaches
    # this far; the construction itself refuses the other equation classes
    for other in (QContext(P101, 1, 1), QContext(P101, 5, 2)):
        with pytest.raises(ValueError):
            splitting_lemma(A, other)


def test_splitting_lemma_random_postconditions():
    rng = random.Random(30)
    p = 134217757
    field = PrimeField(p)
    hits = 0
    attempt = 0
    while hits < 12:
        attempt += 1
        n = rng.randrange(2, 4)
        k = rng.choice([2, 3])
        ctx = QContext(field, 1, k)
        gen = np.random.default_rng(attempt + 100)
        A = SeriesMatrix(p, gen.integers(0, p, (n, n, k + 2)), k + 2)
        rep = good_spectrum(A.coefficient_array(0), ctx, A.prec)
        if not rep.good:
            continue
        B, V = splitting_lemma(A, ctx)
        hits += 1
        assert A.truncate(k).mul(V, k) == V.mul(B, k)
        offdiag = B.data.copy()
        for i in range(n):
            offdiag[i, i, :] = 0
        assert not np.any(offdiag)  # B diagonal
        mat_inv(V.coefficient_array(0), p)  # V0 invertible


def test_choose_associated_branches():
    p = 101
    # k=1: B = A0, V = Id
    ctx = QContext(P101, 5, 1)
    A = sm(p, [[[3, 1, 4]]], 3)
    B, V = choose_associated(A, ctx, assert_good(A, ctx))
    assert B == A.truncate(1) and V == SeriesMatrix.identity(p, 1, 1)
    # k=3, q != 1: B = A0 is constant and V solves the Sylvester steps
    # (5^i 3 - 3) v_i = -sum_(d=1..i) 5^(i-d) a_d v_(i-d), v_0 = 1
    ctx = QContext(P101, 5, 3)
    B, V = choose_associated(A, ctx, assert_good(A, ctx))
    inv = lambda x: pow(x % p, p - 2, p)
    v1 = -inv(12) % p
    v2 = -(5 * v1 + 4) * inv(72) % p
    assert B == A.truncate(1).as_poly_prec(3) and V == sm(p, [[[1, v1, v2]]], 3)
    assert A.mul(V.sigma(ctx), 3) == V.mul(B, 3)
    # a report short of step k - 1, or one that flags a step, is refused
    with pytest.raises(ValueError, match="no Sylvester table"):
        choose_associated(A, ctx, good_spectrum(A.coefficient_array(0), ctx, 2))
    A_sing = sm(p, [[[0, 1, 4]]], 3)
    with pytest.raises(SpectrumError):
        choose_associated(A_sing, ctx, good_spectrum(A_sing.coefficient_array(0), ctx, 3))
    # k=3, q = 1: the splitting construction, B diagonal of degree < k
    ctx = QContext(P101, 1, 3)
    B, V = choose_associated(A, ctx, assert_good(A, ctx))
    assert B == A.truncate(3) and V == SeriesMatrix.identity(p, 1, 3)


def test_diff_sylvester_scalar_example():
    # scalar, q=1, k=1, constant B: step is gamma_i U_i = Gamma_i
    p = 101
    ctx = QContext(P101, 1, 1)
    B = sm(p, [[[7]]], 1)
    Gamma = sm(p, [[[0, 0, 1]]], 5)
    rep = good_spectrum(B.coefficient_array(0), ctx, 5)
    U = diff_sylvester(Gamma, B, 2, 5, ctx, rep)
    assert U.entry(0, 0) == sm(p, [[[0, 0, pow(2, p - 2, p)]]], 5)
    # Gamma = 0 -> U = 0
    assert diff_sylvester(SeriesMatrix.zeros(p, 1, 1, 5), B, 2, 5, ctx, rep).is_zero()


def test_diff_sylvester_residual_random():
    rng = random.Random(31)
    p = 134217757
    field = PrimeField(p)
    solved = 0
    instrument.set_runtime_checks(True)
    try:
        for trial in range(30):
            n = rng.randrange(1, 6)
            k = rng.choice([1, 2, 3])
            q = rng.randrange(2, p)
            ctx = QContext(field, q, k)
            N = rng.randrange(k + 2, 14)
            m = rng.randrange(k, N)
            gen = np.random.default_rng(trial)
            B = SeriesMatrix(p, gen.integers(0, p, (n, n, 1)), k)
            Gd = np.zeros((n, n, N), dtype=np.int64)
            Gd[:, :, m:] = gen.integers(0, p, (n, n, N - m))
            Gamma = SeriesMatrix(p, Gd, N)
            try:
                rep = good_spectrum(B.coefficient_array(0), ctx, N)
                U = diff_sylvester(Gamma, B, m, N, ctx, rep)
            except SpectrumError:
                continue
            # B + x Id has two planes, which only q = 1, k > 1 may have
            Bx = SeriesMatrix(p, np.dstack([B.coefficient_array(0), np.eye(n, dtype=np.int64)]), 2)
            with pytest.raises(ValueError, match="constant B"):
                diff_sylvester(Gamma, Bx, m, N, ctx, rep)
            solved += n > 1
            # residual of x^k delta(U) = B sigma(U) - U B + Gamma
            Bp = B.as_poly_prec(N)
            res = (
                U.delta(ctx).shift(k).truncate(N)
                - Bp.mul(U.sigma(ctx), N)
                + U.mul(Bp, N)
                - Gamma
            )
            assert res.is_zero()
            assert not np.any(U.data[:, :, : m - k + 1])  # U = 0 mod x^(m-k+1)
    finally:
        instrument.set_runtime_checks(False)
    assert solved >= 15  # most trials reach the matrix Sylvester path


@pytest.mark.parametrize(
    "k, q_mode", [(1, "one"), (1, "random"), (2, "random"), (3, "random"), (2, "one")]
)
def test_char_poly_once_per_newton_solve(k, q_mode, monkeypatch):
    # the spectrum test's chi_A0 is chi_B0 too, however long the ladder, and
    # in the differential case (k = 2, q = 1) diagonalize needs no chi: it
    # works on powers of A0
    calls = []

    def counted(U, p):
        calls.append(U.shape[0])
        return char_poly(U, p)

    # newton takes chi from the spectrum report and binds no char_poly
    assert not hasattr(newton, "char_poly")
    for mod in (linalg, spectrum):
        monkeypatch.setattr(mod, "char_poly", counted)
    p = 134217757
    inst = random_instance(30000 + k, p, 3, 40, k, q_mode, require_good_spectrum=True)
    assert len(newton._newton_ladder(inst.N, k)) > 3
    calls.clear()  # drawing a good-spectrum instance ran the spectrum test
    got = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert calls == [3]
    assert spaces_equal(got, solve_operator_matrix(inst))


def test_sylvester_steps_batched_per_level(monkeypatch):
    # k = 1: the spectrum test and the auxiliary solves run no per-step
    # elimination, and each ladder level is one stacked Sylvester solve
    inside, rref_inside, sylvester_calls, levels = [], [], [], []

    def within(name, fn):
        def wrapped(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    rref = linalg._rref
    for mod in (linalg, newton, oracle, spectrum):
        if hasattr(mod, "_rref"):
            monkeypatch.setattr(mod, "_rref", lambda *a: rref_inside.append(list(inside)) or rref(*a))
    monkeypatch.setattr(newton, "good_spectrum", within("good_spectrum", newton.good_spectrum))
    real_diff = newton.diff_sylvester
    monkeypatch.setattr(
        newton, "diff_sylvester", lambda *a: levels.append(a[2]) or within("diff_sylvester", real_diff)(*a)
    )
    real_syl = newton.sylvester_solve
    monkeypatch.setattr(
        newton, "sylvester_solve", lambda *a, **kw: sylvester_calls.append(1) or real_syl(*a, **kw)
    )
    inst = random_instance(4242, 134217757, 4, 512, 1, "random", require_good_spectrum=True)
    got = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert got is not None and residual(got.particular, inst).is_zero()
    assert rref_inside  # the lift's W_0 inverse and the final resolve eliminate
    assert not [names for names in rref_inside if names]
    assert len(levels) == len(newton._newton_ladder(512, 1)) - 1
    assert len(sylvester_calls) == len(levels)


def test_k3_sylvester_steps_one_call_each(monkeypatch):
    # k > 1, q != 1: B = B0 is constant, so each step of an auxiliary solve
    # reads only the step k - 1 before it, and each run of k - 1 steps is
    # one linalg.sylvester_solve call with Y the stack of q^i B0; V's steps
    # i < k are one call each.  _rref still runs (the perfbench tracer
    # self-check reads both on its k = 3 workload); runtime checks verify
    # each step's residual
    windows, calls, rrefs = [], [], []
    real_diff, real_syl, rref = newton.diff_sylvester, newton.sylvester_solve, linalg._rref
    monkeypatch.setattr(newton, "diff_sylvester", lambda *a: windows.append(a[2:4]) or real_diff(*a))
    monkeypatch.setattr(newton, "sylvester_solve", lambda *a: calls.append(a[0].copy()) or real_syl(*a))
    monkeypatch.setattr(linalg, "_rref", lambda *a: rrefs.append(1) or rref(*a))
    inst = random_instance(4343, 134217757, 3, 48, 3, "random", require_good_spectrum=True)
    p, q, k = inst.p, inst.ctx.q, inst.k
    assert q != 1
    instrument.set_runtime_checks(True)
    try:
        got = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    finally:
        instrument.set_runtime_checks(False)
    assert len(windows) > 1
    A0 = inst.A.coefficient_array(0)

    def qB0(steps):
        return np.stack([pow(q, i, p) * A0 % p for i in steps])

    want = [qB0([i])[0] for i in range(1, k)]
    want += [qB0(range(lo, min(lo + k - 1, N))) for m, N in windows for lo in range(m, N, k - 1)]
    assert len(calls) == len(want)
    assert all(np.array_equal(Y, W) for Y, W in zip(calls, want))
    assert rrefs
    assert spaces_equal(got, solve_operator_matrix(inst))


def test_k1_newton_rref_calls_track_singular_steps(monkeypatch):
    # PolCoeffsDE's k = 1 steps are one batched inversion: only a singular
    # step is eliminated on its own, besides the lift's W_0 inverse and the
    # final resolve of the constraints
    p, n, N, s = 134217757, 4, 64, 21
    rng = np.random.default_rng(7)
    for _ in range(20):
        ctx = QContext(PrimeField(p), int(rng.integers(2, p)), 1)
        T = np.triu(rng.integers(0, p, (n, n)))
        T[0, 0] = ctx.gamma(s) * pow(ctx.qpow(s), p - 2, p) % p  # q^s T_00 = gamma_s
        perm = rng.permutation(n)
        A = rng.integers(0, p, (n, n, N))
        A[:, :, 0] = T[np.ix_(perm, perm)]
        rep = good_spectrum(A[:, :, 0], ctx, N)
        if rep.good and rep.singular_indices == [s]:
            break
    else:
        pytest.fail("no good-spectrum draw with one singular step")
    inst = ProblemInstance(ctx.field, ctx, n, N, SeriesMatrix(p, A, N), SeriesMatrix.zeros(p, n, 1, N))
    inst.C = residual(SeriesMatrix(p, rng.integers(0, p, (n, 1, N)), N), inst, homogeneous=True)
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *a: calls.append(1) or rref(*a))
    got = newton_solve(inst.A, inst.C, N, ctx)
    monkeypatch.setattr(linalg, "_rref", rref)
    assert 1 <= len(calls) <= len(rep.singular_indices) + 2
    assert got is not None and got.dim >= 1
    assert spaces_equal(got, solve_operator_matrix(inst))


def test_diff_sylvester_differential_examples():
    p = 101
    ctx = QContext(P101, 1, 2)
    B = SeriesMatrix(p, np.array([[[3]]], dtype=np.int64), 2)
    # Gamma = x^3 scalar with k=2: U = integral of x^(1) = x^2 / 2
    Gamma = sm(p, [[[0, 0, 0, 1]]], 6)
    U = diff_sylvester_differential(Gamma, B, 3, 6, ctx)
    assert U.entry(0, 0) == sm(p, [[[0, 0, pow(2, p - 2, p)]]], 6)
    # residual check: x^2 delta(U) = Gamma for the diagonal entry
    res = U.delta(ctx).shift(2).truncate(6) - Gamma
    assert res.is_zero()
    assert diff_sylvester_differential(SeriesMatrix.zeros(p, 1, 1, 6), B, 3, 6, ctx).is_zero()


def _diagonal_B(gen, p, n, k, b0):
    Bd = np.zeros((n, n, k), dtype=np.int64)
    for l in range(n):
        Bd[l, l] = gen.integers(0, p, k)
        Bd[l, l, 0] = b0[l]
    return SeriesMatrix(p, Bd, k)


def _random_gamma(gen, p, n, m, N):
    Gd = np.zeros((n, n, N), dtype=np.int64)
    Gd[:, :, m:] = gen.integers(0, p, (n, n, N - m))
    return SeriesMatrix(p, Gd, N)


def test_diff_sylvester_differential_matrix_random():
    p = 134217757
    gen = np.random.default_rng(9)
    instrument.set_runtime_checks(True)
    try:
        for k, n in ((2, 2), (3, 6)):
            ctx = QContext(PrimeField(p), 1, k)
            B = _diagonal_B(gen, p, n, k, gen.choice(p - 1, n, replace=False) + 1)
            N, m = 12, k + 1
            Gamma = _random_gamma(gen, p, n, m, N)
            U = diff_sylvester_differential(Gamma, B, m, N, ctx)
            Bp = B.as_poly_prec(N)
            res = U.delta(ctx).shift(k).truncate(N) - Bp.mul(U.sigma(ctx), N) + U.mul(Bp, N) - Gamma
            assert res.is_zero()
            assert not np.any(U.data[:, :, : m - k + 1])
    finally:
        instrument.set_runtime_checks(False)


@pytest.mark.parametrize("zero_gamma", [True, False])
def test_diff_sylvester_differential_repeated_diagonal_raises(zero_gamma):
    # equal constant entries b_i0 = b_j0 leave entry (i, j) without a unique
    # solution, whatever Gamma is
    p = 65521
    gen = np.random.default_rng(17)
    for k, n in ((2, 2), (3, 4)):
        ctx = QContext(PrimeField(p), 1, k)
        b0 = gen.choice(p - 1, n, replace=False) + 1
        b0[-1] = b0[0]
        B = _diagonal_B(gen, p, n, k, b0)
        N, m = 10, k
        Gamma = SeriesMatrix.zeros(p, n, n, N) if zero_gamma else _random_gamma(gen, p, n, m, N)
        with pytest.raises(SpectrumError):
            diff_sylvester_differential(Gamma, B, m, N, ctx)


def test_diff_sylvester_differential_matches_full_window():
    # each off-diagonal entry is solved on [m, N) only; it must equal the
    # unique solution of the scalar equation over the whole window [0, N).
    # At p = 2^31 - 1 a sum of three unreduced products overflows int64 in
    # about 0.2% of the steps; the n = 6, N = 128 case has thousands of them.
    gen = np.random.default_rng(31)
    checked = 0
    for p, k in itertools.product((134217757, 2**31 - 1), (2, 3, 4)):
        ctx = QContext(PrimeField(p), 1, k)
        for n, N, m in ((2, 9, k), (3, 14, k + 2), (2, 20, 11), (3, 17, 16), (6, 15, k + 1), (6, 128, k)):
            B = _diagonal_B(gen, p, n, k, gen.choice(p - 1, n, replace=False) + 1)
            Gamma = _random_gamma(gen, p, n, m, N)
            U = diff_sylvester_differential(Gamma, B, m, N, ctx)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    full = pol_coeffs_de(B.entry(i, i) - B.entry(j, j), Gamma.entry(i, j), N, ctx)
                    assert full is not None and full.dim == 0
                    assert U.entry(i, j) == full.particular, (k, n, N, m, i, j)
                    checked += 1
    assert checked == 6 * (2 + 6 + 2 + 6 + 30 + 30)


def test_newton_ae_examples():
    p = 101
    ctx = QContext(P101, 1, 1)
    # N <= k returns the seed unchanged
    V = SeriesMatrix.identity(p, 1, 1)
    B = sm(p, [[[7]]], 1)
    A = sm(p, [[[7]]], 1)
    assert newton_ae(A, B, V, 1, ctx) == V

    # scalar, k=1, q=1, A = 1/(1-x): W = 1/(1-x)
    N = 8
    A = sm(p, [[[1, -1]]], N).inv_newton(N)
    B = A.truncate(1)  # B = A0 = 1
    W = newton_ae(A, B, SeriesMatrix.identity(p, 1, 1), N, ctx)
    assert W == A
    assert associated_residual(A, B, W, N, ctx).is_zero()

    # A = B = constant c: residual identically zero, W stays 1
    A = sm(p, [[[9]]], 6)
    W = newton_ae(A, A.truncate(1), SeriesMatrix.identity(p, 1, 1), 6, ctx)
    assert W.as_poly_prec(6) == SeriesMatrix.identity(p, 1, 6)


def test_newton_ae_postconditions_random():
    rng = random.Random(32)
    p = 134217757
    for trial in range(25):
        n = rng.randrange(1, 4)
        N = rng.randrange(2, 18)
        k = rng.choice([1, 1, 2, 3])
        q_mode = rng.choice(["one", "random"])
        inst = random_instance(8000 + trial, p, n, N, k, q_mode, require_good_spectrum=True)
        ctx = inst.ctx
        At = inst.A.truncate(N).as_poly_prec(max(N, k))
        B, V = choose_associated(At, ctx, good_spectrum(At.coefficient_array(0), ctx, At.prec))
        W = newton_ae(At, B, V, N, ctx)
        # residual of the associated equation and det W0 != 0, all branches
        assert associated_residual(inst.A, B, W, min(N, W.prec), ctx).is_zero()
        if k == 1 or ctx.q != 1:
            # here every correction vanishes mod x^m with m >= k
            kk = min(k, W.prec, V.prec)
            assert W.truncate(kk) == V.truncate(kk)
        else:
            # the differential corrections reach down to degree 1; the
            # constant term is the surviving congruence with the seed
            assert np.array_equal(W.coefficient_array(0), V.coefficient_array(0))
        mat_inv(W.coefficient_array(0), p)


def test_newton_solve_exponential():
    p = 101
    ctx = QContext(P101, 1, 1)
    A = sm(p, [[[0, 1]]], 4)
    C = SeriesMatrix.zeros(p, 1, 1, 4)
    sol = newton_solve(A, C, 4, ctx)
    assert sol is not None and sol.dim == 1
    weights = [int(w) for w in sol.basis.data[0, 0, :4]]
    lead = weights[0]
    inv_lead = pow(lead, p - 2, p)
    assert [w * inv_lead % p for w in weights] == [1, 1, 51, 17]


def test_newton_solve_inconsistent():
    p = 101
    ctx = QContext(P101, 1, 1)
    sol = newton_solve(SeriesMatrix.zeros(p, 1, 1, 4), sm(p, [[[1]]], 4), 4, ctx)
    assert sol is None


def test_newton_solve_bad_spectrum_raises():
    p = 101
    ctx = QContext(P101, 1, 1)
    # A0 = diag(0, 5): eigenvalues differ by the integer 5 < N
    data = np.zeros((2, 2, 1), dtype=np.int64)
    data[:, :, 0] = [[0, 0], [0, 5]]
    A = SeriesMatrix(p, data, 12)
    C = SeriesMatrix.zeros(p, 2, 1, 12)
    with pytest.raises(SpectrumError):
        newton_solve(A, C, 12, ctx)
    # the auxiliary solve refuses a window over a step the report flags
    rep = good_spectrum(A.coefficient_array(0), ctx, 12)
    Gamma = SeriesMatrix(p, np.ones((2, 2, 10), dtype=np.int64), 10).shift(2)  # 0 mod x^2
    assert diff_sylvester(Gamma, A.truncate(1), 2, 5, ctx, rep).prec == 5
    with pytest.raises(SpectrumError, match="index 5 is singular"):
        diff_sylvester(Gamma, A.truncate(1), 2, 6, ctx, rep)


def test_gauge_equivalence_both_directions():
    # G solves the main equation iff W^(-1) G solves the gauged one
    rng = random.Random(33)
    p = 134217757
    for trial in range(10):
        n = rng.randrange(1, 3)
        N = rng.randrange(3, 12)
        k = rng.choice([1, 2])
        inst = random_instance(9000 + trial, p, n, N, k, "random", require_good_spectrum=True)
        ctx = inst.ctx
        At = inst.A.truncate(N).as_poly_prec(max(N, k))
        B, V = choose_associated(At, ctx, good_spectrum(At.coefficient_array(0), ctx, At.prec))
        W = newton_ae(At, B, V, N, ctx).as_poly_prec(N)
        Winv = W.inv_newton(N)
        sol = solve_operator_matrix(inst)
        if sol is None:
            continue
        G = sol.particular
        Y = Winv.mul(G, N)
        # gauged residual: x^k delta(Y) - B sigma(Y) - W^(-1) C
        gauged = (
            Y.delta(ctx).shift(k).truncate(N)
            - B.as_poly_prec(N).mul(Y.sigma(ctx), N)
            - Winv.mul(inst.C, N)
        )
        assert gauged.is_zero()
        # reverse: a solution of the gauged equation maps back
        back = residual(W.mul(Y, N), inst)
        assert back.is_zero()


def test_zero_constant_matrix_family():
    # A0 = 0 has a good spectrum and a fully singular index 0: the whole
    # initial vector is free when the equation is consistent
    p = 101
    ctx = QContext(P101, 1, 1)
    gen = np.random.default_rng(77)
    n, N = 2, 10
    Adata = gen.integers(0, p, size=(n, n, N), dtype=np.int64)
    Adata[:, :, 0] = 0
    A = SeriesMatrix(p, Adata, N)
    from qdsolve.dac import dac_solve
    from qdsolve.field import PrimeField

    # homogeneous: dimension n, all engines agree
    C0 = SeriesMatrix.zeros(p, n, 1, N)
    inst = ProblemInstance(PrimeField(p), ctx, n, N, A, C0)
    sols = [
        solve_operator_matrix(inst),
        dac_solve(A, C0, N, ctx),
        newton_solve(A, C0, N, ctx),
    ]
    assert sols[0].dim == n
    assert spaces_equal(sols[0], sols[1]) and spaces_equal(sols[0], sols[2])

    # constant term in C makes coefficient 0 read 0 = C_0: inconsistent
    Cbad = SeriesMatrix(p, np.array([[[1]], [[0]]], dtype=np.int64), N)
    assert solve_operator_matrix(ProblemInstance(PrimeField(p), ctx, n, N, A, Cbad)) is None
    assert dac_solve(A, Cbad, N, ctx) is None
    assert newton_solve(A, Cbad, N, ctx) is None


def test_newton_agrees_with_dense_random():
    rng = random.Random(34)
    p = 134217757
    count = 0
    for trial in range(60):
        n = rng.randrange(1, 4)
        N = rng.randrange(1, 16)
        k = rng.choice([1, 1, 2, 3])
        q_mode = rng.choice(["one", "random"])
        inst = random_instance(10000 + trial, p, n, N, k, q_mode, require_good_spectrum=True)
        s_newton = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
        s_dense = solve_operator_matrix(inst)
        assert spaces_equal(s_newton, s_dense), (trial, n, N, k, q_mode)
        count += 1
    assert count == 60


@pytest.mark.parametrize("q_mode", ["random", "one"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_engines_agree_at_p_2_31_minus_1(k, q_mode):
    # (p - 1)^2 is just below 2^62: every product of the spectrum test, the
    # splitting construction and the Sylvester steps must be split or chunked
    from qdsolve.dac import dac_solve
    from qdsolve.oracle import dense_solve

    p = 2**31 - 1
    instrument.set_runtime_checks(True)
    try:
        for n in (1, 2, 3, 4):
            for seed in (0, 1):
                N = 5 + 2 * n + seed
                inst = random_instance(
                    20000 + 10 * n + seed, p, n, N, k, q_mode, require_good_spectrum=True
                )
                want = solve_operator_matrix(inst)
                assert want is not None
                for engine, got in (
                    ("dense", dense_solve(inst)),
                    ("dac", dac_solve(inst.A, inst.C, inst.N, inst.ctx)),
                    ("newton", newton_solve(inst.A, inst.C, inst.N, inst.ctx)),
                ):
                    assert spaces_equal(got, want), (engine, n, seed)
                    assert residual(got.particular, inst).is_zero(), (engine, n, seed)
                    for j in range(got.dim):
                        assert residual(got.basis.col(j), inst, homogeneous=True).is_zero()
    finally:
        instrument.set_runtime_checks(False)


def _solve_checked(inst):
    """Newton with runtime checks on, against dense and the operator matrix."""
    from qdsolve.oracle import dense_solve

    instrument.set_runtime_checks(True)
    try:
        got = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
        want = solve_operator_matrix(inst)
        assert spaces_equal(got, want)
        assert spaces_equal(dense_solve(inst), want)
    finally:
        instrument.set_runtime_checks(False)
    return got


@pytest.mark.parametrize(
    "k, q_mode, N, constant_A",
    [
        (3, "random", 2, False),  # N < k: no ladder
        (3, "random", 3, False),  # N = k
        (2, "one", 2, False),
        (1, "random", 1, False),  # h = N: the error window is empty
        (1, "random", 2, False),
        (2, "one", 1, False),
        (1, "random", 17, True),  # every ladder residual is zero
        (2, "random", 16, True),
        (2, "one", 15, True),
    ],
)
def test_column_lift_paths(k, q_mode, N, constant_A, monkeypatch):
    # Gamma = W^(-1) C is lifted from what the ladder leaves: no inverse
    # when N <= k or when A is constant (W = V solves the associated
    # equation exactly), and a partial one otherwise
    left = []
    real = newton._newton_ae_impl
    monkeypatch.setattr(newton, "_newton_ae_impl", lambda *a: left.append(real(*a)) or left[-1])
    p = 134217757
    for seed in range(3):
        inst = random_instance(41000 + 10 * k + seed, p, 3, N, k, q_mode, require_good_spectrum=True)
        if constant_A:
            inst.A = inst.A.truncate(1).as_poly_prec(N)
        got = _solve_checked(inst)
        assert got is not None
        _, Winv, inv_valid = left[-1]
        if N <= k or constant_A:
            assert Winv is None and inv_valid == 0
        else:
            assert Winv is not None and inv_valid > 0


def test_column_lift_singular_index_system():
    # system_singular's shape: n = 4, k = 1, q != 1, one singular index, so
    # PolCoeffsDE introduces a parameter after the lift
    gen = np.random.default_rng(4343)
    for N, s in ((41, 5), (48, 30)):
        inst = rigged_singular_system(134217757, 3, 4, N, s, gen)
        got = _solve_checked(inst)
        assert got is not None and got.dim == 1


@pytest.mark.parametrize(
    "k, q_mode, N",
    [(1, "random", 31), (1, "one", 64), (2, "one", 33), (3, "random", 40), (2, "random", 7)],
)
def test_newton_solve_never_inverts_past_half(k, q_mode, N, monkeypatch):
    # only the column Gamma reaches x^N; W^(-1) is never refreshed past
    # ceil(N / 2) coefficients
    asked = []
    real = SeriesMatrix.inv_newton

    def spy(self, n, *args, **kwargs):
        asked.append(n)
        return real(self, n, *args, **kwargs)

    monkeypatch.setattr(SeriesMatrix, "inv_newton", spy)
    inst = random_instance(42000 + N, 134217757, 3, N, k, q_mode, require_good_spectrum=True)
    got = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert spaces_equal(got, solve_operator_matrix(inst))
    assert asked and max(asked) <= (N + 1) // 2, asked


def test_column_lift_residual_checked(monkeypatch):
    # a corrupted error window E makes W Gamma != C; the runtime check says
    # so, and without it the answer is silently wrong
    real = SeriesMatrix.mul

    def corrupt(self, other, n=None, lo=0):
        out = real(self, other, n, lo)
        if lo > 0 and other.cols == 1 and out.prec > 0:
            bump = np.zeros((out.rows, 1, 1), dtype=np.int64)
            bump[0, 0, 0] = 1
            out = out + SeriesMatrix(out.p, bump, out.prec)
        return out

    inst = random_instance(43000, 134217757, 3, 20, 1, "random", require_good_spectrum=True)
    want = solve_operator_matrix(inst)
    monkeypatch.setattr(SeriesMatrix, "mul", corrupt)
    instrument.set_runtime_checks(True)
    try:
        with pytest.raises(InternalInvariantError, match="column lift"):
            newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    finally:
        instrument.set_runtime_checks(False)
    assert not spaces_equal(newton_solve(inst.A, inst.C, inst.N, inst.ctx), want)


def _bumped(U: SeriesMatrix, j: int, entry=(0, 0)) -> SeriesMatrix:
    """U with 1 added to one entry of coefficient j."""
    data = np.zeros((U.rows, U.cols, U.prec), dtype=np.int64)
    data[:, :, : U.data.shape[2]] = U.data
    data[entry + (j,)] += 1
    return SeriesMatrix(U.p, data, U.prec)


@pytest.mark.parametrize(
    "k, q_mode, solver",
    [(1, "random", "diff_sylvester"), (1, "one", "diff_sylvester"),
     (2, "random", "diff_sylvester"), (2, "one", "diff_sylvester_differential")],
)
def test_ladder_checks_top_coefficient_always(k, q_mode, solver, monkeypatch):
    # the top coefficient of one level's update is wrong; the next level's
    # residual is formed from coefficient mprev - 1 on, and that coefficient
    # shows the error with runtime checks off.  For q = 1, k > 1 B is
    # diagonal and the error is put off the diagonal: a diagonal entry is an
    # integral, wrong at mprev - 1 only in a coefficient the next update
    # (it starts k - 1 coefficients lower) computes again
    inst = random_instance(5100 + k, 134217757, 3, 64, k, q_mode, require_good_spectrum=True)
    want = oracle.dense_solve(inst)
    real = getattr(newton, solver)
    targets = []

    def corrupt(entry):
        def spy(*args):
            U = real(*args)
            targets.append(args[3])
            return _bumped(U, U.prec - 1, entry) if len(targets) == 1 else U

        return spy

    assert not instrument.checks_enabled()
    monkeypatch.setattr(newton, solver, corrupt((0, 1)))
    with pytest.raises(InternalInvariantError, match="residual nonzero at x"):
        newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert len(targets) == 1 and targets[0] < inst.N
    targets.clear()
    monkeypatch.setattr(newton, solver, corrupt((0, 0)))
    if solver == "diff_sylvester_differential":
        assert spaces_equal(newton_solve(inst.A, inst.C, inst.N, inst.ctx), want)
        assert len(targets) == len(newton._newton_ladder(inst.N, k)) - 1
    else:
        with pytest.raises(InternalInvariantError, match="residual nonzero at x"):
            newton_solve(inst.A, inst.C, inst.N, inst.ctx)


def test_ladder_checks_low_part_with_runtime_checks(monkeypatch):
    # W is made wrong at coefficient 16 alone after the level that reaches
    # 32: U gains W^(-1) e x^16.  A has degree 1, so the next residual is
    # wrong at 16 and 17 only, below the always-checked coefficient 31; the
    # runtime checks form the whole low part and catch it, and without them
    # the answer is silently wrong
    N, c = 64, 16
    inst = random_instance(5200, 134217757, 3, N, 1, "random", require_good_spectrum=True)
    A, ctx, p = inst.A.truncate(2).as_poly_prec(N), inst.ctx, inst.p
    assert newton._newton_ladder(N, 1)[-3:] == [c, 2 * c, N]
    want = oracle.dense_solve(ProblemInstance(inst.field, ctx, 3, N, A, inst.C))
    B, V = choose_associated(A, ctx, good_spectrum(A.coefficient_array(0), ctx, N))
    Winv = newton_ae(A, B, V, N, ctx).inv_newton(N)
    eps = np.arange(1, 10, dtype=np.int64).reshape(3, 3)
    real = newton.diff_sylvester

    def corrupt(Gamma, B, m, target, ctx_, rep):
        U = real(Gamma, B, m, target, ctx_, rep)
        if target != 2 * c:
            return U
        return U + Winv.truncate(target - c).mul(SeriesMatrix(p, eps[:, :, None], target - c)).shift(c)

    monkeypatch.setattr(newton, "diff_sylvester", corrupt)
    instrument.set_runtime_checks(True)
    try:
        with pytest.raises(InternalInvariantError, match=f"not divisible by x\\^{2 * c}"):
            newton_solve(A, inst.C, N, ctx)
    finally:
        instrument.set_runtime_checks(False)
    got = newton_solve(A, inst.C, N, ctx)
    assert want is not None and not spaces_equal(got, want)


def test_dac_carry_window_passes_open_row_checks(monkeypatch):
    # DAC forms its carry on [m, N) only; with runtime checks on, every
    # node still forms its whole residual and finds the open rows zero,
    # across a singular step in the second half and at p = 2^31 - 1
    from qdsolve import dac

    calls = []
    real = dac._assert_open_rows_vanish
    monkeypatch.setattr(dac, "_assert_open_rows_vanish", lambda *a: calls.append(a[4]) or real(*a))
    instrument.set_runtime_checks(True)
    try:
        for p, s in ((134217757, 100), (2**31 - 1, 70)):
            gen = np.random.default_rng(p + s)
            n, N = 2, 150
            Ad = gen.integers(0, p, (n, n, N))
            Ad[:, :, 0] = [[s, 0], [0, p - 1]]  # q = 1, k = 1: step s is singular
            inst = ProblemInstance(PrimeField(p), QContext(PrimeField(p), 1, 1), n, N,
                                   SeriesMatrix(p, Ad, N), SeriesMatrix.zeros(p, n, 1, N))
            inst.C = residual(SeriesMatrix(p, gen.integers(0, p, (n, 1, N)), N), inst, homogeneous=True)
            got = dac.dac_solve(inst.A, inst.C, N, inst.ctx)
            want = solve_operator_matrix(inst)
            assert want is not None and want.dim == 1 and spaces_equal(got, want)
    finally:
        instrument.set_runtime_checks(False)
    assert N in calls and len(calls) > 3


def test_newton_refuses_operands_over_another_field():
    # A and C at p = 103 in a context at p = 101: a typed refusal, before
    # any spectrum test, where a bare ValueError escaped from a product
    _, A, C = random_coefficients(1, 103, 2, 8, 1, "random")
    ctx = QContext(PrimeField(101), 5, 1)
    for a in (A, SeriesMatrix.zeros(101, 2, 2, 8)):
        with pytest.raises(PreconditionError, match="operands over p") as err:
            newton_solve(a, C, 8, ctx)
        assert type(err.value) is PreconditionError
