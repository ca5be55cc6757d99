import sys

import numpy as np
import pytest

from qdsolve import convolution, oracle
from qdsolve.dac import dac_solve
from qdsolve.errors import PreconditionError
from qdsolve.field import PrimeField
from qdsolve.newton import newton_solve
from qdsolve.oracle import (
    ProblemInstance,
    dense_solve,
    make_instance,
    random_coefficients,
    random_instance,
    reduce_k0,
    residual,
)
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext
from qdsolve.solution import SolutionSpace, spaces_equal

from operator_matrix import solve_operator_matrix


def scalar_instance(p, q, k, N, a_coeffs, c_coeffs):
    A = SeriesMatrix(p, np.array([[a_coeffs]], dtype=np.int64), N)
    C = SeriesMatrix(p, np.array([[c_coeffs]], dtype=np.int64), N)
    return make_instance(p, q, k, 1, N, A, C)


def dense_pair(inst):
    """The operator-matrix reference, checked against the step kernel."""
    want = solve_operator_matrix(inst)
    assert spaces_equal(want, dense_solve(inst))
    return want


def pad(coeffs, N):
    return list(coeffs) + [0] * (N - len(coeffs))


def ser(p, coeffs, N):
    return SeriesMatrix(p, [[coeffs]], N)


def test_reduce_k0_examples():
    A = SeriesMatrix(101, np.array([[[1]]], dtype=np.int64), 3)
    C = SeriesMatrix.zeros(101, 1, 1, 3)
    A2, C2, N2, k2 = reduce_k0(A, C, 3)
    assert N2 == 4 and k2 == 1
    assert A2.entry(0, 0) == ser(101, [0, 1], 4)
    assert C2.is_zero()


def test_reduce_k0_round_trip_exponential():
    # f' = f mod x^7 iff x f' = x f mod x^8; check by substituting both ways
    p, N = 101, 7
    inst = scalar_instance(p, 1, 0, N, pad([1], N), pad([], N))
    assert inst.k == 1 and inst.N == N + 1
    sol = dense_pair(inst)
    assert sol is not None and sol.dim == 1
    col = [int(sol.basis.coefficient_array(i)[0, 0]) for i in range(N + 1)]
    inv_fact = 1
    for i in range(N + 1):
        assert col[i] % p == inv_fact * col[0] % p
        inv_fact = inv_fact * pow(i + 1, p - 2, p) % p


def test_residual_examples():
    p, N = 101, 4
    inst = scalar_instance(p, 2, 1, N, pad([1], N), pad([], N))
    F = SeriesMatrix(p, np.array([[[0, 1]]], dtype=np.int64), N)
    # x delta(F) = gamma_1 x; A sigma(F) = 2x; residual = x - 2x = -x
    r = residual(F, inst)
    assert r.entry(0, 0) == ser(p, [0, -1], N)
    zero = residual(SeriesMatrix.zeros(p, 1, 1, N), inst)
    assert zero.entry(0, 0) == ser(p, [0], N) - inst.C.entry(0, 0)


def test_dense_examples():
    p = 101
    # A = 1, C = 0, k = 1, q = 1: space {lambda * x}
    inst = scalar_instance(p, 1, 1, 4, pad([1], 4), pad([], 4))
    sol = dense_pair(inst)
    assert sol.particular.is_zero()
    assert sol.dim == 1
    assert sol.basis.entry(0, 0) == ser(p, [0, 1], 4)

    # A = 0, C = x, k = 1, q = 1: particular x, basis [1]
    inst = scalar_instance(p, 1, 1, 3, pad([], 3), pad([0, 1], 3))
    sol = dense_pair(inst)
    assert sol.particular.entry(0, 0) == ser(p, [0, 1], 3)
    assert sol.dim == 1 and sol.basis.entry(0, 0) == ser(p, [1], 3)

    # A = 1, C = 0, k = 1, q = 2: only the zero solution
    inst = scalar_instance(p, 2, 1, 4, pad([1], 4), pad([], 4))
    sol = dense_pair(inst)
    assert sol.particular.is_zero() and sol.dim == 0

    # A = 0, C = 1, k = 1: inconsistent
    inst = scalar_instance(p, 1, 1, 4, pad([], 4), pad([1], 4))
    assert dense_pair(inst) is None


def test_dense_routes_agree():
    import random as _r

    rng = _r.Random(20)
    for trial in range(120):
        p = _r.Random(trial).choice([101, 134217757])
        n = rng.randrange(1, 4)
        N = rng.randrange(1, 15)
        k = rng.choice([1, 1, 2, 3])
        q_mode = rng.choice(["one", "random"])
        if p <= N:
            continue
        inst = random_instance(1000 + trial, p, n, N, k, q_mode)
        s_mat = solve_operator_matrix(inst)
        s_step = dense_solve(inst)
        assert spaces_equal(s_mat, s_step), (trial, p, n, N, k)
        if s_mat is not None:
            assert residual(s_mat.particular, inst).is_zero()
            for j in range(s_mat.dim):
                assert residual(s_mat.basis.col(j), inst, homogeneous=True).is_zero()


def test_dense_routes_agree_at_p_2_31_minus_1():
    # (p - 1)^2 is just below 2^62 here, so a sum of three int64 products
    # overflows unless the window accumulation is chunked or limb-split
    p = 2147483647
    for seed in range(6):
        for k in (1, 2, 3):
            inst = random_instance(seed, p, 3, 9, k, "random")
            s_mat = solve_operator_matrix(inst)
            s_step = dense_solve(inst)
            assert spaces_equal(s_mat, s_step), (seed, k)
            if s_mat is not None:
                assert residual(s_mat.particular, inst).is_zero()


def test_step_loop_splits_coefficients_once_per_call():
    # n = 1, N = 1024, p = 134217757: windows of 255 terms and more do not
    # fit one int64 sum, and the kernel splits the coefficient block into
    # limbs once, not the history once per step, so no step reaches
    # _matmul_mod for its window
    inst = random_instance(35, 134217757, 1, 1024, 1, "random")
    calls = {"split": 0, "steps": 0, "step_matmul": 0}
    step = convolution._step_mod.__code__

    def count(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is convolution._limb_stack.__code__:
            calls["split"] += 1
        elif code is step:
            calls["steps"] += 1
        elif code is convolution._matmul_mod.__code__ and frame.f_back.f_code is step:
            calls["step_matmul"] += 1

    sys.setprofile(count)
    try:
        space = dense_solve(inst)
    finally:
        sys.setprofile(None)
    assert space is not None and residual(space.particular, inst).is_zero()
    assert calls == {"split": 1, "steps": 1024, "step_matmul": 0}


def test_dense_residuals_always_zero():
    for trial in range(40):
        inst = random_instance(2000 + trial, 134217757, 2, 10, 1, "random")
        sol = dense_pair(inst)
        if sol is None:
            continue
        assert residual(sol.particular, inst).is_zero()
        for j in range(sol.dim):
            assert residual(sol.basis.col(j), inst, homogeneous=True).is_zero()


def test_spaces_equal_examples():
    p, N = 101, 4
    inst = scalar_instance(p, 1, 1, N, pad([1], N), pad([], N))
    sol = solve_operator_matrix(inst)
    # same affine set under basis rescaling and particular shifts
    shifted = SolutionSpace(sol.particular + sol.basis, sol.basis)
    scaled = SolutionSpace(sol.particular, sol.basis.scale(2))
    assert spaces_equal(sol, shifted)
    assert spaces_equal(sol, scaled)
    empty = SolutionSpace(sol.particular, SeriesMatrix.zeros(p, 1, 0, N))
    assert not spaces_equal(sol, empty)
    assert spaces_equal(None, None)
    assert not spaces_equal(sol, None)


def test_spaces_equal_is_equivalence():
    insts = [random_instance(3000 + t, 134217757, 2, 8, 1, "random") for t in range(10)]
    sols = [solve_operator_matrix(i) for i in insts]
    for s in sols:
        assert spaces_equal(s, s)
    for s1 in sols:
        for s2 in sols:
            assert spaces_equal(s1, s2) == spaces_equal(s2, s1)
            if spaces_equal(s1, s2):
                for s3 in sols:
                    if spaces_equal(s2, s3):
                        assert spaces_equal(s1, s3)


def test_basis_columns_independent_across_engines():
    from qdsolve.dac import dac_solve
    from qdsolve.linalg import lin_solve
    from qdsolve.solution import _flatten_cols

    import random as _r

    import numpy as np

    from qdsolve.field import PrimeField
    from qdsolve.series import QContext

    rng = _r.Random(55)
    p = 134217757
    field = PrimeField(p)
    found = 0
    for trial in range(40):
        # homogeneous instances with a rigged singular index keep freedom
        n = rng.randrange(1, 4)
        N = rng.randrange(3, 16)
        q = rng.randrange(2, p)
        ctx = QContext(field, q, 1)
        i0 = rng.randrange(N)
        eig = ctx.gamma(i0) * pow(ctx.qpow(i0), p - 2, p) % p
        gen = np.random.default_rng(trial)
        Adata = gen.integers(0, p, size=(n, n, N), dtype=np.int64)
        A0 = np.diag(np.concatenate([[eig], gen.integers(0, p, n - 1)])).astype(np.int64)
        Adata[:, :, 0] = A0
        inst = ProblemInstance(
            field, ctx, n, N,
            SeriesMatrix(p, Adata, N), SeriesMatrix.zeros(p, n, 1, N),
        )
        sols = [
            solve_operator_matrix(inst),
            dense_solve(inst),
            dac_solve(inst.A, inst.C, inst.N, inst.ctx),
        ]
        for sol in sols:
            assert sol is not None  # homogeneous systems always admit 0
            if sol.dim == 0:
                continue
            found += 1
            flat = _flatten_cols(sol.basis).T  # (nN, t)
            ker = lin_solve(flat, np.zeros((flat.shape[0], 1), dtype=np.int64), inst.p)
            assert ker.nullspace.shape[1] == 0, "dependent basis columns"
    assert found > 10


def test_random_instance_deterministic():
    a = random_instance(7, 101, 2, 6, 1, "random")
    b = random_instance(7, 101, 2, 6, 1, "random")
    assert a.A == b.A and a.C == b.C and a.ctx.q == b.ctx.q


def test_random_instance_good_spectrum():
    from qdsolve.spectrum import good_spectrum

    for seed in range(8):
        inst = random_instance(seed, 134217757, 3, 12, 2, "one", require_good_spectrum=True)
        assert good_spectrum(inst.A.coefficient_array(0), inst.ctx, inst.N).good


def test_random_coefficients_reports_the_draws_it_made(monkeypatch):
    # at p = 3 and q = 1, gamma_3 = 0 makes Y_3 = A0, and chi(A0) = 0 is
    # singular for every constant matrix, so every draw fails; the error
    # names as many draws as were tested
    tested = []
    real = oracle.good_spectrum
    monkeypatch.setattr(oracle, "good_spectrum", lambda *a: tested.append(1) or real(*a))
    with pytest.raises(PreconditionError, match=f"in {oracle.SPECTRUM_DRAWS} draws"):
        oracle.random_coefficients(0, 3, 2, 10, 1, "one", require_good_spectrum=True)
    assert len(tested) == oracle.SPECTRUM_DRAWS


def test_k0_good_spectrum_tests_the_reduced_instance():
    # the reduced instance's constant matrix is zero, so at k = 1 its steps
    # are -gamma_i Id, singular when the order of q is at most N; at p = 101,
    # N = 8 and random q, seed 3 draws such a q (Spec A0 meets q^5 Spec A0
    # - gamma_5), and every instance returned has a good spectrum
    from qdsolve.spectrum import good_spectrum

    with pytest.raises(PreconditionError, match="k = 0"):
        random_instance(3, 101, 1, 8, 0, "random", require_good_spectrum=True)
    refused = 0
    for seed in range(40):
        try:
            inst = random_instance(seed, 101, 1, 8, 0, "random", require_good_spectrum=True)
        except PreconditionError:
            refused += 1
            continue
        assert good_spectrum(inst.A.coefficient_array(0), inst.ctx, inst.N).good, seed
    assert 0 < refused < 40

def test_instance_refuses_operands_over_another_field():
    # A and C drawn at p = 103 in a context at p = 101 state another
    # equation: refused, where dense_solve used to solve it at p = 101; a
    # context over another p than the field is refused with the same type
    _, A, C = random_coefficients(1, 103, 2, 8, 1, "random")
    field = PrimeField(101)
    ctx = QContext(field, 5, 1)
    with pytest.raises(PreconditionError, match="operands over p"):
        ProblemInstance(field, ctx, 2, 8, A, C)
    with pytest.raises(PreconditionError, match="operands over p"):
        ProblemInstance(field, ctx, 2, 8, SeriesMatrix.zeros(101, 2, 2, 8), C)
    with pytest.raises(PreconditionError, match="context over p = 103"):
        ProblemInstance(field, QContext(PrimeField(103), 5, 1), 2, 8, A, C)


def _series(p, rows, cols, prec, seed):
    gen = np.random.default_rng(seed)
    return SeriesMatrix(p, gen.integers(1, p, (rows, cols, prec)), prec)


@pytest.mark.parametrize(
    ("a_shape", "c_shape", "prec", "N", "q", "error", "match"),
    [
        ((2, 2), (2, 3), 8, 8, 5, ValueError, "n x n"),  # C with three columns
        ((2, 2), (3, 1), 8, 8, 5, ValueError, "n x n"),  # C with three rows
        ((2, 3), (2, 1), 8, 8, 5, ValueError, "n x n"),  # A not square
        ((0, 0), (0, 1), 4, 4, 5, ValueError, "n x n"),  # n = 0
        ((2, 2), (2, 1), 8, 0, 5, ValueError, "precision"),  # N = 0
        ((2, 2), (2, 1), 4, 8, 5, ValueError, "precision"),  # known to lower precision than N
        ((2, 2), (2, 1), 150, 101, 1, PreconditionError, "q = 1 requires p > N"),  # p = N
        ((2, 2), (2, 1), 150, 150, 1, PreconditionError, "q = 1 requires p > N"),  # p < N
    ],
    ids=["C_2x3", "C_3x1", "A_2x3", "n0", "N0", "low_prec", "q1_N101", "q1_N150"],
)
def test_every_entry_point_refuses_malformed_operands(a_shape, c_shape, prec, N, q, error, match):
    # one check, before any arithmetic: a wide C used to give a space whose
    # basis fails the equation, and the other cases numpy's or Python's
    # errors; q = 1 with p <= N used to be refused by ProblemInstance alone,
    # while dac_solve answered and newton_solve raised SpectrumError
    field = PrimeField(101)
    ctx = QContext(field, q, 1)
    A, C = _series(101, *a_shape, prec, 1), _series(101, *c_shape, prec, 2)
    entry_points = [
        lambda: ProblemInstance(field, ctx, a_shape[0], N, A, C),
        lambda: dac_solve(A, C, N, ctx),
        lambda: newton_solve(A, C, N, ctx),
    ]
    for solve in entry_points:
        with pytest.raises(error, match=match) as err:
            solve()
        assert type(err.value) is error


def test_instance_validation():
    with pytest.raises(PreconditionError):
        scalar_instance(101, 1, 1, 101, [1], [0])  # q = 1 needs p > N
    field = PrimeField(101)
    ctx = QContext(field, 1, 1)
    with pytest.raises(ValueError):
        ProblemInstance(field, ctx, 1, 5, SeriesMatrix.zeros(101, 1, 1, 3), SeriesMatrix.zeros(101, 1, 1, 5))
