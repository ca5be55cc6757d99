"""Cross-engine agreement at sizes where the transform and vectorized paths engage."""

import numpy as np

from qdsolve import convolution
from qdsolve.convolution import TRANSFORM_CUTOFF
from qdsolve.dac import dac_solve
from qdsolve.field import PrimeField
from qdsolve.newton import newton_solve
from qdsolve.oracle import ProblemInstance, dense_solve, random_instance, residual
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext
from qdsolve.solution import spaces_equal

from operator_matrix import solve_operator_matrix

P28 = 134217757


def test_engines_agree_above_transform_cutoff():
    # top-level products at this precision run through the transform
    N = 5000
    assert N // 2 >= TRANSFORM_CUTOFF
    inst = random_instance(424242, P28, 1, N, 1, "random", require_good_spectrum=True)
    s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_newton = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_dense = dense_solve(inst)
    assert spaces_equal(s_dac, s_newton)
    assert spaces_equal(s_dac, s_dense)
    assert residual(s_dac.particular, inst).is_zero()


def test_engines_agree_above_transform_cutoff_at_p_2_31_minus_1(monkeypatch):
    # at the largest admissible prime the long products need the widest
    # limb split, three 11-bit limbs, and all three engines still agree
    p, N = 2**31 - 1, 5000
    assert N // 2 >= TRANSFORM_CUTOFF
    used = []
    limbs = convolution._limbs
    monkeypatch.setattr(convolution, "_limbs", lambda *args: used.append(limbs(*args)[0]) or limbs(*args))
    inst = random_instance(434343, p, 1, N, 1, "random", require_good_spectrum=True)
    s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_newton = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_dense = dense_solve(inst)
    assert 3 in used
    assert spaces_equal(s_dac, s_newton)
    assert spaces_equal(s_dac, s_dense)
    assert residual(s_newton.particular, inst).is_zero()


def test_engines_agree_medium_k3():
    inst = random_instance(515151, P28, 3, 400, 3, "random", require_good_spectrum=True)
    s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_newton = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert spaces_equal(s_dac, s_newton)
    assert residual(s_newton.particular, inst).is_zero()


def test_dense_routes_agree_near_limit():
    # the step kernel against the operator-matrix reference at the largest
    # sizes the reference is cheap at, nN from 500 to 570
    for seed, n, N in ((1, 1, 500), (2, 2, 280), (3, 3, 190)):
        inst = random_instance(60_000 + seed, P28, n, N, 1, "random")
        s_mat = solve_operator_matrix(inst)
        s_step = dense_solve(inst)
        assert spaces_equal(s_mat, s_step), (n, N)


def test_stepwise_vector_path_with_parameters():
    # scalar instance rigged so one index is singular: the vectorized
    # accumulation must thread the extra parameter columns correctly
    field = PrimeField(P28)
    N = 300
    gen = np.random.default_rng(8)
    q = int(gen.integers(2, P28))
    ctx = QContext(field, q, 1)
    i0 = 37
    eig = ctx.gamma(i0) * pow(ctx.qpow(i0), P28 - 2, P28) % P28
    Adata = gen.integers(0, P28, size=(1, 1, N), dtype=np.int64)
    Adata[0, 0, 0] = eig
    inst = ProblemInstance(
        field, ctx, 1, N,
        SeriesMatrix(P28, Adata, N), SeriesMatrix.zeros(P28, 1, 1, N),
    )
    s_step = dense_solve(inst)
    s_mat = solve_operator_matrix(inst)
    s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert s_step.dim == 1
    assert spaces_equal(s_step, s_mat)
    assert spaces_equal(s_step, s_dac)
    assert residual(s_step.basis.col(0), inst, homogeneous=True).is_zero()
