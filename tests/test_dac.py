import random

import numpy as np
import pytest

from qdsolve import dac, instrument, oracle
from qdsolve.dac import DAC_LEAF, dac_solve, op_E, rdac
from qdsolve.errors import PreconditionError
from qdsolve.field import PrimeField
from qdsolve.linalg import char_poly
from qdsolve.oracle import dense_solve, make_instance, random_coefficients, random_instance, residual
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext
from qdsolve.solution import spaces_equal
from qdsolve.spectrum import singular_indices

from operator_matrix import solve_operator_matrix

P101 = PrimeField(101)
P28 = 134217757
# the halving all the way down, and the cutoff the engine runs with
LEAVES = pytest.mark.parametrize("leaf", [1, DAC_LEAF], ids=["leaf1", "default"])


def sm(p, grid, prec):
    return SeriesMatrix(p, np.array(grid, dtype=np.int64), prec)


def test_op_E_zero():
    ctx = QContext(P101, 1, 1)
    A = sm(101, [[[1, 1]]], 2)
    z = SeriesMatrix.zeros(101, 1, 1, 2)
    E = op_E(A, z, z, 0, ctx, 2)
    assert E.is_zero()


def test_op_E_constant_expansion():
    # scalar, k=1, q=1, A=1, C=0, F = f0 constant: E(F, C, i) = -(q^i - gamma_i x^0 ... )
    # coefficient 0 of E equals -q^i * f0 * A0 + gamma_i * f0; at i=0 this is -f0
    p = 101
    ctx = QContext(P101, 1, 1)
    A = sm(p, [[[1]]], 1)
    F = sm(p, [[[7]]], 1)
    Z = SeriesMatrix.zeros(p, 1, 1, 1)
    E = op_E(A, F, Z, 0, ctx, 1)
    assert E.coefficient_array(0)[0, 0] == (-7) % p


def test_op_E_splitting_identity():
    # E(F, C, i) = (E(H, C, i) mod x^m) + x^m E(K, D, i+m) with the carried D,
    # and the window [lo, N) of E is E divided by x^lo
    rng = random.Random(21)
    p = 134217757
    field = PrimeField(p)
    for trial in range(30):
        q = 1 if rng.random() < 0.5 else rng.randrange(2, p)
        k = rng.choice([1, 2, 3])
        ctx = QContext(field, q, k)
        n = rng.randrange(1, 3)
        N = rng.randrange(2, 12)
        i = rng.randrange(0, 6)
        lo = rng.randrange(0, N + 1)
        m = (N + 1) // 2
        A = SeriesMatrix(p, np.random.default_rng(trial).integers(0, p, (n, n, N)), N)
        F = SeriesMatrix(p, np.random.default_rng(trial + 99).integers(0, p, (n, 1, N)), N)
        C = SeriesMatrix(p, np.random.default_rng(trial + 999).integers(0, p, (n, 1, N)), N)
        H = F.truncate(m).as_poly_prec(N)
        K = F.shift(-m, truncate=True)
        E_full = op_E(A, F, C, i, ctx, N)
        E_H = op_E(A, H, C, i, ctx, N)
        D = (-E_H).shift(-m, truncate=True)
        E_K = op_E(A.truncate(N - m), K, D, i + m, ctx, N - m)
        recomposed = E_H.truncate(m).as_poly_prec(N) + E_K.shift(m).as_poly_prec(N)
        assert recomposed == E_full, trial
        # a window [lo, N) at base index i is the same residual cut below lo
        assert op_E(A, F, C, i, ctx, N, lo) == E_full.shift(-lo, truncate=True), trial


def test_rdac_base_cases():
    p = 101
    ctx = QContext(P101, 1, 1)
    # nonsingular index: returns -R_i^{-1} C_0
    A = sm(p, [[[2]]], 1)
    out, cons, sing = rdac(A, sm(p, [[[3]]], 1), 0, 1, ctx, oracle.step_table(A, ctx, 0, 1))
    # R_0 = q^0 A0 - gamma_0 = 2; -inv(2)*3 = -52*...; inv(2)=51; -51*3 = -153 = -52 = 49
    assert out.coefficient_array(0)[0, 0] == (-pow(2, p - 2, p) * 3) % p
    assert out.cols == 1 and cons == [] and sing == []
    # singular index: the step's unknown becomes parameter column 1, and its
    # equation 0 = C_0 becomes the one constraint
    A0 = sm(p, [[[0]]], 1)
    out, cons, sing = rdac(A0, sm(p, [[[3]]], 1), 0, 1, ctx, oracle.step_table(A0, ctx, 0, 1))
    assert sing == [0]
    assert out.col(0).is_zero()
    assert out.col(1) == SeriesMatrix.identity(p, 1, 1)
    assert [row.tolist() for row in cons] == [[3]]


def test_rdac_leaf_products_near_int64_limit():
    # p - 1 = 2^31 - 2, so n (p - 1)^2 >= 2^63 at n = 3: a leaf's step
    # products must be reduced in chunks, not summed in int64.
    p = 2147483647
    for seed in (1, 12):
        inst = random_instance(seed, p, 3, 12, 1, "random")
        sol = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        want = solve_operator_matrix(inst)
        assert want is not None and want.dim == 0
        assert sol.dim == 0 and sol.particular == want.particular
        assert residual(sol.particular, inst).is_zero()


def test_rdac_exponential_block():
    # A = x, C = 0, k=1, q=1, N=4: phi_0 = 0, single block with exp coefficients
    p = 101
    ctx = QContext(P101, 1, 1)
    A = sm(p, [[[0, 1]]], 4)
    F, cons, sing = rdac(A, SeriesMatrix.zeros(p, 1, 1, 4), 0, 4, ctx, oracle.step_table(A, ctx, 0, 4))
    assert sing == [0] and cons == []
    assert F.col(0).is_zero()
    block = F.entry(0, 1)
    inv2, inv6 = pow(2, p - 2, p), pow(6, p - 2, p)
    assert block == sm(p, [[[1, 1, inv2, inv6]]], 4)
    assert inv2 == 51 and inv6 == 17


@LEAVES
def test_rdac_open_rows_invariant(monkeypatch, leaf):
    monkeypatch.setattr(dac, "DAC_LEAF", leaf)
    instrument.set_runtime_checks(True)
    try:
        for trial in range(25):
            inst = random_instance(4000 + trial, 134217757, 2, 9, 1, "random")
            dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    finally:
        instrument.set_runtime_checks(False)


def test_dac_examples():
    p = 101
    ctx = QContext(P101, 1, 1)
    # A = 1: solution family lambda * x
    A = sm(p, [[[1]]], 4)
    C = SeriesMatrix.zeros(p, 1, 1, 4)
    sol = dac_solve(A, C, 4, ctx)
    assert sol.particular.is_zero() and sol.dim == 1
    assert sol.basis.entry(0, 0) == sm(p, [[[0, 1]]], 4)

    # A = 0, C = 1: inconsistent
    sol = dac_solve(SeriesMatrix.zeros(p, 1, 1, 4), sm(p, [[[1]]], 4), 4, ctx)
    assert sol is None

    # exponential through the reduction: A = x
    sol = dac_solve(sm(p, [[[0, 1]]], 4), SeriesMatrix.zeros(p, 1, 1, 4), 4, ctx)
    assert sol.particular.is_zero() and sol.dim == 1
    assert sol.basis.entry(0, 0) == sm(p, [[[1, 1, 51, 17]]], 4)


def test_dac_fast_path_no_parameters():
    # R empty: the engine must not allocate parameter blocks
    p = 134217757
    inst = random_instance(77, p, 2, 10, 2, "random", require_good_spectrum=True)
    table = oracle.step_table(inst.A, inst.ctx, 0, inst.N)
    F, cons, sing = rdac(inst.A, inst.C, 0, inst.N, inst.ctx, table)
    assert F.cols == 1 and cons == [] and sing == []  # width 1: no parameters
    sol = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert sol is not None and spaces_equal(sol, solve_operator_matrix(inst))


@LEAVES
def test_dac_residuals(monkeypatch, leaf):
    monkeypatch.setattr(dac, "DAC_LEAF", leaf)
    for trial in range(30):
        inst = random_instance(5000 + trial, 134217757, 2, 12, 1, "random")
        sol = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        if sol is None:
            assert solve_operator_matrix(inst) is None
            continue
        assert residual(sol.particular, inst).is_zero()
        for j in range(sol.dim):
            assert residual(sol.basis.col(j), inst, homogeneous=True).is_zero()


@LEAVES
def test_dac_agrees_with_dense_random(monkeypatch, leaf):
    monkeypatch.setattr(dac, "DAC_LEAF", leaf)
    rng = random.Random(22)
    agree = 0
    for trial in range(150):
        p = rng.choice([101, 134217757])
        n = rng.randrange(1, 4)
        N = rng.randrange(1, 16)
        if p <= N:
            continue
        k = rng.choice([1, 1, 1, 2, 3])
        q_mode = rng.choice(["one", "random"])
        inst = random_instance(6000 + trial, p, n, N, k, q_mode)
        s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        s_dense = solve_operator_matrix(inst)
        assert spaces_equal(s_dac, s_dense), (trial, p, n, N, k, q_mode)
        agree += 1
    assert agree > 100


# -- the leaf cutoff: precisions around DAC_LEAF, singular steps in leaves --

LEAF_NS = (DAC_LEAF - 1, DAC_LEAF, DAC_LEAF + 1, 2 * DAC_LEAF + 1, 4 * DAC_LEAF)


@pytest.fixture
def checks_on():
    instrument.set_runtime_checks(True)
    yield
    instrument.set_runtime_checks(False)


def _leaves(i, N):
    """(base, length) of the leaves rdac solves for precision N at base i."""
    if N <= DAC_LEAF:
        return [(i, N)]
    m = (N + 1) // 2
    return _leaves(i, m) + _leaves(i + m, N - m)


def _planted(seed, q, k, n, N, A0=None):
    """A random instance over F_P28 whose C is planted from a random F*."""
    gen = np.random.default_rng(seed)
    Ad = gen.integers(0, P28, (n, n, N))
    if A0 is not None:
        Ad[:, :, 0] = A0
    inst = make_instance(P28, q, k, n, N, SeriesMatrix(P28, Ad, N), SeriesMatrix.zeros(P28, n, 1, N))
    Fstar = SeriesMatrix(P28, gen.integers(0, P28, (n, 1, N)), N)
    inst.C = residual(Fstar, inst, homogeneous=True)
    return inst


def _assert_agrees(inst):
    s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_dense = solve_operator_matrix(inst)
    assert s_dense is not None
    assert spaces_equal(s_dac, s_dense)


@pytest.mark.parametrize("N", LEAF_NS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dac_leaf_sizes_match_dense(checks_on, N, k):
    # q != 1 and several leaves: a leaf at base i > 0 must twist its
    # history by the global power q^(i+j), once
    rng = random.Random(N * 10 + k)
    assert (len(_leaves(0, N)) > 1) == (N > DAC_LEAF)
    for n in (1, 2, 3):
        inst = _planted(7000 + 10 * N + n, rng.randrange(2, P28), k, n, N)
        _assert_agrees(inst)


def _rigged_A0(gen, q, gs, n):
    """Upper-triangular A0 whose diagonal puts gamma_g q^(-g) for each g in gs
    into its spectrum, so every g in gs is a singular step of a k = 1 solve."""
    A0 = np.triu(gen.integers(0, P28, (n, n)))
    for t, g in enumerate(gs):
        qg = pow(q, g, P28)
        gam = (qg - 1) * pow(q - 1, P28 - 2, P28) % P28
        A0[t, t] = gam * pow(qg, P28 - 2, P28) % P28
    perm = gen.permutation(n)
    return A0[np.ix_(perm, perm)]


@pytest.mark.parametrize("where", ["inside", "first", "last", "boundary"])
def test_dac_singular_steps_in_leaves(checks_on, where):
    L = DAC_LEAF
    N = 2 * L
    assert _leaves(0, N) == [(0, L), (L, L)]
    # up to n singular steps: in a leaf's interior, at a leaf's first or last
    # offset, or on both sides of the boundary between the two leaves
    place = {
        "inside": [L + L // 2, L // 2, L + 5],
        "first": [L, 0, L + L // 2],
        "last": [2 * L - 1, L - 1, L // 2],
        "boundary": [L - 1, L, L + 1],
    }[where]
    gen = np.random.default_rng(len(where))
    for n in (1, 2, 3):
        gs = place[:n]
        q = int(gen.integers(2, P28))
        inst = _planted(8000 + n, q, 1, n, N, _rigged_A0(gen, q, gs, n))
        R = singular_indices(char_poly(inst.A.coefficient_array(0), P28), inst.ctx, N)
        assert set(gs) <= set(R)
        _assert_agrees(inst)
        # an unplanted C: usually inconsistent, and both engines must say so
        inst.C = SeriesMatrix(P28, gen.integers(0, P28, (n, 1, N)), N)
        assert spaces_equal(dac_solve(inst.A, inst.C, N, inst.ctx), solve_operator_matrix(inst))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dac_constant_matrix_leaves_run_independent_steps(checks_on, n):
    # k = 1 and a constant A: no step reads another, so each leaf, at base
    # 0 and at base DAC_LEAF, solves its steps as one batch; the singular
    # steps sit in both leaves
    L = DAC_LEAF
    N = 2 * L
    gen = np.random.default_rng(50 + n)
    q = int(gen.integers(2, P28))
    A = SeriesMatrix(P28, _rigged_A0(gen, q, [L + 3, 5, 2 * L - 1][:n], n)[:, :, None], N)
    inst = make_instance(P28, q, 1, n, N, A, SeriesMatrix.zeros(P28, n, 1, N))
    inst.C = residual(SeriesMatrix(P28, gen.integers(0, P28, (n, 1, N)), N), inst, homogeneous=True)
    _assert_agrees(inst)
    assert spaces_equal(dense_solve(inst), dac_solve(inst.A, inst.C, N, inst.ctx))


@pytest.mark.parametrize("k", [2, 3])
def test_dac_singular_constant_matrix_higher_order(checks_on, k):
    # for k > 1 a singular A0 makes every step singular: every leaf offset
    # adds the nullity of A0 in parameters and its zero rows as constraints
    gen = np.random.default_rng(k)
    for N in (DAC_LEAF + 1, 2 * DAC_LEAF + 1):
        for n in (1, 2, 3):
            u = gen.integers(0, P28, (n, 1))
            v = gen.integers(0, P28, (1, n))
            A0 = np.zeros((n, n), dtype=np.int64) if n == 1 else u @ v % P28
            inst = _planted(9000 + N + n, int(gen.integers(2, P28)), k, n, N, A0)
            assert singular_indices(char_poly(inst.A.coefficient_array(0), P28), inst.ctx, N) == list(range(N))
            _assert_agrees(inst)


P31 = 2**31 - 1


@pytest.mark.parametrize("N", [DAC_LEAF // 2 + 1, DAC_LEAF + 9])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dac_at_p_2_31_minus_1(checks_on, N, k):
    # DAC calls no spectrum code at any prime: the leaves find their own
    # singular steps
    gen = np.random.default_rng(N * 10 + k)
    for n in (1, 2, 3, 4):
        inst = random_instance(100 * N + 10 * k + n, P31, n, N, k, "random")
        if k > 1 and n > 1:
            # a singular A0 makes every step singular; a C planted from a
            # random F* keeps the constrained family consistent
            Ad = inst.A.data.copy()
            Ad[0, :, 0] = 0
            inst.A = SeriesMatrix(P31, Ad, N)
            inst.C = residual(SeriesMatrix(P31, gen.integers(0, P31, (n, 1, N)), N), inst, homogeneous=True)
        want = solve_operator_matrix(inst)
        got = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        assert spaces_equal(got, want), n
        if got is not None:
            assert residual(got.particular, inst).is_zero()
            for j in range(got.dim):
                assert residual(got.basis.col(j), inst, homogeneous=True).is_zero()


def test_dac_refuses_operands_over_another_field():
    # A and C at p = 103 in a context at p = 101: refused, where the solver
    # used to return a space at p = 101, the answer to another equation
    _, A, C = random_coefficients(1, 103, 2, 8, 1, "random")
    ctx = QContext(PrimeField(101), 5, 1)
    with pytest.raises(PreconditionError, match="operands over p"):
        dac_solve(A, C, 8, ctx)
    with pytest.raises(PreconditionError, match="operands over p"):
        dac_solve(SeriesMatrix.zeros(101, 2, 2, 8), C, 8, ctx)


@pytest.mark.parametrize(("k", "n"), [(1, 1), (3, 2)])
def test_dac_builds_one_step_table_per_solve(monkeypatch, k, n):
    # the step table depends only on the steps, A_0 and the context: one
    # stacked inversion per solve, for eight leaves alike, of all N folded
    # step matrices for k = 1 and of the one matrix -A_0 for k > 1
    N = 5 * DAC_LEAF
    assert len(_leaves(0, N)) == 8
    inst = random_instance(41 + k, P28, n, N, k, "random", require_good_spectrum=True)
    assert not hasattr(oracle, "mat_inv")
    seen = []
    fn = oracle.mat_inv_stack
    monkeypatch.setattr(oracle, "mat_inv_stack", lambda M, p: seen.append(M.shape) or fn(M, p))
    sol = dac_solve(inst.A, inst.C, N, inst.ctx)
    assert seen == [(N if k == 1 else 1, n, n)]
    assert spaces_equal(sol, dense_solve(inst))


@pytest.mark.parametrize("k", [1, 3])
def test_dac_count_does_not_depend_on_earlier_solves(monkeypatch, k):
    # the table is built per solve and never kept on the context, and the
    # context's own tables are uncharged: a solve charges the same in a
    # fresh context, after itself and after a longer solve in the context
    monkeypatch.setattr(instrument, "_runtime_checks", False)
    N = 2 * DAC_LEAF + 5
    inst = random_instance(60 + k, P28, 2, N, k, "random", require_good_spectrum=True)
    longer = random_instance(70 + k, P28, 2, 3 * N, k, inst.ctx.q, require_good_spectrum=True)

    def charge(ctx):
        before = instrument.mul_counter.value
        dac_solve(inst.A, inst.C, N, ctx)
        return instrument.mul_counter.value - before

    fresh = charge(QContext(inst.ctx.field, inst.ctx.q, k))
    warm = QContext(inst.ctx.field, inst.ctx.q, k)
    dac_solve(longer.A, longer.C, longer.N, warm)
    assert charge(warm) == charge(warm) == fresh
