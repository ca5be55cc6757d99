"""Acceptance criteria A1-A7, one test per criterion.

Each test prints a single PASS line (visible with pytest -s / -v plus
the printed summary) and enforces its stated runtime budget.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from qdsolve.dac import dac_solve
from qdsolve.errors import SpectrumError
from qdsolve.field import PrimeField
from qdsolve.linalg import char_poly, mat_inv
from qdsolve.newton import choose_associated, newton_ae, newton_solve
from qdsolve.oracle import (
    ProblemInstance,
    dense_solve,
    make_instance,
    random_instance,
)
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext
from qdsolve.solution import spaces_equal
from qdsolve.errors import PreconditionError
from qdsolve.spectrum import good_spectrum, singular_indices

from operator_matrix import solve_operator_matrix

P28 = 134217757  # a 28-bit prime (2^27 + 29)


def report(name: str, detail: str):
    print(f"{name} PASS ({detail})")


def rand_series(rng, p, prec):
    return SeriesMatrix(p, [[[rng.randrange(p) for _ in range(prec)]]], prec)


def coeff_list(f):
    """The coefficients of a 1 x 1 series matrix, zeros included."""
    return [int(f.coefficient_array(i)[0, 0]) for i in range(f.prec)]


def test_A1_exact_calculus():
    t0 = time.perf_counter()
    rng = random.Random(101)
    product_checks = 0
    round_trips = 0
    for p in (101, P28):
        field = PrimeField(p)
        while product_checks < 250 * (1 if p == 101 else 2):
            q = 1 if rng.random() < 0.5 else rng.randrange(2, p)
            ctx = QContext(field, q, 1)
            n = rng.randrange(2, 30)
            f = rand_series(rng, p, n)
            g = rand_series(rng, p, n)
            lhs = f.mul(g, n).delta(ctx)
            rhs = f.truncate(n - 1).mul(g.delta(ctx), n - 1) + f.delta(ctx).mul(
                g.sigma(ctx).truncate(n - 1), n - 1
            )
            assert lhs == rhs
            product_checks += 1
        while round_trips < 250 * (1 if p == 101 else 2):
            q = 1 if rng.random() < 0.5 else rng.randrange(2, p)
            ctx = QContext(field, q, 1)
            n = rng.randrange(1, 30)
            if any(ctx.gamma(i) == 0 for i in range(1, n + 1)):
                continue
            coeffs = [0] + [rng.randrange(p) for _ in range(n - 1)]
            f = SeriesMatrix(p, [[coeffs]], n)
            assert ctx.integrate(f.delta(ctx)) == f
            round_trips += 1
    elapsed = time.perf_counter() - t0
    assert product_checks == 500 and round_trips == 500
    assert elapsed < 5.0, f"A1 took {elapsed:.1f}s, budget 5s"
    report("A1", f"500 product rules + 500 round trips exact in {elapsed:.2f}s")


def _a2_good_instances():
    rng = random.Random(202)
    out = []
    trial = 0
    while len(out) < 200:
        trial += 1
        n = rng.randrange(1, 5)
        N = rng.randrange(1, 25)
        k = rng.choice([1, 2, 3])
        q_mode = rng.choice(["one", "random"])
        try:
            inst = random_instance(
                50_000 + trial, P28, n, N, k, q_mode, require_good_spectrum=True
            )
        except PreconditionError:
            continue
        out.append(inst)
    return out


def _a2_singular_instances():
    """k = 1 instances with r >= 1 singular indices and a bad spectrum."""
    rng = random.Random(203)
    field = PrimeField(P28)
    out = []
    while len(out) < 50:
        n = rng.randrange(2, 5)
        N = rng.randrange(4, 25)
        q = 1 if rng.random() < 0.5 else rng.randrange(2, P28)
        ctx = QContext(field, q, 1)
        eigs = []
        n_singular = rng.choice([1, 2])
        idxs = rng.sample(range(N), k=min(n_singular, n - 1))
        for i in idxs:
            eigs.append(ctx.gamma(i) * pow(ctx.qpow(i), P28 - 2, P28) % P28)
        if len(idxs) == 1:
            # force non-goodness through a shifted eigenvalue pair
            j = rng.randrange(1, N)
            eigs.append((ctx.qpow(j) * eigs[0] - ctx.gamma(j)) % P28)
        while len(eigs) < n:
            eigs.append(rng.randrange(P28))
        gen = np.random.default_rng(len(out) + 7000)
        while True:
            Pm = gen.integers(0, P28, (n, n))
            try:
                Pinv = mat_inv(Pm, P28)
                break
            except ValueError:
                continue
        Pd = Pm.astype(object) * np.array(eigs, dtype=object) % P28  # Pm diag(eigs)
        A0 = (Pd @ Pinv.astype(object) % P28).astype(np.int64)
        Adata = gen.integers(0, P28, size=(n, n, N), dtype=np.int64)
        Adata[:, :, 0] = A0
        Cdata = gen.integers(0, P28, size=(n, 1, N), dtype=np.int64)
        A = SeriesMatrix(P28, Adata, N)
        C = SeriesMatrix(P28, Cdata, N)
        rep = good_spectrum(A0, ctx, N)
        R = singular_indices(char_poly(A0, P28), ctx, N)
        if rep.good or len(R) < 1:
            continue
        out.append(ProblemInstance(field, ctx, n, N, A, C))
    return out


def test_A2_and_A5_engine_agreement_and_newton_invariants():
    t0 = time.perf_counter()
    insts = _a2_good_instances()
    a5_checked = 0
    for idx, inst in enumerate(insts):
        s_dense = solve_operator_matrix(inst)
        s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        s_newton = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
        assert spaces_equal(s_dense, dense_solve(inst)), f"dense routes disagree on instance {idx}"
        assert spaces_equal(s_dense, s_dac), f"dense/dac disagree on instance {idx}"
        assert spaces_equal(s_dense, s_newton), f"dense/newton disagree on instance {idx}"
        # A5: the Newton machinery invariants on the same instance
        ctx, N, k = inst.ctx, inst.N, inst.k
        At = inst.A.truncate(N).as_poly_prec(max(N, k))
        B, V = choose_associated(At, ctx)
        W = newton_ae(At, B, V, N, ctx)
        Wp = W.as_poly_prec(max(N, W.prec))
        res = (
            Wp.delta(ctx).shift(k).truncate(N)
            - At.truncate(N).mul(Wp.sigma(ctx).truncate(N), N)
            + Wp.truncate(N).mul(B.as_poly_prec(N), N)
        )
        assert res.is_zero(), f"A5 residual nonzero on instance {idx}"
        mat_inv(W.coefficient_array(0), inst.p)  # det W0 != 0
        if k == 1 or ctx.q != 1:
            kk = min(k, W.prec, V.prec)
            assert W.truncate(kk) == V.truncate(kk)
        else:
            # differential branch: the diagonal corrections have valuation
            # m - k + 1, which is 1 at the bottom level, so only the
            # constant term of the seed survives; the splitting data must
            # satisfy its own contract
            assert np.array_equal(W.coefficient_array(0), V.coefficient_array(0))
            assert At.truncate(k).mul(V, k) == V.mul(B, k)
            off = B.data.copy()
            for i in range(inst.n):
                off[i, i, :] = 0
            assert not np.any(off), "B not diagonal"
            mat_inv(V.coefficient_array(0), inst.p)
        a5_checked += 1
    singular = _a2_singular_instances()
    for idx, inst in enumerate(singular):
        s_dense = solve_operator_matrix(inst)
        s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        assert spaces_equal(s_dense, dense_solve(inst)), f"dense routes disagree on singular {idx}"
        assert spaces_equal(s_dense, s_dac), f"dense/dac disagree on singular {idx}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"A2 took {elapsed:.1f}s, budget 60s"
    report(
        "A2",
        f"200 good-spectrum instances agree on all engines, 50 singular "
        f"instances agree dense/dac in {elapsed:.1f}s",
    )
    report("A5", f"Newton invariants exact on all {a5_checked} instances")


def hypergeometric_instance(p=101, a=1, b=1, c=5, N=12):
    x_minus_1_inv = SeriesMatrix(p, [[[-1, 1]]], N).inv_newton(N)
    grid = [
        [[0] * N, [0, 1] + [0] * (N - 2)],
        [
            coeff_list(x_minus_1_inv.scale(-a * b % p)),
            coeff_list(x_minus_1_inv.mul(SeriesMatrix(p, [[[c, -(a + b + 1)]]], N), N)),
        ],
    ]
    A = SeriesMatrix(p, grid, N)
    C = SeriesMatrix.zeros(p, 2, 1, N)
    return make_instance(p, 1, 1, 2, N, A, C)


def test_A3_hypergeometric_golden():
    t0 = time.perf_counter()
    p, a, b, c, N = 101, 1, 1, 5, 12
    inst = hypergeometric_instance(p, a, b, c, N)
    sol = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    assert sol is not None and sol.dim == 1
    assert spaces_equal(sol, solve_operator_matrix(inst))
    col = sol.basis.col(0)
    f = coeff_list(col.entry(0, 0))
    f0 = f[0]
    assert f0 != 0
    inv0 = pow(f0, p - 2, p)
    coeffs = [f[i] * inv0 % p for i in range(N)]
    # independent oracle: the hypergeometric coefficient recurrence
    want = [1]
    for i in range(N - 1):
        num = (a + i) * (b + i) % p
        den = (c + i) * (1 + i) % p
        want.append(want[-1] * num % p * pow(den, p - 2, p) % p)
    assert coeffs == want
    assert coeffs[1] == a * b * pow(c, p - 2, p) % p
    assert coeffs[2] == a * (a + 1) * b * (b + 1) * pow(c * (c + 1) * 2, p - 2, p) % p
    # the eigenvalues of A0 differ by the integer c = 5 < N, so the Newton
    # engine must reject this instance by its spectrum precondition
    with pytest.raises(SpectrumError):
        newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"A3 took {elapsed:.2f}s, budget 1s"
    report("A3", f"2F1 coefficients match the recurrence mod x^{N} in {elapsed:.3f}s")


def test_A4_exponential_golden():
    p, N = 101, 8
    A = SeriesMatrix(p, np.array([[[1]]], dtype=np.int64), N)
    C = SeriesMatrix.zeros(p, 1, 1, N)
    inst = make_instance(p, 1, 0, 1, N, A, C)  # k = 0 reduction inside
    assert inst.k == 1 and inst.N == N + 1
    spaces = [
        solve_operator_matrix(inst),
        dense_solve(inst),
        dac_solve(inst.A, inst.C, inst.N, inst.ctx),
        newton_solve(inst.A, inst.C, inst.N, inst.ctx),
    ]
    for s in spaces:
        assert s is not None and s.dim == 1
        assert spaces_equal(s, spaces[0])
    f = coeff_list(spaces[0].basis.entry(0, 0))
    f0 = f[0]
    inv0 = pow(f0, p - 2, p)
    got = [f[i] * inv0 % p for i in range(N + 1)]
    fact = 1
    want = []
    for i in range(N + 1):
        want.append(pow(fact, p - 2, p))
        fact = fact * (i + 1) % p
    assert got == want
    assert got[:4] == [1, 1, 51, 17]
    report("A4", f"inverse factorials reproduced mod x^{N + 1} on all engines")


def test_A6_scaling_slopes():
    from qdsolve.bench import run_bench

    def top4_slopes(records):
        by = {}
        for r in records:
            by.setdefault(r.algo, []).append((math.log2(r.N), math.log2(r.mul_count)))
        return {algo: statistics.linear_regression(*zip(*pts[-4:])).slope for algo, pts in by.items()}

    t0 = time.perf_counter()
    Ns = [2**e for e in range(10, 16)]
    slopes = top4_slopes(run_bench([1], Ns, 1, "random", ["dense", "dac", "newton"],
                                   seed=42, reps=1, p=P28))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"A6 took {elapsed:.1f}s, budget 300s"
    assert slopes["dac"] <= 1.35, f"dac slope {slopes['dac']:.3f} > 1.35"
    assert slopes["newton"] <= 1.35, f"newton slope {slopes['newton']:.3f} > 1.35"
    assert slopes["dense"] >= 1.8, f"dense slope {slopes['dense']:.3f} < 1.8"
    # systems: N = 512 .. 4096 is past the transform cutoff, below which
    # every engine's products are quadratic; seed 42 draws a good spectrum
    # for every (n, N) at random q and at q = 1
    t1 = time.perf_counter()
    systems = []
    for q_mode in ("random", "one"):
        for n in (2, 4):
            for k in (1, 3):
                got = top4_slopes(run_bench([n], [512, 1024, 2048, 4096], k, q_mode, ["dac", "newton"],
                                            seed=42, reps=1, p=P28))
                for algo, slope in got.items():
                    assert slope <= 1.35, f"{algo} slope {slope:.3f} > 1.35 at n={n}, k={k}, q {q_mode}"
                systems.append(f"n={n} k={k} q {q_mode}: dac {got['dac']:.2f}, newton {got['newton']:.2f}")
    elapsed_systems = time.perf_counter() - t1
    assert elapsed_systems < 60.0, f"A6 systems took {elapsed_systems:.1f}s, budget 60s"
    report(
        "A6",
        f"mul-count slopes over top-4 points: dac {slopes['dac']:.2f} <= 1.35, "
        f"newton {slopes['newton']:.2f} <= 1.35, dense {slopes['dense']:.2f} >= 1.8 "
        f"in {elapsed:.0f}s; systems <= 1.35: {'; '.join(systems)} in {elapsed_systems:.0f}s",
    )


def test_A7_crossover():
    t0 = time.perf_counter()
    timings = {}
    for n in (9, 13):
        inst = random_instance(1234 + n, P28, n, 650, 3, "random",
                               require_good_spectrum=True)
        t1 = time.perf_counter()
        s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        t2 = time.perf_counter()
        s_newton = newton_solve(inst.A, inst.C, inst.N, inst.ctx)
        t3 = time.perf_counter()
        assert spaces_equal(s_dac, s_newton)
        timings[n] = (t2 - t1, t3 - t2)
        assert timings[n][0] < timings[n][1], (
            f"n={n}: dac {timings[n][0]:.2f}s not below newton {timings[n][1]:.2f}s"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"A7 took {elapsed:.1f}s, budget 300s"
    report(
        "A7",
        "dac below newton at N=650, k=3: "
        + ", ".join(
            f"n={n}: {d:.2f}s < {w:.2f}s" for n, (d, w) in sorted(timings.items())
        ),
    )
