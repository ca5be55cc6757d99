"""The field-multiplication counter: exact per-engine counts on fixed
instances, and benchmark records read as deltas of the global counter."""

import numpy as np
import pytest

from qdsolve import instrument
from qdsolve.bench import ALGORITHMS, _run_algo, case_seed, run_bench
from qdsolve.field import PrimeField
from qdsolve.convolution import _matmul_mod
from qdsolve.linalg import mat_inv
from qdsolve.oracle import ProblemInstance, random_instance, residual
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext
from qdsolve.spectrum import good_spectrum

P = 10007


def _rigged_k1() -> ProblemInstance:
    """k = 1, n = 3, random q, N = 80: A0 has the eigenvalue gamma_50 q^(-50),
    so step 50 alone is singular; C is planted from a random F."""
    p, n, N, s = P, 3, 80, 50
    gen = np.random.default_rng(28)
    q = int(gen.integers(2, p))
    field = PrimeField(p)
    ctx = QContext(field, q, 1)
    lam0 = ctx.gamma(s) * int(ctx.qinv_pow_slice(s + 1)[s]) % p
    while True:
        lam = np.concatenate(([lam0], gen.integers(1, p, size=n - 1))).astype(np.int64)
        V = gen.integers(0, p, size=(n, n), dtype=np.int64)
        try:
            A0 = _matmul_mod(V * lam % p, mat_inv(V, p), p)
        except ValueError:
            continue
        rep = good_spectrum(A0, ctx, N)
        if rep.good and rep.singular_indices == [s]:
            break
    Ad = gen.integers(0, p, size=(n, n, N), dtype=np.int64)
    Ad[:, :, 0] = A0
    A = SeriesMatrix(p, Ad, N)
    F = SeriesMatrix(p, gen.integers(0, p, size=(n, 1, N), dtype=np.int64), N)
    C = residual(F, ProblemInstance(field, ctx, n, N, A, SeriesMatrix.zeros(p, n, 1, N)), True)
    # a fresh context, so no table is warm before the solve
    return ProblemInstance(field, QContext(field, q, 1), n, N, A, C)


# (instance, solution dimension, {engine: mul_count}); N = 80 > DAC_LEAF, so
# the divide-and-conquer engine recurses.  Newton's k = 1 count includes
# singular_indices' scalar Horner, (n - 1) N products for chi at N points.
# At n = 4, N = 256 Newton's 4 x 4 x 4 products of 128 coefficients and more
# take the stacked transform (6,936,986 with them direct); the
# divide-and-conquer engine's matrix-vector products stay direct.  At k > 1
# it inverts -A0 once per solve, one mat_inv_stack of a single 3 x 3 matrix,
# 111 multiplications, however many leaves it has (two of 40 here).
PINNED = {
    "k1_rigged_singular_step": (_rigged_k1, 1, {"dense": 54346, "dac": 44137, "newton": 366769}),
    "k3_random_q": (
        lambda: random_instance(31, P, 3, 80, 3, "random", require_good_spectrum=True),
        0, {"dense": 30534, "dac": 30763, "newton": 337653},
    ),
    "k2_q1": (
        lambda: random_instance(32, P, 3, 80, 2, "one", require_good_spectrum=True),
        0, {"dense": 29508, "dac": 29628, "newton": 311755},
    ),
    "k1_n4_stacked_transform": (
        lambda: random_instance(33, P, 4, 256, 1, "random", require_good_spectrum=True),
        0, {"dense": 567536, "dac": 569536, "newton": 3958634},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_engine_mul_counts_pinned(case, monkeypatch):
    # mul_count is the machine-independent cost the scaling gates read; a
    # change to any kernel's charge, or a product left uncharged, moves it
    monkeypatch.setattr(instrument, "_runtime_checks", False)
    make, dim, want = PINNED[case]
    got = {}
    for algo in ALGORITHMS:
        inst = make()
        before = instrument.mul_counter.value
        space = _run_algo(algo, inst)
        got[algo] = instrument.mul_counter.value - before
        assert space is not None and space.dim == dim, algo
    assert got == want


def test_bench_counts_are_deltas(monkeypatch):
    # the counter is process-global: the harness reads a delta around each
    # solve and never resets it, so other readers' deltas stay right
    monkeypatch.setattr(instrument, "_runtime_checks", False)
    before = instrument.mul_counter.value
    records = run_bench([2], [24], 1, "random", ALGORITHMS, 5, 1, 65521)
    assert instrument.mul_counter.value >= before + sum(r.mul_count for r in records)
    for rec in records:
        inst = random_instance(case_seed(5, 2, 24), 65521, 2, 24, 1, "random", require_good_spectrum=True)
        m0 = instrument.mul_counter.value
        _run_algo(rec.algo, inst)
        assert rec.mul_count == instrument.mul_counter.value - m0 > 0, rec.algo


def test_bench_counts_do_not_depend_on_reps(monkeypatch):
    # bench reports the last repetition's count; the q = 1, k = 2 Newton
    # solve integrates, and the 1/gamma_i table it grows in the first
    # repetition is uncharged set-up, so every repetition charges the same
    monkeypatch.setattr(instrument, "_runtime_checks", False)
    counts = [
        {r.algo: r.mul_count for r in run_bench([2], [24], 2, "one", ALGORITHMS, 5, reps, 65521)}
        for reps in (1, 3)
    ]
    assert counts[0] == counts[1]
