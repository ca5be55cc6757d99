"""Benchmark harness: deterministic multiplication counts plus wall time.

Timing noise does not travel between machines, so scaling assertions
work on the field-multiplication counter; wall-clock medians are
reported alongside.  One CSV row per (algorithm, n, N) with the exact
header  algo,n,k,N,q_is_one,p,seed,ms,mul_count.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from . import instrument
from .dac import dac_solve
from .newton import newton_solve
from .oracle import ProblemInstance, dense_solve, random_instance

CSV_HEADER = "algo,n,k,N,q_is_one,p,seed,ms,mul_count"

ALGORITHMS = ("dense", "dac", "newton")


@dataclass
class BenchRecord:
    algo: str
    n: int
    k: int
    N: int
    q_is_one: bool
    p: int
    seed: int
    ms: float
    mul_count: int

    def csv_row(self) -> str:
        return (
            f"{self.algo},{self.n},{self.k},{self.N},{int(self.q_is_one)},"
            f"{self.p},{self.seed},{self.ms:.3f},{self.mul_count}"
        )


def _run_algo(algo: str, inst: ProblemInstance):
    if algo == "dense":
        return dense_solve(inst)
    if algo == "dac":
        return dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    if algo == "newton":
        return newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    raise ValueError(f"unknown algorithm {algo!r}")


def bench_case(algo: str, inst: ProblemInstance, seed: int, k: int, N: int, reps: int = 1) -> BenchRecord:
    """Median-of-reps wall time and the deterministic mul count, reps >= 1.

    k and N are the requested order and precision, which the record
    keeps: a k = 0 request is solved as its reduced instance, of order 1
    and precision N + 1.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    times = []
    for _ in range(reps):
        m0 = instrument.mul_counter.value
        t0 = time.perf_counter()
        _run_algo(algo, inst)
        times.append((time.perf_counter() - t0) * 1e3)
        mul_count = instrument.mul_counter.value - m0
    return BenchRecord(
        algo=algo,
        n=inst.n,
        k=k,
        N=N,
        q_is_one=inst.ctx.q == 1,
        p=inst.p,
        seed=seed,
        ms=statistics.median(times),
        mul_count=mul_count,
    )


def case_seed(seed: int, n: int, N: int) -> int:
    """The seed of the (n, N) instance of a bench run with this seed."""
    return seed + 1_000_003 * n + N


def run_bench(
    ns,
    Ns,
    k: int,
    q_mode: str,
    algos,
    seed: int,
    reps: int,
    p: int,
) -> list[BenchRecord]:
    """One good-spectrum instance per (n, N), shared across the algorithms."""
    records = []
    for n in ns:
        for N in Ns:
            s = case_seed(seed, n, N)
            inst = random_instance(s, p, n, N, k, q_mode, require_good_spectrum=True)
            for algo in algos:
                records.append(bench_case(algo, inst, s, k, N, reps))
    return records


def to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"

