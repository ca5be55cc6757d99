"""qdsolve benchmark: one workload, one seed, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qdsolve checkout; the library is imported from
its ``src/`` directory, never from an installed copy.  The run

1. draws the workload's inputs from the seed (perfbench/workloads.py),
2. sets up several times -- import qdsolve, build the inputs, one
   untimed warm-up solve per engine -- and reports the median as setup_s,
3. solves the pool instances with dense_solve, dac_solve and
   newton_solve in rotating order, one solve at a time, for S seconds,
4. checks every answer outside the timed region (perfbench/arith.py),
5. prints each metric as ``name value unit note`` and, as the last line,
   one JSON object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones: per engine the solve
time and mul_count, setup_s and peak_rss_mb.  Times are wall times
rescaled by a machine-speed probe timed around each interval (see probe).
With --trace 1 every solve runs twice, untraced and under the outside-in
tracer (perfbench/tracer.py), and the metrics are the per-layer ones.

Exit status 2, with no result line, when the checkout holds no qdsolve
sources or a setup round fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ENGINES = ("dense", "dac", "newton")
# setup is measured in this many fresh processes, plus once in this one
SETUP_CHILDREN = 2
# every engine solves at least this often, however long one solve takes
MIN_PASSES = 3
# Machine-speed probe: fixed interpreter and small-array numpy work, the
# mix qdsolve's solve loops are made of, timed between consecutive measured
# intervals.  Reported times are rescaled to a machine on which the probe
# takes PROBE_NOMINAL_S (about its time on the idle 2-core Xeon box this
# benchmark was written on).
PROBE_LOOP = 40_000
PROBE_NUMPY_OPS = 1_000
PROBE_NOMINAL_S = 0.004
_PROBE_ARRAY = np.arange(64, dtype=np.int64)


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    a = _PROBE_ARRAY
    for _ in range(PROBE_NUMPY_OPS):
        a = a * 7 % 1_000_003
    return time.perf_counter() - t0


class Clock:
    """Times steps between probes and rescales each to the probe's nominal speed.

    Every step is bracketed by the probe before it and the probe after it;
    the after probe is the next step's before probe.  The first probe runs
    after a throwaway one that touches the memory it uses, since probes in
    a fresh process read slow.
    """

    def __init__(self):
        probe()
        self.last = probe()

    def time(self, fn, *args):
        """(fn(*args), wall seconds, rescaled seconds)."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            after = probe()
            rescaled = wall * PROBE_NOMINAL_S * 2 / (self.last + after)
            self.last = after
        return out, wall, rescaled


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean without the fastest and slowest `cut` share of the values."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k : len(v) - k])


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_qdsolve():
    sys.path.insert(0, str(SRC))
    import qdsolve

    if Path(qdsolve.__file__).resolve().parent != SRC / "qdsolve":
        fail(f"imported qdsolve from {qdsolve.__file__}, not from {SRC}")
    return qdsolve


def solve(qd, engine: str, inst):
    """One solve through the public entry point, looked up at call time.

    An exception is printed and reported as None, the same as a missing
    answer: the run goes on and counts the solve as failed.
    """
    try:
        if engine == "dense":
            return qd.dense_solve(inst)
        if engine == "dac":
            return qd.dac_solve(inst.A, inst.C, inst.N, inst.ctx)
        return qd.newton_solve(inst.A, inst.C, inst.N, inst.ctx)
    except Exception:
        traceback.print_exc()
        return None


class Bench:
    """The inputs of one run, as numpy arrays and as qdsolve objects."""

    def __init__(self, qd, workload, seed: int):
        from workloads import make_pool

        self.qd = qd
        self.workload = workload
        self.pool = make_pool(workload, seed)
        self.problems = []
        for raw in self.pool:
            A = qd.SeriesMatrix(raw.p, raw.A, raw.N)
            C = qd.SeriesMatrix(raw.p, raw.C, raw.N)
            if not self.problems:
                self.problems.append(qd.make_instance(raw.p, raw.q, raw.k, raw.n, raw.N, A, C))
            else:
                # one shared context, so the warm-up fills its tables for every instance
                base = self.problems[0]
                self.problems.append(
                    qd.ProblemInstance(base.field, base.ctx, raw.n, raw.N, A, C)
                )
        self.warm = {}


def setup(workload_name: str, seed: int) -> tuple[float, Bench]:
    """Import qdsolve, draw the inputs, warm up; returns (rescaled seconds, bench).

    Each of the five steps is rescaled on its own, which tracks a change of
    machine speed within the set-up.  numpy is imported before the clock
    starts: it is the benchmark's own dependency, and its import cost is
    not qdsolve's.
    """
    from workloads import WORKLOADS

    clock = Clock()
    qd, _, total = clock.time(import_qdsolve)
    bench, _, seconds = clock.time(Bench, qd, WORKLOADS[workload_name], seed)
    total += seconds
    for engine in ENGINES:
        bench.warm[engine], _, seconds = clock.time(solve, qd, engine, bench.problems[0])
        total += seconds
    return total, bench


def setup_in_child(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        fail("setup round timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"setup round exited with status {done.returncode}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass(slots=True)
class Sample:
    engine: str
    index: int  # pool instance
    seconds: float  # wall time as measured
    rescaled: float  # wall time at the probe's nominal speed
    muls: int
    answer: bytes | None  # canonical key; None when the solve raised or returned None
    traced: bool


def canonical_key(space, N: int, p: int):
    from arith import canonical

    return canonical(space.particular.data, space.basis.data, N, p)


def timed_solve(bench: Bench, engine: str, index: int, clock: Clock, tracer=None):
    """One solve on the clock; returns (sample, space)."""
    qd = bench.qd
    inst = bench.problems[index]
    counter = qd.instrument.mul_counter
    if tracer is not None:
        tracer.install()
    m0 = counter.value
    try:
        space, wall, rescaled = clock.time(solve, qd, engine, inst)
    finally:
        if tracer is not None:
            tracer.uninstall()
    muls = counter.value - m0
    key = None if space is None else canonical_key(space, inst.N, inst.p)
    return Sample(engine, index, wall, rescaled, muls, key, tracer is not None), space


def measure(bench: Bench, seconds: float, tracer=None):
    """Closed loop of single solves; with a tracer each solve also runs traced."""
    samples: list[Sample] = []
    spaces: dict[tuple, object] = {}
    layer_runs: list[tuple[str, dict, dict]] = []
    t_start = time.perf_counter()
    passes = 0
    clock = Clock()
    while passes < MIN_PASSES or time.perf_counter() - t_start < seconds:
        index = passes % len(bench.problems)
        rot = passes % len(ENGINES)
        for engine in ENGINES[rot:] + ENGINES[:rot]:
            modes = [None] if tracer is None else ([None, tracer] if passes % 2 else [tracer, None])
            for mode in modes:
                sample, space = timed_solve(bench, engine, index, clock, mode)
                samples.append(sample)
                if sample.answer is not None:
                    spaces.setdefault((index, sample.answer), space)
                if mode is not None:
                    layer_runs.append((engine, dict(tracer.stats), dict(tracer.extra)))
        passes += 1
    return samples, spaces, layer_runs, passes, time.perf_counter() - t_start


def verify(bench: Bench, spaces: dict) -> dict[int, object]:
    """The verified canonical key of each pool instance, or None when none passes.

    A space passes when its particular solution and basis columns make the
    residual x^k delta(F) - A sigma(F) - C vanish mod x^N (checked with the
    benchmark's own convolution), it contains the planted F*, and its
    dimension is the one the construction fixes.  At most one space per
    instance can pass; every other answer is wrong.
    """
    from arith import echelon, flatten_columns, pad, reduce_against
    from workloads import apply_operator

    verified = {}
    for (index, key), space in spaces.items():
        raw = bench.pool[index]
        p, N = raw.p, raw.N
        part, basis = space.particular.data, space.basis.data
        ok = np.array_equal(apply_operator(raw.A, pad(part, N), raw.q, raw.k, p), raw.C)
        if ok and basis.shape[1]:
            ok = not apply_operator(raw.A, pad(basis, N), raw.q, raw.k, p).any()
        if ok:
            ech, pivots = echelon(flatten_columns(basis, N), p)
            diff = flatten_columns(raw.F_star, N)[0] - flatten_columns(part, N)[0]
            ok = len(pivots) == raw.dim and not reduce_against(diff, ech, pivots, p).any()
        if ok:
            verified[index] = key
        else:
            print(f"perfbench: instance {index}: an answer failed the independent check",
                  file=sys.stderr)
    return verified


def end_to_end(samples, setup_times) -> dict:
    """Per engine the solve time and mul_count; setup_s; peak_rss_mb.

    A solve time is the 10%-trimmed mean of the run's probe-rescaled wall
    times.  On a shared machine other tenants slow the CPU by up to 2x in
    phases of ten seconds and more; the probe around each solve slows with
    it, and the trimmed mean does not flip between fast and slow phases as
    a median can.  The raw wall-time median and minimum are printed alongside.
    """
    metrics = {}
    for engine in ENGINES:
        mine = [s for s in samples if s.engine == engine]
        raw = [s.seconds for s in mine]
        note = (f"{len(mine)} solves; wall median {statistics.median(raw):.4g} s, "
                f"fastest {min(raw):.4g} s")
        metrics[f"{engine}_solve_s"] = (trimmed_mean(s.rescaled for s in mine), "s", note)
        muls = statistics.median_low(s.muls for s in mine)
        metrics[f"{engine}_mul_count"] = (muls, "count", f"median of {len(mine)}")
    rounds = ", ".join(f"{t:.4g}" for t in setup_times)
    metrics["setup_s"] = (statistics.median(setup_times), "s", f"median of {rounds}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss of this process")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if not (SRC / "qdsolve" / "__init__.py").is_file():
        fail(f"no qdsolve sources under {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_times = [] if args.trace else [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
    seconds, bench = setup(args.workload, args.seed)
    setup_times.append(seconds)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    samples, spaces, layer_runs, passes, elapsed = measure(bench, args.seconds, tracer)

    # warm-up answers are checked too; a wrong one makes the run incorrect
    warm_keys = {}
    for engine, space in bench.warm.items():
        key = None if space is None else canonical_key(space, bench.pool[0].N, bench.pool[0].p)
        warm_keys[engine] = key
        if key is not None:
            spaces.setdefault((0, key), space)
    verified = verify(bench, spaces)
    failed = [s for s in samples if s.answer is None or verified.get(s.index) != s.answer]
    warm_ok = all(k is not None and verified.get(0) == k for k in warm_keys.values())
    correct = not failed and warm_ok

    w = bench.workload
    print(f"workload {w.name}: n={w.n} k={w.k} N={w.N} p={w.p} q={bench.pool[0].q} "
          f"seed={args.seed}; {passes} passes in {elapsed:.1f} s")
    if args.trace:
        from layers import per_layer_metrics, self_check

        metrics = per_layer_metrics(samples, layer_runs)
        problems = self_check(w.name, samples, metrics, tracer)
        for line in problems:
            print(f"perfbench: tracer self-check: {line}", file=sys.stderr)
        correct = correct and not problems
    else:
        metrics = end_to_end(samples, setup_times)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<58} {value:>16.6g} {unit:<6} {note}")
    attempted = len(samples)
    print(f"{'failed_ratio':<58} {len(failed) / attempted:>16.6g} ratio  "
          f"{len(failed)} of {attempted} solves")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
