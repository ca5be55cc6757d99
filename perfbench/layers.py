"""Per-layer metrics of a traced run, and the tracer's self-checks.

Names read ``<engine>_solve.<layer>.<span>.<stat>``; the layers are the
qdsolve modules wrapped in tracer.SPANS.  Each value is the median over
the run's traced solves of that engine.  PER_LAYER fixes the reported
set (the spans that do work on at least one workload); a span idle on
the current workload reports 0.
"""

from __future__ import annotations

import statistics

from tracer import KERNELS

ENGINE_PREFIX = {"dense": "dense_solve", "dac": "dac_solve", "newton": "newton_solve"}

_SPANS = {
    "dense_solve": (
        "oracle.dense_solve", "oracle.stepwise", "linalg.rref", "linalg.lin_solve",
        "solution.resolve_affine_family", "polymat.elementwise",
    ),
    "dac_solve": (
        "dac.dac_solve", "dac.rdac", "dac.op_E", "spectrum.singular_indices",
        "linalg.char_poly", "linalg.mat_inv", "linalg.rref", "linalg.lin_solve",
        "solution.resolve_affine_family", "polymat.mul", "polymat.elementwise",
        "convolution.conv_trunc", "convolution.direct", "convolution.ntt",
    ),
    "newton_solve": (
        "newton.newton_solve", "newton.newton_ae", "newton.diff_sylvester",
        "newton.diff_sylvester_differential", "newton.splitting_lemma",
        "newton.pol_coeffs_de", "spectrum.good_spectrum", "spectrum.singular_indices",
        "spectrum.diagonalize", "linalg.char_poly", "linalg.mat_inv", "linalg.lin_solve",
        "linalg.rref", "linalg.sylvester_solve", "polymat.mul", "polymat.inv_newton",
        "polymat.elementwise", "convolution.conv_trunc", "convolution.direct",
        "convolution.ntt", "series.integrate",
    ),
}

_DERIVED = {
    "dense_solve": (),
    "dac_solve": (
        "convolution.ntt_pair_share", "convolution.bytes_computed", "polymat.conv_per_mul",
        "dac.op_E.kept_ratio",
    ),
    "newton_solve": (
        "convolution.ntt_pair_share", "convolution.bytes_computed", "polymat.conv_per_mul",
    ),
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "conv_per_mul")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def _names() -> list[str]:
    out = []
    for prefix, spans in _SPANS.items():
        for span in spans:
            out += [f"{prefix}.{span}.calls", f"{prefix}.{span}.self_s"]
            if span in KERNELS:
                out.append(f"{prefix}.{span}.mul_count")
        out += [f"{prefix}.{d}" for d in _DERIVED[prefix]]
        out.append(f"{prefix}.trace_overhead_s")
    return out


PER_LAYER = {name: _unit(name) for name in _names()}

# Metrics the prediction table says each workload moves; each must read
# nonzero there, which catches a binding site the tracer missed (a missed
# conv_trunc site, say, leaves conv_per_mul at 0).
EXPECTED = {
    "scalar_long": (
        "dac_solve.polymat.elementwise.calls", "dac_solve.dac.rdac.calls",
        "dac_solve.convolution.ntt.calls", "dac_solve.convolution.ntt_pair_share",
        "newton_solve.convolution.ntt.calls", "newton_solve.convolution.ntt_pair_share",
    ),
    "system_singular": (
        "dense_solve.oracle.stepwise.calls", "dac_solve.dac.op_E.kept_ratio",
        "dac_solve.polymat.mul.calls", "newton_solve.spectrum.good_spectrum.calls",
        "dac_solve.solution.resolve_affine_family.calls",
        "dense_solve.solution.resolve_affine_family.calls",
    ),
    "wide_k3": (
        "newton_solve.linalg.rref.calls", "newton_solve.linalg.sylvester_solve.calls",
        "dac_solve.convolution.direct.calls", "dac_solve.polymat.conv_per_mul",
        "newton_solve.convolution.direct.calls", "newton_solve.polymat.conv_per_mul",
        "dense_solve.oracle.stepwise.calls",
    ),
    "differential_k2": (
        "newton_solve.series.integrate.calls", "newton_solve.newton.pol_coeffs_de.calls",
    ),
}


def _one_solve(prefix: str, stats: dict, extra: dict) -> dict[str, float]:
    out = {}
    for key, (calls, self_ns, _incl_ns, muls) in stats.items():
        out[f"{prefix}.{key}.calls"] = calls
        out[f"{prefix}.{key}.self_s"] = self_ns / 1e9
        if key in KERNELS:
            out[f"{prefix}.{key}.mul_count"] = muls
    pairs_ntt = extra.get("convolution.ntt.pairs", 0)
    pairs = pairs_ntt + extra.get("convolution.direct.pairs", 0)
    if pairs:
        out[f"{prefix}.convolution.ntt_pair_share"] = pairs_ntt / pairs
        out[f"{prefix}.convolution.bytes_computed"] = extra.get("convolution.bytes", 0)
    muls = stats.get("polymat.mul")
    if muls:
        conv = stats.get("convolution.conv_trunc", (0,))[0]
        out[f"{prefix}.polymat.conv_per_mul"] = conv / muls[0]
    if extra.get("op_E.total"):
        out[f"{prefix}.dac.op_E.kept_ratio"] = extra["op_E.kept"] / extra["op_E.total"]
    return out


def per_layer_metrics(samples, layer_runs) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note) for every PER_LAYER name, plus unlisted nonzero ones."""
    per_engine: dict[str, list[dict]] = {}
    for engine, stats, extra in layer_runs:
        prefix = ENGINE_PREFIX[engine]
        per_engine.setdefault(prefix, []).append(_one_solve(prefix, stats, extra))
    values: dict[str, float] = {}
    for prefix, runs in per_engine.items():
        names = {name for run in runs for name in run}
        for name in names:
            values[name] = statistics.median(run.get(name, 0) for run in runs)
    for engine, prefix in ENGINE_PREFIX.items():
        traced = [s.seconds for s in samples if s.engine == engine and s.traced]
        plain = [s.seconds for s in samples if s.engine == engine and not s.traced]
        if traced and plain:
            values[f"{prefix}.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    count = {prefix: len(runs) for prefix, runs in per_engine.items()}
    out = {}
    for name, unit in PER_LAYER.items():
        prefix = name.split(".")[0]
        out[name] = (values.get(name, 0), unit, f"median of {count.get(prefix, 0)} traced solves")
    for name in sorted(set(values) - set(PER_LAYER)):
        if values[name]:
            print(f"perfbench: {name} = {values[name]:.6g} is not a listed metric")
    return out


def self_check(workload: str, samples, metrics, tracer) -> list[str]:
    """Problems found: tracing changed a mul_count or an answer, an expected
    span is idle, or the tracer could not bind a target."""
    problems = sorted(tracer.problems)
    seen: dict[tuple, set] = {}
    for s in samples:
        seen.setdefault((s.engine, s.index, s.traced), set()).add((s.muls, s.answer))
    for (engine, index, traced), results in seen.items():
        if traced and results != seen.get((engine, index, False)):
            problems.append(f"{engine} on instance {index}: traced mul_count or answer differs")
    for name in EXPECTED.get(workload, ()):
        if not metrics[name][0]:
            problems.append(f"{name} reads 0 on {workload}")
    return problems
