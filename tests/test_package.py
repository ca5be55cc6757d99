import ast
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qdsolve
from qdsolve import instrument
from qdsolve.oracle import random_instance

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "PrimeField", "QContext", "SeriesMatrix", "ProblemInstance", "SolutionSpace",
    "make_instance", "random_instance", "residual", "spaces_equal",
    "dense_solve", "dac_solve", "newton_solve",
    "QdsolveError", "UsageError", "ProblemFormatError", "PreconditionError",
    "SpectrumError", "InternalInvariantError",
}


def test_public_names():
    assert set(qdsolve.__all__) == PUBLIC
    assert len(qdsolve.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert hasattr(qdsolve, name), name
    # every name the README's library sketch imports is exported
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"from qdsolve import \(([^)]*)\)", readme)
    assert block is not None
    names = {tok.strip() for tok in block.group(1).split(",") if tok.strip()}
    assert names and names <= PUBLIC


# numpy calls that form a matrix or polynomial product, whose int64 sums
# overflow unless they are split or chunked
_PRODUCT_CALLS = {"dot", "matmul", "convolve", "einsum", "tensordot"}


def test_products_only_in_kernels():
    # residue products are formed in convolution.py only; everywhere else a
    # product must call one of its kernels
    pkg = Path(qdsolve.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "convolution.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PRODUCT_CALLS
            ):
                found.append(f"{path.name}:{node.lineno}: .{node.func.attr}")
    assert not found, found


def test_product_kernels_defined_only_in_convolution():
    # the constant-matrix product and the route decision live in one module;
    # the series type reaches them only through conv_trunc
    pkg = Path(qdsolve.__file__).resolve().parent
    defined = sorted(
        (path.name, node.name)
        for path in pkg.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("_matmul_mod", "conv_trunc")
    )
    assert defined == [("convolution.py", "_matmul_mod"), ("convolution.py", "conv_trunc")]
    assert "_matmul_mod" not in (pkg / "polymat.py").read_text()


def test_modulus_ceiling_stated_once():
    # the int64 kernels' ceiling 2**31 is written once, as field._P_CEILING;
    # every other module that tests a modulus against it imports that name
    pkg = Path(qdsolve.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Pow)
                    and getattr(node.left, "value", None) == 2
                    and getattr(node.right, "value", None) == 31
                ) or getattr(node, "value", None) == 2**31:
                    where = [t.id for t in getattr(top, "targets", []) if isinstance(t, ast.Name)]
                    if (path.name, where) != ("field.py", ["_P_CEILING"]):
                        found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    imports = [
        alias.name
        for node in ast.walk(ast.parse((pkg / "convolution.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "field"
        for alias in node.names
    ]
    assert "_P_CEILING" in imports


# where a three-argument pow may stand: field.py is the scalar arithmetic,
# _rref charges its pivot inverses, and the audit product is uncharged by
# design; anywhere else a modular power would add nothing to mul_counter
_POW_ALLOWED = {("linalg.py", "_rref"), ("oracle.py", "_kronecker_product")}


def test_modular_pow_only_where_charged():
    pkg = Path(qdsolve.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "field.py":
            continue
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "pow"
                    and len(node.args) + len(node.keywords) == 3
                    and (path.name, name) not in _POW_ALLOWED
                ):
                    found.append(f"{path.name}:{node.lineno} in {name}")
    assert not found, found


# the kernels that charge mul_counter: field.mulmod is the elementwise
# product, and convolution._step_mod is one step of the step kernel, its
# window, gamma and table products reduced together
_CHARGING_KERNELS = {
    ("field.py", "mulmod"), ("field.py", "inverses"),
    ("convolution.py", "_matmul_mod"), ("linalg.py", "_rref"), ("linalg.py", "_column_step"),
    ("convolution.py", "_conv_direct"), ("convolution.py", "_conv_ntt"),
    ("convolution.py", "_step_mod"),
}
# products reduced mod p that are uncharged by design: set-up tables (the
# powers and the 1/gamma_i table's inverse tree), the primality test and
# the check's audit product
_UNCHARGED_BY_DESIGN = {
    ("field.py", "powers"), ("field.py", "_inverse_tree"), ("field.py", "is_prime"),
    ("series.py", "QContext._grow"), ("oracle.py", "_kronecker_product"),
}


def _functions(path):
    """(qualified name, node) for every top-level function and method; any
    other module- or class-level statement comes with the name None."""
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield (f"{top.name}.{node.name}" if isinstance(node, ast.FunctionDef) else None), node
        else:
            yield (top.name if isinstance(top, ast.FunctionDef) else None), top


def test_mul_counter_only_in_kernels():
    pkg = Path(qdsolve.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        for name, fn in _functions(path):
            if (path.name, name) in _CHARGING_KERNELS:
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "add"
                    and "mul_counter" in (getattr(node.value, "attr", None), getattr(node.value, "id", None))
                ):
                    found.append(f"{path.name}:{node.lineno} in {name}")
    assert not found, found


def _outside_subscripts(node):
    """node and its descendants, not descending into subscript indices."""
    yield node
    for field, value in ast.iter_fields(node):
        if isinstance(node, ast.Subscript) and field == "slice":
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _outside_subscripts(child)


def test_reduced_products_only_in_kernels():
    # x * y % p or (a + x * y) % p outside the kernels is a product that
    # mulmod would charge and this one does not
    pkg = Path(qdsolve.__file__).resolve().parent
    allowed = _CHARGING_KERNELS | _UNCHARGED_BY_DESIGN
    found = []
    for path in sorted(pkg.glob("*.py")):
        for name, fn in _functions(path):
            if (path.name, name) in allowed:
                continue
            for node in _outside_subscripts(fn):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                    found += [
                        f"{path.name}:{m.lineno} in {name}"
                        for m in _outside_subscripts(node.left)
                        if isinstance(m, ast.BinOp) and isinstance(m.op, ast.Mult)
                    ]
    assert not found, found


def test_left_side_only_through_theta():
    # the engines and the check form x^k delta(F) through QContext.theta,
    # which reads only the planes that reach the window; delta(..).shift(k)
    # would allocate k planes before the cut
    pkg = Path(qdsolve.__file__).resolve().parent
    found = []
    for name in ("oracle.py", "dac.py", "newton.py"):
        for node in ast.walk(ast.parse((pkg / name).read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "delta":
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_traced_names_resolve():
    # the benchmark tracer wraps these names; read its table without running it
    src = (ROOT / "perfbench" / "tracer.py").read_text()
    spans = next(
        node.value for node in ast.parse(src).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets)
    )
    targets = ast.literal_eval(spans)
    assert targets
    for layer, span, module, attr in targets:
        owner = importlib.import_module(f"qdsolve.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        fn = vars(owner).get(name)
        assert inspect.isfunction(fn), f"{layer}.{span}: qdsolve.{module}.{attr}"


def test_tracer_probe_positions():
    # the tracer's probes read these arguments by position: op_E's prec
    # (op_E.kept_ratio) and the convolutions' out_len (convolution.bytes)
    from qdsolve import convolution, dac

    assert list(inspect.signature(dac.op_E).parameters)[5] == "prec"
    for fn in (convolution._conv_shift, convolution._conv_direct, convolution._conv_ntt):
        assert list(inspect.signature(fn).parameters)[3] == "out_len", fn.__name__


def _bindings():
    """Every attribute of a loaded qdsolve module, and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qdsolve" or name.startswith("qdsolve.")):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__.startswith("qdsolve"):
                for member, v in vars(value).items():
                    out[name, f"{attr}.{member}"] = v
    return out


def test_tracer_installs_cleanly_around_each_engine():
    # the benchmark's traced run installs this tracer around every solve; a
    # SPANS target gone, or a REQUIRED_SITES site bound to another object,
    # shows up there as a problem and makes that run incorrect
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    inst = random_instance(3, 134217757, 2, 16, 1, "random", require_good_spectrum=True)
    engines = {
        "oracle.dense_solve": lambda: qdsolve.dense_solve(inst),
        "dac.dac_solve": lambda: qdsolve.dac_solve(inst.A, inst.C, inst.N, inst.ctx),
        "newton.newton_solve": lambda: qdsolve.newton_solve(inst.A, inst.C, inst.N, inst.ctx),
    }
    before = _bindings()
    tracer = tracer_module.Tracer()
    for span, solve in engines.items():
        m0 = instrument.mul_counter.value
        tracer.install()
        try:
            solve()
        finally:
            tracer.uninstall()
        assert tracer.stats[span][0] == 1, span
        assert tracer.stats[span][3] == instrument.mul_counter.value - m0, span
    assert not tracer.problems, sorted(tracer.problems)
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_benchmark_traced_self_check(workload):
    # the benchmark's traced run checks every answer and that each layer
    # metric it expects reads nonzero; one that reads 0 fails it only there
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr
