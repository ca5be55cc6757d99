"""Outside-in layer tracer for qdsolve.

The tracer wraps the public entry points of each module on the solve
path, plus the few private helpers the engines call directly.  A
function is replaced at every place it is bound: every attribute of a
qdsolve module that holds the original object, under whatever name, gets
the wrapper, and methods are replaced on their class.  Nothing under src/ is edited; ``install``
and ``uninstall`` swap the bindings around one traced solve.

Spans live in memory.  A span's self time is its duration minus the
time of the wrapped spans it encloses.  A re-entrant name (``rdac``
calls itself, ``as_poly_prec`` may call ``truncate``) counts every call
and its exact self time, but only its outermost span contributes
inclusive time and ``mul_count``, so recursion is never double counted.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (layer, span, module, attribute); "Class.method" names a method.
SPANS = (
    ("convolution", "conv_trunc", "convolution", "conv_trunc"),
    ("convolution", "direct", "convolution", "_conv_direct"),
    ("convolution", "ntt", "convolution", "_conv_ntt"),
    ("polymat", "mul", "polymat", "SeriesMatrix.mul"),
    ("polymat", "inv_newton", "polymat", "SeriesMatrix.inv_newton"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.__add__"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.__neg__"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.scale"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.shift"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.truncate"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.as_poly_prec"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.delta"),
    ("polymat", "elementwise", "polymat", "SeriesMatrix.sigma"),
    ("linalg", "rref", "linalg", "_rref"),
    ("linalg", "mat_inv", "linalg", "mat_inv"),
    ("linalg", "lin_solve", "linalg", "lin_solve"),
    ("linalg", "sylvester_solve", "linalg", "sylvester_solve"),
    ("linalg", "char_poly", "linalg", "char_poly"),
    ("spectrum", "good_spectrum", "spectrum", "good_spectrum"),
    ("spectrum", "singular_indices", "spectrum", "singular_indices"),
    ("spectrum", "diagonalize", "spectrum", "diagonalize"),
    ("series", "integrate", "series", "QContext.integrate"),
    ("dac", "rdac", "dac", "rdac"),
    ("dac", "op_E", "dac", "op_E"),
    ("dac", "dac_solve", "dac", "dac_solve"),
    ("newton", "newton_ae", "newton", "_newton_ae_impl"),
    ("newton", "diff_sylvester", "newton", "diff_sylvester"),
    ("newton", "diff_sylvester_differential", "newton", "diff_sylvester_differential"),
    ("newton", "splitting_lemma", "newton", "splitting_lemma"),
    ("newton", "pol_coeffs_de", "newton", "pol_coeffs_de"),
    ("newton", "newton_solve", "newton", "newton_solve"),
    ("oracle", "stepwise", "oracle", "_solve_term_by_term"),
    ("oracle", "dense_solve", "oracle", "dense_solve"),
    ("solution", "resolve_affine_family", "solution", "resolve_affine_family"),
)

# Spans that also report the mul_count of their outermost calls.
KERNELS = ("convolution.direct", "convolution.ntt", "polymat.mul", "linalg.rref")

# Binding sites the engines reach a name through.  A site that still binds
# the name but was not patched is a problem (that layer would silently lose
# calls); a site that no longer binds it at all is fine.
REQUIRED_SITES = {
    "conv_trunc": ("polymat", "series"),
    "mat_inv": ("linalg", "dac", "newton", "polymat"),
    "lin_solve": ("linalg", "oracle", "solution", "spectrum"),
    "_rref": ("linalg", "oracle"),
}


def _conv_probe(extra, key, args):
    a, b = args[0], args[1]
    extra[key + ".pairs"] = extra.get(key + ".pairs", 0) + len(a) * len(b)
    # int64 operands read plus the truncated product written
    nbytes = 8 * (len(a) + len(b) + args[3])
    extra["convolution.bytes"] = extra.get("convolution.bytes", 0) + nbytes


def _op_e_probe(extra, key, args):
    # rdac calls op_E at precision N on a low half of length m = ceil(N/2)
    # and keeps coefficients m..N-1 of the product
    prec = args[5]
    extra["op_E.kept"] = extra.get("op_E.kept", 0) + prec - (prec + 1) // 2
    extra["op_E.total"] = extra.get("op_E.total", 0) + prec


PROBES = {
    "convolution.direct": _conv_probe,
    "convolution.ntt": _conv_probe,
    "dac.op_E": _op_e_probe,
}


class Tracer:
    """Per-solve span statistics for the qdsolve package loaded in this process."""

    def __init__(self):
        self.package = "qdsolve"
        self.counter = sys.modules["qdsolve.instrument"].mul_counter
        self.stack: list[list[int]] = []
        self.depth: dict[str, int] = {}
        self.stats: dict[str, list[int]] = {}
        self.extra: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        # what the self-check must report: targets gone, sites left unpatched
        self.problems: set[str] = set()
        self._wrappers = self._build()

    def _resolve(self, module: str, attr: str):
        """(owner, name, function) for one SPANS target, or None when it is gone."""
        owner = sys.modules.get(f"{self.package}.{module}")
        name = attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name, None)
            fn = None if owner is None else owner.__dict__.get(name)
        else:
            fn = getattr(owner, name, None)
        return None if fn is None else (owner, name, fn)

    def _build(self):
        out = []
        for layer, span, module, attr in SPANS:
            found = self._resolve(module, attr)
            if found is None:
                self.problems.add(f"{module}.{attr} not found; span {layer}.{span} is not traced")
                continue
            owner, name, fn = found
            out.append((owner, name, fn, self._wrap(fn, f"{layer}.{span}")))
        return out

    def _wrap(self, fn, key):
        stack, depth, counter = self.stack, self.depth, self.counter
        probe = PROBES.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            d = depth.get(key, 0)
            depth[key] = d + 1
            frame = [0]
            stack.append(frame)
            m0 = counter.value
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                depth[key] = d
                s = tracer.stats.get(key)
                if s is None:
                    s = tracer.stats[key] = [0, 0, 0, 0]
                s[0] += 1
                s[1] += dur - frame[0]
                if d == 0:
                    s[2] += dur
                    s[3] += counter.value - m0
                if probe is not None:
                    probe(tracer.extra, key, args)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Bind every wrapper at every site that holds the original, and reset the stats."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.stats, self.extra = {}, {}
        self.stack.clear()
        self.depth.clear()
        prefix = self.package + "."
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]
        functions = {}
        for owner, name, fn, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._saved.append((owner, name, fn))
                setattr(owner, name, wrapper)
            else:
                functions[id(fn)] = (fn, wrapper)
        # every module attribute holding an original, under any name
        patched: dict[str, set[str]] = {}
        for mod in modules:
            for attr, value in list(mod.__dict__.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
                    patched.setdefault(value.__name__, set()).add(mod.__name__[len(prefix):])
        for name, sites in REQUIRED_SITES.items():
            for site in sites:
                mod = sys.modules.get(f"{prefix}{site}")
                if mod is not None and name in mod.__dict__ and site not in patched.get(name, ()):
                    self.problems.add(f"{site}.{name} is bound to another object and not traced")

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
