"""Ground truth: the nN-dimensional dense solver, reduction of k = 0,
residual checking and reproducible random instances.

``dense_solve`` has two interchangeable strategies.  For small systems
it literally materializes the nN x nN matrix of the coefficient map
F -> x^k delta(F) - A sigma(F) (unknowns ordered coefficient-major) and
hands it to lin_solve.  Above the size threshold it performs the same
elimination organized as block-forward substitution down the
block-triangular operator matrix: each coefficient is solved in turn,
singular steps introduce placeholder parameters and emit affine
constraints, and one final linear solve resolves the parameters.  Both
routes accept every instance, make no spectrum assumptions, and are
cross-checked against each other in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instrument
from .errors import PreconditionError
from .field import PrimeField
from .linalg import Matrix, _rref, lin_solve
from .polymat import SeriesMatrix
from .series import QContext
from .solution import SolutionSpace, resolve_affine_family, spaces_equal  # noqa: F401
from .spectrum import good_spectrum

_INT64 = np.int64

# n*N at or below this uses the literal operator-matrix route
DENSE_MATRIX_LIMIT = 600


@dataclass
class ProblemInstance:
    """One solve task: x^k delta(F) = A sigma(F) + C mod x^N over Z/pZ."""

    field: PrimeField
    ctx: QContext
    n: int
    N: int
    A: SeriesMatrix
    C: SeriesMatrix

    def __post_init__(self):
        p = self.field.p
        if self.ctx.field.p != p:
            raise ValueError("context and field disagree")
        if self.ctx.q == 1 and p <= self.N:
            raise PreconditionError(
                f"q = 1 requires p > N for nonzero gamma values (p={p}, N={self.N})"
            )
        if self.A.rows != self.n or self.A.cols != self.n or self.C.rows != self.n:
            raise ValueError("coefficient shapes disagree with n")
        if self.A.prec < self.N or self.C.prec < self.N:
            raise ValueError("coefficients must be known at least mod x^N")
        self.A = self.A.truncate(self.N)
        self.C = self.C.truncate(self.N)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def k(self) -> int:
        return self.ctx.k


def reduce_k0(A: SeriesMatrix, C: SeriesMatrix, N: int):
    """Rewrite delta(F) = A sigma(F) + C mod x^N as an order-1 instance.

    Returns (x*A, x*C, N + 1, 1); F solves the original iff it solves
    the returned equation mod x^(N+1).
    """
    return A.truncate(N).shift(1), C.truncate(N).shift(1), N + 1, 1


def residual(F: SeriesMatrix, inst: ProblemInstance, homogeneous: bool = False) -> SeriesMatrix:
    """x^k delta(F) - A sigma(F) - C mod x^N; zero iff F solves."""
    ctx, N = inst.ctx, inst.N
    if F.prec < N:
        raise ValueError("candidate solution known to lower precision than N")
    Ft = F.truncate(N)
    out = Ft.delta(ctx).shift(ctx.k).truncate(N) - inst.A.mul(Ft.sigma(ctx), N)
    if not homogeneous:
        out = out - inst.C
    return out


def _solve_operator_matrix(inst: ProblemInstance) -> SolutionSpace | None:
    n, N, p, k = inst.n, inst.N, inst.p, inst.k
    ctx = inst.ctx
    qp = ctx.qpow_slice(N)
    gam = ctx.gamma_slice(N)
    Ad = inst.A.data
    La = Ad.shape[2]
    L = np.zeros((N, n, N, n), dtype=_INT64)
    for d in range(La):
        js = np.arange(N - d)
        instrument.mul_counter.add(len(js) * n * n)
        L[js + d, :, js, :] = (-qp[js, None, None] * Ad[None, :, :, d]) % p
    js = np.arange(N - k + 1) if N - k + 1 > 0 else np.arange(0)
    for t in range(n):
        L[js + k - 1, t, js, t] = (L[js + k - 1, t, js, t] + gam[js]) % p
    Cd = inst.C.data
    rhs = np.zeros((N, n), dtype=_INT64)
    rhs[: Cd.shape[2]] = np.swapaxes(Cd[:, 0, :], 0, 1)
    sol = lin_solve(Matrix(p, L.reshape(N * n, N * n)), Matrix(p, rhs.reshape(N * n, 1)))
    if sol is None:
        return None
    part = SeriesMatrix(p, np.swapaxes(sol.particular.a.reshape(N, n), 0, 1)[:, None, :], N)
    t = sol.nullspace.cols
    basis = SeriesMatrix(
        p, np.swapaxes(sol.nullspace.a.reshape(N, n, t), 0, 1).transpose(0, 2, 1), N
    )
    return SolutionSpace(part, basis)


def _solve_term_by_term(inst: ProblemInstance) -> SolutionSpace | None:
    n, N, p, k = inst.n, inst.N, inst.p, inst.k
    ctx = inst.ctx
    qp = ctx.qpow_slice(N)
    gam = ctx.gamma_slice(N + 1)
    Ad = inst.A.data
    La = Ad.shape[2]
    Cd = inst.C.data
    Lc = Cd.shape[2]
    eye = np.eye(n, dtype=_INT64)
    width = 1
    F = np.zeros((N, n, 8), dtype=_INT64)  # affine rows, grown on demand
    G = np.zeros((N, n, 8), dtype=_INT64)  # q^j-twisted copy used in the sums
    cons: list[tuple[np.ndarray, int]] = []  # (affine row of length width, width then)

    vector_path = n == 1
    if vector_path:
        A1 = Ad[0, 0, :] if La else np.zeros(1, dtype=_INT64)
        split = N * (p - 1) * (p - 1) >= 2**63
        if split:
            s = (p.bit_length() + 1) // 2
            A1hi, A1lo = A1 >> s, A1 & ((1 << s) - 1)

    for i in range(N):
        if vector_path:
            dmax = min(i, La - 1)
            if dmax >= 1:
                seg = G[i - dmax : i, 0, :width][::-1]
                instrument.mul_counter.add(dmax * width)
                if split:
                    hi = A1hi[1 : dmax + 1] @ seg
                    lo = A1lo[1 : dmax + 1] @ seg
                    acc = ((hi % p) * ((1 << s) % p) + lo) % p
                else:
                    acc = (A1[1 : dmax + 1] @ seg) % p
                rhs = acc[None, :].copy()
            else:
                rhs = np.zeros((1, width), dtype=_INT64)
            if i < Lc:
                rhs[0, 0] = (rhs[0, 0] + Cd[0, 0, i]) % p
        else:
            rhs = np.zeros((n, width), dtype=_INT64)
            if i < Lc:
                rhs[:, 0] = Cd[:, 0, i]
            for j in range(max(0, i - La + 1), i):
                d = i - j
                instrument.mul_counter.add(n * n * width)
                rhs = (rhs + Ad[:, :, d] @ G[j, :, :width]) % p
        j = i - k + 1
        if k > 1 and 0 <= j < i:
            instrument.mul_counter.add(n * width)
            rhs = (rhs - int(gam[j]) * F[j, :, :width]) % p
        # the step matrix: gamma_i Id - q^i A0 for k = 1, else -q^i A0
        A0 = Ad[:, :, 0] if La else np.zeros((n, n), dtype=_INT64)
        instrument.mul_counter.add(n * n)
        if k == 1:
            M = (int(gam[i]) * eye - int(qp[i]) * A0) % p
        else:
            M = (-int(qp[i]) * A0) % p
        aug = np.hstack([M, rhs % p])
        red, pivots = _rref(aug, p, n)
        rank = len(pivots)
        for row in red[rank:]:
            if np.any(row[n:]):
                cons.append((row[n:].copy(), width))
        nfree = n - rank
        if nfree:
            newwidth = width + nfree
            if newwidth > F.shape[2]:
                grow = max(newwidth, 2 * F.shape[2])
                F = np.concatenate([F, np.zeros((N, n, grow - F.shape[2]), dtype=_INT64)], axis=2)
                G = np.concatenate([G, np.zeros((N, n, grow - G.shape[2]), dtype=_INT64)], axis=2)
        fi = np.zeros((n, width + (nfree if nfree else 0)), dtype=_INT64)
        pivset = set(pivots)
        free_cols = [c for c in range(n) if c not in pivset]
        for r_, c in enumerate(pivots):
            fi[c, : width] = red[r_, n:]
            for fj, fc in enumerate(free_cols):
                fi[c, width + fj] = (-red[r_, fc]) % p
        for fj, fc in enumerate(free_cols):
            fi[fc, width + fj] = 1
        if nfree:
            width += nfree
        F[i, :, :width] = fi[:, :width]
        instrument.mul_counter.add(n * width)
        G[i, :, :width] = int(qp[i]) * fi[:, :width] % p

    nparams = width - 1
    fam = SeriesMatrix(p, np.swapaxes(F[:, :, :width], 0, 2).transpose(1, 0, 2), N)
    # fam data ordering: (n, width, N)
    if cons:
        coeffs = np.zeros((len(cons), nparams), dtype=_INT64)
        const = np.zeros(len(cons), dtype=_INT64)
        for idx, (row, w_then) in enumerate(cons):
            const[idx] = row[0]
            coeffs[idx, : w_then - 1] = row[1:w_then]
    else:
        coeffs = np.zeros((0, nparams), dtype=_INT64)
        const = np.zeros(0, dtype=_INT64)
    return resolve_affine_family(fam, coeffs, const)


def dense_solve(inst: ProblemInstance, method: str = "auto") -> SolutionSpace | None:
    """Solve the full nN-dimensional linear system; the universal oracle.

    No spectrum assumptions; None reports inconsistency.  ``method`` is
    "matrix", "stepwise" or "auto" (size-based choice).
    """
    if method == "auto":
        method = "matrix" if inst.n * inst.N <= DENSE_MATRIX_LIMIT else "stepwise"
    if method == "matrix":
        return _solve_operator_matrix(inst)
    if method == "stepwise":
        return _solve_term_by_term(inst)
    raise ValueError(f"unknown dense_solve method {method!r}")


def make_instance(p: int, q: int, k: int, n: int, N: int, A: SeriesMatrix, C: SeriesMatrix) -> ProblemInstance:
    field = PrimeField(p)
    if k == 0:
        A2, C2, N2, k2 = reduce_k0(A, C, N)
        return ProblemInstance(field, QContext(field, q, k2), n, N2, A2, C2)
    return ProblemInstance(field, QContext(field, q, k), n, N, A, C)


def random_coefficients(
    seed: int,
    p: int,
    n: int,
    N: int,
    k: int,
    q_mode: str | int = "one",
    require_good_spectrum: bool = False,
    max_retries: int = 500,
) -> tuple[QContext, SeriesMatrix, SeriesMatrix]:
    """(ctx, A, C) of a uniform random instance of order k >= 0, deterministic
    in the seed (counter-based generator).

    q_mode is "one", "random" (q uniform in [2, p)) or an explicit value of
    q.  ctx is the context the instance is solved in: (q, k), or (q, 1)
    for k = 0, whose instances are solved through the order-1 reduction.
    With require_good_spectrum and k >= 1 the constant coefficient of A is
    rejection-sampled until the good-spectrum test passes; for k = 0 the
    reduced instance has zero constant matrix, whose spectrum test reduces
    to the gamma conditions, so there is nothing to reject on.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    field = PrimeField(p)
    if q_mode == "one":
        q = 1
    elif q_mode == "random":
        q = int(gen.integers(2, p))
    elif isinstance(q_mode, int):
        q = q_mode
    else:
        raise ValueError("q_mode must be 'one', 'random' or an integer")
    ctx = QContext(field, q, k or 1)
    Adata = gen.integers(0, p, size=(n, n, N), dtype=np.int64)
    Cdata = gen.integers(0, p, size=(n, 1, N), dtype=np.int64)
    if require_good_spectrum and k >= 1:
        for attempt in range(max_retries + 1):
            rep = good_spectrum(Matrix(p, Adata[:, :, 0]), ctx, N)
            if rep.good:
                break
            if attempt == max_retries:
                raise PreconditionError(
                    f"no good-spectrum constant matrix found in {max_retries} draws"
                )
            Adata[:, :, 0] = gen.integers(0, p, size=(n, n), dtype=np.int64)
    return ctx, SeriesMatrix(p, Adata, N), SeriesMatrix(p, Cdata, N)


def random_instance(
    seed: int,
    p: int,
    n: int,
    N: int,
    k: int,
    q_mode: str | int = "one",
    require_good_spectrum: bool = False,
    max_retries: int = 500,
) -> ProblemInstance:
    """The instance drawn by random_coefficients; k = 0 is returned reduced."""
    ctx, A, C = random_coefficients(seed, p, n, N, k, q_mode, require_good_spectrum, max_retries)
    if k == 0:
        A, C, N, _ = reduce_k0(A, C, N)
    return ProblemInstance(ctx.field, ctx, n, N, A, C)
