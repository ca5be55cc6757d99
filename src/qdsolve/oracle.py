"""Ground truth: the nN-dimensional dense solver, reduction of k = 0,
residual checking and reproducible random instances.

``dense_solve`` performs the elimination of the nN x nN operator
matrix of F -> x^k delta(F) - A sigma(F) as block-forward substitution
down its block-triangular structure: each coefficient is solved in turn,
singular steps introduce placeholder parameters and emit affine
constraints, and one final linear solve resolves the parameters.  It
accepts every instance and makes no spectrum assumptions.

The literal route, which materializes that operator matrix and hands it
to one linear solve, is slower than the stepwise one at every size and
no engine calls it: it lives in the tests (``tests/operator_matrix.py``)
as their independent reference for all three engines.

The stepwise route, ``_solve_term_by_term``, is the package's one
per-coefficient step kernel.  Newton's PolCoeffsDE (``newton.pol_coeffs_de``)
is this kernel on an equation whose A is a polynomial of degree < k, and
each divide-and-conquer leaf (``dac.rdac``) is this kernel at the leaf's
base index, on a right side that already carries parameters.  Every call
with q != 1 folds the twist q^g of step g out of the whole step, so the
steps read one history array, and runs one loop over the steps on one
step table (``step_table``: the folded step matrices q^(-g) M_g and
their inverses from one ``mat_inv_stack``, for k > 1 the one matrix
-A_0).  A divide-and-conquer solve builds that table once for all its
steps and hands each leaf its slice; ``dense_solve`` and PolCoeffsDE let
the kernel build its own.  Each step is one ``convolution._step_mod``
call, which for a step the table inverts is also the product with the
table; any other step is then one elimination on its folded step matrix.

``residual``, which ``qdsolve check`` refutes solutions with, forms its
product A sigma(F) by Kronecker substitution in Python integers
(``_kronecker_product``), so the check shares no product kernel with the
engines it audits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolution import _matmul_mod, _step_mod
from .errors import PreconditionError, QdsolveError
from .field import PrimeField, mulmod
from .linalg import _affine_solve, mat_inv_stack
from .polymat import SeriesMatrix
from .series import QContext
from .solution import SolutionSpace, resolve_affine_family
from .spectrum import good_spectrum

_INT64 = np.int64

# constant matrices drawn for a good-spectrum instance before giving up
SPECTRUM_DRAWS = 500


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
            raise PreconditionError(f"context over p = {self.ctx.p} for a field over p = {p}")
        self.ctx.require_operands(self.A, self.C, self.N)
        if self.ctx.q == 1 and p <= self.N:
            raise PreconditionError(
                f"q = 1 requires p > N for nonzero gamma values (p={p}, N={self.N})"
            )
        if self.A.rows != self.n:
            raise ValueError("coefficient shapes disagree with n")
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


def _kronecker_product(A: SeriesMatrix, B: SeriesMatrix, n: int) -> SeriesMatrix:
    """A B mod x^n by Kronecker substitution in Python integers.

    Each entry is packed into one integer, coefficient t in slot t of a
    width that holds any coefficient of sum_l A_il B_lj (at most
    inner * min(La, Lb) terms below p^2), so the slots never carry.  The
    inner sums are taken on the packed integers and each slot is read back
    and reduced mod p.  No product goes through ``SeriesMatrix.mul``, the
    convolution backends or ``_matmul_mod``, so a residual formed this way
    audits those kernels instead of reusing them.
    """
    p, rows, inner, cols = A.p, A.rows, A.cols, B.cols
    a, b = A.data[:, :, :n], B.data[:, :, :n]
    La, Lb = a.shape[2], b.shape[2]
    if La == 0 or Lb == 0 or n == 0:
        return SeriesMatrix.zeros(p, rows, cols, n)
    words = (inner * min(La, Lb) * (p - 1) ** 2).bit_length() // 64 + 1  # 64-bit words per slot

    def pack(data: np.ndarray) -> list[list[int]]:
        slots = np.zeros(data.shape + (words,), dtype="<u8")
        slots[..., 0] = data
        return [[int.from_bytes(e.tobytes(), "little") for e in row] for row in slots]

    pa, pb = pack(a), pack(b)
    L = La + Lb - 1
    radix = np.array([pow(2, 64 * w, p) for w in range(words)], dtype=np.uint64)
    out = np.zeros((rows, cols, min(n, L)), dtype=_INT64)
    for i in range(rows):
        for j in range(cols):
            v = sum(pa[i][l] * pb[l][j] for l in range(inner))
            slots = np.frombuffer(v.to_bytes(8 * words * L, "little"), dtype="<u8").reshape(L, words)
            # (word mod p) (2^(64 w) mod p) < 2^62, and a slot has at most three words
            terms = slots[: out.shape[2]] % np.uint64(p) * radix % np.uint64(p)
            out[i, j] = terms.sum(axis=1) % p
    return SeriesMatrix(p, out, n)


def residual(F: SeriesMatrix, inst: ProblemInstance, homogeneous: bool = False) -> SeriesMatrix:
    """x^k delta(F) - A sigma(F) - C mod x^N; zero iff F solves.

    The product A sigma(F) is a Kronecker substitution in Python integers
    (``_kronecker_product``), independent of the engines' product kernels.
    """
    ctx, N = inst.ctx, inst.N
    if F.prec < N:
        raise ValueError("candidate solution known to lower precision than N")
    Ft = F.truncate(N)
    out = ctx.theta(Ft, N, 0, 0) - _kronecker_product(inst.A, Ft.sigma(ctx), N)
    if not homogeneous:
        out = out - inst.C
    return out


@dataclass(frozen=True)
class StepTable:
    """The step table of a run of steps g = lo, lo + 1, ...: row j is step
    g = lo + j.

    M[j] is the folded step matrix q^(-g) M_g, inv[j] its inverse, and
    elim marks the steps that are eliminated on M[j] instead of inverted
    (inv[j] is zero there).  A slice is the table of a sub-run.
    """

    M: np.ndarray
    inv: np.ndarray
    elim: np.ndarray

    def __getitem__(self, s: slice) -> "StepTable":
        return StepTable(self.M[s], self.inv[s], self.elim[s])


def step_table(A: SeriesMatrix, ctx: QContext, lo: int, hi: int) -> StepTable:
    """The step table of steps lo <= g < hi of an equation with coefficient A.

    The folded step matrix q^(-g) M_g is gamma_g q^(-g) Id - A_0 for k = 1
    (gamma_g Id - A_0 at q = 1, with no product) and the one matrix -A_0
    for k > 1.  One ``mat_inv_stack`` inverts them: for k > 1 a stack of
    one, broadcast over the steps, so a singular A_0 marks every step.
    For k = 1, n > 1 and A with more coefficients than A_0 every step is
    marked (batching those steps waits on ROADMAP item 1, a memory metric
    that measures the solver).
    """
    p, n, N = ctx.p, A.rows, hi - lo
    M = (-A.coefficient_array(0) % p)[None]
    if ctx.k > 1:
        inv, elim = mat_inv_stack(M, p)
        steps = (N, n, n)
        return StepTable(np.broadcast_to(M, steps), np.broadcast_to(inv, steps), np.broadcast_to(elim, N))
    M = np.repeat(M, N, axis=0)
    gam = ctx.gamma_slice(hi)[lo:]
    if ctx.q != 1:
        gam = mulmod(gam, ctx.qinv_pow_slice(hi)[lo:], p)
    d = np.arange(n)
    M[:, d, d] = (M[:, d, d] + gam[:, None]) % p
    if n > 1 and A.data.shape[2] > 1:
        return StepTable(M, np.zeros_like(M), np.ones(N, dtype=bool))
    return StepTable(M, *mat_inv_stack(M, p))


def _solve_term_by_term(
    A: SeriesMatrix, C: SeriesMatrix, N: int, ctx: QContext, i: int = 0, table: StepTable | None = None
) -> tuple[SeriesMatrix, list[np.ndarray], list[int]]:
    """Solve coefficients 0 .. N-1 of x^k delta(F) = A sigma(F) + C at base index i.

    The one per-coefficient step kernel, for A of any degree and C of any
    width: column 0 is the constant part, column t the coefficient of
    parameter t.  Base index i means the global powers q^(i+j) and
    gamma_(i+j) at offset j, as for a divide-and-conquer leaf; i = 0 is the
    equation itself.  With g = i + j, coefficient j is the step

        M_g F_j = C_j + sum_{d>=1} q^(g-d) A_d F_(j-d) - [k > 1] gamma_(g-k+1) F_(j-k+1),

    M_g = gamma_g Id - q^g A_0 for k = 1 and -q^g A_0 for k > 1.  The
    twist q^g is folded out of the whole step: with Mh_g = q^(-g) M_g,
    Ah_d = q^(-d) A_d and Ch_j = q^(-g) C_j it reads Mh_g F_j = R_j,

        R_j = Ch_j + sum_{d>=1} Ah_d F_(j-d) - [k > 1] q^(-g) gamma_(g-k+1) F_(j-k+1),

    so every step reads the one history array F, and the window sum is one
    product of Ah_D .. Ah_1 side by side with the stacked F_(j-D) .. F_(j-1).
    At q = 1 there is nothing to fold.

    The step table (``step_table``) of steps [i, i + N) holds the Mh_g and
    their inverses; it is handed in, as a divide-and-conquer solve hands
    each leaf its slice of the one table it builds, or built here.  One
    loop runs the steps in order: an unmarked step is one
    ``convolution._step_mod`` call (window product, gamma term, one
    reduction and the product with inv[j]), a marked one forms R_j by the
    same call and is one ``linalg._affine_solve`` of Mh_g F_j = R_j, whose
    particular/nullspace block is F_j, so each free column of a singular
    Mh_g becomes a new parameter, and each nonzero leftover row an affine
    constraint.  [Mh_g | R_j] is q^(-g) [M_g | q^g R_j], so the reduced
    form, the parameters and the constraints' zero set are those of the
    unfolded step.  When k = 1 and A is constant no step reads another:
    the unmarked steps are solved first as one stacked product of the
    inverses with Ch_j, and the loop visits the marked ones only.

    Returns (family, cons, sing): the n x width affine family mod x^N, the
    constraint rows (row[0] + row[1:] . params = 0, each as wide as the
    family was at its step) and the singular steps g met.
    """
    p, k, n = ctx.p, ctx.k, A.rows
    A = A.as_poly_prec(N)  # exact: A.prec >= N, or A is PolCoeffsDE's polynomial
    La = A.data.shape[2]
    if table is None:
        table = step_table(A, ctx, i, i + N)
    Ms, inv, elim = table.M, table.inv, table.elim
    # [Ah_(La-1) | ... | Ah_1]; the window of step j is its last D blocks
    Acat = A.side_by_side()[:, : (La - 1) * n]
    width = C.cols
    # rows jn .. (j+1)n hold F_j, so a window is a row range.  Until step j
    # solves them, the rows of F_j hold Ch_j.  F grows its columns only at
    # a singular step; Fw is its first width columns.
    F = np.zeros((N * n, width), dtype=_INT64)
    Cd = C.data[:, :, :N]
    Lc = Cd.shape[2]
    F[: Lc * n] = Cd.transpose(2, 0, 1).reshape(-1, width)
    if ctx.q != 1:
        Acat = mulmod(Acat, np.repeat(ctx.qinv_pow_slice(La)[La - 1 : 0 : -1], n), p)
        F[: Lc * n] = mulmod(F[: Lc * n], np.repeat(ctx.qinv_pow_slice(i + Lc)[i:], n)[:, None], p)
    gam = []
    if k > 1:  # q^(-g) gamma_(g-k+1) at j - k + 1
        gam = ctx.gamma_slice(i + N)[i : i + max(N - k + 1, 0)]
        if ctx.q != 1:
            gam = mulmod(ctx.qinv_pow_slice(i + N)[i + k - 1 :], gam, p)
        gam = gam.tolist()
    Fw = F
    steps = range(N)
    if k == 1 and La <= 1:
        F3, free = F.reshape(N, n, width), ~elim
        F3[free] = _matmul_mod(inv[free], F3[free], p)
        steps = np.flatnonzero(elim).tolist()
    elim = elim.tolist()
    cons: list[np.ndarray] = []
    sing: list[int] = []
    back = (k - 1) * n
    for j in steps:
        r = j * n
        D = min(j, La - 1)
        h = Fw[r - back : r - back + n] if k > 1 and j >= k - 1 else None
        fi = _step_mod(
            Acat[:, (La - 1 - D) * n :], Fw[r - D * n : r], Fw[r : r + n],
            gam[j - k + 1] if h is not None else 0, h, None if elim[j] else inv[j], p,
        )
        if elim[j]:
            fi, rest = _affine_solve(Ms[j], fi, p)
            if len(rest):
                sing.append(i + j)
            cons.extend(row for row in rest if row.any())
        if fi.shape[1] > width:
            width = fi.shape[1]
            if width > F.shape[1]:
                F = np.hstack([F, np.zeros((N * n, width), dtype=_INT64)])
            Fw = F[:, :width]
        Fw[r : r + n] = fi
    family = Fw.reshape(N, n, width).transpose(1, 2, 0)
    return SeriesMatrix(p, family, N), cons, sing


def dense_solve(inst: ProblemInstance) -> SolutionSpace | None:
    """Solve the full nN-dimensional linear system by forward substitution.

    The universal oracle: no spectrum assumptions; None reports
    inconsistency.
    """
    family, cons, _ = _solve_term_by_term(inst.A, inst.C, inst.N, inst.ctx)
    return resolve_affine_family(family, cons)


def _check_indexable(k: int, n: int, N: int, error: type[QdsolveError]) -> None:
    """Raise error unless k >= 0, n, N >= 1 and numpy can index the arrays
    of an n x n system mod x^N.

    numpy refuses an array of more than intp-max bytes with a ValueError.
    The largest engine arrays, the transform's limb planes, take under 256
    bytes per coefficient of A, so a size that passes and still does not
    fit raises MemoryError instead.
    """
    if k < 0:
        raise error("k must be nonnegative")
    if n < 1 or N < 1:
        raise error("n and N must be positive")
    if 256 * n * n * N > np.iinfo(np.intp).max:
        raise error(f"n = {n} and N = {N} are too large: numpy cannot index arrays of that size")


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
) -> tuple[QContext, SeriesMatrix, SeriesMatrix]:
    """(ctx, A, C) of a uniform random instance of order k >= 0, deterministic
    in the seed (counter-based generator).

    q_mode is "one", "random" (q uniform in [2, p)) or an explicit value of
    q.  ctx is the context the instance is solved in: (q, k), or (q, 1)
    for k = 0, whose instances are solved through the order-1 reduction.
    With require_good_spectrum and k >= 1 the constant coefficient of A is
    rejection-sampled until the good-spectrum test passes, and after
    SPECTRUM_DRAWS failed draws this raises PreconditionError.  For k = 0
    the reduced instance has zero constant matrix whatever A is, so its
    spectrum is tested once, at precision N + 1, and a failure raises
    PreconditionError at once: no redraw could change it.
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
        for draw in range(1, SPECTRUM_DRAWS + 1):
            if good_spectrum(Adata[:, :, 0], ctx, N).good:
                break
            if draw == SPECTRUM_DRAWS:
                raise PreconditionError(
                    f"no good-spectrum constant matrix found in {SPECTRUM_DRAWS} draws"
                )
            Adata[:, :, 0] = gen.integers(0, p, size=(n, n), dtype=np.int64)
    elif require_good_spectrum and not good_spectrum(np.zeros((n, n), dtype=_INT64), ctx, N + 1).good:
        raise PreconditionError("no good-spectrum constant matrix for k = 0: the reduced one is zero")
    return ctx, SeriesMatrix(p, Adata, N), SeriesMatrix(p, Cdata, N)


def random_instance(
    seed: int,
    p: int,
    n: int,
    N: int,
    k: int,
    q_mode: str | int = "one",
    require_good_spectrum: bool = False,
) -> ProblemInstance:
    """The instance drawn by random_coefficients; k = 0 is returned reduced."""
    ctx, A, C = random_coefficients(seed, p, n, N, k, q_mode, require_good_spectrum)
    return make_instance(p, ctx.q, k, n, N, A, C)
