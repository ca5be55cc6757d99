"""Good-spectrum tests, singular index enumeration and eigen-splitting.

Spectrum disjointness is decided without explicit eigenvalues, which
may live outside K for the order-one clauses.  Spec A0 and Spec Y meet
exactly when chi(Y) is singular, chi = char_poly(A0) (the eigenvalues of
chi(Y) are chi at those of Y), so the clauses for k = 1 and for k > 1,
q != 1 form chi(Y_i) for every step matrix Y_i = q^i A0 - gamma_i Id or
q^i A0, 1 <= i < N, and invert the whole stack in one vectorized
elimination.  Each Y_i is a polynomial in A0, and so is chi(Y_i): its
coefficients, reduced mod chi, are one row of a table, and the stack is
that table times the power row A0^0 .. A0^(n-1) (``step_chi_table``),
one product; the power row serves that product only.  The singular mask
is the verdict, and the inverses and the Cayley-Hamilton right-side
table go to the Newton solver, whose Sylvester steps against the
constant B = A0 need exactly them.  The k > 1, q = 1 clause (A0 has n
distinct eigenvalues in K) is decided in K[A0], the polynomials in A0:
chi is squarefree exactly when chi'(A0) is nonsingular, and then it
splits over K exactly when A0^p = A0.  diagonalize finds those
eigenvalues and their eigenlines in K[A0] too, by Cantor-Zassenhaus on
matrix powers and kernels, so every field multiplication of the
differential case goes through the charged matrix kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .convolution import _matmul_mod
from .errors import InternalInvariantError
from .field import inverses, mulmod
from .linalg import char_poly, lin_solve, mat_inv_stack, poly_at, power_row, sylvester_tables

_INT64 = np.int64


@dataclass
class SpectrumReport:
    """The verdict of good_spectrum, and what it formed on the way.

    For k = 1 or q != 1: steps_inv holds chi(Y_i)^(-1) for i < N (zeros
    where singular), chi = char_poly(A0), and steps_singular the singular
    mask, which is set at i = 0, where there is no step.  When N > 1,
    rhs_table is the right-side table D of sylvester_tables(A0, chi),
    which linalg.sylvester_solve takes for every Sylvester step against
    A0: the steps that build V in newton.choose_associated and those of
    newton.diff_sylvester, where B = A0 is constant.
    """

    good: bool
    reason: str | None
    singular_indices: list[int] = field(default_factory=list)
    steps_inv: np.ndarray | None = None
    steps_singular: np.ndarray | None = None
    rhs_table: np.ndarray | None = None


def singular_indices(chi: list[int], ctx, N: int) -> list[int]:
    """All i in [0, N) where the order-i linear system is singular.

    chi is char_poly(A0).  k = 1: det(q^i A0 - gamma_i Id) = 0;
    k > 1: det(q^i A0) = 0.
    """
    if ctx.k > 1:
        det_zero = chi[0] == 0  # det(A0) = (-1)^n chi(0)
        return list(range(N)) if det_zero else []
    # det(q^i A0 - gamma_i Id) = (-1)^n q^(i n) chi(gamma_i q^(-i)), and chi
    # is monic: Horner starts from x + c_(n-1)
    pts = mulmod(ctx.gamma_slice(N), ctx.qinv_pow_slice(N), ctx.p)
    vals = (pts + chi[-2]) % ctx.p
    for c in chi[-3::-1]:
        vals = (mulmod(vals, pts, ctx.p) + c) % ctx.p
    return [int(i) for i in np.flatnonzero(vals == 0)]


def step_matrices(A0: np.ndarray, ctx, lo: int, hi: int) -> np.ndarray:
    """The Sylvester step matrices Y_i, lo <= i < hi, stacked along axis 0:
    q^i A0 - gamma_i Id for k = 1, q^i A0 for k > 1."""
    Y = mulmod(ctx.qpow_slice(hi)[lo:, None, None], A0, ctx.p)
    if ctx.k == 1:
        d = np.arange(A0.shape[0])
        Y[:, d, d] = (Y[:, d, d] - ctx.gamma_slice(hi)[lo:, None]) % ctx.p
    return Y


def step_chi_table(chi: list[int], P: np.ndarray, ctx, N: int) -> np.ndarray:
    """chi(Y_i) for the step matrices Y_i, 1 <= i < N, stacked along axis 0.

    chi = char_poly(A0) and P = [A0^0 | ... | A0^(n-1)].  chi(Y_i) is g_i(A0)
    for g_i = chi(a_i x + b_i), a_i = q^i, with b_i = -gamma_i for k = 1 and
    b_i = 0 for k > 1; g_i comes from Horner in the composed polynomial,
    whose b_i half is skipped for k > 1.  By Cayley-Hamilton g_i may be
    reduced mod chi first; its leading coefficient is q^(in), so the
    reduction is g_i - q^(in) chi.  The reduced rows, an (N - 1) x n
    table, then go through one ``poly_at``.
    """
    p, n = ctx.p, len(chi) - 1
    c = np.array(chi, dtype=_INT64)
    a = ctx.qpow_slice(N)[1:, None]
    b = (p - ctx.gamma_slice(N)[1:, None]) % p if ctx.k == 1 else np.zeros_like(a)
    # g = 1, then g = g (a x + b) + c_j for j = n-1 .. 0, where the first
    # step, 1 (a x + b), needs no product
    g = np.hstack([(b + c[n - 1]) % p, a])
    for j in range(n - 2, -1, -1):
        h = np.zeros((N - 1, g.shape[1] + 1), dtype=_INT64)
        if ctx.k == 1:
            h[:, :-1] = mulmod(g, b, p)
        h[:, 1:] = (h[:, 1:] + mulmod(g, a, p)) % p
        h[:, 0] = (h[:, 0] + c[j]) % p
        g = h
    T = (g[:, :n] - mulmod(g[:, n:], c[:n], p)) % p
    return poly_at(T, P, p)


def good_spectrum(A0: np.ndarray, ctx, N: int) -> SpectrumReport:
    """Evaluate the good-spectrum condition of the constant matrix at precision N.

    A0 is a canonical int64 array over the field of ctx.  For k = 1, and
    for k > 1 with q != 1, the clause is that every chi(Y_i), 1 <= i < N,
    is invertible.  The stack of chi(Y_i) is ``step_chi_table``, one
    product against A0's powers, and one ``mat_inv_stack`` inverts it;
    the inverses and the Sylvester right-side table go into the report.  For k > 1,
    q = 1 it is that A0 is nonsingular, gamma_i != 0 for i <= N - k, and
    A0 has n distinct eigenvalues in K: one ``mat_inv_stack`` mask on
    chi'(A0) and one comparison of A0^p with A0.
    """
    n, p = A0.shape[0], ctx.p
    q, k = ctx.q, ctx.k
    chi = char_poly(A0, p)
    sing = singular_indices(chi, ctx, N)
    report = None
    steps_inv = steps_singular = rhs_table = None
    first = None  # the first i >= 1 with chi(Y_i) singular
    if k == 1 or q != 1:
        steps_inv = np.zeros((N, n, n), dtype=_INT64)
        steps_singular = np.ones(N, dtype=bool)
        if N > 1:
            P, rhs_table = sylvester_tables(A0, chi, p)
            M = step_chi_table(chi, P, ctx, N)
            steps_inv[1:], steps_singular[1:] = mat_inv_stack(M, p)
        bad = np.flatnonzero(steps_singular[1:])
        if len(bad):
            first = int(bad[0]) + 1
    if k == 1:
        if first is not None:
            report = f"Spec A0 meets q^{first} Spec A0 - gamma_{first} (clause k=1, i={first})"
    elif chi[0] == 0:
        report = "A0 is singular (clause k>1)"
    elif q == 1:
        if p <= N - k:
            report = f"gamma_{p} = 0 in F_{p} (clause k>1, q=1)"
        else:
            # chi is squarefree iff chi'(A0) is nonsingular (its eigenvalues
            # are chi' at those of A0), and then it splits over K iff A0^p = A0
            dchi = mulmod(np.arange(1, n + 1), chi[1:], p)
            if mat_inv_stack(poly_at(dchi, power_row(A0, p), p), p)[1]:
                report = "|Spec A0| = n fails (repeated eigenvalue)"
            elif not np.array_equal(_mat_pow(A0, p, p), A0):
                report = "Spec A0 not contained in K (char poly does not split)"
    elif first is not None:
        report = f"Spec A0 meets q^{first} Spec A0 (clause k>1, i={first})"
    good = report is None
    if good:
        if ctx.k == 1 and len(sing) > 1:
            raise InternalInvariantError("good spectrum with more than one singular index")
        if ctx.k > 1 and sing:
            raise InternalInvariantError("good spectrum with singular indices for k > 1")
    return SpectrumReport(good, report, sing, steps_inv, steps_singular, rhs_table)


def _mat_pow(U: np.ndarray, e: int, p: int) -> np.ndarray:
    """U^e for e >= 1 by square-and-multiply: a product per bit of e past
    the first, and one more per set bit."""
    out = U
    for bit in bin(e)[3:]:
        out = _matmul_mod(out, out, p)
        if bit == "1":
            out = _matmul_mod(out, U, p)
    return out


def diagonalize(A0: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """(P, roots) with P invertible and P^(-1) A0 P = diag(roots).

    A0 must have n distinct eigenvalues in K, which a good spectrum report
    with k > 1, q = 1 has proved.  Cantor-Zassenhaus runs in K[A0]: a
    round draws a and forms M = (A0 + a Id)^((p-1)/2), which acts on the
    eigenline of r as 1, -1 or 0 when r + a is a nonzero square, a
    nonsquare or zero, and replaces every invariant subspace S of
    dimension > 1 by the nonzero kernels of M - s Id on S, s in {1, -1, 0}.
    Each eigenline v is scaled so that its last nonzero entry is 1, which
    makes it the vector lin_solve(A0 - r Id, 0) returns, and r is (A0 v)
    at that entry.  The roots are ascending and P does not depend on the
    draws, so the output is deterministic; the seeded draws only decide
    how fast the lines are found.
    """
    n = A0.shape[0]
    eye = np.eye(n, dtype=_INT64)
    rng = random.Random(0)
    spaces = [eye]  # column bases of A0-invariant subspaces
    failed = 0
    while any(S.shape[1] > 1 for S in spaces):
        if failed == 64:
            raise InternalInvariantError("root splitting failed repeatedly")
        M = _mat_pow((A0 + np.diag(np.full(n, rng.randrange(p)))) % p, (p - 1) // 2, p)
        split = []
        for S in spaces:
            if S.shape[1] == 1:
                split.append(S)
                continue
            # the kernels are independent, so the solves stop once they fill
            # S; a right side with no columns asks lin_solve for the kernel only
            MS, left = _matmul_mod(M, S, p), S.shape[1]
            for T in ((MS - S) % p, (MS + S) % p, MS):
                K = lin_solve(T, S[:, :0], p).nullspace
                if K.shape[1]:
                    split.append(_matmul_mod(S, K, p))
                    left -= K.shape[1]
                    if not left:
                        break
        failed += len(split) == len(spaces)
        spaces = split
    # one eigenline per column; fewer than n when the rounds lost dimensions
    V = np.hstack([eye[:, :0], *spaces])
    last = n - 1 - (V[::-1] != 0).argmax(axis=0)
    cols = np.arange(V.shape[1])
    V = mulmod(V, inverses(V[last, cols], p), p)
    AV = _matmul_mod(A0, V, p)
    r = AV[last, cols]
    roots = sorted(r.tolist())
    if len(set(roots)) != n:
        raise InternalInvariantError(f"A0 has eigenvalues {roots} in K, expected {n} distinct ones")
    # A0 V = V diag(r): column j of V scaled by r[j]
    if not np.array_equal(AV, mulmod(V, r, p)):
        raise InternalInvariantError("diagonalization residual nonzero")
    return V[:, np.argsort(r)], roots
