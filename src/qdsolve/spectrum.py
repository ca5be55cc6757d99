"""Good-spectrum tests, singular index enumeration and eigen-splitting.

Spectrum disjointness is decided without explicit eigenvalues, which
may live outside K for the order-one clauses.  Spec A0 and Spec Y meet
exactly when chi(Y) is singular, chi = char_poly(A0) (the eigenvalues of
chi(Y) are chi at those of Y), so the clauses for k = 1 and for k > 1,
q != 1 form chi(Y_i) for every step matrix Y_i = q^i A0 - gamma_i Id or
q^i A0, 1 <= i < N, and invert the whole stack in one vectorized
elimination.  Each Y_i is a polynomial in A0, and so is chi(Y_i): its
coefficients, reduced mod chi, are one row of a table, and the stack is
that table times the powers A0^0 .. A0^(n-1) (``step_chi_table``), one
product.  The singular mask is the verdict, and the inverses, the powers
and the Cayley-Hamilton right-side table go to the Newton solver, whose
Sylvester steps need exactly them.  The k > 1, q = 1 clause (A0 has n
distinct eigenvalues in K) is decided by polynomial gcds, and the
report's chi is the one that diagonalize then splits into those
eigenvalues: a solve forms chi once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import instrument
from .errors import InternalInvariantError
from .linalg import (
    _matmul_mod, char_poly, lin_solve, mat_inv_stack, monic_at, poly_at, sylvester_tables,
)

_INT64 = np.int64


# ---------------------------------------------------------------------------
# small dense polynomials over F_p: ascending int lists, trailing zeros trimmed


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmonic(f, p):
    if not f:
        return f
    lead = f[-1]
    if lead == 1:
        return f
    inv = pow(lead, p - 2, p)
    return [c * inv % p for c in f]


def _pdivmod(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        c = f[-1] * inv % p
        d = len(f) - 1 - dg
        q[d] = c
        for i in range(dg + 1):
            f[d + i] = (f[d + i] - c * g[i]) % p
        _ptrim(f)
    return q, f


def _pgcd(f, g, p):
    f, g = list(f), list(g)
    _ptrim(f)
    _ptrim(g)
    while g:
        _, r = _pdivmod(f, g, p)
        f, g = g, r
    return _pmonic(f, p)


def _pderiv(f, p):
    return _ptrim([i * f[i] % p for i in range(1, len(f))])


def _pmulmod(f, g, m, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    _, r = _pdivmod(out, m, p)
    return r


def _is_split_squarefree(chi, p) -> tuple[bool, str | None]:
    if len(_pgcd(chi, _pderiv(chi, p), p)) != 1:
        return False, "|Spec A0| = n fails (repeated eigenvalue)"
    xp = _ppowmod_linear(0, p, chi, p)  # x^p mod chi
    diff = list(xp) + [0] * max(0, 2 - len(xp))
    diff[1] = (diff[1] - 1) % p
    _, rem = _pdivmod(_ptrim(diff), chi, p)
    if _ptrim(rem):
        return False, "Spec A0 not contained in K (char poly does not split)"
    return True, None


# ---------------------------------------------------------------------------


@dataclass
class SpectrumReport:
    """The verdict of good_spectrum, and what it formed on the way.

    For k = 1 or q != 1: steps_inv holds chi(Y_i)^(-1) for i < N (zeros
    where singular) and steps_singular the singular mask, which is set at
    i = 0, where there is no step.  When N > 1, tables is
    sylvester_tables(A0, chi): the power row [A0^0 | ... | A0^(n-1)] and
    the Cayley-Hamilton right-side table, which linalg.sylvester_solve
    takes for every step against A0.
    """

    good: bool
    reason: str | None
    singular_indices: list[int] = field(default_factory=list)
    chi: list[int] = field(default_factory=list)  # char_poly(A0)
    steps_inv: np.ndarray | None = None
    steps_singular: np.ndarray | None = None
    tables: tuple[np.ndarray, np.ndarray] | None = None


def singular_indices(chi: list[int], ctx, N: int) -> list[int]:
    """All i in [0, N) where the order-i linear system is singular.

    chi is char_poly(A0).  k = 1: det(q^i A0 - gamma_i Id) = 0;
    k > 1: det(q^i A0) = 0.
    """
    if ctx.k > 1:
        det_zero = chi[0] == 0  # det(A0) = (-1)^n chi(0)
        return list(range(N)) if det_zero else []
    # det(q^i A0 - gamma_i Id) = (-1)^n q^(i n) chi(gamma_i q^(-i))
    pts = ctx.gamma_slice(N) * ctx.qinv_pow_slice(N) % ctx.p
    instrument.mul_counter.add(N)
    vals = monic_at(chi, pts[:, None, None], ctx.p)
    return [int(i) for i in np.flatnonzero(vals == 0)]


def step_matrices(A0: np.ndarray, ctx, lo: int, hi: int) -> np.ndarray:
    """The Sylvester step matrices Y_i, lo <= i < hi, stacked along axis 0:
    q^i A0 - gamma_i Id for k = 1, q^i A0 for k > 1."""
    p, n = ctx.p, A0.shape[0]
    instrument.mul_counter.add((hi - lo) * n * n)
    Y = ctx.qpow_slice(hi)[lo:, None, None] * A0 % p
    if ctx.k == 1:
        Y = (Y - ctx.gamma_slice(hi)[lo:, None, None] * np.eye(n, dtype=_INT64)) % p
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
    charge = instrument.mul_counter.add
    c = np.array(chi, dtype=_INT64)
    a = ctx.qpow_slice(N)[1:, None]
    b = (p - ctx.gamma_slice(N)[1:, None]) % p if ctx.k == 1 else np.zeros_like(a)
    # g = 1, then g = g (a x + b) + c_j for j = n-1 .. 0, where the first
    # step, 1 (a x + b), needs no product
    g = np.hstack([(b + c[n - 1]) % p, a])
    for j in range(n - 2, -1, -1):
        charge((N - 1) * (2 if ctx.k == 1 else 1) * g.shape[1])
        h = np.zeros((N - 1, g.shape[1] + 1), dtype=_INT64)
        if ctx.k == 1:
            h[:, :-1] = g * b % p
        h[:, 1:] = (h[:, 1:] + g * a) % p
        h[:, 0] = (h[:, 0] + c[j]) % p
        g = h
    charge((N - 1) * n)
    T = (g[:, :n] - g[:, n:] * c[:n] % p) % p
    return poly_at(T, P, p)


def good_spectrum(A0: np.ndarray, ctx, N: int) -> SpectrumReport:
    """Evaluate the good-spectrum condition of the constant matrix at precision N.

    A0 is a canonical int64 array over the field of ctx.  For k = 1, and
    for k > 1 with q != 1, the clause is that every chi(Y_i), 1 <= i < N,
    is invertible.  The stack of chi(Y_i) is ``step_chi_table``, one
    product against A0's powers, and one ``mat_inv_stack`` inverts it;
    the inverses and the Sylvester tables go into the report.
    """
    n, p = A0.shape[0], ctx.p
    q, k = ctx.q, ctx.k
    chi = char_poly(A0, p)
    sing = singular_indices(chi, ctx, N)
    report = None
    steps_inv = steps_singular = tables = None
    first = None  # the first i >= 1 with chi(Y_i) singular
    if k == 1 or q != 1:
        steps_inv = np.zeros((N, n, n), dtype=_INT64)
        steps_singular = np.ones(N, dtype=bool)
        if N > 1:
            tables = sylvester_tables(A0, chi, p)
            M = step_chi_table(chi, tables[0], ctx, N)
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
        limit = max(N - k, 0)
        if p <= limit:
            report = f"gamma_{p} = 0 in F_{p} (clause k>1, q=1)"
        else:
            ok, why = _is_split_squarefree(chi, p)
            if not ok:
                report = why
    elif first is not None:
        report = f"Spec A0 meets q^{first} Spec A0 (clause k>1, i={first})"
    good = report is None
    if good:
        if ctx.k == 1 and len(sing) > 1:
            raise InternalInvariantError("good spectrum with more than one singular index")
        if ctx.k > 1 and sing:
            raise InternalInvariantError("good spectrum with singular indices for k > 1")
    return SpectrumReport(good, report, sing, chi, steps_inv, steps_singular, tables)


def _find_roots(chi, p: int) -> list[int]:
    """Roots of a squarefree product of distinct linear factors.

    Las Vegas: the random splitting points only decide how fast the roots
    are found, and the fixed seed makes the run reproducible.
    """
    rng = random.Random(0)
    roots: list[int] = []

    def split(f):
        if len(f) == 2:
            roots.append(-f[0] * pow(f[1], p - 2, p) % p)
            return
        for _ in range(64):
            a = rng.randrange(p)
            # gcd((x+a)^((p-1)/2) - 1, f) splits by quadratic character
            g = _ppowmod_linear(a, (p - 1) // 2, f, p)
            g = list(g) + [0] * max(0, 1 - len(g))
            g[0] = (g[0] - 1) % p
            h = _pgcd(_ptrim(g), f, p)
            if 0 < len(h) - 1 < len(f) - 1:
                split(h)
                split(_pdivmod(f, h, p)[0])
                return
        raise InternalInvariantError("root splitting failed repeatedly")

    split(_pmonic(list(chi), p))
    return sorted(roots)


def _ppowmod_linear(a, e, m, p):
    """(x + a)^e mod m."""
    result = [1]
    base = _pdivmod([a, 1], m, p)[1]
    for bit in bin(e)[2:]:
        result = _pmulmod(result, result, m, p)
        if bit == "1":
            result = _pmulmod(result, base, m, p)
    return result


def diagonalize(A0: np.ndarray, chi: list[int], p: int) -> tuple[np.ndarray, list[int]]:
    """(P, roots) with P invertible and P^(-1) A0 P = diag(roots).

    chi must be char_poly(A0) from a good spectrum report with k > 1,
    q = 1, which has proved it squarefree and split over K.  The roots are
    ascending, so the output is deterministic.
    """
    n = A0.shape[0]
    roots = _find_roots(chi, p)
    if len(roots) != n or len(set(roots)) != n:
        raise InternalInvariantError(f"chi has roots {roots} in K, expected {n} distinct ones")
    zero = np.zeros((n, 1), dtype=_INT64)
    cols = []
    for r in roots:
        sol = lin_solve((A0 - r * np.eye(n, dtype=_INT64)) % p, zero, p)
        if sol is None or sol.nullspace.shape[1] == 0:
            raise InternalInvariantError("eigenvalue without eigenvector")
        cols.append(sol.nullspace[:, 0])
    P = np.stack(cols, axis=1)
    # A0 P = P diag(roots): column j of P scaled by roots[j]
    instrument.mul_counter.add(n * n)
    if not np.array_equal(_matmul_mod(A0, P, p), P * np.array(roots, dtype=_INT64) % p):
        raise InternalInvariantError("diagonalization residual nonzero")
    return P, roots
