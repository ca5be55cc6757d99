"""Good-spectrum tests, singular index enumeration and eigen-splitting.

Spectrum disjointness is decided through polynomial gcds of
characteristic polynomials, never through explicit eigenvalues (which
may live outside K for the order-one clauses).  char_poly(q^i A0 -
gamma_i Id) is obtained from chi = char_poly(A0) by the exact argument
substitution chi(q^(-i)(x + gamma_i)), which is the same polynomial up
to a nonzero constant factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import instrument
from .errors import InternalInvariantError
from .linalg import _matmul_mod, char_poly, lin_solve

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


def _pscale_arg(f, s, p):
    """f(s*x)"""
    out = []
    w = 1
    for c in f:
        out.append(c * w % p)
        w = w * s % p
    return _ptrim(out)


def _pshift_arg(f, c, p):
    """f(x + c) by repeated synthetic division."""
    if not f or c == 0:
        return list(f)
    work = list(f)
    out = []
    for _ in range(len(f)):
        # divide work by (x - (-c)) synthetically; remainder is next coeff
        rem = 0
        for i in range(len(work) - 1, -1, -1):
            rem = (rem * c + work[i]) % p
        nxt = []
        acc = 0
        for i in range(len(work) - 1, 0, -1):
            acc = (acc * c + work[i]) % p
            nxt.append(acc)
        out.append(rem)
        work = nxt[::-1]
        if not work:
            break
    return _ptrim(out)


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


def _peval_many(f, xs: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros(len(xs), dtype=_INT64)
    instrument.mul_counter.add(len(f) * len(xs))
    for c in reversed(f):
        out = (out * xs + c) % p
    return out


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
    good: bool
    reason: str | None
    singular_indices: list[int] = field(default_factory=list)
    chi: list[int] = field(default_factory=list)  # char_poly(A0)


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
    vals = _peval_many(chi, pts, ctx.p)
    return [int(i) for i in np.nonzero(vals == 0)[0]]


def good_spectrum(A0: np.ndarray, ctx, N: int) -> SpectrumReport:
    """Evaluate the good-spectrum condition of the constant matrix at precision N.

    A0 is a canonical int64 array over the field of ctx.
    """
    n, p = A0.shape[0], ctx.p
    q, k = ctx.q, ctx.k
    chi = char_poly(A0, p)
    sing = singular_indices(chi, ctx, N)
    report = None
    if k == 1:
        if n == 1:
            a = int(A0[0, 0])
            qp = ctx.qpow_slice(N)
            g = ctx.gamma_slice(N)
            instrument.mul_counter.add(N)
            bad = np.nonzero((qp * a - g - a) % p == 0)[0]
            bad = bad[bad >= 1]
            if len(bad):
                i = int(bad[0])
                report = f"Spec A0 meets q^{i} Spec A0 - gamma_{i} (clause k=1, i={i})"
        else:
            qinv = ctx.qinv_pow_slice(N)
            for i in range(1, N):
                # char poly of q^i A0 - gamma_i Id, up to a nonzero constant
                shifted = _pshift_arg(_pscale_arg(chi, int(qinv[i]), p), ctx.gamma(i), p)
                if len(_pgcd(chi, shifted, p)) != 1:
                    report = f"Spec A0 meets q^{i} Spec A0 - gamma_{i} (clause k=1, i={i})"
                    break
    else:
        if chi[0] == 0:
            report = "A0 is singular (clause k>1)"
        elif q == 1:
            limit = max(N - k, 0)
            if p <= limit:
                report = f"gamma_{p} = 0 in F_{p} (clause k>1, q=1)"
            else:
                ok, why = _is_split_squarefree(chi, p)
                if not ok:
                    report = why
        else:
            qinv = ctx.qinv_pow_slice(N)
            for i in range(1, N):
                scaled = _pscale_arg(chi, int(qinv[i]), p)
                if len(_pgcd(chi, scaled, p)) != 1:
                    report = f"Spec A0 meets q^{i} Spec A0 (clause k>1, i={i})"
                    break
    good = report is None
    if good:
        if ctx.k == 1 and len(sing) > 1:
            raise InternalInvariantError("good spectrum with more than one singular index")
        if ctx.k > 1 and sing:
            raise InternalInvariantError("good spectrum with singular indices for k > 1")
    return SpectrumReport(good, report, sing, chi)


def _find_roots(chi, p: int, seed: int) -> list[int]:
    """Roots of a squarefree product of distinct linear factors."""
    rng = random.Random(seed)
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


def diagonalize(A0: np.ndarray, p: int, seed: int = 0) -> tuple[np.ndarray, list[int]]:
    """(P, roots) with P invertible and P^(-1) A0 P = diag(roots).

    Requires char_poly(A0) squarefree and split over K; the roots are
    ascending, so the output is deterministic given the seed of the
    Las-Vegas root finder.
    """
    n = A0.shape[0]
    chi = char_poly(A0, p)
    ok, why = _is_split_squarefree(chi, p)
    if not ok:
        raise ValueError(f"cannot diagonalize: {why}")
    roots = _find_roots(chi, p, seed)
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
