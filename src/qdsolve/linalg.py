"""Dense exact linear algebra over Z/pZ on constant matrices.

A constant matrix is a two-dimensional int64 array of canonical residues
in [0, p), and every function here takes the modulus p explicitly.
Gauss-Jordan elimination with first-nonzero-row pivoting makes every
result canonical and deterministic: particular solutions set free
variables to zero and nullspace bases come out in standard reduced
row-echelon form.  Matrix products go through ``_matmul_mod``, which
keeps int64 sums below 2^63 for every modulus below 2^31.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instrument
from .convolution import conv_trunc
from .errors import InternalInvariantError

_INT64 = np.int64


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p with int64 accumulation kept below 2^63.

    Up to step = 2^62 / (p-1)^2 inner terms one product cannot overflow.
    Longer sums split b into s-bit limbs, b = b_hi 2^s + b_lo with
    s = ceil(bits(p) / 2), so that every term is below p 2^s: two products
    cover any inner < 2^62 / (p 2^s).  Past that the sum is chunked.
    """
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=_INT64)
    step = max(1, (2**62) // ((p - 1) * (p - 1) + 1))
    instrument.mul_counter.add(a.shape[0] * inner * b.shape[1])
    if inner <= step:
        return a @ b % p
    s = (p.bit_length() + 1) // 2
    if inner << s < (2**62) // p:
        # both limb sums stay below inner p 2^s, and 2^s < p
        hi = a @ (b >> s) % p
        return ((hi << s) + a @ (b & ((1 << s) - 1))) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=_INT64)
    for i in range(0, inner, step):
        acc = (acc + a[:, i : i + step] @ b[i : i + step, :]) % p
    return acc


@dataclass
class AffineSolution:
    """A particular solution plus a basis of the homogeneous kernel."""

    particular: np.ndarray
    nullspace: np.ndarray


def _rref(m: np.ndarray, p: int, main_cols: int) -> tuple[np.ndarray, list[int]]:
    """In-place reduced row echelon form of the first main_cols columns."""
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(main_cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        piv = int(m[r, c])
        if piv != 1:
            instrument.mul_counter.add(cols + instrument.inv_cost(p))
            m[r] = m[r] * pow(piv, p - 2, p) % p
        colv = m[:, c].copy()
        colv[r] = 0
        nzr = np.nonzero(colv)[0]
        if len(nzr):
            instrument.mul_counter.add(len(nzr) * cols)
            m[nzr] = (m[nzr] - colv[nzr, None] * m[r][None, :]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def lin_solve(U: np.ndarray, V: np.ndarray, p: int) -> AffineSolution | None:
    """Solve U X = V; None means the system is inconsistent.

    Returns a particular solution (free variables zero) and a basis of
    ker U in standard RREF form.  V may have several columns; each is
    solved against the same U.
    """
    if U.shape[0] != V.shape[0]:
        raise ValueError("incompatible system")
    ncols, m = U.shape[1], V.shape[1]
    red, pivots = _rref(np.hstack([U, V]), p, ncols)
    rank = len(pivots)
    if np.any(red[rank:, ncols:]):
        return None
    part = np.zeros((ncols, m), dtype=_INT64)
    part[pivots] = red[:rank, ncols:]
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    null = np.zeros((ncols, len(free)), dtype=_INT64)
    null[free, np.arange(len(free))] = 1
    null[pivots] = (-red[:rank][:, free]) % p
    return AffineSolution(part, null)


def mat_inv(U: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = U.shape[0]
    if U.shape[1] != n:
        raise ValueError("only square matrices are invertible")
    red, pivots = _rref(np.hstack([U, np.eye(n, dtype=_INT64)]), p, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return red[:, n:].copy()


def char_poly(U: np.ndarray, p: int) -> list[int]:
    """det(x Id - U) by the division-free Berkowitz algorithm.

    Returns ascending coefficients; the result is monic of degree n.
    """
    n = U.shape[0]
    if U.shape[1] != n:
        raise ValueError("characteristic polynomial needs a square matrix")
    poly = np.array([1], dtype=_INT64)  # descending coefficients
    for i in range(1, n + 1):
        t = np.zeros(i + 1, dtype=_INT64)
        t[0] = 1
        t[1] = (-U[i - 1, i - 1]) % p
        if i > 1:
            row = U[i - 1 : i, : i - 1]
            colv = U[: i - 1, i - 1 : i]
            B = U[: i - 1, : i - 1]
            for j in range(2, i + 1):
                t[j] = (-_matmul_mod(row, colv, p)[0, 0]) % p
                if j < i:
                    colv = _matmul_mod(B, colv, p)
        poly = conv_trunc(t, poly, p, i + 1)
    return [int(c) for c in poly[::-1]]


def sylvester_solve(
    Y: np.ndarray, V: np.ndarray, Z: np.ndarray, p: int, chi_v: list[int] | None = None
) -> np.ndarray:
    """The unique X with Y X - X V = Z, by the Cayley-Hamilton identity.

    With c = char_poly(V) = (c_0, ..., c_n), c_n = 1, the equation gives
    Y^j X - X V^j = sum_{l<j} Y^(j-1-l) Z V^l, and chi_V(V) = 0 turns the
    c-weighted sum of these into

        chi_V(Y) X = sum_l R_l V^l,   R_l = sum_{j>l} c_j Y^(j-1-l) Z.

    R_l and the right side are built by Horner (R_(n-1) = Z,
    R_l = Y R_(l+1) + c_(l+1) Z), chi_V(Y) likewise, and X is
    chi_V(Y)^(-1) times the right side.  chi_V(Y) is invertible exactly
    when Spec(Y) and Spec(V) are disjoint; otherwise this raises
    ValueError.  The cost is about 3n products of n x n matrices and one
    n x n inverse, O(n^4), and no eigenvalues are needed, so it works
    over any field.  chi_v, when given, must be char_poly(V); callers
    solving many steps against one V pass it to skip recomputing it.
    """
    n = Y.shape[0]
    if not (Y.shape == V.shape == Z.shape == (n, n)):
        raise ValueError("Sylvester solve needs equally sized square matrices")
    c = char_poly(V, p) if chi_v is None else chi_v
    eye = np.eye(n, dtype=_INT64)
    # R_(n-1) = Z, and S = sum_l R_l V^l on the right by Horner
    r = s = Z
    # M = chi_V(Y) by Horner, starting from Y + c_(n-1) Id
    m = (Y + c[n - 1] * eye) % p
    for l in range(n - 2, -1, -1):
        instrument.mul_counter.add(n * n + n)  # c_(l+1) Z and c_l Id
        r = (_matmul_mod(Y, r, p) + c[l + 1] * Z) % p
        s = (_matmul_mod(s, V, p) + r) % p
        m = (_matmul_mod(m, Y, p) + c[l] * eye) % p
    try:
        minv = mat_inv(m, p)
    except ValueError:
        raise ValueError("Sylvester system is singular: spectra of Y and V intersect") from None
    X = _matmul_mod(minv, s, p)
    if instrument.checks_enabled():
        if not np.array_equal((_matmul_mod(Y, X, p) - _matmul_mod(X, V, p)) % p, Z):
            raise InternalInvariantError("Sylvester residual nonzero")
    return X
