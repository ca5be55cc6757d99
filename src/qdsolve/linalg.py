"""Dense exact linear algebra over Z/pZ on constant matrices.

A constant matrix is a two-dimensional int64 array of canonical residues
in [0, p), and every function here takes the modulus p explicitly.
Gauss-Jordan elimination (``_rref``) with first-nonzero-row pivoting
makes every result canonical and deterministic: ``_affine_solve`` turns
one reduction into a particular solution with the free variables zero
and a nullspace basis in standard reduced row-echelon form, and both
``lin_solve`` and the step kernel's singular steps read their answers
from it.  Every inverse comes from ``mat_inv_stack``, one Gauss-Jordan
elimination of a whole stack (..., n, n) side by side; ``mat_inv`` is
its one-matrix case.  Both eliminations, and ``solution.canonical_form``,
run on one column step, ``_column_step``: it scales a pivot row and
clears the pivot column of every member of a stack, and charges both.
Matrix products go through
``convolution._matmul_mod``, which keeps int64 sums below 2^63 for
every modulus below 2^31.  It, like ``mat_inv_stack`` and
``sylvester_solve``, takes stacks of matrices and runs one vectorized
pass over the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import instrument
from .convolution import _matmul_mod, conv_trunc
from .errors import InternalInvariantError
from .field import inverses, mulmod

_INT64 = np.int64


@dataclass
class AffineSolution:
    """A particular solution plus a basis of the homogeneous kernel."""

    particular: np.ndarray
    nullspace: np.ndarray


def _column_step(W: np.ndarray, r: int, c: int, f: np.ndarray, p: int) -> None:
    """One Gauss-Jordan column step on a stack W (B, rows, cols), in place.

    Row r of member b is multiplied by f[b], charged cols for each factor
    other than 1; then row r clears column c from every other row, charged
    cols per nonzero entry cleared.
    """
    cols = W.shape[2]
    scaled = int(np.count_nonzero(f != 1))
    if scaled:  # a factor 1 leaves its row as it is, uncharged
        instrument.mul_counter.add(scaled * cols)
        W[:, r] = W[:, r] * f[:, None] % p
    colv = W[:, :, c].copy()
    colv[:, r] = 0
    nnz = int(np.count_nonzero(colv))
    if nnz:
        instrument.mul_counter.add(nnz * cols)
        W -= colv[:, :, None] * W[:, r : r + 1, :]
        W %= p


def _rref(m: np.ndarray, p: int, main_cols: int) -> tuple[np.ndarray, list[int]]:
    """In-place reduced row echelon form of the first main_cols columns.

    Each pivot is the first nonzero entry at or below the current row,
    inverted by one charged power unless it is 1, and then one
    ``_column_step`` scales its row and clears its column.
    """
    rows = m.shape[0]
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
            instrument.mul_counter.add(instrument.inv_cost(p))
            piv = pow(piv, p - 2, p)
        _column_step(m[None], r, c, np.array([piv]), p)
        pivots.append(c)
        r += 1
    return m, pivots


def _affine_solve(U: np.ndarray, V: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce U X = V by one _rref of [U | V].

    Returns the block [X_0 | K] and the rows E of V's part below the rank.
    X_0 has the free variables zero and solves U X_0 = V exactly when E is
    zero.  K is a basis of ker U in standard RREF form: a free column c
    has its 1 in row c, and -(its reduced column) in the pivot rows.
    """
    ncols, m = U.shape[1], V.shape[1]
    red, pivots = _rref(np.hstack([U, V]), p, ncols)
    rank = len(pivots)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    X = np.zeros((ncols, m + len(free)), dtype=_INT64)
    X[pivots, :m] = red[:rank, ncols:]
    X[pivots, m:] = (-red[:rank][:, free]) % p
    X[free, m + np.arange(len(free))] = 1
    return X, red[rank:, ncols:]


def lin_solve(U: np.ndarray, V: np.ndarray, p: int) -> AffineSolution | None:
    """Solve U X = V; None means the system is inconsistent.

    Returns a particular solution (free variables zero) and a basis of
    ker U in standard RREF form.  V may have several columns; each is
    solved against the same U.
    """
    if U.shape[0] != V.shape[0]:
        raise ValueError("incompatible system")
    X, rest = _affine_solve(U, V, p)
    if rest.any():
        return None
    m = V.shape[1]
    return AffineSolution(X[:, :m], X[:, m:])


def mat_inv_stack(U: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack U (..., n, n) of square matrices, and the mask of
    its singular members, whose slots hold zeros.

    One Gauss-Jordan elimination of [U | Id] runs on all members side by
    side, pivoting as _rref does: for each column one ``field.inverses``
    call inverts the members' pivots other than 1, and one
    ``_column_step`` scales and clears.  A member with no pivot in some
    column is singular and gets a stand-in pivot 1 so that the others run on.
    """
    n = U.shape[-1]
    if U.shape[-2] != n:
        raise ValueError("only square matrices are invertible")
    batch = U.shape[:-2]
    W = np.zeros((math.prod(batch), n, 2 * n), dtype=_INT64)
    W[:, :, :n] = U.reshape(-1, n, n)
    W[:, :, n:] = np.eye(n, dtype=_INT64)
    singular = np.zeros(len(W), dtype=bool)
    for c in range(n):
        piv = W[:, c, c]  # a view: it follows the swaps below
        if not piv.all():
            # swap in the first nonzero row below; where there is none, pr = c
            at = np.flatnonzero(piv == 0)
            pr = c + (W[at, c:, c] != 0).argmax(axis=1)
            W[at, c], W[at, pr] = W[at, pr], W[at, c]
            dead = piv == 0
            singular |= dead
            W[dead, c, c] = 1
        f = np.ones(len(W), dtype=_INT64)
        scale = piv != 1
        f[scale] = inverses(piv[scale], p)
        _column_step(W, c, c, f, p)
    inv = W[:, :, n:]
    inv[singular] = 0
    return inv.reshape(U.shape), singular.reshape(batch)


def mat_inv(U: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix, the one-member case of ``mat_inv_stack``;
    raises ValueError when singular."""
    inv, singular = mat_inv_stack(U[None], p)
    if singular[0]:
        raise ValueError("matrix is singular")
    return inv[0]


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


def poly_at(T: np.ndarray, P: np.ndarray, p: int) -> np.ndarray:
    """sum_m T[..., m] V^m, stacked (..., n, n), for coefficient rows T
    (..., n) and the power row P = [V^0 | ... | V^(n-1)] of ``power_row``.

    The powers m >= 1 are one product of T against them, flattened; V^0 is
    the identity, so the m = 0 coefficients are added on the diagonal.
    """
    n = P.shape[0]
    lead = T.shape[:-1]
    out = np.zeros(lead + (n * n,), dtype=_INT64)
    if n > 1:
        flat = P[:, n:].reshape(n, n - 1, n).transpose(1, 0, 2).reshape(n - 1, n * n)
        out = _matmul_mod(T[..., 1:], flat, p)
    out = out.reshape(lead + (n, n))
    d = np.arange(n)
    out[..., d, d] = (out[..., d, d] + T[..., :1]) % p
    return out


def power_row(V: np.ndarray, p: int) -> np.ndarray:
    """The power row [V^0 | ... | V^(n-1)] of an n x n matrix V, n x n^2,
    by n - 2 products."""
    n = V.shape[0]
    P = np.zeros((n, n * n), dtype=_INT64)
    P[:, :n] = np.eye(n, dtype=_INT64)
    for m in range(1, n):
        P[:, m * n : (m + 1) * n] = V if m == 1 else _matmul_mod(P[:, (m - 1) * n : m * n], V, p)
    return P


def sylvester_tables(V: np.ndarray, chi: list[int], p: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, D) for an n x n matrix V with chi = char_poly(V): the power row
    P = power_row(V, p) and the right-side table D = [D_0 | ... | D_(n-1)],
    D_a = sum_l c_(a+l+1) V^l (so D_(n-1) = Id), both n x n^2.

    One ``poly_at`` forms the table.
    """
    n = V.shape[0]
    P = power_row(V, p)
    # the Hankel rows H[a, l] = c_(a+l+1), zero past c_n
    c = np.array(list(chi[1:]) + [0] * n, dtype=_INT64)
    H = c[np.add.outer(np.arange(n), np.arange(n))]
    D = poly_at(H, P, p).transpose(1, 0, 2).reshape(n, n * n)
    return P, D


def sylvester_solve(
    Y, V: np.ndarray, Z: np.ndarray, p: int,
    m_inv: np.ndarray, tables: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The unique X with Y X - X V = Z, by the Cayley-Hamilton identity.

    Z is an n x n matrix or a stack (..., n, n) of them, solved side by
    side against the one n x n matrix V.  Y is a matrix or stack shaped
    like Z or, for one matrix Z, the row (s, s^2, ..., s^(n-1)) of powers
    of a scalar s standing for Y = s V (the row (s) when n = 1).  With
    c = char_poly(V) = (c_0, ..., c_n), c_n = 1, the equation gives
    Y^j X - X V^j = sum_{l<j} Y^(j-1-l) Z V^l, and chi_V(V) = 0 turns the
    c-weighted sum of these into

        chi_V(Y) X = S = sum_a Y^a Z D_a,   D_a = sum_l c_(a+l+1) V^l.

    The D_a are polynomials in V alone, so all the Z D_a are one product
    with the table [D_0 | ... | D_(n-2)], and Z D_(n-1) = Z.  For a matrix
    Y, S is then Horner in Y, n - 1 products.  For Y = s V,
    S = Z D_0 + [V^1 | ... | V^(n-1)] times the stacked s^a Z D_a, a >= 1:
    one product, whose scalings read s^a from the row.  X is
    chi_V(Y)^(-1) S, one more.  Each member costs
    O(n^4) and no eigenvalues are needed, so it works over any field.

    m_inv must be chi_V(Y)^(-1), shaped like Z, and tables
    sylvester_tables(V, char_poly(V), p); a caller solving many steps
    against one V forms both once.  chi_V(Y) is invertible exactly when
    Spec(Y) and Spec(V) are disjoint, which the singular mask of the
    ``mat_inv_stack`` that forms m_inv decides.
    """
    n = V.shape[0]
    scaled = np.ndim(Y) == 1
    if V.shape != (n, n) or Z.shape[-2:] != (n, n) or Z.shape != ((n, n) if scaled else np.shape(Y)):
        raise ValueError("Sylvester solve needs equally sized square matrices")
    if scaled and len(Y) != max(n - 1, 1):
        raise ValueError("a scaled Sylvester solve needs the powers s .. s^(n-1)")
    P, D = tables
    S = Z
    if n > 1:
        ZD = _matmul_mod(Z, D[:, : (n - 1) * n], p)  # [Z D_0 | ... | Z D_(n-2)]
        if scaled:
            # s^a Z D_a for a = 1 .. n-1, stacked down the rows
            W = np.concatenate([ZD[:, n:], Z], axis=1).reshape(n, n - 1, n)
            W = mulmod(W, Y[:, None], p).swapaxes(0, 1).reshape((n - 1) * n, n)
            S = (ZD[:, :n] + _matmul_mod(P[:, n:], W, p)) % p
        else:
            for a in range(n - 2, -1, -1):
                S = (_matmul_mod(Y, S, p) + ZD[..., a * n : (a + 1) * n]) % p
    X = _matmul_mod(m_inv, S, p)
    if instrument.checks_enabled():
        if scaled:
            YX = mulmod(Y[0], _matmul_mod(V, X, p), p)
        else:
            YX = _matmul_mod(Y, X, p)
        if not np.array_equal((YX - _matmul_mod(X, V, p)) % p, Z):
            raise InternalInvariantError("Sylvester residual nonzero")
    return X
