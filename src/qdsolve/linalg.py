"""Dense exact linear algebra over Z/pZ.

Gauss-Jordan elimination with first-nonzero-row pivoting makes every
result canonical and deterministic: particular solutions set free
variables to zero and nullspace bases come out in standard reduced
row-echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instrument
from .errors import InternalInvariantError, PreconditionError

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


class Matrix:
    """A rows x cols matrix with canonical int64 entries mod p."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries):
        if isinstance(entries, np.ndarray):
            a = entries.astype(_INT64) % p
        else:
            a = np.array([[int(v) % p for v in row] for row in entries], dtype=_INT64)
        if a.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        self.p = p
        self.a = a

    @classmethod
    def _mk(cls, p: int, a: np.ndarray) -> "Matrix":
        m = object.__new__(cls)
        m.p = p
        m.a = a
        return m

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "Matrix":
        return cls._mk(p, np.zeros((rows, cols), dtype=_INT64))

    @classmethod
    def identity(cls, p: int, n: int) -> "Matrix":
        return cls._mk(p, np.eye(n, dtype=_INT64))

    @classmethod
    def diag(cls, p: int, values) -> "Matrix":
        return cls._mk(p, np.diag(np.array([int(v) % p for v in values], dtype=_INT64)))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.p == self.p
            and other.a.shape == self.a.shape
            and np.array_equal(other.a, self.a)
        )

    def __repr__(self):
        return f"Matrix(p={self.p},\n{self.a})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix._mk(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix._mk(self.p, (self.a - other.a) % self.p)

    def __neg__(self) -> "Matrix":
        return Matrix._mk(self.p, (-self.a) % self.p)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix dimension mismatch")
        return Matrix._mk(self.p, _matmul_mod(self.a, other.a, self.p))

    def scale(self, c: int) -> "Matrix":
        instrument.mul_counter.add(self.rows * self.cols)
        return Matrix._mk(self.p, self.a * (c % self.p) % self.p)

    @property
    def T(self) -> "Matrix":
        return Matrix._mk(self.p, self.a.T.copy())

    def is_zero(self) -> bool:
        return not np.any(self.a)

    def col(self, j: int) -> "Matrix":
        return Matrix._mk(self.p, self.a[:, j : j + 1].copy())


@dataclass
class AffineSolution:
    """A particular solution plus a basis of the homogeneous kernel."""

    particular: Matrix
    nullspace: Matrix


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


def lin_solve(U: Matrix, V: Matrix) -> AffineSolution | None:
    """Solve U X = V; None means the system is inconsistent.

    Returns a particular solution (free variables zero) and a basis of
    ker U in standard RREF form.  V may have several columns; each is
    solved against the same U.
    """
    if U.p != V.p or U.rows != V.rows:
        raise ValueError("incompatible system")
    p = U.p
    n, ncols = U.rows, U.cols
    m = V.cols
    aug = np.hstack([U.a, V.a])
    red, pivots = _rref(aug, p, ncols)
    rank = len(pivots)
    if np.any(red[rank:, ncols:]):
        return None
    part = np.zeros((ncols, m), dtype=_INT64)
    for i, c in enumerate(pivots):
        part[c] = red[i, ncols:]
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    null = np.zeros((ncols, len(free)), dtype=_INT64)
    for j, f in enumerate(free):
        null[f, j] = 1
        for i, c in enumerate(pivots):
            null[c, j] = (-red[i, f]) % p
    return AffineSolution(Matrix._mk(p, part), Matrix._mk(p, null))


def mat_inv(U: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if U.rows != U.cols:
        raise ValueError("only square matrices are invertible")
    n, p = U.rows, U.p
    aug = np.hstack([U.a.copy(), np.eye(n, dtype=_INT64)])
    red, pivots = _rref(aug, p, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return Matrix._mk(p, red[:, n:].copy())


def char_poly(U: Matrix) -> list[int]:
    """det(x Id - U) by the division-free Berkowitz algorithm.

    Returns ascending coefficients; the result is monic of degree n.
    Raises PreconditionError when (n + 2)(p - 1)^2 >= 2^63, where the
    int64 accumulation could overflow.
    """
    if U.rows != U.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n, p = U.rows, U.p
    if n == 0:
        return [1]
    a = U.a
    if (n + 2) * (p - 1) * (p - 1) >= 2**63:
        raise PreconditionError(
            f"modulus p = {p} too large for int64 Berkowitz accumulation at n = {n}: "
            "needs (n + 2)(p - 1)^2 < 2^63"
        )
    poly = np.array([1], dtype=_INT64)  # descending coefficients
    for i in range(1, n + 1):
        d = int(a[i - 1, i - 1])
        t = np.zeros(i + 1, dtype=_INT64)
        t[0] = 1
        t[1] = (-d) % p
        if i > 1:
            row = a[i - 1, : i - 1]
            colv = a[: i - 1, i - 1].copy()
            B = a[: i - 1, : i - 1]
            instrument.mul_counter.add((i - 1) * (i - 1) * (i - 2) + (i - 1) * (i - 1))
            for j in range(2, i + 1):
                t[j] = (-int(row @ colv)) % p
                if j < i:
                    colv = B @ colv % p
        poly = np.convolve(t, poly)[: i + 1] % p
        instrument.mul_counter.add((i + 1) * len(poly))
    return [int(c) for c in poly[::-1]]


def sylvester_solve(Y: Matrix, V: Matrix, Z: Matrix, chi_v: list[int] | None = None) -> Matrix:
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
    The modulus range is that of char_poly.
    """
    n, p = Y.rows, Y.p
    if not (Y.rows == Y.cols == V.rows == V.cols == Z.rows == Z.cols):
        raise ValueError("Sylvester solve needs equally sized square matrices")
    c = char_poly(V) if chi_v is None else chi_v
    eye = np.eye(n, dtype=_INT64)
    y, v, z = Y.a, V.a, Z.a
    # R_(n-1) = Z, and S = sum_l R_l V^l on the right by Horner
    r = s = z
    # M = chi_V(Y) by Horner, starting from Y + c_(n-1) Id
    m = (y + c[n - 1] * eye) % p
    for l in range(n - 2, -1, -1):
        instrument.mul_counter.add(n * n + n)  # c_(l+1) Z and c_l Id
        r = (_matmul_mod(y, r, p) + c[l + 1] * z) % p
        s = (_matmul_mod(s, v, p) + r) % p
        m = (_matmul_mod(m, y, p) + c[l] * eye) % p
    try:
        minv = mat_inv(Matrix._mk(p, m))
    except ValueError:
        raise ValueError("Sylvester system is singular: spectra of Y and V intersect") from None
    X = Matrix._mk(p, _matmul_mod(minv.a, s, p))
    if instrument.checks_enabled():
        if (Y @ X) - (X @ V) != Z:
            raise InternalInvariantError("Sylvester residual nonzero")
    return X
