"""Matrices with truncated-series entries: the package's one series type.

Storage is a dense (rows, cols, L) int64 array of coefficient planes with
L <= prec, canonical residues in [0, p) and the trailing all-zero planes
trimmed; entries share one truncation order.  A scalar series is a 1 x 1
matrix.  Its constructors refuse, with ``PreconditionError``, every
modulus ``PrimeField`` refuses, so no kernel sees p >= 2^31.

The matrix product, ``mul``, returns a window [lo, n) of coefficients
as a series of precision n - lo (lo = 0 is the product mod x^n).  It is
one ``convolution.conv_trunc`` call, which decides the product's route
and charge and forms only the coefficients the window needs; a constant
matrix is a one-plane operand.  Newton inversion (``inv_newton``) asks
only for the window above the precision it has reached.
"""

from __future__ import annotations

import numpy as np

from . import instrument
from .convolution import conv_trunc
from .errors import InternalInvariantError
from .field import checked_modulus, mulmod
from .linalg import mat_inv

_INT64 = np.int64


def _trim3(data: np.ndarray) -> np.ndarray:
    L = data.shape[2]
    if L == 0 or data[:, :, L - 1].any():
        return data
    keep = data.reshape(-1, L).any(axis=0)
    nz = np.nonzero(keep)[0]
    if len(nz) == 0:
        return data[:, :, :0]
    return data[:, :, : nz[-1] + 1]


class SeriesMatrix:
    __slots__ = ("p", "prec", "data")

    def __init__(self, p: int, data, prec: int):
        data = np.asarray(data)
        if data.ndim != 3:
            raise ValueError("series matrix data must be 3-dimensional")
        if prec < 0:
            raise ValueError("precision must be nonnegative")
        kind = data.dtype.kind
        if (data.size and kind not in "iuO") or (
            kind == "O" and not all(isinstance(v, (int, np.integer)) for v in data.flat)
        ):
            raise ValueError("series coefficients must be integers")
        p = checked_modulus(p)
        if kind in "uO":  # Python ints of any size, and uint64, may not fit in int64
            data = data % p
        self.p = p
        self.data = _trim3((data.astype(_INT64) % p)[:, :, :prec])
        self.prec = prec

    @classmethod
    def _mk(cls, p: int, data: np.ndarray, prec: int) -> "SeriesMatrix":
        if prec < 0:
            raise ValueError("precision must be nonnegative")
        m = object.__new__(cls)
        m.p = p
        m.data = data
        m.prec = prec
        return m

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int, prec: int) -> "SeriesMatrix":
        return cls._mk(checked_modulus(p), np.zeros((rows, cols, 0), dtype=_INT64), prec)

    @classmethod
    def identity(cls, p: int, n: int, prec: int) -> "SeriesMatrix":
        p = checked_modulus(p)
        if prec == 0:
            return cls.zeros(p, n, n, 0)
        return cls._mk(p, np.eye(n, dtype=_INT64)[:, :, None], prec)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, i: int, j: int) -> "SeriesMatrix":
        """Entry (i, j) as a 1 x 1 series matrix."""
        return SeriesMatrix._mk(self.p, _trim3(self.data[i : i + 1, j : j + 1].copy()), self.prec)

    def coefficient_array(self, j: int) -> np.ndarray:
        """Coefficient j, 0 <= j < prec, as a canonical rows x cols array."""
        if j < 0 or j >= self.prec:
            raise IndexError(f"coefficient {j} outside precision {self.prec}")
        if j < self.data.shape[2]:
            return self.data[:, :, j]
        return np.zeros((self.rows, self.cols), dtype=_INT64)

    def side_by_side(self) -> np.ndarray:
        """[X_(L-1) | ... | X_1 | X_0]: the coefficients as one rows x L*cols array.

        A window sum sum_(d=d0..d1) X_d Y_(i-d) is then one product: the
        column blocks of d1 .. d0 against Y_(i-d1), ..., Y_(i-d0) stacked.
        """
        L = self.data.shape[2]
        flat = np.ascontiguousarray(self.data[:, :, ::-1].transpose(0, 2, 1))
        return flat.reshape(self.rows, L * self.cols)

    def is_zero(self) -> bool:
        return self.data.shape[2] == 0

    def __eq__(self, other):
        return (
            isinstance(other, SeriesMatrix)
            and other.p == self.p
            and other.prec == self.prec
            and other.data.shape == self.data.shape
            and np.array_equal(other.data, self.data)
        )

    def __repr__(self):
        return f"SeriesMatrix({self.rows}x{self.cols} mod x^{self.prec}, p={self.p})"

    def _check_compat(self, other: "SeriesMatrix"):
        if other.p != self.p:
            raise ValueError("series matrices over different fields")

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        prec = min(self.prec, other.prec)
        a, b = self.data[:, :, :prec], other.data[:, :, :prec]
        if a.shape[2] < b.shape[2]:
            a, b = b, a
        out = a.copy()
        out[:, :, : b.shape[2]] = (out[:, :, : b.shape[2]] + b) % self.p
        return SeriesMatrix._mk(self.p, _trim3(out), prec)

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self + (-other)

    def __neg__(self) -> "SeriesMatrix":
        return SeriesMatrix._mk(self.p, (-self.data) % self.p, self.prec)

    def scale(self, c: int) -> "SeriesMatrix":
        c %= self.p
        if c == 0:
            return SeriesMatrix.zeros(self.p, self.rows, self.cols, self.prec)
        # scaling by a nonzero unit preserves the support
        return SeriesMatrix._mk(self.p, mulmod(self.data, c, self.p), self.prec)

    def mul(self, other: "SeriesMatrix", n: int | None = None, lo: int = 0) -> "SeriesMatrix":
        """Coefficients [lo, n) of the matrix product, as a series mod x^(n - lo).

        lo = 0 is the product mod x^n.  A window lo > 0 is what a Newton
        step needs when the low part of the product is known in advance:
        the result is (A B mod x^n) divided by x^lo, and it is empty when
        lo >= La + Lb - 1.  The product is one ``conv_trunc`` call, whose
        routes and charges ``convolution`` describes.
        """
        self._check_compat(other)
        if n is None:
            n = min(self.prec, other.prec)
        if n > self.prec or n > other.prec:
            raise ValueError("target precision exceeds operand precision")
        if not 0 <= lo <= n:
            raise ValueError("window start outside [0, n]")
        out = conv_trunc(self.data, other.data, self.p, n, lo)
        return SeriesMatrix._mk(self.p, _trim3(out), n - lo)

    def delta(self, ctx) -> "SeriesMatrix":
        if self.prec == 0:
            raise ValueError("cannot differentiate a precision-0 matrix")
        L = self.data.shape[2]
        if L <= 1:
            return SeriesMatrix.zeros(self.p, self.rows, self.cols, self.prec - 1)
        out = mulmod(self.data[:, :, 1:], ctx.gamma_slice(L)[1:], self.p)
        return SeriesMatrix._mk(self.p, _trim3(out), self.prec - 1)

    def sigma(self, ctx) -> "SeriesMatrix":
        if ctx.q == 1 or self.is_zero():
            return self
        # the weights q^i are units, so the support is preserved
        out = mulmod(self.data, ctx.qpow_slice(self.data.shape[2]), self.p)
        return SeriesMatrix._mk(self.p, out, self.prec)

    def shift(self, m: int, truncate: bool = False) -> "SeriesMatrix":
        """Multiply (m > 0) or divide (m < 0) every entry by x^m."""
        if m == 0:
            return self
        L = self.data.shape[2]
        if m > 0:
            if L == 0:
                return SeriesMatrix.zeros(self.p, self.rows, self.cols, self.prec + m)
            out = np.zeros((self.rows, self.cols, L + m), dtype=_INT64)
            out[:, :, m:] = self.data
            return SeriesMatrix._mk(self.p, out, self.prec + m)
        d = -m
        if not truncate and np.any(self.data[:, :, :d]):
            raise ValueError(f"division by x^{d} inexact: low-order coefficients nonzero")
        prec = max(self.prec - d, 0)
        return SeriesMatrix._mk(self.p, _trim3(self.data[:, :, d:][:, :, :prec].copy()), prec)

    def truncate(self, n: int) -> "SeriesMatrix":
        if n > self.prec:
            raise ValueError(f"cannot truncate precision {self.prec} up to {n}")
        if n == self.prec:
            return self
        if n >= self.data.shape[2]:
            return SeriesMatrix._mk(self.p, self.data, n)
        return SeriesMatrix._mk(self.p, _trim3(self.data[:, :, :n]), n)

    def as_poly_prec(self, n: int) -> "SeriesMatrix":
        """Lift precision; valid only when the entries are exact polynomials."""
        if n < self.prec:
            return self.truncate(n)
        return SeriesMatrix._mk(self.p, self.data, n)

    def col(self, j: int) -> "SeriesMatrix":
        return SeriesMatrix._mk(self.p, _trim3(self.data[:, j : j + 1, :].copy()), self.prec)

    def col_slice(self, j0: int, j1: int) -> "SeriesMatrix":
        return SeriesMatrix._mk(self.p, _trim3(self.data[:, j0:j1, :].copy()), self.prec)

    def inv_newton(self, n: int, X: "SeriesMatrix | None" = None, s: int = 1) -> "SeriesMatrix":
        """Inverse mod x^n by precision-doubling X <- X(2 Id - A X).

        X, when given, must invert A mod x^s and is refined from there (and
        returned as it is when s >= n); otherwise the iteration starts from
        the inverse of A_0.  A step
        from s to s2 = min(2s, n), h = s2 - s, forms only the error window:
        A X = Id + x^s E mod x^s2, so

            E = coefficients [s, s2) of A X,
            X <- X - x^s (X mod x^h) E mod x^s2,

        which is X(2 Id - A X) without the coefficients known beforehand,
        at about half the work of its two full products.
        """
        if self.rows != self.cols:
            raise ValueError("only square series matrices are invertible")
        if n > self.prec:
            raise ValueError("operand known to lower precision than requested")
        p = self.p
        if X is None:
            X = SeriesMatrix._mk(p, mat_inv(self.coefficient_array(0), p)[:, :, None], 1)
            s = 1
        while s < n:
            s2 = min(2 * s, n)
            h = s2 - s
            Xp = X.as_poly_prec(s2)
            E = self.truncate(s2).mul(Xp, s2, lo=s)
            X = Xp - X.truncate(h).mul(E, h).shift(s)
            s = s2
        if instrument.checks_enabled():
            prod = self.truncate(n).mul(X, n)
            if prod != SeriesMatrix.identity(p, self.rows, n):
                raise InternalInvariantError("Newton inverse residual nonzero")
        return X
