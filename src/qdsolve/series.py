"""The q-calculus context: the dilation constant q, the singularity order k
and their derived tables.

``QContext`` bundles the field, q and k, memoizes the q-integers gamma_i
(gamma_0 = 0, gamma_{i+1} = q*gamma_i + 1), their inverses, and the
powers q^i and q^(-i), and integrates a scalar series: integrate(f) is
the g with delta(g) = f and g_0 = 0.  One ``_grow`` rebuilds the q^i and
q^(-i) tables with ``field.powers``, at least doubling them, and sets
gamma_i = (q^i - 1) / (q - 1) (gamma_i = i when q = 1); the inverses
1/gamma_i come from ``field._inverse_tree``.  All these tables are
uncharged set-up: a solve's count does not depend on which earlier solve
in the same context grew them.  The operators are

    delta(f) = sum_{i>=1} gamma_i f_i x^(i-1)      (d/dx when q = 1)
    sigma(f)(x) = f(qx)

applied by ``SeriesMatrix.delta`` and ``SeriesMatrix.sigma``.  The
equation's left side x^k delta(F) has one implementation, ``theta``, which
forms a window of it at any base index without the x^k shift.  A scalar
series is a 1 x 1 ``SeriesMatrix``.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .field import PrimeField, _inverse_tree, inverses, mulmod, powers
from .polymat import SeriesMatrix, _trim3

_INT64 = np.int64


class QContext:
    """The pair (q, k) with the derived gamma and q-power tables.

    The memo tables only grow, each replaced by a longer one; after
    warm-up with ``gamma_slice`` they are read-only, so sharing a context
    across threads is safe.  ``integrate`` grows the table of 1/gamma_i
    on demand but reads only the table it built or found, so concurrent
    calls stay correct.
    """

    __slots__ = ("field", "p", "q", "k", "_gam", "_gaminv", "_qp", "_qip", "_qinv", "_dinv")

    def __init__(self, field: PrimeField, q: int, k: int):
        if not isinstance(k, int) or k < 1:
            raise ValueError("singularity order k must be a positive integer")
        q = q % field.p
        if q == 0:
            raise PreconditionError("q must be nonzero in the field")
        self.field = field
        self.p = field.p
        self.q = q
        self.k = k
        # 1/q and 1/(q - 1), charged once here rather than in any solve
        self._qinv, self._dinv = 1, None
        if q != 1:
            self._qinv, self._dinv = inverses(np.array([q, q - 1]), self.p).tolist()
        self._gam = self._qp = self._qip = np.zeros(0, dtype=_INT64)
        self._gaminv = np.zeros(1, dtype=_INT64)  # entry 0 unused: gamma_0 = 0

    def __repr__(self):
        return f"QContext(p={self.p}, q={self.q}, k={self.k})"

    def require_operands(self, A: SeriesMatrix, C: SeriesMatrix, N: int) -> None:
        """Refuse operands that do not state an equation mod x^N over this
        context: PreconditionError unless A and C are over its p (an operand
        over another p states another equation), ValueError unless N >= 1,
        A is n x n with n >= 1, C is n x 1 and both are known mod x^N."""
        if A.p != self.p or C.p != self.p:
            raise PreconditionError(f"operands over p = {[A.p, C.p]} in a context over p = {self.p}")
        if N < 1:
            raise ValueError("precision must be positive")
        if A.rows < 1 or A.cols != A.rows or C.rows != A.rows or C.cols != 1:
            shapes = f"{A.rows} x {A.cols} and {C.rows} x {C.cols}"
            raise ValueError(f"A must be n x n with n >= 1 and C n x 1, got {shapes}")
        if A.prec < N or C.prec < N:
            raise ValueError("operands known to lower precision than requested")

    def _grow(self, n: int):
        """Rebuild the gamma_i, q^i and q^(-i) tables to at least n entries,
        at least doubling them."""
        if n <= len(self._qp):
            return
        n = max(n, 2 * len(self._qp))
        p = self.p
        qp = powers(self.q, n, p)
        if self._dinv is None:
            self._gam = np.arange(n, dtype=_INT64) % p
        else:  # gamma_i = (q^i - 1) / (q - 1), the sum of q^0 .. q^(i-1)
            self._gam = (qp - 1) * self._dinv % p
        self._qip = powers(self._qinv, n, p)
        self._qp = qp  # last: _grow reads its length, so the others are as long

    def gamma(self, i: int) -> int:
        self._grow(i + 1)
        return int(self._gam[i])

    def qpow(self, i: int) -> int:
        self._grow(i + 1)
        return int(self._qp[i])

    def gamma_slice(self, n: int) -> np.ndarray:
        self._grow(n)
        return self._gam[:n]

    def qpow_slice(self, n: int) -> np.ndarray:
        self._grow(n)
        return self._qp[:n]

    def qinv_pow_slice(self, n: int) -> np.ndarray:
        self._grow(n)
        return self._qip[:n]

    def _gamma_inv_slice(self, n: int) -> np.ndarray:
        """1 / gamma_i for 1 <= i < n (entry 0 is 0); gamma_1 .. gamma_(n-1) must be nonzero."""
        tab = self._gaminv
        old = len(tab)
        if old < n:
            tab = np.concatenate([tab, _inverse_tree(self.gamma_slice(n)[old:], self.p)])
            if n > len(self._gaminv):
                self._gaminv = tab
        return tab[:n]

    def theta(self, F: SeriesMatrix, hi: int, lo: int, i: int) -> SeriesMatrix:
        """Coefficients [lo, hi) of the left side x^k delta(F) at base index
        i, as a series mod x^(hi - lo).

        At base index i, F stands for x^i F, and the left side divided by
        x^i is x^k delta(F) + gamma_i x^(k-1) sigma(F): its coefficient
        t + k - 1 is gamma_(i+t) F_t, since gamma_(i+t) = gamma_t + q^t gamma_i.
        Only the planes t of F with lo <= t + k - 1 < hi are read, and each
        one formed charges rows * cols; no array reaches past hi, so k may
        be far larger than any precision.  Requires hi <= F.prec + k - 1,
        the precision of x^k delta(F).
        """
        if not 0 <= lo <= hi <= F.prec + self.k - 1:
            raise ValueError("window outside the precision of x^k delta(F)")
        s = self.k - 1
        t0, t1 = max(lo - s, 0), min(F.data.shape[2], hi - s)
        out = np.zeros((F.rows, F.cols, hi - lo), dtype=_INT64)
        if t1 > t0:
            g = self.gamma_slice(i + t1)[i + t0 :]
            out[:, :, t0 + s - lo : t1 + s - lo] = mulmod(F.data[:, :, t0:t1], g, self.p)
        return SeriesMatrix._mk(self.p, _trim3(out), hi - lo)

    def integrate(self, f: SeriesMatrix) -> SeriesMatrix:
        """The right inverse of delta with zero constant term, for a 1 x 1 f.

        Requires gamma_1 .. gamma_prec(f) all nonzero; raises naming the
        first offending index otherwise.
        """
        if (f.rows, f.cols) != (1, 1):
            raise ValueError("q-integration takes a 1 x 1 series matrix")
        n = f.prec
        g = self.gamma_slice(n + 1)
        zero = np.nonzero(g[1 : n + 1] == 0)[0]
        if len(zero):
            raise PreconditionError(
                f"gamma_{int(zero[0]) + 1} = 0 in F_{self.p}: q-integration undefined"
            )
        p = self.p
        coeffs = f.data[0, 0]
        L = len(coeffs)
        out = np.zeros((1, 1, L + 1), dtype=_INT64)
        out[0, 0, 1:] = mulmod(coeffs, self._gamma_inv_slice(L + 1)[1:], p)
        return SeriesMatrix._mk(p, _trim3(out), n + 1)
