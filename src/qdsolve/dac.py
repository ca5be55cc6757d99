"""Divide-and-conquer solver for x^k delta(F) = A sigma(F) + C mod x^N.

The engine works on parameter-affine vectors: each singular index j in R
contributes a block of n placeholder parameters standing for the
undetermined coefficient vector F_j.  A vector is stored as one
n x (1 + r*n) series matrix whose column 0 is the concrete part and
whose block l holds the coefficient matrix of the parameters introduced
at the l-th singular index, so every linear operation on vectors is a
plain matrix operation; delta and sigma fix the parameters.

The recursion halves the precision, solves the low half, forms the
carried right-hand side by dividing the residual combination by x^m
(a truncating division: rows at singular offsets are deliberately
dropped and re-imposed at the top level), and solves the high half at
shifted index.  It stops at precision DAC_LEAF: a leaf is solved by
forward substitution, one coefficient after another in the same
parameter layout, each step one window product and one small solve.
The top level collects the skipped equations -- the coefficients of the
full residual at the singular indices -- as affine constraints on the
parameters and resolves them by one linear solve.
"""

from __future__ import annotations

import numpy as np

from . import instrument
from .errors import InternalInvariantError
from .linalg import Matrix, _matmul_mod, _rref, mat_inv
from .polymat import SeriesMatrix
from .series import QContext
from .solution import SolutionSpace, resolve_affine_family
from .spectrum import singular_indices

_INT64 = np.int64

# rdac solves a precision of at most this many coefficients by forward
# substitution instead of halving it further
DAC_LEAF = 64


class ParametricVector:
    """phi_0 + phi_1 F_{j_1} + ... + phi_r F_{j_r} with formal parameters."""

    __slots__ = ("mat", "sing")

    def __init__(self, mat: SeriesMatrix, sing: tuple[int, ...]):
        n = mat.rows
        if mat.cols != 1 + len(sing) * n:
            raise ValueError("parametric width disagrees with the singular index list")
        self.mat = mat
        self.sing = sing

    @classmethod
    def from_concrete(cls, C: SeriesMatrix, sing: tuple[int, ...]) -> "ParametricVector":
        n = C.rows
        width = 1 + len(sing) * n
        data = np.zeros((n, width, C.data.shape[2]), dtype=_INT64)
        data[:, 0:1, :] = C.data
        return cls(SeriesMatrix(C.p, data, C.prec), sing)

    @classmethod
    def fresh_block(
        cls, p: int, n: int, sing: tuple[int, ...], index: int, prec: int
    ) -> "ParametricVector":
        """The pure-parameter vector F_index (index must be a singular index)."""
        l = sing.index(index)
        width = 1 + len(sing) * n
        data = np.zeros((n, width, 1), dtype=_INT64)
        data[:, 1 + l * n : 1 + (l + 1) * n, 0] = np.eye(n, dtype=_INT64)
        return cls(SeriesMatrix(p, data, prec), sing)

    @property
    def n(self) -> int:
        return self.mat.rows

    @property
    def prec(self) -> int:
        return self.mat.prec

    def constant_part(self) -> SeriesMatrix:
        return self.mat.col(0)

    def block(self, l: int) -> SeriesMatrix:
        n = self.n
        return self.mat.col_slice(1 + l * n, 1 + (l + 1) * n)

    def specialize(self, values) -> SeriesMatrix:
        """Evaluate the parameters at concrete field values."""
        col = np.concatenate(
            [np.ones(1, dtype=_INT64), np.asarray(list(values), dtype=_INT64).ravel()]
        )
        return self.mat.rmul_const(Matrix(self.mat.p, col.reshape(-1, 1)))

    def _wrap(self, mat: SeriesMatrix) -> "ParametricVector":
        pv = object.__new__(ParametricVector)
        pv.mat = mat
        pv.sing = self.sing
        return pv

    def __add__(self, other: "ParametricVector") -> "ParametricVector":
        return self._wrap(self.mat + other.mat)

    def __sub__(self, other: "ParametricVector") -> "ParametricVector":
        return self._wrap(self.mat - other.mat)

    def __neg__(self) -> "ParametricVector":
        return self._wrap(-self.mat)

    def shift(self, m: int, truncate: bool = False) -> "ParametricVector":
        return self._wrap(self.mat.shift(m, truncate))

    def truncate(self, n: int) -> "ParametricVector":
        return self._wrap(self.mat.truncate(n))

    def as_poly_prec(self, n: int) -> "ParametricVector":
        return self._wrap(self.mat.as_poly_prec(n))

    def delta(self, ctx: QContext) -> "ParametricVector":
        return self._wrap(self.mat.delta(ctx))

    def sigma(self, ctx: QContext) -> "ParametricVector":
        return self._wrap(self.mat.sigma(ctx))

    def lmul_const(self, M: Matrix) -> "ParametricVector":
        return self._wrap(self.mat.lmul_const(M))

    def coefficient_matrix(self, j: int) -> Matrix:
        return self.mat.coefficient_matrix(j)

    def __eq__(self, other):
        return (
            isinstance(other, ParametricVector)
            and other.sing == self.sing
            and other.mat == self.mat
        )

    def __repr__(self):
        return f"ParametricVector(n={self.n}, sing={self.sing}, prec={self.prec})"


def op_E(
    A: SeriesMatrix,
    F: ParametricVector,
    C: ParametricVector,
    i: int,
    ctx: QContext,
    prec: int,
) -> ParametricVector:
    """x^k delta(F) - ((q^i A - gamma_i x^(k-1) Id) sigma(F) + C) mod x^prec."""
    k = ctx.k
    sF = F.truncate(prec).sigma(ctx)
    out = F.truncate(prec).delta(ctx).mat.shift(k).truncate(prec)
    out = out - A.truncate(prec).mul(sF.mat, prec).scale(ctx.qpow(i))
    gi = ctx.gamma(i)
    if gi:
        lift = max(prec - (k - 1), 0)
        out = out + sF.mat.truncate(lift).shift(k - 1).truncate(prec).scale(gi)
    out = out - C.mat.truncate(prec)
    return ParametricVector(out, F.sing)


def rdac(A: SeriesMatrix, C: ParametricVector, i: int, N: int, ctx: QContext) -> ParametricVector:
    """Recursive halving pass; equations at singular offsets stay open.

    Halves N until N <= DAC_LEAF and solves each leaf by forward
    substitution (``_solve_leaf``).  Contract: C has precision >= N and
    only blocks at singular indices below i; the result has precision N
    and blocks below i + N.
    """
    if N <= DAC_LEAF:
        F = _solve_leaf(A, C, i, N, ctx)
    else:
        m = (N + 1) // 2
        H = rdac(A.truncate(m), C.truncate(m), i, m, ctx)
        Hp = H.as_poly_prec(N)
        D = (-op_E(A, Hp, C.truncate(N), i, ctx, N)).shift(-m, truncate=True)
        K = rdac(A.truncate(N - m), D, i + m, N - m, ctx)
        F = Hp + K.shift(m).as_poly_prec(N).truncate(N)
    if instrument.checks_enabled():
        _assert_open_rows_vanish(A, F, C, i, N, ctx)
    return F


def _solve_leaf(A: SeriesMatrix, C: ParametricVector, i: int, N: int, ctx: QContext) -> ParametricVector:
    """rdac's leaf: the offsets j = 0 .. N-1 in order, in the parameter layout.

    At the global index g = i + j, with the history twisted as
    G_j = q^g F_j, coefficient j of op_E vanishes when

        M_g F_j = C_j + sum_(d>=1) A_d G_(j-d) - [k > 1] gamma_(g-k+1) F_(j-k+1),

    M_g = gamma_g Id - q^g A_0 for k = 1 and -q^g A_0 for k > 1.  The
    window sum is one product of A's coefficients side by side with the
    stacked G rows.  At a singular g, F_j is the fresh parameter block
    and the equation stays open.  For k > 1, M_g^(-1) = -q^(-g) A_0^(-1)
    with A_0 inverted once; for k = 1 each step is one _rref, or one
    scalar inverse when n = 1.
    """
    p, k, n = ctx.p, ctx.k, A.rows
    sing = C.sing
    w = C.mat.cols
    charge = instrument.mul_counter.add
    qp = ctx.qpow_slice(i + N)[i:].tolist()
    gam = ctx.gamma_slice(i + N)[i:].tolist()
    A = A.truncate(N)
    La = A.data.shape[2]
    Acat = A.side_by_side()
    A0 = A.coefficient_array(0)
    eye = np.eye(n, dtype=_INT64)
    blocks = {g - i: l for l, g in enumerate(sing) if i <= g < i + N}
    if k > 1 and len(blocks) < N:
        A0inv = mat_inv(Matrix(p, A0)).a
        qinv = ctx.qinv_pow_slice(i + N)[i:].tolist()
    inv_c = instrument.inv_cost(p)
    # rows jn .. (j+1)n hold F_j (and G_j); until step j solves them, the
    # rows of F_j hold C_j.  Only windows read G, and G is F when q = 1.
    F = np.zeros((N * n, w), dtype=_INT64)
    Cd = C.mat.data[:, :, :N]
    F[: Cd.shape[2] * n] = Cd.transpose(2, 0, 1).reshape(-1, w)
    twist = La > 1 and ctx.q != 1
    G = np.zeros_like(F) if twist else F
    for j in range(N):
        r = j * n
        l = blocks.get(j)
        if l is not None:
            fi = np.zeros((n, w), dtype=_INT64)
            fi[:, 1 + l * n : 1 + (l + 1) * n] = eye
        else:
            rhs = F[r : r + n]
            D = min(j, La - 1)
            if D > 0:
                win = Acat[:, (La - 1 - D) * n : (La - 1) * n]
                rhs = rhs + _matmul_mod(win, G[r - D * n : r], p)
            if k > 1 and j >= k - 1:
                charge(n * w)
                rj = r - (k - 1) * n
                rhs = rhs - gam[j - k + 1] * F[rj : rj + n]
            rhs = rhs % p
            if k > 1:
                charge(n * w)
                fi = _matmul_mod(A0inv, rhs * (p - qinv[j]) % p, p)
            elif n == 1:
                charge(1 + w + inv_c)
                m = (gam[j] - qp[j] * int(A0[0, 0])) % p
                if m == 0:
                    raise ValueError(f"step {i + j} is singular but not in the singular list")
                fi = rhs * pow(m, p - 2, p) % p
            else:
                charge(n * n)
                red, pivots = _rref(np.hstack([(gam[j] * eye - qp[j] * A0) % p, rhs]), p, n)
                if len(pivots) < n:
                    raise ValueError(f"step {i + j} is singular but not in the singular list")
                fi = red[:, n:]
        F[r : r + n] = fi
        if twist:
            charge(n * w)
            G[r : r + n] = qp[j] * fi % p
    data = F.reshape(N, n, w).transpose(1, 2, 0)
    return ParametricVector(SeriesMatrix(p, data, N), sing)


def _assert_open_rows_vanish(A, F, C, i, N, ctx):
    """Coefficient j of E(F, C, i) must vanish whenever i + j is nonsingular."""
    E = op_E(A, F, C.truncate(N), i, ctx, N)
    for j in range(N):
        if (i + j) not in F.sing and np.any(E.coefficient_matrix(j).a):
            raise InternalInvariantError(
                f"divide-and-conquer residual nonzero at open offset {j} (base index {i})"
            )


def dac_solve(A: SeriesMatrix, C: SeriesMatrix, N: int, ctx: QContext) -> SolutionSpace | None:
    """Generators of the solution space mod x^N by divide and conquer.

    Correct for any singular index set; the good-spectrum condition only
    improves the constant in the running time.  Returns None when the
    equation is inconsistent.
    """
    if N < 1:
        raise ValueError("precision must be positive")
    if A.prec < N or C.prec < N:
        raise ValueError("operands known to lower precision than requested")
    p = ctx.p
    n = A.rows
    k = ctx.k
    A = A.truncate(N)
    C = C.truncate(N)
    R = tuple(singular_indices(A.coefficient_matrix(0), ctx, N))
    F = rdac(A, ParametricVector.from_concrete(C, R), 0, N, ctx)
    if not R:
        return SolutionSpace(F.constant_part(), SeriesMatrix.zeros(p, n, 0, N))
    # impose the skipped equations: rows of T = x^k delta(F) - A sigma(F) - C at R
    width = F.mat.cols
    qp = ctx.qpow_slice(N)
    gam = ctx.gamma_slice(N + k)
    Fd = F.mat.data.transpose(2, 0, 1)  # (Ld, n, width)
    Ld = Fd.shape[0]
    La = A.data.shape[2]
    Acat = A.side_by_side()
    rows_const = []
    rows_coeff = []
    for i in R:
        ti = np.zeros((n, width), dtype=_INT64)
        j = i - k + 1
        if 0 <= j < Ld:
            ti = int(gam[j]) * Fd[j] % p
            instrument.mul_counter.add(n * width)
        # sum of A_(i-j) q^j F_j over lo <= j <= hi: one window product
        lo, hi = max(0, i - La + 1), min(i, Ld - 1)
        if lo <= hi:
            instrument.mul_counter.add((hi - lo + 1) * n * width)
            Gw = (qp[lo : hi + 1, None, None] * Fd[lo : hi + 1] % p).reshape(-1, width)
            win = Acat[:, (La - 1 - i + lo) * n : (La - i + hi) * n]
            ti = (ti - _matmul_mod(win, Gw, p)) % p
        if i < C.data.shape[2]:
            ti[:, 0] = (ti[:, 0] - C.data[:, 0, i]) % p
        rows_const.append(ti[:, 0])
        rows_coeff.append(ti[:, 1:])
    cons_coeffs = np.concatenate(rows_coeff, axis=0)
    cons_const = np.concatenate(rows_const, axis=0)
    return resolve_affine_family(F.mat, cons_coeffs, cons_const)
