"""The tests' independent references: the literal operator matrix, and a
monic polynomial at a stack of matrices.

``solve_operator_matrix`` materializes the nN x nN matrix of
F -> x^k delta(F) - A sigma(F) (unknowns ordered coefficient-major) and
hands it, with C, to one ``lin_solve``.  It shares no step kernel with
the engines and is slower than all of them at every size, so it lives
here and not in the package.  ``monic_at`` is chi(Y) by matrix Horner,
the reference for the spectrum tables the package forms in K[A0].
"""

from __future__ import annotations

import numpy as np

from qdsolve.convolution import _matmul_mod
from qdsolve.linalg import lin_solve
from qdsolve.oracle import ProblemInstance
from qdsolve.polymat import SeriesMatrix
from qdsolve.solution import SolutionSpace


def solve_operator_matrix(inst: ProblemInstance) -> SolutionSpace | None:
    n, N, p, k = inst.n, inst.N, inst.p, inst.k
    ctx = inst.ctx
    qp = ctx.qpow_slice(N)
    gam = ctx.gamma_slice(N)
    Ad = inst.A.data
    L = np.zeros((N, n, N, n), dtype=np.int64)
    for d in range(Ad.shape[2]):
        js = np.arange(N - d)
        L[js + d, :, js, :] = (-qp[js, None, None] * Ad[None, :, :, d]) % p
    js = np.arange(max(N - k + 1, 0))
    for t in range(n):
        L[js + k - 1, t, js, t] = (L[js + k - 1, t, js, t] + gam[js]) % p
    Cd = inst.C.data
    rhs = np.zeros((N, n), dtype=np.int64)
    rhs[: Cd.shape[2]] = np.swapaxes(Cd[:, 0, :], 0, 1)
    sol = lin_solve(L.reshape(N * n, N * n), rhs.reshape(N * n, 1), p)
    if sol is None:
        return None
    part = SeriesMatrix(p, np.swapaxes(sol.particular.reshape(N, n), 0, 1)[:, None, :], N)
    t = sol.nullspace.shape[1]
    basis = SeriesMatrix(
        p, np.swapaxes(sol.nullspace.reshape(N, n, t), 0, 1).transpose(0, 2, 1), N
    )
    return SolutionSpace(part, basis)


def monic_at(c: list[int], Y: np.ndarray, p: int) -> np.ndarray:
    """c(Y) for a monic c given by ascending coefficients, at one matrix or
    at each matrix of a stack (..., n, n), by Horner."""
    eye = np.eye(Y.shape[-1], dtype=np.int64)
    m = (Y + c[-2] * eye) % p
    for cl in c[-3::-1]:
        m = (_matmul_mod(m, Y, p) + cl * eye) % p
    return m
