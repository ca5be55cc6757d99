"""The tests' independent references: the literal operator matrix, a
monic polynomial at a stack of matrices, and one rigged instance family.

``solve_operator_matrix`` materializes the nN x nN matrix of
F -> x^k delta(F) - A sigma(F) (unknowns ordered coefficient-major) and
hands it, with C, to one ``lin_solve``.  It shares no step kernel with
the engines and is slower than all of them at every size, so it lives
here and not in the package.  ``monic_at`` is chi(Y) by matrix Horner,
the reference for the spectrum tables the package forms in K[A0].
``rigged_singular_system`` draws a k = 1 system whose one singular step
is chosen by the test.
"""

from __future__ import annotations

import numpy as np

from qdsolve.convolution import _matmul_mod
from qdsolve.field import PrimeField
from qdsolve.linalg import lin_solve, mat_inv
from qdsolve.oracle import ProblemInstance, residual
from qdsolve.polymat import SeriesMatrix
from qdsolve.series import QContext
from qdsolve.solution import SolutionSpace
from qdsolve.spectrum import good_spectrum


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


def rigged_singular_system(p: int, q: int, n: int, N: int, s: int, gen) -> ProblemInstance:
    """k = 1, good spectrum, singular index s only, C planted from a random F.

    gamma_s q^(-s) is an eigenvalue of A0 exactly when index s is singular,
    so A0 = P diag(gamma_s q^(-s), lambda_1, ..) P^(-1) for random lambda
    and P, drawn from gen until the spectrum report names s alone.  The
    instance gets a fresh context, so no table is warm before a solve.
    """
    field = PrimeField(p)
    ctx = QContext(field, q, 1)
    lam0 = ctx.gamma(s) * pow(q, -s, p) % p
    while True:
        lam = np.concatenate(([lam0], gen.integers(1, p, size=n - 1))).astype(np.int64)
        P = gen.integers(0, p, size=(n, n), dtype=np.int64)
        try:
            A0 = _matmul_mod(P * lam % p, mat_inv(P, p), p)
        except ValueError:
            continue
        rep = good_spectrum(A0, ctx, N)
        if rep.good and rep.singular_indices == [s]:
            break
    Ad = gen.integers(0, p, size=(n, n, N), dtype=np.int64)
    Ad[:, :, 0] = A0
    A = SeriesMatrix(p, Ad, N)
    F = SeriesMatrix(p, gen.integers(0, p, size=(n, 1, N), dtype=np.int64), N)
    C = residual(F, ProblemInstance(field, ctx, n, N, A, SeriesMatrix.zeros(p, n, 1, N)), True)
    return ProblemInstance(field, QContext(field, q, 1), n, N, A, C)
