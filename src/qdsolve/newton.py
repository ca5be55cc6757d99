"""Newton-iteration solver: gauge to polynomial coefficients and back.

The pipeline: pick (B, V) with A sigma(V) = V B mod x^k and V_0
invertible, lift V to an invertible W solving the associated equation
x^k delta(W) = A sigma(W) - W B mod x^N by a precision-doubling
iteration (each step solves an auxiliary equation whose right side is
the current residual), then solve the polynomial-coefficient equation
x^k delta(Y) = B sigma(Y) + Gamma coefficient by coefficient and return
(W Y, W M).  The right side Gamma = W^(-1) C is lifted as C's column
(``_lift_column``): W^(-1) is refined only to ceil(N/2) coefficients,
and one error-window correction takes Gamma from there to x^N, so the
last half of the precision costs n x n by n x 1 products, O(n^2 M(N)),
instead of a full n x n inverse refresh.  PolCoeffsDE calls the dense
oracle's step kernel (oracle._solve_term_by_term), so its singular steps
get the same exact parameter and constraint treatment.  The kernel
folds the twist q^g of step g out of the whole step, so its step table
holds the folded step matrices, gamma_g q^(-g) Id - B_0 for k = 1 and
the one matrix -B_0 for k > 1, with their inverses from one stacked
elimination; for k > 1 every step reads one history array and is one
window product and one product with -B_0^(-1).  For k = 1, B is
constant and no step of that solve reads another, so the nonsingular
steps are one stacked product and the kernel's loop eliminates only the
singular ones.

The good-spectrum condition is a hard precondition here: it makes every
per-coefficient Sylvester step Y_i X - X B0 = Z_i uniquely solvable.
Each step is solved by the Cayley-Hamilton identity
chi_B0(Y_i) X = sum_a Y_i^a Z_i D_a (see linalg.sylvester_solve), with
chi_B0 = chi_A0, D_a polynomials in B0, and the inverses of every
chi_B0(Y_i), B0's powers and the D_a taken from the spectrum report, all
formed once per solve.  For k = 1 the steps of a ladder level are
independent and the level is one stacked solve, Horner in the stacked
Y_i.  For k > 1, q != 1 the window sum links them and each step is one
solve; there Y_i = q^i B0, so a step is three products: Z_i against the
D_a, B0's powers against the q^(ia)-scaled results, and
chi_B0(Y_i)^(-1).  For q = 1, k > 1, B is diagonal with distinct
constant entries b_i0, so no entry of the auxiliary equation involves
another (diff_sylvester_differential):
diagonal entries are integrals, and all off-diagonal ones run
(b_i0 - b_j0) U_t = gamma_(t-k+1) U_(t-k+1) - sum_(d=1..k-1) (b_id - b_jd) U_(t-d) - Gamma_t
side by side, each product reduced mod p before it is summed.  The
inverse of the iterate is maintained incrementally across levels and
refreshed by Newton doubling (``SeriesMatrix.inv_newton``), each
doubling step forming only the error window of A X above the precision
already reached.  The residual R of a level vanishes below mprev and is
formed on [mprev - 1, target) only, its products middle products.  The
coefficient at mprev - 1 is checked on every solve: the step operator is
invertible under the good-spectrum condition, so a wrong top coefficient
of the previous update shows there (for q = 1, k > 1 a diagonal entry is
an integral, and the next update, which starts k - 1 coefficients lower,
computes that coefficient again).  With runtime checks on, the whole low
part [0, mprev) is formed and checked too.  The products after it run
only on the window where the residual and the update are supported.
"""

from __future__ import annotations

import numpy as np

from . import instrument
from .convolution import _matmul_mod
from .errors import InternalInvariantError, SpectrumError
from .field import inverses, mulmod
from .linalg import mat_inv, sylvester_solve
from .oracle import _solve_term_by_term
from .polymat import SeriesMatrix
from .series import QContext
from .solution import SolutionSpace, resolve_affine_family
from .spectrum import SpectrumReport, diagonalize, good_spectrum, step_matrices

_INT64 = np.int64


def choose_associated(A: SeriesMatrix, ctx: QContext) -> tuple[SeriesMatrix, SeriesMatrix]:
    """Polynomials (B, V) of degree < k with A sigma(V) = V B mod x^k,
    formed mod x^min(k, A.prec): coefficients past A's precision never
    reach a solution known to that precision.

    B = A mod x^k with V = Id, except in the differential case with
    k > 1 where the splitting construction is required."""
    if ctx.k == 1 or ctx.q != 1:
        m = min(ctx.k, A.prec)
        return A.truncate(m), SeriesMatrix.identity(A.p, A.rows, m)
    return splitting_lemma(A, ctx)


def splitting_lemma(A: SeriesMatrix, ctx: QContext) -> tuple[SeriesMatrix, SeriesMatrix]:
    """Diagonal polynomial B and V with V_0 invertible, A V = V B mod x^k,
    formed mod x^min(k, A.prec).

    Needs k > 1, q = 1 and A_0 with n distinct eigenvalues in K, which
    A_0's good spectrum report proved.
    """
    k, p, n = min(ctx.k, A.prec), ctx.p, A.rows
    if ctx.k <= 1 or ctx.q != 1:
        raise ValueError("splitting construction applies to q = 1 and k > 1 only")
    P, roots = diagonalize(A.coefficient_array(0), p)
    # P and P^(-1) as one-plane series, so each product with them is one _matmul_mod
    Pc = SeriesMatrix(p, P[:, :, None], k)
    D = SeriesMatrix(p, mat_inv(P, p)[:, :, None], k).mul(A.truncate(k)).mul(Pc)
    # 1 / (root_l - root_m) off the diagonal; its zero diagonal keeps V_i's zero
    inv_diff = np.zeros((n, n), dtype=_INT64)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    r = np.array(roots, dtype=_INT64)
    inv_diff[rows, cols] = inverses((r[rows] - r[cols]) % p, p)
    # rows t n .. (t+1) n of Vs hold V_t and row t of b the diagonal of B_t,
    # so sum_(j>=1) D_j V_(i-j) is one product of [D_J | ... | D_1] with a
    # row range of Vs, and sum_(j=1..i-1) V_j B_(i-j) scales V_j's columns
    Vs = np.zeros((k * n, n), dtype=_INT64)
    b = np.zeros((k, n), dtype=_INT64)
    Vs[:n] = np.eye(n, dtype=_INT64)
    b[0] = roots
    V3 = Vs.reshape(k, n, n)
    Dcat = D.side_by_side()
    Ld = D.data.shape[2]
    for i in range(1, k):
        # delta_i = sum_(j=1..i-1) V_j B_(i-j) - sum_(j=1..J) D_j V_(i-j)
        delta_i = np.zeros((n, n), dtype=_INT64)
        J = min(i, Ld - 1)
        if J > 0:
            delta_i -= _matmul_mod(Dcat[:, (Ld - 1 - J) * n : (Ld - 1) * n], Vs[(i - J) * n : i * n], p)
        if i > 1:
            delta_i += mulmod(V3[1:i], b[i - 1 : 0 : -1, None, :], p).sum(axis=0)
        delta_i %= p
        b[i] = (-np.diagonal(delta_i)) % p
        V3[i] = mulmod(delta_i, inv_diff, p)
    Bc = np.zeros((n, n, k), dtype=_INT64)
    Bc[np.arange(n), np.arange(n)] = b.T
    Vt = V3.transpose(1, 2, 0)
    B = SeriesMatrix(p, Bc, k)
    V = Pc.mul(SeriesMatrix(p, Vt, k))
    if A.truncate(k).mul(V, k) != V.mul(B, k):
        raise InternalInvariantError("splitting construction residual nonzero")
    return B, V


def pol_coeffs_de(P: SeriesMatrix, Q: SeriesMatrix, N: int, ctx: QContext) -> SolutionSpace | None:
    """Solve x^k delta(Y) = P sigma(Y) + Q mod x^N for polynomial P of degree < k.

    PolCoeffsDE: the step kernel of the dense oracle applied to this
    equation, so singular steps are resolved exactly and None means the
    equation has no solution.
    """
    if P.data.shape[2] > ctx.k:
        raise ValueError("coefficient matrix must be a polynomial of degree < k")
    if Q.prec < N:
        raise ValueError("right-hand side known to lower precision than requested")
    family, cons, _ = _solve_term_by_term(P, Q, N, ctx)
    return resolve_affine_family(family, cons)


def diff_sylvester(
    Gamma: SeriesMatrix, B: SeriesMatrix, m: int, N: int, ctx: QContext, rep: SpectrumReport
) -> SeriesMatrix:
    """Solve x^k delta(U) = B sigma(U) - U B + Gamma mod x^N, Gamma = 0 mod x^m.

    For k = 1 or q != 1; each coefficient is one constant Sylvester
    solve Y_i X - X B0 = Z_i, uniquely solvable under the good-spectrum
    condition.  rep must be good_spectrum(B0, ctx, N') for some N' >= N:
    it holds chi_B0(Y_i)^(-1) for every step and B0's Sylvester tables,
    so each step is only the Cayley-Hamilton right side and one product.
    For k = 1 the steps do not depend on each other and the whole window
    is one stacked sylvester_solve.  For k > 1 the window sum links them
    and each step is one call, with Y_i = q^i B0 passed as its row of
    powers q^i .. q^((n-1)i), all formed once per call: three products,
    and two more, side by side, for the window.  The
    result satisfies U = 0 mod x^m.
    """
    k, p, n = ctx.k, ctx.p, B.rows
    if not (k <= m < N):
        raise ValueError("window must satisfy k <= m < N")
    if rep.steps_inv is None or len(rep.steps_inv) < N:
        raise ValueError(f"spectrum report has no Sylvester table up to index {N - 1}")
    B0 = B.coefficient_array(0)
    Bd = B.data
    Ld = Bd.shape[2]
    Gd = Gamma.data[:, :, :N]
    Lg = Gd.shape[2]
    if np.any(Gd[:, :, :m]):
        raise ValueError("right-hand side not divisible by x^m")
    bad = np.flatnonzero(rep.steps_singular[m:N])
    if len(bad):
        raise SpectrumError(
            f"Sylvester step at index {m + int(bad[0])} is singular: "
            "spectra of the step pair intersect"
        )
    if k == 1:
        Z = np.zeros((N - m, n, n), dtype=_INT64)
        if Lg > m:
            Z[: Lg - m] = (-Gd[:, :, m:]).transpose(2, 0, 1) % p
        Y = step_matrices(B0, ctx, m, N)
        X = sylvester_solve(Y, B0, Z, p, rep.steps_inv[m:N], rep.tables)
        U = np.zeros((n, n, N), dtype=_INT64)
        U[:, :, m:] = X.transpose(1, 2, 0)
        return SeriesMatrix(p, U, N)
    # column block t of Uc is U_t, and rows t n .. (t+1) n of Gq hold
    # q^t U_t, so the window of step i is one slice of each
    K = max(min(Ld, k) - 1, 0)
    Bside = Bd[:, :, K:0:-1].transpose(0, 2, 1).reshape(n, K * n)  # [B_K | ... | B_1]
    Bdown = Bd[:, :, K:0:-1].transpose(2, 0, 1).reshape(K * n, n)  # [B_K; ...; B_1]
    Uc = np.zeros((n, N * n), dtype=_INT64)
    Gq = np.zeros((N * n, n), dtype=_INT64)
    qp = ctx.qpow_slice(N)
    # row i - m holds q^i, q^(2i), .., q^((n-1)i): the Y_i = q^i B0 of step i
    spow = np.repeat(qp[m:, None], max(n - 1, 1), axis=1)
    for a in range(1, n - 1):
        spow[:, a] = mulmod(spow[:, a - 1], qp[m:], p)
    qp = qp.tolist()
    gam = ctx.gamma_slice(N).tolist()
    for i in range(m, N):
        C = Gd[:, :, i] if i < Lg else np.zeros((n, n), dtype=_INT64)
        J = min(K, i - m)  # sum_(j=1..J) B_j q^(i-j) U_(i-j) - U_(i-j) B_j
        if J:
            lo, hi = (i - J) * n, i * n
            C = (C + _matmul_mod(Bside[:, (K - J) * n :], Gq[lo:hi], p)
                 - _matmul_mod(Uc[:, lo:hi], Bdown[(K - J) * n :], p))
        if i - k + 1 >= m:
            t = (i - k + 1) * n
            C = C - mulmod(gam[i - k + 1], Uc[:, t : t + n], p)
        X = sylvester_solve(spow[i - m], B0, (-C) % p, p, rep.steps_inv[i], rep.tables)
        Uc[:, i * n : (i + 1) * n] = X
        if K and i + 1 < N:
            Gq[i * n : (i + 1) * n] = mulmod(qp[i], X, p)
    return SeriesMatrix(p, Uc.reshape(n, N, n).transpose(0, 2, 1), N)


def diff_sylvester_differential(
    Gamma: SeriesMatrix, B: SeriesMatrix, m: int, N: int, ctx: QContext
) -> SeriesMatrix:
    """The q = 1, k > 1 variant of the auxiliary solve; B must be diagonal.

    Entry (i, j) is x^k delta(u) = (B_ii - B_jj) u + Gamma_ij and involves
    no other entry.  A diagonal entry is an integral.  Off the diagonal,
    with B_ii = sum_(d<k) b_id x^d, coefficient t in [m, N) is

        (b_i0 - b_j0) U_t = gamma_(t-k+1) U_(t-k+1) - sum_(d=1..k-1) (b_id - b_jd) U_(t-d) - Gamma_t

    (U_t = 0 below m since Gamma = 0 mod x^m), run for all n(n-1) entries
    side by side with one inverse of b_i0 - b_j0 each.  Each product is
    reduced mod p before it is summed.  Constant diagonal entries that are
    not pairwise distinct raise SpectrumError before any arithmetic.
    """
    k, p, n = ctx.k, ctx.p, B.rows
    if ctx.q != 1 or not (1 < k <= m < N):
        raise ValueError("this variant needs q = 1 and a window 1 < k <= m < N")
    Bd, Gd = B.data, Gamma.truncate(N).data
    off = ~np.eye(n, dtype=bool)
    if np.any(Bd[off]) or Bd.shape[2] > k or np.any(Gd[:, :, :m]):
        raise ValueError("B must be diagonal of degree < k and Gamma divisible by x^m")
    rows, cols = np.nonzero(off)  # off-diagonal entry e is (rows[e], cols[e])
    dif = np.zeros((len(rows), k), dtype=_INT64)
    dif[:, : Bd.shape[2]] = (Bd[rows, rows] - Bd[cols, cols]) % p
    if not dif[:, 0].all():
        raise SpectrumError("constant diagonal entries of B are not pairwise distinct")
    X = np.zeros((len(rows), N), dtype=_INT64)  # row e holds Gamma_t until step t solves U_t
    X[:, : Gd.shape[2]] = Gd[rows, cols]
    U = np.zeros((n, n, N), dtype=_INT64)
    for i in range(n):
        u = ctx.integrate(Gamma.entry(i, i).shift(-k)).data[0, 0, :N]
        U[i, i, : len(u)] = u
    inv = inverses(dif[:, 0], p)
    gam = ctx.gamma_slice(N)
    for t in range(m, N):
        lo = max(m, t - k + 1)  # U_(t-d) for d = t-lo .. 1; the others vanish
        acc = mulmod(dif[:, t - lo : 0 : -1], X[:, lo:t], p).sum(axis=1) + X[:, t]
        if lo == t - k + 1:
            acc += mulmod(p - gam[lo], X[:, lo], p)
        X[:, t] = mulmod(p - acc % p, inv, p)
    U[rows, cols] = X
    Us = SeriesMatrix(p, U, N)
    if instrument.checks_enabled():
        Bp = B.as_poly_prec(N)
        if ctx.theta(Us, N, 0, 0) - Bp.mul(Us, N) + Us.mul(Bp, N) != Gamma.truncate(N):
            raise InternalInvariantError("differential auxiliary residual nonzero")
    return Us


def _associated_residual(
    A: SeriesMatrix, B: SeriesMatrix, W: SeriesMatrix, ctx: QContext, prec: int, lo: int
) -> SeriesMatrix:
    """Coefficients [lo, prec) of x^k delta(W) - A sigma(W) + W B, as a
    series mod x^(prec - lo); W and B are exact polynomials, A.prec >= prec."""
    W, B = W.as_poly_prec(prec), B.as_poly_prec(prec)
    return ctx.theta(W, prec, lo, 0) - A.truncate(prec).mul(W.sigma(ctx), prec, lo) + W.mul(B, prec, lo)


def _newton_ladder(N: int, k: int) -> list[int]:
    ladder = [N]
    while ladder[-1] > k:
        ladder.append((ladder[-1] + k) // 2)  # ceil((N + k - 1) / 2)
    ladder.reverse()
    return ladder


def newton_ae(A: SeriesMatrix, B: SeriesMatrix, V: SeriesMatrix, N: int, ctx: QContext) -> SeriesMatrix:
    """Lift V (a solution of the associated equation mod x^k, invertible)
    to a solution mod x^N with W = V mod x^k and W_0 invertible."""
    W, _, _ = _newton_ae_impl(A, B, V, N, ctx, good_spectrum(B.coefficient_array(0), ctx, N))
    return W


def _newton_ae_impl(
    A: SeriesMatrix, B: SeriesMatrix, V: SeriesMatrix, N: int, ctx: QContext, rep: SpectrumReport
):
    # rep = good_spectrum(B0, ctx, N): B, and so B0, is fixed for the whole solve
    k = ctx.k
    if N <= k:
        return V, None, 0
    if A.prec < N:
        raise ValueError("A known to lower precision than requested")
    ladder = _newton_ladder(N, k)
    W = V
    Winv: SeriesMatrix | None = None
    inv_valid = 0
    differential = k > 1 and ctx.q == 1
    for idx in range(1, len(ladder)):
        target = ladder[idx]
        mprev = ladder[idx - 1]
        Wp = W.as_poly_prec(target)
        # R vanishes below mprev; coefficient mprev - 1 is formed to check
        # that, and a wrong top coefficient of the last update shows there
        R = _associated_residual(A, B, Wp, ctx, target, mprev - 1)
        try:
            Rh = R.shift(-1)
        except ValueError as e:
            raise InternalInvariantError(
                f"associated-equation residual nonzero at x^{mprev - 1}"
            ) from e
        if instrument.checks_enabled() and not _associated_residual(A, B, Wp, ctx, mprev, 0).is_zero():
            raise InternalInvariantError(
                f"associated-equation residual not divisible by x^{mprev}"
            )
        if Rh.is_zero():
            continue
        need = target - mprev
        Winv = Wp.inv_newton(need, Winv, inv_valid)
        inv_valid = max(inv_valid, need)
        Gh = Winv.as_poly_prec(need).mul(Rh, need)
        Gamma = (-Gh).shift(mprev).truncate(target)
        if differential:
            U = diff_sylvester_differential(Gamma, B, mprev, target, ctx)
        else:
            U = diff_sylvester(Gamma, B, mprev, target, ctx, rep)
        # U = 0 mod x^(mprev - k + 1); the strict shift asserts the valuation
        v = mprev - k + 1
        Uh = U.shift(-v)
        WU = Wp.truncate(target - v).mul(Uh, target - v).shift(v)
        W = (Wp + WU.truncate(target)).truncate(target)
        # the update is 0 mod x^v, so Winv still inverts W to that order
        inv_valid = min(inv_valid, v)
    return W.as_poly_prec(N), Winv, inv_valid


def _lift_column(
    W: SeriesMatrix, C: SeriesMatrix, N: int, X: SeriesMatrix | None, s: int
) -> SeriesMatrix:
    """Gamma = W^(-1) C mod x^N, given X = W^(-1) mod x^s (or X = None).

    X is first refined to h = ceil(N / 2) coefficients if s < h.  Then
    Gamma_0 = X C mod x^h gives W Gamma_0 = C + x^h E mod x^N, and

        Gamma = Gamma_0 - x^h (X mod x^(N - h)) E

    since W X = Id mod x^h and 2h >= N.  Every product has C's columns,
    so the lift costs O(n^2 M(N)) against the O(n^3 M(N)) of refining X
    to x^N.
    """
    h = (N + 1) // 2
    X = W.inv_newton(h, X, s)
    G0 = X.mul(C, h).as_poly_prec(N)
    E = W.mul(G0, N, lo=h) - C.shift(-h, truncate=True)
    Gamma = G0 - X.mul(E, N - h).shift(h)
    if instrument.checks_enabled() and W.mul(Gamma, N) != C:
        raise InternalInvariantError("column lift residual W Gamma - C nonzero")
    return Gamma


def newton_solve(A: SeriesMatrix, C: SeriesMatrix, N: int, ctx: QContext) -> SolutionSpace | None:
    """Generators of the solution space mod x^N via the gauge transform.

    Raises SpectrumError when A_0 lacks a good spectrum at precision N
    (this is distinct from returning None, which reports a consistent
    check that the equation itself has no solution).
    """
    ctx.require_operands(A, C, N)
    rep = good_spectrum(A.coefficient_array(0), ctx, N)
    if not rep.good:
        raise SpectrumError(f"no good spectrum at precision {N}: {rep.reason}")
    At = A.truncate(N)
    B, V = choose_associated(At, ctx)
    # B0 is A0 unless k > 1 and q = 1, where diff_sylvester is not used
    W, Winv, inv_valid = _newton_ae_impl(At, B, V, N, ctx, rep)
    Wp = W.as_poly_prec(N)
    Gamma = _lift_column(Wp, C.truncate(N), N, Winv, inv_valid)
    sol = pol_coeffs_de(B, Gamma, N, ctx)
    if sol is None:
        return None
    return SolutionSpace(Wp.mul(sol.particular, N), Wp.mul(sol.basis, N))
