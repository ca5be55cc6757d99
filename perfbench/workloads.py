"""Seeded workload generator for the qdsolve benchmark.

Every instance is drawn from a numpy Philox stream keyed by the run seed
and the workload name, so the same seed gives byte-identical inputs on
every commit.  Nothing here calls the library's own instance generator:
the constant coefficient A0 is rigged as P diag(lam) P^-1 with the
spectrum conditions each engine needs checked by this module's own
arithmetic, and C is planted from a known solution F* so that every
answer can be checked against it.

All arrays are int64 with canonical residues in [0, p); the primes used
stay below 2^28, so a product of two residues stays below 2^56.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from arith import conv_mod

P28 = 134217757  # prime, the library's default modulus
P16 = 65521  # largest 16-bit prime


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    N: int
    p: int
    q_random: bool
    # rigged singular index of A0 (k = 1 only), or None for none at all
    singular_at: int | None
    why: str


# instances drawn per run; the loop cycles through them, so a cache keyed
# by one input cannot serve every solve
POOL_SIZE = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scalar_long", n=1, k=1, N=4096, p=P28, q_random=True, singular_at=None,
            why="n=1, N=4096: the only products above NTT_CUTOFF; DAC's 8k-node "
            "recursion makes polymat elementwise overhead dominate; linalg idle",
        ),
        Workload(
            "system_singular", n=4, k=1, N=512, p=P28, q_random=True, singular_at=512 // 3,
            why="n=4, N=512, one rigged singular index: parameter columns, "
            "dense _rref per step, 16x16 Kronecker solves, gcd spectrum test",
        ),
        Workload(
            "wide_k3", n=9, k=3, N=128, p=P28, q_random=True, singular_at=None,
            why="n=9, k=3 as in A7, N=128: the DAC/Newton crossover; 81x81 "
            "Kronecker _rref and 729 direct convolutions per product",
        ),
        Workload(
            "differential_k2", n=6, k=2, N=256, p=P16, q_random=False, singular_at=None,
            why="n=6, k=2, q=1: the only path through diagonalize, splitting_lemma, "
            "QContext.integrate and per-entry pol_coeffs_de",
        ),
    )
}


@dataclass
class Instance:
    """x^k delta(F) = A sigma(F) + C mod x^N with a planted solution F*."""

    p: int
    q: int
    k: int
    n: int
    N: int
    A: np.ndarray  # (n, n, N)
    C: np.ndarray  # (n, 1, N)
    F_star: np.ndarray  # (n, 1, N)
    # dimension of the solution space, known from the construction
    dim: int


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a mod p by the extended Euclidean algorithm."""
    r0, r1 = a % p, p
    s0, s1 = 1, 0
    while r1:
        t = r0 // r1
        r0, r1 = r1, r0 - t * r1
        s0, s1 = s1, s0 - t * s1
    if r0 != 1:
        raise ZeroDivisionError(f"{a} is not invertible mod {p}")
    return s0 % p


def mat_inverse(M: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a small square matrix mod p with Python ints, or None."""
    n = M.shape[0]
    a = [[int(v) % p for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return None
        a[c], a[r] = a[r], a[c]
        inv = mod_inverse(a[c][c], p)
        a[c] = [v * inv % p for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[c])]
    return np.array([row[n:] for row in a], dtype=np.int64)


def mat_mul(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """Small matrix product mod p with Python ints (no overflow concerns)."""
    Xo, Yo = X.astype(object), Y.astype(object)
    return np.array((Xo @ Yo) % p, dtype=np.int64)


def q_tables(q: int, p: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(q^i, gamma_i) for 0 <= i < N, gamma_i = (q^i - 1)/(q - 1) (= i when q = 1)."""
    qp = np.empty(N, dtype=np.int64)
    w = 1
    for i in range(N):
        qp[i] = w
        w = w * q % p
    if q == 1:
        gam = np.arange(N, dtype=np.int64) % p
    else:
        gam = (qp - 1) % p * mod_inverse(q - 1, p) % p
    return qp, gam


def _stream(seed: int, name: str) -> np.random.Generator:
    key = np.array([seed % 2**64, zlib.crc32(name.encode())], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _spectrum_ok(w: Workload, q: int, lam: np.ndarray, qp: np.ndarray, gam: np.ndarray) -> bool:
    """The engines' preconditions on A0 = P diag(lam) P^-1, by direct comparison.

    q has order at least N (see draw_q).
    k = 1: singular indices (gamma_i q^-i in Spec A0) are exactly
    {singular_at}, and Spec A0 misses q^i Spec A0 - gamma_i for i >= 1.
    k > 1: A0 invertible, and for q != 1 Spec A0 misses q^i Spec A0.
    """
    p, N = w.p, w.N
    if len(set(lam.tolist())) != len(lam) or not lam.all():
        return False
    if w.k > 1 and q == 1:
        return True  # p > N - k and distinct nonzero eigenvalues suffice
    image = qp[1:, None] * lam[None, :] % p
    if w.k == 1:
        image = (image - gam[1:, None]) % p
    if np.isin(image, lam).any():
        return False
    if w.k == 1:
        qinv = mod_inverse(q, p)
        qip, _ = q_tables(qinv, p, N)
        points = gam * qip % p
        hits = np.nonzero(np.isin(points, lam))[0].tolist()
        want = [] if w.singular_at is None else [w.singular_at]
        return hits == want
    return True


def draw_q(w: Workload, seed: int) -> int:
    """The run's dilation constant, of multiplicative order at least N, so that
    gamma_i q^-i never repeats below N."""
    if not w.q_random:
        return 1
    gen = _stream(seed, f"{w.name}/q")
    while True:
        q = int(gen.integers(2, w.p))
        qp, _ = q_tables(q, w.p, w.N)
        if not np.any(qp[1:] == 1):
            return q


def make_instance(w: Workload, seed: int, index: int, q: int) -> Instance:
    """Instance number `index` of workload `w` for run seed `seed` and constant q."""
    gen = _stream(seed, f"{w.name}/{index}")
    p, n, N, k = w.p, w.n, w.N, w.k
    qp, gam = q_tables(q, p, N)
    while True:
        lam = gen.integers(1, p, size=n, dtype=np.int64)
        if w.singular_at is not None:
            s = w.singular_at
            # gamma_s q^-s is an eigenvalue, so step s is singular
            lam[0] = int(gam[s]) * mod_inverse(int(qp[s]), p) % p
        if not _spectrum_ok(w, q, lam, qp, gam):
            continue
        P = gen.integers(0, p, size=(n, n), dtype=np.int64)
        Pinv = mat_inverse(P, p)
        if Pinv is not None:
            break
    A = gen.integers(0, p, size=(n, n, N), dtype=np.int64)
    A[:, :, 0] = mat_mul(mat_mul(P, np.diag(lam), p), Pinv, p)
    F = gen.integers(0, p, size=(n, 1, N), dtype=np.int64)
    C = apply_operator(A, F, q, k, p)
    dim = 0 if w.singular_at is None else 1
    return Instance(p=p, q=q, k=k, n=n, N=N, A=A, C=C, F_star=F, dim=dim)


def make_pool(w: Workload, seed: int) -> list[Instance]:
    """The run's inputs: POOL_SIZE instances sharing p, q and k."""
    q = draw_q(w, seed)
    return [make_instance(w, seed, i, q) for i in range(POOL_SIZE)]


def apply_operator(A: np.ndarray, F: np.ndarray, q: int, k: int, p: int) -> np.ndarray:
    """x^k delta(F) - A sigma(F) mod x^N for an (n, t, N) stack of columns F."""
    n, t, N = F.shape
    qp, gam = q_tables(q, p, N)
    out = np.zeros((n, t, N), dtype=np.int64)
    # coefficient j of x^k delta(F) is gamma_(j-k+1) F_(j-k+1)
    if N > k:
        out[:, :, k:] = gam[1 : N - k + 1] * F[:, :, 1 : N - k + 1] % p
    sF = F * qp % p
    for r in range(n):
        for c in range(n):
            for col in range(t):
                out[r, col] = (out[r, col] - conv_mod(A[r, c], sF[c, col], p)[:N]) % p
    return out
