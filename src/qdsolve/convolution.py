"""Exact truncated convolution of coefficient arrays mod p.

Three backends behind one entry point:

* direct ``np.convolve`` on int64 (with a one-sided limb split when the
  partial sums could overflow 63 bits),
* a vectorized radix-2 NTT over three Fourier primes recombined by CRT,
  used above a size cutoff; each (prime, length) plan is built once, its
  twiddles from one ``field.powers`` table per direction,
* trivial short-circuits for empty operands.

``conv_trunc`` adds the number of field multiplications the chosen
backend performs to the global counter.
"""

from __future__ import annotations

import functools

import numpy as np

from . import instrument
from .errors import PreconditionError
from .field import powers

_INT64 = np.int64
_EMPTY = np.zeros(0, dtype=_INT64)

# Fourier primes with large 2-adic valuation and their primitive roots.
_NTT_PRIMES = (469762049, 998244353, 754974721)
_NTT_ROOTS = (3, 3, 11)
_CRT_BOUND = _NTT_PRIMES[0] * _NTT_PRIMES[1] * _NTT_PRIMES[2]

# Product size (in coefficient pairs) above which the NTT pays off.
NTT_CUTOFF = 4_000_000


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


class _NttPlan:
    """Twiddle tables for length-L transforms modulo one Fourier prime.

    Stage h of a transform multiplies by w^(s i), i < h, with stride
    s = L / 2h: every s-th entry of one table of L / 2 powers per
    direction, stored contiguous.
    """

    __slots__ = ("P", "L", "fwd", "inv", "linv")

    def __init__(self, P: int, g: int, L: int):
        assert (P - 1) % L == 0, "transform length unsupported by this prime"
        self.P = P
        self.L = L
        w = pow(g, (P - 1) // L, P)
        strides = [1 << j for j in range(L.bit_length() - 1)]  # 1, 2, .., L/2
        fwd = powers(w, L // 2, P)
        inv = powers(pow(w, P - 2, P), L // 2, P)
        self.fwd = [fwd[::s].copy() for s in strides]  # h = L/2 down to 1
        self.inv = [inv[::s].copy() for s in reversed(strides)]  # h = 1 up to L/2
        self.linv = pow(L, P - 2, P)


# one plan per (prime, length), built at first use
_plan = functools.cache(_NttPlan)


def _ntt_forward(x: np.ndarray, plan: _NttPlan) -> np.ndarray:
    # Decimation in frequency: natural order in, bit-reversed order out.
    P = plan.P
    for tw in plan.fwd:
        h = len(tw)
        y = x.reshape(-1, 2, h)
        u = y[:, 0, :]
        v = y[:, 1, :]
        s = (u + v) % P
        d = (u - v + P) * tw % P
        y[:, 0, :] = s
        y[:, 1, :] = d
    return x


def _ntt_inverse(x: np.ndarray, plan: _NttPlan) -> np.ndarray:
    # Decimation in time: bit-reversed order in, natural order out.
    P = plan.P
    for tw in plan.inv:
        h = len(tw)
        y = x.reshape(-1, 2, h)
        u = y[:, 0, :]
        v = y[:, 1, :] * tw % P
        s = (u + v) % P
        d = (u - v + P) % P
        y[:, 0, :] = s
        y[:, 1, :] = d
    x = x * plan.linv % P
    return x


def _conv_ntt(a: np.ndarray, b: np.ndarray, p: int, out_len: int) -> np.ndarray:
    need = len(a) + len(b) - 1
    L = _next_pow2(need)
    residues = []
    for P, g in zip(_NTT_PRIMES, _NTT_ROOTS):
        plan = _plan(P, g, L)
        fa = np.zeros(L, dtype=_INT64)
        fa[: len(a)] = a % P
        fb = np.zeros(L, dtype=_INT64)
        fb[: len(b)] = b % P
        fa = _ntt_forward(fa, plan)
        fb = _ntt_forward(fb, plan)
        fa = fa * fb % P
        residues.append(_ntt_inverse(fa, plan)[:out_len])
    r1, r2, r3 = residues
    p1, p2, p3 = _NTT_PRIMES
    t2 = (r2 - r1) * pow(p1, p2 - 2, p2) % p2
    m3 = (r1 + (p1 % p3) * t2) % p3
    t3 = (r3 - m3) * pow(p1 * p2 % p3, p3 - 2, p3) % p3
    out = (r1 + (p1 % p) * t2 + (p1 * p2 % p) * t3) % p
    # 3 transforms per prime at L/2 muls per stage, plus pointwise,
    # scaling and CRT recombination.
    lg = L.bit_length() - 1
    instrument.mul_counter.add(3 * (3 * (L // 2) * lg + 2 * L) + 2 * out_len)
    return out


def _conv_direct(a: np.ndarray, b: np.ndarray, p: int, out_len: int) -> np.ndarray:
    mn = min(len(a), len(b))
    instrument.mul_counter.add(len(a) * len(b))
    if mn * (p - 1) * (p - 1) < 2**63:
        return np.convolve(a, b)[:out_len] % p
    s = (p.bit_length() + 1) // 2
    if mn * (p - 1) << s >= 2**63:
        # With p < 2^31 this needs an overlap above 2^16, so at least 2^32
        # pairs: conv_trunc sends such a product to the NTT whenever its CRT
        # range covers the coefficients, and no exact route is left here.
        raise PreconditionError(
            f"modulus p = {p} too large for an exact convolution of lengths "
            f"{len(a)} and {len(b)}"
        )
    hi = np.convolve(a >> s, b)[:out_len] % p
    lo = np.convolve(a & ((1 << s) - 1), b)[:out_len] % p
    return (hi * ((1 << s) % p) + lo) % p


def conv_trunc(a: np.ndarray, b: np.ndarray, p: int, out_len: int) -> np.ndarray:
    """Coefficients of a*b mod x^out_len, entries canonical mod p."""
    if out_len <= 0 or len(a) == 0 or len(b) == 0:
        return _EMPTY
    full = len(a) + len(b) - 1
    if out_len > full:
        out_len = full
    work = len(a) * len(b)
    if work >= NTT_CUTOFF and _next_pow2(full) * (p - 1) ** 2 < _CRT_BOUND:
        return _conv_ntt(a, b, p, out_len)
    return _conv_direct(a, b, p, out_len)
