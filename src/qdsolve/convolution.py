"""Exact windowed convolution of coefficient arrays mod p.

``conv_trunc(a, b, p, out_len, lo)`` returns coefficients [lo, out_len)
of a*b and forms only what that window needs.  Three backends sit behind
it:

* direct ``np.convolve`` on int64 (with a one-sided limb split when the
  partial sums could overflow 63 bits).  A window is either the full
  product of the shorter operand with the long operand's coefficients
  that reach it, cut to the window, or, when that source is longer than
  the window, a middle product: ``'valid'`` mode over that source
  zero-padded to [lo - Ls + 1, out_len), one dot product of length Ls
  per kept coefficient;
* a vectorized radix-2 NTT over three Fourier primes recombined by CRT,
  used above a size cutoff.  The cyclic length is the next power of two
  of max(out_len, La + Lb - 1 - lo): every coefficient it wraps lands
  below lo, so the window is exact.  Each (prime, length) plan is built
  once, its twiddles from one ``field.powers`` table per direction;
* trivial short-circuits for empty operands and empty windows.

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


def _conv_ntt(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int = 0) -> np.ndarray:
    # coefficient c >= L of the product wraps onto c - L < La + Lb - 1 - L <= lo
    L = _next_pow2(max(out_len, len(a) + len(b) - 1 - lo))
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
        residues.append(_ntt_inverse(fa, plan)[lo:out_len])
    r1, r2, r3 = residues
    p1, p2, p3 = _NTT_PRIMES
    t2 = (r2 - r1) * pow(p1, p2 - 2, p2) % p2
    m3 = (r1 + (p1 % p3) * t2) % p3
    t3 = (r3 - m3) * pow(p1 * p2 % p3, p3 - 2, p3) % p3
    out = (r1 + (p1 % p) * t2 + (p1 * p2 % p) * t3) % p
    # 3 transforms per prime at L/2 muls per stage, plus pointwise,
    # scaling and CRT recombination of the window.
    lg = L.bit_length() - 1
    instrument.mul_counter.add(3 * (3 * (L // 2) * lg + 2 * L) + 2 * (out_len - lo))
    return out


def _conv_direct(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int = 0) -> np.ndarray:
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    Ls = len(short)
    # coefficient c sums short[t] long[c - t], so the window reads long on [w0, w1)
    w0, w1 = max(0, lo - Ls + 1), min(len(long), out_len)
    if w1 - w0 <= out_len - lo:
        # full product of the source, cut to the window (lo = 0: mod x^out_len)
        src, mode, cut = long[w0:w1], "full", slice(lo - w0, out_len - w0)
    else:
        # middle product: output t of 'valid' mode is coefficient lo + t
        src = np.zeros(out_len - lo + Ls - 1, dtype=_INT64)
        src[w0 - lo + Ls - 1 : w1 - lo + Ls - 1] = long[w0:w1]
        mode, cut = "valid", slice(None)
    instrument.mul_counter.add(Ls * min(w1 - w0, out_len - lo))
    if Ls * (p - 1) * (p - 1) < 2**63:
        return np.convolve(short, src, mode)[cut] % p
    s = (p.bit_length() + 1) // 2
    if Ls * (p - 1) << s >= 2**63:
        # With p < 2^31 this needs an overlap above 2^16, so at least 2^32
        # pairs: conv_trunc sends such a product to the NTT whenever its CRT
        # range covers the coefficients, and no exact route is left here.
        raise PreconditionError(
            f"modulus p = {p} too large for an exact convolution of lengths "
            f"{len(a)} and {len(b)}"
        )
    hi = np.convolve(short >> s, src, mode)[cut] % p
    lo_limb = np.convolve(short & ((1 << s) - 1), src, mode)[cut] % p
    return (hi * ((1 << s) % p) + lo_limb) % p


def conv_trunc(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int = 0) -> np.ndarray:
    """Coefficients [lo, out_len) of a*b, entries canonical mod p.

    lo = 0 is a*b mod x^out_len.  The result is cut at the product's
    length and is empty when lo >= min(out_len, len(a) + len(b) - 1).
    """
    out_len = min(out_len, len(a) + len(b) - 1)
    if len(a) == 0 or len(b) == 0 or out_len <= lo:
        return _EMPTY
    # coefficients at or above out_len reach no kept coefficient
    a, b = a[:out_len], b[:out_len]
    full = len(a) + len(b) - 1
    work = len(a) * len(b)
    if work >= NTT_CUTOFF and _next_pow2(full) * (p - 1) ** 2 < _CRT_BOUND:
        return _conv_ntt(a, b, p, out_len, lo)
    return _conv_direct(a, b, p, out_len, lo)
