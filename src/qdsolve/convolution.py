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
* an exact float64 FFT product over limbs (Percival, Math. Comp. 72,
  2003), used for p < 2^31 when the shorter operand, cut to out_len, has
  at least ``TRANSFORM_CUTOFF`` = 512 coefficients.  Both operands are split
  into k limbs of b bits, one ``rfft`` per operand transforms its stacked
  limbs, the limb products are summed by degree (low*low, low*high +
  high*low, high*high for two limbs), and one ``irfft`` returns the
  2k - 1 degree rows, which are rounded and recombined mod p.  The
  cyclic length L is the next power of two of max(out_len,
  La + Lb - 1 - lo): every coefficient it wraps lands below lo, so the
  window is exact;
* trivial short-circuits for empty operands and empty windows.

The route depends on the shorter operand's length only, not on the
number of coefficient pairs: a 64 x 65536 product stays direct.  The
cutoff is the crossover measured in process (2-core Xeon VM, numpy
2.4.6, best of 15), full products and windows [Ls, 2Ls) of an Ls by 2Ls
product alike.  At Ls = 256 the direct route wins at p = 65521 and
p = 134217757 (0.07 ms against 0.08 and 0.10-0.13 ms).  At 384 the
transform wins at p = 65521 (0.10 against 0.15 ms) and ties at
p = 134217757 (0.15-0.16 ms each).  From 512 on it wins at both primes,
2.6-3.2x: 512 x 512 at p = 134217757 takes 0.17 against 0.52 ms, where
512 (p - 1)^2 >= 2^63 puts the direct route on its limb split, and
512 x 4096 takes 1.3 ms against 2.0 ms (p = 65521) and 4.0 ms
(p = 134217757).

The limb count comes from an a-priori rounding bound.  A degree row sums
at most k cyclic limb convolutions.  In each, the operands' Euclidean
norms multiply to at most 4^b sqrt(L m), m = min(La, Lb), since limbs
lie below 2^b and both operands, cut to out_len, have at most L
coefficients and the shorter m.  Percival's bound for a radix-2
transform with correctly rounded twiddles and unit roundoff 2^-53 puts
the error of one convolution below that norm product times
2^-53 (12 log2 L + 3), so every rounded row is exact when

    k 4^b sqrt(L m) (12 log2 L + 3) 2^-53 <= 1/8,

and ``_limbs`` picks the smallest such k, with b = ceil(bits(p - 1) / k).
With m = L/2, two limbs cover p = 134217757 up to L = 16384, and
p = 2^31 - 1 takes three from L = 2048 on.  The factor 2 below the
tripwire covers the gap between the radix-2 model and numpy's
mixed-radix transform: a kept value 1/4 or more from an integer raises
``InternalInvariantError`` instead of being rounded.  The bound also
keeps every row below 2^53, so the rounded rows are exact in int64.

``conv_trunc`` adds the number of field multiplications the chosen
backend performs to the global counter.  The transform is charged in
field-multiplication equivalents: (L/2) log2 L per real transform (2k
forward, 2k - 1 inverse), L/2 + 1 per limb product and 2k - 1 per kept
coefficient for the recombination.
"""

from __future__ import annotations

import math

import numpy as np

from . import instrument
from .errors import InternalInvariantError, PreconditionError

_INT64 = np.int64
_EMPTY = np.zeros(0, dtype=_INT64)

# Shorter operand's length, after the cut to out_len, from which the
# transform runs (the measured crossover, see above).
TRANSFORM_CUTOFF = 512


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _limbs(p: int, L: int, m: int) -> tuple[int, int]:
    """(k, b): the fewest b-bit limbs that meet the rounding bound for a
    length-L transform whose shorter operand has m coefficients."""
    bits = (p - 1).bit_length()
    scale = math.sqrt(L * m) * (12 * (L.bit_length() - 1) + 3) * 2.0**-53
    for k in range(1, bits + 1):
        b = -(-bits // k)
        if k * 4**b * scale <= 0.125:
            return k, b
    raise PreconditionError(f"no exact limb split for p = {p} at transform length {L}")


def _conv_ntt(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int) -> np.ndarray:
    # coefficient c >= L of the product wraps onto c - L < La + Lb - 1 - L <= lo
    L = _next_pow2(max(out_len, len(a) + len(b) - 1 - lo))
    k, bits = _limbs(p, L, min(len(a), len(b)))
    shifts = bits * np.arange(k, dtype=_INT64)[:, None]
    mask = (1 << bits) - 1
    fa = np.fft.rfft((a >> shifts) & mask, L)
    fb = np.fft.rfft((b >> shifts) & mask, L)
    prod = np.zeros((2 * k - 1, L // 2 + 1), dtype=np.complex128)
    for i in range(k):
        prod[i : i + k] += fa[i] * fb
    rows = np.fft.irfft(prod, L)[:, lo:out_len]
    exact = np.rint(rows)
    err = float(np.abs(rows - exact).max())
    if not err < 0.25:  # NaN included
        raise InternalInvariantError(
            f"FFT product rounding error {err:.3g} at p = {p}, length {L}, {k} limbs"
        )
    radix = (1 << bits) % p
    out = np.zeros(out_len - lo, dtype=_INT64)
    for row in exact[::-1].astype(_INT64):
        out = (out * radix + row) % p
    lg = L.bit_length() - 1
    instrument.mul_counter.add(
        (4 * k - 1) * (L // 2) * lg + k * k * (L // 2 + 1) + (2 * k - 1) * (out_len - lo)
    )
    return out


def _conv_direct(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int) -> np.ndarray:
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
        # With p < 2^31 this needs a shorter operand above 2^16 coefficients:
        # conv_trunc sends every such product to the transform, and no exact
        # route is left here.
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
    # the shorter operand has at least TRANSFORM_CUTOFF coefficients
    if len(a) >= TRANSFORM_CUTOFF and len(b) >= TRANSFORM_CUTOFF and p < 2**31:
        return _conv_ntt(a, b, p, out_len, lo)
    return _conv_direct(a, b, p, out_len, lo)
