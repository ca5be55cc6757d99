"""Exact windowed products of polynomial matrices mod p: the package's
one place where residue products are formed and their route decided.

``conv_trunc(a, b, p, out_len, lo)`` takes the operand stacks a (rows,
inner, La) and b (inner, cols, Lb) and returns coefficients
[lo, min(out_len, La + Lb - 1)) of their matrix product, entry (i, j)
being sum_l a[i, l] * b[l, j], as one (rows, cols, .) array.  It forms
only what that window needs.  One-dimensional operands are the
1 x 1 x 1 case and give a one-dimensional result.  Empty operands and
empty windows return no coefficients.  Otherwise the route, the window,
the limb split and the charge are decided once per product, never per
entry, from Ls = min(La, Lb), the shorter operand's length cut to
out_len, and the stack shape; the first rule that holds picks the
backend.  A modulus at or above the ceiling 2^31 of the int64 kernels
(``field._P_CEILING``) is refused on entry, as ``PrimeField`` and
``SeriesMatrix`` refuse it:

* shift-batched, when Ls <= rows cols: one ``_matmul_mod`` per
  coefficient t of the shorter operand takes the planes of the longer
  one in [max(0, lo - t), min(Ll, out_len - t)) and adds their product
  into the output window they reach, so only the coefficient pairs that
  land in [lo, out_len) are formed.  A constant matrix is a one-plane
  operand, so a product with it is one ``_matmul_mod``.  Every summand
  is a canonical residue and there are at most Ls < 2^31 of them, so
  the int64 sums stay below 2^62 and are reduced once.  The rule makes
  the route take no more Python-level calls than there are output
  entries;
* an exact float64 FFT product over limbs (Percival, Math. Comp. 72,
  2003), when Ls >= ``TRANSFORM_CUTOFF`` = 512, or when Ls >=
  ``STACKED_TRANSFORM_CUTOFF`` = 128 and the stacks have rows >= 2,
  cols >= 2 and rows inner cols >= 27.  Every entry of both
  stacks is split into k limbs of b bits and transformed once:
  k (rows inner + inner cols) forward ``rfft``s, in one call per stack.
  The limb products and their inner sums are one batched complex
  matmul over the F = L/2 + 1 frequencies, (F, k rows, inner) @
  (F, inner, k cols), an outer product when inner = 1.  They are summed
  by degree (low*low, low*high + high*low, high*high for two limbs),
  and one ``irfft`` call returns the 2k - 1 degree rows of each of the
  rows cols entries, which are rounded and recombined mod p.  The cyclic
  length L is the next power of two of max(out_len, La + Lb - 1 - lo):
  every coefficient it wraps lands below lo, so the window is exact;
* direct otherwise, on int64: each
  (row, inner, col) triple is one C-level ``correlate`` against the
  shorter operand, which is reversed once per product.  A window is
  either the full product of the shorter operand with the long operand's
  coefficients that reach it, cut to the window, or, when that source is
  longer than the window, a middle product: ``'valid'`` mode over that
  source zero-padded to [lo - Ls + 1, out_len), one dot product of
  length Ls per kept coefficient.  An entry's inner sum is reduced mod p
  once when inner Ls (p - 1)^2 < 2^63, and each triple once otherwise;
  when even Ls (p - 1)^2 reaches 2^63, a one-sided limb split of the
  shorter operand keeps each correlation below Ls (p - 1) 2^16 < 2^56,
  since Ls < 512 here.

``_matmul_mod``, the constant-matrix product the shift-batched route runs
on, is also the one matrix product of the package's other modules.
``_step_mod`` is one step of the step kernel (``oracle._solve_term_by_term``):
its window product, gamma term and product with the step table's inverse
as one call, charged as ``_matmul_mod`` would charge them.  A window of
m < ``_overflow_step(p)`` columns is one int64 product, reduced once
with the right side and the gamma term.  A longer one reads the
coefficient block the kernel split into limbs once per call
(``_limb_stack``), not the history: the k limbs of b bits are stacked as
one (k n, M) array, so the window is one product of its last m columns
with the history, whose k limb rows are combined by Horner's rule mod p,
the right side c and the gamma term g h added before the last
reduction.  Each limb sum is below m 2^b (p - 1), so that last sum lies
in [-(p - 1)^2, (m + 1) 2^b (p - 1)], and k is the fewest limbs,
b = ceil(bits(p - 1) / k), for which (M + 1) 2^b (p - 1) < 2^63 holds
for the longest window M: two limbs hold up to M = 4,194,302 at
p = 134217757 and up to M = 65,535 at p = 2^31 - 1, where three hold up
to M = 2,097,151.

``TRANSFORM_CUTOFF`` depends on the shorter operand's length only, not
on the number of coefficient pairs or of entries: a 64 x 65536 product
stays direct.  It is the crossover measured in process for one entry
(2-core Xeon VM, numpy 2.4.6, best of 15), full products and windows
[Ls, 2Ls) of an Ls by 2Ls product alike.  At Ls = 256 the direct route
wins at p = 65521 and p = 134217757 (0.07 ms against 0.08 and
0.10-0.13 ms).  At 384 the transform wins at p = 65521 (0.10 against
0.15 ms) and ties at p = 134217757 (0.15-0.16 ms each).  From 512 on it
wins at both primes, 2.6-3.2x: 512 x 512 at p = 134217757 takes 0.17
against 0.52 ms, where 512 (p - 1)^2 >= 2^63 puts the direct route on
its limb split, and 512 x 4096 takes 1.3 ms against 2.0 ms (p = 65521)
and 4.0 ms (p = 134217757).

A stack transforms each entry once and forms its inner sums as one
batched matmul, so its crossover lies lower than one entry's: the
direct route costs rows inner cols correlations, the transform about
k (rows inner + inner cols + rows cols) transforms for k limbs.
``STACKED_TRANSFORM_CUTOFF`` is where the stacks the solvers form gain
from it.  In process (2-core Xeon VM, numpy 2.4.6, best of 7 x 5), in
microseconds, direct / transform, for the windows [0, 128) and
[64, 128) of a 128 by 128 product:

    shape (rows x inner x cols), p   [0, 128)      [64, 128)
    4 x 4 x 4, 134217757              806 / 357     546 / 335
    6 x 6 x 6, 65521                 2269 / 185    1080 / 179
    4 x 4 x 2, 134217757              406 / 178     208 / 169
    3 x 3 x 3, 134217757              290 / 171     152 / 160
    2 x 2 x 2, 134217757               97 / 123      54 / 122
    2 x 1 x 2, 134217757               99 / 124      61 / 117
    4 x 4 x 1, 134217757              208 / 143     111 / 136
    9 x 9 x 1, 134217757             1038 / 470     505 / 479
    3 x 3 x 3, 2^31 - 1               752 / 177     395 / 166
    9 x 9 x 9, 2^31 - 1             19329 / 4040   9712 / 3562

Repeated runs moved single figures by up to 1.8x, not their order.  At
Ls = 128 the transform loses on 2 x 2 x 2 and 2 x 1 x 2 stacks at
p = 134217757, by up to 2.3x, and ties on 3 x 3 x 3 windows there;
rows inner cols >= 27 keeps the smaller stacks direct.  Matrix times
vector products (cols = 1), and vector times matrix ones (rows = 1),
lose or tie on the windows [m, 2m) the divide-and-conquer engine
forms, so they keep the single-entry rule.  Below 128 the stacked
transform still wins on 4 x 4 x 4 and larger stacks from about 32
coefficients; that lower crossover waits on a benchmark whose peak
memory does not grow with the number of solves per run (ROADMAP
item 1), since a faster solver fits more answers into a run.

The limb count comes from an a-priori rounding bound.  A degree row of
an entry sums at most k limb pairs for each of the inner terms.  For
each pair the operands' Euclidean norms multiply to at most
4^b sqrt(L m), m = min(La, Lb), since limbs lie below 2^b and both
operands, cut to out_len, have at most L coefficients and the shorter
m.  Over the inner sum, sum_l |a_l| |b_l| <= inner 4^b sqrt(L m): the
factor is linear in inner.  Percival's bound for a radix-2 transform
with correctly rounded twiddles and unit roundoff 2^-53 puts the error
of one convolution below its norm product times 2^-53 (12 log2 L + 3),
and a sum formed in the frequency domain and inverted once stays below
the sum of those bounds.  So every rounded row is exact when

    k inner 4^b sqrt(L m) (12 log2 L + 3) 2^-53 <= 1/8,

and ``_limbs`` picks the smallest such k, with b = ceil(bits(p - 1) / k).
It is handed m inner^2 in place of m, since sqrt(L m inner^2) =
inner sqrt(L m); handing it m inner would cover only sqrt(inner) of the
linear factor.  With m = L/2 and inner = 1, two limbs cover
p = 134217757 up to L = 16384, and p = 2^31 - 1 takes three from
L = 2048 on.  The factor 2 below the tripwire covers the gap between the
radix-2 model and numpy's mixed-radix transform: a kept value 1/4 or
more from an integer raises ``InternalInvariantError`` instead of being
rounded.  The bound also keeps every row below 2^53, so the rounded rows
are exact in int64.

The backend ``conv_trunc`` picks adds the field multiplications it
performs to the global counter, once per product.  The shift-batched
route charges what its ``_matmul_mod`` calls form, rows inner cols per
coefficient pair (s, t) with lo <= s + t < out_len.  The direct backend
charges rows inner cols times what one triple forms, Ls min(w, hi - lo)
for the window [lo, hi) and the w coefficients of the long operand that
reach it: La Lb for a full product, Ls per kept coefficient for a
middle product.  Off the transform, no product so charges more than the
rows inner cols La Lb of a full product.  The transform is charged in
field-multiplication equivalents: (L/2) log2 L per real transform (k
(rows inner + inner cols) forward, (2k - 1) rows cols inverse), k^2 rows
inner cols (L/2 + 1) for the limb products and 2k - 1 per kept
coefficient of each entry for the recombination.  At 1 x 1 x 1 all three
charges are those of the single product.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import instrument
from .errors import InternalInvariantError, PreconditionError
from .field import _P_CEILING

_INT64 = np.int64

# Shorter operand's length, after the cut to out_len, from which the
# transform runs (the measured crossover, see above).
TRANSFORM_CUTOFF = 512
# The same for stacks of rows, cols >= 2 and rows inner cols >= 27.
STACKED_TRANSFORM_CUTOFF = 128


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _limbs(p: int, L: int, m: int) -> tuple[int, int]:
    """(k, b): the fewest b-bit limbs that meet the rounding bound for a
    length-L transform of an inner sum whose norm products add up to at
    most 4^b sqrt(L m), m = inner^2 min(La, Lb)."""
    bits = (p - 1).bit_length()
    scale = math.sqrt(L * m) * (12 * (L.bit_length() - 1) + 3) * 2.0**-53
    for k in range(1, bits + 1):
        b = -(-bits // k)
        if k * 4**b * scale <= 0.125:
            return k, b
    raise PreconditionError(f"no exact limb split for p = {p} at transform length {L}")


@functools.cache
def _overflow_step(p: int) -> int:
    """How many products of residues mod p an int64 sum holds: 2^62 / (p-1)^2."""
    return max(1, (2**62) // ((p - 1) * (p - 1) + 1))


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p with int64 accumulation kept below 2^63, for p < 2^31.

    Leading batch axes of a and b broadcast as they do for ``@``; an
    inner dimension of 1 is the broadcast product a * b.  Up to
    step = 2^62 / (p-1)^2 inner terms (``_overflow_step``, computed once
    per p) one product cannot overflow.
    Longer sums split b into s-bit limbs, b = b_hi 2^s + b_lo with
    s = ceil(bits(p) / 2), so that every term is below p 2^s: two products
    cover any inner < 2^62 / (p 2^s).  Past that the sum is chunked.
    """
    inner = a.shape[-1]
    step = _overflow_step(p)
    if inner == 1:
        # an outer product: broadcasting forms it without the matmul call
        out = a * b % p
    elif inner <= step:
        out = a @ b % p
    else:
        s = (p.bit_length() + 1) // 2
        if inner << s < (2**62) // p:
            # both limb sums stay below inner p 2^s, and 2^s < p
            hi = a @ (b >> s) % p
            out = ((hi << s) + a @ (b & ((1 << s) - 1))) % p
        else:
            out = 0
            for i in range(0, inner, step):
                out = (out + a[..., i : i + step] @ b[..., i : i + step, :]) % p
    instrument.mul_counter.add(out.size * inner)
    return out


def _limb_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, int] | None:
    """(S, b): the (n, M) block a of canonical residues split into k limbs
    of b bits, limb i (bits i b .. (i + 1) b) in rows i n .. (i + 1) n of S.

    k is the fewest limbs, b = ceil(bits(p - 1) / k), for which
    (M + 1) 2^b (p - 1) < 2^63, so that every window of at most M columns
    meets ``_step_mod``'s bound.  None when even the M-column window fits
    one int64 sum (M < ``_overflow_step(p)``), since no step splits then.
    """
    n, M = a.shape
    if M < _overflow_step(p):
        return None
    bits = (p - 1).bit_length()
    for k in range(1, bits + 1):
        b = -(-bits // k)
        if ((M + 1) << b) * (p - 1) < 2**63:
            shifts = b * np.arange(k, dtype=_INT64)[:, None, None]
            return ((a >> shifts) & ((1 << b) - 1)).reshape(k * n, M), b
    raise PreconditionError(f"no limb split keeps a window of {M} terms below 2^63 at p = {p}")


def _step_mod(
    a: np.ndarray, limbs: tuple[np.ndarray, int] | None, f: np.ndarray, c: np.ndarray,
    g: int, h: np.ndarray | None, inv: np.ndarray | None, p: int,
) -> np.ndarray:
    """inv @ ((c + a @ f - g h) mod p) mod p: one step of the step kernel.

    c (n, w) is the step's canonical right side, a (n, m) @ f (m, w) its
    window sum (m = 0 for none) and g h its k > 1 gamma term (h None for
    none).  inv None returns the reduced right side itself.  The sum is
    reduced once when its m + 1 products fit an int64 sum, m < step =
    ``_overflow_step(p)``.  A longer window reads limbs = (S, b) instead of
    a: the limb stack (``_limb_stack``) of a block whose last m columns are
    a, made once per kernel call.  One product S[:, -m:] @ f forms the
    limb sums P_0 .. P_(k-1), each below m 2^b (p - 1), and Horner's rule
    r = (r 2^b + P_i) mod p combines them from the top, with c - g h added
    to the last term before the one reduction that ends the sum; it lies in
    [-(p - 1)^2, (m + 1) 2^b (p - 1)], inside int64 by the limb count.
    The product with inv goes through ``_matmul_mod`` when its n terms do
    not fit one sum.  Charged as ``_matmul_mod`` would charge the two
    products, n w m and n n w, plus n w for the gamma term.
    """
    step = _overflow_step(p)
    m = a.shape[1]
    muls = 0
    if m == 0:
        r = c
    elif m < step:
        r = c + a @ f
        muls = r.size * m
    else:
        S, b = limbs
        prod = S[:, S.shape[1] - m :] @ f
        n = len(c)
        r = 0  # Horner's rule over limbs k - 1 .. 1, each step reduced
        for i in range(len(prod) - n, 0, -n):
            r = ((r << b) + prod[i : i + n]) % p
        r = (r << b) + prod[:n] + c
        muls = r.size * m
    if h is not None:
        r = r - g * h
        muls += r.size
    r = r % p
    if inv is not None:
        n = inv.shape[1]
        if n == 1:
            r = inv * r % p
        elif n <= step:
            r = inv @ r % p
        else:
            r, n = _matmul_mod(inv, r, p), 0
        muls += r.size * n
    instrument.mul_counter.add(muls)
    return r


def _conv_shift(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int) -> np.ndarray:
    rows, cols = a.shape[0], b.shape[1]
    La, Lb = a.shape[2], b.shape[2]
    # planes first, so a run of planes is one stacked operand
    at = np.ascontiguousarray(a.transpose(2, 0, 1))
    bt = np.ascontiguousarray(b.transpose(2, 0, 1))
    a_short = La <= Lb
    Ls, Ll = (La, Lb) if a_short else (Lb, La)
    acc = np.zeros((out_len - lo, rows, cols), dtype=_INT64)
    for t in range(max(0, lo - Ll + 1), min(Ls, out_len)):
        u0, u1 = max(0, lo - t), min(Ll, out_len - t)
        c = _matmul_mod(at[t], bt[u0:u1], p) if a_short else _matmul_mod(at[u0:u1], bt[t], p)
        acc[t + u0 - lo : t + u1 - lo] += c
    out = np.empty((rows, cols, out_len - lo), dtype=_INT64)
    np.remainder(acc.transpose(1, 2, 0), p, out=out)
    return out


def _conv_ntt(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int) -> np.ndarray:
    rows, inner, La = a.shape
    cols, Lb = b.shape[1], b.shape[2]
    # coefficient c >= L of the product wraps onto c - L < La + Lb - 1 - L <= lo
    L = _next_pow2(max(out_len, La + Lb - 1 - lo))
    k, bits = _limbs(p, L, min(La, Lb) * inner * inner)
    shifts = bits * np.arange(k, dtype=_INT64)[:, None, None, None]
    mask = (1 << bits) - 1
    fa = np.fft.rfft((a >> shifts) & mask, L)  # (k, rows, inner, F)
    fb = np.fft.rfft((b >> shifts) & mask, L)  # (k, inner, cols, F)
    F = L // 2 + 1
    # limb i of row r times limb j of column c, summed over inner, lands in
    # degree row i + j of entry (r, c); with one inner term it is an outer
    # product, formed one limb of a at a time
    deg = np.zeros((rows, cols, 2 * k - 1, F), dtype=np.complex128)
    if inner == 1:
        fbt = fb[:, 0].transpose(1, 0, 2)  # (cols, k, F)
        for i in range(k):
            deg[:, :, i : i + k] += fa[i, :, 0, None, None] * fbt
    else:
        # each spectrum, its transposed copy and their product is dropped
        # as soon as the next one exists: they are the transient's bulk
        lhs = fa.transpose(3, 0, 1, 2).reshape(F, k * rows, inner)
        rhs = fb.transpose(3, 1, 0, 2).reshape(F, inner, k * cols)
        del fa, fb
        prod = (lhs @ rhs).reshape(F, k, rows, k, cols)
        del lhs, rhs
        for i in range(k):
            deg[:, :, i : i + k] += prod[:, i].transpose(1, 3, 2, 0)
        del prod
    vals = np.fft.irfft(deg, L)[..., lo:out_len]
    del deg
    exact = np.rint(vals)
    # |vals - exact|, formed in place
    np.subtract(vals, exact, out=vals)
    err = float(np.abs(vals, out=vals).max())
    if not err < 0.25:  # NaN included
        raise InternalInvariantError(
            f"FFT product rounding error {err:.3g} at p = {p}, length {L}, {k} limbs"
        )
    exact = exact.astype(_INT64)
    radix = (1 << bits) % p
    out = exact[:, :, -1] % p
    for d in range(2 * k - 3, -1, -1):
        out = (out * radix + exact[:, :, d]) % p
    lg = L.bit_length() - 1
    transforms = k * (rows * inner + inner * cols) + (2 * k - 1) * rows * cols
    instrument.mul_counter.add(
        transforms * (L // 2) * lg
        + k * k * rows * inner * cols * (L // 2 + 1)
        + (2 * k - 1) * rows * cols * (out_len - lo)
    )
    return out


def _conv_direct(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int) -> np.ndarray:
    rows, inner, La = a.shape
    cols, Lb = b.shape[1], b.shape[2]
    # entry (s, t) of the result is the sum over l of short[s, l] * long[t, l]:
    # (rows, cols) when a is the shorter operand, (cols, rows) otherwise
    a_short = La <= Lb
    short, long = (a, b.transpose(1, 0, 2)) if a_short else (b.transpose(1, 0, 2), a)
    Ls, Ll = short.shape[2], long.shape[2]
    # coefficient c sums short[t] long[c - t], so the window reads long on [w0, w1)
    w0, w1 = max(0, lo - Ls + 1), min(Ll, out_len)
    width = out_len - lo
    if w1 - w0 <= width:
        # full product of the source, cut to the window (lo = 0: mod x^out_len)
        src, mode, cut = long[:, :, w0:w1], "full", slice(lo - w0, out_len - w0)
    else:
        # middle product: output t of 'valid' mode is coefficient lo + t
        src = np.zeros(long.shape[:2] + (width + Ls - 1,), dtype=_INT64)
        src[:, :, w0 - lo + Ls - 1 : w1 - lo + Ls - 1] = long[:, :, w0:w1]
        mode, cut = "valid", slice(None)
    instrument.mul_counter.add(rows * inner * cols * Ls * min(w1 - w0, width))
    # one row per (entry, inner term), the rows of entry s at s inner ..;
    # correlating against the reversed shorter operand is the convolution
    ys = short[:, :, ::-1].reshape(-1, Ls)
    if Ls * (p - 1) * (p - 1) >= 2**63:
        s = (p.bit_length() + 1) // 2
        radix = (1 << s) % p
        ys = list(zip(ys >> s, ys & ((1 << s) - 1)))

        def term(x, y, m):
            return (np.correlate(x, y[0], m) % p * radix + np.correlate(x, y[1], m) % p) % p

    elif inner * Ls * (p - 1) * (p - 1) >= 2**63:

        def term(x, y, m):
            return np.correlate(x, y, m) % p

    else:  # an entry's whole inner sum fits, and is reduced once
        term = np.correlate
    xs = src.reshape(-1, src.shape[2])
    if rows * inner * cols == 1:  # one triple: no row lists and no output stack
        return (term(xs[0], ys[0], mode)[cut] % p)[None, None]
    xs, ys = list(xs), list(ys)
    modes = [mode] * inner
    out = np.empty((rows, cols, width), dtype=_INT64)
    dst = out if a_short else out.transpose(1, 0, 2)
    for si in range(len(ys) // inner):
        ys_s = ys[si * inner : (si + 1) * inner]
        for ti in range(len(xs) // inner):
            terms = map(term, xs[ti * inner : (ti + 1) * inner], ys_s, modes)
            acc = next(terms)
            for t in terms:
                acc += t
            np.remainder(acc[cut], p, out=dst[si, ti])
    return out


def conv_trunc(a: np.ndarray, b: np.ndarray, p: int, out_len: int, lo: int = 0) -> np.ndarray:
    """Coefficients [lo, out_len) of the matrix product of the stacks
    a (rows, inner, La) and b (inner, cols, Lb), as a (rows, cols, .)
    array with entries canonical mod p.

    lo = 0 is the product mod x^out_len.  The result is cut at the
    product's length La + Lb - 1 and has no coefficients when lo reaches
    it or an operand has none.  One-dimensional a and b are the
    1 x 1 x 1 case and give a one-dimensional result.
    """
    if p >= _P_CEILING:
        raise PreconditionError(f"modulus {p} is not below the ceiling 2^31 of the int64 kernels")
    flat = a.ndim == 1
    if flat:
        a, b = a[None, None], b[None, None]
    if a.ndim != 3 or b.ndim != 3 or a.shape[1] != b.shape[0]:
        raise ValueError("operand stacks must be (rows, inner, La) and (inner, cols, Lb)")
    out_len = min(out_len, a.shape[2] + b.shape[2] - 1)
    if a.size == 0 or b.size == 0 or out_len <= lo:
        out = np.zeros((a.shape[0], b.shape[1], 0), dtype=_INT64)
    else:
        # coefficients at or above out_len reach no kept coefficient
        if a.shape[2] > out_len:
            a = a[:, :, :out_len]
        if b.shape[2] > out_len:
            b = b[:, :, :out_len]
        # the route rule of the module docstring
        rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
        Ls = min(a.shape[2], b.shape[2])
        if Ls <= rows * cols:
            out = _conv_shift(a, b, p, out_len, lo)
        elif Ls >= TRANSFORM_CUTOFF or (
            Ls >= STACKED_TRANSFORM_CUTOFF and min(rows, cols) >= 2 and rows * inner * cols >= 27
        ):
            out = _conv_ntt(a, b, p, out_len, lo)
        else:
            out = _conv_direct(a, b, p, out_len, lo)
    return out[0, 0] if flat else out
