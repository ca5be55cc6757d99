"""The prime field K = Z/pZ and its elementwise kernels.

``PrimeField`` validates the modulus and names the field; the arithmetic
itself works on raw ints and numpy int64 arrays with every residue kept
canonical in [0, p), so equality of field values is plain integer
comparison.  ``mulmod`` is the one elementwise product: a * b mod p with
broadcasting, charged one multiplication per entry of the result.
``inverses`` inverts m nonzero residues with one Fermat power on a
product tree (Montgomery's trick, one vectorized pass per level):
ceil(log2 m) passes multiply adjacent pairs up to the product of all m,
and as many carry its inverse back down.  ``powers`` tabulates
w^0 .. w^(m-1) in about log2 m vectorized passes, and ``_inverse_tree``,
the core of ``inverses``, builds ``QContext``'s table of 1/gamma_i; both
are uncharged, since their tables are set-up, like ``QContext``'s other
tables.  Outside the matrix and convolution kernels, every elementwise
product, table of powers and batch of scalar inverses in the package
comes from these.

The modulus must be below 2^31, so that (p - 1)^2 < 2^62: the product of
two canonical residues, plus anything below 2^62, fits in int64.  That
is the one overflow argument of the package.  Matrix and polynomial
products, whose sums of such terms could exceed it, are formed only in
``convolution``, by ``convolution._matmul_mod`` and the convolution
backends, which split or chunk long sums; every other kernel multiplies
residues elementwise and reduces at once.
"""

from __future__ import annotations

import functools

import numpy as np

from . import instrument
from .errors import PreconditionError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_P_CEILING = 2**31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def powers(w: int, m: int, p: int) -> np.ndarray:
    """w^0 .. w^(m-1) mod p as an int64 array, by doubling: the first h
    powers times w^h are the next h."""
    out = np.ones(m, dtype=np.int64)
    h, wh = 1, w % p
    while h < m:
        t = min(h, m - h)
        out[h : h + t] = out[:t] * wh % p
        h += t
        wh = wh * wh % p
    return out


def mulmod(a, b, p: int):
    """a * b mod p, broadcast as numpy does, charged one multiplication per
    entry of the result."""
    out = np.multiply(a, b) % p  # an array or a numpy scalar, so it has a size
    instrument.mul_counter.add(out.size)
    return out


def inverses(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses of the nonzero residues x (one axis) on a product tree:
    one Fermat power and 3(m-1) products for m values, charged here."""
    if len(x):
        instrument.mul_counter.add(3 * (len(x) - 1) + instrument.inv_cost(p))
    return _inverse_tree(x, p)


def _inverse_tree(x: np.ndarray, p: int) -> np.ndarray:
    """The uncharged core of ``inverses``, for set-up tables.

    Up, m - 1 pair products, an odd last entry moving up alone; down, two
    per pair, a node's inverse times one child being the other's inverse.
    """
    if len(x) == 0:
        return np.zeros(0, dtype=np.int64)
    tree = [np.asarray(x, dtype=np.int64)]
    while len(tree[-1]) > 1:
        v = tree[-1]
        up = v[0:-1:2] * v[1::2] % p
        tree.append(np.append(up, v[-1]) if len(v) % 2 else up)
    inv = np.array([pow(int(tree[-1][0]), p - 2, p)], dtype=np.int64)
    for v in reversed(tree[:-1]):
        h = len(v) // 2
        out = np.empty(len(v), dtype=np.int64)
        out[0 : 2 * h : 2] = inv[:h] * v[1::2] % p
        out[1::2] = inv[:h] * v[0 : 2 * h : 2] % p
        if len(v) % 2:
            out[-1] = inv[-1]
        inv = out
    return inv


class PrimeField:
    """The field Z/pZ for an odd prime 2 < p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p <= 2:
            raise PreconditionError(f"modulus must be a prime > 2, got {p!r}")
        if p >= _P_CEILING:
            raise PreconditionError(f"modulus {p} is not below the ceiling 2^31 of the int64 kernels")
        if not is_prime(p):
            raise PreconditionError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


@functools.cache
def checked_modulus(p: int) -> int:
    """p, when ``PrimeField`` accepts it; otherwise its PreconditionError.
    The verdict is cached per p, so a series type can ask on every
    construction."""
    return PrimeField(p).p
