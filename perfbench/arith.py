"""Exact arithmetic mod p for the benchmark's answer checks.

Shares no kernel with qdsolve: the convolution splits one operand into
limbs small enough that every int64 partial sum of np.convolve stays
below 2^63, and the echelon form is a plain Gauss-Jordan pass over the
few basis rows of a solution space.
"""

from __future__ import annotations

import numpy as np


def conv_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Full product a*b mod p of canonical residue arrays."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    # limb * (p - 1) * min(len) must stay below 2^63
    overlap = min(len(a), len(b))
    bits = 62 - (p - 1).bit_length() - overlap.bit_length()
    if bits < 1:
        raise ValueError("operands too long for the int64 limb split")
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    shift = 0
    rest = a.astype(np.int64)
    mask = (1 << bits) - 1
    while rest.any():
        part = np.convolve(rest & mask, b) % p
        out = (out + part * pow(2, shift, p)) % p
        rest = rest >> bits
        shift += bits
    return out


def echelon(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p of a few long rows, and its pivot columns."""
    m = rows.astype(np.int64) % p
    pivots: list[int] = []
    r = 0
    for _ in range(m.shape[0]):
        nz = np.nonzero(m[r:])
        if len(nz[0]) == 0:
            break
        # leftmost nonzero column among the remaining rows
        c = int(nz[1].min())
        pr = r + int(nz[0][nz[1] == c][0])
        m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        for i in range(m.shape[0]):
            if i != r and m[i, c]:
                m[i] = (m[i] - int(m[i, c]) * m[r]) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def reduce_against(v: np.ndarray, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """v minus its component along an echelon basis, mod p."""
    v = v % p
    for row, c in zip(basis, pivots):
        if v[c]:
            v = (v - int(v[c]) * row) % p
    return v


def pad(data: np.ndarray, N: int) -> np.ndarray:
    """(n, t, L) coefficient planes zero-padded or cut to (n, t, N)."""
    n, t, L = data.shape
    full = np.zeros((n, t, N), dtype=np.int64)
    full[:, :, : min(L, N)] = data[:, :, :N]
    return full


def flatten_columns(data: np.ndarray, N: int) -> np.ndarray:
    """(n, t, L) coefficient planes as t rows of length n*N."""
    n, t = data.shape[:2]
    return np.swapaxes(pad(data, N), 0, 1).reshape(t, n * N)


def canonical(particular: np.ndarray, basis: np.ndarray, N: int, p: int) -> bytes:
    """A byte string that two affine spaces mod x^N share iff they are equal."""
    ech, pivots = echelon(flatten_columns(basis, N), p)
    part = reduce_against(flatten_columns(particular, N)[0], ech, pivots, p)
    return f"{len(pivots)}|".encode() + ech.tobytes() + part.tobytes()
