import numpy as np
import pytest

from qdsolve import convolution
from qdsolve.convolution import conv_trunc
from qdsolve.errors import PreconditionError


def _coeff(a, b, c, p):
    """Coefficient c of a*b mod p, in Python integers."""
    lo, hi = max(0, c - len(b) + 1), min(c, len(a) - 1)
    return sum(int(a[t]) * int(b[c - t]) for t in range(lo, hi + 1)) % p


def test_direct_refuses_modulus_beyond_crt_range():
    # at p = 2^61 - 1 even a length-3 by length-2 product overflows the limb
    # split, and the NTT fallback's CRT range cannot hold its coefficients
    p = 2**61 - 1
    a = np.array([1, 2, 3], dtype=np.int64)
    b = np.array([5, 7], dtype=np.int64)
    with pytest.raises(PreconditionError):
        conv_trunc(a, b, p, 4)


def test_direct_ntt_fallback_matches_python_ints(monkeypatch):
    # p = 2^31 - 1 with an overlap of 2^16 + 1 terms is past the direct limb
    # split; conv_trunc hands the product to the NTT, whose CRT range covers it
    p = 2**31 - 1
    calls = []
    ntt = convolution._conv_ntt

    def counted(*args):
        calls.append(args[3])
        return ntt(*args)

    monkeypatch.setattr(convolution, "_conv_ntt", counted)
    gen = np.random.default_rng(5)
    a = gen.integers(p - 2**20, p, 2**16 + 1)
    b = gen.integers(0, p, 2**16 + 3)
    full = len(a) + len(b) - 1
    got = conv_trunc(a, b, p, full)
    assert calls == [full]
    assert len(got) == full
    for c in (0, 1, 2, 1000, 2**16 - 1, 2**16, 2**16 + 2, 100_000, full - 2, full - 1):
        assert int(got[c]) == _coeff(a, b, c, p), c
