import numpy as np
import pytest

from qdsolve import convolution
from qdsolve.convolution import conv_trunc
from qdsolve.errors import InternalInvariantError, PreconditionError


def _coeff(a, b, c, p):
    """Coefficient c of a*b mod p, in Python integers."""
    lo, hi = max(0, c - len(b) + 1), min(c, len(a) - 1)
    return sum(int(a[t]) * int(b[c - t]) for t in range(lo, hi + 1)) % p


def _routes(monkeypatch):
    """Record the backend each conv_trunc call takes."""
    used = []
    for name in ("_conv_direct", "_conv_ntt"):
        fn = getattr(convolution, name)
        monkeypatch.setattr(convolution, name, lambda *args, fn=fn, name=name: used.append(name) or fn(*args))
    return used


def test_direct_refuses_modulus_beyond_crt_range():
    # at p = 2^61 - 1 even a length-3 by length-2 product overflows the limb
    # split, and the transform serves only p < 2^31
    p = 2**61 - 1
    a = np.array([1, 2, 3], dtype=np.int64)
    b = np.array([5, 7], dtype=np.int64)
    with pytest.raises(PreconditionError):
        conv_trunc(a, b, p, 4)


def test_direct_ntt_fallback_matches_python_ints(monkeypatch):
    # p = 2^31 - 1 with an overlap of 2^16 + 1 terms is past the direct limb
    # split; conv_trunc hands the product to the transform, which splits it
    # into three limbs
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


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def windows(draw):
    """(a, b, p, hi, lo): lengths 1..40, random or all-(p-1) operands, hi
    below, at or past the product's length and lo at 0, 1, hi - 1, hi or at
    least the product's length."""
    p = draw(st.sampled_from([3, 65521, 134217757, 2**31 - 1]))
    La, Lb = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    full = La + Lb - 1
    hi = draw(st.integers(0, full + 3))
    lo = draw(st.sampled_from([0, 1, max(hi - 1, 0), hi, full, full + 2]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(L):
        if draw(st.booleans()):
            return np.full(L, p - 1, dtype=np.int64)
        return gen.integers(0, p, L)

    return operand(La), operand(Lb), p, hi, lo


@settings(max_examples=300, deadline=None)
@given(windows(), st.booleans())
def test_window_matches_python_ints(case, force_ntt):
    a, b, p, hi, lo = case
    with pytest.MonkeyPatch.context() as mp:
        used = _routes(mp)
        if force_ntt:
            mp.setattr(convolution, "TRANSFORM_CUTOFF", 0)
        got = conv_trunc(a, b, p, hi, lo)
    top = min(hi, len(a) + len(b) - 1)
    assert [int(c) for c in got] == [_coeff(a, b, c, p) for c in range(lo, top)]
    assert used == ([] if top <= lo else ["_conv_ntt" if force_ntt else "_conv_direct"])


def test_middle_product_ntt_length(monkeypatch):
    # coefficients [2048, 4096) of a length-4096 by length-2048 product: the
    # cyclic length max(4096, 6143 - 2048) rounds to 4096, half of the
    # 8192 the whole product needs, and the window is still exact
    p = 134217757
    lengths = []
    limbs = convolution._limbs
    monkeypatch.setattr(convolution, "_limbs", lambda p, L, m: lengths.append(L) or limbs(p, L, m))
    gen = np.random.default_rng(11)
    a, b = gen.integers(0, p, 4096), gen.integers(0, p, 2048)
    got = conv_trunc(a, b, p, 4096, 2048)
    assert lengths == [4096]
    assert len(got) == 2048
    for c in (2048, 2049, 3000, 4094, 4095):
        assert int(got[c - 2048]) == _coeff(a, b, c, p), c
    assert np.array_equal(got, conv_trunc(a, b, p, 4096)[2048:])


def _window_by_kronecker(a, b, p, lo, hi):
    """Coefficients [lo, hi) of a*b mod p, from one Python-int product of
    the operands packed into fixed-width byte fields."""
    width = (2 * p.bit_length() + max(len(a), len(b)).bit_length() + 7) // 8

    def pack(x):
        return int.from_bytes(b"".join(int(c).to_bytes(width, "little") for c in x), "little")

    raw = (pack(a) * pack(b)).to_bytes(width * (len(a) + len(b)), "little")
    return [int.from_bytes(raw[width * c : width * (c + 1)], "little") % p for c in range(lo, hi)]


@pytest.mark.parametrize("p", [3, 65521, 134217757, 2**31 - 1])
@pytest.mark.parametrize("ratio", [(1, 1), (1, 8), (8, 1)])
@pytest.mark.parametrize("middle", [False, True])
@pytest.mark.parametrize("below", [1, 0])
def test_dispatch_boundary_on_shorter_operand(below, middle, ratio, p, monkeypatch):
    # a shorter operand of TRANSFORM_CUTOFF - 1 coefficients takes the
    # direct route and one of TRANSFORM_CUTOFF the transform, for the whole
    # product and for a middle window that still reads every coefficient
    # of the shorter operand
    short = convolution.TRANSFORM_CUTOFF - below
    La, Lb = short * ratio[0], short * ratio[1]
    full = La + Lb - 1
    lo, hi = (full // 3, 2 * full // 3) if middle else (0, full)
    gen = np.random.default_rng(La + 3 * Lb + p)
    a, b = gen.integers(0, p, La), gen.integers(0, p, Lb)
    a[::3], b[::5] = p - 1, p - 1
    used = _routes(monkeypatch)
    got = conv_trunc(a, b, p, hi, lo)
    assert used == ["_conv_direct" if below else "_conv_ntt"]
    assert [int(c) for c in got] == _window_by_kronecker(a, b, p, lo, hi)


def test_many_pairs_with_short_operand_stay_direct(monkeypatch):
    # 64 x 65536 is over 4M coefficient pairs, but the shorter operand is
    # far below the cutoff: the direct route's limb split forms it exactly
    p = 2**31 - 1
    gen = np.random.default_rng(17)
    a, b = gen.integers(p - 2**20, p, 64), gen.integers(0, p, 2**16)
    b[::7] = p - 1
    full = len(a) + len(b) - 1
    assert len(a) * len(b) >= 4_000_000
    used = _routes(monkeypatch)
    got = conv_trunc(a, b, p, full)
    assert used == ["_conv_direct"]
    assert [int(c) for c in got] == _window_by_kronecker(a, b, p, 0, full)


@st.composite
def transform_windows(draw):
    """(a, b, p, hi, lo, limbs): operands whose transform needs exactly
    `limbs` limbs: p = 3 or 65521 with lengths up to 400 take one, p =
    134217757 or 2^31 - 1 with lengths up to 400 two, and p = 2^31 - 1
    with lengths and window end from 1100 on three (cyclic length 2048 or
    more).  Operands random or all p - 1, windows starting at 0, 1, just
    below hi or in between."""
    limbs = draw(st.sampled_from([1, 2, 3]))
    if limbs == 3:
        p, small, big = 2**31 - 1, 1100, 1500
    else:
        p, small, big = draw(st.sampled_from([3, 65521] if limbs == 1 else [134217757, 2**31 - 1])), 1, 400
    La, Lb = draw(st.integers(small, big)), draw(st.integers(small, big))
    full = La + Lb - 1
    hi = draw(st.integers(small, full + 3))
    lo = draw(st.one_of(st.sampled_from([0, 1, max(hi - 1, 0)]), st.integers(0, hi)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(L):
        if draw(st.booleans()):
            return np.full(L, p - 1, dtype=np.int64)
        return gen.integers(0, p, L)

    return operand(La), operand(Lb), p, hi, lo, limbs


@settings(max_examples=150, deadline=None)
@given(transform_windows())
def test_transform_matches_python_ints(case):
    a, b, p, hi, lo, limbs = case
    used = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolution, "TRANSFORM_CUTOFF", 0)
        pick = convolution._limbs
        mp.setattr(convolution, "_limbs", lambda *args: used.append(pick(*args)[0]) or pick(*args))
        got = conv_trunc(a, b, p, hi, lo)
    top = min(hi, len(a) + len(b) - 1)
    assert [int(c) for c in got] == _window_by_kronecker(a, b, p, lo, top)
    assert used == ([] if top <= lo else [limbs])


def test_transform_rounding_tripwire(monkeypatch):
    # a value a quarter or more from an integer is refused, never rounded;
    # an error below that still rounds to the exact product
    p = 134217757
    gen = np.random.default_rng(3)
    a, b = gen.integers(0, p, 3000), gen.integers(0, p, 2000)
    monkeypatch.setattr(convolution, "TRANSFORM_CUTOFF", 0)
    want = conv_trunc(a, b, p, 4000, 100)
    irfft = np.fft.irfft
    for shift, fails in ((0.2, False), (-0.2, False), (0.3, True), (-0.3, True)):
        monkeypatch.setattr(np.fft, "irfft", lambda *args, s=shift: irfft(*args) + s)
        if fails:
            with pytest.raises(InternalInvariantError):
                conv_trunc(a, b, p, 4000, 100)
        else:
            assert np.array_equal(conv_trunc(a, b, p, 4000, 100), want)
