import math
import tracemalloc

import numpy as np
import pytest

from qdsolve import convolution, instrument
from qdsolve.convolution import conv_trunc
from qdsolve.errors import InternalInvariantError, PreconditionError
from qdsolve.oracle import _kronecker_product
from qdsolve.polymat import SeriesMatrix


def _coeff(a, b, c, p):
    """Coefficient c of a*b mod p, in Python integers."""
    lo, hi = max(0, c - len(b) + 1), min(c, len(a) - 1)
    return sum(int(a[t]) * int(b[c - t]) for t in range(lo, hi + 1)) % p


def _routes(monkeypatch):
    """Record the backend each conv_trunc call takes."""
    used = []
    for name in ("_conv_shift", "_conv_direct", "_conv_ntt"):
        fn = getattr(convolution, name)
        monkeypatch.setattr(convolution, name, lambda *args, fn=fn, name=name: used.append(name) or fn(*args))
    return used


def test_direct_refuses_modulus_beyond_crt_range():
    # every route's int64 products of two residues would wrap at p = 2^61 - 1,
    # so conv_trunc refuses it on entry, whatever the operands' lengths
    p = 2**61 - 1
    a = np.array([1, 2, 3], dtype=np.int64)
    b = np.array([5, 7], dtype=np.int64)
    with pytest.raises(PreconditionError):
        conv_trunc(a, b, p, 4)
    with pytest.raises(PreconditionError):
        conv_trunc(np.array([p - 1]), np.array([p - 1, 1]), p, 2)


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


def _route(Ls, rows, inner, cols):
    """The backend conv_trunc's rule names for a shorter operand of Ls
    coefficients, cut to the window's end, and (rows, inner, cols) stacks."""
    if Ls <= rows * cols:
        return "_conv_shift"
    stacked = (
        Ls >= convolution.STACKED_TRANSFORM_CUTOFF and min(rows, cols) >= 2 and rows * inner * cols >= 27
    )
    return "_conv_ntt" if Ls >= convolution.TRANSFORM_CUTOFF or stacked else "_conv_direct"


def _by_transform(a, b, p, hi, lo):
    """conv_trunc(a, b, p, hi, lo) formed by the transform backend whatever
    the route rule picks: the same cut to the product's length and to hi,
    handed to _conv_ntt.  None when the window is empty."""
    flat = a.ndim == 1
    if flat:
        a, b = a[None, None], b[None, None]
    top = min(hi, a.shape[2] + b.shape[2] - 1)
    if a.size == 0 or b.size == 0 or top <= lo:
        return None
    got = convolution._conv_ntt(a[:, :, :top], b[:, :, :top], p, top, lo)
    return got[0, 0] if flat else got


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
    # the route rule's backend, or the transform called directly: both exact
    a, b, p, hi, lo = case
    top = min(hi, len(a) + len(b) - 1)
    want = [_coeff(a, b, c, p) for c in range(lo, top)]
    if force_ntt:
        got = _by_transform(a, b, p, hi, lo)
        assert (got is None) == (top <= lo)
        if got is not None:
            assert [int(c) for c in got] == want
        return
    with pytest.MonkeyPatch.context() as mp:
        used = _routes(mp)
        got = conv_trunc(a, b, p, hi, lo)
    assert [int(c) for c in got] == want
    assert used == ([] if top <= lo else [_route(min(len(a), len(b), top), 1, 1, 1)])


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
    # the transform backend, called directly, at every length and window
    a, b, p, hi, lo, limbs = case
    used = []
    with pytest.MonkeyPatch.context() as mp:
        pick = convolution._limbs
        mp.setattr(convolution, "_limbs", lambda *args: used.append(pick(*args)[0]) or pick(*args))
        got = _by_transform(a, b, p, hi, lo)
    top = min(hi, len(a) + len(b) - 1)
    if top <= lo:
        assert got is None and used == []
    else:
        assert [int(c) for c in got] == _window_by_kronecker(a, b, p, lo, top)
        assert used == [limbs]


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


# (La, Lb, n, lo, p) -> the charge of a 1 x 1 SeriesMatrix.mul; these are
# the counts single-entry products charged before products were stacked:
# on the transform with one, two and three limbs, at the cutoff, and on the
# direct route just below it, for a middle window and with its limb split
_SCALAR_CHARGES = {
    (4096, 4096, 4096, 0, 134217757): 401412,
    (2048, 4096, 4096, 2048, 134217757): 186372,
    (1024, 3000, 4000, 100, 2**31 - 1): 308277,
    (600, 700, 1299, 0, 65521): 36116,
    (511, 2000, 2510, 0, 134217757): 1022000,
    (300, 400, 650, 200, 134217757): 120000,
    (512, 512, 1023, 511, 3): 16385,
    (40, 90, 129, 0, 2**31 - 1): 3600,
}


@pytest.mark.parametrize("case", sorted(_SCALAR_CHARGES))
def test_scalar_products_charge_as_single_entries(case):
    # a 1 x 1 product is one entry: stacking the API must move neither
    # its answer nor its charge, so scalar solves count what they did
    La, Lb, n, lo, p = case
    gen = np.random.default_rng(La + 7 * Lb + lo)
    a, b = gen.integers(0, p, (1, 1, La)), gen.integers(0, p, (1, 1, Lb))
    a[0, 0, -1] = b[0, 0, -1] = 1
    before = instrument.mul_counter.value
    got = SeriesMatrix(p, a, n).mul(SeriesMatrix(p, b, n), n, lo)
    assert instrument.mul_counter.value - before == _SCALAR_CHARGES[case]
    want = _window_by_kronecker(a[0, 0], b[0, 0], p, lo, min(n, La + Lb - 1))
    assert got.data[0, 0].tolist() + [0] * (len(want) - got.data.shape[2]) == want
    assert np.array_equal(conv_trunc(a[0, 0], b[0, 0], p, n, lo), want)


# (rows, inner, cols, La, Lb, n, lo, p) -> (limbs, charge), worked by hand.
# 4 x 4 x 4 of 512 coefficients at p = 65521: L = 1024, and m inner^2 = 8192
# takes two 8-bit limbs where one entry (m = 512) or m inner would take one
# 16-bit limb.  112 transforms (2 (16 + 16) forward, 3 * 16 inverse) of
# 512 * 10 each, 4 * 64 * 513 limb products and 3 * 16 recombinations per
# kept coefficient: 573440 + 131328 + 3 * 16 * 1023 (or * 512 for the
# window [511, 1023)).  2 x 3 x 2 at p = 2^31 - 1: m inner^2 = 4608 takes
# three 11-bit limbs where one entry takes two 16-bit limbs; 3 (6 + 6) + 5 * 4
# = 56 transforms, 286720 + 9 * 12 * 513 + 5 * 4 * 1023.
_STACKED_CHARGES = {
    (4, 4, 4, 512, 512, 1023, 0, 65521): (2, 753872),
    (4, 4, 4, 512, 512, 1023, 511, 65521): (2, 729344),
    (2, 3, 2, 512, 512, 1023, 0, 2**31 - 1): (3, 362584),
}


@pytest.mark.parametrize("case", sorted(_STACKED_CHARGES))
def test_stacked_transform_charges(case, monkeypatch):
    # the transform's charge and limb count for inner > 1, pinned by value
    rows, inner, cols, La, Lb, n, lo, p = case
    gen = np.random.default_rng(rows + inner + lo)
    a, b = gen.integers(0, p, (rows, inner, La)), gen.integers(0, p, (inner, cols, Lb))
    limbs = []
    pick = convolution._limbs
    monkeypatch.setattr(convolution, "_limbs", lambda *args: limbs.append(pick(*args)[0]) or pick(*args))
    before = instrument.mul_counter.value
    got = conv_trunc(a, b, p, n, lo)
    assert (limbs, instrument.mul_counter.value - before) == ([_STACKED_CHARGES[case][0]], _STACKED_CHARGES[case][1])
    assert np.array_equal(got, _stack_by_kronecker(a, b, p, lo, n))


def test_stacked_transform_working_set():
    # a 6 x 6 x 6 full product of 320 coefficients at p = 65521 takes the
    # transform with two limbs at cyclic length 1024; dropping each spectrum
    # once the next array exists keeps its traced peak at 3.25 MB, where
    # holding all of them at once peaked at 6.38 MB
    p = 65521
    gen = np.random.default_rng(6)
    a, b = gen.integers(0, p, (6, 6, 320)), gen.integers(0, p, (6, 6, 320))
    want = conv_trunc(a, b, p, 639)  # warm: numpy.fft's first use
    tracemalloc.start()
    try:
        got = conv_trunc(a, b, p, 639)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 4 * 2**20


def _stack_by_kronecker(a, b, p, lo, hi):
    """Coefficients [lo, hi) of the matrix product of the stacks a and b,
    from the check's Python-int Kronecker product."""
    prod = _kronecker_product(SeriesMatrix(p, a, hi), SeriesMatrix(p, b, hi), hi).data
    out = np.zeros((a.shape[0], b.shape[1], hi), dtype=np.int64)
    out[:, :, : prod.shape[2]] = prod
    return out[:, :, lo:]


@st.composite
def stacks(draw):
    """(a, b, p, hi, lo): stacks (rows, inner, La) and (inner, cols, Lb)
    with rows, inner and cols 1..9, each length short (1..40) or on
    either side of the stacked cutoff 128 (120..136) or of 512 (500..530),
    random or all-(p - 1) entries, hi up to past the product's length and
    lo at 0, 1, just below hi or in between."""
    p = draw(st.sampled_from([3, 65521, 134217757, 2**31 - 1]))
    rows, inner, cols = (draw(st.integers(1, 9)) for _ in range(3))
    length = st.one_of(st.integers(1, 40), st.integers(120, 136), st.integers(500, 530))
    La, Lb = draw(length), draw(length)
    hi = draw(st.integers(0, La + Lb + 2))
    lo = draw(st.one_of(st.sampled_from([0, 1, max(hi - 1, 0)]), st.integers(0, hi)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(shape):
        if draw(st.booleans()):
            return np.full(shape, p - 1, dtype=np.int64)
        return gen.integers(0, p, shape)

    return operand((rows, inner, La)), operand((inner, cols, Lb)), p, hi, lo


@settings(max_examples=60, deadline=None)
@given(stacks(), st.booleans())
def test_stacked_product_matches_python_ints(case, force_ntt):
    # one call forms the whole matrix product exactly, on the backend the
    # route rule names, or on the transform called directly
    a, b, p, hi, lo = case
    limbs = []
    with pytest.MonkeyPatch.context() as mp:
        used = _routes(mp)
        pick = convolution._limbs
        mp.setattr(convolution, "_limbs", lambda *args: limbs.append((args[1], pick(*args))) or pick(*args))
        got = _by_transform(a, b, p, hi, lo) if force_ntt else conv_trunc(a, b, p, hi, lo)
    La, Lb = a.shape[2], b.shape[2]
    top = min(hi, La + Lb - 1)
    want = _stack_by_kronecker(a, b, p, lo, top)
    if force_ntt:
        assert (got is None) == (top <= lo)
        assert used == ([] if top <= lo else ["_conv_ntt"])
    else:
        assert used == ([] if top <= lo else [_route(min(La, Lb, top), *a.shape[:2], b.shape[1])])
    if got is not None:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    for L, (k, bits) in limbs:
        # the rounding bound with the inner sum's linear factor
        m, inner = min(La, Lb, top), a.shape[1]
        bound = k * inner * 4**bits * math.sqrt(L * m) * (12 * math.log2(L) + 3) * 2.0**-53
        assert bound <= 0.125


@pytest.mark.parametrize("p", [65521, 134217757, 2**31 - 1])
@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 7, 2), (2, 2, 2), (4, 4, 1), (1, 4, 4)])
@pytest.mark.parametrize("below", [1, 0])
def test_stacked_dispatch_boundary(below, shape, p):
    # a stack with rows, cols >= 2 and rows inner cols >= 27 takes the
    # transform from STACKED_TRANSFORM_CUTOFF coefficients on and the direct
    # route one coefficient below; smaller stacks, and matrix-vector
    # products either way round, stay direct; exact on all-(p - 1) entries
    # for the whole product and a middle window alike
    rows, inner, cols = shape
    Ls = convolution.STACKED_TRANSFORM_CUTOFF - below
    a = np.full((rows, inner, Ls), p - 1, dtype=np.int64)
    b = np.full((inner, cols, 2 * Ls), p - 1, dtype=np.int64)
    b[:, :, ::5] = np.random.default_rng(Ls + p).integers(0, p, b[:, :, ::5].shape)
    stacked = min(rows, cols) >= 2 and rows * inner * cols >= 27
    for hi, lo in ((3 * Ls - 1, 0), (2 * Ls, Ls)):
        with pytest.MonkeyPatch.context() as mp:
            used = _routes(mp)
            got = conv_trunc(a, b, p, hi, lo)
        assert used == ["_conv_ntt" if stacked and not below else "_conv_direct"]
        assert np.array_equal(got, _stack_by_kronecker(a, b, p, lo, hi))


@pytest.mark.parametrize(("p", "inner", "regime"), [
    (134217757, 1, "reduced once per entry"),
    (134217757, 2, "reduced once per triple"),
    (2**31 - 1, 3, "limb split"),
])
def test_direct_overflow_regimes(p, inner, regime):
    # Ls = 300: inner Ls (p - 1)^2 < 2^63 at p = 134217757 only for
    # inner = 1, and Ls (p - 1)^2 >= 2^63 at p = 2^31 - 1; every regime is
    # exact on all-(p - 1) operands, full products and middle windows alike
    a = np.full((2, inner, 300), p - 1, dtype=np.int64)
    b = np.full((inner, 3, 450), p - 1, dtype=np.int64)
    b[:, :, ::7] = 5
    for hi, lo in ((749, 0), (600, 350), (320, 310)):
        assert np.array_equal(conv_trunc(a, b, p, hi, lo), _stack_by_kronecker(a, b, p, lo, hi)), regime


@pytest.mark.parametrize(("inner", "want"), [(1, 2), (2, 3)])
def test_limbs_cover_the_inner_sum(inner, want, monkeypatch):
    # at p = 2^31 - 1 and cyclic length 1024 two limbs meet the rounding
    # bound for one entry (0.085 <= 1/8); an inner sum of two doubles the
    # bound, so it takes three (two would pass with only sqrt(inner))
    p = 2**31 - 1
    used = []
    pick = convolution._limbs
    monkeypatch.setattr(convolution, "_limbs", lambda *args: used.append(pick(*args)[0]) or pick(*args))
    a = np.full((1, inner, 512), p - 1, dtype=np.int64)
    b = np.full((inner, 1, 512), p - 1, dtype=np.int64)
    got = conv_trunc(a, b, p, 1023)
    assert used == [want]
    assert np.array_equal(got, _stack_by_kronecker(a, b, p, 0, 1023))
