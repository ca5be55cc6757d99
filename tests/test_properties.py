"""Property tests: the divide-and-conquer and Newton engines and the step
kernel at any base index against the operator-matrix reference, with each
product on the route the rule picks and with every product pinned to the
shift-batched, the direct or the transform backend, the step kernel on
a divide-and-conquer solve's one step table against the tables it
builds itself, the step table against the unfolded step matrices, every
engine answer against the
independent residual, every route of SeriesMatrix.mul and the batched
_matmul_mod against Python-int products, QContext.theta against the
composed delta, shift and sigma chain, the stacked inverse against
mat_inv, good_spectrum against the gcd criterion it replaced, its q = 1,
k > 1 clause and diagonalize against Python-int gcds and known spectra,
its chi(Y_i) table against Horner at each step matrix, and the scalar
helpers field.powers, field.inverses and the QContext tables against
Python pow."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qdsolve import convolution, dac, instrument, polymat  # noqa: E402
from qdsolve.dac import DAC_LEAF, dac_solve, rdac  # noqa: E402
from qdsolve.errors import SpectrumError  # noqa: E402
from qdsolve.field import PrimeField, inverses, powers  # noqa: E402
from qdsolve.convolution import _matmul_mod  # noqa: E402
from qdsolve.linalg import (  # noqa: E402
    _rref, char_poly, lin_solve, mat_inv, mat_inv_stack, sylvester_tables,
)
from qdsolve.newton import newton_solve, pol_coeffs_de  # noqa: E402
from qdsolve.oracle import (  # noqa: E402
    _solve_term_by_term, dense_solve, make_instance, residual, step_table,
)
from qdsolve.polymat import SeriesMatrix  # noqa: E402
from qdsolve.series import QContext  # noqa: E402
from qdsolve.solution import resolve_affine_family, spaces_equal  # noqa: E402
from qdsolve.spectrum import (  # noqa: E402
    diagonalize, good_spectrum, step_chi_table, step_matrices,
)

from operator_matrix import monic_at, solve_operator_matrix  # noqa: E402


@st.composite
def instances(draw):
    """A ProblemInstance over tiny primes up to the ceiling 2^31 - 1, q = 1 or
    random, k = 0 (solved as its reduced order-1 instance at N + 1) to 3; at
    times its constant matrix has a zero row, which makes every step of a
    k > 1 equation singular, and at times C is planted from a solution."""
    p = draw(st.sampled_from([3, 5, 7, 101, 134217757, 2**31 - 1]))
    k = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 3 * DAC_LEAF))
    if p > N + (k == 0) and draw(st.booleans()):
        q = 1
    else:
        q = draw(st.integers(2, p - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Ad = gen.integers(0, p, (n, n, N))
    if draw(st.booleans()):
        Ad[0, :, 0] = 0
    inst = make_instance(p, q, k, n, N, SeriesMatrix(p, Ad, N), SeriesMatrix.zeros(p, n, 1, N))
    F = SeriesMatrix(p, gen.integers(0, p, (n, 1, inst.N)), inst.N)
    if draw(st.booleans()):
        inst.C = residual(F, inst, homogeneous=True)
    else:
        inst.C = F
    return inst


def assert_solves(space, inst):
    """The particular solution and every basis column of space solve inst.

    ``residual`` forms its product by Kronecker substitution in Python
    integers, so this check shares no product kernel with the engines."""
    if space is None:
        return
    assert residual(space.particular, inst).is_zero()
    for j in range(space.dim):
        assert residual(space.basis.col(j), inst, homogeneous=True).is_zero()


@pytest.fixture(params=["shift", "direct", "transform"])
def pinned_route(request, monkeypatch):
    """Every conv_trunc product on one backend, whatever the route rule
    names; the tests without this fixture run each product as ruled.  The
    three backends share one signature, so rebinding them in convolution
    pins the route.  The shift-batched backend is exact for any lengths,
    its int64 sums of canonical residues staying below 2^62, and the
    direct one while its limb split covers the shorter operand, below
    2^16 coefficients at p < 2^31; the engine tests draw N <= 3 DAC_LEAF."""
    backend = {
        "shift": convolution._conv_shift,
        "direct": convolution._conv_direct,
        "transform": convolution._conv_ntt,
    }[request.param]
    for name in ("_conv_shift", "_conv_direct", "_conv_ntt"):
        monkeypatch.setattr(convolution, name, backend)
    return request.param


# the pin is meant to hold across a test's examples
PIN_ACROSS_EXAMPLES = [HealthCheck.function_scoped_fixture]


def check_dac_and_dense(inst):
    s_dac = dac_solve(inst.A, inst.C, inst.N, inst.ctx)
    s_dense = solve_operator_matrix(inst)
    assert (s_dac is None) == (s_dense is None)
    assert spaces_equal(s_dac, s_dense)
    assert_solves(s_dac, inst)
    assert_solves(s_dense, inst)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_dac_and_dense_agree(inst):
    check_dac_and_dense(inst)


@settings(max_examples=40, deadline=None, suppress_health_check=PIN_ACROSS_EXAMPLES)
@given(inst=instances())
def test_dac_and_dense_agree_on_pinned_route(pinned_route, inst):
    check_dac_and_dense(inst)


def mul_reference(A: SeriesMatrix, B: SeriesMatrix, n: int, lo: int = 0) -> SeriesMatrix:
    """Coefficients [lo, n) of A B from Python-int coefficient products."""
    a, b = A.data.astype(object), B.data.astype(object)
    out = np.zeros((A.rows, B.cols, n), dtype=object)
    for s in range(a.shape[2]):
        for t in range(min(b.shape[2], n - s)):
            out[:, :, s + t] += a[:, :, s].dot(b[:, :, t])
    return SeriesMatrix(A.p, (out[:, :, lo:] % A.p).astype(np.int64), n - lo)


def conv_charge(La: int, Lb: int, p: int, hi: int, lo: int) -> int:
    """What one conv_trunc call charges for coefficients [lo, hi) of a
    length-La by length-Lb product of single entries, hi <= La + Lb - 1:
    the transform at the cyclic length max(hi, La + Lb - 1 - lo) rounded
    up to a power of two, 4k - 1 real transforms, k^2 limb products and
    2k - 1 recombination steps per kept coefficient for its k limbs when
    the shorter operand has TRANSFORM_CUTOFF coefficients or more, the
    direct backend Ls = min(La, Lb) multiplications for each kept
    coefficient or for each coefficient of the long operand reaching the
    window, whichever is fewer."""
    return stacked_charge(1, 1, 1, La, Lb, p, hi, lo)


def by_transform(rows: int, inner: int, cols: int, Ls: int) -> bool:
    """Whether conv_trunc's rule sends a product that is off the shift
    route (Ls > rows cols) to the transform: from TRANSFORM_CUTOFF
    coefficients on, or from STACKED_TRANSFORM_CUTOFF on for stacks with
    rows, cols >= 2 and rows inner cols >= 27."""
    return Ls >= convolution.TRANSFORM_CUTOFF or (
        Ls >= convolution.STACKED_TRANSFORM_CUTOFF and min(rows, cols) >= 2 and rows * inner * cols >= 27
    )


def stacked_charge(rows: int, inner: int, cols: int, La: int, Lb: int, p: int, hi: int, lo: int) -> int:
    """What one conv_trunc call on (rows, inner, La) by (inner, cols, Lb)
    stacks charges for the window [lo, hi): on the direct route
    rows * inner * cols times the single-entry charge; on the transform
    (L/2) log2 L per real transform, k (rows inner + inner cols) forward and
    (2k - 1) rows cols inverse, k^2 rows inner cols (L/2 + 1) limb products
    and 2k - 1 recombination steps per kept coefficient of each entry, with
    the limbs chosen for the inner sum."""
    if hi <= lo:
        return 0
    full = La + Lb - 1
    if by_transform(rows, inner, cols, min(La, Lb)):
        L = convolution._next_pow2(max(hi, full - lo))
        k, _ = convolution._limbs(p, L, min(La, Lb) * inner * inner)
        lg = L.bit_length() - 1
        transforms = k * (rows * inner + inner * cols) + (2 * k - 1) * rows * cols
        return (
            transforms * (L // 2) * lg
            + k * k * rows * inner * cols * (L // 2 + 1)
            + (2 * k - 1) * rows * cols * (hi - lo)
        )
    Ls, Ll = min(La, Lb), max(La, Lb)
    reach = min(Ll, hi) - max(0, lo - Ls + 1)
    return rows * inner * cols * Ls * min(reach, hi - lo)


def check_mul(A: SeriesMatrix, B: SeriesMatrix, n: int, monkeypatch, lo: int = 0) -> list[str]:
    """A.mul(B, n, lo) is the reference window, makes exactly one conv_trunc
    call, which takes the backend the route rule names for the stored
    lengths capped at n, and charges what that backend forms: the
    coefficient pairs landing in [lo, n) when shift-batched,
    rows * inner * cols times conv_charge on the direct route and
    stacked_charge on the transform.  Returns the backends that ran."""
    calls, used = [], []
    conv = polymat.conv_trunc
    monkeypatch.setattr(polymat, "conv_trunc", lambda *a: calls.append(1) or conv(*a))
    backends = {name: getattr(convolution, name) for name in ("_conv_shift", "_conv_direct", "_conv_ntt")}
    for name, fn in backends.items():
        monkeypatch.setattr(convolution, name, lambda *a, fn=fn, name=name: used.append(name) or fn(*a))
    rows, inner, cols = A.rows, A.cols, B.cols
    La, Lb = min(A.data.shape[2], n), min(B.data.shape[2], n)
    hi = min(n, max(0, La + Lb - 1))
    before = instrument.mul_counter.value
    got = A.mul(B, n, lo=lo)
    charge = instrument.mul_counter.value - before
    monkeypatch.setattr(polymat, "conv_trunc", conv)
    for name, fn in backends.items():
        monkeypatch.setattr(convolution, name, fn)
    assert got == mul_reference(A, B, n, lo)
    assert len(calls) == 1
    direct = not by_transform(rows, inner, cols, min(La, Lb))
    if hi <= lo or min(La, Lb) == 0:
        assert used == [] and charge == 0
    elif min(La, Lb) <= rows * cols:
        assert used == ["_conv_shift"]
        # one multiplication per coefficient pair that lands in the window
        pairs = sum(1 for s in range(La) for t in range(Lb) if lo <= s + t < n)
        assert charge == rows * inner * cols * pairs
    else:
        assert used == ["_conv_direct" if direct else "_conv_ntt"]
        assert charge == stacked_charge(rows, inner, cols, La, Lb, A.p, hi, lo)
        if direct:
            assert charge == rows * inner * cols * conv_charge(La, Lb, A.p, hi, lo)
        if lo == 0 and direct:
            # a product mod x^n forms every pair once, as a convolution does
            assert charge == rows * inner * cols * La * Lb
    if direct:
        assert charge <= rows * inner * cols * La * Lb
    return used


@st.composite
def mul_operands(draw):
    """(A, B, n, lo): shapes 1..6, stored lengths 0..24 (all-zero and
    one-coefficient operands included), n below, at or above La+Lb-1 and
    a window start lo in [0, n], often 0 or n."""
    p = draw(st.sampled_from([3, 65521, 134217757, 2**31 - 1]))
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    La, Lb = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    full = La + Lb - 1
    where = draw(st.sampled_from(["below", "at", "above"]))
    if where == "below":
        n = draw(st.integers(0, max(full - 1, 0)))
    elif where == "at":
        n = max(full, 0)
    else:
        n = draw(st.integers(max(full + 1, 0), full + 4))
    lo = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(r, c, L):
        data = gen.integers(0, p, (r, c, L))
        if L:
            data[0, 0, L - 1] = 1 + data[0, 0, L - 1] % (p - 1)  # keep length L
        if draw(st.booleans()) and draw(st.booleans()):
            data[:] = 0
        return SeriesMatrix(p, data, max(n, L))

    return operand(rows, inner, La), operand(inner, cols, Lb), n, lo


@settings(max_examples=400, deadline=None)
@given(mul_operands(), st.booleans())
def test_mul_matches_reference(operands, force_ntt):
    # function-scoped monkeypatch cannot be shared across examples
    A, B, n, lo = operands
    with pytest.MonkeyPatch.context() as mp:
        if force_ntt:
            mp.setattr(convolution, "TRANSFORM_CUTOFF", 0)
        check_mul(A, B, n, mp, lo)


@pytest.mark.parametrize("p", [3, 65521, 134217757, 2**31 - 1])
@pytest.mark.parametrize("a_short", [True, False])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("shape", [(2, 3, 2), (1, 4, 3), (1, 1, 1)])
def test_mul_dispatch_boundary(shape, extra, a_short, p, monkeypatch):
    # conv_trunc sends min(La, Lb) = rows * cols to the shift-batched
    # backend and one more coefficient to the direct one, for each window
    # start from 0 to past the last coefficient of the product
    rows, inner, cols = shape
    short, long = rows * cols + extra, rows * cols + 5
    La, Lb = (short, long) if a_short else (long, short)
    gen = np.random.default_rng(7 * La + Lb + p)

    def operand(r, c, L):
        data = gen.integers(0, p, (r, c, L))
        data[:, :, L - 1] = 1
        return SeriesMatrix(p, data, La + Lb)

    A, B = operand(rows, inner, La), operand(inner, cols, Lb)
    for n in (0, short - 1, La + Lb - 2, La + Lb - 1, La + Lb):
        for lo in sorted({0, 1, short, n - 1, n} & set(range(n + 1))):
            used = check_mul(A, B, n, monkeypatch, lo)
            if n >= short and lo < min(n, La + Lb - 1):
                assert used == ["_conv_direct" if extra else "_conv_shift"], (n, lo)


@st.composite
def theta_cases(draw):
    """(ctx, F, hi, lo, i): q = 1 or random, k = 1..4, base index 0, 1 or
    17, F stored shorter than its precision at times, and a window
    0 <= lo <= hi <= F.prec + k - 1, often with k past hi."""
    p = draw(st.sampled_from([3, 65521, 134217757, 2**31 - 1]))
    q = 1 if draw(st.booleans()) else draw(st.integers(2, p - 1))
    k = draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    prec = draw(st.integers(1, 12))
    L = draw(st.integers(0, prec))
    hi = draw(st.integers(0, prec + k - 1))
    lo = draw(st.integers(0, hi))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = SeriesMatrix(p, gen.integers(0, p, (rows, cols, L)), prec)
    return QContext(PrimeField(p), q, k), F, hi, lo, draw(st.sampled_from([0, 1, 17]))


@settings(max_examples=300, deadline=None)
@given(theta_cases())
def test_theta_matches_composed_chain(case):
    # the left side at base index i, x^k delta(F) + gamma_i x^(k-1) sigma(F),
    # cut to [lo, hi), charging rows * cols per coefficient it forms
    ctx, F, hi, lo, i = case
    k = ctx.k
    lhs = F.delta(ctx).shift(k).truncate(hi)
    twist = F.sigma(ctx).shift(k - 1).truncate(hi).scale(ctx.gamma(i))
    want = (lhs + twist).shift(-lo, truncate=True)
    before = instrument.mul_counter.value
    got = ctx.theta(F, hi, lo, i)
    charge = instrument.mul_counter.value - before
    assert got == want
    formed = sum(1 for t in range(F.data.shape[2]) if lo <= t + k - 1 < hi)
    assert charge == F.rows * F.cols * formed
    with pytest.raises(ValueError):
        ctx.theta(F, F.prec + k, lo, i)


PRIMES = [3, 65521, 134217757, 2**31 - 1]


@st.composite
def square_stacks(draw):
    """(U, forced, p): a stack (b, n, n) whose members are random, permuted
    triangular (pivot searches move rows) or forced singular (a zero
    column, a repeated row, or a row that combines two others)."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    b = draw(st.integers(1, 10))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = gen.integers(0, p, (b, n, n))
    U[gen.random(U.shape) < 0.1] = p - 1  # extreme residues
    forced = np.zeros(b, dtype=bool)
    for j in range(b):
        how = draw(st.sampled_from(["random", "permuted", "zero_col", "repeat_row", "combine"]))
        if how == "permuted":
            T = np.triu(U[j])
            T[np.arange(n), np.arange(n)] = gen.integers(1, p, n)
            U[j] = T[gen.permutation(n)]
        elif how == "zero_col" or (how != "random" and n == 1):
            U[j, :, gen.integers(n)] = 0
            forced[j] = True
        elif how == "repeat_row" or (how == "combine" and n == 2):
            r, s = gen.choice(n, 2, replace=False)
            U[j, r] = U[j, s]
            forced[j] = True
        elif how == "combine":
            r, s, t = gen.choice(n, 3, replace=False)
            a, c = (int(v) for v in gen.integers(0, p, 2))
            U[j, r] = (a * U[j, s].astype(object) + c * U[j, t].astype(object)) % p
            forced[j] = True
    return U, forced, p


@settings(max_examples=150, deadline=None)
@given(square_stacks())
def test_mat_inv_stack_matches_mat_inv(case):
    # the mask against the rank _rref finds, each inverse against mat_inv
    # and a Python-int product, and leading batch axes kept
    U, forced, p = case
    b, n = U.shape[0], U.shape[1]
    before = instrument.mul_counter.value
    inv, sing = mat_inv_stack(U, p)
    charged = instrument.mul_counter.value - before
    assert type(charged) is int  # charges stay Python ints
    if n == 1:
        # like every size, a 1 x 1 stack skips its unit and singular members:
        # each other one is a row of 2 scaled, after one field.inverses call
        m = int(np.count_nonzero(U > 1))
        assert charged == (2 * m + 3 * (m - 1) + instrument.inv_cost(p) if m else 0)
    assert sing[forced].all()
    inv2, sing2 = mat_inv_stack(U.reshape(1, b, n, n), p)
    assert np.array_equal(inv2[0], inv) and np.array_equal(sing2[0], sing)
    eye = np.eye(n, dtype=np.int64)
    # identity members change neither the others' inverses nor the charge
    before = instrument.mul_counter.value
    inv3, sing3 = mat_inv_stack(np.concatenate([U, np.broadcast_to(eye, (3, n, n))]), p)
    assert instrument.mul_counter.value - before == charged
    assert np.array_equal(inv3[:b], inv) and np.array_equal(inv3[b:], np.broadcast_to(eye, (3, n, n)))
    assert np.array_equal(sing3, np.concatenate([sing, np.zeros(3, dtype=bool)]))
    for j in range(b):
        rank = len(_rref(U[j].copy(), p, n)[1])
        assert bool(sing[j]) == (rank < n)
        if sing[j]:
            assert not inv[j].any()
            with pytest.raises(ValueError, match="singular"):
                mat_inv(U[j], p)
        else:
            assert np.array_equal(U[j].astype(object) @ inv[j].astype(object) % p, eye)
            assert np.array_equal(mat_inv(U[j], p), inv[j])


@st.composite
def long_products(draw):
    """(a, b, p): operands with leading batch axes, broadcast or not, and an
    inner dimension in the one-product, limb-split or chunked regime of
    _matmul_mod (the last two exist only for the larger primes)."""
    regime = draw(st.sampled_from(["direct", "limb", "chunk"]))
    p = draw(st.sampled_from({"direct": PRIMES, "limb": PRIMES[2:], "chunk": PRIMES[3:]}[regime]))
    step = max(1, 2**62 // ((p - 1) ** 2 + 1))
    s = (p.bit_length() + 1) // 2
    limb_end = -(-(2**62 // p) >> s)  # the first inner the limb split cannot cover
    if regime == "direct":
        inner = draw(st.integers(0, min(step, 64)))
    elif regime == "limb":
        inner = draw(st.integers(step + 1, min(limb_end - 1, step + 600)))
    else:
        inner = draw(st.integers(limb_end, limb_end + 40))
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a_batch, b_batch = draw(st.sampled_from([((), (2,)), ((2,), ()), ((2,), (2,)), ((2, 1), (3,))]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = gen.integers(0, p, a_batch + (r, inner))
    b = gen.integers(0, p, b_batch + (inner, c))
    a[gen.random(a.shape) < 0.2] = p - 1  # extreme residues
    b[gen.random(b.shape) < 0.2] = p - 1
    return a, b, p


@settings(max_examples=30, deadline=None)
@given(long_products())
def test_batched_matmul_mod_matches_python_ints(operands):
    a, b, p = operands
    before = instrument.mul_counter.value
    got = _matmul_mod(a, b, p)
    charged = instrument.mul_counter.value - before
    want = np.matmul(a.astype(object), b.astype(object)) % p
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want.astype(np.int64))
    assert charged == want.size * a.shape[-1]


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((1, 1), (1, 1)),
        ((3, 1), (1, 4)),
        ((5, 3, 1), (5, 1, 2)),
        ((5, 3, 1), (1, 2)),
        ((1, 1), (6, 1, 1)),
        ((2, 1, 3, 1), (4, 1, 2)),
    ],
)
def test_matmul_mod_inner_one_matches_matmul(a_shape, b_shape):
    # an inner dimension of 1 is formed by broadcasting: the same product,
    # batch axes and charge as @, at the largest modulus with the largest
    # residues
    p = 2**31 - 1
    a, b = np.full(a_shape, p - 1, dtype=np.int64), np.full(b_shape, p - 1, dtype=np.int64)
    before = instrument.mul_counter.value
    got = _matmul_mod(a, b, p)
    charged = instrument.mul_counter.value - before
    want = np.matmul(a.astype(object), b.astype(object)) % p
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want.astype(np.int64))
    assert np.array_equal(got, a @ b % p)
    assert charged == want.size


def _pscale_arg(f, s, p):
    """f(s x)"""
    return [c * pow(s, i, p) % p for i, c in enumerate(f)]


def _pshift_arg(f, c, p):
    """f(x + c), by Horner in Python ints."""
    out = [0]
    for a in reversed(f):
        # out = out * (x + c) + a
        out = [(u + c * v) % p for u, v in zip([0] + out, out + [0])]
        out[0] = (out[0] + a) % p
    return out


# dense polynomials over F_p in Python ints: ascending lists, trailing
# zeros trimmed, so the zero polynomial is []


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmod(f, g, p):
    """f mod g for a nonzero g."""
    f = _ptrim([c % p for c in f])
    inv = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        c, d = f[-1] * inv % p, len(f) - len(g)
        for i, gi in enumerate(g):
            f[d + i] = (f[d + i] - c * gi) % p
        _ptrim(f)
    return f


def pgcd(f, g, p):
    """The monic gcd of f and g, by Euclid."""
    f, g = _ptrim([c % p for c in f]), _ptrim([c % p for c in g])
    while g:
        f, g = g, _pmod(f, g, p)
    return [c * pow(f[-1], p - 2, p) % p for c in f] if f else f


def _pmulmod(f, g, m, p):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _pmod(out, m, p)


def xpow_mod(e, m, p):
    """x^e mod m, by square-and-multiply."""
    out, x = _pmod([1], m, p), _pmod([0, 1], m, p)
    for bit in bin(e)[2:]:
        out = _pmulmod(out, out, m, p)
        if bit == "1":
            out = _pmulmod(out, x, m, p)
    return out


def gcd_bad_steps(A0, ctx, N):
    """The steps 1 <= i < N at which Spec A0 meets Spec Y_i, by the gcd of
    chi = char_poly(A0) with char_poly(Y_i) = chi(q^(-i)(x + gamma_i)) up to a
    constant (Y_i = q^i A0 - gamma_i Id), or chi(q^(-i) x) for k > 1."""
    p = ctx.p
    chi = char_poly(A0, p)
    qinv = pow(ctx.q, p - 2, p)
    bad = []
    for i in range(1, N):
        other = _pscale_arg(chi, pow(qinv, i, p), p)
        if ctx.k == 1:
            other = _pshift_arg(other, ctx.gamma(i), p)
        if len(pgcd(chi, other, p)) != 1:
            bad.append(i)
    return bad


def rigged_a0(gen, ctx, n, i):
    """A random A0 whose spectrum meets that of the step matrix Y_i, or None
    when n = 1 and q^i = 1, where no 1 x 1 A0 can be rigged that way.

    Eigenvalues lam and mu = q^i lam - gamma_i (k = 1) or q^i lam sit on the
    diagonal of a triangular matrix conjugated by a unimodular one."""
    p = ctx.p
    qi, g = ctx.qpow(i), ctx.gamma(i) if ctx.k == 1 else 0
    if n == 1:
        if (qi - 1) % p == 0:
            return None
        return np.array([[g * pow(qi - 1, p - 2, p) % p]], dtype=np.int64)
    lam = int(gen.integers(0, p))
    T = np.triu(gen.integers(0, p, (n, n))).astype(object)
    T[0, 0], T[1, 1] = lam, (qi * lam - g) % p
    L = np.tril(gen.integers(0, p, (n, n)), -1).astype(object) + np.eye(n, dtype=object)
    Linv = np.eye(n, dtype=object)
    for d in range(1, n):  # (Id + E)^(-1) = sum (-E)^d for nilpotent E
        Linv = Linv + np.linalg.matrix_power(np.eye(n, dtype=object) - L, d)
    return (L.dot(T).dot(Linv % p) % p).astype(np.int64)


@st.composite
def spectrum_cases(draw):
    """(A0, ctx, N) for k = 1 (any q) or k in {2, 3} with q != 1; A0 random or
    rigged so that Spec A0 meets Spec Y_i at a chosen step i."""
    p = draw(st.sampled_from([3, 5, 101, 134217757, 2**31 - 1]))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(1, 5))
    N = draw(st.integers(1, 40))
    q = 1 if k == 1 and draw(st.booleans()) else draw(st.integers(2, p - 1))
    ctx = QContext(PrimeField(p), q, k)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A0 = gen.integers(0, p, (n, n))
    if N > 1 and draw(st.booleans()):
        rigged = rigged_a0(gen, ctx, n, draw(st.integers(1, N - 1)))
        if rigged is not None:
            A0 = rigged
    return A0, ctx, N


@settings(max_examples=200, deadline=None)
@given(spectrum_cases())
def test_good_spectrum_matches_gcd_reference(case):
    A0, ctx, N = case
    bad = gcd_bad_steps(A0, ctx, N)
    rep = good_spectrum(A0, ctx, N)
    assert np.flatnonzero(rep.steps_singular[1:]).tolist() == [i - 1 for i in bad]
    if ctx.k > 1 and char_poly(A0, ctx.p)[0] == 0:
        assert not rep.good and "A0 is singular" in rep.reason
        return
    assert rep.good == (not bad)
    if bad:
        assert rep.reason.endswith(f"i={bad[0]})")


SINGULAR = "A0 is singular (clause k>1)"
REPEATED = "|Spec A0| = n fails (repeated eigenvalue)"
NOT_SPLIT = "Spec A0 not contained in K (char poly does not split)"


def gcd_reason(A0, p, k, N):
    """The q = 1, k > 1 verdict by Python-int gcds: chi is squarefree when
    gcd(chi, chi') = 1, and then splits over K when chi divides x^p - x."""
    chi = char_poly(A0, p)
    if chi[0] == 0:
        return SINGULAR
    if p <= N - k:
        return f"gamma_{p} = 0 in F_{p} (clause k>1, q=1)"
    if len(pgcd(chi, [i * c for i, c in enumerate(chi)][1:], p)) != 1:
        return REPEATED
    xp = xpow_mod(p, chi, p) + [0, 0]
    xp[1] -= 1
    return NOT_SPLIT if _pmod(xp, chi, p) else None


def spectrum_reason(lams, quads, p, k, N):
    """The same verdict from a known spectrum: the eigenvalues lams in K,
    with multiplicity, and the nonsquares c of the factors x^2 - c."""
    if 0 in lams:
        return SINGULAR
    if p <= N - k:
        return f"gamma_{p} = 0 in F_{p} (clause k>1, q=1)"
    if len(set(lams)) < len(lams) or len(set(quads)) < len(quads):
        return REPEATED
    return NOT_SPLIT if quads else None


def _unit_triangular_inverse(L, n):
    """(Id + E)^(-1) = sum (-E)^d for a nilpotent E, in object ints."""
    inv = np.eye(n, dtype=object)
    for d in range(1, n):
        inv = inv + np.linalg.matrix_power(np.eye(n, dtype=object) - L, d)
    return inv


@st.composite
def split_cases(draw):
    """(A0, p, k, N, lams, quads) for the q = 1, k > 1 clause.  A0 is random
    (lams None), or conjugate to a diagonal of nonzero eigenvalues, or to a
    block diagonal of eigenvalues, Jordan blocks and companions of
    irreducible x^2 - c; the last two have a known spectrum."""
    p = draw(st.sampled_from([3, 5, 7, 65521, 2**31 - 1]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 3))
    N = draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["random", "diagonal", "blocks"]))
    if mode == "random":
        return gen.integers(0, p, (n, n)), p, k, N, None, None
    J = np.zeros((n, n), dtype=object)
    lams, quads, at = [], [], 0
    while at < n:
        kind = draw(st.sampled_from(["eigenvalue", "jordan", "quadratic"]))
        if mode == "diagonal" or at + 2 > n:
            kind = "eigenvalue"
        if kind == "quadratic":
            c = int(gen.integers(1, p))
            while pow(c, (p - 1) // 2, p) != p - 1:
                c = int(gen.integers(1, p))
            J[at, at + 1], J[at + 1, at] = c, 1
            quads.append(c)
        else:
            lam = int(gen.integers(mode == "diagonal", p))
            size = 2 if kind == "jordan" else 1
            for i in range(at, at + size):
                J[i, i] = lam
            if size == 2:
                J[at, at + 1] = 1
            lams += [lam] * size
        at += 2 if kind != "eigenvalue" else 1
    L = np.tril(gen.integers(0, p, (n, n)), -1).astype(object) + np.eye(n, dtype=object)
    U = np.triu(gen.integers(0, p, (n, n)), 1).astype(object) + np.eye(n, dtype=object)
    P = L.dot(U) % p
    Pinv = _unit_triangular_inverse(U, n).dot(_unit_triangular_inverse(L, n)) % p
    A0 = (P.dot(J).dot(Pinv) % p).astype(np.int64)
    return A0, p, k, N, lams, quads


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_split_clause_and_diagonalize_match_references(case):
    A0, p, k, N, lams, quads = case
    n = A0.shape[0]
    want = gcd_reason(A0, p, k, N)
    if lams is not None:
        assert spectrum_reason(lams, quads, p, k, N) == want
    rep = good_spectrum(A0, QContext(PrimeField(p), 1, k), N)
    assert rep.reason == want and rep.good == (want is None)
    if not rep.good:
        return
    P, roots = diagonalize(A0, p)
    assert roots == sorted(set(roots)) and len(roots) == n
    if lams is not None:
        assert roots == sorted(lams)
    for j, r in enumerate(roots):
        U = (A0 - r * np.eye(n, dtype=np.int64)) % p
        kernel = lin_solve(U, np.zeros((n, 1), dtype=np.int64), p)
        assert kernel.nullspace.shape[1] == 1
        assert np.array_equal(P[:, j], kernel.nullspace[:, 0])


@st.composite
def step_table_cases(draw):
    """(A0, ctx, N, i) over tiny primes up to 2^31 - 1, k = 1 to 3, q = 1 or
    random, n <= 6 and N <= 40; i is the step A0 is rigged to make singular,
    or None.  At p = 3, q^i cycles, and so can gamma_i."""
    p = draw(st.sampled_from([3, 5, 65521, 2**31 - 1]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    N = draw(st.integers(1, 40))
    q = 1 if draw(st.booleans()) else draw(st.integers(2, p - 1))
    ctx = QContext(PrimeField(p), q, k)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if N > 1 and draw(st.booleans()):
        i = draw(st.integers(1, N - 1))
        A0 = rigged_a0(gen, ctx, n, i)
        if A0 is not None:
            return A0, ctx, N, i
    return gen.integers(0, p, (n, n)), ctx, N, None


@settings(max_examples=200, deadline=None)
@given(step_table_cases())
def test_step_chi_table_matches_horner_reference(case):
    # the chi(Y_i) table is one product of reduced coefficient rows against
    # A0's powers; it must equal chi at each step matrix by Horner, and its
    # inverses and singular mask what mat_inv_stack makes of that
    A0, ctx, N, rigged = case
    p, n = ctx.p, A0.shape[0]
    chi = char_poly(A0, p)
    want = monic_at(chi, step_matrices(A0, ctx, 1, N), p)
    want_inv, want_singular = mat_inv_stack(want, p)
    if rigged is not None:
        assert want_singular[rigged - 1]
    if N > 1:
        P, _ = sylvester_tables(A0, chi, p)
        before = instrument.mul_counter.value
        got = step_chi_table(chi, P, ctx, N)
        charged = instrument.mul_counter.value - before
        assert np.array_equal(got, want)
        # the coefficient rows by Horner in chi(q^i x + b_i), b_i = -gamma_i
        # for k = 1 or 0 for k > 1, whose b_i products are skipped, then
        # the product with the powers A0^1 .. A0^(n-1)
        horner = n * (n + 1) - 2 if ctx.k == 1 else n * (n + 1) // 2 - 1
        assert charged == (N - 1) * (horner + n + n * n * (n - 1))
    if ctx.k == 1 or ctx.q != 1:
        rep = good_spectrum(A0, ctx, N)
        assert rep.steps_singular[0]
        assert np.array_equal(rep.steps_inv[1:], want_inv)
        assert np.array_equal(rep.steps_singular[1:], want_singular)


def check_newton(inst):
    """With runtime checks on, Newton matches dense and the operator-matrix
    reference, or raises SpectrumError at the step the gcd test names."""
    A0, ctx, N = inst.A.coefficient_array(0), inst.ctx, inst.N
    tabulated = ctx.k == 1 or ctx.q != 1
    bad = gcd_bad_steps(A0, ctx, N) if tabulated else []
    singular = ctx.k > 1 and not char_poly(A0, ctx.p)[0]
    instrument.set_runtime_checks(True)
    try:
        try:
            got = newton_solve(inst.A, inst.C, N, ctx)
        except SpectrumError as e:
            if singular:
                assert "A0 is singular" in str(e)
            elif tabulated:
                assert bad and str(e).endswith(f"i={bad[0]})")
            else:
                assert str(e).endswith(good_spectrum(A0, ctx, N).reason)
            return
        assert not bad and not singular
        s_dense = dense_solve(inst)
        assert spaces_equal(got, s_dense)
        assert spaces_equal(got, solve_operator_matrix(inst))
        assert_solves(got, inst)
        assert_solves(s_dense, inst)
    finally:
        instrument.set_runtime_checks(False)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_newton_agrees_or_names_first_bad_step(inst):
    check_newton(inst)


@settings(max_examples=60, deadline=None, suppress_health_check=PIN_ACROSS_EXAMPLES)
@given(inst=instances())
def test_newton_agrees_on_pinned_route(pinned_route, inst):
    check_newton(inst)


def rank_mod(M, p):
    """rank of M mod p by Gaussian elimination on Python ints."""
    m = [[int(v) % p for v in row] for row in M]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        r = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if r is None:
            continue
        m[rank], m[r] = m[r], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for r in range(rank + 1, len(m)):
            f = m[r][c] * inv % p
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def step_kernel_cases(draw):
    """(P, inst, i): one step-kernel solve of x^k delta(F) = P sigma(F) + C
    at base index i, and inst, the same equation written at base index 0:
    A = q^i P - gamma_i x^(k-1) Id and inst.C = C.

    P has 1 to N coefficients, mostly few but at times as many as the
    long windows of dense solves and divide-and-conquer leaves, and base
    indices reach 4096.  For k = 1 a constant P runs the batch of
    independent steps and a longer one the windowed loop; at times P_0's
    eigenvalues are rigged to gamma_g q^(-g) for chosen steps g in
    [i, i + N), which makes those steps singular.  For k in {2, 3}, P_0 is
    invertible (a row-permuted triangular matrix with a nonzero diagonal)
    or has a zero row, which makes every step singular.  C is random, which
    mostly makes a singular step's constraints inconsistent, or planted
    from a solution, which keeps them consistent."""
    p = draw(st.sampled_from([3, 65521, 2**31 - 1]))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(1, 4))
    N = draw(st.integers(1, 40))
    i = draw(st.sampled_from([0, 0, 1, 7, 64, 4095, 4096]))
    q = 1 if p > N and draw(st.booleans()) else draw(st.integers(2, p - 1))
    ctx = QContext(PrimeField(p), q, k)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    La = draw(st.one_of(st.integers(1, min(N, 3)), st.integers(1, N)))
    Pd = gen.integers(0, p, (n, n, La))
    if k == 1 and draw(st.booleans()):
        steps = draw(st.lists(st.integers(i, i + N - 1), min_size=1, max_size=n))
        T = np.triu(gen.integers(0, p, (n, n))).astype(object)
        for t, g in enumerate(steps):
            T[t, t] = ctx.gamma(g) * pow(ctx.qpow(g), p - 2, p) % p
        perm = gen.permutation(n)
        Pd[:, :, 0] = T[np.ix_(perm, perm)].astype(np.int64)  # a permutation similarity
    elif k > 1:
        T = np.triu(gen.integers(0, p, (n, n)))
        T[np.arange(n), np.arange(n)] = gen.integers(1, p, n)
        if draw(st.booleans()):
            T[draw(st.integers(0, n - 1))] = 0
        Pd[:, :, 0] = T[gen.permutation(n)]
    P = SeriesMatrix(p, Pd, N)
    Ad = np.zeros((n, n, max(La, k)), dtype=object)
    Ad[:, :, :La] = ctx.qpow(i) * Pd.astype(object)
    Ad[:, :, k - 1] -= ctx.gamma(i) * np.eye(n, dtype=object)
    inst = make_instance(p, q, k, n, N, SeriesMatrix(p, (Ad % p).astype(np.int64), N),
                         SeriesMatrix.zeros(p, n, 1, N))
    if draw(st.booleans()):
        inst.C = residual(SeriesMatrix(p, gen.integers(0, p, (n, 1, N)), N), inst, homogeneous=True)
    else:
        inst.C = SeriesMatrix(p, gen.integers(0, p, (n, 1, N)), N)
    return P, inst, i


def check_step_kernel(case):
    """The step kernel at base index i (as in a divide-and-conquer leaf) with
    runtime checks on, on all three kinds of step table (the k = 1
    stack, the k > 1 stack of one, every step eliminated): the singular
    steps it reports are exactly the g = i + j whose step matrix M_g has
    a kernel, and its family and constraints give the space the
    operator-matrix reference finds for the equation at base index 0."""
    P, inst, i = case
    ctx, N, C = inst.ctx, inst.N, inst.C
    p, k, n = ctx.p, ctx.k, P.rows
    A0, eye = P.coefficient_array(0).astype(object), np.eye(n, dtype=object)
    nullity = [n - rank_mod((k == 1) * ctx.gamma(g) * eye - ctx.qpow(g) * A0, p)
               for g in range(i, i + N)]
    instrument.set_runtime_checks(True)
    try:
        family, cons, sing = _solve_term_by_term(P, C, N, ctx, i)
        got = resolve_affine_family(family, cons)
        if i == 0 and P.data.shape[2] <= k:
            assert spaces_equal(pol_coeffs_de(P, C, N, ctx), got)
    finally:
        instrument.set_runtime_checks(False)
    assert sing == [i + j for j in range(N) if nullity[j]]
    # one parameter per free column of a singular step, and each constraint
    # row as wide as the family was at its step
    assert family.cols == C.cols + sum(nullity)
    widths = [len(row) for row in cons]
    assert widths == sorted(widths) and all(C.cols <= w <= family.cols for w in widths)
    assert len(cons) <= sum(nullity)
    want = solve_operator_matrix(inst)
    assert (got is None) == (want is None)
    assert spaces_equal(got, want)
    assert_solves(got, inst)


@settings(max_examples=200, deadline=None)
@given(step_kernel_cases())
def test_batched_constant_steps_match_operator_matrix(case):
    check_step_kernel(case)


@settings(max_examples=200, deadline=None, suppress_health_check=PIN_ACROSS_EXAMPLES)
@given(case=step_kernel_cases())
def test_step_kernel_on_pinned_route(pinned_route, case):
    check_step_kernel(case)


def leaves(i, N, leaf):
    """(base, length) of the leaves rdac solves at base i for precision N."""
    if N <= leaf:
        return [(i, N)]
    m = (N + 1) // 2
    return leaves(i, m, leaf) + leaves(i + m, N - m, leaf)


@st.composite
def table_slice_cases(draw):
    """(A, C, N, ctx, leaf): a divide-and-conquer solve with leaves of 1, 2
    or 64 steps.  A is constant, has two coefficients or is dense; for
    k = 1 at times A_0's eigenvalues are rigged to gamma_g q^(-g) for
    steps g at the first or last offset of a leaf, which makes them
    singular, and for k > 1 at times A_0 has a zero row, which makes every
    step singular."""
    p = draw(st.sampled_from([3, 65521, 2**31 - 1]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    leaf = draw(st.sampled_from([1, 2, 64]))
    N = draw(st.integers(1, 3 * max(leaf, 4)))
    q = 1 if p > N and draw(st.booleans()) else draw(st.integers(2, p - 1))
    ctx = QContext(PrimeField(p), q, k)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    La = min(N, draw(st.sampled_from([1, 2, N])))
    Ad = gen.integers(0, p, (n, n, La))
    if k == 1 and draw(st.booleans()):
        edges = sorted({g for base, length in leaves(0, N, leaf) for g in (base, base + length - 1)})
        steps = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=n))
        T = np.triu(gen.integers(0, p, (n, n))).astype(object)
        for t, g in enumerate(steps):
            T[t, t] = ctx.gamma(g) * pow(ctx.qpow(g), p - 2, p) % p
        perm = gen.permutation(n)
        Ad[:, :, 0] = T[np.ix_(perm, perm)].astype(np.int64)
    elif k > 1 and draw(st.booleans()):
        Ad[draw(st.integers(0, n - 1)), :, 0] = 0
    C = SeriesMatrix(p, gen.integers(0, p, (n, 1, N)), N)
    return SeriesMatrix(p, Ad, N), C, N, ctx, leaf


@settings(max_examples=80, deadline=None)
@given(table_slice_cases())
def test_step_kernel_on_supplied_table_slice(case):
    # every leaf on its slice of the solve's one step table finds
    # the family, constraints and singular steps it finds on its own table
    A, C, N, ctx, leaf = case
    table = step_table(A, ctx, 0, N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dac, "DAC_LEAF", leaf)
        instrument.set_runtime_checks(True)
        try:
            F_own, cons_own, sing_own = rdac(A, C, 0, N, ctx)
            F, cons, sing = rdac(A, C, 0, N, ctx, table)
        finally:
            instrument.set_runtime_checks(False)
    assert F == F_own
    assert len(cons) == len(cons_own) and all(map(np.array_equal, cons, cons_own))
    assert sing == sing_own


@st.composite
def table_contract_cases(draw):
    """(A, ctx, lo, hi): the steps lo <= g < hi, lo up to 4096, of an
    equation whose A is constant or has two coefficients.  For k = 1 at
    times A_0's eigenvalues are rigged to gamma_g q^(-g) for chosen steps g
    in [lo, hi), which makes those steps singular; for k > 1 at times A_0
    has a zero row, which makes every step singular."""
    p = draw(st.sampled_from([3, 65521, 2**31 - 1]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    lo = draw(st.sampled_from([0, 1, 7, 64, 4095, 4096]))
    hi = lo + draw(st.integers(1, 40))
    q = 1 if draw(st.booleans()) else draw(st.integers(2, p - 1))
    ctx = QContext(PrimeField(p), q, k)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Ad = gen.integers(0, p, (n, n, draw(st.integers(1, 2))))
    if k == 1 and draw(st.booleans()):
        steps = draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=n))
        T = np.triu(gen.integers(0, p, (n, n))).astype(object)
        for t, g in enumerate(steps):
            T[t, t] = ctx.gamma(g) * pow(ctx.qpow(g), p - 2, p) % p
        perm = gen.permutation(n)
        Ad[:, :, 0] = T[np.ix_(perm, perm)].astype(np.int64)
    elif k > 1 and draw(st.booleans()):
        Ad[draw(st.integers(0, n - 1)), :, 0] = 0
    return SeriesMatrix(p, Ad, hi), ctx, lo, hi


@settings(max_examples=150, deadline=None)
@given(table_contract_cases())
def test_step_table_contract(case):
    # M[j] is the step matrix folded by q^(-g), inv[j] its inverse where
    # elim is clear and zero where it is set, and elim marks exactly the
    # singular steps, or every step when k = 1, n > 1 and A is windowed or
    # when k > 1 and A_0 is singular
    A, ctx, lo, hi = case
    p, n, N = ctx.p, A.rows, hi - lo
    A0 = A.coefficient_array(0)
    table = step_table(A, ctx, lo, hi)
    assert table.M.shape == table.inv.shape == (N, n, n) and table.elim.shape == (N,)
    unfolded = (-step_matrices(A0, ctx, lo, hi)) % p
    singular = [rank_mod(unfolded[j], p) < n for j in range(N)]
    if ctx.k == 1 and n > 1 and A.data.shape[2] > 1:
        singular = [True] * N
    elif ctx.k > 1:
        assert len(set(singular)) == 1 and singular[0] == (rank_mod(A0, p) < n)
    assert table.elim.tolist() == singular
    eye = np.eye(n, dtype=object)
    for j, g in enumerate(range(lo, hi)):
        M, inv = table.M[j].astype(object), table.inv[j].astype(object)
        assert np.array_equal(ctx.qpow(g) * M % p, unfolded[j])
        if singular[j]:
            assert not inv.any()
        else:
            assert np.array_equal(inv.dot(M) % p, eye)


HELPER_PRIMES = [3, 65521, 134217757, 2**31 - 1]
HELPER_LENGTHS = sorted({0, 1, 2} | {2**j + d for j in range(1, 9) for d in (-1, 1)})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(HELPER_PRIMES), st.sampled_from(HELPER_LENGTHS), st.integers(0, 2**32))
def test_powers_match_python_pow(p, m, w):
    w %= p
    got = powers(w, m, p)
    assert got.dtype == np.int64
    assert got.tolist() == [pow(w, i, p) for i in range(m)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(HELPER_PRIMES),
    st.sampled_from(HELPER_LENGTHS + [4095, 4096, 4097]),  # and the step tables at N = 4096
    st.integers(0, 2**32 - 1),
)
def test_inverses_match_python_pow_and_charge_once(p, m, seed):
    gen = np.random.default_rng(seed)
    x = gen.integers(1, p, m)
    x[gen.random(m) < 0.2] = p - 1  # extreme residues
    kept = x.copy()
    before = instrument.mul_counter.value
    got = inverses(x, p)
    charged = instrument.mul_counter.value - before
    want = [pow(int(v), p - 2, p) for v in x]
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert charged == (3 * (m - 1) + instrument.inv_cost(p) if m else 0)
    assert np.array_equal(x, kept)
    # the same values as a 1 x 1 stack with some members zero: those are
    # singular and their slots hold zeros, the rest hold the inverses
    U = x.reshape(m, 1, 1).copy()
    dead = gen.random(m) < 0.3
    U[dead] = 0
    inv, sing = mat_inv_stack(U, p)
    assert np.array_equal(sing, dead)
    assert inv[:, 0, 0].tolist() == [0 if d else w for d, w in zip(dead, want)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 101] + HELPER_PRIMES[1:]),
    st.booleans(),
    st.integers(2, 2**31),
    st.lists(
        st.tuples(st.sampled_from(["gamma", "qpow", "qinv"]), st.integers(0, 300)),
        min_size=1, max_size=5,
    ),
)
def test_qcontext_tables_in_any_growth_order(p, q_is_one, q, growth):
    # the tables, grown by whichever accessor asks first and in any order
    # of sizes (say 5, then 3, then 300), equal the gamma recurrence, q^i
    # and q^(-i) at every size asked for
    q = 1 if q_is_one else 2 + q % (p - 2)  # q in [2, p)
    ctx = QContext(PrimeField(p), q, 1)
    slices = {"gamma": ctx.gamma_slice, "qpow": ctx.qpow_slice, "qinv": ctx.qinv_pow_slice}
    for which, n in growth:
        assert len(slices[which](n)) == n
    n = max(size for _, size in growth)
    gam, g = [], 0
    for _ in range(n):
        gam.append(g)
        g = (q * g + 1) % p
    assert ctx.gamma_slice(n).tolist() == gam
    assert ctx.qpow_slice(n).tolist() == [pow(q, i, p) for i in range(n)]
    assert ctx.qinv_pow_slice(n).tolist() == [pow(q, -i, p) for i in range(n)]
    if n:
        assert (ctx.gamma(n - 1), ctx.qpow(n - 1)) == (gam[-1], pow(q, n - 1, p))
