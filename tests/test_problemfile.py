import pytest

from qdsolve.errors import PreconditionError, ProblemFormatError, QdsolveError
from qdsolve.oracle import random_instance
from qdsolve.problemfile import (
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_solution,
)
from qdsolve.polymat import SeriesMatrix
from qdsolve.solution import spaces_equal

from operator_matrix import solve_operator_matrix


def test_parse_basic_and_reduction():
    text = """
# comment line
p: 101
q: 2
k: 1
n: 2
N: 3
A[0]:
1 2
3 4
A[2]:
0 1
0 0
C[1]:
5
-1
"""
    inst = parse_problem(text)
    assert (inst.p, inst.ctx.q, inst.k, inst.n, inst.N) == (101, 2, 1, 2, 3)
    assert inst.A.entry(0, 1) == SeriesMatrix(101, [[[2, 0, 1]]], 3)
    assert inst.C.entry(1, 0) == SeriesMatrix(101, [[[0, 100]]], 3)
    # values may follow the block line, and a block at degree >= N is ignored
    inline = text.replace("A[0]:\n1 2\n3 4", "A[0]: 1 2 3 4") + "A[3]:\n9 9\n9 9\n"
    assert "A[0]: 1 2 3 4" in inline
    again = parse_problem(inline)
    assert again.A == inst.A and again.C == inst.C


def test_values_reduced_mod_p():
    text = "p: 7\nq: 1\nk: 1\nn: 1\nN: 2\nA[0]:\n100\nC[0]:\n-1\n"
    inst = parse_problem(text)
    assert inst.A.coefficient_array(0)[0, 0] == 100 % 7
    assert inst.C.coefficient_array(0)[0, 0] == 6


def test_round_trip_serialization():
    inst = random_instance(3, 101, 2, 5, 2, "random")
    text = serialize_problem(inst.p, inst.ctx.q, inst.k, inst.n, inst.N, inst.A, inst.C)
    again = parse_problem(text)
    assert again.A == inst.A and again.C == inst.C
    assert serialize_problem(
        again.p, again.ctx.q, again.k, again.n, again.N, again.A, again.C
    ) == text


def test_solution_round_trip_and_bot():
    inst = random_instance(4, 101, 2, 6, 1, "random")
    sol = solve_operator_matrix(inst)
    text = serialize_solution(sol, inst.p, inst.n, inst.N)
    back = parse_solution(text, inst.p, inst.n, inst.N)
    assert spaces_equal(sol, back)
    bot = serialize_solution(None, inst.p, inst.n, inst.N)
    assert parse_solution(bot, inst.p, inst.n, inst.N) is None


def test_parse_rejections():
    with pytest.raises(ProblemFormatError):
        parse_problem("p: 101\nq: 1\nk: 1\nn: 1\n")  # missing N
    with pytest.raises(ProblemFormatError):
        parse_problem("p: 101\nq: 1\nk: 1\nn: 1\nN: 2\nA[0]:\n1 2\n")  # entry count
    with pytest.raises(ProblemFormatError):
        parse_problem("p: 101\nq: 1\nk: 1\nn: 1\nN: 2\nB[0]:\n1\n")  # unknown block
    with pytest.raises(ProblemFormatError):
        parse_problem("p: 101\nq: 1\nk: 1\nn: 1\nN: 2\nA[0]:\n1\nA[0]:\n1\n")  # dup
    with pytest.raises(PreconditionError):
        parse_problem("p: 91\nq: 1\nk: 1\nn: 1\nN: 2\n")  # 91 = 7*13
    with pytest.raises(PreconditionError):
        parse_problem("p: 101\nq: 0\nk: 1\nn: 1\nN: 2\n")
    with pytest.raises(PreconditionError):
        parse_problem("p: 5\nq: 1\nk: 1\nn: 1\nN: 7\n")  # gamma degeneracy
    with pytest.raises(ProblemFormatError):
        parse_problem("p: 101\nq: 1\nk: -1\nn: 1\nN: 2\n")
    # the count is checked before the 10^10-entry block would be allocated
    with pytest.raises(ProblemFormatError, match="block A\\[0\\] has 1 entries, expected 10000000000"):
        parse_problem("p: 101\nq: 1\nk: 1\nn: 100000\nN: 1\nA[0]:\n1\n")


def test_solution_header_mismatch():
    with pytest.raises(ProblemFormatError):
        parse_solution("status: ok\np: 101\nn: 1\nN: 3\nt: 0\n", 101, 1, 4)
    # t counts columns of a space inside K^(n N)
    for t in (-1, 9, 10**11):
        with pytest.raises(ProblemFormatError, match="outside"):
            parse_solution(f"status: ok\np: 101\nn: 2\nN: 4\nt: {t}\n", 101, 2, 4)
    assert parse_solution("status: ok\np: 101\nn: 2\nN: 4\nt: 8\n", 101, 2, 4).dim == 8


def test_block_degree_past_int_digit_limit_is_format_error():
    with pytest.raises(ProblemFormatError, match="line 6: block degree of 5000 digits"):
        parse_problem("p: 101\nq: 1\nk: 1\nn: 1\nN: 4\nA[" + "1" * 5000 + "]: 1\n")


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_PROBLEM = "p: 101\nq: 3\nk: 1\nn: 2\nN: 4\nA[0]:\n1 2\n3 4\nA[2]: 0 1 0 0\nC[1]:\n5\n-1\n"
_SOLUTION = "status: ok\np: 101\nn: 2\nN: 4\nt: 1\nparticular[0]:\n1\n2\nbasis[1]:\n3\n4\n"
_GRAMMAR = "0123456789-+_: \n\t#[]pqknNtACbasisoparticularstatusbotok\u0663\u00b2x."


@st.composite
def documents(draw):
    """Arbitrary text, or a valid problem or solution file with up to three
    characters inserted, deleted or replaced and lines dropped or repeated.
    Three edits can grow a number by at most three digits, so no draw asks
    for a large array."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    lines = draw(st.sampled_from([_PROBLEM, _SOLUTION])).splitlines(keepends=True)
    lines = draw(st.lists(st.sampled_from(lines), max_size=len(lines) + 3)) if draw(st.booleans()) else lines
    text = "".join(lines)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(_GRAMMAR))
        text = draw(st.sampled_from([text[:at] + ch + text[at:], text[:at] + text[at + 1 :], text[:at] + ch + text[at + 1 :]]))
    return text


@settings(max_examples=500, deadline=None)
@given(documents())
def test_parsers_return_or_raise_typed_errors(text):
    # any text is parsed or refused with a QdsolveError, never another exception
    for parse in (parse_problem, lambda t: parse_solution(t, 101, 2, 4)):
        try:
            parse(text)
        except QdsolveError:
            pass
