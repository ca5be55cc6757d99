import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdsolve
from qdsolve import bench
from qdsolve.cli import main
from qdsolve.errors import InternalInvariantError
from qdsolve.polymat import SeriesMatrix
from qdsolve.problemfile import parse_problem, parse_solution, serialize_solution
from qdsolve.solution import SolutionSpace

EXP_PROBLEM = """\
# exponential through the order reduction: A = x, C = 0
p: 101
q: 1
k: 1
n: 1
N: 4
A[1]:
1
"""

HYPERGEOM_STYLE = """\
p: 101
q: 1
k: 1
n: 2
N: 4
A[0]:
0 0
1 96
C[0]:
0 0
"""


def run_cli(args, stdin_text=None, capsys=None):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_solve_exponential_file(tmp_path):
    prob = tmp_path / "exp.prob"
    prob.write_text(EXP_PROBLEM)
    code, out, err = run_cli(["solve", str(prob), "--algo", "dac"])
    assert code == 0
    assert "status: ok" in out and "t: 1" in out
    sol = parse_solution(out, 101, 1, 4)
    assert sol.basis.data[0, 0, :4].tolist() == [1, 1, 51, 17]


def test_solve_all_engines_agree_on_file(tmp_path):
    from qdsolve.solution import spaces_equal

    prob = tmp_path / "p.prob"
    prob.write_text(EXP_PROBLEM)
    spaces = []
    for algo in ("dense", "dac", "newton"):
        code, out, _ = run_cli(["solve", str(prob), "--algo", algo])
        assert code == 0
        spaces.append(parse_solution(out, 101, 1, 4))
    assert spaces_equal(spaces[0], spaces[1]) and spaces_equal(spaces[0], spaces[2])


def test_solve_inconsistent_prints_bot(tmp_path):
    prob = tmp_path / "bot.prob"
    prob.write_text("p: 101\nq: 1\nk: 1\nn: 1\nN: 4\nC[0]:\n1\n")
    code, out, err = run_cli(["solve", str(prob)])
    assert code == 0
    assert "status: bot" in out
    assert "BOT" in err


def test_solve_newton_bad_spectrum_exit_2(tmp_path):
    prob = tmp_path / "bad.prob"
    prob.write_text(
        "p: 101\nq: 1\nk: 1\nn: 2\nN: 12\nA[0]:\n0 0\n1 96\nC[0]:\n0 0\n"
    )
    code, out, err = run_cli(["solve", str(prob), "--algo", "newton"])
    assert code == 2
    assert "spectrum" in err.lower()
    # the same instance is fine under dac
    code, out, err = run_cli(["solve", str(prob), "--algo", "dac"])
    assert code == 0


def test_solve_dac_warns_on_many_singular_indices(tmp_path):
    # k = 2 with A0 = 0: every index is singular, past the one the
    # divide-and-conquer cost bound allows, but the solve still runs
    prob = tmp_path / "sing.prob"
    prob.write_text("p: 101\nq: 1\nk: 2\nn: 1\nN: 5\nA[1]:\n1\nC[0]:\n1\n")
    code, out, err = run_cli(["solve", str(prob), "--algo", "dac"])
    assert code == 0
    assert "warning: 5 singular indices" in err
    assert "status: " in out
    _, dense, _ = run_cli(["solve", str(prob), "--algo", "dense"])
    assert out == dense


def test_solve_dac_warning_shows_at_most_ten_indices(tmp_path, monkeypatch):
    # at N = 5000 every index of this k = 2 problem is singular; the warning
    # gives the count and the first ten, not a line of all 5000.  The solve
    # itself is stubbed, since at this N it adds a parameter per step and
    # peaks near 1 GB: this checks the warning alone
    prob = tmp_path / "sing.prob"
    prob.write_text("p: 10007\nq: 1\nk: 2\nn: 1\nN: 5000\nA[1]:\n1\nC[0]:\n1\n")
    monkeypatch.setattr("qdsolve.cli._run_algo", lambda algo, inst: None)
    code, out, err = run_cli(["solve", str(prob), "--algo", "dac"])
    assert code == 0
    warning = [line for line in err.splitlines() if line.startswith("warning:")]
    assert warning == [
        "warning: 5000 singular indices [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...]; "
        "the divide-and-conquer cost bound assumes at most one"
    ]


def test_check_round_trip(tmp_path):
    prob = tmp_path / "p.prob"
    sol = tmp_path / "s.sol"
    prob.write_text(HYPERGEOM_STYLE)
    code, out, _ = run_cli(["solve", str(prob), "--out", str(sol)])
    assert code == 0
    code, out, _ = run_cli(["check", str(prob), str(sol)])
    assert code == 0


def test_check_detects_perturbation(tmp_path):
    prob = tmp_path / "p.prob"
    sol = tmp_path / "s.sol"
    prob.write_text(EXP_PROBLEM)
    run_cli(["solve", str(prob), "--out", str(sol)])
    text = sol.read_text()
    lines = text.splitlines()
    # bump one basis coefficient
    for i, ln in enumerate(lines):
        if ln.startswith("basis[2]"):
            lines[i + 1] = str((int(lines[i + 1]) + 1) % 101)
            break
    sol.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["check", str(prob), str(sol)])
    assert code == 4
    assert "basis column 0 fails the homogeneous equation at coefficient 2" in err


def test_check_detects_wrong_particular(tmp_path):
    # x delta(F) = 2 F + 1: F_0 = -1/2 and F_1 = 0, so a particular
    # solution with F_1 = 1 leaves (1 - 2) F_1 at coefficient 1
    prob = tmp_path / "p.prob"
    sol = tmp_path / "s.sol"
    prob.write_text("p: 101\nq: 1\nk: 1\nn: 1\nN: 4\nA[0]:\n2\nC[0]:\n1\n")
    code, _, _ = run_cli(["solve", str(prob), "--out", str(sol)])
    assert code == 0
    assert "particular[1]" not in sol.read_text()
    sol.write_text(sol.read_text() + "particular[1]:\n1\n")
    code, out, err = run_cli(["check", str(prob), str(sol)])
    assert code == 4
    assert "particular solution fails at coefficient 1" in err


def test_check_rejects_bad_column_count_and_dependent_basis(tmp_path):
    prob = tmp_path / "p.prob"
    sol = tmp_path / "s.sol"
    prob.write_text(HYPERGEOM_STYLE)
    run_cli(["solve", str(prob), "--out", str(sol)])
    space = parse_solution(sol.read_text(), 101, 2, 4)
    assert space.dim >= 1
    head = "status: ok\np: 101\nn: 2\nN: 4\n"
    for t in (-1, 100000000000):
        sol.write_text(head + f"t: {t}\n")
        code, out, err = run_cli(["check", str(prob), str(sol)])
        assert code == 1 and "outside" in err
    # zero columns, and a repeated column, solve the homogeneous equation
    # but are no basis
    sol.write_text(head + "t: 1\n")
    code, out, err = run_cli(["check", str(prob), str(sol)])
    assert (code, err) == (4, "the 1 basis columns are linearly dependent\n")
    b = space.basis
    dup = SolutionSpace(space.particular, SeriesMatrix(101, np.concatenate([b.data, b.data[:, :1]], axis=1), 4))
    sol.write_text(serialize_solution(dup, 101, 2, 4))
    code, out, err = run_cli(["check", str(prob), str(sol)])
    assert code == 4 and f"the {space.dim + 1} basis columns are linearly dependent" in err


def test_solve_internal_invariant_exit_3(tmp_path, monkeypatch):
    def broken(inst):
        raise InternalInvariantError("injected")

    monkeypatch.setattr(bench, "dense_solve", broken)
    prob = tmp_path / "p.prob"
    prob.write_text(EXP_PROBLEM)
    code, out, err = run_cli(["solve", str(prob), "--algo", "dense"])
    assert (code, out) == (3, "")
    assert err == "internal invariant violated: injected\n"


def test_sizes_numpy_cannot_index_exit_1(tmp_path):
    # N = 10^20 is past any int64 array length: refused before any array
    # is built, with one line and exit 1, however it reaches the library
    big = 10**20
    prob = tmp_path / "big.prob"
    prob.write_text(f"p: 101\nq: 2\nk: 1\nn: 1\nN: {big}\n")
    sol = tmp_path / "big.sol"
    sol.write_text(f"status: bot\np: 101\nn: 1\nN: {big}\n")
    runs = [["solve", str(prob), "--algo", algo] for algo in ("dense", "dac", "newton")]
    runs += [["check", str(prob), str(sol)], ["gen", "--n", "1", "--N", str(big)],
             ["bench", "--n", "1", "--N", str(big), "--algos", "dense"],
             ["gen", "--n", str(big), "--N", "1"]]
    for argv in runs:
        code, out, err = run_cli(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: n = ") and "numpy cannot index" in err and err.count("\n") == 1, argv


def test_out_of_memory_exit_2(tmp_path, monkeypatch):
    # a MemoryError anywhere in a command is one line and exit 2; a real
    # oversized allocation would test the machine's overcommit policy
    def hungry(*args):
        raise MemoryError()

    monkeypatch.setattr(bench, "dense_solve", hungry)
    prob = tmp_path / "p.prob"
    prob.write_text(EXP_PROBLEM)
    code, out, err = run_cli(["solve", str(prob), "--algo", "dense"])
    assert (code, out) == (2, "")
    assert err == "precondition error: the problem does not fit in memory\n"


@pytest.mark.parametrize("k", ["N", str(10**12), str(10**20)])
@pytest.mark.parametrize("q", ["1", "random"])
def test_order_at_or_past_precision_solves_and_checks(tmp_path, q, k):
    # k >= N: x^k delta(F) vanishes mod x^N, and every engine answers
    # without an array as long as k; N = 80 is past DAC_LEAF, so the
    # divide-and-conquer carry and its self-check run
    N = "80"
    code, text, err = run_cli(["gen", "--seed", "1", "--n", "2", "--N", N, "--k", N if k == "N" else k,
                               "--q", q, "--p", "65521", "--good-spectrum"])
    assert code == 0, err
    prob = tmp_path / "k.prob"
    prob.write_text(text)
    files = []
    for algo in ("dense", "dac", "newton"):
        sol = tmp_path / f"k.{algo}.sol"
        code, _, err = run_cli(["solve", str(prob), "--algo", algo, "--checks", "--out", str(sol)])
        assert code == 0, (algo, err)
        code, out, err = run_cli(["check", str(prob), str(sol)])
        assert code == 0 and out.startswith("ok"), (algo, err)
        files.append(sol.read_text())
    assert files[0] == files[1] == files[2]


def test_bench_order_past_precision():
    code, out, err = run_cli(["bench", "--n", "2", "--N", "80", "--k", str(10**12), "--p", "65521"])
    assert code == 0, err
    assert len(out.strip().splitlines()) == 4


def test_newton_work_stops_growing_with_k_past_N():
    # q = 1, k > N: the splitting construction is formed mod x^N, so every
    # order past N costs what N + 1 costs, and k = 10^4 answers at once
    counts = set()
    for k in (21, 300, 10**4, 10**12):
        code, out, err = run_cli(["bench", "--n", "2", "--N", "20", "--k", str(k), "--q-mode", "one",
                                  "--p", "101", "--algos", "newton"])
        assert code == 0, err
        counts.add(int(out.splitlines()[1].split(",")[8]))
        assert len(counts) == 1, k


def test_newton_python_calls_linear_in_N_past_k():
    # q = 1, k >= N: the splitting construction is one window product per
    # coefficient, so quadrupling N at most quintuples the n x n products
    from qdsolve.convolution import _matmul_mod

    def matmul_calls(N):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is _matmul_mod.__code__:
                calls += 1

        sys.setprofile(count)
        try:
            code, out, err = run_cli(["bench", "--n", "2", "--N", str(N), "--k", str(10**20),
                                      "--q-mode", "one", "--p", "65521", "--algos", "newton"])
        finally:
            sys.setprofile(None)
        assert code == 0, err
        return calls

    small, large = matmul_calls(80), matmul_calls(320)
    assert large <= 5 * small, (small, large)


def test_check_truncated_solution_is_parse_error(tmp_path):
    prob = tmp_path / "p.prob"
    sol = tmp_path / "s.sol"
    prob.write_text(EXP_PROBLEM)
    sol.write_text("status: ok\np: 101\nn: 1\nN: 2\nt: 0\nparticular[0]:\n0\n")
    code, out, err = run_cli(["check", str(prob), str(sol)])
    assert code == 1


def test_gen_idempotent_and_solvable(tmp_path):
    code1, out1, _ = run_cli(["gen", "--seed", "5", "--n", "2", "--N", "6", "--k", "1", "--q", "random"])
    code2, out2, _ = run_cli(["gen", "--seed", "5", "--n", "2", "--N", "6", "--k", "1", "--q", "random"])
    assert code1 == code2 == 0
    assert out1 == out2
    prob = tmp_path / "g.prob"
    prob.write_text(out1)
    code, out, _ = run_cli(["solve", str(prob), "--algo", "dense"])
    assert code == 0


def test_gen_draws_random_instance():
    # gen prints the instance random_instance draws; order 0 is printed
    # unreduced and reduced on load
    from qdsolve.oracle import random_instance

    for k in (0, 1, 2):
        for q in ("1", "5", "random"):
            code, out, _ = run_cli(["gen", "--seed", "4", "--n", "2", "--N", "6",
                                    "--k", str(k), "--q", q, "--good-spectrum"])
            assert code == 0
            got = parse_problem(out)
            want = random_instance(4, 134217757, 2, 6, k, q if q == "random" else int(q),
                                   require_good_spectrum=True)
            assert (got.ctx.q, got.k, got.N) == (want.ctx.q, want.k, want.N)
            assert got.A == want.A and got.C == want.C


def test_gen_good_spectrum_feeds_newton(tmp_path):
    code, out, _ = run_cli(
        ["gen", "--seed", "9", "--n", "2", "--N", "8", "--k", "2",
         "--q", "random", "--good-spectrum"]
    )
    assert code == 0
    prob = tmp_path / "g.prob"
    prob.write_text(out)
    code, _, err = run_cli(["solve", str(prob), "--algo", "newton"])
    assert code == 0, err


@pytest.mark.parametrize("k", [1, 3])
def test_solve_checks_flag_same_answer(tmp_path, k, monkeypatch):
    # --checks runs the self-checks (the stacked Sylvester residual among
    # them) during the solve only, and the answer is the same file
    from qdsolve import instrument

    code, text, err = run_cli(["gen", "--seed", "5", "--n", "3", "--N", "40", "--k", str(k),
                               "--q", "random", "--good-spectrum"])
    assert code == 0, err
    prob = tmp_path / "c.prob"
    prob.write_text(text)
    seen = []
    real = instrument.checks_enabled
    monkeypatch.setattr(instrument, "checks_enabled", lambda: seen.append(real()) or seen[-1])
    files = []
    for extra in ([], ["--checks"]):
        seen.clear()
        sol = tmp_path / f"c{len(files)}.sol"
        code, _, err = run_cli(["solve", str(prob), "--algo", "newton", "--out", str(sol)] + extra)
        assert code == 0, err
        assert any(seen) == bool(extra)
        assert not real()  # the flag is off again after the solve
        files.append(sol.read_text())
    assert files[0] == files[1]


def test_gen_usage_errors():
    code, _, err = run_cli(["gen", "--seed", "1", "--n", "0", "--N", "4"])
    assert code == 1
    code, _, err = run_cli(["gen", "--seed", "1", "--n", "1", "--N", "0"])
    assert code == 1


@pytest.mark.parametrize("seed", ["-1", str(2**128), str(2**130 + 5)])
def test_gen_seed_out_of_range_is_usage_error(seed):
    # the generator's keys are [0, 2^128); outside it is one line, exit 1
    code, out, err = run_cli(["gen", "--seed", seed, "--n", "1", "--N", "4"])
    assert (code, out) == (1, "")
    assert err == f"error: seed {seed} is outside [0, 2^128)\n"


def test_gen_seed_range_ends_are_accepted():
    for seed in ("0", str(2**128 - 1)):
        code, out, err = run_cli(["gen", "--seed", seed, "--n", "1", "--N", "4"])
        assert code == 0 and out.startswith("p: "), (seed, err)


@pytest.mark.parametrize(
    "seed, ns, case, n",
    [(-2_000_000, "1", -999_989, 1), (2**128, "1", 2**128 + 1_000_011, 1),
     (2**128 - 2_000_014, "1,2", 2**128, 2)],
)
def test_bench_case_seed_out_of_range_is_usage_error(seed, ns, case, n):
    # the case seed seed + 1_000_003 n + N is checked for every (n, N)
    # before any instance is drawn
    code, out, err = run_cli(["bench", "--algos", "dense", "--seed", str(seed), "--n", ns, "--N", "8"])
    assert (code, out) == (1, "")
    assert err == f"error: seed {case} (from --seed {seed}, n = {n}, N = 8) is outside [0, 2^128)\n"


def test_bench_smallest_case_seed_is_accepted():
    # -1_000_011 + 1_000_003 * 1 + 8 = 0
    code, out, err = run_cli(["bench", "--algos", "dense", "--seed", "-1000011", "--n", "1", "--N", "8"])
    assert code == 0, err
    assert out.splitlines()[1].startswith("dense,1,1,8,0,134217757,0,")


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_bench_reps_below_one_is_usage_error(reps):
    code, out, err = run_cli(["bench", "--algos", "dense", "--n", "1", "--N", "8", "--reps", reps])
    assert (code, out, err) == (1, "", "error: reps must be positive\n")


def test_solve_out_unwritable_exit_1(tmp_path):
    prob = tmp_path / "exp.prob"
    prob.write_text(EXP_PROBLEM)
    target = tmp_path / "missing" / "x.sol"
    code, out, err = run_cli(["solve", str(prob), "--out", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--n", "0"), ("--n", "2,-1"), ("--N", "0"), ("--k", "-1"), ("--algos", ","), ("--algos", " ")],
)
def test_bench_usage_errors(flag, value):
    args = {"--n": "1", "--N": "8", "--k": "1"}
    args[flag] = value
    code, out, err = run_cli(["bench", "--algos", "dense"] + [x for kv in args.items() for x in kv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_good_spectrum_gen_solve_check_at_p_2_31_minus_1(tmp_path):
    # the spectrum test and every engine run at the largest prime below the
    # ceiling, and agree
    from qdsolve.solution import spaces_equal

    code, text, err = run_cli(
        ["gen", "--good-spectrum", "--p", "2147483647", "--n", "3", "--N", "8"]
    )
    assert code == 0, err
    prob = tmp_path / "p31.prob"
    prob.write_text(text)
    spaces = []
    for algo in ("dense", "dac", "newton"):
        sol = tmp_path / f"p31.{algo}.sol"
        code, _, err = run_cli(["solve", str(prob), "--algo", algo, "--out", str(sol)])
        assert code == 0, (algo, err)
        spaces.append(parse_solution(sol.read_text(), 2147483647, 3, 8))
        code, out, err = run_cli(["check", str(prob), str(sol)])
        assert code == 0 and out.startswith("ok:"), (algo, err)
    assert spaces[0] is not None
    assert all(spaces_equal(s, spaces[0]) for s in spaces)


def test_non_prime_modulus_exit_2():
    for argv in (
        ["gen", "--p", "6", "--n", "1", "--N", "3"],
        ["gen", "--p", "2", "--n", "1", "--N", "3"],
        ["bench", "--p", "6", "--N", "8"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("precondition error: modulus ") and err.count("\n") == 1


def test_modulus_ceiling_exit_2(tmp_path):
    # the int64 kernels need (p - 1)^2 < 2^62: a prime at or above 2^31 is
    # refused before any array is built, even one past int64 itself, and
    # 2^31 - 1 is still accepted
    for p in (4294967311, 2**61 - 1, 2**89 - 1):
        prob = tmp_path / f"{p}.prob"
        prob.write_text(EXP_PROBLEM.replace("p: 101", f"p: {p}"))
        sol = tmp_path / f"{p}.sol"
        sol.write_text(f"status: bot\np: {p}\nn: 1\nN: 4\n")
        for argv in (
            ["gen", "--p", str(p), "--n", "1", "--N", "4"],
            ["solve", str(prob), "--algo", "dense"],
            ["solve", str(prob), "--algo", "dac"],
            ["check", str(prob), str(sol)],
        ):
            code, out, err = run_cli(argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("precondition error: modulus ") and err.count("\n") == 1
    code, out, _ = run_cli(["gen", "--p", "2147483647", "--n", "1", "--N", "4"])
    assert code == 0 and "p: 2147483647" in out


def test_dac_solve_at_p_2_31_minus_1(tmp_path):
    # the cost warning counts the singular indices through char_poly at this
    # prime too; this draw has none, so it stays silent
    code, text, _ = run_cli(
        ["gen", "--p", "2147483647", "--n", "3", "--N", "80", "--q", "random"]
    )
    assert code == 0
    prob = tmp_path / "p31.prob"
    prob.write_text(text)
    sol = tmp_path / "p31.sol"
    code, out, err = run_cli(["solve", str(prob), "--algo", "dac", "--out", str(sol)])
    assert code == 0 and err == ""
    code, out, _ = run_cli(["check", str(prob), str(sol)])
    assert code == 0 and out.startswith("ok:")


def test_gen_k0_reduction_round_trip(tmp_path):
    code, out, _ = run_cli(["gen", "--seed", "3", "--n", "1", "--N", "5", "--k", "0"])
    assert code == 0
    inst = parse_problem(out)
    assert inst.k == 1 and inst.N == 6  # normalized on load
    prob = tmp_path / "k0.prob"
    prob.write_text(out)
    sol = tmp_path / "k0.sol"
    assert run_cli(["solve", str(prob), "--out", str(sol)])[0] == 0
    assert run_cli(["check", str(prob), str(sol)])[0] == 0


def test_bench_smoke_csv_schema():
    code, out, _ = run_cli(
        ["bench", "--n", "2", "--N", "8", "--k", "1", "--q-mode", "random",
         "--algos", "dense,dac,newton", "--seed", "1", "--reps", "3", "--p", "134217757"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "algo,n,k,N,q_is_one,p,seed,ms,mul_count"
    assert len(lines) == 4
    for ln in lines[1:]:
        fields = ln.split(",")
        assert len(fields) == 9
        assert fields[0] in ("dense", "dac", "newton")
        assert int(fields[1]) == 2 and int(fields[3]) == 8
        assert float(fields[7]) >= 0
        assert int(fields[8]) > 0


@pytest.mark.parametrize("N", ["1", "5,9"])
def test_bench_k0_rows_keep_requested_k_and_N(N):
    # a k = 0 case is solved through its reduced order-1 instance at N + 1,
    # but each row reports the order and precision that were asked for
    code, out, _ = run_cli(["bench", "--n", "1,2", "--N", N, "--k", "0", "--seed", "3"])
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    Ns = [int(x) for x in N.split(",")]
    assert len(rows) == 2 * len(Ns) * 3
    assert {(int(r[1]), int(r[3])) for r in rows} == {(n, m) for n in (1, 2) for m in Ns}
    assert all(r[2] == "0" for r in rows)


def test_parse_errors_exit_1(tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("p: 101\nq: 1\nk: 1\nn: 1\n")  # missing N
    assert run_cli(["solve", str(bad)])[0] == 1
    bad.write_text("p: 101\nq: 1\nk: 1\nn: 1\nN: 2\nA[0]:\n1 2 3\n")  # wrong count
    assert run_cli(["solve", str(bad)])[0] == 1
    bad.write_text("p: 6\nq: 1\nk: 1\nn: 1\nN: 2\n")  # composite p
    assert run_cli(["solve", str(bad)])[0] == 2
    bad.write_text("p: 101\nq: 0\nk: 1\nn: 1\nN: 2\n")  # zero q
    assert run_cli(["solve", str(bad)])[0] == 2
    bad.write_text("p: 5\nq: 1\nk: 1\nn: 1\nN: 7\n")  # gamma degeneracy
    assert run_cli(["solve", str(bad)])[0] == 2
    assert run_cli(["nosuchcmd"])[0] == 1


def test_round_trip_sweep_all_algorithms(tmp_path):
    # gen | solve | check for a spread of seeds and all engines
    from qdsolve.solution import spaces_equal

    count = 0
    for seed in range(100):
        n = 1 + seed % 3
        N = 3 + seed % 5
        k = (seed // 3) % 3  # includes k = 0 reductions
        args = ["gen", "--seed", str(seed), "--n", str(n), "--N", str(N),
                "--k", str(k), "--q", "random", "--good-spectrum"]
        code, text, _ = run_cli(args)
        assert code == 0
        prob = tmp_path / f"s{seed}.prob"
        prob.write_text(text)
        for algo in ("dense", "dac", "newton"):
            sol = tmp_path / f"s{seed}.{algo}.sol"
            code, _, err = run_cli(["solve", str(prob), "--algo", algo, "--out", str(sol)])
            assert code == 0, (seed, algo, err)
            code, _, err = run_cli(["check", str(prob), str(sol)])
            assert code == 0, (seed, algo, err)
        count += 1
    assert count == 100


def test_solve_from_stdin():
    code, out, _ = run_cli(["solve", "-", "--algo", "dense"], stdin_text=EXP_PROBLEM)
    assert code == 0 and "status: ok" in out


def test_check_accepts_bot_solution(tmp_path):
    prob = tmp_path / "p.prob"
    prob.write_text("p: 101\nq: 1\nk: 1\nn: 1\nN: 4\nC[0]:\n1\n")
    sol = tmp_path / "s.sol"
    code, out, _ = run_cli(["solve", str(prob), "--out", str(sol)])
    assert code == 0 and "status: bot" in sol.read_text()
    code, out, _ = run_cli(["check", str(prob), str(sol)])
    assert code == 0


def test_console_entry_point():
    # the child imports the package the suite imports, installed or not
    src = str(Path(qdsolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qdsolve.cli", "gen", "--seed", "1", "--n", "1", "--N", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "p: 134217757" in proc.stdout


def test_check_catches_a_wrong_product_window(tmp_path, monkeypatch):
    # a product kernel that gets its windows wrong: every mul with lo > 0
    # returns its window with coefficient 0 bumped.  DAC's carry is such a
    # window, so the DAC answer is wrong; check forms its residual without
    # the product kernel and refutes it with exit 4, the patch still in place
    from qdsolve import convolution

    code, out, _ = run_cli(["gen", "--seed", "3", "--n", "2", "--N", "150", "--k", "1", "--q", "random"])
    assert code == 0
    prob = tmp_path / "g.prob"
    prob.write_text(out)
    good, bad = tmp_path / "good.sol", tmp_path / "bad.sol"
    assert run_cli(["solve", str(prob), "--algo", "dense", "--out", str(good)])[0] == 0
    mul = SeriesMatrix.mul

    def wrong_window(self, other, n=None, lo=0):
        out = mul(self, other, n, lo)
        if lo == 0 or out.prec == 0:
            return out
        data = np.zeros((out.rows, out.cols, max(out.data.shape[2], 1)), dtype=np.int64)
        data[:, :, : out.data.shape[2]] = out.data
        data[0, 0, 0] += 1
        return SeriesMatrix(out.p, data, out.prec)

    monkeypatch.setattr(SeriesMatrix, "mul", wrong_window)
    assert run_cli(["solve", str(prob), "--algo", "dac", "--out", str(bad)])[0] == 0
    assert bad.read_text() != good.read_text()
    code, _, err = run_cli(["check", str(prob), str(bad)])
    assert code == 4, err
    # the residual never reaches the product kernels: with all of them
    # broken wherever a qdsolve module binds them, found by identity under
    # any name, the right answer still checks
    def broken(*args, **kwargs):
        raise AssertionError("check used an engine product kernel")

    monkeypatch.setattr(SeriesMatrix, "mul", broken)
    kernels = {
        id(getattr(convolution, name))
        for name in ("_matmul_mod", "_step_mod", "conv_trunc", "_conv_shift", "_conv_direct", "_conv_ntt")
    }
    sites = [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qdsolve" or name.startswith("qdsolve."))
        for attr, value in list(vars(mod).items())
        if id(value) in kernels
    ]
    assert {mod.__name__ for mod, _ in sites} >= {
        "qdsolve.convolution", "qdsolve.polymat", "qdsolve.linalg", "qdsolve.oracle",
        "qdsolve.newton", "qdsolve.spectrum",
    }
    for mod, attr in sites:
        monkeypatch.setattr(mod, attr, broken)
    code, out, err = run_cli(["check", str(prob), str(good)])
    assert code == 0, err
