"""Command-line front end: solve, check, bench and gen subcommands.

Exit codes: 0 success (an inconsistent system, printed as BOT, is a
valid answer), 1 usage or file-format problems, 2 violated semantic
preconditions (non-prime modulus or one not below 2^31, zero q, gamma
degeneracy, bad spectrum for the Newton engine), 3 internal invariant
violations, 4 a solution that ``check`` refutes.  Sizes n, N whose
arrays numpy cannot index are refused before any array is built (exit
1), and a problem that does not fit in memory exits 2.
``solve --checks`` runs the runtime self-checks during the solve; a
failed one exits 3.
The modulus of a problem file is checked before any coefficient is
stored, so a modulus at or above 2^31, however large, gets exit 2 and
never a traceback.  No engine has a modulus limit of its own below 2^31.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import instrument
from .bench import ALGORITHMS, _run_algo, case_seed, run_bench, to_csv
from .errors import (
    InternalInvariantError,
    PreconditionError,
    ProblemFormatError,
    UsageError,
)
from .linalg import char_poly
from .oracle import _check_indexable, random_coefficients, residual
from .problemfile import (
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_solution,
)
from .solution import canonical_form
from .spectrum import singular_indices


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file")
    ps.add_argument("file", help="problem file path, or - for stdin")
    ps.add_argument("--algo", choices=ALGORITHMS, default="dac")
    ps.add_argument("--out", help="write the solution file here instead of stdout")
    ps.add_argument("--checks", action="store_true",
                    help="verify internal contracts (residuals, Sylvester solutions) while solving")

    pc = sub.add_parser("check", help="verify a solution file against a problem file")
    pc.add_argument("file", help="problem file path")
    pc.add_argument("solution", help="solution file path")

    pb = sub.add_parser("bench", help="emit scaling data as CSV on stdout")
    pb.add_argument("--n", default="1", help="comma-separated list of system sizes")
    pb.add_argument("--N", default="1024", help="comma-separated list of precisions")
    pb.add_argument("--k", type=int, default=1)
    pb.add_argument("--q-mode", choices=("one", "random"), default="random")
    pb.add_argument("--algos", default="dense,dac,newton")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--reps", type=int, default=1)
    pb.add_argument("--p", type=int, default=134217757)

    pg = sub.add_parser("gen", help="generate a random problem file on stdout")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--N", type=int, required=True)
    pg.add_argument("--k", type=int, default=1)
    pg.add_argument("--q", default="1", help="an explicit value, or 'random'")
    pg.add_argument("--p", type=int, default=134217757)
    pg.add_argument("--good-spectrum", action="store_true")
    return parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise ProblemFormatError(f"cannot read {path}: {e}")


def _cmd_solve(args) -> int:
    inst = parse_problem(_read(args.file))
    was = instrument.checks_enabled()
    instrument.set_runtime_checks(was or args.checks)
    try:
        if args.algo == "dac":
            R = singular_indices(char_poly(inst.A.coefficient_array(0), inst.p), inst.ctx, inst.N)
            if len(R) > 1:
                print(
                    f"warning: {len(R)} singular indices {R}; "
                    "the divide-and-conquer cost bound assumes at most one",
                    file=sys.stderr,
                )
        space = _run_algo(args.algo, inst)
    finally:
        instrument.set_runtime_checks(was)
    text = serialize_solution(space, inst.p, inst.n, inst.N)
    if space is None:
        print("BOT", file=sys.stderr)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    inst = parse_problem(_read(args.file))
    space = parse_solution(_read(args.solution), inst.p, inst.n, inst.N)
    if space is None:
        print("solution file declares BOT; nothing to verify")
        return 0
    res = residual(space.particular, inst)
    if not res.is_zero():
        bad = _first_nonzero_index(res)
        print(f"particular solution fails at coefficient {bad}", file=sys.stderr)
        return 4
    res = residual(space.basis, inst, homogeneous=True)
    if not res.is_zero():
        j = int(np.nonzero(res.data)[1].min())
        bad = _first_nonzero_index(res.col(j))
        print(
            f"basis column {j} fails the homogeneous equation at coefficient {bad}",
            file=sys.stderr,
        )
        return 4
    # t columns of n series with L stored planes span at most n L dimensions
    t = space.dim
    if t > inst.n * space.basis.data.shape[2] or len(canonical_form(space)[0]) < t:
        print(f"the {t} basis columns are linearly dependent", file=sys.stderr)
        return 4
    print(f"ok: particular and {t} basis column(s) verified mod x^{inst.N}")
    return 0


def _first_nonzero_index(m) -> int:
    nz = np.nonzero(m.data)
    return int(nz[2].min()) if len(nz[2]) else -1


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list {text!r}")
    if not vals:
        raise UsageError(f"empty {what} list")
    return vals


def _check_seed(seed: int, origin: str = "") -> None:
    # the counter-based generator takes keys in [0, 2^128)
    if not 0 <= seed < 2**128:
        raise UsageError(f"seed {seed}{origin} is outside [0, 2^128)")


def _cmd_bench(args) -> int:
    ns = _parse_int_list(args.n, "n")
    Ns = _parse_int_list(args.N, "N")
    if args.reps < 1:
        raise UsageError("reps must be positive")
    for n in ns:
        for N in Ns:
            _check_indexable(args.k, n, N, UsageError)
            _check_seed(case_seed(args.seed, n, N), f" (from --seed {args.seed}, n = {n}, N = {N})")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise UsageError("empty algorithm list")
    for a in algos:
        if a not in ALGORITHMS:
            raise UsageError(f"unknown algorithm {a!r}")
    records = run_bench(ns, Ns, args.k, args.q_mode, algos, args.seed, args.reps, args.p)
    sys.stdout.write(to_csv(records))
    return 0


def _cmd_gen(args) -> int:
    _check_indexable(args.k, args.n, args.N, UsageError)
    _check_seed(args.seed)
    if args.q == "random":
        q_mode = "random"
    else:
        try:
            q_mode = int(args.q)
        except ValueError:
            raise UsageError(f"bad q value {args.q!r}")
    ctx, A, C = random_coefficients(
        args.seed, args.p, args.n, args.N, args.k, q_mode, args.good_spectrum
    )
    # the order-0 instance is printed as drawn, not reduced
    text = serialize_problem(args.p, ctx.q, args.k, args.n, args.N, A, C)
    parse_problem(text)  # validates gamma/field preconditions end to end
    sys.stdout.write(text)
    return 0


_COMMANDS = {"solve": _cmd_solve, "check": _cmd_check, "bench": _cmd_bench, "gen": _cmd_gen}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            return _COMMANDS[args.command](args)
        except MemoryError:
            raise PreconditionError("the problem does not fit in memory") from None
    except (UsageError, ProblemFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
