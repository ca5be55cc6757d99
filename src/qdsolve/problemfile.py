"""The problem and solution file grammars.

Problem files are flat text: a key:value header (p, q, k, n, N) followed
by per-degree coefficient blocks.  ``A[d]:`` starts an n x n integer
matrix for the degree-d coefficient of A, given as whitespace-separated
integers (line breaks are not significant); ``C[d]:`` the n-entry
column.  Degrees may appear in any order; missing degrees are zero;
integers of any size are reduced mod p on load.  ``#`` starts a comment.

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

Solution files mirror the shape: a header (status, p, n, N, t) and
blocks ``particular[d]:`` (n entries) and ``basis[d]:`` (n x t matrix).
``status: bot`` marks the inconsistent outcome and carries no blocks.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ProblemFormatError
from .field import PrimeField
from .oracle import ProblemInstance, _check_indexable, make_instance
from .polymat import SeriesMatrix
from .solution import SolutionSpace

_INT64 = np.int64

_HEADER_RE = re.compile(r"^([A-Za-z_]+)\s*:\s*(.+)$")
_BLOCK_RE = re.compile(r"^([A-Za-z_]+)\[(\d+)\]\s*:\s*(.*)$")


def _tokenize(text: str):
    """(kind, payload) per logical item: headers, block starts, numbers."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _BLOCK_RE.match(line)
        if m:
            try:
                deg = int(m.group(2))
            except ValueError:  # past Python's digit limit for int()
                raise ProblemFormatError(f"line {lineno}: block degree of {len(m.group(2))} digits")
            yield ("block", (m.group(1), deg), lineno)
            for tok in m.group(3).split():
                yield ("num", tok, lineno)
            continue
        m = _HEADER_RE.match(line)
        if m and not re.fullmatch(r"-?\d+(\s+-?\d+)*", line):
            yield ("header", (m.group(1), m.group(2).strip()), lineno)
            continue
        for tok in line.split():
            yield ("num", tok, lineno)


def _parse_document(text: str, int_headers, str_headers=()):
    headers: dict[str, object] = {}
    blocks: dict[tuple[str, int], list[int]] = {}
    current: list[int] | None = None
    for kind, payload, lineno in _tokenize(text):
        if kind == "header":
            key, val = payload
            if key in int_headers:
                try:
                    headers[key] = int(val)
                except ValueError:
                    raise ProblemFormatError(f"line {lineno}: {key} must be an integer")
            elif key in str_headers:
                headers[key] = val
            else:
                raise ProblemFormatError(f"line {lineno}: unknown header {key!r}")
            current = None
        elif kind == "block":
            name, deg = payload
            if (name, deg) in blocks:
                raise ProblemFormatError(f"line {lineno}: duplicate block {name}[{deg}]")
            current = blocks.setdefault((name, deg), [])
        else:
            if current is None:
                raise ProblemFormatError(f"line {lineno}: stray value outside any block")
            try:
                current.append(int(payload))
            except ValueError:
                raise ProblemFormatError(f"line {lineno}: bad integer {payload!r}")
    return headers, blocks


def _require(headers, keys):
    for key in keys:
        if key not in headers:
            raise ProblemFormatError(f"missing header {key!r}")


def _build_series_matrix(blocks, name, p, rows, cols, N):
    mine = {d: vals for (nm, d), vals in blocks.items() if nm == name}
    # every count is checked before the array is allocated
    for d, vals in mine.items():
        if len(vals) != rows * cols:
            raise ProblemFormatError(
                f"block {name}[{d}] has {len(vals)} entries, expected {rows * cols}"
            )
    L = min(max(mine) + 1, N) if mine else 0
    data = np.zeros((rows, cols, L), dtype=_INT64)
    for d, vals in mine.items():
        if d < N:  # blocks beyond the working precision are ignored
            data[:, :, d] = np.array([v % p for v in vals], dtype=_INT64).reshape(rows, cols)
    return SeriesMatrix(p, data, N)


def parse_problem(text: str) -> ProblemInstance:
    headers, blocks = _parse_document(text, int_headers={"p", "q", "k", "n", "N"})
    _require(headers, ("p", "q", "k", "n", "N"))
    p, q, k, n, N = (headers[key] for key in ("p", "q", "k", "n", "N"))
    _check_indexable(k, n, N, ProblemFormatError)
    for nm, _d in blocks:
        if nm not in ("A", "C"):
            raise ProblemFormatError(f"unknown block name {nm!r}")
    PrimeField(p)  # the modulus is checked before any int64 array is built
    A = _build_series_matrix(blocks, "A", p, n, n, N)
    C = _build_series_matrix(blocks, "C", p, n, 1, N)
    return make_instance(p, q, k, n, N, A, C)


def _emit_blocks(out: list[str], name: str, m: SeriesMatrix):
    L = m.data.shape[2]
    for d in range(L):
        plane = m.data[:, :, d]
        if not np.any(plane):
            continue
        out.append(f"{name}[{d}]:")
        for row in plane:
            out.append(" ".join(str(int(v)) for v in row))


def serialize_problem(p: int, q: int, k: int, n: int, N: int, A: SeriesMatrix, C: SeriesMatrix) -> str:
    out = [f"p: {p}", f"q: {q}", f"k: {k}", f"n: {n}", f"N: {N}"]
    _emit_blocks(out, "A", A)
    _emit_blocks(out, "C", C)
    return "\n".join(out) + "\n"


def serialize_solution(space: SolutionSpace | None, p: int, n: int, N: int) -> str:
    if space is None:
        return "status: bot\n" + f"p: {p}\nn: {n}\nN: {N}\n"
    out = [
        "status: ok",
        f"p: {p}",
        f"n: {n}",
        f"N: {N}",
        f"t: {space.dim}",
    ]
    _emit_blocks(out, "particular", space.particular)
    _emit_blocks(out, "basis", space.basis)
    return "\n".join(out) + "\n"


def parse_solution(text: str, expect_p: int, expect_n: int, expect_N: int):
    headers, blocks = _parse_document(
        text, int_headers={"p", "n", "N", "t"}, str_headers={"status"}
    )
    _require(headers, ("status", "p", "n", "N"))
    status = headers["status"]
    p, n, N = headers["p"], headers["n"], headers["N"]
    if (p, n, N) != (expect_p, expect_n, expect_N):
        raise ProblemFormatError(
            f"solution header (p={p}, n={n}, N={N}) does not match the problem "
            f"(p={expect_p}, n={expect_n}, N={expect_N})"
        )
    if status == "bot":
        return None
    if status != "ok":
        raise ProblemFormatError(f"unknown status {status!r}")
    _require(headers, ("t",))
    t = headers["t"]
    if not 0 <= t <= n * N:
        raise ProblemFormatError(f"t = {t} outside [0, n N] = [0, {n * N}]")
    for nm, _d in blocks:
        if nm not in ("particular", "basis"):
            raise ProblemFormatError(f"unknown block name {nm!r}")
    for (nm, d) in blocks:
        if d >= N:
            raise ProblemFormatError(f"block {nm}[{d}] beyond the declared precision {N}")
    part = _build_series_matrix(blocks, "particular", p, n, 1, N)
    basis = _build_series_matrix(blocks, "basis", p, n, t, N)
    return SolutionSpace(part, basis)
