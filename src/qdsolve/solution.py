"""Solution spaces of the truncated functional equation.

A non-empty solution set is an affine space F + span(K) over K; it is
carried as a particular vector and a basis of series columns.  The
inconsistent case is represented by ``None`` at call sites, following
the convention that a routine receiving None propagates it.

``canonical_form`` reduces a space to (RREF of the flattened basis,
particular reduced modulo that row space), making equality of affine
sets a plain array comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _column_step, _rref, lin_solve
from .polymat import SeriesMatrix

_INT64 = np.int64


@dataclass
class SolutionSpace:
    particular: SeriesMatrix  # n x 1
    basis: SeriesMatrix  # n x t, columns linearly independent

    @property
    def dim(self) -> int:
        return self.basis.cols

    @property
    def n(self) -> int:
        return self.particular.rows

    @property
    def prec(self) -> int:
        return self.particular.prec


def _flatten_cols(m: SeriesMatrix) -> np.ndarray:
    """Columns of a series matrix as rows of an (cols, rows*prec) array."""
    n, t, L = m.rows, m.cols, m.data.shape[2]
    full = np.zeros((n, t, m.prec), dtype=_INT64)
    if L:
        full[:, :, :L] = m.data
    return np.swapaxes(full, 0, 1).reshape(t, n * m.prec)


def canonical_form(space: SolutionSpace) -> tuple[np.ndarray, np.ndarray]:
    """(canonical basis rows, canonical particular) for set comparison.

    The particular, stacked below the reduced basis rows, is reduced
    modulo their row space by one column step per pivot.
    """
    p = space.particular.p
    rows = _flatten_cols(space.basis) % p
    red, pivots = _rref(rows, p, rows.shape[1])
    W = np.vstack([red[: len(pivots)], _flatten_cols(space.particular) % p])[None]
    unit = np.ones(1, dtype=_INT64)
    for i, c in enumerate(pivots):
        _column_step(W, i, c, unit, p)
    return W[0, :-1], W[0, -1]


def spaces_equal(s1: SolutionSpace | None, s2: SolutionSpace | None) -> bool:
    """True when both are the inconsistent marker or the same affine set."""
    if s1 is None or s2 is None:
        return s1 is None and s2 is None
    if (s1.n, s1.prec, s1.particular.p) != (s2.n, s2.prec, s2.particular.p):
        return False
    b1, p1 = canonical_form(s1)
    b2, p2 = canonical_form(s2)
    return b1.shape == b2.shape and np.array_equal(b1, b2) and np.array_equal(p1, p2)


def resolve_affine_family(family: SeriesMatrix, cons: list[np.ndarray]) -> SolutionSpace | None:
    """Specialize a parameter-affine family subject to linear constraints.

    ``family`` is n x (1 + P): column 0 the constant part, column 1+t the
    coefficient of parameter t.  A constraint row reads row[0] +
    row[1:] . params = 0 and may be narrower than the family: the
    parameters it leaves out have coefficient 0.  Returns the solution
    space over the remaining freedom, or None when the constraints are
    inconsistent.
    """
    p = family.p
    nparams = family.cols - 1
    coeffs = np.zeros((len(cons), nparams), dtype=_INT64)
    const = np.zeros((len(cons), 1), dtype=_INT64)
    for idx, row in enumerate(cons):
        const[idx] = (-row[0]) % p
        coeffs[idx, : len(row) - 1] = row[1:]
    sol = lin_solve(coeffs, const, p)
    if sol is None:
        return None
    blocks, prec = family.col_slice(1, family.cols), family.prec
    # the constant matrices as one-plane series: each product is one _matmul_mod
    particular = family.col(0) + blocks.mul(SeriesMatrix(p, sol.particular[:, :, None], prec))
    basis = blocks.mul(SeriesMatrix(p, sol.nullspace[:, :, None], prec))
    return SolutionSpace(particular, basis)
