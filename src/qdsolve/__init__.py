"""Exact truncated power-series solutions of singular linear
differential and q-difference systems x^k delta(F) = A sigma(F) + C
over prime fields, with a quadratic baseline, a divide-and-conquer
solver and a Newton-iteration solver that provably agree."""

from .dac import dac_solve
from .errors import (
    InternalInvariantError,
    PreconditionError,
    ProblemFormatError,
    QdsolveError,
    SpectrumError,
    UsageError,
)
from .field import PrimeField
from .newton import newton_solve
from .oracle import ProblemInstance, dense_solve, make_instance, random_instance, residual
from .polymat import SeriesMatrix
from .series import QContext
from .solution import SolutionSpace, spaces_equal

__version__ = "0.1.0"

__all__ = [
    "InternalInvariantError",
    "PreconditionError",
    "PrimeField",
    "ProblemFormatError",
    "ProblemInstance",
    "QContext",
    "QdsolveError",
    "SeriesMatrix",
    "SolutionSpace",
    "SpectrumError",
    "UsageError",
    "dac_solve",
    "dense_solve",
    "make_instance",
    "newton_solve",
    "random_instance",
    "residual",
    "spaces_equal",
]
