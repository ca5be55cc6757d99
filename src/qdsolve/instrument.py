"""Global field-multiplication counter and optional runtime self-checks.

The counter tracks the number of multiplications in K performed by the
algorithms.  Vectorized kernels add their totals in bulk; limb splitting
and other int64 overflow tricks are representation details and are not
double-counted.  Inversions count the square-and-multiply cost of
Fermat exponentiation; m inversions batched by ``field.inverses`` count
one such power and 3(m - 1) products.  Two things stay uncharged on
purpose: ``QContext``'s tables of q-powers and gamma_i, set-up shared by
every solve in a context, and the Python-int products of the ``check``
audit (``oracle._kronecker_product``), which must not reuse the kernels
it audits.
"""

import functools


class MulCounter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, n):
        self.value += n

    def reset(self):
        self.value = 0


mul_counter = MulCounter()


@functools.cache
def inv_cost(p):
    """Cost charged for one inversion a^(p-2) mod p by square-and-multiply."""
    e = p - 2
    return (e.bit_length() - 1) + bin(e).count("1") - 1


# When true, algorithms verify internal contracts by exact substitution
# (residuals, Sylvester solutions, divide-and-conquer coefficient
# vanishing).  Costs extra work; enabled by the test suite.
_runtime_checks = False


def set_runtime_checks(flag):
    global _runtime_checks
    _runtime_checks = bool(flag)


def checks_enabled():
    return _runtime_checks
