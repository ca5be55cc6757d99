"""Global field-multiplication counter and optional runtime self-checks.

The counter tracks the number of multiplications in K performed by the
algorithms, and only the kernels charge it: ``field.mulmod``, the one
elementwise product (one per entry of its result), and
``field.inverses``; ``convolution._matmul_mod`` and the two convolution
backends; ``linalg._column_step``, the one Gauss-Jordan column step, and
``linalg._rref``, for the inversion of each pivot other than 1; and
``convolution._step_mod``, one step of the step kernel, which charges
its window product, its gamma product and its product with the
step table's inverse, reduced together.  Limb splitting and other int64
overflow tricks are representation details and are not double-counted.
Inversions count the square-and-multiply cost of Fermat exponentiation;
m inversions batched by ``field.inverses`` count one such power and
3(m - 1) products.  Uncharged on purpose are ``field.powers`` and
``QContext``'s tables of q-powers, gamma_i and 1/gamma_i (the last from
``field._inverse_tree``, the uncharged core of ``inverses``), set-up
shared by every solve in a context, so that a solve's count does not
depend on which solve grew them first; the primality test
``field.is_prime``; and the Python-int products of the ``check`` audit
(``oracle._kronecker_product``), which must not reuse the kernels it
audits.  The counter is never
reset: a caller reads the value before and after a solve.
"""

import functools


class MulCounter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, n):
        self.value += n


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
