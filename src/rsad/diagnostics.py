"""Checks of exact sums against their closed forms, and the convergence table.

sum_pi_p checks the summation identity the identity counter's s1 rests on;
convergence_table pairs exact counts with the estimate along a grid of x.
"""

from __future__ import annotations

# bench/tracing.py wraps convergence_table and this count_identity binding by name
from .counting import CountReport, Ratio, count_identity, count_report
from .primes import PrimeTable


class IdentityViolationError(Exception):
    """An exact summation identity failed; the prime table is corrupt."""


def sum_pi_p(table: PrimeTable, z: int) -> int:
    """sum_{p<=z} pi(p), asserting the closed form pi(z)*(pi(z)+1)/2.

    As p walks the primes up to z, pi(p) walks 1..pi(z), so the sum is a
    triangular number.  The summation here issues a real pi query per
    prime; disagreement with the closed form means the table is corrupt
    and raises IdentityViolationError.
    """
    k = table.prime_count(z)
    total = table.pi_sum(table.primes[:k])
    expected = k * (k + 1) // 2
    if total != expected:
        raise IdentityViolationError(
            f"sum of pi(p) for p <= {z} gave {total}, closed form {expected}"
        )
    return total


def convergence_table(
    table: PrimeTable, x_values: list[int], r: Ratio
) -> list[CountReport]:
    """One identity count_report per x: exact C_r(x) against the estimate.

    The ratio column approaching 1 along a growing grid is the convergence
    the estimate 2*x*log(r)/log(x)^2 asserts.
    """
    for x in x_values:
        if x < 2:
            raise ValueError(f"convergence_table requires x >= 2, got {x}")
    return [count_report(table, x, r) for x in x_values]
