"""Checks of exact sums against their closed forms, and the convergence table.

sum_pi_p checks the summation identity the identity counter's s1 rests on,
on a prime table: a strictly increasing table meets it by construction, so
it catches only a repeated or out-of-order entry.  Its
IdentityViolationError is defined in exact, beside check_pi_sums_list, the
same check at every z up to a bound on a list of the primes, which verify
runs.  convergence_table pairs exact counts with the estimate along a grid
of x, from one table-free sweep.
"""

from __future__ import annotations

import time

from . import counting

# bench/tracing.py wraps convergence_table and this count_identity binding by name
from .counting import CountReport, count_identity
from .exact import IdentityViolationError


def sum_pi_p(table: counting.PrimeTable, z: int) -> int:
    """sum_{p<=z} pi(p), asserting the closed form pi(z)*(pi(z)+1)/2.

    As p walks the primes up to z, pi(p) walks 1..pi(z), so the sum is a
    triangular number.  A real pi query per entry makes the sum, but on a
    strictly increasing table the k-th entry's pi is k whatever the entries
    are: only a repeated or out-of-order entry raises IdentityViolationError.
    """
    k = table.prime_count(z)
    total = int(table.pi(table.primes[:k]).sum())
    expected = k * (k + 1) // 2
    if total != expected:
        raise IdentityViolationError(z, total, expected)
    return total


def convergence_table(x_values: list[int], r: counting.Ratio) -> list[CountReport]:
    """One identity report per x of an ascending grid: exact C_r(x) against the estimate.

    All counts come from one counting.count_sweep_grid, and every report
    carries that sweep's wall time as its seconds.  The ratio column
    approaching 1 along a growing grid is the convergence the estimate
    2*x*log(r)/log(x)^2 asserts.  Requires every x >= 2.
    """
    for x in x_values:
        if x < 2:
            raise ValueError(f"convergence_table requires x >= 2, got {x}")
    t0 = time.perf_counter()
    sums = counting.count_sweep_grid(x_values, r)
    seconds = time.perf_counter() - t0
    return [CountReport(x, r, d.total, "identity", seconds) for x, d in zip(x_values, sums)]
