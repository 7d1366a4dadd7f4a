"""Checks of exact sums against their closed forms, and the convergence table.

sum_pi_p checks the summation identity the identity counter's s1 rests on,
and check_pi_sums checks it at every z up to a bound at once, both on a
prime table: a strictly increasing table meets it by construction, so they
catch only a repeated or out-of-order entry.  convergence_table pairs exact
counts with the estimate along a grid of x, from one table-free sweep.
"""

from __future__ import annotations

import time

import numpy as np

from . import counting

# bench/tracing.py wraps convergence_table and this count_identity binding by name
from .counting import CountReport, count_identity


class IdentityViolationError(Exception):
    """An exact summation identity failed at z; the prime table is corrupt."""

    def __init__(self, z: int, total: int, expected: int):
        super().__init__(f"sum of pi(p) for p <= {z} gave {total}, closed form {expected}")
        self.z = z


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


def check_pi_sums(table: counting.PrimeTable, z_max: int) -> int:
    """sum_pi_p's check at every z in 2..z_max; returns the number of z checked.

    k(z) = pi(z) for every z is one array of pi queries, and the sum of
    pi(p) over the primes up to z is the prefix sum of another at k(z).
    The least z whose sum misses k(z)*(k(z)+1)/2 raises
    IdentityViolationError with sum_pi_p's message, and as there only a
    repeated or out-of-order entry can.
    """
    if z_max < 2:
        return 0
    prefix = np.zeros(table.prime_count(z_max) + 1, dtype=np.int64)
    prefix[1:] = table.pi(table.primes[: prefix.size - 1]).cumsum()
    ks = table.pi(np.arange(2, z_max + 1, dtype=np.uint64))
    totals, expected = prefix[ks], ks * (ks + 1) // 2
    bad = totals != expected
    if bad.any():
        i = int(bad.argmax())
        raise IdentityViolationError(i + 2, int(totals[i]), int(expected[i]))
    return z_max - 1


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
