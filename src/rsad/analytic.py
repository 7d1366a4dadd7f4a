"""Analytic companions to the exact counters.

Holds the logarithmic integral Li(x) = integral from 2 to x of dt/log t,
the prime reciprocal sum  sum_{p<=z} 1/p  with its log log z residual,
streamed from one sieve to z with no prime table, and the estimate
2*x*log(r)/log(x)^2 that exact counts are compared against, and prime_pi,
which counts primes by Lucy_Hedgehog's recursion with no sieve.  Li, the
estimate and prime_pi below 2^27 need no numpy: numpy and the sieve are
imported by the Mertens sum and by prime_pi's numpy recursion, so `rsad li`
and `rsad pi` below 2^27 start without them.  The recursion on Python
integers, _int_lucy, also sums the primes, which checks the lists of
primes that count and verify sieve without numpy.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .exact import Ratio


class MertensResult(NamedTuple):
    """One evaluation of sum_{p<=z} 1/p against log log z.

    A NamedTuple, not a dataclass: importing dataclasses would add about
    7 ms to every `rsad li` process.
    """

    z: int
    sum: float
    loglog_z: float
    residual: float  # sum - log log z; tends to the Meissel-Mertens constant


def log_integral(x: float) -> float:
    """Li(x), the integral of 1/log t from 2 to x, as Ei(log x) - Ei(log 2).

    With L = log x, l = log 2 and d = log(x/2), the difference of the two
    Ei series is  log1p(d/l) + sum_{n>=1} (L^n - l^n)/(n*n!).  Every term
    is positive, so neither Euler's constant nor Li(2) is subtracted and
    x just above 2 keeps full relative accuracy.  a = (L^n - l^n)/n! and
    b = l^n/n! follow  a <- a/n*L + b/n*d,  b <- b/n*l;  the terms fall
    once n > L, and the sum stops when one no longer moves the total.
    Finite for every finite x >= 2; raises ValueError otherwise.
    """
    xf = float(x)
    if not 2.0 <= xf < math.inf:
        raise ValueError(f"log_integral requires finite x >= 2, got {x}")
    log_x, log_2, d = math.log(xf), math.log(2.0), math.log(xf / 2.0)
    total = math.log1p(d / log_2)
    a, b, n = 0.0, 1.0, 0
    while True:
        n += 1
        a, b = a / n * log_x + b / n * d, b / n * log_2
        term = a / n
        total += term
        if n > log_x and term <= 1e-17 * total:
            return total


# Every 1/p with p < 2^38 is a whole multiple of 2^-90: its exponent is at
# least -38, so its last bit is worth at least 2^-90.  Two 45-bit limbs
# then hold it exactly.
_RECIP_P_BOUND = 2**38
_LIMB_SCALE = 2.0**45
# Limbs are below 2^45, so an int64 limb sum is exact for fewer entries
_CHUNK_BOUND = 2**18


def _recip_units(chunks) -> int:
    """The exact sum of the float reciprocals 1.0/p, in units of 2^-90.

    Each 1/p is split exactly into two 45-bit integer limbs (scale by 2^45,
    floor, keep the remainder and scale it by 2^45), and each limb is
    summed in int64.  chunks is an iterable of arrays of positive
    integers; a p >= 2^38 lies outside the argument and raises ValueError,
    and so does a chunk of 2^18 entries or more, whose limb sum could
    overflow int64.  A chunk of _OddSieve.primes, the primes of one slice
    of a sieve segment, holds at most one per flag, 2^16 entries.
    """
    import numpy as np

    high = low = 0
    for chunk in chunks:
        if chunk.size >= _CHUNK_BOUND:
            raise ValueError(f"a chunk holds {chunk.size} entries; at most 2^18 - 1 sum exactly")
        if chunk.size and int(chunk.max()) >= _RECIP_P_BOUND:
            raise ValueError(f"1/p is exact in 90 bits only for p < 2^38, got {int(chunk.max())}")
        frac = np.divide(1.0, chunk, dtype=np.float64)
        frac *= _LIMB_SCALE
        whole = np.floor(frac)
        frac -= whole
        frac *= _LIMB_SCALE  # a whole number now
        high += int(whole.astype(np.int64).sum())
        low += int(frac.astype(np.int64).sum())
    return (high << 45) + low


def _recip_sum(chunks) -> float:
    """The float nearest the exact sum of the float reciprocals 1.0/p: the
    one correctly rounded int division, the single rounding math.fsum makes."""
    return _recip_units(chunks) / 2**90


def _range_units(sieve, lo: int, hi: int) -> int:
    """_recip_units over the sieve's primes in [lo, hi]."""
    return _recip_units(sieve.primes(lo, hi))


def mertens_sum(z: int) -> MertensResult:
    """sum_{p<=z} 1/p, the float nearest the exact sum of the reciprocals.

    The reciprocals come from one sieve to z, cut into ranges
    (c_i, c_{i+1}] of whole segments (counting._range_cuts), forked on
    every usable CPU once z reaches counting._FORK_MIN_NUMBERS.  A range
    takes its primes one slice of a segment at a time: it holds the
    sieve's buffers and base primes up to sqrt(z), never the primes up to
    z.  Each 1/p is a whole multiple of 2^-90, so each range returns its
    exact sum as an integer (_recip_units), and the integers add up here
    and round once: the sum is the float math.fsum gives, bit for bit,
    however z is cut.  Requires z >= 2.
    """
    from . import counting
    from .primes import _OddSieve

    if z < 2:
        raise ValueError(f"mertens_sum requires z >= 2, got {z}")
    sieve = _OddSieve(z)
    units = sum(counting._in_ranges(
        lambda lo, hi: _range_units(sieve, lo + 1, hi), counting._range_cuts(z)))
    total = units / 2**90
    loglog = math.log(math.log(z))
    return MertensResult(z=z, sum=total, loglog_z=loglog, residual=total - loglog)


# prime_pi runs Lucy's recursion on Python integers below this n in a process
# that has not imported numpy: there it beats numpy's import plus numpy's
# recursion.  Medians of 11 fresh processes (2 vCPUs, Python 3.11.7, numpy
# 2.4.6): the integer recursion took 14.5 ms at 2^24, 65 ms at 2^27 and
# 106 ms at 2^28; numpy's import took 64.5 ms, and its recursion 11.6 ms at
# 2^27 and 16.0 ms at 2^28.
_INT_PI_BELOW = 2**27


def prime_pi(n: int) -> int:
    """pi(n), the number of primes <= n, by Lucy_Hedgehog's recursion, with
    no table and no sieve.

    Below _INT_PI_BELOW, while numpy is not imported, it runs on Python
    integers (_int_lucy); otherwise numpy runs it (primes.lucy), which
    raises SieveWorkError when n exceeds primes.SIEVE_WORK_LIMIT.  Once
    numpy is loaded its recursion is the faster one at every n.
    """
    if n < _INT_PI_BELOW and "numpy" not in sys.modules:
        return _int_lucy(n)
    from .primes import lucy

    return lucy(n)


def _int_lucy(n: int, with_sum: bool = False):
    """pi(n), or with with_sum the pair (pi(n), the sum of the primes <= n
    mod 2^64): primes.lucy's recursion, one Python integer at a time, which
    shares no code with either sieve.

    small[v] = S(v) for v <= r = isqrt(n) and large[i] = S(n // i) for
    1 <= i <= r.  For each prime p, large is updated in ascending i, which
    reads each large[i*p] before its own update, and small in descending v,
    which reads each small[v // p] before its own.  with_sum repeats those
    steps on the sum's wsmall and wlarge with weight p, after the count's,
    so the count alone runs only its own; the sums stay exact and are
    reduced at the end.
    """
    if n < 2:
        return (0, 0) if with_sum else 0
    r = math.isqrt(n)
    small = list(range(-1, r))
    small[0] = 0
    large = [0] + [n // i - 1 for i in range(1, r + 1)]
    if with_sum:
        wsmall = [v * (v + 1) // 2 - 1 for v in range(r + 1)]
        wsmall[0] = 0
        wlarge = [0] + [(n // i) * (n // i + 1) // 2 - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        sp = small[p - 1]
        if small[p] == sp:
            continue  # p is composite
        k = min(r, n // (p * p))
        j = min(k, r // p)
        for i in range(1, j + 1):
            large[i] -= large[i * p] - sp
        q = n // p
        for i in range(j + 1, k + 1):
            large[i] -= small[q // i] - sp
        for v in range(r, p * p - 1, -1):
            small[v] -= small[v // p] - sp
        if with_sum:
            wp = wsmall[p - 1]
            for i in range(1, j + 1):
                wlarge[i] -= p * (wlarge[i * p] - wp)
            for i in range(j + 1, k + 1):
                wlarge[i] -= p * (wsmall[q // i] - wp)
            for v in range(r, p * p - 1, -1):
                wsmall[v] -= p * (wsmall[v // p] - wp)
    return (large[1], wlarge[1] % 2**64) if with_sum else large[1]


def rsa_count_estimate(x: int, r: Ratio) -> float:
    """Asymptotic main term 2*x*log(r)/log(x)^2 for the RSA-integer count.

    Zero when r = 1; strictly increasing in r for fixed x >= 2.
    """
    if x < 2:
        raise ValueError(f"estimate requires x >= 2, got {x}")
    return 2.0 * float(x) * r.log() / math.log(x) ** 2

