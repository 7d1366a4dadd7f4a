"""Analytic companions to the exact counters.

Holds the logarithmic integral Li(x) = integral from 2 to x of dt/log t,
the prime reciprocal sum  sum_{p<=z} 1/p  with its log log z residual, and
the closed-form main terms that the probes in `diagnostics` compare exact
sums against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import Ratio
from .primes import PrimeTable


@dataclass(frozen=True)
class MertensResult:
    """One evaluation of sum_{p<=z} 1/p against log log z."""

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


def mertens_sum(table: PrimeTable, z: int) -> MertensResult:
    """sum_{p<=z} 1/p accumulated ascending with exact partial tracking.

    math.fsum keeps the running error at one rounding of the true sum, so
    the result is deterministic and accurate to ~1e-15 relative even at
    z = 1e8.  Requires 2 <= z <= table.limit.
    """
    if z < 2:
        raise ValueError(f"mertens_sum requires z >= 2, got {z}")
    k = table.prime_count(z)
    recip = 1.0 / table.primes[:k].astype(np.float64)
    total = math.fsum(recip)
    loglog = math.log(math.log(z))
    return MertensResult(z=z, sum=total, loglog_z=loglog, residual=total - loglog)


def rsa_count_estimate(x: int, r: Ratio) -> float:
    """Asymptotic main term 2*x*log(r)/log(x)^2 for the RSA-integer count.

    Zero when r = 1; strictly increasing in r for fixed x >= 2.
    """
    if x < 2:
        raise ValueError(f"estimate requires x >= 2, got {x}")
    if r.num == r.den:
        return 0.0
    return 2.0 * float(x) * r.log() / math.log(x) ** 2


def pi_rp_sum_main(z: int, r: Ratio) -> float:
    """Main term r*z^2/(2*log(z)^2) of the scaled sum  sum_{p<=z} pi(r*p)."""
    if z < 2:
        raise ValueError(f"pi_rp_sum_main requires z >= 2, got {z}")
    zf = float(z)
    return r.num / r.den * zf * zf / (2.0 * math.log(zf) ** 2)


def band_recip_estimate(x: int, r: Ratio) -> float:
    """Main term log(r)/log(x) of  sum 1/p  over sqrt(x/r) < p <= sqrt(x).

    Requires x >= 2 and 1 <= r <= sqrt(x) (checked exactly as
    num^2 <= x*den^2).
    """
    if x < 2:
        raise ValueError(f"band_recip_estimate requires x >= 2, got {x}")
    if r.num * r.num > x * r.den * r.den:
        raise ValueError(f"band_recip_estimate requires r <= sqrt(x), got r={r}, x={x}")
    return r.log() / math.log(x)
