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


class QuadratureError(Exception):
    """Adaptive quadrature failed to meet tolerance before max depth."""


@dataclass(frozen=True)
class QuadratureConfig:
    relative_tolerance: float = 1e-12
    max_depth: int = 60

    def __post_init__(self):
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class MertensResult:
    """One evaluation of sum_{p<=z} 1/p against log log z."""

    z: int
    sum: float
    loglog_z: float
    residual: float  # sum - log log z; tends to the Meissel-Mertens constant


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= max_depth:
        raise QuadratureError(
            f"tolerance not reached at depth {max_depth} on [{a}, {b}]"
        )
    half = 0.5 * tol
    return _adaptive(f, a, m, fa, flm, fm, left, half, depth + 1, max_depth) + _adaptive(
        f, m, b, fm, frm, fb, right, half, depth + 1, max_depth
    )


def log_integral(x: float, cfg: QuadratureConfig | None = None) -> float:
    """Li(x), the integral of 1/log t from 2 to x, by adaptive Simpson.

    The integrand is smooth on [2, x], so plain recursive bisection with
    Richardson correction reaches the configured relative tolerance.
    Raises ValueError for x < 2 or non-finite x and QuadratureError if
    max_depth is hit.
    """
    cfg = cfg or QuadratureConfig()
    xf = float(x)
    if not 2.0 <= xf < math.inf:
        raise ValueError(f"log_integral requires finite x >= 2, got {x}")
    if xf == 2.0:
        return 0.0

    def f(t: float) -> float:
        return 1.0 / math.log(t)

    a, b = 2.0, xf
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    tol = cfg.relative_tolerance * abs(whole)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, 0, cfg.max_depth)


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
    total = math.fsum(recip.tolist())
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
