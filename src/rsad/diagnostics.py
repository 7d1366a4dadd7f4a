"""Empirical probes: exact sums against their asymptotic main terms.

Each probe returns a CountReport pairing an exactly computed quantity with
its closed-form main term, the ratio of the two, and the deviation scaled
by the expected size of the error term.  A bounded err_normalized across a
grid is the empirical signature that the error term has the right shape.
"""

from __future__ import annotations

import math

from . import analytic
from .counting import (
    CountReport,
    Ratio,
    count_identity,
    count_report,
)
from .primes import PrimeTable, TableLimitError


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


def probe_pi_rp(table: PrimeTable, z: int, r: Ratio) -> CountReport:
    """Exact sum_{p<=z} pi(floor(r*p)) against r*z^2/(2*log(z)^2).

    err_normalized scales the deviation by r*log(e*r)*z^2/log(z)^3.
    Requires floor(r*z) <= table.limit.
    """
    if z < 2:
        raise ValueError(f"probe requires z >= 2, got {z}")
    need = r.floor_mul(z)
    if table.limit < need:
        raise TableLimitError(need, table.limit)
    k = table.prime_count(z)
    exact = table.pi_sum(r.floor_mul(table.primes[:k]))
    zf = float(z)
    return CountReport(
        x=z,
        r=r,
        exact=exact,
        estimate=analytic.pi_rp_sum_main(z, r),
        err_scale=float(r) * (1.0 + r.log()) * zf * zf / math.log(zf) ** 3,
        method="probe",
        seconds=0.0,
    )


def probe_band_pi(table: PrimeTable, x: int, r: Ratio) -> CountReport:
    """Exact sum of pi(floor(x/p)) over sqrt(x/r) < p <= sqrt(x).

    This is the s3 sum of the identity counter.  Its main term is the
    full count's main term 2*x*log(r)/log(x)^2; err_normalized scales by
    x*log(e*r)^2/log(x)^3.  Requires r <= sqrt(x) (exactly:
    num^2 <= x*den^2) and table.limit >= floor(sqrt(r*x)).
    """
    if x < 2:
        raise ValueError(f"probe requires x >= 2, got {x}")
    if r.num * r.num > x * r.den * r.den:
        raise ValueError(f"probe requires r <= sqrt(x), got r={r}, x={x}")
    xf = float(x)
    return CountReport(
        x=x,
        r=r,
        exact=count_identity(table, x, r).s3,
        estimate=analytic.rsa_count_estimate(x, r),
        err_scale=xf * (1.0 + r.log()) ** 2 / math.log(xf) ** 3,
        method="probe",
        seconds=0.0,
    )


def band_recip_sum(table: PrimeTable, x: int, r: Ratio) -> float:
    """sum of 1/p over sqrt(x/r) < p <= sqrt(x), the float nearest the exact sum.

    Comparable against analytic.band_recip_estimate(x, r); same domain
    checks as probe_band_pi.
    """
    if x < 2:
        raise ValueError(f"band_recip_sum requires x >= 2, got {x}")
    if r.num * r.num > x * r.den * r.den:
        raise ValueError(f"band_recip_sum requires r <= sqrt(x), got r={r}, x={x}")
    if table.limit < math.isqrt(x):
        raise TableLimitError(math.isqrt(x), table.limit)
    band = table.primes_between(math.isqrt(x * r.den // r.num), math.isqrt(x))
    return analytic._recip_sum([band])


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
