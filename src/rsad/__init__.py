"""Exact counting of RSA integers and checks of their asymptotic density.

An RSA integer here is a product n = p*q of two primes with p < q <= r*p
for a fixed aspect ratio r >= 1.  The package computes the exact count
C_r(x) of such n <= x two independent ways (pair enumeration and a
prime-counting identity), evaluates the smooth estimate
2*x*log(r)/log(x)^2, and ships diagnostics that measure how fast the
exact counts approach the estimate.
"""

from .analytic import (
    MertensResult,
    band_recip_estimate,
    log_integral,
    mertens_sum,
    pi_rp_sum_main,
    rsa_count_estimate,
)
from .counting import (
    BruteBudgetError,
    CountReport,
    Decomposition,
    Ratio,
    brute_counts_upto,
    count_brute,
    count_identity,
    count_pi2,
    count_report,
    count_sweep,
)
from .diagnostics import (
    IdentityViolationError,
    band_recip_sum,
    convergence_table,
    probe_band_pi,
    probe_pi_rp,
    sum_pi_p,
)
from .primes import (
    CacheFormatError,
    MemoryBudgetError,
    PrimeTable,
    TableLimitError,
    build_table,
    load_table,
)

__version__ = "0.1.0"

__all__ = [
    "BruteBudgetError",
    "CacheFormatError",
    "CountReport",
    "Decomposition",
    "IdentityViolationError",
    "MemoryBudgetError",
    "MertensResult",
    "PrimeTable",
    "Ratio",
    "TableLimitError",
    "band_recip_estimate",
    "band_recip_sum",
    "brute_counts_upto",
    "build_table",
    "convergence_table",
    "count_brute",
    "count_identity",
    "count_pi2",
    "count_report",
    "count_sweep",
    "load_table",
    "log_integral",
    "mertens_sum",
    "pi_rp_sum_main",
    "probe_band_pi",
    "probe_pi_rp",
    "rsa_count_estimate",
    "sum_pi_p",
]
