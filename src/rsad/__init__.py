"""Exact counting of RSA integers and checks of their asymptotic density.

An RSA integer here is a product n = p*q of two primes with p < q <= r*p
for a fixed aspect ratio r >= 1.  The package computes the exact count
C_r(x) of such n <= x two independent ways (pair enumeration and a
prime-counting identity, whose partial sums s1, s2 and s3 it reports),
reports each count against the smooth estimate 2*x*log(r)/log(x)^2, and
checks the summation identity the prime-counting route rests on.
"""

from .analytic import (
    MertensResult,
    log_integral,
    mertens_sum,
    rsa_count_estimate,
)
from .counting import (
    CountReport,
    Decomposition,
    Ratio,
    brute_counts_upto,
    count_brute,
    count_identity,
    count_pi2,
    count_report,
    count_sweep,
    count_sweep_grid,
    identity_counts_upto,
)
from .diagnostics import (
    IdentityViolationError,
    check_pi_sums,
    convergence_table,
    sum_pi_p,
)
from .primes import (
    CacheFormatError,
    PrimeTable,
    SieveWorkError,
    TableLimitError,
    build_table,
    load_table,
    prime_chunks,
    prime_pi,
)

__version__ = "0.1.0"

__all__ = [
    "CacheFormatError",
    "CountReport",
    "Decomposition",
    "IdentityViolationError",
    "MertensResult",
    "PrimeTable",
    "Ratio",
    "SieveWorkError",
    "TableLimitError",
    "brute_counts_upto",
    "build_table",
    "check_pi_sums",
    "convergence_table",
    "count_brute",
    "count_identity",
    "count_pi2",
    "count_report",
    "count_sweep",
    "count_sweep_grid",
    "identity_counts_upto",
    "load_table",
    "log_integral",
    "mertens_sum",
    "prime_chunks",
    "prime_pi",
    "rsa_count_estimate",
    "sum_pi_p",
]
