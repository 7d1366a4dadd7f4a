"""Exact counting of RSA integers and checks of their asymptotic density.

An RSA integer here is a product n = p*q of two primes with p < q <= r*p
for a fixed aspect ratio r >= 1.  The package computes the exact count
C_r(x) of such n <= x two independent ways (pair enumeration and a
prime-counting identity, whose partial sums s1, s2 and s3 it reports),
reports each count against the smooth estimate 2*x*log(r)/log(x)^2, and
checks the summation identity the prime-counting route rests on.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.  A name is imported on
# first use (PEP 562), so `import rsad` loads no submodule and no numpy.
_NAMES = {
    "analytic": ("MertensResult", "log_integral", "mertens_sum", "prime_pi", "rsa_count_estimate"),
    "counting": (
        "brute_counts_upto",
        "count_brute",
        "count_identity",
        "count_pi2",
        "count_report",
        "count_sweep",
        "count_sweep_grid",
    ),
    "exact": ("CountReport", "Decomposition", "IdentityViolationError", "Ratio"),
    "diagnostics": ("convergence_table", "sum_pi_p"),
    "primes": (
        "CacheFormatError",
        "PrimeTable",
        "SieveWorkError",
        "TableLimitError",
        "build_table",
        "load_table",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # bound now, so later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
