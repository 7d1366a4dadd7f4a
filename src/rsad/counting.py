"""Exact counting of RSA integers, by enumeration and by identity.

An RSA integer for the bound r >= 1 is a semiprime n = p*q with
p < q <= r*p.  C_r(x) counts them up to x.  Three routes are implemented,
two of them independent:

  * count_brute: walk primes p <= sqrt(x) and count admissible cofactors
    q in (p, min(r*p, x/p)] directly on the prime table.
  * count_identity: the prime-counting decomposition

        C_r(x) = -sum_{p<=sqrt(x)} pi(p)
                 + sum_{p<=sqrt(x/r)} pi(r*p)
                 + sum_{sqrt(x/r) < p <= sqrt(x)} pi(x/p)

    whose three partial sums are reported as (s1, s2, s3), with every pi
    answered on the prime table.
  * count_sweep: the same decomposition with no table, its pi arguments
    answered in order by one segmented sieve over [0, sqrt(r*x)].

All boundary tests are integer-exact: r is an exact rational num/den, the
range split p <= sqrt(x/r) is decided as p^2*num <= x*den, and pi(r*p),
pi(x/p) mean pi at the floored argument.  Python integers make every
intermediate product exact regardless of width.  The cofactor bound is
inclusive (q <= r*p counts q = r*p when that value is a prime), which only
matters when r*p lands exactly on an integer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .primes import U64_MAX, PrimeTable, TableLimitError, _OddSieve

DEFAULT_BRUTE_BUDGET = 10**8

# count_sweep's segment, twice build_table's: the sweep holds no table, and
# at x = 2^64 - 1 the larger segment halves the passes over the ~7700 base
# primes (42 s against 51 s at 2^19 through the CLI, 2 cores)
SWEEP_SEGMENT_BYTES = 2**20

# floor_mul scales a prime array in uint64 only while num * p stays below this
_NP_SAFE = 2**62


class BruteBudgetError(Exception):
    """x exceeds the configured brute-force budget."""


@dataclass(frozen=True)
class Ratio:
    """The bound r as an exact rational num/den >= 1, in lowest terms.

    Keeps every comparison against primes integer-exact: q <= r*p is
    evaluated as q*den <= num*p, never in floating point.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise ValueError(f"ratio parts must be integers, got {self.num!r}/{self.den!r}")
        if self.den < 1:
            raise ValueError(f"ratio denominator must be >= 1, got {self.den}")
        if self.num < self.den:
            raise ValueError(f"ratio must be >= 1, got {self.num}/{self.den}")
        if self.num > U64_MAX or self.den > U64_MAX:
            raise ValueError("ratio parts must fit in 64 bits")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def parse(cls, text: str) -> "Ratio":
        """Parse "2", "1.5", or "3/2" into an exact ratio >= 1."""
        s = text.strip()
        try:
            if "/" in s:
                a, b = s.split("/")
                return cls(int(a), int(b))
            if "." in s:
                whole, frac = s.split(".")
                scale = 10 ** len(frac)
                return cls(int(whole or "0") * scale + int(frac or "0"), scale)
            return cls(int(s))
        except ValueError as exc:
            raise ValueError(f"cannot parse ratio {text!r}: {exc}") from exc

    def floor_mul(self, n):
        """floor(r * n), exact; elementwise when n is an ascending uint64 array.

        An array whose products num * n reach 2^62 is scaled in Python
        integers instead of uint64; each floor(r * n) must fit in uint64.
        """
        if not isinstance(n, np.ndarray):
            return self.num * n // self.den
        if n.size == 0:
            return n
        if self.num * int(n[-1]) < _NP_SAFE:
            return n * np.uint64(self.num) // np.uint64(self.den)
        return (n.astype(object) * self.num // self.den).astype(np.uint64)

    def log(self) -> float:
        """log(num/den), stable for full-width parts."""
        return math.log(self.num) - math.log(self.den)

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


@dataclass(frozen=True)
class Decomposition:
    """The three partial sums of the identity counter and their total."""

    s1: int  # sum of pi(p) over p <= sqrt(x)
    s2: int  # sum of pi(floor(r*p)) over p <= sqrt(x/r)
    s3: int  # sum of pi(floor(x/p)) over sqrt(x/r) < p <= sqrt(x)
    total: int

    def __post_init__(self):
        if self.total != self.s2 + self.s3 - self.s1:
            raise ValueError("decomposition total does not match s2 + s3 - s1")


@dataclass(frozen=True)
class CountReport:
    """One exact count (or probe sum) at x against its main term.

    err_scale is the expected size of the error term, so err_normalized
    is the deviation in those units; a bounded err_normalized across a
    grid is the empirical signature that the error term has that shape.
    """

    x: int  # the x, or the z of a probe, evaluated at
    r: Ratio
    exact: int
    estimate: float
    err_scale: float
    method: str  # "brute", "identity" or "probe"
    seconds: float  # wall time of the exact computation

    @property
    def abs_error(self) -> float:
        return abs(self.exact - self.estimate)

    @property
    def rel_error(self) -> float:
        return self.abs_error / max(self.exact, 1)

    @property
    def ratio(self) -> float:
        """exact / estimate; 1.0 when both are zero."""
        if self.estimate == 0.0:
            return 1.0 if self.exact == 0 else math.inf
        return self.exact / self.estimate

    @property
    def err_normalized(self) -> float:
        return self.abs_error / self.err_scale


def _validate_x(x: int) -> None:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"x must be an integer, got {x!r}")
    if x < 0 or x > U64_MAX:
        raise ValueError(f"x must be in [0, 2^64), got {x}")


def _required_limit(x: int, r: Ratio) -> int:
    """floor(sqrt(r*x)), the largest pi argument either counter can issue."""
    return math.isqrt(r.num * x // r.den)


def _check_brute_budget(x: int, budget: int) -> None:
    if x > budget:
        raise BruteBudgetError(f"x={x} exceeds brute-force budget {budget}")


def _cofactor_slices(table: PrimeTable, x: int, r: Ratio, budget: int):
    """Yield (p, qs) for each prime p <= sqrt(x), qs the primes in (p, min(r*p, x/p)].

    Both bounds are exact: q <= floor(r*p) iff q*den <= num*p, and
    q <= floor(x/p) iff p*q <= x.  qs is a view into the table.
    """
    _validate_x(x)
    _check_brute_budget(x, budget)
    need = _required_limit(x, r)
    if table.limit < need:
        raise TableLimitError(need, table.limit)
    primes = table.primes
    for i in range(table.prime_count(math.isqrt(x))):
        p = int(primes[i])
        yield p, primes[i + 1 : table.prime_count(min(r.floor_mul(p), x // p))]


def count_brute(
    x: int,
    r: Ratio,
    table: PrimeTable,
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> int:
    """C_r(x) by direct pair enumeration over the prime table.

    Counts the admissible cofactors of every prime p <= sqrt(x).  Never
    touches the identity's partial sums, so it serves as the independent
    oracle for count_identity.
    """
    return sum(qs.size for _, qs in _cofactor_slices(table, x, r, budget))


def brute_counts_upto(
    table: PrimeTable,
    max_x: int,
    r: Ratio,
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> np.ndarray:
    """Incremental-sweep form of the brute counter.

    Materializes every product p*q <= max_x with p < q <= r*p, tallies
    them, and returns counts[n] = C_r(n) for all 0 <= n <= max_x.  Same
    enumeration as count_brute, amortized over a whole sweep.
    """
    products = np.concatenate(
        [np.empty(0, dtype=np.uint64)]
        + [qs * np.uint64(p) for p, qs in _cofactor_slices(table, max_x, r, budget)]
    )
    return np.bincount(products.astype(np.int64), minlength=max_x + 1).cumsum()


def count_identity(table: PrimeTable, x: int, r: Ratio) -> Decomposition:
    """C_r(x) via the decomposition into three pi sums.

    s1 sums pi(p) over p <= sqrt(x); on the table's own primes pi runs
    over 1..k1, so s1 = k1*(k1+1)/2 (the summation identity checked
    independently by diagnostics.sum_pi_p).  s2 and s3 issue real pi
    queries at floor(r*p) and floor(x/p).  Requires
    table.limit >= floor(sqrt(r*x)).
    """
    _validate_x(x)
    need = _required_limit(x, r)
    if table.limit < need:
        raise TableLimitError(need, table.limit)
    # p <= sqrt(x) iff p <= isqrt(x); p <= sqrt(x/r) iff p^2*num <= x*den
    # iff p <= isqrt(x*den // num)
    k1 = table.prime_count(math.isqrt(x))
    k2 = table.prime_count(math.isqrt(x * r.den // r.num))
    s1 = k1 * (k1 + 1) // 2
    s2 = table.pi_sum(r.floor_mul(table.primes[:k2]))
    s3 = table.pi_sum(np.uint64(x) // table.primes[k2:k1])
    return Decomposition(s1=s1, s2=s2, s3=s3, total=s2 + s3 - s1)


# _POP[byte] counts the set bits of byte; _POP_ABOVE[8*byte + b] those above bit b
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POP = _BITS.sum(axis=1, dtype=np.uint8)
_POP_ABOVE = (_POP[:, None] - _BITS.cumsum(axis=1, dtype=np.uint8)).ravel()


def _segment_pi_sum(args: np.ndarray, i0: int, packed: np.ndarray, upto: np.ndarray) -> int:
    """Sum over args of the primes from index i0 to the index of each argument.

    packed holds the segment's flags, flag t as bit t % 8 of byte t // 8,
    and upto[j] counts the primes in bytes 0..j; the primes up to flag t
    are upto[t // 8] less the set bits of byte t // 8 above bit t % 8.
    """
    t = (args - np.uint64(2 * i0 + 1)).astype(np.intp)
    t >>= 1  # flag of the largest odd n <= v
    j = t >> 3
    t &= 7
    t |= packed[j].astype(np.intp) << 3
    return int(upto[j].sum()) - int(_POP_ABOVE[t].sum(dtype=np.int64))


class _Queries:
    """pi arguments in ascending order, computed segment by segment.

    chunks yields prime arrays in the order their arguments ascend; key maps
    one array to its arguments.
    """

    def __init__(self, chunks, key):
        self._chunks = chunks
        self._key = key
        self._pending = np.empty(0, dtype=np.uint64)

    def upto(self, last: int) -> np.ndarray:
        """Remove and return the arguments <= last, ascending."""
        parts = []
        while True:
            k = int(self._pending.searchsorted(np.uint64(last), side="right"))
            parts.append(self._pending[:k])
            self._pending = self._pending[k:]
            if self._pending.size:
                break
            chunk = next(self._chunks, None)
            if chunk is None:
                break
            self._pending = self._key(chunk)
        return np.concatenate(parts)


def count_sweep(
    x: int, r: Ratio, *, segment_bytes: int = SWEEP_SEGMENT_BYTES
) -> Decomposition:
    """count_identity's decomposition without a prime table.

    One ascending sweep over [0, min(sqrt(r*x), x)], which holds every pi
    argument, keeps a running pi and answers each segment's arguments from
    the segment's cumulative prime count: s2's floor(r*p) for ascending
    p <= sqrt(x/r) and s3's floor(x/p) for descending p in
    (sqrt(x/r), sqrt(x)].  Those p come from two more passes of the same
    sieve, and together they are the primes up to sqrt(x), so k1 is their
    number.  Only the base primes up to (r*x)^(1/4) and a few segments of
    segment_bytes are held at a time; the order of the answers, not a
    stored table, is what the sweep relies on (the P2 term of
    Deleglise-Rivat is computed this way).
    """
    _validate_x(x)
    if segment_bytes < 1:
        raise ValueError("segment_bytes must be positive")
    p1 = math.isqrt(x)
    p2 = math.isqrt(x * r.den // r.num)
    if p1 < 2:
        return Decomposition(s1=0, s2=0, s3=0, total=0)
    limit = min(_required_limit(x, r), x)
    sieve = _OddSieve(limit, segment_bytes)
    s2_args = _Queries(sieve.primes(2, p2), r.floor_mul)
    s3_args = _Queries(sieve.primes(p2 + 1, p1, descending=True), lambda p: np.uint64(x) // p)
    below = 1  # primes below the segment, counting 2: the sweep sieves odd n only
    k1 = s2 = s3 = 0
    for i0, flags in sieve.segments(0, (limit + 1) // 2):
        packed = np.packbits(flags, bitorder="little")
        upto = np.cumsum(_POP[packed], dtype=np.int64)
        # arguments up to 2*i1 fall on the indices below i1
        last = min(2 * (i0 + flags.size), U64_MAX)
        q2, q3 = s2_args.upto(last), s3_args.upto(last)
        s2 += q2.size * below + _segment_pi_sum(q2, i0, packed, upto)
        s3 += q3.size * below + _segment_pi_sum(q3, i0, packed, upto)
        k1 += q2.size + q3.size
        below += int(upto[-1])
    s1 = k1 * (k1 + 1) // 2
    return Decomposition(s1=s1, s2=s2, s3=s3, total=s2 + s3 - s1)


def count_pi2(table: PrimeTable, x: int) -> int:
    """pi_2(x): squarefree semiprimes p*q <= x with p < q.

    Evaluates sum_{p<=sqrt(x)} (pi(x/p) - pi(p)); the largest query is
    pi(x/2), so the table must reach floor(x/2) once x >= 4.
    """
    _validate_x(x)
    if x >= 4 and table.limit < x // 2:
        raise TableLimitError(x // 2, table.limit)
    k = table.prime_count(math.isqrt(x))
    return table.pi_sum(np.uint64(x) // table.primes[:k]) - k * (k + 1) // 2


def count_report(
    table: PrimeTable | None,
    x: int,
    r: Ratio,
    method: str = "identity",
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> CountReport:
    """Run one counter, time it, and attach the estimate and error scale.

    With method "identity", count_sweep runs when table is None (the
    CLI's count) and count_identity on the table otherwise (the CLI's
    table grid); "brute" runs count_brute and needs a table.  The
    estimate is 2*x*log(r)/log(x)^2 and the error scale
    r*log(e*r)*x/log(x)^3; below x = 2 they are 0 and inf.
    """
    from .analytic import rsa_count_estimate

    t0 = time.perf_counter()
    if method == "identity":
        exact = (count_sweep(x, r) if table is None else count_identity(table, x, r)).total
    elif method == "brute":
        exact = count_brute(x, r, table, budget=budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    seconds = time.perf_counter() - t0
    if x >= 2:
        xf = float(x)
        estimate = rsa_count_estimate(x, r)
        err_scale = float(r) * (1.0 + r.log()) * xf / math.log(xf) ** 3
    else:
        estimate, err_scale = 0.0, math.inf
    return CountReport(
        x=x,
        r=r,
        exact=exact,
        estimate=estimate,
        err_scale=err_scale,
        method=method,
        seconds=seconds,
    )
