"""The exact ratio r, the records of a count, and C_r(x) on a list of primes.

Ratio, Decomposition and CountReport are what every counter takes and
returns, and _required_limit is the largest pi argument a count issues;
counting re-exports all four.  None of them is a dataclass: importing
dataclasses and building the three classes with it took about 12 ms
(medians of 7 processes, 2 vCPUs), a fifth of a small `rsad count`.
primes_upto, count_brute_list and count_identity_list count C_r(x) the way
counting's table counters do, with the same exact integer tests, on a
Python list of the primes up to _required_limit(x, r) and with bisect for
pi; analytic._int_lucy, Lucy_Hedgehog's count and prime sum on Python
integers, checks that list, and _list_peak_bytes is what a run on it
holds.  brute_counts_list, identity_counts_list and check_pi_sums_list are
verify's checks: the counts at every x by enumeration and by the identity,
each in an array('q'), and the pi-sum closed form.  Nothing here imports
numpy: every `rsad verify`, and every `rsad count` whose limit is below
2^20 and whose list fits its budget (cli._integer_path), runs on these.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from bisect import bisect_right
from itertools import accumulate, compress, islice, repeat
from operator import floordiv
from typing import NamedTuple

from .analytic import rsa_count_estimate

# floor_mul scales a prime array in uint64 only while num * p stays below this
_NP_SAFE = 2**62


class Ratio:
    """The bound r as an exact rational num/den >= 1, in lowest terms.

    Keeps every comparison against primes integer-exact: q <= r*p is
    evaluated as q*den <= num*p, never in floating point.  Immutable, and
    equal to and hashed like another Ratio of the same value.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if not isinstance(num, int) or not isinstance(den, int):
            raise ValueError(f"ratio parts must be integers, got {num!r}/{den!r}")
        if den < 1:
            raise ValueError(f"ratio denominator must be >= 1, got {den}")
        if num < den:
            raise ValueError(f"ratio must be >= 1, got {num}/{den}")
        g = math.gcd(num, den)
        if num // g >= 2**64:  # and so is den, which is at most num
            raise ValueError("ratio parts must fit in 64 bits")
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return Ratio, (self.num, self.den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Ratio(num={self.num!r}, den={self.den!r})"

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
                # int() would take a sign or an underscore here and shift the value
                if frac.strip("0123456789"):
                    raise ValueError("only the digits 0-9 may follow the point")
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
        np = sys.modules.get("numpy")  # n is no array while numpy is not loaded
        if np is None or not isinstance(n, np.ndarray):
            return self.num * n // self.den
        if n.size == 0:
            return n
        if self.num * int(n[-1]) < _NP_SAFE:
            return n * np.uint64(self.num) // np.uint64(self.den)
        return (n.astype(object) * self.num // self.den).astype(np.uint64)

    def log(self) -> float:
        """log(num/den), accurate for full-width parts and for r near 1.

        (num - den) / den is one correctly rounded int division, so log1p
        keeps the digits that log(num) - log(den) cancels when num ~ den.
        An integer r takes math.log(num), which is never less accurate
        than log1p(num - 1) and is 1 ulp closer for about 1% of them.
        """
        if self.den == 1:
            return math.log(self.num)
        return math.log1p((self.num - self.den) / self.den)

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


class Decomposition(NamedTuple):
    """The three partial sums of the identity counter; their total s2 + s3 - s1 is C_r(x)."""

    s1: int  # sum of pi(p) over p <= sqrt(x)
    s2: int  # sum of pi(floor(r*p)) over p <= sqrt(x/r)
    s3: int  # sum of pi(floor(x/p)) over sqrt(x/r) < p <= sqrt(x)

    @property
    def total(self) -> int:
        return self.s2 + self.s3 - self.s1


class CountReport(NamedTuple):
    """One exact count at x against its main term.

    Stores what was counted; the properties, named after the CLI columns,
    derive the rest.  err_scale, r*log(e*r)*x/log(x)^3, is the expected size
    of the error term, so err_normalized is the deviation in those units; a
    bounded err_normalized across a grid is the empirical signature that the
    error term has that shape.  Below x = 2, estimate and err_scale are 0 and inf.
    """

    x: int
    r: Ratio
    exact: int
    method: str  # "brute" or "identity"
    seconds: float  # wall time of the exact computation

    @property
    def estimate(self) -> float:
        return rsa_count_estimate(self.x, self.r) if self.x >= 2 else 0.0

    @property
    def err_scale(self) -> float:
        if self.x < 2:
            return math.inf
        xf = float(self.x)
        return float(self.r) * (1.0 + self.r.log()) * xf / math.log(xf) ** 3

    @property
    def abs_err(self) -> float:
        return abs(self.exact - self.estimate)

    @property
    def rel_err(self) -> float:
        return self.abs_err / max(self.exact, 1)

    @property
    def ratio(self) -> float:
        """exact / estimate; 1.0 when both are zero."""
        if self.estimate == 0.0:
            return 1.0 if self.exact == 0 else math.inf
        return self.exact / self.estimate

    @property
    def err_normalized(self) -> float:
        return self.abs_err / self.err_scale


class IdentityViolationError(Exception):
    """An exact summation identity failed at z; the prime table is corrupt."""

    def __init__(self, z: int, total: int, expected: int):
        super().__init__(f"sum of pi(p) for p <= {z} gave {total}, closed form {expected}")
        self.z = z


def _required_limit(x: int, r: Ratio) -> int:
    """min(floor(sqrt(r*x)), x), the largest pi argument either counter can issue.

    s2's floor(r*p) is at most sqrt(r*x), and s2 is empty once r > x;
    s3's floor(x/p) and brute's cofactors q <= x/p stay below x.
    """
    return min(math.isqrt(r.num * x // r.den), x)


def _prime_count_bound(limit: int) -> int:
    """An upper bound on pi(limit): L/ln L * (1 + 1.2762/ln L) (Dusart), for L > 1."""
    log = math.log(limit)
    return int(limit / log * (1 + 1.2762 / log)) + 1


def _list_peak_bytes(limit: int) -> int:
    """Bytes a run on primes_upto(limit) holds at its peak beside any counts:
    40 a prime at Dusart's bound (an int's 28 to 32 and its list slot's 8),
    primes_upto's flags, one per odd number, and 2^16 for Lucy's lists and
    the counters' temporaries.  Under tracemalloc, count and verify stayed
    below it at every size tried up to a --max-x of 10^6 (tests/test_exact.py)."""
    return 40 * _prime_count_bound(max(limit, 2)) + (limit + 1) // 2 + 2**16


def primes_upto(limit: int) -> list[int]:
    """The primes <= limit, ascending, by a bytearray sieve of the odd numbers.

    flags[i] stands for 2i + 1; each odd prime p <= sqrt(limit) clears its
    odd multiples from p^2 on.  About 15 ms at 2^20 (2 vCPUs, Python 3.11).
    """
    if limit < 2:
        return []
    n = (limit + 1) // 2
    flags = bytearray(b"\x01") * n
    flags[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes((n - 1 - start) // p + 1)
    return [2, *compress(range(1, 2 * n, 2), flags)]


def count_brute_list(primes: list[int], x: int, r: Ratio) -> int:
    """C_r(x) by counting.count_brute's enumeration on a list of the primes.

    The prime p = primes[i] <= sqrt(x) has pi(min(floor(r*p), x // p)) - i - 1
    admissible cofactors q in (p, min(r*p, x/p)].  primes must hold every
    prime up to _required_limit(x, r), which bounds every pi argument here.
    """
    k1 = bisect_right(primes, math.isqrt(x))
    # bisect reads the bounds as they are made: no list of them is held
    bounds = map(min, (r.num * p // r.den for p in islice(primes, k1)),
                 map(floordiv, repeat(x), islice(primes, k1)))
    # the sum of i + 1 over i < k1 is k1*(k1 + 1)/2
    return sum(map(bisect_right, repeat(primes), bounds)) - k1 * (k1 + 1) // 2


def count_identity_list(primes: list[int], x: int, r: Ratio) -> Decomposition:
    """counting.count_identity's decomposition on a list of the primes.

    s1 = k1*(k1 + 1)/2 for the k1 primes p <= sqrt(x); s2 and s3 take pi at
    floor(r*p) for p <= sqrt(x/r) (p^2*num <= x*den) and at x // p above it.
    Same requirement on primes as count_brute_list.
    """
    k1 = bisect_right(primes, math.isqrt(x))
    k2 = bisect_right(primes, math.isqrt(x * r.den // r.num))
    s2 = sum(map(bisect_right, repeat(primes), (r.num * p // r.den for p in islice(primes, k2))))
    s3 = sum(map(bisect_right, repeat(primes), map(floordiv, repeat(x), islice(primes, k2, k1))))
    return Decomposition(s1=k1 * (k1 + 1) // 2, s2=s2, s3=s3)


def list_report(primes: list[int], x: int, r: Ratio, method: str) -> CountReport:
    """counting.count_report on a list of the primes: one counter, timed."""
    t0 = time.perf_counter()
    if method == "identity":
        exact = count_identity_list(primes, x, r).total
    elif method == "brute":
        exact = count_brute_list(primes, x, r)
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountReport(x, r, exact, method, time.perf_counter() - t0)


# entries per step of _prefix_sum: its temporaries stay near 52 bytes * this
_PREFIX_STEP = 2**10


def _prefix_sum(counts: array) -> array:
    """counts, each entry replaced in place by its sum with every entry before it.

    accumulate runs over _PREFIX_STEP entries at a time, each step's first
    entry carrying the sum so far, so no second array as long as counts is
    ever held.
    """
    carry = 0
    for i in range(0, len(counts), _PREFIX_STEP):
        part = counts[i : i + _PREFIX_STEP]
        part[0] += carry
        part = array("q", list(accumulate(part)))  # from a list: 25% faster than the iterator
        counts[i : i + len(part)] = part
        carry = part[-1]
    return counts


def brute_counts_list(primes: list[int], max_x: int, r: Ratio) -> array:
    """count_brute_list at every n at once: counts[n] = C_r(n) for every
    0 <= n <= max_x, as an array('q'), 8 bytes an n.

    Tallies every product p*q <= max_x of a prime p and one of its
    count_brute_list cofactors q in (p, min(r*p, max_x/p)], then sums the
    tally up.  primes must hold every prime up to _required_limit(max_x, r).
    """
    counts = array("q", [0]) * (max_x + 1)
    for i, p in enumerate(primes[: bisect_right(primes, math.isqrt(max_x))]):
        for q in primes[i + 1 : bisect_right(primes, min(r.num * p // r.den, max_x // p))]:
            counts[p * q] += 1
    return _prefix_sum(counts)


def identity_counts_list(primes: list[int], max_x: int, r: Ratio) -> array:
    """count_identity_list's total at every x at once: counts[x] = C_r(x)
    for every 0 <= x <= max_x, as an array('q'), from one difference list.

    The k-th prime p <= sqrt(max_x) takes k from s1 at x = p^2 and adds
    pi(floor(r*p)) to s2 at b = ceil(p^2*num/den).  In between, p lies in
    x's band and s3 gains pi(floor(x/p)), which reads pi(q) on the row
    [q*p, q*p + p): the band starts with pi(p) at p^2, steps by
    pi(q) - pi(q - 1), the entries equal to q, at each q*p, and drops the
    pi((b - 1) // p) it reached at b.  Steps at or past max_x + 1 are left
    out.  One prefix sum of the list gives every count.  Same requirement
    on primes as brute_counts_list.
    """
    counts = array("q", [0]) * (max_x + 1)
    for k, p in enumerate(primes[: bisect_right(primes, math.isqrt(max_x))], 1):
        b = -(-p * p * r.num // r.den)
        counts[p * p] -= k
        if b <= max_x:
            counts[b] += bisect_right(primes, r.num * p // r.den)
        hi = min(b, max_x + 1)  # p's band is [p^2, hi)
        if p * p < hi:
            first, last = bisect_right(primes, p), bisect_right(primes, (hi - 1) // p)
            counts[p * p] += first
            for q in primes[first:last]:
                counts[q * p] += 1
            if hi <= max_x:
                counts[hi] -= last
    return _prefix_sum(counts)


def check_pi_sums_list(primes: list[int], z_max: int) -> int:
    """diagnostics.sum_pi_p's check at every z in 2..z_max, on a list of the
    primes; returns the number of z checked.

    totals[k] sums pi(p) over the first k entries, so each z checks
    totals[pi(z)] against pi(z)*(pi(z) + 1)/2.  Only when some k misses it
    are the z walked, to raise IdentityViolationError at the least z whose
    pi(z) is such a k, the least z where sum_pi_p raises on the same primes.
    """
    if z_max < 2:
        return 0
    ps = primes[: bisect_right(primes, z_max)]
    totals = list(accumulate(map(bisect_right, repeat(primes), ps), initial=0))
    if any(t != k * (k + 1) // 2 for k, t in enumerate(totals)):
        for z in range(2, z_max + 1):
            k = bisect_right(primes, z)
            if totals[k] != k * (k + 1) // 2:
                raise IdentityViolationError(z, totals[k], k * (k + 1) // 2)
    return z_max - 1
