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
  * count_sweep_grid: the same decomposition with no table, at every x of
    a grid, its pi arguments answered in order by one segmented sieve over
    [0, sqrt(r*x_max)]; count_sweep is its one-point case.

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

from .analytic import rsa_count_estimate
from .primes import SWEEP_SEGMENT_BYTES, U64_MAX, PrimeTable, TableLimitError, _OddSieve

DEFAULT_BRUTE_BUDGET = 10**8

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
    """One exact count at x against its main term.

    err_scale is the expected size of the error term, so err_normalized
    is the deviation in those units; a bounded err_normalized across a
    grid is the empirical signature that the error term has that shape.
    """

    x: int
    r: Ratio
    exact: int
    estimate: float
    err_scale: float
    method: str  # "brute" or "identity"
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
    """min(floor(sqrt(r*x)), x), the largest pi argument either counter can issue.

    s2's floor(r*p) is at most sqrt(r*x), and s2 is empty once r > x;
    s3's floor(x/p) and brute's cofactors q <= x/p stay below x.
    """
    return min(math.isqrt(r.num * x // r.den), x)


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
    table.limit >= min(floor(sqrt(r*x)), x).
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

# a segment's running prime count is int32, so a segment holds fewer flags
_MAX_SWEEP_SEGMENT = 2**31 - 1


def _segment_pi(args: np.ndarray, i0: int, packed: np.ndarray, upto: np.ndarray) -> np.ndarray:
    """For each argument, the primes from index i0 up to it.

    packed holds the segment's flags, flag t as bit t % 8 of byte t // 8,
    and upto[j] counts the primes in bytes 0..j; the primes up to flag t
    are upto[t // 8] less the set bits of byte t // 8 above bit t % 8.
    """
    t = (args - np.uint64(2 * i0 + 1)).astype(np.intp)
    t >>= 1  # flag of the largest odd n <= v
    j = t >> 3
    t &= 7
    t |= packed[j].astype(np.intp) << 3
    return upto[j] - _POP_ABOVE[t]


def _max_overlap(lo: np.ndarray, hi: np.ndarray) -> int:
    """The most intervals [lo[b], hi[b]] that share one point; at least 1."""
    if lo.size == 0:
        return 1
    depth = np.sort(lo).searchsorted(lo, side="right") - np.sort(hi).searchsorted(lo)
    return int(depth.max())


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


def count_sweep_grid(
    xs: list[int], r: Ratio, *, segment_bytes: int = SWEEP_SEGMENT_BYTES
) -> list[Decomposition]:
    """count_identity's decomposition at every x of an ascending grid, without a table.

    One ascending sweep over [0, min(sqrt(r*x_max), x_max)], which holds
    every pi argument of every x, keeps a running pi and answers each
    segment's arguments from the segment's cumulative prime count (the P2
    term of Deleglise-Rivat is computed this way):

      * s2: the arguments floor(r*p) do not depend on x, so one ascending
        stream of p serves the whole grid.  For r >= 1, p <= sqrt(x/r)
        exactly when floor(r*p) <= floor(r*floor(sqrt(x/r))), so s2(x) is
        the running sum up to that argument.
      * s3: each x has its own band of arguments floor(x/p), ascending as
        p descends through (sqrt(x/r), sqrt(x)].  The arguments in a
        segment (lo, hi] come from the p in (x/(hi+1), x/lo], which x
        re-sieves when the sweep reaches them.
      * s1: k1 = pi(floor(sqrt(x))) is one more argument of the sweep.

    Only the base primes up to (r*x_max)^(1/4), the grid's sums, a fixed
    number of segment buffers and about one segment's worth of pending s3
    arguments are held, however dense the grid.
    """
    for x in xs:
        _validate_x(x)
    if any(a > b for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must be ascending")
    if segment_bytes < 1:
        raise ValueError("segment_bytes must be positive")
    n = len(xs)
    p1 = [math.isqrt(x) for x in xs]
    p2 = [math.isqrt(x * r.den // r.num) for x in xs]
    cut2 = [r.floor_mul(p) for p in p2]
    k1, s2, s3 = [0] * n, [0] * n, [0] * n
    # no prime p <= sqrt(x) below x = 4, so k1 = s3 = 0 (and s2 = 0, as p2 < 2)
    live = [j for j in range(n) if p1[j] >= 2]
    if live:
        limit = _required_limit(xs[-1], r)
        sieve = _OddSieve(limit, min(segment_bytes, _MAX_SWEEP_SEGMENT))
        s2_args = _Queries(sieve.primes(2, p2[-1]), r.floor_mul)
        # s3's arguments of x run from x // p1 to x // (p2 + 1).  Each x
        # sieves its p downwards in blocks of at least `block` numbers (so a
        # lone x sieves whole segments), and a block's arguments wait in
        # pend[b] for their segment; the x whose bands share an argument
        # hold about one segment's worth of numbers between them.
        band = [j for j in live if p2[j] < p1[j]]
        band_lo = np.array([xs[j] // p1[j] for j in band], dtype=np.uint64)
        band_hi = np.array([xs[j] // (p2[j] + 1) for j in band], dtype=np.uint64)
        block = 2 * sieve.segment_bytes // _max_overlap(band_lo, band_hi)
        p_top = [p1[j] for j in band]  # the largest p of each band not yet sieved
        pend = [np.empty(0, dtype=np.uint64) for _ in band]
        below = 1  # primes below the segment, counting 2: the sweep sieves odd n only
        run2 = 0  # s2's sum over the arguments answered so far
        next2 = next1 = 0  # the first x whose s2, and the first live x whose k1, is open
        for i0, flags in sieve.segments(0, (limit + 1) // 2):
            packed = np.packbits(flags, bitorder="little")
            upto = np.cumsum(_POP.take(packed), dtype=np.int32)
            # this segment answers the arguments in (2*i0, 2*i1]
            lo, hi = 2 * i0 + 1, min(2 * (i0 + flags.size), U64_MAX)

            q = s2_args.upto(hi)
            pis = _segment_pi(q, i0, packed, upto)
            start = 0
            while next2 < n and cut2[next2] <= hi:
                end = int(q.searchsorted(np.uint64(cut2[next2]), side="right"))
                run2 += (end - start) * below + int(pis[start:end].sum(dtype=np.int64))
                s2[next2], start = run2, end
                next2 += 1
            run2 += (q.size - start) * below + int(pis[start:].sum(dtype=np.int64))

            while next1 < len(live) and p1[live[next1]] <= hi:
                j = live[next1]
                k1[j] = below + int(_segment_pi(np.array([p1[j]], np.uint64), i0, packed, upto)[0])
                next1 += 1

            for b in np.flatnonzero((band_lo <= np.uint64(hi)) & (band_hi >= np.uint64(lo))):
                j = band[b]
                x = xs[j]
                need = max(p2[j], x // (hi + 1)) + 1  # the least p with x // p <= hi
                if p_top[b] >= need:
                    p_lo = max(p2[j] + 1, min(need, p_top[b] - block + 1))
                    chunks = [np.uint64(x) // p[::-1] for p in sieve.primes(p_lo, p_top[b])]
                    pend[b] = np.concatenate([pend[b], *chunks[::-1]])
                    p_top[b] = p_lo - 1
                args = pend[b]
                k = int(args.searchsorted(np.uint64(hi), side="right"))
                # an empty view would keep the answered arguments alive
                pend[b] = args[k:] if k < args.size else np.empty(0, np.uint64)
                s3[j] += k * below + int(_segment_pi(args[:k], i0, packed, upto).sum(dtype=np.int64))
            below += int(upto[-1])
    return [
        Decomposition(s1=k * (k + 1) // 2, s2=a, s3=b, total=a + b - k * (k + 1) // 2)
        for k, a, b in zip(k1, s2, s3)
    ]


def count_sweep(
    x: int, r: Ratio, *, segment_bytes: int = SWEEP_SEGMENT_BYTES
) -> Decomposition:
    """count_identity's decomposition without a prime table: count_sweep_grid at x alone."""
    return count_sweep_grid([x], r, segment_bytes=segment_bytes)[0]


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
    CLI's count) and count_identity on the table otherwise; "brute" runs
    count_brute and needs a table.
    """
    t0 = time.perf_counter()
    if method == "identity":
        exact = (count_sweep(x, r) if table is None else count_identity(table, x, r)).total
    elif method == "brute":
        exact = count_brute(x, r, table, budget=budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _report(x, r, exact, method, time.perf_counter() - t0)


def grid_reports(xs: list[int], r: Ratio) -> list[CountReport]:
    """One identity report per x of an ascending grid, all from one count_sweep_grid.

    Every report carries the one sweep's wall time as its seconds.
    """
    t0 = time.perf_counter()
    sums = count_sweep_grid(xs, r)
    seconds = time.perf_counter() - t0
    return [_report(x, r, d.total, "identity", seconds) for x, d in zip(xs, sums)]


def _report(x: int, r: Ratio, exact: int, method: str, seconds: float) -> CountReport:
    """The report of exact at x, with the estimate 2*x*log(r)/log(x)^2.

    The error scale is r*log(e*r)*x/log(x)^3; below x = 2 the estimate and
    the scale are 0 and inf.
    """
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
