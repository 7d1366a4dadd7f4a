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
from .primes import U64_MAX, PrimeTable, _check_u64, _OddSieve

# floor_mul scales a prime array in uint64 only while num * p stays below this
_NP_SAFE = 2**62


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
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)
        if self.num > U64_MAX:  # and so is den, which is at most num
            raise ValueError("ratio parts must fit in 64 bits")

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
    """The three partial sums of the identity counter; their total s2 + s3 - s1 is C_r(x)."""

    s1: int  # sum of pi(p) over p <= sqrt(x)
    s2: int  # sum of pi(floor(r*p)) over p <= sqrt(x/r)
    s3: int  # sum of pi(floor(x/p)) over sqrt(x/r) < p <= sqrt(x)

    @property
    def total(self) -> int:
        return self.s2 + self.s3 - self.s1


@dataclass(frozen=True)
class CountReport:
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


def _required_limit(x: int, r: Ratio) -> int:
    """min(floor(sqrt(r*x)), x), the largest pi argument either counter can issue.

    s2's floor(r*p) is at most sqrt(r*x), and s2 is empty once r > x;
    s3's floor(x/p) and brute's cofactors q <= x/p stay below x.
    """
    return min(math.isqrt(r.num * x // r.den), x)


def _cofactor_slices(table: PrimeTable, x: int, r: Ratio):
    """Yield (p, qs) for each prime p <= sqrt(x), qs the primes in (p, min(r*p, x/p)].

    Both bounds are exact: q <= floor(r*p) iff q*den <= num*p, and
    q <= floor(x/p) iff p*q <= x.  qs is a view into the table.  The work
    grows with x and is not bounded here: the CLI admits x first.
    """
    _check_u64(x, "x")
    table.check_range(_required_limit(x, r))
    primes = table.primes
    for i in range(table.prime_count(math.isqrt(x))):
        p = int(primes[i])
        yield p, primes[i + 1 : table.prime_count(min(r.floor_mul(p), x // p))]


def count_brute(x: int, r: Ratio, table: PrimeTable) -> int:
    """C_r(x) by direct pair enumeration over the prime table.

    Counts the admissible cofactors of every prime p <= sqrt(x).  Never
    touches the identity's partial sums, so it serves as the independent
    oracle for count_identity.
    """
    return sum(qs.size for _, qs in _cofactor_slices(table, x, r))


def brute_counts_upto(table: PrimeTable, max_x: int, r: Ratio) -> np.ndarray:
    """Incremental-sweep form of the brute counter.

    Materializes every product p*q <= max_x with p < q <= r*p, tallies
    them, and returns counts[n] = C_r(n) for all 0 <= n <= max_x.  Same
    enumeration as count_brute, amortized over a whole sweep.
    """
    products = np.concatenate(
        [np.empty(0, dtype=np.uint64)]
        + [qs * np.uint64(p) for p, qs in _cofactor_slices(table, max_x, r)]
    )
    # products <= max_x < 2^63 (the CLI admits 24*(max_x + 1) bytes under a
    # budget below 2^64), so reading them as int64 in place is exact
    counts = np.bincount(products.view(np.int64), minlength=max_x + 1)
    return np.cumsum(counts, out=counts)


def count_identity(table: PrimeTable, x: int, r: Ratio) -> Decomposition:
    """C_r(x) via the decomposition into three pi sums.

    s1 sums pi(p) over p <= sqrt(x); on the table's own primes pi runs
    over 1..k1, so s1 = k1*(k1+1)/2 (the summation identity checked
    independently by diagnostics.sum_pi_p).  s2 and s3 issue real pi
    queries at floor(r*p) and floor(x/p).  Requires
    table.limit >= min(floor(sqrt(r*x)), x).
    """
    _check_u64(x, "x")
    table.check_range(_required_limit(x, r))
    # p <= sqrt(x) iff p <= isqrt(x); p <= sqrt(x/r) iff p^2*num <= x*den
    # iff p <= isqrt(x*den // num)
    k1 = table.prime_count(math.isqrt(x))
    k2 = table.prime_count(math.isqrt(x * r.den // r.num))
    s1 = k1 * (k1 + 1) // 2
    s2 = int(table.pi(r.floor_mul(table.primes[:k2])).sum())
    s3 = int(table.pi(np.uint64(x) // table.primes[k2:k1]).sum())
    return Decomposition(s1=s1, s2=s2, s3=s3)


# quotients per slice of an s3 band in identity_counts_upto: 1 MiB of temporaries
_BAND_SLICE = 2**16


def identity_counts_upto(table: PrimeTable, max_x: int, r: Ratio) -> np.ndarray:
    """count_identity's total at every x at once: counts[x] = C_r(x), 0 <= x <= max_x.

    Each prime p <= sqrt(max_x) enters the sums at fixed x: s1 gains pi(p)
    from x = p^2 on, and s2 gains pi(floor(r*p)) from b = ceil(p^2*num/den)
    on, the least x with p <= sqrt(x/r).  Both are steps of one cumsum.  In
    between, p^2 <= x < b, p lies in x's band and s3 gains pi(floor(x/p)),
    which runs through the quotients p, p+1, ... p times each: each pi is
    answered once and added in place to p counts, _BAND_SLICE quotients at a
    time.  Same table requirement as count_identity at max_x.
    """
    _check_u64(max_x, "x")
    table.check_range(_required_limit(max_x, r))
    counts = np.zeros(max_x + 1, dtype=np.int64)
    bands = []
    for k, p in enumerate(table.primes[: table.prime_count(math.isqrt(max_x))].tolist(), 1):
        b = -(-p * p * r.num // r.den)
        counts[p * p] -= k
        if b <= max_x:
            counts[b] += table.prime_count(r.floor_mul(p))
        bands.append((p, min(b, max_x + 1)))
    np.cumsum(counts, out=counts)
    for p, hi in bands:
        # x in [q*p, q*p + p) gains pi(q): whole rows up to hi // p, then the rest
        top = hi // p
        for q0 in range(p, top, _BAND_SLICE):
            q = np.arange(q0, min(q0 + _BAND_SLICE, top), dtype=np.uint64)
            rows = counts[q0 * p : (q0 + q.size) * p].reshape(q.size, p)
            rows += table.pi(q)[:, None]
        if top * p < hi:
            counts[top * p : hi] += table.prime_count(top)
    return counts


# _POP[byte] counts the set bits of byte; _POP_ABOVE[8*byte + b] those above bit b
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POP = _BITS.sum(axis=1, dtype=np.uint8)
_POP_ABOVE = (_POP[:, None] - _BITS.cumsum(axis=1, dtype=np.uint8)).ravel()


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


class _Queries:
    """pi arguments in ascending order, computed segment by segment.

    chunks yields ascending uint64 arrays, each one above the one before.
    """

    def __init__(self, chunks):
        self._chunks = chunks
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
            self._pending = chunk
        return np.concatenate(parts)


def count_sweep_grid(xs: list[int], r: Ratio) -> list[Decomposition]:
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
        sieves when the sweep reaches that segment and answers at once.
      * s1: k1 = pi(floor(sqrt(x))) counts the p of both sums: the s2
        arguments up to floor(r*floor(sqrt(x/r))) and x's band arguments.

    Only the base primes up to (r*x_max)^(1/4), the grid's sums, a fixed
    number of segment buffers and one segment's arguments of one stream are
    held, however dense the grid.
    """
    for x in xs:
        _check_u64(x, "x")
    if any(a > b for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must be ascending")
    n = len(xs)
    p1 = [math.isqrt(x) for x in xs]
    p2 = [math.isqrt(x * r.den // r.num) for x in xs]
    cut2 = [r.floor_mul(p) for p in p2]
    k1, s2, s3 = [0] * n, [0] * n, [0] * n
    # no prime p <= sqrt(x) below x = 4, so k1 = s3 = 0 (and s2 = 0, as p2 < 2)
    if n and p1[-1] >= 2:
        limit = _required_limit(xs[-1], r)
        sieve = _OddSieve(limit)
        s2_args = _Queries(map(r.floor_mul, sieve.primes(2, p2[-1])))
        p_top = p1[:]  # the largest p of each x's band (p2, p1] not yet answered
        below = 1  # primes below the segment, counting 2: the sweep sieves odd n only
        run2 = seen2 = 0  # s2's sum over, and count of, the arguments answered so far
        next2 = 0  # the first x whose s2 is open
        for i0, flags in sieve.segments(0, (limit + 1) // 2):
            packed = np.packbits(flags, bitorder="little")
            upto = np.cumsum(_POP.take(packed), dtype=np.int32)
            # this segment answers the arguments in (2*i0, 2*i1]
            hi = min(2 * (i0 + flags.size), U64_MAX)

            q = s2_args.upto(hi)
            pis = _segment_pi(q, i0, packed, upto)
            start = 0
            while next2 < n and cut2[next2] <= hi:
                end = int(q.searchsorted(np.uint64(cut2[next2]), side="right"))
                run2 += (end - start) * below + int(pis[start:end].sum(dtype=np.int64))
                s2[next2], start = run2, end
                k1[next2] += seen2 + end  # pi(p2): one argument per p <= p2
                next2 += 1
            run2 += (q.size - start) * below + int(pis[start:].sum(dtype=np.int64))
            seen2 += q.size
            del q, pis  # freed before the band arguments are made

            for j, x in enumerate(xs):
                # the least p with x // p <= hi; above p_top in a band that is
                # empty, answered, or whose arguments all lie above hi
                p_lo = max(p2[j], x // (hi + 1)) + 1
                if p_lo <= p_top[j]:
                    for p in sieve.primes(p_lo, p_top[j]):
                        k1[j] += p.size
                        # p becomes x // p in place: this chunk of x's arguments
                        np.floor_divide(np.uint64(x), p, out=p)
                        pis = _segment_pi(p, i0, packed, upto)
                        s3[j] += p.size * below + int(pis.sum(dtype=np.int64))
                    p_top[j] = p_lo - 1
            below += int(upto[-1])
    return [Decomposition(s1=k * (k + 1) // 2, s2=a, s3=b) for k, a, b in zip(k1, s2, s3)]


def count_sweep(x: int, r: Ratio) -> Decomposition:
    """count_identity's decomposition without a prime table: count_sweep_grid at x alone."""
    return count_sweep_grid([x], r)[0]


def count_pi2(table: PrimeTable, x: int) -> int:
    """pi_2(x): squarefree semiprimes p*q <= x with p < q.

    Evaluates sum_{p<=sqrt(x)} (pi(x/p) - pi(p)); the largest query is
    pi(x/2), so the table must reach floor(x/2) once x >= 4.
    """
    _check_u64(x, "x")
    if x >= 4:
        table.check_range(x // 2)
    k = table.prime_count(math.isqrt(x))
    return int(table.pi(np.uint64(x) // table.primes[:k]).sum()) - k * (k + 1) // 2


def count_report(
    table: PrimeTable | None, x: int, r: Ratio, method: str = "identity"
) -> CountReport:
    """Run one counter and time it: the record of what was counted.

    Method "identity" runs count_sweep, which needs no table, and reads no
    table it is given; "brute" runs count_brute on the table.  Nothing here
    bounds brute's work or memory: the CLI admits x and the table before
    any count.
    """
    t0 = time.perf_counter()
    if method == "identity":
        exact = count_sweep(x, r).total
    elif method == "brute":
        exact = count_brute(x, r, table)
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountReport(x, r, exact, method, time.perf_counter() - t0)
