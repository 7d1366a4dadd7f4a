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
    [0, sqrt(r*x_max)], cut into ranges that run in forked workers on every
    usable CPU; count_sweep is its one-point case.

All boundary tests are integer-exact: r is an exact rational num/den, the
range split p <= sqrt(x/r) is decided as p^2*num <= x*den, and pi(r*p),
pi(x/p) mean pi at the floored argument.  Python integers make every
intermediate product exact regardless of width.  The cofactor bound is
inclusive (q <= r*p counts q = r*p when that value is a prime), which only
matters when r*p lands exactly on an integer.
"""

from __future__ import annotations

import bisect
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .analytic import rsa_count_estimate
from .primes import U64_MAX, PrimeTable, _check_u64, _OddSieve, _segment_size

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


class _Queries:
    """pi arguments from chunks, ascending uint64 arrays each above the one before."""

    def __init__(self, chunks):
        self._chunks = chunks
        self._pending = np.empty(0, dtype=np.uint64)

    def upto(self, last: int):
        """Remove and yield the arguments <= last, ascending, in non-empty pieces."""
        while True:
            k = int(self._pending.searchsorted(np.uint64(last), side="right"))
            if k:
                yield self._pending[:k]
            self._pending = self._pending[k:]
            if self._pending.size:
                return
            chunk = next(self._chunks, None)
            if chunk is None:
                return
            self._pending = chunk


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

    The sweep is cut into ranges of whole segments (_range_cuts), run by
    _sweep_range in forked workers, one per usable CPU; a sweep too small
    to repay the fork, or a process with one CPU, runs as one range in
    this process.  Either way the sums are the same integers.  A sweep
    holds only the base primes up to (r*x_max)^(1/4), the grid's sums, a
    fixed number of segment buffers and the arguments of one sieve slice
    of 2^16 flags of one stream, however dense the grid.
    """
    for x in xs:
        _check_u64(x, "x")
    if any(a > b for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must be ascending")
    # no prime p <= sqrt(x) below x = 4, so k1 = s3 = 0 (and s2 = 0, as p2 < 2)
    if not xs or xs[-1] < 4:
        return [Decomposition(0, 0, 0)] * len(xs)
    cuts = _range_cuts(_required_limit(xs[-1], r), _sweep_work(xs, r))
    return _sweep_in_ranges(xs, r, cuts)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (a cgroup CPU quota is not seen)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# A sieve of fewer numbers (a sweep's main sweep, s2 stream and s3 bands;
# mertens_sum's z) runs in one range in process.  On 2 cores, forked against
# in process, count took 0.98-1.17 times as long at 2.2e7-4.2e7 numbers
# (x = 1e14, 3e14) and 0.63-0.72 times at 7e7-1.3e8 (x = 1e15).  mertens_sum
# took 1.34 times as long at z = 1e7, 0.99 at 2e7, 0.86 at 3e7, 0.70 at 4.2e7
# and 0.60-0.69 at 5e7-1.1e8: its crossover, near 2e7, lies below this one.
_FORK_MIN_NUMBERS = 5 * 10**7

# Ranges per worker, handed to whichever worker is free.  The estimate counts
# a band number like a main one, so equal estimates are not equal times: cut
# in two, count at 1e16, r = 2 took 0.21 and 0.31 s a half.
_RANGES_PER_CPU = 2


def _sweep_work(xs: list[int], r: Ratio):
    """work(c), the numbers a sweep sieves for its arguments up to c: c,
    the s2 stream's p with floor(r*p) <= c and the band p with x // p <= c."""
    p1 = np.array([math.isqrt(x) for x in xs], dtype=float)
    p2 = np.array([math.isqrt(x * r.den // r.num) for x in xs], dtype=float)
    x_f, r_f = np.array(xs, dtype=float), float(r)

    def work(c: int) -> float:
        h = float(c)
        bands = np.maximum(p1 - np.maximum(p2, x_f / (h + 1)), 0.0).sum()
        return h + min(h / r_f, p2[-1]) + float(bands)

    return work


def _range_cuts(limit: int, work=lambda c: c) -> list[int]:
    """Cuts 0 = c_0 < ... < c_k = limit of a sieve to limit, on its segment boundaries.

    Each of at most _RANGES_PER_CPU ranges (c_i, c_{i+1}] per usable CPU
    gets about the same share of work(limit), the work up to c being
    work(c): _sweep_work's model, or the numbers themselves.  Work below
    _FORK_MIN_NUMBERS, or a process on one CPU, is one range.  Raises
    SieveWorkError, before any sieving, past the sieve's work bound.
    """
    step = 2 * _segment_size(limit)  # the numbers of a segment
    cpus, total = _usable_cpus(), work(limit)
    if cpus == 1 or total < _FORK_MIN_NUMBERS:
        return [0, limit]
    ranges, cuts = _RANGES_PER_CPU * cpus, [0]
    for k in range(1, ranges):
        # the least segment boundary m*step by which the share k/ranges is done
        m = bisect.bisect_left(range(-(-limit // step)), total * k / ranges,
                               lo=cuts[-1] // step, key=lambda m: work(m * step))
        if cuts[-1] < m * step < limit:
            cuts.append(m * step)
    return cuts + [limit]


def _in_ranges(task, cuts: list[int]):
    """task(lo, hi) over each range (c_i, c_{i+1}], in order: here, or from
    min(ranges, usable CPUs) forked processes (_forked_ranges) if above one."""
    ranges = list(zip(cuts, cuts[1:]))
    workers = min(len(ranges), _usable_cpus())
    if workers > 1:
        return _forked_ranges(task, ranges, workers)
    return (task(lo, hi) for lo, hi in ranges)


def _sweep_in_ranges(xs: list[int], r: Ratio, cuts: list[int]):
    """count_sweep_grid's decompositions from _sweep_range over each (c_i, c_{i+1}].

    The ranges run through _in_ranges; each range's int64 columns, counted
    from the start of the range, are shifted by the primes below it and
    added here with numpy.  That is exact: no x has more than pi(2^32)
    arguments, as its p <= sqrt(x) < 2^32, and none counts more than
    pi(2^36) primes, the sieve's work bound, so every sum stays below
    pi(2^32)*pi(2^36) < 2^60.
    """
    results = _in_ranges(lambda lo, hi: _sweep_range(xs, r, lo, hi), cuts)
    k1, s2, s3 = (np.zeros(len(xs), dtype=np.int64) for _ in range(3))
    below = 0  # primes below the range
    for (n2, t2, n3, t3), count in results:
        k1 += n2 + n3
        s2 += n2 * below + t2
        s3 += n3 * below + t3
        below += count
    sums = zip(k1.tolist(), s2.tolist(), s3.tolist())
    return [Decomposition(s1=k * (k + 1) // 2, s2=a, s3=b) for k, a, b in sums]


def _forked_ranges(task, ranges: list[tuple[int, int]], workers: int):
    """task(lo, hi) over the ranges, in order, from `workers` forked processes.

    Each worker inherits task, and all it reads, through the fork and is
    sent the next range whenever it returns one, so no worker idles while
    ranges are left; only the ranges and the results are pickled.  An
    exception in a worker is raised here; a worker that dies (the OOM
    killer, say) raises ChildProcessError.  On every way out that returns
    or raises here, each worker is terminated and joined.
    """
    # imported here: 10 ms that a sieve run in process does not pay
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    results, todo, busy, started = [None] * len(ranges), list(enumerate(ranges)), {}, []

    def send_next(conn):
        if todo:
            busy[conn], bounds = todo.pop(0)
            conn.send(bounds)

    try:
        for _ in range(workers):
            conn, child_end = context.Pipe()
            proc = context.Process(target=_range_worker, args=(child_end, os.getpid(), task))
            proc.start()
            started.append((proc, conn))
            child_end.close()  # so the worker's death reads as EOF here
            send_next(conn)
        while busy:
            for conn in wait(list(busy)):
                try:
                    ok, value = conn.recv()
                except EOFError:
                    raise ChildProcessError("a sweep worker died") from None
                if not ok:
                    raise value
                results[busy.pop(conn)] = value
                send_next(conn)
        return results
    finally:
        for proc, conn in started:
            proc.terminate()
            proc.join()
            conn.close()


def _range_worker(conn, parent: int, task) -> None:
    """A forked worker: task over each range received, its result or
    exception sent back, until terminated or its parent is gone.

    Interrupts are left to the parent.  A parent killed, or exiting at once
    on Ctrl-C, cannot terminate its workers, and one deep in a range would
    sieve on for seconds, so a thread polls the parent's pid.  The worker
    leaves by os._exit, never flushing the stdout buffer it inherited.
    """
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch():
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
    try:
        while True:
            lo, hi = conn.recv()
            try:
                reply = True, task(lo, hi)
            except Exception as exc:  # raised again in the parent
                reply = False, exc
            conn.send(reply)
    finally:  # recv or send found the parent gone
        os._exit(1)


def _sweep_range(xs: list[int], r: Ratio, lo: int, hi: int):
    """count_sweep_grid's sweep over the pi arguments in (lo, hi], lo even.

    Returns ((n2, t2, n3, t3), count): for each x, how many of its s2 and
    of its s3 arguments lie in the range, and the sums of their pi counted
    from lo, as int64 arrays, which a worker sends back in 8 bytes an x
    each; and count, the primes in the range.

    The per-x state is uint64 columns x, p1, p2 and cut2 = floor(r*p2).  cut2
    ascends with x, so each s2 closes once, in the piece q of s2 arguments
    that reaches its cut2, by a search k = q.searchsorted(cut2) (q is uint64
    too, or it compares in float64); x's band in a segment is two column
    expressions, and only the x with a non-empty band are visited.
    """
    x = np.array(xs, dtype=np.uint64)
    p1 = np.array([math.isqrt(v) for v in xs], dtype=np.uint64)
    p2 = np.array([math.isqrt(v * r.den // r.num) for v in xs], dtype=np.uint64)
    cut2 = r.floor_mul(p2)
    sieve = _OddSieve(_required_limit(xs[-1], r))
    # floor(r*p) > lo iff p*num >= (lo + 1)*den; floor(r*p) <= hi iff
    # p*num < (hi + 1)*den
    p_first = max(2, ((lo + 1) * r.den - 1) // r.num + 1)
    p_last = min(int(p2[-1]), ((hi + 1) * r.den - 1) // r.num)
    s2_args = _Queries(map(r.floor_mul, sieve.primes(p_first, p_last)))
    n2, t2, n3, t3 = (np.zeros(len(xs), dtype=np.int64) for _ in range(4))
    below = 0  # primes in the range below the segment
    xc, n, t = 0, 0, 0  # the x before xc closed their s2; n s2 arguments so far, t their pi
    for seg in sieve.segments(lo, hi):
        for q in s2_args.upto(seg.hi):
            xe = xc + int(cut2[xc:].searchsorted(q[-1], side="right"))  # the x closing here
            run = np.zeros(q.size + 1, dtype=np.int64)
            np.cumsum(seg.pi(q), out=run[1:])
            k = q.searchsorted(cut2[xc:xe], side="right")
            n2[xc:xe], t2[xc:xe] = n + k, t + k * below + run[k]
            xc, n, t = xe, n + q.size, t + q.size * below + int(run[-1])

        p_lo = np.maximum(p2, x // np.uint64(seg.hi + 1)) + np.uint64(1)
        p_hi = np.minimum(p1, x // np.uint64(seg.lo + 1))
        for j in np.flatnonzero(p_lo <= p_hi).tolist():
            for p in sieve.primes(int(p_lo[j]), int(p_hi[j])):
                n3[j] += p.size
                # p becomes x // p in place: this chunk of x's arguments
                np.floor_divide(x[j], p, out=p)
                t3[j] += p.size * below + int(seg.pi(p).sum(dtype=np.int64))
        below += seg.count
    n2[xc:], t2[xc:] = n, t
    return (n2, t2, n3, t3), below


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
