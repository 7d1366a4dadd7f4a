"""Segmented sieve of Eratosthenes and exact prime-counting queries.

A built PrimeTable holds every prime up to its limit as a sorted uint64
array: prime_count and pi answer pi queries on it by binary search,
so a table sized to min(sqrt(r*x), x) is enough to drive the table-based
semiprime counters.  Tables are immutable once built and safe
to share between threads.  The sieve behind them yields segments that
answer pi over their own numbers, which the sweep reads with no table.
prime_pi counts primes with no sieve at all: Lucy_Hedgehog's recursion
takes O(n^(3/4)) time and O(sqrt(n)) memory and shares no code with the
sieve, so it can check a built table's count.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

U64_MAX = 2**64 - 1

# Segment buffer size in bytes of every sieve; one byte tracks one odd
# candidate.  Against 2^19, at x = 2^64 - 1 it halves count's passes over the
# ~7700 base primes (42 s against 51 s through the CLI, 2 cores), and
# pi(1.05e8) takes 0.14 s against 0.16 s.  A table with fewer odd candidates
# sieves them in one segment of their size.  It must stay below 2^31:
# a segment keeps its running prime count `upto` in int32.
SWEEP_SEGMENT_BYTES = 2**20

# a segment yields its primes in slices of this many flags
_PRIME_SLICE = 2**16

# No sieve runs past this many numbers.  It admits sqrt(r*x) for every
# x < 2^64 with r <= 256 (count's sweep at 2^64 - 1, r = 2, sieves to 6.07e9:
# 21.2 s in forked ranges on 2 CPUs, 39.3 s in one range; see the README's
# Performance notes); a sweep to 1e12 would take hours.
SIEVE_WORK_LIMIT = 2**36

CACHE_MAGIC = b"RSAD1"
_CACHE_HEADER = struct.Struct("<5sQQ")


class SieveWorkError(Exception):
    """A sieve would run past SIEVE_WORK_LIMIT numbers."""


class TableLimitError(Exception):
    """The table stops below a pi argument a query or count needs (never clamped)."""

    def __init__(self, required: int, limit: int):
        self.required = required
        self.limit = limit
        super().__init__(f"prime table limit {limit} too small; need at least {required}")


class CacheFormatError(Exception):
    """Prime cache file is missing, truncated, or inconsistent."""


def _check_u64(value, name: str) -> None:
    """Raise ValueError, naming the argument, unless value is an int (not a bool) in [0, 2^64)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0 or value > U64_MAX:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")


def _prime_count_bound(limit: int) -> int:
    """An upper bound on pi(limit): L/ln L * (1 + 1.2762/ln L) (Dusart), for L > 1."""
    log = math.log(limit)
    return int(limit / log * (1 + 1.2762 / log)) + 1


def _peak_estimate_bytes(limit: int) -> int:
    """Bytes build_table holds at its peak: 8 per prime at Dusart's bound and
    per flag of one slice (its int64 indices), the segment buffer, the pattern,
    128 per base prime (its columns, temporaries and lists) and 8 KiB of Python
    objects.  tracemalloc's peak stayed below it at every limit tried to 3e7."""
    if limit < 2:
        return 0
    seg = min(SWEEP_SEGMENT_BYTES, (limit + 1) // 2)
    base = _prime_count_bound(max(math.isqrt(limit), 2))  # up to sqrt(limit)
    return (8 * (_prime_count_bound(limit) + min(_PRIME_SLICE, seg)) + seg + 2 * _WHEEL
            + 128 * base + 2**13)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to `limit`, sorted ascending, with O(log) pi queries."""

    limit: int
    primes: np.ndarray  # uint64, strictly increasing, read-only

    @property
    def count(self) -> int:
        """pi(limit): number of primes stored."""
        return int(self.primes.size)

    def check_range(self, n: int) -> None:
        """Raise TableLimitError unless the table answers pi(n), i.e. n <= limit.

        Every pi query and every counter that reads the table checks its
        largest argument here first; a negative n is a ValueError.
        """
        if n < 0:
            raise ValueError(f"query argument must be nonnegative, got {n}")
        if n > self.limit:
            raise TableLimitError(n, self.limit)

    def prime_count(self, n: int) -> int:
        """pi(n): number of primes <= n.  Requires n <= limit."""
        self.check_range(n)
        return int(self.primes.searchsorted(np.uint64(n), side="right"))

    def pi(self, values: np.ndarray) -> np.ndarray:
        """pi(v) at each v of a monotone uint64 array of queries, as an intp array.

        Only the two ends are range-checked, so the array must be sorted,
        ascending or descending; raises TableLimitError when either end
        exceeds the limit.
        """
        if values.size:
            self.check_range(max(int(values[0]), int(values[-1])))
        return self.primes.searchsorted(values, side="right")

    def save(self, path) -> None:
        """Write the binary cache: magic, limit, count, then u64 primes.

        The bytes go to a temporary file beside path, which then replaces
        path in one step, so a save that fails or is interrupted leaves any
        cache already at path whole.
        """
        header = _CACHE_HEADER.pack(CACHE_MAGIC, self.limit, self.count)
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                self.primes.astype("<u8", copy=False).tofile(fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def build_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit into an immutable PrimeTable.

    The output is allocated once, at Dusart's bound on pi(limit), before the
    base primes up to sqrt(limit) are built by this function.  Odd candidates
    are sieved in one reused buffer of SWEEP_SEGMENT_BYTES, and each slice's
    primes are written in order into the output, so two builds with the same
    limit produce identical tables.  Its peak is _peak_estimate_bytes(limit),
    which a caller admits before building; raises MemoryError if the output
    cannot be allocated.
    """
    _check_u64(limit, "limit")
    if limit < 2:
        empty = np.empty(0, dtype=np.uint64)
        empty.setflags(write=False)
        return PrimeTable(limit=limit, primes=empty)

    # Allocated first, so a table too large for memory fails before any sieving.
    out = np.empty(_prime_count_bound(limit), dtype=np.uint64)
    n = 0
    for chunk in _OddSieve(limit).primes(2, limit):
        out[n : n + chunk.size] = chunk
        n += chunk.size

    primes = out[:n]
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)


# The odd multiples of 3, 5, 7, 11 and 13 repeat every 3*5*7*11*13 odd
# candidates.  Each segment starts as copies of the period at its phase, cut
# from a pattern two periods long, so these primes never cross anything off.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = 15015
# Primality of the odd candidates 1, 3, ..., 13, which the pattern gets wrong
# for 1 and for the wheel primes themselves.
_SMALL_ODD_IS_PRIME = (False, True, True, True, False, True, True)


def _segment_size(limit: int) -> int:
    """Odd candidates per segment of a sieve to limit: SWEEP_SEGMENT_BYTES as
    read now, or all odd candidates if fewer.

    Raises SieveWorkError if limit exceeds SIEVE_WORK_LIMIT, so a caller that
    plans a sieve's segments meets the bound before any sieving.
    """
    if limit > SIEVE_WORK_LIMIT:
        raise SieveWorkError(
            f"sieving to {limit} exceeds the work bound of {SIEVE_WORK_LIMIT} numbers"
        )
    return min(SWEEP_SEGMENT_BYTES, (limit + 1) // 2)


class _Segment:
    """The numbers (lo, hi] of one sieve segment, lo even: flags[j] is True
    iff lo + 2*j + 1 is prime, and the first segment, lo = 0, counts 2 too.
    It is read while it is current: the sieve's next segment overwrites flags."""

    def __init__(self, lo: int, flags: np.ndarray):
        self.lo, self.hi, self.flags = lo, lo + 2 * flags.size, flags

    @cached_property
    def _packed(self):
        """Flag t as bit t % 64 of little-endian uint64 word t // 64, and upto[j],
        the primes in words 0..j, in int32: packed once pi or count is asked."""
        packed = np.packbits(self.flags, bitorder="little")
        if packed.size % 8:
            packed = np.concatenate((packed, np.zeros(-packed.size % 8, dtype=np.uint8)))
        words = packed.view("<u8")
        return words, np.cumsum(np.bitwise_count(words), dtype=np.int32)

    @property
    def count(self) -> int:
        """The primes in (lo, hi]."""
        return int(self._packed[1][-1]) + (self.lo == 0)

    def pi(self, args: np.ndarray) -> np.ndarray:
        """The primes in (lo, v] for each uint64 v of args in (lo, hi], as int32.

        With t the flag of the largest odd number <= v, that is upto[t // 64]
        less the bits of word t // 64 above bit t % 64, shifted out by t % 64
        and then by 1 (a shift by 64 would not clear the word).
        """
        words, upto = self._packed
        t = args - np.uint64(self.lo + 1)
        t >>= np.uint64(1)
        j = (t >> np.uint64(6)).astype(np.intp)
        t &= np.uint64(63)
        above = words[j] >> t
        above >>= np.uint64(1)
        pi = upto[j] - np.bitwise_count(above)
        if self.lo == 0:
            pi += args >= 2
        return pi

    def primes(self):
        """Yield the primes in (lo, hi] as new ascending uint64 arrays, one
        per slice of _PRIME_SLICE flags."""
        if self.lo == 0:
            yield np.array([2], dtype=np.uint64)
        for j in range(0, self.flags.size, _PRIME_SLICE):
            n = np.flatnonzero(self.flags[j : j + _PRIME_SLICE])  # index t: lo + 2*(j+t) + 1
            n <<= 1
            n += self.lo + 2 * j + 1
            yield n.view(np.uint64)


class _OddSieve:
    """Segmented sieve of the odd numbers up to limit.

    Holds the base primes up to sqrt(limit), built by build_table, and the
    wheel pattern; segments() sieves in segments of _segment_size(limit)
    odd numbers.  Raises SieveWorkError, before any sieving, if limit
    exceeds SIEVE_WORK_LIMIT.
    """

    def __init__(self, limit: int):
        self.segment_size = _segment_size(limit)
        base = build_table(math.isqrt(limit)).primes
        # Odd n = 2i + 1 lives at index i.  The odd multiples of p are the
        # indices = (p - 1)/2 mod p, crossed off from p^2's index
        # (p - 1)/2 * (p + 1); for limits below 2^64 all are below 2^63, so
        # int64 is exact.
        self.base = base[base > _WHEEL_PRIMES[-1]].astype(np.int64)
        self.base_idx = self.base // 2
        self.square_idx = self.base_idx * (self.base + 1)
        self.pattern = np.ones(2 * _WHEEL, dtype=bool)  # a whole period at any phase
        for p in _WHEEL_PRIMES:
            self.pattern[p // 2 :: p] = False

    def segments(self, lo: int, hi: int):
        """Yield the _Segments, in ascending order, that cover the numbers
        (lo, hi], lo even; hi must not exceed the sieve's limit."""
        size = self.segment_size
        i_lo, i_hi = lo // 2, (hi + 1) // 2
        buf = np.empty(min(size, max(i_hi - i_lo, 0)), dtype=bool)
        for i0 in range(i_lo, i_hi, size):
            i1 = min(i0 + size, i_hi)
            flags = buf[: i1 - i0]
            w, (rows, tail) = i0 % _WHEEL, divmod(flags.size, _WHEEL)
            flags[: rows * _WHEEL].reshape(rows, _WHEEL)[:] = self.pattern[w : w + _WHEEL]
            flags[rows * _WHEEL :] = self.pattern[w : w + tail]
            for i in range(i0, min(i1, len(_SMALL_ODD_IS_PRIME))):
                flags[i - i0] = _SMALL_ODD_IS_PRIME[i]
            k = int(self.square_idx.searchsorted(i1))  # p^2 at or before the segment end
            base = self.base[:k]
            offsets = np.maximum(self.square_idx[:k], i0 + (self.base_idx[:k] - i0) % base) - i0
            for o, p in zip(offsets.tolist(), base.tolist()):
                flags[o::p] = False
            yield _Segment(2 * i0, flags)

    def primes(self, lo: int, hi: int):
        """Yield the primes in [lo, hi] as ascending uint64 arrays, one per slice.

        hi must not exceed the sieve's limit.  The generator keeps no
        reference to an array it has yielded, so the caller may overwrite it
        and its memory goes when the caller drops it.
        """
        if hi < 2:
            return  # the first segment, (0, 2] at least, would yield 2
        # (0, hi] for lo <= 2, (lo - 1, hi] for an odd lo, (lo, hi] for an even one
        for seg in self.segments(2 * (lo // 2) if lo > 2 else 0, hi):
            yield from seg.primes()


def prime_pi(n: int) -> int:
    """pi(n) by Lucy_Hedgehog's recursion, with no table and no sieve.

    S(v) starts as the count of 2..v; for each prime p <= sqrt(n) in turn,
    S(v) -= S(v // p) - S(p - 1) at every v >= p^2 strikes the numbers whose
    least prime factor is p, and S(n) ends as pi(n).  Only the v = n // i
    are ever read, so two int64 arrays of isqrt(n) + 1 entries hold them all:
    O(n^(3/4)) time, 0.73 s at 2^36 (numpy 2.4.6, one thread of a 2-vCPU
    machine).  It keeps the sieve's work bound by choice, raising
    SieveWorkError before any work when n exceeds SIEVE_WORK_LIMIT; below
    it every S(v) is under 2^37, so int64 is exact.
    """
    if n < 2:
        return 0
    _segment_size(n)  # the work bound
    r = math.isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = S(v), v <= r
    small[0] = 0
    quotients = n // np.arange(1, r + 1, dtype=np.int64)
    large = quotients - 1  # large[i - 1] = S(n // i), i <= r
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite: S(p) is already pi(p)
        sp = small[p - 1]
        # S(n // i) changes where n // i >= p^2, reading S(n // (i*p)) from
        # large while i*p <= r.
        # Each right side is computed before its assignment, from old values.
        k = min(r, n // (p * p))
        j = min(k, r // p)
        large[:j] -= large[p - 1 : j * p : p] - sp
        large[j:k] -= small[quotients[j:k] // p] - sp
        if p * p <= r:
            # v // p over v = p^2..r is p, ..., r // p, each p times
            small[p * p :] -= np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p] - sp
    return int(large[0])


def load_table(path) -> PrimeTable:
    """Load a table from the binary cache format, validating its contents."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CacheFormatError(f"cannot read cache {path}: {exc}") from exc

    if len(blob) < _CACHE_HEADER.size:
        raise CacheFormatError(f"cache {path} is truncated (no header)")
    magic, limit, count = _CACHE_HEADER.unpack_from(blob)
    if magic != CACHE_MAGIC:
        raise CacheFormatError(f"cache {path} has bad magic {magic!r}")
    expected = _CACHE_HEADER.size + 8 * count
    if len(blob) != expected:
        raise CacheFormatError(
            f"cache {path} has {len(blob)} bytes, expected {expected}"
        )
    # a read-only view over blob, not a second copy of the primes
    primes = np.frombuffer(blob, dtype="<u8", offset=_CACHE_HEADER.size).astype(
        np.uint64, copy=False
    )
    if primes.size != count:
        raise CacheFormatError(f"cache {path} count mismatch")
    if primes.size:
        if int(primes[0]) < 2 or int(primes[-1]) > limit:
            raise CacheFormatError(f"cache {path} primes out of range")
        if primes.size > 1 and not bool(np.all(primes[1:] > primes[:-1])):
            raise CacheFormatError(f"cache {path} primes not strictly increasing")
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)
