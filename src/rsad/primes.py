"""Segmented sieve of Eratosthenes and exact prime-counting queries.

A built PrimeTable holds every prime up to its limit as a sorted uint64
array: prime_count and pi answer pi queries on it by binary search,
so a table sized to min(sqrt(r*x), x) is enough to drive the table-based
semiprime counters.  Tables are immutable once built and safe
to share between threads.  prime_pi and prime_chunks count and stream the
primes up to n on the same segmented sieve with no table.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

U64_MAX = 2**64 - 1

# Segment buffer size in bytes of every sieve; one byte tracks one odd
# candidate.  Against 2^19, at x = 2^64 - 1 it halves count's passes over the
# ~7700 base primes (42 s against 51 s through the CLI, 2 cores), and
# pi(1.05e8) takes 0.14 s against 0.16 s.  A table with fewer odd candidates
# sieves them in one segment of their size.  It must stay below 2^31: the
# sweep keeps a segment's running prime count `upto` in int32.
SWEEP_SEGMENT_BYTES = 2**20

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
    """Bytes build_table holds at its peak: the output and the sieve's buffers.

    8 bytes per prime at _prime_count_bound(limit), plus a segment buffer and
    the wheel pattern, each the smaller of SWEEP_SEGMENT_BYTES and the number
    of odd candidates, the pattern 15015 bytes longer.
    """
    if limit < 2:
        return 0
    return 8 * _prime_count_bound(limit) + 2 * min(SWEEP_SEGMENT_BYTES, (limit + 1) // 2) + _WHEEL


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
    are sieved in one reused buffer of SWEEP_SEGMENT_BYTES, and each segment's
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
# candidates.  Each segment starts as a copy of that pattern, so these primes
# never enter the crossing-off loop.
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


class _OddSieve:
    """Segmented sieve of the odd candidates n = 2i + 1 <= limit, by index i.

    Holds the base primes up to sqrt(limit), built by build_table, and the
    wheel pattern; segments() sieves in segments of _segment_size(limit).
    Raises SieveWorkError, before any sieving, if limit exceeds
    SIEVE_WORK_LIMIT.
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
        self.pattern = np.ones(_WHEEL + self.segment_size, dtype=bool)
        for p in _WHEEL_PRIMES:
            self.pattern[p // 2 :: p] = False

    def segments(self, i_lo: int, i_hi: int):
        """Yield (i0, flags) for consecutive segments of the indices [i_lo, i_hi).

        flags[j] is True iff 2*(i0 + j) + 1 is prime.  Segments come in
        ascending order and share one buffer, so each flags is overwritten
        by the next.
        """
        size = self.segment_size
        buf = np.empty(min(size, max(i_hi - i_lo, 0)), dtype=bool)
        for i0 in range(i_lo, i_hi, size):
            i1 = min(i0 + size, i_hi)
            flags = buf[: i1 - i0]
            w = i0 % _WHEEL
            flags[:] = self.pattern[w : w + flags.size]
            for i in range(i0, min(i1, len(_SMALL_ODD_IS_PRIME))):
                flags[i - i0] = _SMALL_ODD_IS_PRIME[i]
            k = int(self.square_idx.searchsorted(i1))  # p^2 at or before the segment end
            base = self.base[:k]
            offsets = np.maximum(self.square_idx[:k], i0 + (self.base_idx[:k] - i0) % base) - i0
            for o, p in zip(offsets.tolist(), base.tolist()):
                flags[o::p] = False
            yield i0, flags

    def primes(self, lo: int, hi: int):
        """Yield the primes in [lo, hi] as ascending uint64 arrays, one per segment.

        hi must not exceed the sieve's limit.  The generator keeps no
        reference to an array it has yielded, so the caller may overwrite it
        and its memory goes when the caller drops it.
        """
        if lo <= 2 <= hi:
            yield np.array([2], dtype=np.uint64)
        for i0, flags in self.segments(lo // 2, (hi + 1) // 2):
            yield 2 * np.flatnonzero(flags).view(np.uint64) + (2 * i0 + 1)


def prime_chunks(n: int):
    """Yield the primes up to n as ascending uint64 arrays, one per segment of
    one sieve to n, with no table held."""
    if n >= 2:
        yield from _OddSieve(n).primes(2, n)


def prime_pi(n: int) -> int:
    """pi(n) with no table: a running count of the primes over the sieve's segments."""
    if n < 2:
        return 0
    segments = _OddSieve(n).segments(0, (n + 1) // 2)
    return 1 + sum(int(np.count_nonzero(flags)) for _, flags in segments)


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
