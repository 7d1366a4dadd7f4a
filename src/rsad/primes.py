"""Segmented sieve of Eratosthenes and exact prime-counting queries.

A built PrimeTable holds every prime up to its limit as a sorted uint64
array and is the package's only pi oracle: prime_count, pi_sum and
primes_between answer every pi query by binary search, so a table sized to
sqrt(r*x) is enough to drive the identity-based semiprime counters.  Tables
are immutable once built and safe to share between threads.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

U64_MAX = 2**64 - 1

# Segment buffer size in bytes; one byte tracks one odd candidate.
DEFAULT_SEGMENT_BYTES = 2**19

# Refuse builds whose peak memory estimate (see _peak_estimate_bytes) would
# exceed this.
DEFAULT_MEMORY_BUDGET_BYTES = 8 * 2**30

CACHE_MAGIC = b"RSAD1"
_CACHE_HEADER = struct.Struct("<5sQQ")


class MemoryBudgetError(Exception):
    """Requested sieve limit would blow the configured memory budget."""


class TableLimitError(Exception):
    """Query argument exceeds the table limit (never silently clamped)."""


class CacheFormatError(Exception):
    """Prime cache file is missing, truncated, or inconsistent."""


def _prime_count_bound(limit: int) -> int:
    """An upper bound on pi(limit): L/ln L * (1 + 1.2762/ln L) (Dusart), for L > 1."""
    log = math.log(limit)
    return int(limit / log * (1 + 1.2762 / log)) + 1


def _peak_estimate_bytes(limit: int, segment_bytes: int) -> int:
    """Bytes build_table holds at its peak: the output plus one segment buffer.

    8 bytes per prime at _prime_count_bound(limit), plus segment_bytes, or the
    number of odd candidates when that is fewer.
    """
    if limit < 2:
        return 0
    return 8 * _prime_count_bound(limit) + min(segment_bytes, (limit - 1) // 2)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to `limit`, sorted ascending, with O(log) pi queries."""

    limit: int
    primes: np.ndarray  # uint64, strictly increasing, read-only

    @property
    def count(self) -> int:
        """pi(limit): number of primes stored."""
        return int(self.primes.size)

    def _check_range(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"query argument must be nonnegative, got {n}")
        if n > self.limit:
            raise TableLimitError(
                f"query for {n} exceeds table limit {self.limit}; "
                f"build a larger table"
            )

    def prime_count(self, n: int) -> int:
        """pi(n): number of primes <= n.  Requires n <= limit."""
        self._check_range(n)
        return int(self.primes.searchsorted(np.uint64(n), side="right"))

    def pi_sum(self, values: np.ndarray) -> int:
        """Sum of pi(v) over a monotone uint64 array of queries.

        Only the two ends are range-checked, so the array must be sorted,
        ascending or descending; raises TableLimitError when either end
        exceeds the limit.
        """
        if values.size == 0:
            return 0
        self._check_range(max(int(values[0]), int(values[-1])))
        return int(self.primes.searchsorted(values, side="right").sum(dtype=np.int64))

    def is_prime(self, n: int) -> bool:
        """Exact membership test for n <= limit."""
        self._check_range(n)
        i = int(self.primes.searchsorted(np.uint64(n), side="left"))
        return i < self.primes.size and int(self.primes[i]) == n

    def primes_between(self, lo_exclusive: int, hi_inclusive: int) -> np.ndarray:
        """Primes p with lo_exclusive < p <= hi_inclusive, ascending.

        Returns a read-only view into the table; empty when the interval is.
        """
        self._check_range(hi_inclusive)
        if lo_exclusive >= hi_inclusive:
            return self.primes[:0]
        lo = max(lo_exclusive, 0)
        i = int(self.primes.searchsorted(np.uint64(lo), side="right"))
        j = int(self.primes.searchsorted(np.uint64(hi_inclusive), side="right"))
        return self.primes[i:j]

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
                fh.write(self.primes.astype("<u8", copy=False).tobytes())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def build_table(
    limit: int,
    *,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> PrimeTable:
    """Sieve all primes <= limit into an immutable PrimeTable.

    The output is allocated once, at Dusart's bound on pi(limit), before the
    base primes up to sqrt(limit) are built by this function.  Odd candidates
    are sieved in one reused buffer of segment_bytes, and each segment's
    primes are written in order into the output, so two builds with the same
    limit produce identical tables.  Raises MemoryBudgetError if the peak (see
    _peak_estimate_bytes) would not fit the budget, and MemoryError if the
    output cannot be allocated.
    """
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    if limit < 0 or limit > U64_MAX:
        raise ValueError(f"limit must be in [0, 2^64), got {limit}")
    if segment_bytes < 1:
        raise ValueError("segment_bytes must be positive")
    if memory_budget_bytes < 1:
        raise ValueError("memory_budget_bytes must be positive")

    estimate = _peak_estimate_bytes(limit, segment_bytes)
    if estimate > memory_budget_bytes:
        raise MemoryBudgetError(
            f"limit {limit} needs up to {estimate} bytes at peak, "
            f"over the {memory_budget_bytes}-byte budget; raise "
            f"memory_budget_bytes to override"
        )

    if limit < 2:
        empty = np.empty(0, dtype=np.uint64)
        empty.setflags(write=False)
        return PrimeTable(limit=limit, primes=empty)

    # Allocated first, so a table too large for memory fails before any sieving.
    out = np.empty(_prime_count_bound(limit), dtype=np.uint64)
    out[0] = 2
    n = 1

    # Odd n = 2i + 1 lives at index i, from 1 (the value 3).  The odd multiples
    # of p are the indices = (p - 1)/2 mod p, crossed off from p^2's index
    # (p - 1)/2 * (p + 1); for limits below 2^64 all are below 2^63, so int64 is exact.
    base = build_table(math.isqrt(limit)).primes[1:].astype(np.int64)
    base_idx = base // 2
    square_idx = base_idx * (base + 1)

    i_end = (limit - 1) // 2 + 1
    seg = np.empty(min(segment_bytes, i_end - 1), dtype=bool)
    for i0 in range(1, i_end, segment_bytes):
        i1 = min(i0 + segment_bytes, i_end)
        buf = seg[: i1 - i0]
        buf.fill(True)
        k = int(square_idx.searchsorted(i1))  # p^2 at or before the segment end
        offsets = np.maximum(square_idx[:k], i0 + (base_idx[:k] - i0) % base[:k]) - i0
        for o, p in zip(offsets.tolist(), base[:k].tolist()):
            buf[o::p] = False
        idx = np.flatnonzero(buf).view(np.uint64)
        dst = out[n : n + idx.size]
        np.multiply(idx, 2, out=dst)
        np.add(dst, 2 * i0 + 1, out=dst)
        n += idx.size

    primes = out[:n]
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)


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
    primes = np.frombuffer(blob, dtype="<u8", offset=_CACHE_HEADER.size).astype(
        np.uint64, copy=True
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
