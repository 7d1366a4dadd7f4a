import math
import random

import numpy as np
import pytest

from rsad import (
    CacheFormatError,
    MemoryBudgetError,
    PrimeTable,
    SieveWorkError,
    TableLimitError,
    build_table,
    load_table,
    prime_chunks,
    prime_pi,
)

from rsad.primes import (
    SIEVE_WORK_LIMIT,
    SWEEP_SEGMENT_BYTES,
    _OddSieve,
    _peak_estimate_bytes,
)

from oracles import pi_td, prime_list

KNOWN_PI = [
    (10, 4),
    (100, 25),
    (1000, 168),
    (10**4, 1229),
]


@pytest.mark.parametrize("n,expected", KNOWN_PI)
def test_prime_count_known_values(t10k, n, expected):
    assert t10k.prime_count(n) == expected


def test_prime_count_large_known_values(t10m):
    assert t10m.prime_count(10**5) == 9592
    assert t10m.prime_count(10**6) == 78498
    assert t10m.prime_count(10**7) == 664579


def test_prime_count_10e8(t100m):
    assert t100m.prime_count(10**8) == 5761455


def test_primes_match_trial_division():
    # every limit below 400 crosses each p^2 hand-off of the recursive base sieve
    for limit in range(400):
        assert build_table(limit).primes.tolist() == prime_list(limit), limit
    assert build_table(3000).primes.tolist() == prime_list(3000)


def test_prime_count_exhaustive_small(t10k):
    # every n up to 2000 against trial division (the acceptance suite
    # repeats this to 10^4)
    running = 0
    for n in range(2001):
        if n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1)):
            running += 1
        assert t10k.prime_count(n) == running


def test_tiny_limits():
    assert build_table(0).primes.size == 0
    assert build_table(1).primes.size == 0
    assert build_table(2).primes.tolist() == [2]
    assert build_table(3).primes.tolist() == [2, 3]
    assert build_table(4).primes.tolist() == [2, 3]


def test_count_property(t10k):
    assert t10k.count == 1229 + pi_td(10**4 + 64) - pi_td(10**4)


def test_query_above_limit_raises(t10k):
    with pytest.raises(TableLimitError) as info:
        t10k.prime_count(10**4 + 65)
    assert (info.value.required, info.value.limit) == (10**4 + 65, 10**4 + 64)
    with pytest.raises(ValueError):
        t10k.prime_count(-1)


def test_pi_sum(t10k):
    queries = np.array([10, 100, 1000], dtype=np.uint64)
    assert t10k.pi_sum(queries) == 4 + 25 + 168
    assert t10k.pi_sum(queries[::-1]) == 4 + 25 + 168
    assert t10k.pi_sum(queries[:0]) == 0
    over = np.array([10, t10k.limit + 1], dtype=np.uint64)
    with pytest.raises(TableLimitError):
        t10k.pi_sum(over)  # never answered as pi(limit)
    with pytest.raises(TableLimitError):
        t10k.pi_sum(over[::-1])


def test_primes_are_read_only(t10k):
    with pytest.raises(ValueError):
        t10k.primes[0] = 4


def test_segment_size_does_not_change_output():
    # segment edges fall on and between the start offsets of every base prime
    cases = [(10**4 + 1, 1229, [1, 2, 3, 64, 97]), (10**6, 78498, [97, 2**19])]
    for limit, pi, sizes in cases:
        base = build_table(limit)
        assert base.primes.dtype == np.uint64
        assert not base.primes.flags.writeable
        assert base.primes.size == base.count == pi
        for size in sizes:
            assert np.array_equal(build_table(limit, segment_bytes=size).primes, base.primes)


def test_sieve_ranges_match_trial_division():
    # any [lo, hi], split at any segment offset
    cases = [(0, 3000), (2, 2), (3, 3), (0, 1), (4, 100), (13, 169), (1000, 1500), (2999, 3000), (50, 40)]
    for size in (1, 4, 97, SWEEP_SEGMENT_BYTES):
        sieve = _OddSieve(3000, size)
        for lo, hi in cases:
            want = [p for p in prime_list(hi) if p >= lo]
            up = np.concatenate([np.empty(0, np.uint64), *sieve.primes(lo, hi)])
            assert up.dtype == np.uint64
            assert up.tolist() == want, (size, lo, hi)


def test_prime_pi_matches_prime_count(t10k, t10m):
    for n in range(3000):
        assert prime_pi(n) == t10k.prime_count(n), n
        streamed = np.concatenate([np.empty(0, np.uint64), *prime_chunks(n)])
        assert np.array_equal(streamed, t10k.primes[: t10k.prime_count(n)]), n
    rng = random.Random(20261020)
    for n in [rng.randrange(10**7) for _ in range(200)]:
        assert prime_pi(n) == t10m.prime_count(n), n


def test_no_sieve_runs_past_the_work_bound():
    # 2^36 admits sqrt(r*x) for every x < 2^64 with r <= 256
    assert math.isqrt(256 * (2**64 - 1)) <= SIEVE_WORK_LIMIT
    with pytest.raises(SieveWorkError):
        _OddSieve(SIEVE_WORK_LIMIT + 1, SWEEP_SEGMENT_BYTES)


def test_memory_budget_enforced():
    with pytest.raises(MemoryBudgetError):
        build_table(10**9, memory_budget_bytes=1000)
    # one byte below the finished table's 78498 u64 primes
    with pytest.raises(MemoryBudgetError, match="peak"):
        build_table(10**6, memory_budget_bytes=8 * 78498 - 1)
    # the peak is the output preallocated at Dusart's bound plus one segment
    peak = _peak_estimate_bytes(10**6, SWEEP_SEGMENT_BYTES)
    assert build_table(10**6, memory_budget_bytes=peak).count == 78498
    with pytest.raises(MemoryBudgetError, match="peak"):
        build_table(10**6, memory_budget_bytes=peak - 1)


def test_limit_validation():
    with pytest.raises(ValueError):
        build_table(-1)
    with pytest.raises(ValueError):
        build_table(2.5)


def test_save_load_round_trip(tmp_path, t10k):
    path = tmp_path / "primes.bin"
    t10k.save(path)
    loaded = load_table(path)
    assert loaded.limit == t10k.limit
    assert np.array_equal(loaded.primes, t10k.primes)


class _FailingBytes(np.ndarray):
    """A prime array whose serialisation fails, as a full disk would."""

    def tofile(self, *args, **kwargs):
        raise OSError("no space left on device")


def test_interrupted_save_keeps_existing_cache(tmp_path, t10k):
    path = tmp_path / "primes.bin"
    t10k.save(path)
    failing = PrimeTable(limit=100, primes=build_table(100).primes.view(_FailingBytes))
    with pytest.raises(OSError):
        failing.save(path)
    loaded = load_table(path)
    assert loaded.limit == t10k.limit
    assert np.array_equal(loaded.primes, t10k.primes)
    assert [p.name for p in tmp_path.iterdir()] == ["primes.bin"]


def test_load_rejects_bad_magic(tmp_path, t10k):
    path = tmp_path / "primes.bin"
    t10k.save(path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_table(path)


def test_load_rejects_truncation(tmp_path, t10k):
    path = tmp_path / "primes.bin"
    t10k.save(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CacheFormatError):
        load_table(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(CacheFormatError):
        load_table(tmp_path / "nope.bin")


def test_load_rejects_tampered_payload(tmp_path):
    table = build_table(100)
    path = tmp_path / "primes.bin"
    table.save(path)
    raw = bytearray(path.read_bytes())
    # overwrite the first prime (2) with 9, breaking monotonic order
    raw[21:29] = (9).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_table(path)
