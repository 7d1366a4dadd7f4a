import math
import random
import subprocess
import sys

import numpy as np
import pytest

from rsad import (
    CacheFormatError,
    PrimeTable,
    Ratio,
    SieveWorkError,
    TableLimitError,
    build_table,
    count_sweep,
    load_table,
    prime_pi,
)

import rsad.primes
from rsad import analytic
from rsad.analytic import _INT_PI_BELOW, _int_lucy
from rsad.primes import (
    SIEVE_WORK_LIMIT,
    SWEEP_SEGMENT_BYTES,
    _PRIME_SLICE,
    _WHEEL,
    _WHEEL_PRIMES,
    _OddSieve,
    _peak_estimate_bytes,
    lucy,
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


def test_prime_count_10e8():
    assert build_table(10**8).prime_count(10**8) == 5761455


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


def test_pi(t10k):
    queries = np.array([10, 100, 1000], dtype=np.uint64)
    assert t10k.pi(queries).tolist() == [4, 25, 168]
    assert t10k.pi(queries).sum() == 4 + 25 + 168
    assert t10k.pi(queries[::-1]).sum() == 4 + 25 + 168
    assert t10k.pi(queries[:0]).sum() == 0
    over = np.array([10, t10k.limit + 1], dtype=np.uint64)
    with pytest.raises(TableLimitError):
        t10k.pi(over)  # never answered as pi(limit)
    with pytest.raises(TableLimitError):
        t10k.pi(over[::-1])


def test_primes_are_read_only(t10k):
    with pytest.raises(ValueError):
        t10k.primes[0] = 4


def test_segment_size_does_not_change_output(monkeypatch):
    # segment edges fall on and between the start offsets of every base prime
    cases = [(10**4 + 1, 1229, [1, 2, 3, 64, 97]), (10**6, 78498, [97, 2**19])]
    for limit, pi, sizes in cases:
        base = build_table(limit)
        assert base.primes.dtype == np.uint64
        assert not base.primes.flags.writeable
        assert base.primes.size == base.count == pi
        for size in sizes:
            monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", size)
            assert np.array_equal(build_table(limit).primes, base.primes)
        monkeypatch.undo()


def test_patched_segment_size_reaches_every_sieve(monkeypatch):
    # a size captured at import, in a default argument or in a module-level
    # copy would sieve each range below in one segment, and every test that
    # varies the size would silently run on one segment
    calls = []
    segments = _OddSieve.segments

    def recording_segments(self, lo, hi):
        call = [lo, hi, 0]
        calls.append(call)
        for seg in segments(self, lo, hi):
            call[2] += 1
            yield seg

    monkeypatch.setattr(_OddSieve, "segments", recording_segments)
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", 97)
    # the base tables to 3, 10 and 100 fit one segment each; the 5000 odd
    # numbers up to 10^4 take ceil(5000 / 97) = 52
    build_table(10**4)
    assert calls == [[0, 3, 1], [0, 10, 1], [0, 100, 1], [0, 10**4, 52]]
    calls.clear()
    list(_OddSieve(10**4).primes(2, 10**4))
    assert calls == [[0, 3, 1], [0, 10, 1], [0, 100, 1], [0, 10**4, 52]]
    calls.clear()
    # the sweep to isqrt(2 * 10^6) = 1414 over its 707 odd numbers takes 8,
    # and its s2 stream of the 354 odd p <= 707 takes 4
    count_sweep(10**6, Ratio(2))
    runs = {(lo, hi): n for lo, hi, n in calls}
    assert (runs[0, 1414], runs[0, 707]) == (8, 4)


def test_sieve_ranges_match_trial_division(monkeypatch):
    # any [lo, hi], split at any segment offset
    cases = [(0, 3000), (2, 2), (3, 3), (0, 1), (4, 100), (13, 169), (1000, 1500), (2999, 3000), (50, 40)]
    for size in (1, 4, 97, SWEEP_SEGMENT_BYTES):
        monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", size)
        sieve = _OddSieve(3000)
        for lo, hi in cases:
            want = [p for p in prime_list(hi) if p >= lo]
            up = np.concatenate([np.empty(0, np.uint64), *sieve.primes(lo, hi)])
            assert up.dtype == np.uint64
            assert up.tolist() == want, (size, lo, hi)


@pytest.mark.parametrize("size,limit", [
    (1, 3000), (97, 10**5), (15016, 10**6), (SWEEP_SEGMENT_BYTES, 3 * 10**6),
])
def test_sieve_primes_come_in_slices(monkeypatch, size, limit):
    # ranges that start or end one number before, on and after each segment
    # edge and each slice edge within a segment (odd n = 2i + 1 at index i)
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", size)
    sieve = _OddSieve(limit)
    table = build_table(limit).primes
    edges = {e for e in (size, 2 * size, _PRIME_SLICE, size + _PRIME_SLICE) if 2 * e < limit}
    bounds = sorted({0, 2, 3, limit} | {2 * e + d for e in edges for d in (-1, 0, 1)})
    for lo in bounds:
        for hi in bounds:
            chunks = list(sieve.primes(lo, hi))
            assert all(c.dtype == np.uint64 and c.size <= _PRIME_SLICE for c in chunks)
            assert all(np.all(c[1:] > c[:-1]) for c in chunks), (lo, hi)
            tops = [int(c[-1]) for c in chunks if c.size]
            bottoms = [int(c[0]) for c in chunks if c.size]
            assert all(a < b for a, b in zip(tops, bottoms[1:])), (lo, hi)
            want = table[(table >= lo) & (table <= hi)]
            assert np.array_equal(np.concatenate([np.empty(0, np.uint64), *chunks]), want), (lo, hi)


@pytest.mark.parametrize("size", [1, 97, 15016, 3 * _WHEEL + 7, SWEEP_SEGMENT_BYTES])
def test_wheel_fill_is_the_full_pattern_copy(monkeypatch, size):
    # with no base prime crossed off, a segment is the wheel fill alone: one
    # period broadcast over rows of _WHEEL flags, and a tail, must equal the
    # slice of a pattern as long as the segment plus a period
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", size)
    sieve = _OddSieve(2 * 10**7)
    sieve.square_idx = sieve.square_idx[:0]
    full = np.ones(_WHEEL + size, dtype=bool)
    for p in _WHEEL_PRIMES:
        full[p // 2 :: p] = False
    i_lo = 7 + 12345  # above the small odd candidates the pattern gets wrong
    n = min(40 * size, 3 * SWEEP_SEGMENT_BYTES) - 3  # the last segment is short
    segments = 0
    for seg in sieve.segments(2 * i_lo, 2 * (i_lo + n)):
        w = seg.lo // 2 % _WHEEL
        assert np.array_equal(seg.flags, full[w : w + seg.flags.size]), (size, seg.lo)
        segments += 1
    assert segments == -(-n // size)


@pytest.mark.parametrize("limit", [10**3, 10**5, 10**6, 10**7, 3 * 10**7])
def test_build_table_peak_is_within_its_estimate(traced_peak, limit):
    # the CLI admits a build under --memory-budget-bytes on this estimate, so
    # it must not under-count: when each segment's primes came whole, the
    # estimate read 0.19 MB at 1e5 against a traced 0.35 MB
    assert traced_peak(build_table, limit) <= _peak_estimate_bytes(limit)


def test_prime_pi_matches_prime_count(t10k, t10m):
    for n in range(3000):
        assert prime_pi(n) == t10k.prime_count(n), n
        streamed = np.concatenate([np.empty(0, np.uint64), *_OddSieve(n).primes(2, n)])
        assert np.array_equal(streamed, t10k.primes[: t10k.prime_count(n)]), n
    rng = random.Random(20261020)
    for n in [rng.randrange(10**7) for _ in range(200)]:
        assert prime_pi(n) == t10m.prime_count(n), n


def test_prime_pi_known_values():
    assert prime_pi(10**9) == 50847534
    assert prime_pi(2**32) == 203280221


def test_prime_pi_at_prime_squares(t10m):
    # S(v) first changes at p^2 in the step for p
    for p in prime_list(1000):
        assert prime_pi(p * p) == t10m.prime_count(p * p), p
        assert prime_pi(p * p - 1) == t10m.prime_count(p * p - 1), p


def _count_and_sum(table, n):
    primes = table.primes[: table.prime_count(n)]
    return primes.size, int(primes.sum())  # the uint64 sum wraps mod 2^64


def test_lucy_prime_sum_is_the_tables_sum(t10k, t10m):
    # the uint64 arrays wrap at every subtraction that goes below zero
    for n in range(3000):
        assert lucy(n, with_sum=True) == _count_and_sum(t10k, n), n
    rng = random.Random(20261021)
    for n in [rng.randrange(10**7) for _ in range(50)] + [p * p + d for p in prime_list(100)
                                                         for d in (-1, 0)]:
        assert lucy(n, with_sum=True) == _count_and_sum(t10m, n), n


@pytest.fixture(scope="module")
def t2_27():
    return build_table(2**27)


def test_integer_recursion_matches_the_sieve(t10k, t2_27):
    assert _INT_PI_BELOW == 2**27
    for n in range(3000):
        assert _int_lucy(n) == t10k.prime_count(n), n
    assert _int_lucy(2**27 - 1) == _int_lucy(2**27) == t2_27.count == 7603553
    rng = random.Random(20261022)
    for n in [rng.randrange(2**27) for _ in range(50)]:
        assert _int_lucy(n) == t2_27.prime_count(n), n


def test_integer_count_and_sum_match_the_sieve(t10k, t10m):
    # the count and sum, as the CLI checks its lists of primes
    for n in range(3000):
        assert _int_lucy(n, with_sum=True) == _count_and_sum(t10k, n), n
    rng = random.Random(20261023)
    for n in [rng.randrange(10**7) for _ in range(20)] + [p * p + d for p in prime_list(100)
                                                         for d in (-1, 0)] + [2**20 - 1]:
        assert _int_lucy(n, with_sum=True) == _count_and_sum(t10m, n), n
        assert _int_lucy(n, with_sum=True)[0] == _int_lucy(n), n


@pytest.mark.parametrize("p_max", [1000, pytest.param(10**4, marks=pytest.mark.slow)])
def test_integer_recursion_at_prime_squares(t2_27, p_max):
    # S(v) first changes at p^2 in the step for p; p up to 10^4 takes about 45 s
    for p in prime_list(p_max):
        assert _int_lucy(p * p) == t2_27.prime_count(p * p), p
        assert _int_lucy(p * p - 1) == t2_27.prime_count(p * p - 1), p


def test_prime_pi_runs_numpys_recursion_once_numpy_is_imported(monkeypatch):
    # numpy is imported in this process, so the integer recursion never runs
    def no_integers(n):
        raise AssertionError("the integer recursion ran")

    monkeypatch.setattr(analytic, "_int_lucy", no_integers)
    assert prime_pi(1000) == 168
    assert prime_pi(2**27) == 7603553


def test_prime_pi_switches_to_numpy_at_2_27(child_env):
    # a fresh process: the integer recursion answers 2^27 - 1 with no numpy,
    # and numpy's recursion answers 2^27
    script = ("import sys, rsad\n"
              "for n in (2**27 - 1, 2**27):\n"
              "    print(rsad.prime_pi(n), 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=child_env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "7603553 False\n7603553 True\n"


def test_prime_pi_is_independent_of_the_sieve(monkeypatch, capsys):
    from rsad import cli

    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve ran")

    cli._bind_sieving_names()  # so no patched function stays bound on cli
    monkeypatch.setattr(_OddSieve, "segments", no_sieve)
    monkeypatch.setattr(_OddSieve, "__init__", no_sieve)
    monkeypatch.setattr(rsad.primes, "build_table", no_sieve)
    assert prime_pi(10**6) == 78498
    assert cli.main(["pi", "--x", "1e6"]) == 0
    assert capsys.readouterr().out == "78498\n"


@pytest.mark.slow
def test_prime_pi_at_the_work_bound():
    # test_no_sieve_runs_past_the_work_bound checks that one more is refused
    assert prime_pi(SIEVE_WORK_LIMIT) == 2874398515


def test_no_sieve_runs_past_the_work_bound():
    # 2^36 admits sqrt(r*x) for every x < 2^64 with r <= 256
    assert math.isqrt(256 * (2**64 - 1)) <= SIEVE_WORK_LIMIT
    with pytest.raises(SieveWorkError):
        _OddSieve(SIEVE_WORK_LIMIT + 1)
    with pytest.raises(SieveWorkError):
        prime_pi(SIEVE_WORK_LIMIT + 1)  # pi keeps the bound by choice


def test_memory_budget_enforced(capsys, monkeypatch):
    # the CLI admits a brute count on its table's peak before building it;
    # at r = x the table runs to x
    from rsad import cli

    built = []

    def recording_build_table(limit):
        built.append(build_table(limit))
        return built[-1]

    def count_brute(x, budget):
        return cli.main(["count", "--x", str(x), "--r", str(x), "--method", "brute",
                         "--brute-budget", str(x), "--memory-budget-bytes", str(budget)])

    monkeypatch.setattr(cli, "build_table", recording_build_table)
    # the peak is the output preallocated at Dusart's bound plus what the
    # sieve holds
    peak = _peak_estimate_bytes(10**6)
    # 8 * 78498 - 1 is one byte below the finished table's 78498 u64 primes
    for x, budget in [(10**9, 1000), (10**6, 8 * 78498 - 1), (10**6, peak - 1)]:
        assert count_brute(x, budget) == 3
        assert "at peak" in capsys.readouterr().err
    assert built == []
    assert count_brute(10**6, peak) == 0
    assert [table.count for table in built] == [78498]


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
