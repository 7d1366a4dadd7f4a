import collections
import decimal
import math
import os
import random
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from rsad import (
    CountReport,
    Decomposition,
    Ratio,
    SieveWorkError,
    TableLimitError,
    brute_counts_upto,
    count_brute,
    count_identity,
    count_pi2,
    count_report,
    count_sweep,
    count_sweep_grid,
    rsa_count_estimate,
)
import rsad.primes
from rsad import counting
from rsad.counting import _required_limit
from rsad.exact import identity_counts_list
from rsad.primes import SWEEP_SEGMENT_BYTES

from oracles import prime_list, rsa_count_pairs, semiprime_count

RATIOS = [Ratio(3, 2), Ratio(2), Ratio(5), Ratio(10)]


# --- Ratio ---------------------------------------------------------------

def test_ratio_parse_forms():
    assert Ratio.parse("2") == Ratio(2, 1)
    assert Ratio.parse("3/2") == Ratio(3, 2)
    assert Ratio.parse("1.5") == Ratio(3, 2)
    assert Ratio.parse("2.50") == Ratio(5, 2)
    assert Ratio.parse(" 10 ") == Ratio(10)
    assert Ratio.parse("6/4") == Ratio(3, 2)
    # 5/2 once reduced, though 250000000000000000000/10^20 does not fit 64 bits
    assert Ratio.parse("2.50000000000000000000") == Ratio(5, 2)


@pytest.mark.parametrize("bad", [
    "0.5", "-1", "abc", "3/0", "1/2", "", "2/3/4", "2.-5", "2.+5", "2.1_0",
])
def test_ratio_parse_rejects(bad):
    with pytest.raises(ValueError):
        Ratio.parse(bad)


def test_ratio_reduction_and_equality():
    assert Ratio(6, 4) == Ratio(3, 2)
    assert Ratio(4, 2) == Ratio(2)
    assert str(Ratio(6, 4)) == "3/2"
    assert str(Ratio(4, 2)) == "2"
    assert Ratio(10**20, 10**20) == Ratio(1)


def test_ratio_floor_mul():
    assert Ratio(3, 2).floor_mul(7) == 10
    assert Ratio(3, 2).floor_mul(8) == 12
    assert Ratio(2).floor_mul(5) == 10
    assert Ratio(1).floor_mul(9) == 9


def test_ratio_numerics():
    assert float(Ratio(3, 2)) == 1.5
    assert Ratio(1).log() == 0.0
    assert Ratio(2).log() == pytest.approx(math.log(2), rel=1e-15, abs=0)
    assert Ratio(3).log() == math.log(3)  # log1p(2) is 1 ulp off


@pytest.mark.parametrize("num,den", [(2**64 - 1, 2**64 - 2), (1000001, 1000000)])
def test_estimate_for_r_near_one_keeps_its_digits(num, den):
    # log(num) - log(den) cancels: the first ratio gave an estimate of 0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        log_r = (decimal.Decimal(num) / decimal.Decimal(den)).ln()
        want = 2 * 10 * log_r / decimal.Decimal(10).ln() ** 2
    assert rsa_count_estimate(10, Ratio(num, den)) == pytest.approx(float(want), rel=1e-12, abs=0)


def test_ratio_validation():
    with pytest.raises(ValueError):
        Ratio(1, 2)
    with pytest.raises(ValueError):
        Ratio(3, 0)
    with pytest.raises(ValueError):
        Ratio(1.5)  # floats must go through parse
    with pytest.raises(ValueError):
        Ratio(2**64, 1)


# --- brute versus oracle -------------------------------------------------

@pytest.mark.parametrize("r", RATIOS)
def test_count_brute_matches_pair_oracle(t10k, r):
    for x in [0, 1, 5, 6, 7, 35, 36, 100, 500, 1000, 2000]:
        assert count_brute(x, r, t10k) == rsa_count_pairs(x, r.num, r.den)


def test_count_brute_matches_the_list_counter_at_random_x(t10m):
    # one pi query over the bounds min(floor(r*p), x // p); the ratios reach
    # (2^62+3)/2^61, whose floor(r*p) leaves uint64 arithmetic, and 2^64 - 1,
    # whose floor(r*p) passes 2^64 wherever it is not the bound
    from rsad.exact import count_brute_list

    plist = t10m.primes.tolist()
    rng = random.Random(20261103)
    wide = [Ratio(2**62 + 3, 2**61), Ratio(2**64 - 1), Ratio(2**64 - 1, 2**64 - 2)]
    for i in range(300):
        r = wide[i % 3] if i < 60 else Ratio(rng.randrange(1, 10**6), rng.choice([1, 2, 7, 1000]))
        if r.num < r.den:
            r = Ratio(r.den, r.num)
        limit = int(math.exp(rng.uniform(0, math.log(2**20))))
        # x <= limit, or isqrt(floor(r*x)) <= limit: _required_limit(x, r) <= limit
        x = rng.randrange(max(limit, ((limit + 1) ** 2 * r.den - 1) // r.num) + 1)
        primes = plist[: t10m.prime_count(_required_limit(x, r))]
        assert count_brute(x, r, t10m) == count_brute_list(primes, x, r), (x, r)


@pytest.mark.parametrize("x,r", [(10**12, Ratio(2)), ((2**20 - 1) ** 2, Ratio(1))], ids=str)
def test_count_brute_stays_within_its_tables_admitted_peak(x, r, traced_peak):
    # the CLI admits a brute count on its table's peak alone; count_brute's
    # bounds and pi answers over every prime up to sqrt(x) at once (about
    # 2.5 MB at 10^12) would pass it, a slice of them stays well within
    limit = _required_limit(x, r)
    table = rsad.primes.build_table(limit)
    peak = traced_peak(count_brute, x, r, table)
    assert table.primes.nbytes + peak <= rsad.primes._peak_estimate_bytes(limit)


def test_count_brute_known_small_values(t10k):
    # r=2 RSA integers: 6, 15, 35, 77, 91, 143, 187, ...
    assert count_brute(5, Ratio(2), t10k) == 0
    assert count_brute(6, Ratio(2), t10k) == 1
    assert count_brute(14, Ratio(2), t10k) == 1
    assert count_brute(15, Ratio(2), t10k) == 2
    assert count_brute(100, Ratio(2), t10k) == 5
    assert count_brute(200, Ratio(2), t10k) == 7


def test_count_brute_table_too_small():
    from rsad import build_table

    small = build_table(100)
    with pytest.raises(TableLimitError) as info:
        count_brute(10**4, Ratio(2), small)
    assert (info.value.required, info.value.limit) == (math.isqrt(2 * 10**4), 100)
    assert "too small" in str(info.value)


# --- identity versus brute ----------------------------------------------

@pytest.mark.parametrize("r", RATIOS)
def test_count_identity_matches_brute_exhaustive(t10k, r):
    for x in range(2001):
        assert count_identity(t10k, x, r).total == count_brute(x, r, t10k)


def test_count_identity_decomposition_spot(t10k):
    d = count_identity(t10k, 100, Ratio(2))
    assert (d.s1, d.s2, d.s3, d.total) == (10, 15, 0, 5)


def test_count_identity_spread(t100k):
    for x in [10**4, 31623, 10**5]:
        for r in RATIOS:
            assert count_identity(t100k, x, r).total == count_brute(x, r, t100k)


@pytest.mark.parametrize("x,expected", [(10**4, 169), (10**5, 1128), (10**6, 8097)])
def test_wide_ratio_matches_audited_r2_counts(t10k, x, expected):
    # r = 2 + 3/2^61: num * p >= 2^62 for every p, so s2 scales the primes
    # in exact integers; no q = 2p is prime, so the counts are C_2's
    r = Ratio(2**62 + 3, 2**61)
    assert count_identity(t10k, x, r).total == expected
    assert count_brute(x, r, t10k) == expected


def test_count_identity_unit_ratio(t10k):
    # r=1 admits no pairs at all: p < q <= p is empty
    for x in [0, 10, 100, 10**4]:
        assert count_identity(t10k, x, Ratio(1)).total == 0


def test_count_identity_table_too_small(t10k):
    with pytest.raises(TableLimitError) as info:
        count_identity(t10k, 10**8, Ratio(2))
    assert info.value.required == math.isqrt(2 * 10**8)


def test_required_limit():
    assert _required_limit(10**8, Ratio(2)) == 14142
    assert _required_limit(100, Ratio(3, 2)) == 12
    assert _required_limit(100, Ratio(1)) == 10
    # no pi argument exceeds x, however large r is
    assert _required_limit(100, Ratio(101)) == 100
    assert _required_limit(10**6, Ratio(10**12)) == 10**6


# --- table-free sweep ---------------------------------------------------

SWEEP_RATIOS = [Ratio(3, 2), Ratio(2), Ratio(10), Ratio(7, 3), Ratio(2**62 + 3, 2**61)]


@pytest.mark.parametrize("r", SWEEP_RATIOS, ids=str)
def test_count_sweep_matches_identity_below_3000(t10k, r):
    for x in range(3000):
        assert count_sweep(x, r) == count_identity(t10k, x, r), x


@pytest.mark.parametrize("segment_bytes", [1, 4, 97])
def test_count_sweep_segment_size_does_not_change_output(monkeypatch, t10k, segment_bytes):
    # segment edges fall between the arguments of one segment, and of one
    # prime stream, at every offset
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    for r in SWEEP_RATIOS:
        for x in range(0, 3000, 23):
            got = count_sweep(x, r)
            assert got == count_identity(t10k, x, r), (x, r)


@pytest.mark.parametrize("segment_bytes,x_max", [
    (1, 10**6), (4, 10**6), (97, 10**9), (SWEEP_SEGMENT_BYTES, 10**9),
])
def test_count_sweep_matches_identity_random(monkeypatch, t100k, segment_bytes, x_max):
    rng = random.Random(20261018 + segment_bytes)
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    for r in SWEEP_RATIOS:
        for x in [rng.randrange(x_max) for _ in range(10)]:
            got = count_sweep(x, r)
            assert got == count_identity(t100k, x, r), (x, r)


def test_count_sweep_ratio_above_x(t10k):
    # sqrt(x/r) < 1, so s2 is empty, and the sweep stops at x, not sqrt(r*x)
    for x in [0, 1, 4, 9, 100, 9973]:
        r = Ratio(x + 1)
        d = count_sweep(x, r)
        assert d.s2 == 0
        assert d == count_identity(t10k, x, r)


def test_count_sweep_s2_is_the_frozen_pi_rp_sum():
    # s2 at x = 2*10^12, r = 2 is the sum of pi(2p) over p <= 10^6
    assert count_sweep(2 * 10**12, Ratio(2)).s2 == 5828801128


def test_count_sweep_reference_value_1e16():
    assert count_sweep(10**16, Ratio(2)).total == 10818912949586


@pytest.mark.slow
@pytest.mark.parametrize("x,expected", [
    (10**17, 95496219725167),
    (10**18, 849125507548358),
    (2**64 - 1, 13625007731678062),
])
def test_count_sweep_reference_values_large(x, expected):
    assert count_sweep(x, Ratio(2)).total == expected


# Each sweep's pi(limit), pi(p1) and pi(p2) stream counts matched an
# independent Lucy_Hedgehog pi before these were frozen.
@pytest.mark.slow
@pytest.mark.parametrize("r,expected", [
    (Ratio(3, 2), 7969707623915191),
    (Ratio(10), 45300254716288457),
], ids=str)
def test_count_sweep_full_width_across_ratios(r, expected):
    assert count_sweep(2**64 - 1, r).total == expected


@pytest.mark.parametrize("segment_bytes", [1, 97, SWEEP_SEGMENT_BYTES])
def test_count_sweep_sieves_each_band_prime_once(monkeypatch, segment_bytes):
    # besides the s2 stream's one range [2, p2], the sweep sieves x's band
    # (p2, p1] once over, each p when the segment that holds x // p comes up
    calls = []
    numbers = 2 * segment_bytes  # a segment answers the arguments in (k*numbers, (k+1)*numbers]

    class RecordingSieve(counting._OddSieve):
        def primes(self, lo, hi):
            calls.append((lo, hi))
            return super().primes(lo, hi)

    monkeypatch.setattr(counting, "_OddSieve", RecordingSieve)
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    for x, r in [(10**6, Ratio(2)), (10**7 + 19, Ratio(3, 2)), (5 * 10**6, Ratio(10)),
                 (3000, Ratio(1))]:
        calls.clear()
        count_sweep(x, r)
        p1, p2 = math.isqrt(x), math.isqrt(x * r.den // r.num)
        assert calls[0] == (2, p2)
        tiles = sorted(p for lo, hi in calls[1:] for p in range(lo, hi + 1))
        assert tiles == list(range(p2 + 1, p1 + 1)), (x, str(r))
        for lo, hi in calls[1:]:
            assert (x // hi - 1) // numbers == (x // lo - 1) // numbers, (x, str(r), lo, hi)


@pytest.mark.parametrize("segment_bytes", [1, 97, SWEEP_SEGMENT_BYTES])
def test_count_sweep_grid_sieves_each_band_prime_once_per_x(monkeypatch, segment_bytes):
    # on a grid, each p is sieved once for every x whose band (p2, p1] holds
    # it, by calls that are never empty and each lie in one segment of some x
    calls = []
    numbers = 2 * segment_bytes

    class RecordingSieve(counting._OddSieve):
        def primes(self, lo, hi):
            calls.append((lo, hi))
            return super().primes(lo, hi)

    monkeypatch.setattr(counting, "_OddSieve", RecordingSieve)
    monkeypatch.setattr(counting, "_FORK_MIN_NUMBERS", math.inf)  # a forked sieve records nothing here
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    dense = list(range(3000, 3101))
    decades = [round(10 ** (k / 4)) for k in range(24, 37)]  # 1e6..1e9, 4 a decade
    # r = 1 leaves every band empty and r = 10^12 leaves s2 empty; the
    # latter sweeps to x itself, so it takes the dense grid alone
    for grid, r in [(dense, Ratio(2)), (dense, Ratio(1)), (dense, Ratio(10**12)),
                    (decades, Ratio(2)), (decades, Ratio(1))]:
        calls.clear()
        count_sweep_grid(grid, r)
        bands = [(x, math.isqrt(x * r.den // r.num), math.isqrt(x)) for x in grid]
        assert calls[0] == (2, bands[-1][1]), str(r)
        assert all(lo <= hi for lo, hi in calls[1:]), str(r)
        tiles = collections.Counter(p for lo, hi in calls[1:] for p in range(lo, hi + 1))
        assert tiles == collections.Counter(
            p for _, p2, p1 in bands for p in range(p2 + 1, p1 + 1)), str(r)
        for lo, hi in calls[1:]:
            assert any(p2 < lo and hi <= p1
                       and (x // hi - 1) // numbers == (x // lo - 1) // numbers
                       for x, p2, p1 in bands), (str(r), lo, hi)


def test_count_sweep_memory_holds_no_pending_band_arguments(monkeypatch, traced_peak):
    # the whole sweep runs in this process
    monkeypatch.setattr(counting, "_FORK_MIN_NUMBERS", math.inf)
    peak = traced_peak(count_sweep, 10**16, Ratio(2))
    # about 4.2 MB; a whole segment's primes and s2 arguments at a time, not
    # one slice's, peaked at 9.3 MB, and sieving each band ahead in blocks
    # and keeping the arguments until their segment came up at 11.9 MB
    assert peak < 5 * 2**20


@pytest.mark.parametrize("segment_bytes,limit", [
    (1, 301),
    (97, 10**5 + 1),
    (2**20 - 8, 9999991),
    (SWEEP_SEGMENT_BYTES, 9999991),
])
def test_segment_pi_matches_the_table_at_word_edges(monkeypatch, t10m, segment_bytes, limit):
    # flags 0, 63, 64 and 65 and each segment's last flag, at the odd n of
    # the flag and the even n + 1; each limit leaves a last segment that is
    # not a whole number of words, and 2^20 - 8 bytes pads every segment
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    padded = 0
    for seg in rsad.primes._OddSieve(limit).segments(0, limit):
        flags = seg.flags
        words, upto = seg._packed
        assert words.size == -(-flags.size // 64)
        assert upto[-1] == np.bitwise_count(words).sum() == flags.sum()
        assert seg.count == t10m.prime_count(seg.hi) - t10m.prime_count(seg.lo)
        padded += flags.size % 64 != 0
        edges = [t for t in (0, 63, 64, 65, flags.size - 1) if t < flags.size]
        args = np.array(sorted({seg.lo + 2 * t + 1 + e for t in edges for e in (0, 1)}),
                        dtype=np.uint64)
        want = t10m.pi(args) - t10m.prime_count(seg.lo)
        assert (seg.pi(args) == want).all(), seg.lo
    assert flags.size % 64 and padded


def test_count_sweep_validation():
    with pytest.raises(ValueError):
        count_sweep(-1, Ratio(2))
    with pytest.raises(ValueError):
        count_sweep(2**64, Ratio(2))


@pytest.mark.parametrize("segment_bytes,x_maxes", [
    (1, (3000, 10**5)),
    (4, (3000, 10**6)),
    (97, (3000, 10**6, 10**9)),
    (SWEEP_SEGMENT_BYTES, (3000, 10**6, 10**9, 10**12)),
])
def test_count_sweep_grid_matches_count_sweep_at_every_point(monkeypatch, segment_bytes, x_maxes):
    rng = random.Random(20261019 + segment_bytes)
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    for r in SWEEP_RATIOS:
        for x_max in x_maxes:
            # dense and sparse grids, repeats and the x < 4 with no prime p <= sqrt(x)
            grid = sorted(rng.randrange(x_max) for _ in range(rng.choice((3, 12, 40))))
            grid = sorted([0, 1, 3] + grid + grid[-2:])
            got = count_sweep_grid(grid, r)
            want = [count_sweep(x, r) for x in grid]
            assert got == want, (str(r), grid)


def test_count_sweep_grid_every_x_below_3000(t10k):
    # r = 1 leaves every band empty; r = 10^12 leaves s2 empty, and each
    # band spans every p <= sqrt(x)
    for r in SWEEP_RATIOS + [Ratio(1), Ratio(10**12)]:
        grid = list(range(3000))
        assert count_sweep_grid(grid, r) == [count_identity(t10k, x, r) for x in grid]


def test_count_sweep_grid_memory_does_not_grow_with_density(monkeypatch, traced_peak):
    from rsad.cli import _geometric_grid

    # the whole sweep runs in this process
    monkeypatch.setattr(counting, "_FORK_MIN_NUMBERS", math.inf)
    peaks = [traced_peak(count_sweep_grid, _geometric_grid(10**12, 10**13, n), Ratio(2))
             for n in (4, 100)]
    # about 4.1 MB either way, 8.1 MB with a whole segment's primes at a
    # time; holding each x's answered arguments made it 32 MB
    assert peaks[1] < peaks[0] + 2**21
    assert peaks[1] < 5 * 2**20


def test_count_sweep_grid_shapes_and_validation():
    assert count_sweep_grid([], Ratio(2)) == []
    assert count_sweep_grid([2, 3], Ratio(2)) == [Decomposition(0, 0, 0)] * 2
    with pytest.raises(ValueError):
        count_sweep_grid([100, 99], Ratio(2))
    with pytest.raises(ValueError):
        count_sweep_grid([100, 2**64], Ratio(2))


# --- the sweep in ranges -------------------------------------------------

CUT_COUNTS = (1, 2, 3, 7)


def _sweep_end(xs, r):
    return _required_limit(xs[-1], r)


def _boundary_cuts(x, r, end, k, rng):
    """Up to k even cuts in (0, end), each putting a pi argument of x on the
    first or last number of a range, s2 arguments floor(r*p) and band
    arguments floor(x/p) in turn.

    The range from cut c answers the arguments from c + 1 and the range up
    to c those up to c, so c = 2*(v // 2) puts an odd v first in a range and
    an even v last.
    """
    p1, p2 = math.isqrt(x), math.isqrt(x * r.den // r.num)
    kinds = [
        {2 * (v // 2) for v in args if 0 < 2 * (v // 2) < end}
        for args in ([r.floor_mul(p) for p in prime_list(p2)],
                     [x // p for p in prime_list(p1) if p > p2])
    ]
    rng.shuffle(kinds)
    cuts = set()
    for i in range(k):
        spots = sorted(kinds[i % 2] - cuts) or sorted(kinds[(i + 1) % 2] - cuts)
        if spots:
            cuts.add(rng.choice(spots))
    return sorted(cuts)


def _check_ranges(xs, r, x, rng, ks):
    end = _sweep_end(xs, r)
    want = counting._sweep_in_ranges(xs, r, [0, end])
    for k in ks:
        cuts = _boundary_cuts(x, r, end, k, rng)
        assert len(cuts) == k, (str(r), x, k)
        got = counting._sweep_in_ranges(xs, r, [0] + cuts + [end])
        assert got == want, (str(r), cuts)


@pytest.mark.parametrize("segment_bytes", [4, 97])
def test_sweep_ranges_match_one_range_at_every_x_below_3000(monkeypatch, segment_bytes):
    # each ratio takes one cut count, and each segment size the next one, so
    # every count meets both segment sizes (1-byte segments take 9 s here;
    # the random grids cover them); the ranges run in this process
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 1)
    rng = random.Random(20261021 + segment_bytes)
    grid = list(range(3000))
    for i, r in enumerate(SWEEP_RATIOS):
        k = CUT_COUNTS[(i + segment_bytes) % len(CUT_COUNTS)]
        _check_ranges(grid, r, rng.randrange(1000, 3000), rng, [k])


@pytest.mark.parametrize("segment_bytes,x_max", [(1, 10**6), (4, 10**6), (97, 10**9)])
def test_sweep_ranges_match_one_range_on_random_grids(monkeypatch, segment_bytes, x_max):
    monkeypatch.setattr(rsad.primes, "SWEEP_SEGMENT_BYTES", segment_bytes)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 1)
    rng = random.Random(20261022 + segment_bytes)
    for r in SWEEP_RATIOS:
        grid = sorted([0, 1, 3] + [rng.randrange(x_max) for _ in range(rng.choice((3, 12)))])
        _check_ranges(grid, r, rng.choice(grid[3:]), rng, CUT_COUNTS)


def test_sweep_merge_is_exact_at_its_int64_bound(monkeypatch):
    # four ranges whose prime counts add up to about pi(2^36), and four x
    # whose pi(2^32) arguments per sum are spread over them in different
    # ways, each argument counting every prime of its range: the totals
    # reach pi(2^32)*pi(2^36), past a float's 2^53 and an int32's range
    pi32, pi36 = 203280221, 2874398515
    counts = [pi36 // 4, pi36 // 4, pi36 // 4 + 1, pi36 - 3 * (pi36 // 4) - 1]
    splits = [[pi32 // 4] * 3 + [pi32 - 3 * (pi32 // 4)], [0, 0, 0, pi32], [pi32, 0, 0, 0],
              [1, pi32 - 2, 0, 1]]

    def synthetic_range(xs, r, lo, hi):
        n = np.array([split[lo] for split in splits], dtype=np.int64)
        return (n, n * counts[lo], n, n * counts[lo]), counts[lo]

    want = []
    for split in splits:
        k1 = total = below = 0
        for n, count in zip(split, counts):
            k1 += 2 * n
            total += n * below + n * count
            below += count
        want.append(Decomposition(s1=k1 * (k1 + 1) // 2, s2=total, s3=total))
    assert max(d.s2 for d in want) > 2**59

    monkeypatch.setattr(counting, "_sweep_range", synthetic_range)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 1)
    got = counting._sweep_in_ranges([2**64 - 1] * len(splits), Ratio(2), [0, 1, 2, 3, 4])
    assert got == want
    # a count row's JSON needs Python ints, not numpy scalars
    assert all(type(v) is int for d in got for v in (d.s1, d.s2, d.s3))


def _sweep_cuts(xs, r):
    return counting._range_cuts(_required_limit(xs[-1], r), counting._sweep_work(xs, r))


def test_range_cuts_fall_on_segment_boundaries(monkeypatch):
    # one cutter serves the sweep, on its work model, and the Mertens sum,
    # on the numbers themselves
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 3)
    sweeps = [([10**16], Ratio(2)), ([10**15], Ratio(10)), ([10**14, 10**16], Ratio(3, 2))]
    cases = [(_sweep_end(xs, r), _sweep_cuts(xs, r)) for xs, r in sweeps]
    cases += [(z, counting._range_cuts(z)) for z in (10**8, 2 * 10**8 + 1)]
    for end, cuts in cases:
        step = 2 * rsad.primes._segment_size(end)
        assert cuts[0] == 0 and cuts[-1] == end
        assert 2 < len(cuts) <= 7 and all(a < b for a, b in zip(cuts, cuts[1:]))
        assert all(c % step == 0 for c in cuts[:-1])
    below = counting._FORK_MIN_NUMBERS - 1
    assert counting._range_cuts(below) == [0, below]
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 1)
    assert _sweep_cuts([10**16], Ratio(2)) == [0, _sweep_end([10**16], Ratio(2))]
    assert counting._range_cuts(10**8) == [0, 10**8]


def test_forked_sweep_gives_the_frozen_count_and_leaves_no_worker(monkeypatch):
    import multiprocessing

    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    assert count_sweep(10**16, Ratio(2)).total == 10818912949586
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault,raised", [("raise", ZeroDivisionError), ("exit", ChildProcessError)])
def test_a_failing_worker_fails_the_sweep(monkeypatch, fault, raised):
    # a worker that dies, as under the OOM killer, fails the sweep: no waiting on it
    import multiprocessing

    sweep_range = counting._sweep_range

    def failing_range(xs, r, lo, hi):
        if lo == 0:
            return sweep_range(xs, r, lo, hi)
        if fault == "exit":
            os._exit(9)
        return 1 // 0

    def hung(signum, frame):
        raise TimeoutError("the sweep kept waiting for a failed worker")

    monkeypatch.setattr(counting, "_sweep_range", failing_range)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(raised):
            count_sweep(10**16, Ratio(2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_sweep_errors_are_raised_before_any_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    with pytest.raises(SieveWorkError):
        count_sweep(2**64 - 1, Ratio(2**10))  # sqrt(r*x) is just below 2^37
    with pytest.raises(ValueError):
        count_sweep_grid([10**16, 10**15], Ratio(2))
    with pytest.raises(ValueError):
        count_sweep_grid([10**16, 2**64], Ratio(2))


def _live_children(pid):
    """Pids of pid's children that have not exited, from /proc."""
    found = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == pid and state != "Z":
            found.append(int(name))
    return found


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


needs_proc_and_two_cpus = pytest.mark.skipif(
    not os.path.isdir("/proc/self") or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
    reason="needs /proc and two usable CPUs",
)


# a count whose sweep forks workers
FORKED_COUNT = [sys.executable, "-m", "rsad", "count", "--x", "1e17", "--r", "2"]


def _first_workers(proc):
    """proc's live children once it has forked any, within 30 s."""
    workers = []
    deadline = time.monotonic() + 30
    while not workers and proc.poll() is None and time.monotonic() < deadline:
        workers = _live_children(proc.pid)
        time.sleep(0.01)
    assert workers, "the count forked no worker"
    return workers


def _assert_all_gone(workers):
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, workers))


@needs_proc_and_two_cpus
def test_killed_count_leaves_no_worker(child_env):
    proc = subprocess.Popen(
        FORKED_COUNT, env=child_env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    workers = []
    try:
        workers = _first_workers(proc)
        proc.kill()
        proc.wait(timeout=10)
        _assert_all_gone(workers)
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


@needs_proc_and_two_cpus
def test_finished_count_leaves_no_worker(child_env):
    # entry() ends by os._exit, which skips multiprocessing's atexit hook;
    # _forked_ranges' finally ends every worker before main returns
    proc = subprocess.Popen(
        FORKED_COUNT, env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    workers = []
    try:
        workers = _first_workers(proc)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
        assert out.splitlines()[1].split(",")[:3] == ["100000000000000000", "2", "95496219725167"]
        _assert_all_gone(workers)
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


@needs_proc_and_two_cpus
def test_interrupted_count_exits_130_and_leaves_no_worker(child_env):
    proc = subprocess.Popen(
        FORKED_COUNT, env=child_env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    workers = []
    try:
        workers = _first_workers(proc)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == 130
        assert "Traceback" not in err
        assert err == "interrupted\n"
        _assert_all_gone(workers)
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


# --- sweep form ----------------------------------------------------------

@pytest.mark.parametrize("r", [Ratio(3, 2), Ratio(2)])
def test_brute_counts_upto_matches_pointwise(t10k, r):
    counts = brute_counts_upto(t10k, 600, r)
    assert counts.shape == (601,)
    assert counts.dtype == np.int64
    for x in range(601):
        assert int(counts[x]) == count_brute(x, r, t10k)


def test_brute_counts_upto_prefix_values(t10k):
    counts = brute_counts_upto(t10k, 20, Ratio(2))
    assert counts[:6].tolist() == [0] * 6
    assert counts[6:15].tolist() == [1] * 9
    assert counts[15:21].tolist() == [2] * 6


@pytest.mark.parametrize("r", [Ratio(2), Ratio(10**14)], ids=str)
def test_brute_counts_upto_sums_its_tally_in_place(r, traced_peak):
    from rsad import build_table

    # the 8-byte counts beside the products, read as int64 in place: 8.07 and
    # 9.68 bytes per x; an int64 copy of the products peaked at 8.13 and 11.36,
    # and a cumsum into a second array of counts at 16.1 and 17.7
    max_x = 10**6
    table = build_table(max_x)
    assert traced_peak(brute_counts_upto, table, max_x, r) < 10.5 * (max_x + 1)


# The identity at every x runs on a list of the primes (exact), verify's
# counter, held here to brute_counts_upto on a table.  t100k stops at
# 10^5 + 64, so r = 10^14 runs on primes that stop at x + 64.
@pytest.mark.parametrize("r", RATIOS + [
    Ratio(1), Ratio(7, 3), Ratio(2**64 - 1, 2**64 - 2), Ratio(10**14),
], ids=str)
def test_identity_counts_upto_matches_brute_counts_upto(t100k, r):
    counts = identity_counts_list(t100k.primes.tolist(), 10**5, r)
    assert counts.typecode == "q"
    assert counts.tolist() == brute_counts_upto(t100k, 10**5, r).tolist()


def test_identity_counts_upto_matches_count_identity(t10k):
    counts = identity_counts_list(t10k.primes.tolist(), 2999, Ratio(2))
    assert counts.tolist() == [count_identity(t10k, x, Ratio(2)).total for x in range(3000)]


@pytest.mark.parametrize("max_x", [0, 1, 2, 3])
def test_identity_counts_upto_tiny(t10k, max_x):
    plist = t10k.primes.tolist()
    for r in RATIOS:
        assert identity_counts_list(plist, max_x, r).tolist() == [0] * (max_x + 1)


def test_identity_counts_upto_memory_is_a_few_result_arrays(t10k, traced_peak):
    max_x = 10**6
    plist = t10k.primes.tolist()
    assert traced_peak(identity_counts_list, plist, max_x, Ratio(10)) <= 4 * 8 * (max_x + 1)


def test_identity_counts_upto_band_temporaries_do_not_grow_with_the_band(traced_peak):
    from rsad.exact import primes_upto

    # at r = 10^14 the band of p = 2 spans nearly every x: its cofactors,
    # a slice of the list, held about 0.3 MiB beside the 7.6 MiB result
    max_x = 10**6
    plist = primes_upto(max_x)
    peak = traced_peak(identity_counts_list, plist, max_x, Ratio(10**14))
    assert peak - 8 * (max_x + 1) < 2 * 2**20  # less the counts it returns


# --- semiprime counts ----------------------------------------------------

def test_count_pi2_small_values(t10k):
    assert count_pi2(t10k, 0) == 0
    assert count_pi2(t10k, 5) == 0
    assert count_pi2(t10k, 6) == 1
    assert count_pi2(t10k, 30) == 7
    assert count_pi2(t10k, 100) == 30


def test_count_pi2_matches_oracle(t10k):
    for x in range(301):
        assert count_pi2(t10k, x) == semiprime_count(x)


def test_count_pi2_equals_full_band_count(t10k):
    # with r >= x every semiprime pq <= x satisfies q <= r*p
    for x in [10, 100, 1000, 10**4]:
        assert count_pi2(t10k, x) == count_identity(t10k, x, Ratio(x)).total


def test_count_pi2_table_requirement():
    from rsad import build_table

    small = build_table(40)
    with pytest.raises(TableLimitError):
        count_pi2(small, 100)  # needs pi(50)


# --- reports -------------------------------------------------------------

def test_count_report_fields(t10k):
    rep = count_report(t10k, 10**4, Ratio(2), method="identity")
    assert rep.exact == 169
    assert rep.method == "identity"
    assert rep.estimate == pytest.approx(163.4195825, rel=1e-8, abs=0)
    assert rep.abs_err == pytest.approx(abs(169 - rep.estimate), rel=1e-15, abs=0)
    assert rep.rel_err == pytest.approx(rep.abs_err / 169, rel=1e-15, abs=0)
    assert rep.seconds >= 0.0


def test_count_report_methods_agree(t10k):
    a = count_report(t10k, 10**4, Ratio(3, 2), method="brute")
    b = count_report(t10k, 10**4, Ratio(3, 2), method="identity")
    assert a.exact == b.exact


def test_count_report_degenerate_x(t10k):
    rep = count_report(t10k, 0, Ratio(2))
    assert rep.exact == 0
    assert rep.estimate == 0.0
    assert rep.rel_err == 0.0


def test_count_report_derives_estimate_and_err_scale():
    rep = CountReport(10**4, Ratio(2), 169, "identity", 0.0)
    assert rep.estimate == rsa_count_estimate(10**4, Ratio(2))
    assert rep.err_scale == 2.0 * (1.0 + math.log(2)) * 1e4 / math.log(1e4) ** 3
    assert rep.err_normalized == abs(169 - rep.estimate) / rep.err_scale
    below = CountReport(1, Ratio(2), 0, "identity", 0.0)
    assert (below.estimate, below.err_scale) == (0.0, math.inf)


def test_count_report_unknown_method(t10k):
    with pytest.raises(ValueError):
        count_report(t10k, 100, Ratio(2), method="magic")


def test_x_validation(t10k):
    with pytest.raises(ValueError):
        count_identity(t10k, -1, Ratio(2))
    with pytest.raises(ValueError):
        count_brute(2.5, Ratio(2), t10k)
