"""The list counters of rsad.exact against the table counters and the sweep.

count's integer path (cli._integer_count) runs count_brute_list and
count_identity_list on primes_upto's list wherever its limit is below
cli._INT_COUNT_BELOW; these tests hold them to count_brute and
count_identity on a built table and to count_sweep, at every small x, at
random x whose limits lie just below that bound, and at the x where a
prime enters s1 or s2.
"""

import math
import random
from bisect import bisect_right

import pytest

import rsad.primes
from rsad import Ratio, build_table, cli, count_brute, count_identity, count_sweep, count_sweep_grid
from rsad.exact import (
    _required_limit,
    count_brute_list,
    count_identity_list,
    list_report,
    primes_upto,
)

from oracles import prime_list

BOUND = cli._INT_COUNT_BELOW
SMALL_RATIOS = [Ratio(1), Ratio(3, 2), Ratio(2), Ratio(10), Ratio(1000), Ratio(2**62 + 3, 2**61)]


@pytest.fixture(scope="module")
def below_bound():
    """The primes below the bound, as a table and as a list."""
    return build_table(BOUND - 1), primes_upto(BOUND - 1)


def upto(plist, limit):
    return plist[: bisect_right(plist, limit)]


def assert_paths_agree(table, plist, x, r, sweep=None):
    """Both list counters on the primes to x's limit, against the table and the sweep."""
    primes = upto(plist, _required_limit(x, r))
    if sweep is None:
        sweep = count_sweep(x, r)
    decomposition = count_identity_list(primes, x, r)
    assert decomposition == count_identity(table, x, r) == sweep, (x, r)
    assert count_brute_list(primes, x, r) == count_brute(x, r, table) == decomposition.total, (x, r)


def test_primes_upto_is_the_table(below_bound):
    table, plist = below_bound
    assert plist == table.primes.tolist()
    for limit in range(200):
        assert primes_upto(limit) == prime_list(limit), limit
    assert primes_upto(2**20) == plist  # 2^20 is not prime


def test_the_integer_path_takes_every_table_below_its_bound():
    # _integer_count admits a count only under a budget that admits every
    # table the numpy path would build for it, so neither path refuses alone
    assert cli._INT_COUNT_PEAK_BYTES == rsad.primes._peak_estimate_bytes(BOUND - 1)
    peaks = [rsad.primes._peak_estimate_bytes(limit) for limit in range(0, BOUND, 997)]
    assert max(peaks) <= cli._INT_COUNT_PEAK_BYTES


@pytest.mark.parametrize("r", SMALL_RATIOS, ids=str)
def test_every_x_below_3000(t10k, r):
    xs = list(range(3000))
    plist = t10k.primes.tolist()
    for x, sweep in zip(xs, count_sweep_grid(xs, r)):
        assert_paths_agree(t10k, plist, x, r, sweep)


def _x_below_the_bound(rng):
    """A random (x, r) whose limit lies within 2^12 of the bound, below it."""
    den = rng.choice([1, 2, 3, 7, 2**61])
    r = Ratio(den + rng.randrange(min(1000 * den, 2**64 - den)), den)
    limit = BOUND - 1 - rng.randrange(2**12)
    # the largest x with floor(sqrt(floor(r*x))) <= limit, less up to 3
    x = ((limit + 1) ** 2 * r.den - 1) // r.num - rng.randrange(4)
    assert limit - 2**12 < _required_limit(x, r) <= limit < BOUND
    return x, r


def test_random_x_with_limits_just_below_the_bound(below_bound):
    table, plist = below_bound
    rng = random.Random(20261024)
    for _ in range(200):
        assert_paths_agree(table, plist, *_x_below_the_bound(rng))


@pytest.mark.parametrize("r", SMALL_RATIOS, ids=str)
def test_x_where_a_prime_enters_s1_or_s2(t10m, r):
    # p enters s1 at x = p^2 and s2 at b = ceil(p^2*num/den)
    xs = set()
    for p in prime_list(1000):
        b = -(-p * p * r.num // r.den)
        xs.update(x + d for x in (p * p, b) for d in (-1, 0, 1))
    xs = sorted(x for x in xs if _required_limit(x, r) <= t10m.limit)
    plist = t10m.primes.tolist()
    for x, sweep in zip(xs, count_sweep_grid(xs, r)):
        assert_paths_agree(t10m, plist, x, r, sweep)


def test_list_report_names_and_times_its_method():
    plist = primes_upto(1414)
    for method in ("brute", "identity"):
        report = list_report(plist, 10**6, Ratio(2), method)
        assert (report.x, report.r, report.exact, report.method) == (10**6, Ratio(2), 8097, method)
        assert report.seconds >= 0
    with pytest.raises(ValueError, match="unknown method"):
        list_report(plist, 10**6, Ratio(2), "sweep")


@pytest.mark.slow
def test_parity_sweep_below_the_bound(below_bound):
    # 10^4 seeded (x, r), limits log-uniform below the bound: about 25 s
    table, plist = below_bound
    rng = random.Random(20261025)
    for _ in range(10**4):
        den = rng.choice([1, 2, 3, 7, 10**6, 2**61])
        r = Ratio(den + rng.randrange(min(10**4 * den, 2**64 - den)), den)
        limit = int(math.exp(rng.uniform(0, math.log(BOUND - 1))))
        x = rng.randrange(((limit + 1) ** 2 * r.den - 1) // r.num + 1)
        assert_paths_agree(table, plist, x, r)
