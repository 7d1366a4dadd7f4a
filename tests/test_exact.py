"""The list counters of rsad.exact against the table counters and the sweep.

count runs count_brute_list and count_identity_list on primes_upto's list
wherever its limit is below cli._INT_COUNT_BELOW and the list's peak
(exact._list_peak_bytes) fits --memory-budget-bytes, numpy loaded or not
(cli._integer_path); these tests hold them to count_brute and
count_identity on a built table and to count_sweep, at every small x, at
random x whose limits lie just below that bound, and at the x where a
prime enters s1 or s2.  Every verify runs brute_counts_list and
identity_counts_list, which are held to counting's brute_counts_upto, and
check_pi_sums_list (tests/test_diagnostics.py).  Both commands admit a run
on what its list holds, which tracemalloc checks.
"""

import itertools
import math
import random
import subprocess
import sys
from array import array
from bisect import bisect_right

import numpy as np
import pytest

import rsad.primes
from rsad import (
    Ratio,
    brute_counts_upto,
    build_table,
    cli,
    count_brute,
    count_identity,
    count_sweep,
    count_sweep_grid,
)
from rsad.cli import COUNT_HEADER
from rsad.exact import (
    _list_peak_bytes,
    _prefix_sum,
    _required_limit,
    brute_counts_list,
    count_brute_list,
    count_identity_list,
    identity_counts_list,
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


def test_a_count_takes_the_lists_below_the_bound_where_they_fit(monkeypatch, capsys):
    # numpy is loaded here: the choice reads only the limit and the budget.
    # At r = 10^6 the limit isqrt(r*x) has few primes below sqrt(x) to count.
    r = Ratio(10**6)
    calls = []
    real = cli.build_table
    monkeypatch.setattr(cli, "build_table", lambda limit: calls.append(limit) or real(limit))
    for limit in (BOUND - 1, BOUND):
        x = ((limit + 1) ** 2 - 1) // r.num
        assert _required_limit(x, r) == limit
        need = _list_peak_bytes(limit)
        for budget in (need - 1, need):
            assert cli.main(f"count --x {x} --r {r} --method brute --brute-budget {x} "
                            f"--memory-budget-bytes {budget}".split()) == 0
    assert calls == [BOUND - 1, BOUND, BOUND]
    rows = capsys.readouterr().out.split(COUNT_HEADER)[1:]
    assert len(rows) == 4 and rows[0] == rows[1] and rows[2] == rows[3]


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


# --- verify's lists -------------------------------------------------------

VERIFY_RATIOS = SMALL_RATIOS + [Ratio(5), Ratio(101, 100), Ratio(10**14), Ratio(2**64 - 1)]


def test_prefix_sum_runs_in_place_across_its_steps():
    rng = random.Random(20261101)
    for n in [0, 1, 1023, 1024, 1025, 5000]:
        values = [rng.randrange(-5, 6) for _ in range(n)]
        counts = array("q", values)
        assert _prefix_sum(counts) is counts
        assert counts.tolist() == list(itertools.accumulate(values))


@pytest.mark.parametrize("r", VERIFY_RATIOS, ids=str)
def test_list_counts_are_the_tables_at_every_x(t10k, r):
    plist = t10k.primes.tolist()
    for max_x in [0, 1, 3, 4, 5, 6, 9, 10, 100, 1000, 3000, 9999]:
        primes = upto(plist, max(_required_limit(max_x, r), 2))
        want = brute_counts_upto(t10k, max_x, r)
        for counter in (brute_counts_list, identity_counts_list):
            counts = counter(primes, max_x, r)
            assert (counts.typecode, counts.tolist()) == ("q", want.tolist()), (counter, max_x)


def test_list_counts_at_random_max_x(t100k):
    rng = random.Random(20261102)
    plist = t100k.primes.tolist()
    for _ in range(20):
        max_x = rng.randrange(10**5)
        r = rng.choice(VERIFY_RATIOS[:-1] + [Ratio(max_x + 1)])
        want = brute_counts_upto(t100k, max_x, r).tolist()
        assert brute_counts_list(plist, max_x, r).tolist() == want, (max_x, r)
        assert identity_counts_list(plist, max_x, r).tolist() == want, (max_x, r)


# Runs rsad.cli.main at argv[1:] under the finder of test_lazy_imports (no
# numpy) with tracemalloc on, and prints its exit code ("numpy" when the run
# took numpy's path and the finder refused it) and the bytes it held at its
# traced peak, less the peak of a run that holds nothing (the parser and
# other objects every run makes).  rsad.exact is imported, and a first run
# fills the caches of argparse and re, untraced.
TRACED_MAIN = """
import contextlib, gc, io, sys, tracemalloc

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseNumpy())
import rsad.cli, rsad.exact


def traced(argv):
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = rsad.cli.main(argv)
    except ImportError:
        code = "numpy"
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return code, peak


traced(["verify", "--max-x", "0"])
base = traced(["verify", "--max-x", "0"])[1]
code, peak = traced(sys.argv[1:])
print(code, peak - base)
"""


def traced_run(child_env, argv):
    """(exit code or "numpy", bytes held at peak) of main at argv in a child without numpy."""
    proc = subprocess.run([sys.executable, "-c", TRACED_MAIN, *argv.split()],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.stderr == ""
    code, held = proc.stdout.split()
    return code, int(held)


@pytest.mark.parametrize("ratios", ["3/2,2,5,10", "100000000000000"])
def test_verify_lists_stay_within_their_admitted_need(ratios, child_env):
    # r = 10^14 reads primes to --max-x; the default ratios to 10^4, the
    # pi-sum check's.  The need is tracemalloc's peak, give or take 2^17.
    max_x = 3 * 10**5
    code, held = traced_run(child_env, f"verify --max-x {max_x} --r {ratios}")
    assert code == "0"
    limit = max([_required_limit(max_x, Ratio.parse(r)) for r in ratios.split(",")] + [10**4])
    need = _list_peak_bytes(limit) + 16 * (max_x + 1)
    assert 0 <= need - held < 2**17


@pytest.mark.parametrize("budget", [2 * 10**6, _list_peak_bytes(BOUND - 1) - 1,
                                    _list_peak_bytes(BOUND - 1)])
def test_a_count_on_lists_stays_within_its_budget(budget, child_env):
    # at r = 1, x = (2^20 - 1)^2 reads every prime of the largest list below
    # the bound; under a smaller budget than that list's need a count takes
    # numpy's path, which admits it on its own table
    x = (BOUND - 1) ** 2
    code, held = traced_run(child_env, f"count --x {x} --r 1 --method both "
                                       f"--brute-budget {x} --memory-budget-bytes {budget}")
    if budget < _list_peak_bytes(BOUND - 1):
        assert code == "numpy"
    else:
        assert code == "0" and held <= budget


# at limit isqrt(2*5e9) = 10^5 the list needs 501496 bytes and the table 574118
WINDOW = "count --x 5e9 --r 2 --method brute --brute-budget 5e9"


def test_a_brute_count_is_admitted_on_its_list_where_its_table_does_not_fit(capsys, child_env):
    need, table_need = _list_peak_bytes(10**5), rsad.primes._peak_estimate_bytes(10**5)
    assert (need, table_need) == (501496, 574118)
    budgets = [need - 1, need, table_need - 1]
    codes = [cli.main(f"{WINDOW} --memory-budget-bytes {b}".split()) for b in budgets]
    assert codes == [3, 0, 0]
    # under the list's need the brute count is admitted or refused on its table
    assert capsys.readouterr().err == (
        "error: x=5000000000 with a prime table to 100000 needs up to 574118 bytes "
        "at peak, over the 501495-byte budget\n")
    for budget in budgets[1:]:
        code, held = traced_run(child_env, f"{WINDOW} --memory-budget-bytes {budget}")
        assert code == "0" and held <= budget
