import math

import numpy as np
import pytest

from rsad import (
    IdentityViolationError,
    PrimeTable,
    Ratio,
    check_pi_sums,
    convergence_table,
    count_identity,
    count_sweep,
    rsa_count_estimate,
    sum_pi_p,
)

from rsad.analytic import _recip_sum

from oracles import prime_list, pi_td


def test_sum_pi_p_small_hand_values(t10k):
    assert sum_pi_p(t10k, 2) == 1
    assert sum_pi_p(t10k, 3) == 3
    assert sum_pi_p(t10k, 10) == 10  # pi(2)+pi(3)+pi(5)+pi(7) = 1+2+3+4


def test_sum_pi_p_matches_direct_sum(t10k):
    for z in [2, 13, 100, 541, 2000]:
        direct = sum(pi_td(p) for p in prime_list(z))
        assert sum_pi_p(t10k, z) == direct


def test_sum_pi_p_closed_form(t10k):
    for z in [2, 10, 100, 10**4]:
        k = t10k.prime_count(z)
        assert sum_pi_p(t10k, z) == k * (k + 1) // 2


def test_sum_pi_p_detects_corrupt_table():
    # duplicate entry breaks pi(p_i) = i+1, which the check must catch
    bad = PrimeTable(limit=10, primes=np.array([2, 3, 3, 7], dtype=np.uint64))
    with pytest.raises(IdentityViolationError):
        sum_pi_p(bad, 10)


def test_check_pi_sums_checks_every_z(t10k):
    assert check_pi_sums(t10k, 10**4) == 10**4 - 1
    assert [check_pi_sums(t10k, z) for z in range(4)] == [0, 0, 1, 2]


@pytest.mark.parametrize("where", [0, 1, 5, 100])
def test_check_pi_sums_fails_where_sum_pi_p_first_fails(t10k, where):
    primes = t10k.primes[t10k.primes <= 1000]
    bad = PrimeTable(limit=1000, primes=np.insert(primes, where, primes[where]))
    first = next(z for z in range(2, 1001) if _violation(bad, z))
    with pytest.raises(IdentityViolationError) as info:
        check_pi_sums(bad, 1000)
    assert info.value.z == first
    assert str(info.value) == str(_violation(bad, first))


def _violation(table, z):
    try:
        sum_pi_p(table, z)
    except IdentityViolationError as exc:
        return exc
    return None


def test_probe_pi_rp_hand_values(t10k):
    # s2 at x = 100, r = 2 sums pi(2p) over p <= sqrt(50): pi(4)+pi(6)+pi(10)+pi(14)
    assert count_identity(t10k, 100, Ratio(2)).s2 == 15
    assert count_sweep(100, Ratio(2)).s2 == 15


def test_probe_band_pi_hand_values(t10k):
    # band primes for x=1000, r=2 are (22, 31]: 23, 29, 31
    want = 14 + 11 + 11  # pi(43) + pi(34) + pi(32)
    assert count_identity(t10k, 1000, Ratio(2)).s3 == want
    assert count_sweep(1000, Ratio(2)).s3 == want


def test_probe_band_pi_empty_band(t10k):
    # x=100, r=2: no primes in (7, 10]
    assert count_identity(t10k, 100, Ratio(2)).s3 == 0
    assert count_sweep(100, Ratio(2)).s3 == 0


def test_probe_band_pi_frozen_golden(t10m):
    est = rsa_count_estimate(10**6, Ratio(2))
    for s3 in [count_identity(t10m, 10**6, Ratio(2)).s3, count_sweep(10**6, Ratio(2)).s3]:
        assert s3 == 8170
        assert s3 / est == pytest.approx(1.1248651916856824, rel=1e-12, abs=0)


def _band(table, lo, hi):
    return table.primes[table.prime_count(lo) : table.prime_count(hi)]


def test_band_recip_sum_hand_values(t10k):
    # sum of 1/p over the band sqrt(x/r) < p <= sqrt(x) of x = 1000, r = 2
    got = _recip_sum([_band(t10k, 22, 31)])
    assert got == math.fsum([1.0 / 23.0, 1.0 / 29.0, 1.0 / 31.0])
    assert _recip_sum([_band(t10k, 7, 10)]) == 0.0  # x = 100: empty band


def test_band_recip_sum_tracks_log_ratio(t10m):
    # the paper's key step: the band sum of 1/p approaches log(r)/log(x)
    got = _recip_sum([_band(t10m, 707106, 10**6)])  # x = 10^12, r = 2
    want = math.log(2.0) / math.log(1e12)
    assert got == pytest.approx(want, rel=0.05, abs=0)


def test_convergence_table_rows():
    rows = convergence_table([10**4, 10**5], Ratio(2))
    assert [row.x for row in rows] == [10**4, 10**5]
    first = rows[0]
    assert first.exact == 169
    est = rsa_count_estimate(10**4, Ratio(2))
    assert first.ratio == pytest.approx(169 / est, rel=1e-15, abs=0)
    scale = 2.0 * (1.0 + math.log(2.0)) * 10**4 / math.log(10**4) ** 3
    assert first.err_normalized == pytest.approx(abs(169 - est) / scale, rel=1e-12, abs=0)


def test_convergence_table_shares_the_sweep_time():
    reps = convergence_table([100, 1000, 10**4], Ratio(2))
    assert [rep.exact for rep in reps] == [5, 25, 169]
    assert len({rep.seconds for rep in reps}) == 1
    assert all(rep.method == "identity" for rep in reps)


def test_convergence_table_validation():
    with pytest.raises(ValueError):
        convergence_table([1], Ratio(2))
