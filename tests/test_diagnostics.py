import math

import numpy as np
import pytest

from rsad import (
    IdentityViolationError,
    PrimeTable,
    Ratio,
    TableLimitError,
    band_recip_sum,
    convergence_table,
    probe_band_pi,
    probe_pi_rp,
    rsa_count_estimate,
    sum_pi_p,
)

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


def test_probe_pi_rp_hand_values(t10k):
    row = probe_pi_rp(t10k, 10, Ratio(2))
    assert row.x == 10
    assert row.exact == 15  # pi(4)+pi(6)+pi(10)+pi(14)
    assert row.estimate == pytest.approx(100.0 / math.log(10.0) ** 2, rel=1e-15, abs=0)
    assert row.ratio == pytest.approx(15 * math.log(10.0) ** 2 / 100.0, rel=1e-15, abs=0)


def test_probe_pi_rp_frozen_golden(t10m):
    row = probe_pi_rp(t10m, 10**6, Ratio(2))
    assert row.exact == 5828801128
    assert row.ratio == pytest.approx(1.112533548728312, rel=1e-12, abs=0)
    assert row.err_normalized == pytest.approx(0.459117922066, rel=1e-9, abs=0)
    assert 0.5 < row.ratio < 2.0


def test_probe_pi_rp_table_requirement(t10k):
    with pytest.raises(TableLimitError):
        probe_pi_rp(t10k, 10**4, Ratio(2))  # needs pi(2*10^4)


def test_probe_band_pi_hand_values(t10k):
    # band primes for x=1000, r=2 are (22, 31]: 23, 29, 31
    row = probe_band_pi(t10k, 1000, Ratio(2))
    assert row.exact == 14 + 11 + 11  # pi(43) + pi(34) + pi(32)
    assert row.estimate == pytest.approx(rsa_count_estimate(1000, Ratio(2)), rel=1e-15, abs=0)
    assert row.ratio == pytest.approx(36 / rsa_count_estimate(1000, Ratio(2)), rel=1e-15, abs=0)


def test_probe_band_pi_empty_band(t10k):
    # x=100, r=2: no primes in (7, 10]
    row = probe_band_pi(t10k, 100, Ratio(2))
    assert row.exact == 0
    assert row.ratio == 0.0


def test_probe_band_pi_frozen_golden(t10m):
    row = probe_band_pi(t10m, 10**6, Ratio(2))
    assert row.exact == 8170
    assert row.ratio == pytest.approx(1.1248651916856824, rel=1e-12, abs=0)


def test_band_recip_sum_hand_values(t10k):
    got = band_recip_sum(t10k, 1000, Ratio(2))
    assert got == math.fsum([1.0 / 23.0, 1.0 / 29.0, 1.0 / 31.0])
    assert band_recip_sum(t10k, 100, Ratio(2)) == 0.0


def test_band_recip_sum_tracks_log_ratio(t10m):
    # sum over sqrt(x/r) < p <= sqrt(x) of 1/p approaches log(r)/log(x)
    got = band_recip_sum(t10m, 10**12, Ratio(2))
    want = math.log(2.0) / math.log(1e12)
    assert got == pytest.approx(want, rel=0.05, abs=0)


def test_convergence_table_rows(t100k):
    rows = convergence_table(t100k, [10**4, 10**5], Ratio(2))
    assert [row.x for row in rows] == [10**4, 10**5]
    first = rows[0]
    assert first.exact == 169
    est = rsa_count_estimate(10**4, Ratio(2))
    assert first.ratio == pytest.approx(169 / est, rel=1e-15, abs=0)
    scale = 2.0 * (1.0 + math.log(2.0)) * 10**4 / math.log(10**4) ** 3
    assert first.err_normalized == pytest.approx(abs(169 - est) / scale, rel=1e-12, abs=0)


def test_convergence_table_validation(t10k):
    with pytest.raises(ValueError):
        convergence_table(t10k, [1], Ratio(2))
