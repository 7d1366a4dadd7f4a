import math

import numpy as np
import pytest

from rsad import (
    BruteBudgetError,
    Decomposition,
    Ratio,
    TableTooSmallError,
    brute_counts_upto,
    cofactor_count,
    count_brute,
    count_identity,
    count_pi2,
    count_report,
)
from rsad.counting import _required_limit

from oracles import rsa_count_pairs, semiprime_count

RATIOS = [Ratio(3, 2), Ratio(2), Ratio(5), Ratio(10)]


# --- Ratio ---------------------------------------------------------------

def test_ratio_parse_forms():
    assert Ratio.parse("2") == Ratio(2, 1)
    assert Ratio.parse("3/2") == Ratio(3, 2)
    assert Ratio.parse("1.5") == Ratio(3, 2)
    assert Ratio.parse("2.50") == Ratio(5, 2)
    assert Ratio.parse(" 10 ") == Ratio(10)
    assert Ratio.parse("6/4") == Ratio(3, 2)


@pytest.mark.parametrize("bad", ["0.5", "-1", "abc", "3/0", "1/2", "", "2/3/4"])
def test_ratio_parse_rejects(bad):
    with pytest.raises(ValueError):
        Ratio.parse(bad)


def test_ratio_reduction_and_equality():
    assert Ratio(6, 4) == Ratio(3, 2)
    assert Ratio(4, 2) == Ratio(2)
    assert str(Ratio(6, 4)) == "3/2"
    assert str(Ratio(4, 2)) == "2"


def test_ratio_floor_mul():
    assert Ratio(3, 2).floor_mul(7) == 10
    assert Ratio(3, 2).floor_mul(8) == 12
    assert Ratio(2).floor_mul(5) == 10
    assert Ratio(1).floor_mul(9) == 9


def test_ratio_numerics():
    assert float(Ratio(3, 2)) == 1.5
    assert Ratio(1).log() == 0.0
    assert Ratio(2).log() == pytest.approx(math.log(2), rel=1e-15)
    assert Ratio(3, 2) < Ratio(2) < Ratio(5)
    assert Ratio(2) <= Ratio(2)
    assert Ratio(2) * Ratio(3, 2) == Ratio(3)


def test_ratio_validation():
    with pytest.raises(ValueError):
        Ratio(1, 2)
    with pytest.raises(ValueError):
        Ratio(3, 0)
    with pytest.raises(ValueError):
        Ratio(1.5)  # floats must go through parse


# --- cofactor counts -----------------------------------------------------

def test_cofactor_count_hand_values(t10k):
    # x=100, r=2: p=2 -> {3}, p=3 -> {5}, p=5 -> {7}, p=7 -> {11,13}
    r = Ratio(2)
    assert cofactor_count(t10k, 2, 100, r) == 1
    assert cofactor_count(t10k, 3, 100, r) == 1
    assert cofactor_count(t10k, 5, 100, r) == 1
    assert cofactor_count(t10k, 7, 100, r) == 2
    assert cofactor_count(t10k, 11, 100, r) == 0  # 11^2 > 100


def test_cofactor_count_branch_boundary(t10k):
    # p^2 * r == x exactly: x=50, r=2, p=5 takes the r*p branch
    assert cofactor_count(t10k, 5, 50, Ratio(2)) == 1  # q=7, 35 <= 50
    # one past the boundary switches to the x/p branch
    assert cofactor_count(t10k, 5, 49, Ratio(2)) == 1  # q in (5, 9]: {7}
    assert cofactor_count(t10k, 5, 34, Ratio(2)) == 0  # q in (5, 6]: none


def test_cofactor_count_sums_to_brute(t10k):
    r = Ratio(2)
    total = sum(
        cofactor_count(t10k, int(p), 100, r) for p in t10k.primes_between(1, 10)
    )
    assert total == count_brute(100, r, t10k) == 5


def test_cofactor_count_rejects_composite(t10k):
    with pytest.raises(ValueError):
        cofactor_count(t10k, 4, 100, Ratio(2))


def test_cofactor_count_table_too_small():
    from rsad import build_table

    small = build_table(10)
    with pytest.raises(TableTooSmallError) as info:
        cofactor_count(small, 3, 10**4, Ratio(10))  # needs pi(30)
    assert info.value.required == 30
    assert info.value.limit == 10


# --- brute versus oracle -------------------------------------------------

@pytest.mark.parametrize("r", RATIOS)
def test_count_brute_matches_pair_oracle(t10k, r):
    for x in [0, 1, 5, 6, 7, 35, 36, 100, 500, 1000, 2000]:
        assert count_brute(x, r, t10k) == rsa_count_pairs(x, r.num, r.den)


def test_count_brute_known_small_values(t10k):
    # r=2 RSA integers: 6, 15, 35, 77, 91, 143, 187, ...
    assert count_brute(5, Ratio(2), t10k) == 0
    assert count_brute(6, Ratio(2), t10k) == 1
    assert count_brute(14, Ratio(2), t10k) == 1
    assert count_brute(15, Ratio(2), t10k) == 2
    assert count_brute(100, Ratio(2), t10k) == 5
    assert count_brute(200, Ratio(2), t10k) == 7


def test_count_brute_budget(t10k):
    with pytest.raises(BruteBudgetError):
        count_brute(10**4, Ratio(2), t10k, budget=10**3)


def test_count_brute_table_too_small():
    from rsad import build_table

    small = build_table(100)
    with pytest.raises(TableTooSmallError):
        count_brute(10**4, Ratio(2), small)


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
    with pytest.raises(TableTooSmallError) as info:
        count_identity(t10k, 10**8, Ratio(2))
    assert info.value.required == math.isqrt(2 * 10**8)


def test_decomposition_consistency_enforced():
    with pytest.raises(ValueError):
        Decomposition(s1=1, s2=2, s3=3, total=99)


def test_required_limit():
    assert _required_limit(10**8, Ratio(2)) == 14142
    assert _required_limit(100, Ratio(3, 2)) == 12
    assert _required_limit(100, Ratio(1)) == 10


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


def test_brute_counts_upto_budget(t10k):
    with pytest.raises(BruteBudgetError):
        brute_counts_upto(t10k, 10**4, Ratio(2), budget=10**3)


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
    with pytest.raises(TableTooSmallError):
        count_pi2(small, 100)  # needs pi(50)


# --- reports -------------------------------------------------------------

def test_count_report_fields(t10k):
    rep = count_report(t10k, 10**4, Ratio(2), method="identity")
    assert rep.exact == 169
    assert rep.method == "identity"
    assert rep.estimate == pytest.approx(163.4195825, rel=1e-8)
    assert rep.abs_error == pytest.approx(abs(169 - rep.estimate), rel=1e-15)
    assert rep.rel_error == pytest.approx(rep.abs_error / 169, rel=1e-15)
    assert rep.seconds >= 0.0


def test_count_report_methods_agree(t10k):
    a = count_report(t10k, 10**4, Ratio(3, 2), method="brute")
    b = count_report(t10k, 10**4, Ratio(3, 2), method="identity")
    assert a.exact == b.exact


def test_count_report_degenerate_x(t10k):
    rep = count_report(t10k, 0, Ratio(2))
    assert rep.exact == 0
    assert rep.estimate == 0.0
    assert rep.rel_error == 0.0


def test_count_report_unknown_method(t10k):
    with pytest.raises(ValueError):
        count_report(t10k, 100, Ratio(2), method="magic")


def test_x_validation(t10k):
    with pytest.raises(ValueError):
        count_identity(t10k, -1, Ratio(2))
    with pytest.raises(ValueError):
        count_brute(2.5, Ratio(2), t10k)
