import math
import sys

import pytest

from rsad import (
    Ratio,
    band_recip_estimate,
    log_integral,
    mertens_sum,
    pi_rp_sum_main,
    rsa_count_estimate,
)

from oracles import prime_list

# reference values for Li(x) = integral_2^x dt/log t, computed to 30
# digits with mpmath (li(x) - li(2)) and rounded to double precision
LI_REFERENCE = [
    (10.0, 5.120435724669806),
    (100.0, 29.08097780396214),
    (1e4, 1245.0920521192709),
    (1e6, 78626.50399568207),
]


@pytest.mark.parametrize("x,expected", LI_REFERENCE)
def test_log_integral_reference_values(x, expected):
    assert log_integral(x) == pytest.approx(expected, rel=1e-12, abs=0)


def test_log_integral_lower_endpoint():
    assert log_integral(2.0) == 0.0


def test_log_integral_rejects_small_x():
    with pytest.raises(ValueError):
        log_integral(1.9)


def test_log_integral_additive_over_subintervals():
    # integral_2^1000 = integral_2^50 + integral_50^1000; the second piece
    # comes from evaluating at shifted endpoints
    whole = log_integral(1000.0)
    first = log_integral(50.0)
    assert whole > first > 0
    # crude independent check: midpoint rule on [50, 1000] with fine steps
    n = 20000
    h = 950.0 / n
    mid = sum(h / math.log(50.0 + (i + 0.5) * h) for i in range(n))
    assert whole - first == pytest.approx(mid, rel=1e-6, abs=0)


# Li(x) frozen from mpmath at 40 digits (li(x) - li(2) at the float x given)
# across the range the exact counters reach, up to 2^64 - 1
LI_LARGE_REFERENCE = [
    (1e8, 5762208.330284251),
    (1e12, 37607950279.759705),
    (1e16, 279238344248555.75),
    (1e19, 2.3405766737622237e17),
    (18446744073709551615, 4.256562841157186e17),
]


@pytest.mark.parametrize("x,expected", LI_LARGE_REFERENCE)
def test_log_integral_large_x_reference_values(x, expected):
    assert log_integral(x) == pytest.approx(expected, rel=1e-14, abs=0)


def test_log_integral_just_above_two():
    # li(x) - li(2) in floats loses ~5.5e-10 relative here to cancellation
    expected = 1.4426949864936583e-07
    assert log_integral(2 + 1e-7) == pytest.approx(expected, rel=1e-12, abs=0)


def test_log_integral_finite_at_largest_float():
    # mpmath at 40 digits; summing ~900 terms costs 2.5e-14 relative here
    value = log_integral(sys.float_info.max)
    assert math.isfinite(value)
    assert value == pytest.approx(2.536315701167842e305, rel=1e-13, abs=0)


def test_mertens_small_exact(t10k):
    # 1/2 + 1/3 + 1/5 + 1/7 = 247/210
    res = mertens_sum(t10k, 10)
    assert res.z == 10
    assert res.sum == pytest.approx(247.0 / 210.0, rel=1e-15, abs=0)
    assert res.residual == pytest.approx(res.sum - math.log(math.log(10.0)), abs=1e-15)


def test_mertens_matches_direct_fsum(t10k):
    res = mertens_sum(t10k, 5000)
    direct = math.fsum(1.0 / p for p in prime_list(5000))
    assert res.sum == direct


def test_mertens_residual_near_constant(t10m):
    # the residual tends to the Meissel-Mertens constant 0.26149721...
    res = mertens_sum(t10m, 10**6)
    assert res.residual == pytest.approx(0.2614972128, abs=1e-4)
    assert res.residual == pytest.approx(0.261536185092, abs=1e-9)


def test_mertens_validation(t10k):
    with pytest.raises(ValueError):
        mertens_sum(t10k, 1)
    with pytest.raises(ValueError):
        mertens_sum(None, 1)


def test_mertens_without_a_table_is_bit_identical(t10k, t10m):
    # fsum rounds the same exact sum once, from the table or from the sieve
    for z in range(2, 3001):
        assert mertens_sum(None, z) == mertens_sum(t10k, z), z
    assert mertens_sum(None, 10**6) == mertens_sum(t10m, 10**6)


def test_rsa_count_estimate_formula():
    x, r = 10**4, Ratio(2)
    expected = 2.0 * x * math.log(2.0) / math.log(x) ** 2
    assert rsa_count_estimate(x, r) == pytest.approx(expected, rel=1e-15, abs=0)
    assert rsa_count_estimate(10**4, Ratio(3, 2)) == pytest.approx(
        2.0 * 10**4 * math.log(1.5) / math.log(10**4) ** 2, rel=1e-15, abs=0
    )


def test_rsa_count_estimate_unit_ratio_is_zero():
    assert rsa_count_estimate(10**6, Ratio(1)) == 0.0


def test_rsa_count_estimate_validation():
    with pytest.raises(ValueError):
        rsa_count_estimate(1, Ratio(2))


def test_pi_rp_sum_main_formula():
    # r*z^2 / (2 log^2 z)
    assert pi_rp_sum_main(100, Ratio(1)) == pytest.approx(
        10**4 / (2 * math.log(100) ** 2), rel=1e-15, abs=0
    )
    assert pi_rp_sum_main(100, Ratio(2)) == pytest.approx(
        2 * 10**4 / (2 * math.log(100) ** 2), rel=1e-15, abs=0
    )


def test_band_recip_estimate():
    assert band_recip_estimate(10**6, Ratio(2)) == pytest.approx(
        math.log(2.0) / math.log(10**6), rel=1e-15, abs=0
    )
    assert band_recip_estimate(100, Ratio(1)) == 0.0


def test_band_recip_estimate_requires_r_below_sqrt_x():
    # r = 11 > sqrt(100)
    with pytest.raises(ValueError):
        band_recip_estimate(100, Ratio(11))
    # boundary r = sqrt(x) exactly is allowed
    assert band_recip_estimate(100, Ratio(10)) == pytest.approx(
        math.log(10.0) / math.log(100.0), rel=1e-15, abs=0
    )
