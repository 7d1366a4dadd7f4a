import bisect
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from rsad import (
    Ratio,
    log_integral,
    mertens_sum,
    rsa_count_estimate,
)
from rsad.analytic import _recip_sum

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
    # the same exact sum, rounded once, from the table or from the sieve
    for z in range(2, 3001):
        assert mertens_sum(None, z) == mertens_sum(t10k, z), z
    assert mertens_sum(None, 10**6) == mertens_sum(t10m, 10**6)


def _fsum_recips(primes) -> float:
    return math.fsum([1.0 / int(p) for p in primes])


def test_recip_sum_is_fsum_for_every_z_below_3000(t10k):
    primes = prime_list(3000)
    for z in range(2, 3000):
        k = bisect.bisect_right(primes, z)
        assert mertens_sum(t10k, z).sum == _fsum_recips(primes[:k]), z


def test_recip_sum_is_fsum_at_random_z_below_1e7(t10m):
    recips = (1.0 / t10m.primes.astype(np.float64)).tolist()
    # log-uniform, so every decade is tried and fsum stays quick
    rng = random.Random(20081)
    for _ in range(200):
        z = min(int(10 ** rng.uniform(math.log10(2), 7)), 10**7 - 1)
        assert mertens_sum(t10m, z).sum == math.fsum(recips[: t10m.prime_count(z)]), z


@pytest.mark.parametrize("chunks", [
    [[2]],
    [[2**38 - 1]],
    [[]],
    [[], [2, 3], [], [5]],
    [[2**38 - 1, 3, 2**37 + 1]],
], ids=["p=2-length-1", "largest-p", "empty", "empty-chunks", "unsorted"])
def test_recip_sum_is_fsum_on_synthetic_chunks(chunks):
    arrays = [np.array(c, dtype=np.uint64) for c in chunks]
    assert _recip_sum(arrays) == _fsum_recips([p for c in chunks for p in c])


def test_recip_sum_is_fsum_on_random_odd_p_below_2_38():
    # reciprocals spread over all 38 binades, where a dropped limb shows
    rng = random.Random(38)
    for _ in range(50):
        bits = [rng.randrange(2, 39) for _ in range(rng.randrange(1, 400))]
        ps = [rng.randrange(1, 2**b, 2) for b in bits]
        assert _recip_sum([np.array(ps, dtype=np.uint64)]) == _fsum_recips(ps), ps


def test_recip_sum_rejects_p_outside_its_exactness_bound():
    # 1/2^40 is exact, but the 90-bit argument covers only p < 2^38
    with pytest.raises(ValueError):
        _recip_sum([np.array([3, 2**40, 5], dtype=np.uint64)])
    with pytest.raises(ValueError):
        _recip_sum([np.array([2], dtype=np.uint64), np.array([2**38], dtype=np.uint64)])


def test_mertens_on_a_table_holds_no_whole_slice_of_floats(t10m):
    # 664579 primes: one float64 array over the whole slice alone is 5.3 MB
    tracemalloc.start()
    try:
        mertens_sum(t10m, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
