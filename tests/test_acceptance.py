"""End-to-end acceptance checks for the counting pipeline.

Each test prints one PASS line describing what was established (visible
with -s or -rA).  Two shape expectations about the asymptotic regime do
not hold for the true counts on the stated grids; those are asserted
verbatim anyway and marked strict-xfail, with the measured behavior in
the reason string.  The frozen constants in this module come from an
audited run in which both counters and an independent trial-division
enumeration agreed; the tests below re-derive them from both counters
on every run rather than trusting the constants alone.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from rsad import (
    Ratio,
    brute_counts_upto,
    count_brute,
    count_identity,
    count_pi2,
    log_integral,
    mertens_sum,
    rsa_count_estimate,
    sum_pi_p,
)

from oracles import is_prime_td

RATIOS_SWEEP = [Ratio(3, 2), Ratio(2), Ratio(5), Ratio(10)]

# r=2 decade counts, audited (identity == brute == independent enumeration)
DECADE_COUNTS_R2 = {10**4: 169, 10**5: 1128, 10**6: 8097, 10**7: 59603, 10**8: 453998}

# x = 10^8 counts across r, audited the same way
COUNTS_AT_1E8 = {
    Ratio(3, 2): 265260,
    Ratio(2): 453998,
    Ratio(5): 1056971,
    Ratio(10): 1516493,
    Ratio(100): 3083291,
}

# normalized errors |C_r(1e8) - est| / (r log(er) 1e8 / log^3 1e8) recorded
# from the first audited run; the regression band below brackets them
ERR_NORMALIZED_BAND_1E8 = (0.041, 0.84)


def _err_normalized(x: int, r: Ratio, exact: int) -> float:
    est = rsa_count_estimate(x, r)
    scale = float(r) * (1.0 + r.log()) * float(x) / math.log(float(x)) ** 3
    return abs(exact - est) / scale


def test_criterion_01_counters_agree_exhaustively(t100k):
    checks = 0
    for r in RATIOS_SWEEP:
        sweep = brute_counts_upto(t100k, 10**5, r)
        for x in range(10**5 + 1):
            assert count_identity(t100k, x, r).total == int(sweep[x]), (x, str(r))
            checks += 1
    print(f"criterion 1: PASS - identity == brute for every x <= 1e5, "
          f"r in {{3/2, 2, 5, 10}} ({checks} checks)")


def test_criterion_02_decomposition_spot_check(t10k):
    d = count_identity(t10k, 100, Ratio(2))
    assert (d.s1, d.s2, d.s3) == (10, 15, 0)
    assert d.total == 5
    print("criterion 2: PASS - decomposition at (x=100, r=2) is "
          "(s1, s2, s3) = (10, 15, 0), total 5")


def test_criterion_03_pi_summation_closed_form(t10k, t10m):
    for z in range(2, 10**4 + 1):
        k = t10k.prime_count(z)
        assert sum_pi_p(t10k, z) == k * (k + 1) // 2
    for z in (10**5, 10**6, 10**7):
        k = t10m.prime_count(z)
        assert sum_pi_p(t10m, z) == k * (k + 1) // 2
    print("criterion 3: PASS - sum of pi(p) equals pi(z)(pi(z)+1)/2 for all "
          "z <= 1e4 and z in {1e5, 1e6, 1e7}")


def test_criterion_04_semiprime_cross_check(t10k):
    assert count_pi2(t10k, 0) == 0
    for x in range(1, 10**4 + 1):
        assert count_identity(t10k, x, Ratio(x)).total == count_pi2(t10k, x), x
    print("criterion 4: PASS - C_x(x) == pi_2(x) for every x <= 1e4")


def test_criterion_05_convergence_toward_main_term(t100k):
    r = Ratio(2)
    ratios = {}
    for x, expected in DECADE_COUNTS_R2.items():
        got = count_identity(t100k, x, r).total
        assert got == expected, (x, got, expected)
        assert count_brute(x, r, t100k) == expected, x
        ratios[x] = got / rsa_count_estimate(x, r)
    assert 0.9 < ratios[10**8] < 1.4
    print(f"criterion 5: PASS - audited decade counts reproduced; "
          f"ratio(1e8) = {ratios[10**8]:.6f} lies in (0.9, 1.4)")


@pytest.mark.xfail(
    strict=True,
    reason="the measured deviations |ratio - 1| for r=2 are "
    "0.0341, 0.0785, 0.1148, 0.1170, 0.1112 over x = 1e4..1e8: they rise to "
    "a hump near 1e7 before decreasing, so strict decrease over the whole "
    "grid does not hold for the true counts",
)
def test_criterion_05_deviation_strictly_decreasing(t100k):
    r = Ratio(2)
    devs = [
        abs(count_identity(t100k, x, r).total / rsa_count_estimate(x, r) - 1.0)
        for x in sorted(DECADE_COUNTS_R2)
    ]
    assert all(a > b for a, b in zip(devs, devs[1:])), devs


def test_criterion_06_normalized_error_across_r(t100k):
    x = 10**8
    errs = {}
    for r, expected in COUNTS_AT_1E8.items():
        got = count_identity(t100k, x, r).total
        assert got == expected, (str(r), got, expected)
        assert count_brute(x, r, t100k) == expected, str(r)
        errs[r] = _err_normalized(x, r, got)
    lo, hi = ERR_NORMALIZED_BAND_1E8
    assert all(lo <= e <= hi for e in errs.values()), errs
    # no growth trend with r: the largest normalized error sits at small r
    # and the value at r=100 is the smallest of the set
    assert errs[Ratio(100)] == min(errs.values())
    assert max(errs.values()) == errs[Ratio(2)]
    print("criterion 6: PASS - audited counts reproduced at x=1e8; normalized "
          "errors stay in the recorded band "
          f"[{lo}, {hi}] with no growth in r")


@pytest.mark.xfail(
    strict=True,
    reason="the measured normalized errors at x=1e8 span a factor 20.4 "
    "(0.0411 at r=100 up to 0.839 at r=2), outside a factor-10 band; the "
    "r log(er) normalizer overestimates the true error growth in r",
)
def test_criterion_06_normalized_error_within_factor_10(t100k):
    x = 10**8
    errs = [
        _err_normalized(x, r, count_identity(t100k, x, r).total)
        for r in COUNTS_AT_1E8
    ]
    assert max(errs) / min(errs) <= 10.0, (min(errs), max(errs))


def test_criterion_07_prime_reciprocal_residual():
    r7 = mertens_sum(10**7).residual
    r8 = mertens_sum(10**8).residual
    assert abs(r8 - r7) <= 5e-3
    assert 0.25 <= r8 <= 0.28
    print(f"criterion 7: PASS - residual(1e8) = {r8:.9f} in [0.25, 0.28], "
          f"|residual(1e8) - residual(1e7)| = {abs(r8 - r7):.2e} <= 5e-3")


def test_criterion_08_pi_versus_li(t10m):
    for x in (10**5, 10**6, 10**7):
        gap = abs(t10m.prime_count(x) - log_integral(float(x)))
        bound = x / math.log(x) ** 3
        assert gap <= bound, (x, gap, bound)
    print("criterion 8: PASS - |pi(x) - Li(x)| <= x/log^3 x at "
          "x in {1e5, 1e6, 1e7}")


def test_criterion_09_prime_counter_against_trial_division(t10k):
    assert t10k.prime_count(10**4) == 1229
    running = 0
    for n in range(10**4 + 1):
        if is_prime_td(n):
            running += 1
        assert t10k.prime_count(n) == running, n
    print("criterion 9: PASS - pi(1e4) = 1229 and prime_count matches trial "
          "division for every n <= 1e4")


def test_criterion_10_cli_byte_determinism(tmp_path):
    args = [
        sys.executable, "-m", "rsad", "table",
        "--x-min", "100", "--x-max", "1e6", "--points-per-decade", "3",
        "--r", "2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = subprocess.run(args + ["--threads", "1", "--out", str(a)],
                        capture_output=True)
    rb = subprocess.run(args + ["--threads", "6", "--out", str(b)],
                        capture_output=True)
    assert ra.returncode == 0 and rb.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    print("criterion 10: PASS - table output byte-identical across "
          "--threads 1 and --threads 6")
