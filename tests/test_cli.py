import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rsad.primes
from rsad import PrimeTable, cli
from rsad.cli import _geometric_grid, main


def run_cli(*argv):
    return main(list(argv))


def exit_code(*argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# Byte-exact stdout of count, table, mertens, pi, li and verify, each frozen
# from the code before a rewrite of its path; a change here must be deliberate.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
GOLDEN_OUT = {c["argv"]: c["stdout"] for c in GOLDEN}


@pytest.mark.parametrize("case", GOLDEN, ids=[c["argv"] for c in GOLDEN])
def test_golden_stdout(case, capsys):
    assert run_cli(*case["argv"].split()) == 0
    assert capsys.readouterr().out == case["stdout"]


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the attributes set on it and read from it."""

    def __init__(self):
        object.__setattr__(self, "set_names", set())
        object.__setattr__(self, "read_names", set())

    def __setattr__(self, name, value):
        self.set_names.add(name)
        object.__setattr__(self, name, value)

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "set_names"):
            object.__getattribute__(self, "read_names").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    "count --x 1000 --r 2 --method both --cache {cache}",
    "table --x-min 100 --x-max 1000 --r 2",
    "mertens --z 100",
    "pi --x 100",
    "li --x 100",
    "verify --max-x 50 --r 2",
])
def test_every_accepted_option_is_read(argv, tmp_path, capsys):
    args = cli.build_parser().parse_args(
        argv.format(cache=tmp_path / "primes.bin").split(), namespace=_ReadRecorder()
    )
    args.read_names.clear()  # argparse itself reads while it parses
    assert args.func(args) == 0
    unread = args.set_names - args.read_names - {"command", "func"}
    # the benchmark passes --threads to every op and --cache to its count,
    # table, mertens and pi ops, though nothing reads either
    unread.discard("threads")
    if args.command in ("count", "table", "mertens", "pi"):
        unread.discard("cache")
    assert not unread


# --- grids ---------------------------------------------------------------

def test_geometric_grid_decades():
    assert _geometric_grid(100, 100000, 1) == [100, 1000, 10000, 100000]


def test_geometric_grid_single_point():
    assert _geometric_grid(100, 100, 4) == [100]


def test_geometric_grid_monotone_endpoints():
    grid = _geometric_grid(50, 98765, 7)
    assert grid[0] == 50 and grid[-1] == 98765
    assert all(a < b for a, b in zip(grid, grid[1:]))


def _grid_stepping_every_k(x_min, x_max, points_per_decade):
    # the grid as first written: every k, repeats dropped afterwards
    if x_min == x_max:
        return [x_min]
    xs = []
    k = 0
    while True:
        v = int(round(x_min * 10 ** (k / points_per_decade)))
        if v >= x_max:
            break
        xs.append(v)
        k += 1
    xs.append(x_max)
    out = []
    for v in xs:
        if not out or v > out[-1]:
            out.append(v)
    return out


@pytest.mark.parametrize("x_min,x_max", [
    (2, 3), (2, 1000), (100, 1000), (50, 98765), (999, 1000), (7, 10**9), (10**15, 10**18),
])
def test_geometric_grid_matches_stepping_every_k(x_min, x_max):
    for ppd in range(1, 61):
        assert _geometric_grid(x_min, x_max, ppd) == _grid_stepping_every_k(x_min, x_max, ppd)


def test_geometric_grid_of_consecutive_integers_makes_o_rows_points(monkeypatch):
    # a gallop from step 1 at every point made about 60 evaluations a row here
    calls = []
    point = cli._grid_point

    def recording_point(*args):
        calls.append(args)
        return point(*args)

    monkeypatch.setattr(cli, "_grid_point", recording_point)
    grid = _geometric_grid(2, 20001, 10**12)
    assert grid == list(range(2, 20002))
    assert len(calls) <= 4 * len(grid)


def test_geometric_grid_dense_request_is_bounded(capsys):
    # 1e12 points per decade: every integer from 100 to 1000 once
    assert run_cli(
        "table", "--x-min", "100", "--x-max", "1000", "--r", "2",
        "--points-per-decade", "1e12",
    ) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(100, 1001))


def test_geometric_grid_over_the_row_bound_exits_3(capsys, monkeypatch):
    # about 1.8e13 rows: refused before any point is made or any sieving
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid was swept")

    monkeypatch.setattr(cli.counting, "count_sweep_grid", no_sweep)
    t0 = time.perf_counter()
    assert run_cli(
        "table", "--x-min", "2", "--x-max", "1e18", "--r", "2",
        "--points-per-decade", "1e12",
    ) == 3
    assert time.perf_counter() - t0 < 5
    assert "over the bound of 1000000" in capsys.readouterr().err


def test_geometric_grid_refuses_a_grid_over_the_row_bound(monkeypatch):
    # every integer from 100 to 1000 is 901 rows
    monkeypatch.setattr(cli, "_MAX_GRID_ROWS", 901)
    assert len(_geometric_grid(100, 1000, 10**12)) == 901
    monkeypatch.setattr(cli, "_MAX_GRID_ROWS", 900)
    with pytest.raises(cli.Refused):
        _geometric_grid(100, 1000, 10**12)


# --- count ---------------------------------------------------------------

def test_count_both_methods(capsys):
    assert run_cli("count", "--x", "100", "--r", "2", "--method", "both") == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "x,r,exact,estimate,abs_err,rel_err,method,seconds"
    assert lines[1].startswith("100,2,5,")
    assert lines[1].endswith(",brute,0")
    assert lines[2].startswith("100,2,5,")
    assert lines[2].endswith(",identity,0")


def test_count_json(capsys):
    assert run_cli("count", "--x", "1e4", "--r", "3/2", "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["x"] == 10**4
    assert rows[0]["r"] == "3/2"
    assert rows[0]["exact"] == 95
    assert rows[0]["method"] == "identity"
    assert rows[0]["seconds"] == 0


def test_count_degenerate_x(capsys):
    assert run_cli("count", "--x", "0", "--r", "2") == 0
    assert ",0,0," in capsys.readouterr().out


def test_table_at_unit_ratio_reads_ratio_1_on_a_zero_estimate(capsys):
    # r = 1 admits no p < q <= p: count and estimate are both 0
    argv = "table --x-min 100 --x-max 1e4 --points-per-decade 1 --r 1"
    assert run_cli(*argv.split()) == 0
    assert capsys.readouterr().out == (
        "x,r,exact,estimate,abs_err,rel_err,ratio,err_normalized,seconds\n"
        "100,1,0,0,0,0,1,0,0\n"
        "1000,1,0,0,0,0,1,0,0\n"
        "10000,1,0,0,0,0,1,0,0\n"
    )


def test_count_timing_opt_in(capsys):
    assert run_cli("count", "--x", "1000", "--r", "2", "--timing") == 0
    seconds = capsys.readouterr().out.strip().split("\n")[1].split(",")[-1]
    assert float(seconds) >= 0.0


# --- exit codes ----------------------------------------------------------

def test_bad_ratio_exits_2():
    with pytest.raises(SystemExit) as info:
        run_cli("count", "--x", "100", "--r", "0.5")
    assert info.value.code == 2


def test_bad_scale_exits_2():
    with pytest.raises(SystemExit) as info:
        run_cli("count", "--x", "1e4.5", "--r", "2")
    assert info.value.code == 2


def test_bad_grid_returns_2(capsys):
    assert run_cli("table", "--x-min", "1", "--x-max", "10", "--r", "2") == 2
    assert run_cli("table", "--x-min", "100", "--x-max", "10", "--r", "2") == 2


@pytest.mark.parametrize("argv", [
    "count --x inf --r 2",
    "count --x 1e30 --r 2",
    "count --x 18446744073709551616 --r 2 --memory-budget-bytes 1000",
    "pi --x inf",
    "table --x-min 100 --x-max inf --r 2",
    "li --x nan",
    "li --x inf",
    "count --x 100 --r 2 --method brute --brute-budget 0",
    "count --x 100 --r 2 --memory-budget-bytes 0",
    "table --x-min 100 --x-max 1000 --r 2 --threads 0",
    "table --x-min 100 --x-max 1000 --r 2 --threads -1",
    "table --x-min 100 --x-max 1000 --r 2 --points-per-decade 0",
    "mertens --z 1",
    # options a subcommand would not read
    "li --x 100 --cache c",
    "pi --x 100 --format json",
    "mertens --z 10 --timing",
    "verify --max-x 10 --out v",
    "table --x-min 100 --x-max 1000 --r 2 --brute-budget 5",
    "count --x 100 --r 2 --method brute --table-limit 100",
    "table --x-min 100 --x-max 1000 --r 2 --memory-budget-bytes 1e9",
    "mertens --z 100 --memory-budget-bytes 1e9",
    "pi --x 100 --memory-budget-bytes 1e9",
    # verify with no ratio would skip its identity-vs-brute check
    "verify --max-x 3 --r ,",
    "verify --max-x 3 --r=",
])
def test_never_valid_input_exits_2(argv, capsys):
    assert exit_code(*argv.split()) == 2


def test_brute_budget_returns_3(capsys):
    code = run_cli(
        "count", "--x", "1e6", "--r", "2", "--method", "brute",
        "--brute-budget", "1000",
    )
    assert code == 3


@pytest.mark.parametrize("argv", [
    "count --x 1e17 --r 2 --method brute",
    "count --x 1e17 --r 2 --method both",
    "verify --max-x 1e16",
], ids=["brute", "both", "verify"])
def test_brute_budget_checked_before_any_table(capsys, monkeypatch, argv):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "build_table", no_table)
    monkeypatch.setattr(cli, "primes_upto", no_table)
    assert run_cli(*argv.split()) == 3
    assert "exceeds brute-force budget" in capsys.readouterr().err


def test_verify_arrays_checked_against_the_memory_budget(capsys, monkeypatch):
    # the two arrays of counts over [0, max_x] dwarf the primes at this size
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "primes_upto", no_table)
    assert run_cli("verify", "--max-x", "1e6", "--memory-budget-bytes", "1e6") == 3
    assert "over the 1000000-byte budget" in capsys.readouterr().err


def test_verify_admitted_on_its_table_and_arrays_together(capsys, monkeypatch):
    # the default max-x 1e5 and ratios read the primes to 1e4 (120016 bytes
    # at peak as a list) beside two arrays of counts, 16 bytes per x
    need = 120016 + 16 * (10**5 + 1)
    assert need == rsad.exact._list_peak_bytes(10**4) + 16 * (10**5 + 1)
    real = cli.primes_upto

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "primes_upto", no_table)
    assert run_cli("verify", "--memory-budget-bytes", str(need - 1)) == 3
    assert "at peak" in capsys.readouterr().err
    monkeypatch.setattr(cli, "primes_upto", real)
    assert run_cli("verify", "--memory-budget-bytes", str(need)) == 0


@pytest.mark.parametrize("argv", [
    "pi --x 1e19",
    "mertens --z 1e19",
    "count --x 1e18 --r 1000000",
    "table --x-min 1e18 --x-max 1e19 --r 1000000",
])
def test_work_bound_exits_3_before_sieving(argv, capsys, monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("a segment was sieved")

    monkeypatch.setattr(rsad.primes._OddSieve, "segments", no_sieve)
    assert run_cli(*argv.split()) == 3
    assert capsys.readouterr().err.startswith("error: sieving to ")


def _expected_without_cli_tables(argv):
    """argv's stdout computed on a prime table outside the CLI."""
    from rsad import Ratio, count_identity

    table = rsad.primes.build_table(10**5)
    if argv.startswith("pi"):
        return f"{table.prime_count(10**5)}\n"
    if argv.startswith("mertens"):
        total = math.fsum((1.0 / table.primes.astype(np.float64)).tolist())
        loglog = math.log(math.log(10**5))
        return f"sum={total:.12g}\nloglog_z={loglog:.12g}\nresidual={total - loglog:.12g}\n"
    grid = _geometric_grid(100, 10**5, 3)
    return [count_identity(table, x, Ratio(5, 2)).total for x in grid]


@pytest.mark.parametrize("argv", [
    "table --x-min 100 --x-max 1e5 --r 5/2 --points-per-decade 3",
    "pi --x 1e5",
    "mertens --z 1e5",
])
def test_table_pi_and_mertens_hold_no_table(argv, tmp_path, capsys, monkeypatch):
    want = _expected_without_cli_tables(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built, loaded or saved")

    monkeypatch.setattr(cli, "build_table", refuse)
    monkeypatch.setattr(cli, "load_table", refuse)
    monkeypatch.setattr(PrimeTable, "save", refuse)
    cache = tmp_path / "primes.bin"
    assert run_cli(*argv.split(), "--cache", str(cache)) == 0
    assert not cache.exists()
    out = capsys.readouterr().out
    if argv.startswith("table"):
        out = [int(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert out == want


def _record_builds(monkeypatch):
    limits = []

    def recorder(build):
        def wrapped(limit, **kwargs):
            limits.append(limit)
            return build(limit, **kwargs)
        return wrapped

    monkeypatch.setattr(rsad.primes, "build_table", recorder(rsad.primes.build_table))
    monkeypatch.setattr(cli, "build_table", recorder(cli.build_table))
    monkeypatch.setattr(cli, "primes_upto", recorder(cli.primes_upto))  # verify's list
    return limits


def test_count_without_a_table_sieves_only_base_primes(capsys, monkeypatch):
    from rsad import Ratio, count_identity

    want = count_identity(rsad.primes.build_table(math.isqrt(2 * 10**12)), 10**12, Ratio(2))
    limits = _record_builds(monkeypatch)
    assert run_cli("count", "--x", "1e12", "--r", "2") == 0
    assert capsys.readouterr().out.split("\n")[1].startswith(f"1000000000000,2,{want.total},")
    assert limits and max(limits) <= math.isqrt(math.isqrt(2 * 10**12)) + 1


@pytest.mark.parametrize("argv,want", [
    ("count --x 1e6 --r 1000000000000 --method brute", ",209867,"),
    ("verify --max-x 1000 --r 100000000000000", "all checks passed"),
])
def test_brute_tables_stop_at_x_for_ratios_above_x(argv, want, capsys, monkeypatch):
    # sqrt(r*x) would be 10^9 and 3.2*10^8, but no pi argument exceeds x
    limits = _record_builds(monkeypatch)
    assert run_cli(*argv.split()) == 0
    assert want in capsys.readouterr().out
    x = int(float(argv.split()[2]))
    assert limits and max(limits) <= x + 64


def test_method_disagreement_returns_4(capsys, monkeypatch):
    from rsad import exact

    real = exact.count_brute_list
    monkeypatch.setattr(
        exact, "count_brute_list", lambda primes, x, r: real(primes, x, r) + 1
    )
    code = run_cli("count", "--x", "100", "--r", "2", "--method", "both")
    assert code == 4
    assert "disagreement" in capsys.readouterr().err


# --- table ---------------------------------------------------------------

def test_table_csv_shape(capsys):
    assert run_cli(
        "table", "--x-min", "100", "--x-max", "1e4",
        "--points-per-decade", "2", "--r", "2",
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,r,exact,estimate,abs_err,rel_err,ratio,err_normalized,seconds"
    assert len(lines) == 6  # 100, 316, 1000, 3162, 10000
    assert lines[1].split(",")[0] == "100"
    assert lines[-1].split(",")[0] == "10000"


def test_table_single_point_matches_count(capsys):
    assert run_cli(
        "table", "--x-min", "100", "--x-max", "100", "--r", "2",
    ) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[0] == "100" and row[2] == "5"


def test_table_deterministic_across_threads(tmp_path):
    args = [
        "table", "--x-min", "100", "--x-max", "1e5",
        "--points-per-decade", "3", "--r", "5/2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--threads", "1", "--out", str(a)) == 0
    assert run_cli(*args, "--threads", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_table_csv_round_trips(tmp_path):
    import csv

    out = tmp_path / "t.csv"
    assert run_cli(
        "table", "--x-min", "100", "--x-max", "1e5",
        "--points-per-decade", "1", "--r", "2", "--out", str(out),
    ) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["x"]) for row in rows] == [100, 1000, 10**4, 10**5]
    assert [int(row["exact"]) for row in rows] == [5, 25, 169, 1128]
    # integer columns never use scientific notation
    assert all("e" not in row["x"] and "e" not in row["exact"] for row in rows)


def test_table_json(capsys):
    assert run_cli(
        "table", "--x-min", "1000", "--x-max", "1000", "--r", "2",
        "--format", "json",
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["x"] == 1000
    assert rows[0]["exact"] == 25
    assert rows[0]["ratio"] == pytest.approx(rows[0]["exact"] / rows[0]["estimate"], rel=1e-9, abs=0)


# --- scalar subcommands --------------------------------------------------

def test_pi_subcommand(capsys):
    assert run_cli("pi", "--x", "1e4") == 0
    assert capsys.readouterr().out == "1229\n"


def test_li_subcommand(capsys):
    assert run_cli("li", "--x", "100") == 0
    assert capsys.readouterr().out == "29.080977804\n"


# Li from mpmath at 40 digits, to the 12 significant digits li prints
@pytest.mark.parametrize("x,stdout", [
    ("1e16", "2.79238344249e+14\n"),
    ("1e19", "2.34057667376e+17\n"),
    ("18446744073709551615", "4.25656284116e+17\n"),
])
def test_li_subcommand_large_x(x, stdout, capsys):
    assert run_cli("li", "--x", x) == 0
    assert capsys.readouterr().out == stdout


def test_li_rejects_small_x(capsys):
    assert run_cli("li", "--x", "1.5") == 2


def test_mertens_subcommand(capsys):
    assert run_cli("mertens", "--z", "10") == 0
    out = capsys.readouterr().out
    assert out.startswith("sum=1.17619047619\n")
    assert "residual=" in out


def test_mertens_json(capsys):
    assert run_cli("mertens", "--z", "100", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["z"] == 100
    assert doc["sum"] == pytest.approx(1.802817, abs=1e-5)


# --- verify --------------------------------------------------------------

def test_verify_small(capsys):
    assert run_cli("verify", "--max-x", "300", "--r", "2") == 0
    out = capsys.readouterr().out
    assert "identity-vs-brute for r=2: all 301 x values agree" in out
    assert "all checks passed" in out


def test_verify_multiple_ratios(capsys):
    assert run_cli("verify", "--max-x", "150", "--r", "3/2,2,5") == 0
    out = capsys.readouterr().out
    assert "r=3/2" in out and "r=5" in out


def test_verify_catches_broken_counter(capsys, monkeypatch):
    from rsad import exact

    real = exact.identity_counts_list
    def broken(primes, max_x, r):
        counts = real(primes, max_x, r)
        counts[77] += 1
        return counts

    monkeypatch.setattr(exact, "identity_counts_list", broken)
    assert run_cli("verify", "--max-x", "100", "--r", "2") == 4
    assert capsys.readouterr().err == "mismatch at x=77, r=2: brute=4, identity=5\n"


def _make_in_the_cli_primes(monkeypatch, mistake):
    """Apply mistake, a function of a list of primes, to every table and
    list of the primes the CLI builds: count's tables here, verify's lists."""
    real_table, real_list = cli.build_table, cli.primes_upto

    def table(limit, **kw):
        primes = mistake(real_table(limit, **kw).primes.tolist())
        return PrimeTable(limit, np.array(primes, dtype=np.uint64))

    monkeypatch.setattr(cli, "build_table", table)
    monkeypatch.setattr(cli, "primes_upto", lambda limit: mistake(real_list(limit)))


def test_verify_catches_a_table_that_breaks_the_pi_sum(capsys, monkeypatch):
    # a second 31 in place of 37 lies above every pi argument of the identity
    # check at x <= 100, r = 2, and keeps the table's prime count; 103 in
    # place of 97 (above them too) cancels its shift of the table's prime
    # sum, so only the pi-sum closed form sees it
    _make_in_the_cli_primes(monkeypatch, lambda ps: [{37: 31, 97: 103}.get(p, p) for p in ps])
    assert run_cli("verify", "--max-x", "100", "--r", "2") == 4
    captured = capsys.readouterr()
    assert captured.out == "identity-vs-brute for r=2: all 101 x values agree\n"
    assert captured.err == (
        "pi-sum closed form failed at z=31: sum of pi(p) for p <= 31 gave 79, closed form 78\n"
    )


@pytest.mark.parametrize("argv", [
    "verify --max-x 1000",
    "count --x 1000 --r 2 --method brute",
])
def test_a_table_that_drops_a_prime_exits_4(argv, capsys, monkeypatch):
    # brute, the identity and the pi-sum closed form all read the table, so
    # without the check against prime_pi they agree on it and exit 0
    _make_in_the_cli_primes(monkeypatch, lambda ps: [p for p in ps if p != 13])
    assert run_cli(*argv.split()) == 4
    captured = capsys.readouterr()
    limit, pi = (1000, 168) if argv.startswith("verify") else (44, 14)
    assert captured.out == ""
    assert captured.err == (
        f"table check failed: the prime table to {limit} holds {pi - 1} primes, pi({limit}) = {pi}\n"
    )


@pytest.mark.parametrize("argv,limit,total", [
    ("verify --max-x 1000", 1000, 76127),
    ("count --x 1000 --r 2 --method brute", 44, 281),
])
def test_a_table_with_a_wrong_prime_exits_4(argv, limit, total, capsys, monkeypatch):
    # 38 in place of 37 keeps the count; every other check reads the same
    # table, so only the prime sum sees it
    _make_in_the_cli_primes(monkeypatch, lambda ps: [38 if p == 37 else p for p in ps])
    assert run_cli(*argv.split()) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"table check failed: the primes of the prime table to {limit} sum to "
        f"{total + 1} mod 2^64, the primes up to {limit} to {total}\n"
    )


def test_verify_catches_a_broken_pi2(capsys, monkeypatch):
    from rsad import Ratio, exact

    real = exact.brute_counts_list
    def broken(primes, max_x, r):
        counts = real(primes, max_x, r)
        if r == Ratio(100):  # the pi2 check's ratio M = max_x
            counts[77] += 1
        return counts

    monkeypatch.setattr(exact, "brute_counts_list", broken)
    assert run_cli("verify", "--max-x", "100", "--r", "2") == 4
    captured = capsys.readouterr()
    assert captured.out.endswith("pi-sum closed form: verified for all z <= 100\n")
    assert captured.err == "pi2 cross-check failed at x=77: C_x(x)=22, pi2=23\n"


# verify --max-x 1e6 at the default ratios and at r = 10^14, recorded when
# verify ran at this size on a numpy prime table; both now run on lists
_VERIFY_1E6 = {
    "3/2,2,5,10": "".join(
        f"identity-vs-brute for r={r}: all 1000001 x values agree\n" for r in ("3/2", "2", "5", "10")
    ) + "pi-sum closed form: verified for all z <= 10000\n"
        "pi2 cross-check: verified for all x <= 1000\n"
        "all checks passed (4011003 total)\n",
    "100000000000000": "identity-vs-brute for r=100000000000000: all 1000001 x values agree\n"
                       "pi-sum closed form: verified for all z <= 10000\n"
                       "pi2 cross-check: verified for all x <= 1000\n"
                       "all checks passed (1011000 total)\n",
}


@pytest.mark.parametrize("ratios", _VERIFY_1E6)
def test_verify_at_1e6_prints_what_the_table_path_printed(ratios, capsys):
    assert run_cli("verify", "--max-x", "1e6", "--r", ratios) == 0
    assert capsys.readouterr() == (_VERIFY_1E6[ratios], "")


def test_verify_makes_no_pointwise_calls(capsys, monkeypatch):
    def pointwise(*args):
        raise AssertionError("verify checks whole arrays")

    for module, name in [
        (cli.counting, "count_identity"),
        (cli.counting, "count_pi2"),
        (cli.diagnostics, "count_identity"),
        (cli.diagnostics, "sum_pi_p"),
    ]:
        monkeypatch.setattr(module, name, pointwise)
    assert run_cli("verify", "--max-x", "300") == 0
    assert capsys.readouterr().out == GOLDEN_OUT["verify --max-x 300"]


# --- cache ---------------------------------------------------------------

BRUTE = ("count", "--x", "1e4", "--r", "2", "--method", "brute")


def _exact_column(out):
    return [line.split(",")[2] for line in out.strip().split("\n") if line[:1].isdigit()]


def test_cache_env_var_is_not_read(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env.bin"
    monkeypatch.setenv("RSAD_CACHE", str(cache))
    assert run_cli(*BRUTE) == 0
    assert not cache.exists()


def test_count_and_verify_never_read_or_write_a_cache(tmp_path, capsys, monkeypatch):
    # two well-formed caches that a reader would trust: one to 1e5 that
    # lacks the prime 547, and the primes up to 20000 under a limit of 1e9
    table = rsad.primes.build_table(10**5)
    bad547, liar = tmp_path / "bad547.bin", tmp_path / "liar.bin"
    PrimeTable(limit=table.limit, primes=table.primes[table.primes != 547]).save(bad547)
    PrimeTable(limit=10**9, primes=table.primes[table.primes <= 20000]).save(liar)
    caches = {path: path.read_bytes() for path in (bad547, liar)}

    def refuse(*args, **kwargs):
        raise AssertionError("a cache was read or written")

    monkeypatch.setattr(cli, "load_table", refuse)
    monkeypatch.setattr(PrimeTable, "save", refuse)
    for argv, exact in [
        (f"count --x 1e8 --r 2 --method brute --cache {bad547}", "453998"),
        (f"count --x 1e8 --r 2 --method both --cache {bad547}", "453998"),
        (f"count --x 1e9 --r 2 --method brute --brute-budget 1e9 --cache {liar}", "3566148"),
        (f"count --x 1e9 --r 2 --method both --brute-budget 1e9 --cache {liar}", "3566148"),
    ]:
        assert run_cli(*argv.split()) == 0, argv
        rows = _exact_column(capsys.readouterr().out)
        assert rows == [exact] * (2 if "both" in argv else 1), argv
    assert exit_code("verify", "--max-x", "1e4", "--cache", str(bad547)) == 2
    assert {path: path.read_bytes() for path in caches} == caches

    missing = tmp_path / "missing"
    assert run_cli(*BRUTE, "--cache", str(missing / "c")) == 0
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    "mertens --z 1e4 --out {missing}/f",
    "count --x 1e6 --r 2 --out {dir}",
], ids=["out-missing-dir", "out-is-dir"])
def test_unwritable_out_or_cache_exits_3(tmp_path, capsys, argv):
    argv = argv.format(dir=tmp_path, missing=tmp_path / "missing" / "d")
    assert run_cli(*argv.split()) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


# --- process-level entry -------------------------------------------------

def test_unallocatable_table_exits_3(child_env):
    # admitted by both budgets, but the 1.6 EiB table to sqrt(r*x) = 1e19
    # cannot be allocated; the allocation comes before any sieving, so this
    # fails at once
    proc = subprocess.run(
        [sys.executable, "-m", "rsad", "count", "--x", "1e19", "--r", "10000000000000000000",
         "--method", "brute", "--brute-budget", "1e19", "--memory-budget-bytes", "1e19"],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# entry() ends its process by os._exit, so it runs only in a child.  The
# script replaces the rsad.cli function argv[1] names, then runs entry() on
# the rest of argv.
_ENTRY_WITH = """
import sys
import rsad.cli

def interrupted(*args):
    raise KeyboardInterrupt

real_primes_upto = rsad.cli.primes_upto
def without_13(limit):
    return [p for p in real_primes_upto(limit) if p != 13]

name = sys.argv.pop(1)
setattr(rsad.cli, name, {"main": interrupted, "primes_upto": without_13}[name])
rsad.cli.entry()
"""


def run_entry(child_env, name, *argv):
    return subprocess.run(
        [sys.executable, "-c", _ENTRY_WITH, name, *argv],
        capture_output=True, text=True, timeout=60, env=child_env,
    )


def test_interrupt_exits_130_from_entry_only(monkeypatch, child_env):
    # main lets Ctrl-C through to in-process callers; the console script maps it
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "prime_pi", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["pi", "--x", "10"])
    proc = run_entry(child_env, "main")
    assert (proc.returncode, proc.stderr, proc.stdout) == (130, "interrupted\n", "")


def test_check_failure_and_unwritable_out_exit_through_entry(tmp_path, child_env):
    proc = run_entry(child_env, "primes_upto", "count", "--x", "1000", "--r", "2",
                     "--method", "brute")
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "table check failed: the prime table to 44 holds 13 primes, pi(44) = 14\n"
    proc = subprocess.run(
        [sys.executable, "-m", "rsad", "count", "--x", "1e6", "--r", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# the first golden case of each subcommand
_FIRST_GOLDEN_OF_EACH = {c["argv"].split()[0]: c for c in reversed(GOLDEN)}


@pytest.mark.parametrize("case", _FIRST_GOLDEN_OF_EACH.values(),
                         ids=list(_FIRST_GOLDEN_OF_EACH))
def test_golden_stdout_through_the_console_script(case, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "rsad", *case["argv"].split()],
        capture_output=True, timeout=60, env=child_env,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == case["stdout"].encode()


# 2401 rows, about 227 kB of CSV: more than a pipe buffer holds
_LARGE_TABLE = "table --x-min 1e6 --x-max 1e12 --points-per-decade 400 --r 2".split()


def test_output_larger_than_a_pipe_buffer_is_written_whole(tmp_path, capsys, child_env):
    assert main(_LARGE_TABLE) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 2**17
    proc = subprocess.run([sys.executable, "-m", "rsad", *_LARGE_TABLE],
                          capture_output=True, timeout=120, env=child_env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected
    out = tmp_path / "table.csv"
    proc = subprocess.run([sys.executable, "-m", "rsad", *_LARGE_TABLE, "--out", str(out)],
                          capture_output=True, timeout=120, env=child_env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == expected


@pytest.mark.parametrize("argv", [["pi", "--x", "100"], _LARGE_TABLE], ids=["flush", "write"])
def test_stdout_to_a_closed_pipe_exits_3_with_one_line(argv, child_env):
    # Buffered, pi's 3 bytes meet the closed pipe at entry()'s final flush,
    # which once exited 120 with an "Exception ignored" block; the table's
    # rows meet it inside main, which returns 3, and the flush fails again.
    child_env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rsad", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=child_env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (3, "error: [Errno 32] Broken pipe\n")


_CLOSED_STDOUT_RUNS = {
    "pi": "pi --x 10",
    "li": "li --x 10",
    "count": "count --x 100 --r 2",
    "table": "table --x-min 100 --x-max 1000 --r 2",
    "mertens": "mertens --z 100",
    "verify": "verify --max-x 100",
}


@pytest.mark.parametrize("argv", _CLOSED_STDOUT_RUNS.values(), ids=list(_CLOSED_STDOUT_RUNS))
def test_closed_stdout_exits_3_with_one_line(argv, tmp_path, child_env):
    # started with fd 1 closed, Python sets sys.stdout to None; writing to it
    # once raised AttributeError with a traceback, exit 1 (verify's print
    # calls wrote nothing and exited 0)
    def run(*extra):
        return subprocess.run([sys.executable, "-m", "rsad", *argv.split(), *extra],
                              stderr=subprocess.PIPE, text=True, timeout=60, env=child_env,
                              preexec_fn=lambda: os.close(1))

    proc = run()
    assert (proc.returncode, proc.stderr) == (3, "error: stdout is closed\n")
    if not argv.startswith("verify"):  # the one subcommand with no --out
        out = tmp_path / "out.txt"
        proc = run("--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main([*argv.split(), "--out", str(tmp_path / "in_process.txt")]) == 0
        assert out.read_bytes() == (tmp_path / "in_process.txt").read_bytes()


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
@pytest.mark.parametrize("argv,code", [
    ("mertens --z 1", 2),
    ("count --x 1000 --r 2 --out /nonexistent/x", 3),
    ("pi --x 68719476737", 3),
])
def test_closed_stderr_keeps_the_exit_code(argv, code, stderr, child_env):
    # started with fd 2 closed, Python sets sys.stderr to None, and print(...,
    # file=None) wrote the error line to stdout; on a read-only fd 2 the
    # print raised OSError inside main's handler.  Both exited 1.
    def close_stderr():
        if stderr == "closed":
            os.close(2)
        else:
            os.dup2(os.open(os.devnull, os.O_RDONLY), 2)

    proc = subprocess.run([sys.executable, "-m", "rsad", *argv.split()],
                          stdout=subprocess.PIPE, text=True, timeout=60, env=child_env,
                          preexec_fn=close_stderr)
    assert (proc.returncode, proc.stdout) == (code, "")


# A KeyboardInterrupt raised inside a finalizer is printed as "Exception
# ignored" and swallowed, so this run once went on to print 4 and exit 0.
_INTERRUPT_IN_A_FINALIZER = """
import os, signal, sys
import rsad.cli

class Interrupts:
    def __del__(self):
        os.kill(os.getpid(), signal.SIGINT)

def prime_pi(x):
    Interrupts()
    return 4

rsad.cli.prime_pi = prime_pi
sys.argv = ["rsad", "pi", "--x", "10"]
rsad.cli.entry()
"""


def test_interrupt_inside_a_finalizer_exits_130(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", _INTERRUPT_IN_A_FINALIZER],
        capture_output=True, text=True, env=child_env, timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (130, "interrupted\n", "")


def test_module_invocation_subprocess(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "rsad", "count", "--x", "100", "--r", "2"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("100,2,5,")


def test_subprocess_exit_code_2(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "rsad", "count", "--x", "100", "--r", "zebra"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 2
