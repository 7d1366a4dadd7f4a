"""Module loading follows the subcommand.

`import rsad`, `import rsad.cli`, `rsad --help`, `rsad li`, `rsad pi`
below 2^27, `rsad count` below a limit of 2^20 and every `rsad verify`
need only the standard library, and so does parsing every option; numpy
and the sieving modules load on first use of one of their names.  count
takes the same path whether numpy is loaded or not, its lists below a
limit of 2^20 where they fit the budget, and prints what numpy's path
prints; verify, which has only its lists, prints the bytes it printed on a
numpy table when it took one from a --max-x of 2^17.  A name a caller set on
rsad.cli before main ran, as a tracer or a test does, is the one main calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import rsad
import rsad.exact
import rsad.primes
from rsad import cli
from rsad.cli import main

# An import finder that refuses numpy
FINDER = """
import runpy, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseNumpy())
"""
# Runs `python -m rsad ARGV...` (or, with no ARGV, `import rsad, rsad.cli`)
# under the finder.
REFUSE_NUMPY = FINDER + """
if len(sys.argv) > 1:
    runpy.run_module("rsad", run_name="__main__", alter_sys=True)
else:
    import rsad, rsad.cli
"""


def run_without_numpy(child_env, *argv):
    return subprocess.run(
        [sys.executable, "-c", REFUSE_NUMPY, *argv],
        capture_output=True, text=True, timeout=60, env=child_env,
    )


def test_li_help_and_import_run_without_numpy(child_env):
    proc = run_without_numpy(child_env, "li", "--x", "1e7", "--threads", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "664917.359885\n", "")
    proc = run_without_numpy(child_env, "li", "--x", "1.5")
    assert proc.returncode == 2
    assert proc.stderr == "error: log_integral requires finite x >= 2, got 1.5\n"
    proc = run_without_numpy(child_env, "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: rsad")
    proc = run_without_numpy(child_env)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_pi_below_2_27_runs_without_numpy(child_env):
    proc = run_without_numpy(child_env, "pi", "--x", "1e7", "--threads", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "664579\n", "")
    proc = run_without_numpy(child_env, "pi", "--x", "134217727")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "7603553\n", "")
    proc = run_without_numpy(child_env, "pi", "--x", "134217728")  # numpy's recursion
    assert proc.returncode == 1
    assert "ImportError: numpy refused" in proc.stderr


def test_the_finder_refuses_numpy_to_a_sieving_subcommand(child_env):
    # the limit isqrt(2e12) = 1414213 is above the integer path's bound
    proc = run_without_numpy(child_env, "count", "--x", "1e12", "--r", "2")
    assert proc.returncode == 1
    assert "ImportError: numpy refused" in proc.stderr


def test_a_bad_option_beside_r_is_a_usage_error_without_numpy(child_env):
    # --r once loaded the sieving modules, and numpy, while argparse parsed
    proc = run_without_numpy(child_env, "table", "--x-min", "1e6", "--x-max", "1e8",
                             "--r", "2", "--points-per-decade", "0")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: rsad table")
    assert proc.stderr.endswith("error: argument --points-per-decade: '0' must be at least 1\n")


# Runs rsad.cli.main on each argv of the JSON list argv[1] in turn, under the
# finder, and prints each run's [code, stdout, stderr] as one JSON list.
MAINS_WITHOUT_NUMPY = FINDER + """
import contextlib, io, json
import rsad.cli

runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rsad.cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def mains_without_numpy(child_env, argvs):
    """[code, stdout, stderr] of main at each argv, run in one child under the finder."""
    proc = subprocess.run(
        [sys.executable, "-c", MAINS_WITHOUT_NUMPY, json.dumps([a.split() for a in argvs])],
        capture_output=True, text=True, timeout=120, env=child_env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return [tuple(run) for run in json.loads(proc.stdout)]


def in_process(argvs, capsys):
    """[code, stdout, stderr] of main at each argv in this process, where numpy is loaded."""
    runs = []
    for argv in argvs:
        code = main(argv.split())
        runs.append((code, *capsys.readouterr()))
    return runs


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
GOLDEN_COUNTS = [c for c in GOLDEN if c["argv"].startswith("count")]
GOLDEN_VERIFIES = [c for c in GOLDEN if c["argv"].startswith("verify")]
GOLDEN_OUT = {c["argv"]: c["stdout"] for c in GOLDEN}


def test_golden_counts_run_without_numpy(child_env):
    runs = mains_without_numpy(child_env, [c["argv"] for c in GOLDEN_COUNTS])
    assert runs == [(0, c["stdout"], "") for c in GOLDEN_COUNTS]


def test_the_benchmarks_counts_run_without_numpy_and_print_the_same(child_env, capsys):
    argvs = [f"count --x {x} --r {r} --method both --threads 2"
             for x in ("1e6", "1e7", "1e8") for r in ("3/2", "2", "10")]
    want = in_process(argvs, capsys)
    assert all(code == 0 for code, _, _ in want)
    assert mains_without_numpy(child_env, argvs) == want


def test_the_paths_refuse_a_count_over_the_brute_budget_alike(child_env, capsys):
    argvs = ["count --x 1e6 --r 2 --method brute --brute-budget 999999",
             "count --x 1e6 --r 2 --method both --brute-budget 1000",
             "count --x 1e6 --r 2 --method identity --brute-budget 1000",
             "count --x 1e6 --r 2 --method both --brute-budget 1e6"]
    want = in_process(argvs, capsys)
    assert [code for code, _, _ in want] == [3, 3, 0, 0]
    assert want[0][2] == "error: x=1000000 exceeds brute-force budget 999999\n"
    assert mains_without_numpy(child_env, argvs) == want


def test_the_paths_refuse_a_count_over_the_memory_budget_alike(child_env, capsys):
    # below the list's need a count takes the numpy path, which refuses or
    # admits it on its own table; at it and above, the integer path.  To
    # isqrt(2e6) = 1414 the list needs more than the table.
    need = rsad.primes._peak_estimate_bytes(1414)
    peak = rsad.exact._list_peak_bytes(1414)
    budgets = [need - 1, need, peak - 1, peak, peak + 1]
    argvs = [f"count --x 1e6 --r 2 --method both --memory-budget-bytes {b}" for b in budgets]
    want = in_process(argvs, capsys)
    assert [code for code, _, _ in want] == [3, 0, 0, 0, 0]
    assert want[0][2] == (f"error: x=1000000 with a prime table to 1414 needs up to {need} bytes "
                          f"at peak, over the {need - 1}-byte budget\n")
    for argv, run in zip(argvs, want):  # fresh processes, numpy allowed
        proc = subprocess.run([sys.executable, "-m", "rsad", *argv.split()],
                              capture_output=True, text=True, timeout=60, env=child_env)
        assert (proc.returncode, proc.stdout, proc.stderr) == run, argv
    assert mains_without_numpy(child_env, argvs[3:]) == want[3:]
    proc = run_without_numpy(child_env, *argvs[2].split())
    assert "ImportError: numpy refused" in proc.stderr  # below the list's need: numpy's path


def test_a_count_below_the_bound_takes_the_lists_with_numpy_loaded(child_env, capsys,
                                                                   monkeypatch):
    argv = "count --x 5e11 --r 2 --method both --brute-budget 5e11"  # limit 10^6
    calls = []
    monkeypatch.setattr(cli, "build_table", calls.append)
    want = in_process([argv], capsys)
    assert calls == [] and want[0][0] == 0
    proc = run_without_numpy(child_env, *argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == want[0]


def test_golden_verifies_run_without_numpy(child_env):
    # the default --max-x of 10^5 among them
    runs = mains_without_numpy(child_env, [c["argv"] for c in GOLDEN_VERIFIES])
    assert runs == [(0, c["stdout"], "") for c in GOLDEN_VERIFIES]


# verify's stdout at --max-x 2^17 and 3*10^5 and the default ratios,
# recorded when verify ran from a --max-x of 2^17 on a numpy table
_TABLE_PATH_VERIFIES = {
    max_x: "".join(f"identity-vs-brute for r={r}: all {max_x + 1} x values agree\n"
                   for r in ("3/2", "2", "5", "10"))
    + "pi-sum closed form: verified for all z <= 10000\n"
      "pi2 cross-check: verified for all x <= 1000\n"
      f"all checks passed ({total} total)\n"
    for max_x, total in [(2**17, 535291), (3 * 10**5, 1211003)]
}


def test_verify_runs_without_numpy_and_prints_the_same(child_env, capsys):
    argvs = [f"verify --max-x {m} --threads 2" for m in (900, 950, 1000, 1050, 1100)]
    argvs += ["verify --max-x 300",
              "verify --max-x 1000 --r 100000000000000",
              "verify --max-x 131071 --r 100000000000000"]
    want = in_process(argvs, capsys)
    assert all(code == 0 for code, _, _ in want)
    assert mains_without_numpy(child_env, argvs) == want
    for max_x, stdout in _TABLE_PATH_VERIFIES.items():  # fresh processes
        proc = run_without_numpy(child_env, "verify", "--max-x", str(max_x))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")


def test_the_paths_refuse_a_verify_over_the_brute_budget_alike(child_env, capsys):
    argvs = ["verify --max-x 1000 --brute-budget 999",
             "verify --max-x 1000 --brute-budget 1000",
             "verify --max-x 1e5 --brute-budget 99999 --r 100000000000000"]
    want = in_process(argvs, capsys)
    assert [code for code, _, _ in want] == [3, 0, 3]
    assert want[0][2] == "error: x=1000 exceeds brute-force budget 999\n"
    assert mains_without_numpy(child_env, argvs) == want


def test_the_paths_refuse_a_verify_over_the_memory_budget_alike(child_env, capsys):
    # verify is admitted on its list of the primes to 1000, which r = 10^14
    # reads, and its two arrays of counts; numpy loaded or not, it takes
    # that one path
    argv = "verify --max-x 1000 --r 100000000000000"
    need = rsad.exact._list_peak_bytes(1000) + 16 * 1001
    argvs = [f"{argv} --memory-budget-bytes {b}" for b in (need - 1, need)]
    want = in_process(argvs, capsys)
    assert want == [
        (3, "", f"error: x=1000 with a prime table to 1000 needs up to {need} bytes "
                f"at peak, over the {need - 1}-byte budget\n"),
        (0, GOLDEN_OUT[argv], ""),
    ]
    assert mains_without_numpy(child_env, argvs) == want


# Runs `rsad ARGV...` under the finder with the mistake sys.argv[1] names:
# rsad.cli.primes_upto replaced by a sieve that makes it, or one of exact's
# verify counters adding 1 at x = 77 (at the ratio Ratio(100) alone, the
# pi2 check's at --max-x 100, for pi2_at_77).
WRONG_LIST = FINDER + """
import rsad.cli, rsad.exact

real = rsad.cli.primes_upto
lists = {
    "without_13": lambda limit: [p for p in real(limit) if p != 13],
    "with_38": lambda limit: [38 if p == 37 else p for p in real(limit)],
    # count and sum kept: 31 + 103 = 37 + 97
    "doubled_31": lambda limit: [{37: 31, 97: 103}.get(p, p) for p in real(limit)],
}


def one_more_at_77(name, ratio=None):
    counter = getattr(rsad.exact, name)

    def broken(primes, max_x, r):
        counts = counter(primes, max_x, r)
        if ratio in (None, r):
            counts[77] += 1
        return counts

    setattr(rsad.exact, name, broken)


mistake = sys.argv.pop(1)
if mistake in lists:
    rsad.cli.primes_upto = lists[mistake]
elif mistake == "identity_at_77":
    one_more_at_77("identity_counts_list")
else:
    one_more_at_77("brute_counts_list", rsad.exact.Ratio(100))
sys.exit(rsad.cli.main(sys.argv[1:]))
"""


def run_wrong(child_env, mistake, argv):
    proc = subprocess.run(
        [sys.executable, "-c", WRONG_LIST, mistake, *argv.split()],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("mistake,stderr", [
    ("without_13", "table check failed: the prime table to 44 holds 13 primes, pi(44) = 14\n"),
    ("with_38", "table check failed: the primes of the prime table to 44 sum to 282 mod 2^64, "
                "the primes up to 44 to 281\n"),
])
def test_a_wrong_list_exits_4_through_the_integer_path(mistake, stderr, child_env):
    # the same lines as test_cli's wrong tables on the numpy path
    run = run_wrong(child_env, mistake, "count --x 1000 --r 2 --method brute")
    assert run == (4, "", stderr)


@pytest.mark.parametrize("mistake,argv,stdout,stderr", [
    ("without_13", "verify --max-x 1000", "",
     "table check failed: the prime table to 1000 holds 167 primes, pi(1000) = 168\n"),
    ("with_38", "verify --max-x 1000", "",
     "table check failed: the primes of the prime table to 1000 sum to 76128 mod 2^64, "
     "the primes up to 1000 to 76127\n"),
    ("doubled_31", "verify --max-x 100 --r 2",
     "identity-vs-brute for r=2: all 101 x values agree\n",
     "pi-sum closed form failed at z=31: sum of pi(p) for p <= 31 gave 79, closed form 78\n"),
    ("identity_at_77", "verify --max-x 100 --r 2", "",
     "mismatch at x=77, r=2: brute=4, identity=5\n"),
    ("pi2_at_77", "verify --max-x 100 --r 2",
     "identity-vs-brute for r=2: all 101 x values agree\n"
     "pi-sum closed form: verified for all z <= 100\n",
     "pi2 cross-check failed at x=77: C_x(x)=22, pi2=23\n"),
])
def test_a_wrong_list_or_counter_fails_verify_through_the_integer_path(
        mistake, argv, stdout, stderr, child_env):
    # the lines of test_cli's wrong tables and broken counters, run where numpy is loaded
    assert run_wrong(child_env, mistake, argv) == (4, stdout, stderr)


@pytest.mark.parametrize("name", rsad.__all__)
def test_package_name_resolves_to_its_home_module(name, monkeypatch):
    monkeypatch.delattr(rsad, name)  # unbind it, so the lookup goes through the hook
    obj = getattr(rsad, name)
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert name in dir(rsad)
    namespace = {}
    exec("from rsad import *", namespace)
    assert namespace[name] is obj


@pytest.mark.parametrize("module", [rsad, rsad.cli])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


# bench/trace_child.py's order: import rsad.cli, set names on it, then main
SET_BEFORE_MAIN = """
import json, sys
import rsad.cli, rsad.primes

calls = []

def recorder(limit):
    calls.append(limit)
    return rsad.primes.build_table(limit)

rsad.cli.build_table = recorder
code = rsad.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "calls": calls}), file=sys.stderr)
"""


def test_a_name_set_before_the_first_main_is_the_one_called(child_env, capsys):
    # the limit isqrt(2e12) = 1414213 is above the integer path's bound
    argv = ["count", "--x", "2e6", "--r", "1000000", "--method", "brute"]
    proc = subprocess.run(
        [sys.executable, "-c", SET_BEFORE_MAIN, *argv],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert json.loads(proc.stderr) == {"code": 0, "calls": [1414213]}
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
