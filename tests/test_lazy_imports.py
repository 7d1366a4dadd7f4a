"""Module loading follows the subcommand.

`import rsad`, `import rsad.cli`, `rsad --help`, `rsad li` and `rsad pi`
below 2^27 need only the standard library; numpy and the sieving modules
load on first use of one of their names.  A name a caller set on rsad.cli
before main ran, as a tracer or a test does, is the one main calls.
"""

import json
import subprocess
import sys

import pytest

import rsad
from rsad.cli import main

# Runs `python -m rsad ARGV...` (or, with no ARGV, `import rsad, rsad.cli`)
# under an import finder that refuses numpy.
REFUSE_NUMPY = """
import runpy, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseNumpy())
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
    proc = run_without_numpy(child_env, "count", "--x", "100", "--r", "2")
    assert proc.returncode == 1
    assert "ImportError: numpy refused" in proc.stderr


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
    argv = ["count", "--x", "1e4", "--r", "2", "--method", "brute"]
    proc = subprocess.run(
        [sys.executable, "-c", SET_BEFORE_MAIN, *argv],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert json.loads(proc.stderr) == {"code": 0, "calls": [141]}
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
