"""Smoke test of the benchmark itself, on the reduced menus (--smoke).

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

It checks that every workload runs and meets the output contract, that every
reference check passes except the known Li failures at x >= 1e16, that the
traced run emits every per-layer metric with repeatable counts, and that the
benchmark refuses to run without the rsad sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import ROOT, load_reference, matches, workloads

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
COUNTED = ("counting.pi_queries", "primes.table.bytes",
           "diagnostics.identity_calls_per_table_row", "src.lines")


def bench(workload, trace, seed=3, cwd=ROOT, env=None):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def known_li_failures(out, workload):
    # One li op per cli_cold pass is at x >= 1e16, where Li fails (exit 3).
    per_pass = workloads()["cli_cold"].ops_per_pass
    return out["attempted"] // per_pass if workload == "cli_cold" else 0


def test_menu_names_match_benchmark_json():
    assert NAMES == list(workloads())


def test_every_menu_point_has_a_reference():
    reference = load_reference()
    for small in (False, True):
        for wl in workloads(small).values():
            for op in wl.menu():
                assert op.key in reference, op.key


def test_reference_check_is_exact_for_integers_and_12_digits_for_reals():
    want = "x,r,exact,estimate\n100000000,2,453998,408548.956263\n"
    assert matches(want, want)
    assert not matches(want.replace("453998", "453999"), want)
    assert not matches(want.replace("408548.956263", "408548.956264"), want)
    assert matches(want.replace("408548.956263", "408548.9562630"), want)
    assert not matches(want + "extra\n", want)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_meets_contract(workload):
    out = result(bench(workload, 0))
    assert out["correct"]
    assert out["attempted"] >= 1
    assert out["failed"] == known_li_failures(out, workload)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_layer_metric_and_repeats_counts(workload):
    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    assert first["correct"] and second["correct"]
    assert first["failed"] == known_li_failures(first, workload)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name in COUNTED:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    m = {k: v["value"] for k, v in first["metrics"].items()}
    assert m["src.lines"] > 0 and m["cli.main.self_s"] > 0 and m["cli.import_s"] > 0
    assert m["primes.build_table.calls"] > 0 and m["primes.table.bytes"] > 0
    if workload == "large_x":
        assert m["counting.pi_queries"] > 0 and m["counting.ns_per_pi_query"] > 0
    if workload == "cached_session":
        assert m["primes.load_table.bytes"] > 0 and m["primes.save.bytes"] > 0
        assert m["primes.cache.hit_ratio"] == 7 / 9  # two anchors miss out of nine lookups
        assert m["diagnostics.identity_calls_per_table_row"] >= 1
        assert m["analytic.mertens_sum.s"] > 0
    if workload == "cli_cold":
        assert m["counting.count_brute.calls"] > 0 and m["cli.process_s"] > 0
        assert m["counting.brute_counts_upto.products"] > 0 and m["diagnostics.sum_pi_p.s"] > 0
        assert m["counting.count_identity.calls"] > 1000
        assert m["analytic.log_integral.calls"] > 0
        assert m["analytic.log_integral.failures"] == first["failed"] // 2


def test_rsad_cache_in_the_environment_is_ignored(tmp_path):
    stray = tmp_path / "stray.cache"
    env = dict(os.environ, RSAD_CACHE=str(stray))
    assert result(bench("large_x", 0, env=env))["correct"]
    assert not stray.exists()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("large_x", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert not list(Path(tmp_path).glob(".bench_*"))
