"""rsad benchmark: drives the CLI on one workload and checks every op.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones,
measured with tracing off; with --trace 1 they are the per-layer ones, from a
traced run.  See bench/README.md for the workloads and the metric map.

This process imports only the stdlib.  It times set-up in fresh processes,
then runs the workload in a fresh worker process (this same script with
--worker), so no workload inherits another's memory peak.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    BENCH_DIR,
    REFERENCE_PATH,
    ROOT,
    SRC,
    InProcessRunner,
    SubprocessRunner,
    child_env,
    load_reference,
    run_child,
    workloads,
)

OUT_DIR = ROOT / ".bench_out"  # span files of traced runs
TMP_DIR = ROOT / ".bench_tmp"  # per-run cache and scratch directories
SETUP_PROBES = 7
IMPORT_PROBES = 3
TAIL_BEYOND = 10  # op_tail_s: the op time with this many samples above it
MIN_OPS = 2 * (TAIL_BEYOND + 1)  # so that op_tail_s is at least a median

PER_LAYER_UNITS = {
    "primes.build_table.s": "s",
    "primes.build_table.calls": "count",
    "primes.sieve.numbers_per_s": "1/s",
    "primes.table.bytes": "bytes",
    "primes.table.primes": "count",
    "primes.load_table.s": "s",
    "primes.load_table.bytes": "bytes",
    "primes.save.s": "s",
    "primes.save.bytes": "bytes",
    "primes.cache.hit_ratio": "ratio",
    "primes.prime_count.calls": "count",
    "primes.self_s": "s",
    "counting.count_identity.s": "s",
    "counting.count_identity.calls": "count",
    "counting.pi_queries": "count",
    "counting.ns_per_pi_query": "ns",
    "counting.count_identity.us_per_call": "us",
    "counting.brute_counts_upto.s": "s",
    "counting.brute_counts_upto.products": "count",
    "counting.count_brute.s": "s",
    "counting.count_brute.calls": "count",
    "counting.self_s": "s",
    "diagnostics.convergence_table.s": "s",
    "diagnostics.sum_pi_p.s": "s",
    "diagnostics.identity_calls_per_table_row": "ratio",
    "diagnostics.self_s": "s",
    "analytic.mertens_sum.s": "s",
    "analytic.log_integral.s": "s",
    "analytic.log_integral.calls": "count",
    "analytic.log_integral.failures": "count",
    "analytic.self_s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.process_s": "s",
    "src.lines": "count",
    "trace.overhead_s": "s",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced menus, for the smoke test")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- worker -----------------------------------------------------------------

def pass_count(wl, args) -> int:
    """Passes in a run: a fixed number, sized to fill --seconds at nominal speed.

    A traced run makes this many passes twice, untraced and traced.
    """
    if args.trace:
        return max(1, round(args.seconds / (2 * wl.nominal_pass_s)))
    return max(-(-MIN_OPS // wl.ops_per_pass), round(args.seconds / wl.nominal_pass_s))


def set_up(args):
    """Interpreter start is the caller's; the rest of set-up happens here."""
    sys.path.insert(0, str(SRC))
    import rsad.cli  # noqa: F401  (the numpy/rsad import is part of set-up)

    wl = workloads(args.smoke)[args.workload]
    reference = load_reference()
    passes = wl.passes(args.seed, pass_count(wl, args))
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    return wl, reference, passes, tmp


def measure(runner, passes, cache_file):
    """Closed loop over the given passes, one op at a time."""
    records, pass_s = [], []
    for ops in passes:
        if cache_file is not None:
            cache_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        records += [runner.run(op) for op in ops]
        pass_s.append(time.perf_counter() - t0)
    return records, pass_s


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(wl, records, pass_s) -> tuple[dict, dict]:
    op_s = sorted(r.seconds for r in records)  # at least MIN_OPS of them
    metrics = {
        "wall_s": statistics.median(pass_s),
        "op_p50_s": statistics.median(op_s),
        "op_tail_s": op_s[-TAIL_BEYOND - 1],
        "results_per_s": sum(r.results for r in records) / sum(pass_s),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    info = {
        "passes": len(pass_s),
        "ops": len(op_s),
        "op_tail_percentile": 100.0 * (len(op_s) - TAIL_BEYOND) / len(op_s),
        "fail_ratio": sum(r.failed for r in records) / len(records),
    }
    return metrics, info


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "rsad").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def import_seconds(env) -> float:
    """Median wall time of a fresh `python -c "import rsad.cli"`."""
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        code, _, _ = run_child([sys.executable, "-c", "import rsad.cli"], env, 60)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import rsad.cli exited {code}")
    return statistics.median(times)


def traced_run(wl, reference, passes, tmp, args):
    """Each pass untraced and traced; returns records and per-layer metrics.

    The pass count depends only on --seconds, so every count repeats exactly
    for a given seed.
    """
    import tracing

    cache_file = tmp / "primes.cache" if wl.uses_cache else None
    tracer = tracing.Tracer()
    if wl.in_process:
        plain = InProcessRunner(reference, cache_file)
        traced = InProcessRunner(reference, cache_file, tracer)
    else:
        plain, traced = SubprocessRunner(reference), SubprocessRunner(reference, tmp)
    # Untraced and traced passes alternate, and so does which goes first,
    # so that neither side gets all the cold starts.
    base_records, base_s, records, traced_s = [], [], [], []
    for i, ops in enumerate(passes):
        for side in ("traced", "plain") if i % 2 else ("plain", "traced"):
            if side == "plain":
                got, s = measure(plain, [ops], cache_file)
                base_records += got
                base_s += s
            else:
                if wl.in_process:
                    tracing.install(tracer)
                got, s = measure(traced, [ops], cache_file)
                tracer.uninstall()
                records += got
                traced_s += s

    spans, counts = tracer.spans, tracer.counts
    if not wl.in_process:
        for path in sorted(tmp.glob("op*.json")):
            child = json.loads(path.read_text())
            spans += child["spans"]
            for k, v in child["counts"].items():
                counts[k] = max(counts[k], v) if k.startswith("primes.table.") else counts[k] + v

    OUT_DIR.mkdir(exist_ok=True)
    tracing.dump(spans, OUT_DIR / f"spans-{wl.name}-seed{args.seed}.csv.gz")
    summary = tracing.summarize(spans)
    metrics = layer_metrics(summary, counts, records)
    metrics["cli.import_s"] = import_seconds(child_env())
    metrics["cli.process_s"] = 0.0 if wl.in_process else statistics.median(r.seconds for r in base_records)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(base_s)
    info = {"traced_passes": len(passes), "spans": len(spans)}
    return base_records + records, metrics, info


def layer_metrics(summary, counts, records) -> dict:
    by_name, by_op = summary["by_name"], summary["by_op"]

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    build_s = get("primes.build_table", "s")
    ident_s, ident_calls = get("counting.count_identity", "s"), get("counting.count_identity", "calls")
    pi_queries = counts.get("counting.pi_queries", 0)
    ops = [by_op.get(i, {}) for i in range(len(records))]
    lookups = [names for r, names in zip(records, ops) if r.cache]
    hits = sum(1 for names in lookups if "primes.load_table" in names and "primes.build_table" not in names)
    table_ops = [(r, names) for r, names in zip(records, ops) if r.kind == "table"]
    table_rows = sum(r.results for r, _ in table_ops)
    table_identity_calls = sum(names.get("counting.count_identity", 0) for _, names in table_ops)

    m = {
        "primes.build_table.s": build_s,
        "primes.build_table.calls": get("primes.build_table", "calls"),
        "primes.sieve.numbers_per_s": ratio(counts.get("primes.sieve.numbers", 0), build_s),
        "primes.table.bytes": counts.get("primes.table.bytes", 0),
        "primes.table.primes": counts.get("primes.table.primes", 0),
        "primes.load_table.s": get("primes.load_table", "s"),
        "primes.load_table.bytes": counts.get("primes.load_table.bytes", 0),
        "primes.save.s": get("primes.save", "s"),
        "primes.save.bytes": counts.get("primes.save.bytes", 0),
        "primes.cache.hit_ratio": ratio(hits, len(lookups)),
        "primes.prime_count.calls": counts.get("primes.prime_count.calls", 0),
        "counting.count_identity.s": ident_s,
        "counting.count_identity.calls": ident_calls,
        "counting.pi_queries": pi_queries,
        "counting.ns_per_pi_query": ratio(ident_s, pi_queries, 1e9),
        "counting.count_identity.us_per_call": ratio(ident_s, ident_calls, 1e6),
        "counting.brute_counts_upto.s": get("counting.brute_counts_upto", "s"),
        "counting.brute_counts_upto.products": counts.get("counting.brute_counts_upto.products", 0),
        "counting.count_brute.s": get("counting.count_brute", "s"),
        "counting.count_brute.calls": get("counting.count_brute", "calls"),
        "diagnostics.convergence_table.s": get("diagnostics.convergence_table", "s"),
        "diagnostics.sum_pi_p.s": get("diagnostics.sum_pi_p", "s"),
        "diagnostics.identity_calls_per_table_row": ratio(table_identity_calls, table_rows),
        "analytic.mertens_sum.s": get("analytic.mertens_sum", "s"),
        "analytic.log_integral.s": get("analytic.log_integral", "s"),
        "analytic.log_integral.calls": get("analytic.log_integral", "calls"),
        "analytic.log_integral.failures": get("analytic.log_integral", "failures"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "src.lines": src_lines(),
    }
    for layer in ("primes", "counting", "diagnostics", "analytic"):
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in by_name.items() if k.startswith(layer + "."))
    return m


def worker(args) -> int:
    wl, reference, passes, tmp = set_up(args)
    try:
        if args.trace:
            records, metrics, info = traced_run(wl, reference, passes, tmp, args)
        else:
            cache_file = tmp / "primes.cache" if wl.uses_cache else None
            runner = (InProcessRunner(reference, cache_file) if wl.in_process
                      else SubprocessRunner(reference))
            records, pass_s = measure(runner, passes, cache_file)
            metrics, info = end_to_end(wl, records, pass_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    import numpy

    info["numpy"] = numpy.__version__
    for r in records:
        if r.failed:
            known = "; known defect" if r.correct else ""
            print(f"failed op: {r.key} (exit {r.exit_code}{known})", file=sys.stderr)
    print(json.dumps({
        "correct": all(r.correct for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": metrics,
        "info": info,
    }))
    return 0


# --- parent process ---------------------------------------------------------

def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if args.setup_probe:
        shutil.rmtree(set_up(args)[3])
        return 0

    if not (SRC / "rsad" / "__init__.py").is_file() or not REFERENCE_PATH.is_file():
        print(f"error: no rsad sources under {SRC}; run from the root of an rsad checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = child_env()
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    setup_s = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            code, _, _ = run_child(cmd + ["--setup-probe"], env, 60)
            setup_s.append(time.perf_counter() - t0)
            if code != 0:
                print(f"error: set-up exited {code}", file=sys.stderr)
                return 1
    code, out, _ = run_child(cmd + ["--worker", "--trace", str(args.trace)], env, 165, subprocess.PIPE)
    if code != 0:
        print(f"error: worker exited {code}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result.pop("metrics")
    info = result.pop("info")
    if args.trace:
        units = PER_LAYER_UNITS
        info["largest_table_bytes"] = metrics["primes.table.bytes"]
    else:
        metrics["setup_s"] = statistics.median(setup_s)
        units = END_TO_END_UNITS
    info.update(environment())

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for k, v in info.items():
        print(f"  {k}: {v}")
    for k, unit in units.items():
        print(f"  {k} = {metrics[k]:.6g} {unit}")
    result["metrics"] = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
