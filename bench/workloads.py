"""Workload menus, op execution and reference checks for the rsad benchmark.

Every workload is a closed loop with one client: an op (one CLI invocation)
starts when the previous one returns.  A pass is one list of ops drawn from
the workload's frozen menu by the seeded RNG; a run repeats passes.  Each
menu slot lists interchangeable variants of about the same cost, so the seed
changes the inputs and their order but not the amount of work in a pass.

This module imports only the stdlib.  rsad and numpy are imported by the
in-process runner, so the parent process stays small.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

THREADS = os.cpu_count() or 1

@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `argv` is also its key in reference.json."""

    argv: tuple[str, ...]
    cache: bool = False  # shares the session's --cache file

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def cli_args(self, cache_path: Path | None) -> list[str]:
        args = list(self.argv) + ["--threads", str(THREADS)]
        if self.cache:
            args += ["--cache", str(cache_path)]
        return args


def _slot(*variants: str, cache: bool = False) -> list[Op]:
    return [Op(tuple(v.split()), cache) for v in variants]


@dataclass(frozen=True)
class Workload:
    """A workload's menu: phases of slots, each slot a list of variants.

    A pass takes one seeded variant per slot.  Within a phase the picks are
    shuffled; in an anchored phase the first slot stays first.
    """

    name: str
    phases: list[list[list[Op]]]
    anchored: bool = False
    in_process: bool = True
    # Seconds per pass on the reference machine (2 cores).  A run makes
    # round(--seconds / nominal_pass_s) passes, a fixed number, so that the
    # median and tail ops are the same kinds of op in every run.
    nominal_pass_s: float = 1.0

    @property
    def ops_per_pass(self) -> int:
        return sum(len(phase) for phase in self.phases)

    def menu(self) -> list[Op]:
        return [op for phase in self.phases for slot in phase for op in slot]

    @property
    def uses_cache(self) -> bool:
        return any(op.cache for op in self.menu())

    def passes(self, seed: int, count: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _ in range(count):
            ops: list[Op] = []
            for phase in self.phases:
                picks = [rng.choice(slot) for slot in phase]
                head = picks[:1] if self.anchored else []
                rest = picks[len(head):]
                rng.shuffle(rest)
                ops += head + rest
            out.append(ops)
        return out


def _large_x(xs: tuple[str, ...]) -> Workload:
    # Why: every op sieves its own table to sqrt(r*x), up to 3.16e8, then
    # issues millions of s2/s3 pi queries.  The sieve and the pi oracle take
    # nearly all the time, and this workload sets the memory peak.
    return Workload(
        "large_x",
        [[_slot(f"count --x {x} --r {r}") for x in xs for r in ("3/2", "2", "10")]],
        nominal_pass_s=5.0,
    )


def _cached_session(small: bool) -> Workload:
    # Why: the only workload where table persistence runs, writes beside
    # reads.  The cache file is deleted before every pass, so each phase's
    # anchor (its largest table) misses and rebuilds; the other ops load it.
    # `table` also runs count_identity twice per row, and `mertens` runs
    # fsum over lists of millions of reciprocals.
    if small:
        tiers = [
            ("1e6", "1e11", ("1e9", "5e9", "1e10"), ("5e4", "1e5", "2e5"), ("1e5", "2e5", "3e5")),
            ("1e6", "1e12", ("5e10", "1e11", "1e12"), ("5e5", "1e6", "1.4e6"), ("1e6", "1.2e6", "1.4e6")),
        ]
    else:
        tiers = [
            ("1e10", "1e15", ("6e14", "8e14", "1e15"), ("1e7", "2e7", "3e7", "4e7"), ("4e7", "4.2e7", "4.4e7")),
            ("1e10", "1e16", ("6e15", "8e15", "1e16"), ("1e8", "1.2e8", "1.4e8"), ("1e8", "1.05e8", "1.1e8")),
        ]
    phases = [
        [
            _slot(f"table --x-min {x_min} --x-max {x_max} --points-per-decade 4 --r 2", cache=True),
            _slot(*(f"count --x {x} --r {r}" for x in counts for r in ("3/2", "2")), cache=True),
            _slot(*(f"pi --x {x}" for x in pis), cache=True),
            _slot(*(f"mertens --z {z}" for z in zs), cache=True),
        ]
        for x_min, x_max, counts, pis, zs in tiers
    ]
    # A ninth op, so that the median op falls inside one op kind (the
    # phase-1 mertens), not on the gap between two.
    phases[0].append(phases[0][2])
    return Workload("cached_session", phases, anchored=True, nominal_pass_s=5.0)


def _cli_cold() -> Workload:
    # Why: one fresh `python -m rsad` process per op, so interpreter start
    # and the numpy/rsad import dominate.  The only workload that measures
    # the CLI process, count_brute through the CLI, log_integral and
    # `verify` (pointwise count_identity calls, the brute sweep, sum_pi_p
    # and count_pi2 on a tiny table).  The li slot at x >= 1e16 fails with
    # exit 3 until Li is fixed.
    counts = [f"count --x {x} --r {r} --method both" for x in ("1e6", "1e7", "1e8") for r in ("3/2", "2", "10")]
    return Workload(
        "cli_cold",
        [[
            _slot(*counts),
            _slot(*counts),
            _slot("pi --x 1e6", "pi --x 3e6", "pi --x 1e7"),
            _slot(*(f"verify --max-x {m}" for m in (900, 950, 1000, 1050, 1100))),
            _slot(*(f"li --x 1e{k}" for k in range(8, 12))),
            _slot(*(f"li --x 1e{k}" for k in range(12, 16))),
            _slot(*(f"li --x 1e{k}" for k in range(16, 20))),
        ]],
        in_process=False,
        nominal_pass_s=1.8,
    )


def workloads(small: bool = False) -> dict[str, Workload]:
    """The workloads; `small` gives the reduced menus of the smoke test."""
    wls = [
        _large_x(("1e10", "1e11", "1e12") if small else ("1e14", "1e15", "1e16")),
        _cached_session(small),
        _cli_cold(),
    ]
    return {w.name: w for w in wls}


# --- reference checks ------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _tokens(text: str) -> list[str]:
    for sep in (",", "=", "(", ")", ":"):
        text = text.replace(sep, " ")
    return text.split()


def _same_token(got: str, want: str) -> bool:
    """Integers must match exactly; reals at 12 significant digits."""
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        return f"{float(got):.12g}" == f"{float(want):.12g}"
    except ValueError:
        return got == want


def matches(stdout: str, want: str) -> bool:
    got_t, want_t = _tokens(stdout), _tokens(want)
    return len(got_t) == len(want_t) and all(map(_same_token, got_t, want_t))


def results_in(kind: str, stdout: str) -> int:
    """Exact values an op emitted: count/table rows, pi, Li, Mertens, checks."""
    lines = stdout.strip().splitlines()
    if kind in ("count", "table"):
        return len(lines) - 1
    if kind == "verify":
        return int(lines[-1].split("(")[1].split()[0])
    return 1


@dataclass
class OpRecord:
    key: str
    kind: str
    cache: bool
    seconds: float
    exit_code: int | None  # None: the call raised
    failed: bool
    correct: bool  # matched the reference, or is a known defect failing as recorded
    results: int


def judge(op: Op, exit_code: int | None, stdout: str, reference: dict) -> tuple[bool, bool, int]:
    """(failed, correct, results) for one finished op.

    An op fails if it exits non-zero, raises (exit_code None), or prints a
    value that differs from the reference.
    """
    ref = reference[op.key]
    if exit_code == 0:
        ok = matches(stdout, ref["stdout"])
        return (not ok, ok, results_in(op.kind, stdout) if ok else 0)
    known = ref.get("known_defect_exit")
    return (True, exit_code == known, 0)


class InProcessRunner:
    """Runs ops through rsad.cli.main in this process, stdout captured."""

    def __init__(self, reference: dict, cache_path: Path | None, tracer=None):
        import rsad.cli

        self.cli = rsad.cli
        self.reference = reference
        self.cache_path = cache_path
        self.tracer = tracer
        self.op_id = 0

    def run(self, op: Op) -> OpRecord:
        args = op.cli_args(self.cache_path)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # start each op from a clean heap, as a fresh process would
        if self.tracer is not None:
            self.tracer.op = self.op_id
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(args)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        self.op_id += 1
        failed, correct, results = judge(op, code, out.getvalue(), self.reference)
        if not correct:
            sys.stderr.write(err.getvalue())
        return OpRecord(op.key, op.kind, op.cache, seconds, code, failed, correct, results)


def run_child(cmd: list[str], env: dict, timeout: float, stdout=None, stderr=None):
    """Run cmd in the checkout root; returns (exit code, stdout, stderr).

    Waits with a blocking waitpid.  subprocess's own timeout handling polls
    with sleeps of up to 50 ms, which would round the measured times, so a
    timer kills the child instead if it outlives `timeout`.
    """
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout, stderr=stderr, text=True) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, out, err


def child_env() -> dict[str, str]:
    """The environment of every rsad process: RSAD_CACHE removed, src first."""
    env = {k: v for k, v in os.environ.items() if k != "RSAD_CACHE"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SubprocessRunner:
    """Runs each op as a fresh `python -m rsad` process, one at a time.

    With `trace_dir` set, ops run under bench/trace_child.py instead, which
    records spans inside the child and writes them to that directory.
    """

    def __init__(self, reference: dict, trace_dir: Path | None = None):
        self.reference = reference
        self.trace_dir = trace_dir
        self.env = child_env()
        self.op_id = 0

    def run(self, op: Op) -> OpRecord:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "rsad"]
        else:
            spans = self.trace_dir / f"op{self.op_id}.json"
            cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), str(self.op_id), "--"]
        t0 = time.perf_counter()
        code, out, err = run_child(cmd + op.cli_args(None), self.env, 120,
                                   subprocess.PIPE, subprocess.PIPE)
        seconds = time.perf_counter() - t0
        self.op_id += 1
        failed, correct, results = judge(op, code, out, self.reference)
        if not correct:
            sys.stderr.write(err)
        return OpRecord(op.key, op.kind, op.cache, seconds, code, failed, correct, results)
