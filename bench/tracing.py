"""Outside-in tracing of rsad: wrappers around the names callers bind.

Nothing inside rsad changes.  `install` replaces the module attributes and
methods that rsad's own callers look up at call time (for example
`rsad.cli.build_table`, `PrimeTable.save`, and `count_identity` as bound in
both `rsad.counting` and `rsad.diagnostics`) with wrappers that record a span
per call: id, name, start, end, parent span, op id and whether it returned.
Spans stay in memory and are written out when the run ends.  Counters that
need the call's arguments or result (pi queries, table bytes, products) are
computed in the wrapper after the span has closed, using the original
functions, so they cost no span time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import math
import os
import threading
import time
from collections import defaultdict

class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, ok)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0  # id of the op in flight; set by the runner
        self.root = None  # span id of the op's cli.main, parent of pool-thread spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple] = []

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def maximum(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def _replace(self, owner, attr: str):
        orig = getattr(owner, attr)
        self._originals.append((owner, attr, orig))
        return orig

    def uninstall(self) -> None:
        """Put back every attribute this tracer wrapped."""
        while self._originals:
            owner, attr, orig = self._originals.pop()
            setattr(owner, attr, orig)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `after(args, kwargs, result)` runs once the span has closed, for
        calls that returned.
        """
        orig = self._replace(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            if name == "cli.main":
                parent, self.root = None, sid
            else:
                parent = stack[-1] if stack else self.root
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.op, ok))
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls without a span, for scalar calls too hot to time."""
        orig = self._replace(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.add(name)
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap rsad's public functions at the names its callers bind."""
    import rsad.analytic
    import rsad.cli
    import rsad.counting
    import rsad.diagnostics
    from rsad.primes import PrimeTable

    prime_count = PrimeTable.prime_count  # unwrapped, for counters

    def table_seen(table):
        tracer.maximum("primes.table.bytes", int(table.primes.nbytes))
        tracer.maximum("primes.table.primes", int(table.primes.size))

    def built(args, kwargs, table):
        tracer.add("primes.sieve.numbers", table.limit)
        table_seen(table)

    def loaded(args, kwargs, table):
        tracer.add("primes.load_table.bytes", os.path.getsize(args[0]))
        table_seen(table)

    def saved(args, kwargs, result):
        tracer.add("primes.save.bytes", os.path.getsize(args[1]))

    def identity(args, kwargs, result):
        table, x = args[0], args[1]
        tracer.add("counting.pi_queries", prime_count(table, math.isqrt(x)))

    def swept(args, kwargs, counts):
        tracer.add("counting.brute_counts_upto.products", int(counts[-1]))

    tracer.wrap(rsad.cli, "main", "cli.main")
    tracer.wrap(rsad.cli, "build_table", "primes.build_table", built)
    tracer.wrap(rsad.cli, "load_table", "primes.load_table", loaded)
    tracer.wrap(PrimeTable, "save", "primes.save", saved)
    tracer.count_calls(PrimeTable, "prime_count", "primes.prime_count.calls")
    tracer.wrap(rsad.counting, "count_report", "counting.count_report")
    tracer.wrap(rsad.counting, "count_identity", "counting.count_identity", identity)
    tracer.wrap(rsad.diagnostics, "count_identity", "counting.count_identity", identity)
    tracer.wrap(rsad.counting, "count_brute", "counting.count_brute")
    tracer.wrap(rsad.counting, "brute_counts_upto", "counting.brute_counts_upto", swept)
    tracer.wrap(rsad.counting, "count_pi2", "counting.count_pi2")
    tracer.wrap(rsad.diagnostics, "convergence_table", "diagnostics.convergence_table")
    tracer.wrap(rsad.diagnostics, "sum_pi_p", "diagnostics.sum_pi_p")
    tracer.wrap(rsad.analytic, "mertens_sum", "analytic.mertens_sum")
    tracer.wrap(rsad.analytic, "log_integral", "analytic.log_integral")


def dump(spans: list[tuple], path) -> None:
    """Write spans as gzipped CSV, one span per line."""
    with gzip.open(path, "wt") as fh:
        fh.write("id,name,start,end,parent,op,ok\n")
        for sid, name, t0, t1, parent, op, ok in spans:
            fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent or 0},{op},{int(ok)}\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, failures, total and self seconds; per op: names.

    Self time is a span's duration minus the part of it its child spans
    cover.  Children in pool threads may overlap; their union is taken.
    """
    children = defaultdict(list)
    for sid, name, t0, t1, parent, op, ok in spans:
        if parent:
            children[parent].append((t0, t1))
    by_name = defaultdict(lambda: {"calls": 0, "failures": 0, "s": 0.0, "self_s": 0.0})
    names_by_op = defaultdict(lambda: defaultdict(int))
    for sid, name, t0, t1, parent, op, ok in spans:
        agg = by_name[name]
        agg["calls"] += 1
        agg["failures"] += 0 if ok else 1
        agg["s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)
        names_by_op[op][name] += 1
    return {"by_name": dict(by_name), "by_op": {k: dict(v) for k, v in names_by_op.items()}}
