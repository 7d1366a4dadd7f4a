"""Command-line front end: count, table, mertens, pi, li, verify.

Machine output (CSV or JSON) is deterministic by default so that repeated
runs are byte-identical; wall-clock timings go into the seconds column
only with --timing.  Brute count and verify sieve the prime table they
need in the same run; no subcommand reads or writes a cache.  Exit codes:
0 ok, 2 bad arguments, 3 table, budget or work-bound errors, a file or
stdout that cannot be written or a sweep worker that died, 4 a
cross-check failed (a built table's prime count among them), 130
interrupted (Ctrl-C).  main returns the code to its caller; the console
script, entry(), ends the process with it by os._exit, skipping the
interpreter's teardown.
"""

from __future__ import annotations

import argparse
import decimal
import importlib
import math
import os
import sys

from . import analytic

# The sieving modules cli reaches into, and the three functions callers
# replace on it: tests patch build_table and prime_pi, and bench/tracing.py
# wraps load_table.  Importing any of them loads numpy, which li never needs,
# so each is bound on first access (PEP 562) and main binds them all for
# every other subcommand.  A name a tracer or test set before main is kept.
_LAZY = {
    "counting": "counting",
    "diagnostics": "diagnostics",
    "primes": "primes",
    **dict.fromkeys(["build_table", "load_table", "prime_pi"], "primes"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __package__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # bound now, so later lookups skip this hook
    return value


def _bind_sieving_names() -> None:
    """Bind every name of _LAZY that is not bound yet."""
    for name in _LAZY:
        if name not in globals():
            __getattr__(name)


TABLE_HEADER = "x,r,exact,estimate,abs_err,rel_err,ratio,err_normalized,seconds"
COUNT_HEADER = "x,r,exact,estimate,abs_err,rel_err,method,seconds"


def _parse_scale(text: str) -> int:
    """Integer in [0, 2^64), allowing scientific notation like 1e7."""
    try:
        d = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if not d.is_finite() or d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if d < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be nonnegative")
    if d >= 2**64:
        raise argparse.ArgumentTypeError(f"{text!r} must be below 2^64")
    return int(d)


def _parse_positive(text: str) -> int:
    """Integer in [1, 2^64), for budgets, thread counts and grid density."""
    value = _parse_scale(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1")
    return value


def _parse_ratio(text: str) -> counting.Ratio:
    _bind_sieving_names()  # argparse calls this before main knows the subcommand
    try:
        return counting.Ratio.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_ratio_list(text: str) -> list[counting.Ratio]:
    ratios = [_parse_ratio(part) for part in text.split(",") if part.strip()]
    if not ratios:
        raise argparse.ArgumentTypeError(f"{text!r} names no ratio")
    return ratios


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _jnum(v: float) -> float:
    return float(f"{v:.12g}")


def _json_text(doc) -> str:
    import json  # only JSON output needs it; li never does

    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    """Write text to out_path, or to stdout, which is None if closed at start."""
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    elif sys.stdout is None:
        raise OSError("stdout is closed")
    else:
        sys.stdout.write(text)


def _cell(rep: counting.CountReport, col: str, timing: bool):
    if col == "seconds" and not timing:
        return 0
    value = getattr(rep, col)
    return str(value) if isinstance(value, counting.Ratio) else value


def _reports_text(
    reports: list[counting.CountReport], header: str, fmt: str, timing: bool
) -> str:
    """CSV or JSON with one row per report and the columns of header.

    Reals get 12 significant digits, integers and text print verbatim, and
    seconds reads 0 unless timing is on, so the bytes are deterministic.
    """
    cols = header.split(",")
    rows = [[_cell(rep, col, timing) for col in cols] for rep in reports]
    if fmt == "json":
        payload = [
            {col: _jnum(v) if isinstance(v, float) else v for col, v in zip(cols, row)}
            for row in rows
        ]
        return _json_text(payload)
    lines = [header]
    lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class Refused(Exception):
    """A run over a budget or the grid's row bound, refused before any work: exit 3."""


class CheckFailed(Exception):
    """A cross-check found a mismatch, which the message names: exit 4."""


def _admitted_table(args, max_x: int, limit: int, bytes_per_x: int = 0) -> primes.PrimeTable:
    """The prime table to limit, built only once the run is admitted, and checked.

    Raises Refused, before any sieving, when max_x exceeds --brute-budget
    or when the table's peak to limit plus bytes_per_x for each x in
    [0, max_x] exceeds --memory-budget-bytes.  Raises CheckFailed when the
    table's prime count is not prime_pi(limit), which shares no code with
    the sieve.
    """
    if max_x > args.brute_budget:
        raise Refused(f"x={max_x} exceeds brute-force budget {args.brute_budget}")
    need = primes._peak_estimate_bytes(limit) + bytes_per_x * (max_x + 1)
    if need > args.memory_budget_bytes:
        raise Refused(
            f"x={max_x} with a prime table to {limit} needs up to {need} bytes "
            f"at peak, over the {args.memory_budget_bytes}-byte budget"
        )
    table = build_table(limit)
    pi = prime_pi(limit)
    if table.count != pi:
        raise CheckFailed(
            f"table check failed: the prime table to {limit} holds "
            f"{table.count} primes, pi({limit}) = {pi}"
        )
    return table


def _cmd_count(args) -> int:
    x, r = args.x, args.r
    methods = ["brute", "identity"] if args.method == "both" else [args.method]
    # only brute reads a table; the identity always sweeps pi in bounded memory
    table = None
    if "brute" in methods:
        table = _admitted_table(args, x, counting._required_limit(x, r))
    rows = [counting.count_report(table, x, r, method=m) for m in methods]
    _emit(_reports_text(rows, COUNT_HEADER, args.format, args.timing), args.out)
    if len(rows) == 2 and rows[0].exact != rows[1].exact:
        raise CheckFailed(
            f"method disagreement at x={x}, r={r}: "
            f"brute={rows[0].exact}, identity={rows[1].exact}"
        )
    return 0


# 10^6 rows take about 3 minutes and 1 GB: 600001 rows over 1e6..1e12 took 99 s and 661 MB.
_MAX_GRID_ROWS = 10**6


def _grid_point(x_min: int, points_per_decade: int, k: int) -> int:
    """round(x_min * 10^(k/points_per_decade)), the grid's k-th candidate point."""
    return int(round(x_min * 10 ** (k / points_per_decade)))


def _geometric_grid(x_min: int, x_max: int, points_per_decade: int) -> list[int]:
    """Ascending grid from x_min to x_max, points_per_decade per decade.

    The points are _grid_point(k) for k = 0, 1, ... that exceed the point
    before, up to the first at or above x_max, which becomes x_max.  Each
    next k is searched from the closed-form last k of the point before, so
    the work grows with the points kept, not with k.  Raises Refused
    first when the grid could hold more than _MAX_GRID_ROWS rows, one per
    integer or per k.
    """
    rows = 1 + min(x_max - x_min, math.ceil(points_per_decade * math.log10(x_max / x_min)))
    if rows > _MAX_GRID_ROWS:
        raise Refused(f"the grid could hold {rows} rows, over the bound of {_MAX_GRID_ROWS}")

    def point(k: int) -> int:
        return _grid_point(x_min, points_per_decade, k)

    out = [x_min]
    k = 0
    while out[-1] < x_max:
        # the last k with point(k) <= out[-1], up to rounding: start there
        # when it holds, so a search takes a few steps, not log(k) of them
        guess = math.floor(points_per_decade * math.log10((out[-1] + 0.5) / x_min))
        if guess > k and point(guess) <= out[-1]:
            k = guess
        # the first k with point(k) > out[-1]: gallop from k, then bisect
        step = 1
        while point(k + step) <= out[-1]:
            k, step = k + step, 2 * step
        while step > 1:
            step //= 2
            if point(k + step) <= out[-1]:
                k += step
        k += 1
        out.append(min(point(k), x_max))
    return out


def _cmd_table(args) -> int:
    r = args.r
    if args.x_min < 2:
        raise ValueError(f"--x-min must be >= 2, got {args.x_min}")
    if args.x_min > args.x_max:
        raise ValueError("--x-min must not exceed --x-max")
    grid = _geometric_grid(args.x_min, args.x_max, args.points_per_decade)
    rows = diagnostics.convergence_table(grid, r)
    _emit(_reports_text(rows, TABLE_HEADER, args.format, args.timing), args.out)
    return 0


def _cmd_mertens(args) -> int:
    if args.z < 2:
        raise ValueError(f"--z must be >= 2, got {args.z}")
    res = analytic.mertens_sum(args.z)
    fields = {"sum": res.sum, "loglog_z": res.loglog_z, "residual": res.residual}
    if args.format == "json":
        doc = {"z": res.z, **{name: _jnum(v) for name, v in fields.items()}}
        text = _json_text(doc)
    else:
        text = "".join(f"{name}={_fmt(v)}\n" for name, v in fields.items())
    _emit(text, args.out)
    return 0


def _cmd_pi(args) -> int:
    _emit(f"{prime_pi(args.x)}\n", args.out)
    return 0


def _cmd_li(args) -> int:
    val = analytic.log_integral(args.x)
    _emit(f"{_fmt(val)}\n", args.out)
    return 0


def _first_mismatch(
    table: primes.PrimeTable, max_x: int, r: counting.Ratio
) -> tuple[int, int, int] | None:
    """The least x <= max_x where brute_counts_upto and identity_counts_upto
    differ, as (x, brute, identity), or None."""
    brute = counting.brute_counts_upto(table, max_x, r)
    ident = counting.identity_counts_upto(table, max_x, r)
    x = int((brute != ident).argmax())  # 0 when none differs
    return (x, int(brute[x]), int(ident[x])) if brute[x] != ident[x] else None


# verify's arrays, admitted with its table's peak, in bytes per x of [0, max_x]:
# the brute and identity counts of one ratio, and brute's products.  Peak RSS
# above the interpreter's, at max_x = 1e6, 4e6 and 8e6, gave 17.2-18.5 at the
# default ratios and at most 19.1 at r >= 10^6, where nearly every semiprime counts.
_VERIFY_BYTES_PER_X = 24


def _cmd_verify(args) -> int:
    max_x = args.max_x
    ratios = args.r
    sum_check_max = min(max_x, 10**4)
    pi2_sample_max = min(max_x, 1000)
    # sum_check_max >= pi2_sample_max, the pi2 check's largest pi argument
    required = max([counting._required_limit(max_x, r) for r in ratios] + [sum_check_max, 2])
    table = _admitted_table(args, max_x, required, _VERIFY_BYTES_PER_X)

    checks = 0
    for r in ratios:
        mismatch = _first_mismatch(table, max_x, r)
        if mismatch:
            x, brute, ident = mismatch
            raise CheckFailed(f"mismatch at x={x}, r={r}: brute={brute}, identity={ident}")
        checks += max_x + 1
        _emit(f"identity-vs-brute for r={r}: all {max_x + 1} x values agree\n", None)

    try:
        checks += diagnostics.check_pi_sums(table, sum_check_max)
    except diagnostics.IdentityViolationError as exc:
        raise CheckFailed(f"pi-sum closed form failed at z={exc.z}: {exc}") from None
    _emit(f"pi-sum closed form: verified for all z <= {sum_check_max}\n", None)

    # C_M(x) = C_x(x) = pi_2(x) for every x <= M: each q <= x/p <= M*p, so
    # brute at r = M enumerates pi_2; both are 0 at x = 0
    mismatch = pi2_sample_max and _first_mismatch(
        table, pi2_sample_max, counting.Ratio(pi2_sample_max)
    )
    if mismatch:
        x, pi2, full = mismatch
        raise CheckFailed(f"pi2 cross-check failed at x={x}: C_x(x)={full}, pi2={pi2}")
    checks += pi2_sample_max
    _emit(f"pi2 cross-check: verified for all x <= {pi2_sample_max}\n", None)

    _emit(f"all checks passed ({checks} total)\n", None)
    return 0


DEFAULT_BRUTE_BUDGET = 10**8
# Refuse a run whose table and arrays (see _admitted_table) would need more than this.
DEFAULT_MEMORY_BUDGET_BYTES = 8 * 2**30

# Every option, defined once.  Each subcommand lists the options its _cmd_*
# reads, and accepts no other.
_OPTIONS = {
    "x": dict(type=_parse_scale, required=True),
    "r": dict(type=_parse_ratio, required=True),
    "method": dict(choices=["brute", "identity", "both"], default="identity"),
    "x-min": dict(type=_parse_scale, required=True),
    "x-max": dict(type=_parse_scale, required=True),
    "points-per-decade": dict(type=_parse_positive, default=4),
    "z": dict(type=_parse_scale, required=True),
    "max-x": dict(type=_parse_scale, default=10**5),
    "format": dict(choices=["csv", "json"], default="csv"),
    "out": dict(metavar="PATH", default=None),
    "timing": dict(action="store_true", help="emit measured wall time in the seconds column"),
    "brute-budget": dict(type=_parse_positive, default=DEFAULT_BRUTE_BUDGET),
    "cache": dict(metavar="PATH", default=None),
    "memory-budget-bytes": dict(type=_parse_positive, default=DEFAULT_MEMORY_BUDGET_BYTES),
    "threads": dict(type=_parse_positive, default=1,
                    help="ignored: sweeps use every CPU in the process's affinity mask"),
}
# li takes a real x and verify a list of ratios
_OPTION_OVERRIDES = {
    ("li", "x"): dict(type=float, required=True),
    ("verify", "r"): dict(type=_parse_ratio_list, default="3/2,2,5,10"),
}
# Nothing reads --threads or --cache; they are accepted anyway because the
# benchmark passes them to its ops.  The sweeps take their worker count from
# the affinity mask instead (counting._usable_cpus).
_SUBCOMMANDS = {
    "count": (_cmd_count, "exact count C_r(x) plus the estimate",
              "x r method format out timing brute-budget cache memory-budget-bytes threads"),
    "table": (_cmd_table, "convergence table over a geometric grid",
              "x-min x-max points-per-decade r format out timing cache threads"),
    "mertens": (_cmd_mertens, "prime reciprocal sum and residual at z",
                "z format out cache threads"),
    "pi": (_cmd_pi, "exact prime count pi(x)", "x out cache threads"),
    "li": (_cmd_li, "logarithmic integral Li(x)", "x out threads"),
    "verify": (_cmd_verify, "cross-check both counters and identities",
               "max-x r brute-budget memory-budget-bytes threads"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsad",
        description="Count RSA integers (semiprimes p*q with p < q <= r*p) "
        "exactly and compare against the asymptotic estimate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in options.split():
            p.add_argument(f"--{opt}", **_OPTION_OVERRIDES.get((name, opt), _OPTIONS[opt]))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    refusals = (Refused, MemoryError, OSError)
    if args.command != "li":  # li needs only math
        _bind_sieving_names()
        refusals += (primes.SieveWorkError, primes.TableLimitError)
    try:
        return args.func(args)
    except refusals as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CheckFailed as exc:
        print(exc, file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _exit_interrupted(signum, frame) -> None:
    # exits at once: a KeyboardInterrupt raised inside a __del__ or weakref
    # callback would be swallowed, and the run would go on to exit 0
    os.write(2, b"interrupted\n")
    os._exit(130)


def entry() -> None:
    """The console script: main's exit code, or 130 after Ctrl-C.

    Once main has returned, or Ctrl-C has been mapped to 130, the process
    flushes stdout and stderr and ends by os._exit, skipping the module
    teardown and final garbage collections of an interpreter that has loaded
    numpy.  Nothing is lost by that: _forked_ranges terminates and joins
    every sweep worker before it returns or raises, _emit closes an --out
    file in its with block, and rsad registers no atexit handler.
    argparse's own exits (--help, a usage error) raise SystemExit and end
    the usual way.  A stdout flush that fails exits 3 with one error line
    when the run had succeeded; a failed run keeps its code and the line it
    already wrote.  A stdout closed at start is not flushed, and a stderr
    flush that fails is ignored.
    """
    import signal  # only the console script installs a handler

    signal.signal(signal.SIGINT, _exit_interrupted)
    try:
        code = main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    try:
        if sys.stdout is not None:  # None when the process started with it closed
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            print(f"error: {exc}", file=sys.stderr)
            code = 3
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
