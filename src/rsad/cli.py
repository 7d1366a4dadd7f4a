"""Command-line front end: count, table, mertens, pi, li, verify.

Machine output (CSV or JSON) is deterministic by default so that repeated
runs are byte-identical; wall-clock timings go into the seconds column
only with --timing.  Brute count and verify sieve the prime table they
need in the same run; no subcommand reads or writes a cache.  Exit codes:
0 ok, 2 bad arguments, 3 table, budget or work-bound errors, a file or
stdout that cannot be written or a sweep worker that died, 4 a
cross-check failed (a built table's prime count or prime sum among them),
130 interrupted (Ctrl-C).  li, pi below 2^27 and every verify need no
numpy, nor, in any process, does count below a limit of 2^20 where its
list fits the budget (_integer_path): count and verify sieve a Python list
of the primes, check it as a table is checked, and count on it with bisect
(_admitted_list).  main returns the code to its caller; the console
script, entry(), ends the process with it by os._exit, skipping teardown.
"""

from __future__ import annotations

import argparse
import decimal
import importlib
import math
import os
import sys

from . import analytic
from .analytic import prime_pi  # bound here, so tests and tracers replace it on cli

# The modules cli reaches into, and the functions callers replace on it:
# tests patch build_table and primes_upto, and bench/tracing.py wraps
# build_table and load_table.  Each is bound on first access (PEP 562) or
# by _bind, one module's names at a time, when a run first reads them: li
# needs only math and pi only prime_pi (analytic.prime_pi imports numpy from
# 2^27); _parse_ratio binds exact, which needs no numpy, and verify and
# count on its integer path (_integer_path), numpy loaded or not, read
# nothing else.  Importing counting, diagnostics or primes loads numpy, so
# each command binds them (_bind_sieving_names) only on the path that reads
# them.  A name a tracer or test set is kept.
_LAZY = {
    "exact": "exact",
    "primes_upto": "exact",
    "counting": "counting",
    "diagnostics": "diagnostics",
    "primes": "primes",
    **dict.fromkeys(["build_table", "load_table"], "primes"),
}
_SIEVING = ("counting", "diagnostics", "primes")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __package__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # bound now, so later lookups skip this hook
    return value


def _bind(modules) -> None:
    """Bind every name of _LAZY from one of modules that is not bound yet."""
    for name, module in _LAZY.items():
        if module in modules and name not in globals():
            __getattr__(name)


def _bind_sieving_names() -> None:
    """Bind the names from counting, diagnostics and primes: numpy loads."""
    _bind(_SIEVING)


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


def _parse_ratio(text: str) -> exact.Ratio:
    _bind(["exact"])  # argparse calls this before any command runs
    try:
        return exact.Ratio.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_ratio_list(text: str) -> list[exact.Ratio]:
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


def _cell(rep: exact.CountReport, col: str, timing: bool):
    if col == "seconds" and not timing:
        return 0
    value = getattr(rep, col)
    return str(value) if col == "r" else value


def _reports_text(
    reports: list[exact.CountReport], header: str, fmt: str, timing: bool
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


def _check_brute_budget(args, max_x: int) -> None:
    if max_x > args.brute_budget:
        raise Refused(f"x={max_x} exceeds brute-force budget {args.brute_budget}")


def _check_primes(limit: int, held: tuple[int, int], lucy: tuple[int, int]) -> None:
    """Raise CheckFailed unless held, the (count, sum mod 2^64) of the primes
    a run built to limit, is lucy, Lucy_Hedgehog's count and sum at limit.

    The recursion shares no code with either sieve.  Primes with the right
    count but a wrong entry have the wrong sum, unless two wrong entries cancel.
    """
    (count, held_sum), (pi, total) = held, lucy
    if count != pi:
        raise CheckFailed(
            f"table check failed: the prime table to {limit} holds "
            f"{count} primes, pi({limit}) = {pi}"
        )
    if held_sum != total:
        raise CheckFailed(
            f"table check failed: the primes of the prime table to {limit} sum to "
            f"{held_sum} mod 2^64, the primes up to {limit} to {total}"
        )


def _admit(args, max_x: int, limit: int, need: int) -> None:
    """Raise Refused, before any sieving, when a run at max_x on the primes
    to limit needs more than --memory-budget-bytes at peak."""
    if need > args.memory_budget_bytes:
        raise Refused(
            f"x={max_x} with a prime table to {limit} needs up to {need} bytes "
            f"at peak, over the {args.memory_budget_bytes}-byte budget"
        )


def _admitted_table(args, x: int, limit: int) -> primes.PrimeTable:
    """The prime table to limit, built only once the run is admitted on the
    table's peak (_admit), and checked.

    Its callers have checked --brute-budget first.  Raises CheckFailed when
    the table's prime count or its prime sum mod 2^64 is not what
    primes.lucy gives at limit (_check_primes).
    """
    _admit(args, x, limit, primes._peak_estimate_bytes(limit))
    table = build_table(limit)
    # the uint64 sum wraps mod 2^64, as lucy's does
    _check_primes(limit, (table.count, int(table.primes.sum())), primes.lucy(limit, with_sum=True))
    return table


def _admitted_list(args, max_x: int, limit: int, bytes_per_x: int = 0) -> list[int]:
    """The primes to limit in a Python list, sieved only once the run is
    admitted on the list's peak (exact._list_peak_bytes) plus bytes_per_x
    for each x in [0, max_x], and checked against analytic._int_lucy's
    count and sum as _admitted_table checks a table."""
    _admit(args, max_x, limit, exact._list_peak_bytes(limit) + bytes_per_x * (max_x + 1))
    plist = primes_upto(limit)
    _check_primes(limit, (len(plist), sum(plist) % 2**64), analytic._int_lucy(limit, with_sum=True))
    return plist


# count runs on a Python list of the primes (exact) when its limit is below
# this and the list fits the budget.  Medians of 7 alternating fresh
# processes (2 vCPUs, Python 3.11.7, numpy 2.4.6) at r = 1, where the list
# counters visit the most primes for their limit: at a limit of 2^20 - 1
# identity, brute and both took 134, 151 and 190 ms on lists and 177, 413
# and 363 ms with numpy; at 2^21 - 1 the identity took 213 ms on lists, 183
# with numpy.  With numpy imported, identity and both took 56 and 108 ms on
# lists at 2^20 - 2, 6 and 15 on numpy's path (medians of 9, through main).
_INT_COUNT_BELOW = 2**20


def _integer_path(args, limit: int) -> bool:
    """Whether a count takes exact's Python lists: below _INT_COUNT_BELOW,
    where their peak fits --memory-budget-bytes; else numpy's path."""
    return limit < _INT_COUNT_BELOW and exact._list_peak_bytes(limit) <= args.memory_budget_bytes


def _cmd_count(args) -> int:
    x, r = args.x, args.r
    methods = ["brute", "identity"] if args.method == "both" else [args.method]
    limit = exact._required_limit(x, r)
    if "brute" in methods:
        _check_brute_budget(args, x)
    if _integer_path(args, limit):
        plist = _admitted_list(args, x, limit)
        rows = [exact.list_report(plist, x, r, m) for m in methods]
    else:
        _bind_sieving_names()
        # only brute reads a table; the identity always sweeps pi in bounded memory
        table = _admitted_table(args, x, limit) if "brute" in methods else None
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
    _bind_sieving_names()
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


def _first_mismatch(brute, ident) -> tuple[int, int, int] | None:
    """The least x where two array('q')s of counts differ, as (x, brute[x],
    ident[x]), or None."""
    if brute == ident:  # compared in C
        return None
    return next((x, b, i) for x, (b, i) in enumerate(zip(brute, ident)) if b != i)


def _cmd_verify(args) -> int:
    max_x = args.max_x
    ratios = args.r
    sum_check_max = min(max_x, 10**4)
    pi2_sample_max = min(max_x, 1000)
    # sum_check_max >= pi2_sample_max, the pi2 check's largest pi argument
    required = max([exact._required_limit(max_x, r) for r in ratios] + [sum_check_max, 2])
    _check_brute_budget(args, max_x)
    # beside the primes, one ratio's brute and identity counts: two array('q')s
    held = _admitted_list(args, max_x, required, 16)

    def first_mismatch(upto: int, r: exact.Ratio):
        # each ratio's counts are dropped before the next ratio's are made
        return _first_mismatch(exact.brute_counts_list(held, upto, r),
                               exact.identity_counts_list(held, upto, r))

    checks = 0
    for r in ratios:
        mismatch = first_mismatch(max_x, r)
        if mismatch:
            x, brute_x, ident_x = mismatch
            raise CheckFailed(f"mismatch at x={x}, r={r}: brute={brute_x}, identity={ident_x}")
        checks += max_x + 1
        _emit(f"identity-vs-brute for r={r}: all {max_x + 1} x values agree\n", None)

    try:
        checks += exact.check_pi_sums_list(held, sum_check_max)
    except exact.IdentityViolationError as exc:
        raise CheckFailed(f"pi-sum closed form failed at z={exc.z}: {exc}") from None
    _emit(f"pi-sum closed form: verified for all z <= {sum_check_max}\n", None)

    # C_M(x) = C_x(x) = pi_2(x) for every x <= M: each q <= x/p <= M*p, so
    # brute at r = M enumerates pi_2; both are 0 at x = 0
    mismatch = pi2_sample_max and first_mismatch(pi2_sample_max, exact.Ratio(pi2_sample_max))
    if mismatch:
        x, pi2, full = mismatch
        raise CheckFailed(f"pi2 cross-check failed at x={x}: C_x(x)={full}, pi2={pi2}")
    checks += pi2_sample_max
    _emit(f"pi2 cross-check: verified for all x <= {pi2_sample_max}\n", None)

    _emit(f"all checks passed ({checks} total)\n", None)
    return 0


DEFAULT_BRUTE_BUDGET = 10**8
# Refuse a run whose primes and counts (_admit) would need more than this.
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


def _refusals() -> tuple:
    """The exceptions main maps to exit 3: the sieve's own among them once
    rsad.primes is loaded, as it is in every run that can raise them."""
    loaded = sys.modules.get(f"{__package__}.primes")
    sieving = (loaded.SieveWorkError, loaded.TableLimitError) if loaded else ()
    return (Refused, MemoryError, OSError, *sieving)


def _error(line: str) -> None:
    """Write one line to stderr.  A stderr closed at start (None) or that
    fails to write loses the line, and the run keeps its exit code."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _refusals() as exc:
        _error(f"error: {exc}")
        return 3
    except CheckFailed as exc:
        _error(str(exc))
        return 4
    except ValueError as exc:
        _error(f"error: {exc}")
        return 2


def _exit_interrupted(signum, frame) -> None:
    # exits at once: a KeyboardInterrupt raised inside a __del__ or weakref
    # callback would be swallowed, and the run would go on to exit 0
    try:
        os.write(2, b"interrupted\n")
    except OSError:  # stderr is closed
        pass
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
    already wrote.  A stdout or stderr closed at start is not flushed, and
    an error line or stderr flush that fails is dropped (_error), so a
    closed stderr keeps every exit code.
    """
    import signal  # only the console script installs a handler

    signal.signal(signal.SIGINT, _exit_interrupted)
    try:
        code = main()
    except KeyboardInterrupt:
        _error("interrupted")
        code = 130
    try:
        if sys.stdout is not None:  # None when the process started with it closed
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            _error(f"error: {exc}")
            code = 3
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
