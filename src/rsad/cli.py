"""Command-line front end: count, table, mertens, pi, li, verify.

Machine output (CSV or JSON) is deterministic by default so that repeated
runs are byte-identical regardless of --threads; wall-clock timings go
into the seconds column only with --timing.  Exit codes: 0 ok, 2 bad
arguments, 3 table/budget/cache errors, 4 a cross-check failed.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import analytic, counting, diagnostics
from .analytic import QuadratureError
from .counting import BruteBudgetError, Ratio, TableTooSmallError
from .primes import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    U64_MAX,
    CacheFormatError,
    MemoryBudgetError,
    PrimeTable,
    TableLimitError,
    build_table,
    load_table,
)

CACHE_ENV = "RSAD_CACHE"
AUTO_SIZE_MARGIN = 64

TABLE_HEADER = "x,r,exact,estimate,abs_err,rel_err,ratio,err_normalized,seconds"
COUNT_HEADER = "x,r,exact,estimate,abs_err,rel_err,method,seconds"
# CountReport attributes behind the columns not named after one
_COLUMN_ATTR = {"abs_err": "abs_error", "rel_err": "rel_error"}


@dataclass
class RunConfig:
    table_limit: int | None = None
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES
    brute_budget: int = counting.DEFAULT_BRUTE_BUDGET
    output_format: str = "csv"
    output_path: str | None = None
    cache_path: str | None = None
    threads: int = 0

    def __post_init__(self):
        if self.memory_budget_bytes < 1 or self.brute_budget < 1:
            raise ValueError("budgets must be positive")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.threads < 1:
            self.threads = os.cpu_count() or 1


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
    if d > U64_MAX:
        raise argparse.ArgumentTypeError(f"{text!r} must be below 2^64")
    return int(d)


def _parse_ratio(text: str) -> Ratio:
    try:
        return Ratio.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_ratio_list(text: str) -> list[Ratio]:
    return [_parse_ratio(part) for part in text.split(",") if part.strip()]


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _jnum(v: float) -> float:
    return float(f"{v:.12g}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _config(args) -> RunConfig:
    cache = getattr(args, "cache", None) or os.environ.get(CACHE_ENV)
    return RunConfig(
        table_limit=getattr(args, "table_limit", None),
        memory_budget_bytes=getattr(args, "memory_budget_bytes", None)
        or DEFAULT_MEMORY_BUDGET_BYTES,
        brute_budget=getattr(args, "brute_budget", None)
        or counting.DEFAULT_BRUTE_BUDGET,
        output_format=getattr(args, "format", "csv"),
        output_path=getattr(args, "out", None),
        cache_path=cache,
        threads=getattr(args, "threads", None) or 0,
    )


def _get_table(cfg: RunConfig, required: int) -> PrimeTable:
    """Build (or load from cache) a table covering `required`.

    An explicit --table-limit is respected verbatim; otherwise the limit
    auto-sizes to required plus a small margin.  A cache file is reused
    when it covers the requirement, else rebuilt and rewritten.
    """
    limit = cfg.table_limit if cfg.table_limit is not None else required + AUTO_SIZE_MARGIN
    if cfg.cache_path:
        path = Path(cfg.cache_path)
        if path.exists():
            table = load_table(path)
            if table.limit >= required:
                return table
        table = build_table(limit, memory_budget_bytes=cfg.memory_budget_bytes)
        table.save(path)
        return table
    return build_table(limit, memory_budget_bytes=cfg.memory_budget_bytes)


def _cell(rep: counting.CountReport, col: str, timing: bool):
    if col == "seconds" and not timing:
        return 0
    value = getattr(rep, _COLUMN_ATTR.get(col, col))
    return str(value) if isinstance(value, Ratio) else value


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
        return json.dumps(payload, indent=2) + "\n"
    lines = [header]
    lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_count(args) -> int:
    cfg = _config(args)
    x, r = args.x, args.r
    methods = ["brute", "identity"] if args.method == "both" else [args.method]
    required = counting._required_limit(x, r)
    table = _get_table(cfg, required)
    rows = [
        counting.count_report(table, x, r, method=m, budget=cfg.brute_budget)
        for m in methods
    ]
    _emit(_reports_text(rows, COUNT_HEADER, cfg.output_format, args.timing), cfg.output_path)
    if len(rows) == 2 and rows[0].exact != rows[1].exact:
        print(
            f"method disagreement at x={x}, r={r}: "
            f"brute={rows[0].exact}, identity={rows[1].exact}",
            file=sys.stderr,
        )
        return 4
    return 0


def _geometric_grid(x_min: int, x_max: int, points_per_decade: int) -> list[int]:
    """Ascending grid from x_min to x_max, points_per_decade per decade."""
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


def _cmd_table(args) -> int:
    cfg = _config(args)
    r = args.r
    if args.x_min < 2:
        raise ValueError(f"--x-min must be >= 2, got {args.x_min}")
    if args.x_min > args.x_max:
        raise ValueError("--x-min must not exceed --x-max")
    if args.points_per_decade < 1:
        raise ValueError("--points-per-decade must be >= 1")
    grid = _geometric_grid(args.x_min, args.x_max, args.points_per_decade)
    table = _get_table(cfg, counting._required_limit(args.x_max, r))

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        rows = list(pool.map(lambda x: counting.count_report(table, x, r), grid))
    _emit(_reports_text(rows, TABLE_HEADER, cfg.output_format, args.timing), cfg.output_path)
    return 0


def _cmd_mertens(args) -> int:
    cfg = _config(args)
    if args.z < 2:
        raise ValueError(f"--z must be >= 2, got {args.z}")
    table = _get_table(cfg, args.z)
    res = analytic.mertens_sum(table, args.z)
    if cfg.output_format == "json":
        text = (
            json.dumps(
                {
                    "z": res.z,
                    "sum": _jnum(res.sum),
                    "loglog_z": _jnum(res.loglog_z),
                    "residual": _jnum(res.residual),
                },
                indent=2,
            )
            + "\n"
        )
    else:
        text = (
            f"sum={_fmt(res.sum)}\n"
            f"loglog_z={_fmt(res.loglog_z)}\n"
            f"residual={_fmt(res.residual)}\n"
        )
    _emit(text, cfg.output_path)
    return 0


def _cmd_pi(args) -> int:
    cfg = _config(args)
    table = _get_table(cfg, args.x)
    _emit(f"{table.prime_count(args.x)}\n", cfg.output_path)
    return 0


def _cmd_li(args) -> int:
    cfg = _config(args)
    val = analytic.log_integral(args.x)
    _emit(f"{_fmt(val)}\n", cfg.output_path)
    return 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    max_x = args.max_x
    ratios = args.r
    sum_check_max = min(max_x, 10**4)
    pi2_sample_max = min(max_x, 1000)
    required = max(
        [counting._required_limit(max_x, r) for r in ratios]
        + [sum_check_max, pi2_sample_max, 2]
    )
    table = _get_table(cfg, required)

    checks = 0
    step = max(1, max_x // 5)
    for r in ratios:
        brute = counting.brute_counts_upto(table, max_x, r, budget=cfg.brute_budget)
        for x in range(max_x + 1):
            ident = counting.count_identity(table, x, r).total
            if ident != int(brute[x]):
                print(
                    f"mismatch at x={x}, r={r}: brute={int(brute[x])}, "
                    f"identity={ident}",
                    file=sys.stderr,
                )
                return 4
            checks += 1
            if max_x >= 20000 and x % step == 0 and x:
                print(f"  r={r}: checked x<={x}", file=sys.stderr)
        print(f"identity-vs-brute for r={r}: all {max_x + 1} x values agree")

    for z in range(2, sum_check_max + 1):
        try:
            diagnostics.sum_pi_p(table, z)
        except diagnostics.IdentityViolationError as exc:
            print(f"pi-sum closed form failed at z={z}: {exc}", file=sys.stderr)
            return 4
        checks += 1
    print(f"pi-sum closed form: verified for all z <= {sum_check_max}")

    for x in range(1, pi2_sample_max + 1):
        full = counting.count_identity(table, x, Ratio(x, 1)).total
        pi2 = counting.count_pi2(table, x)
        if full != pi2:
            print(
                f"pi2 cross-check failed at x={x}: C_x(x)={full}, pi2={pi2}",
                file=sys.stderr,
            )
            return 4
        checks += 1
    print(f"pi2 cross-check: verified for all x <= {pi2_sample_max}")

    print(f"all checks passed ({checks} total)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsad",
        description="Count RSA integers (semiprimes p*q with p < q <= r*p) "
        "exactly and compare against the asymptotic estimate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_threads=True):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--cache", metavar="PATH", default=None)
        p.add_argument("--table-limit", type=_parse_scale, default=None)
        p.add_argument("--brute-budget", type=_parse_scale, default=None)
        p.add_argument("--memory-budget-bytes", type=_parse_scale, default=None)
        p.add_argument("--timing", action="store_true",
                       help="emit measured wall time in the seconds column")
        if with_threads:
            p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("count", help="exact count C_r(x) plus the estimate")
    p.add_argument("--x", type=_parse_scale, required=True)
    p.add_argument("--r", type=_parse_ratio, required=True)
    p.add_argument("--method", choices=["brute", "identity", "both"],
                   default="identity")
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="convergence table over a geometric grid")
    p.add_argument("--x-min", type=_parse_scale, required=True)
    p.add_argument("--x-max", type=_parse_scale, required=True)
    p.add_argument("--points-per-decade", type=int, default=4)
    p.add_argument("--r", type=_parse_ratio, required=True)
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("mertens", help="prime reciprocal sum and residual at z")
    p.add_argument("--z", type=_parse_scale, required=True)
    common(p)
    p.set_defaults(func=_cmd_mertens)

    p = sub.add_parser("pi", help="exact prime count pi(x)")
    p.add_argument("--x", type=_parse_scale, required=True)
    common(p)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("li", help="logarithmic integral Li(x)")
    p.add_argument("--x", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_li)

    p = sub.add_parser("verify", help="cross-check both counters and identities")
    p.add_argument("--max-x", type=_parse_scale, default=10**5)
    p.add_argument("--r", type=_parse_ratio_list, default=None)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.r is None:
        args.r = [Ratio(3, 2), Ratio(2), Ratio(5), Ratio(10)]
    try:
        return args.func(args)
    except (
        TableTooSmallError,
        BruteBudgetError,
        MemoryBudgetError,
        TableLimitError,
        CacheFormatError,
        QuadratureError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
