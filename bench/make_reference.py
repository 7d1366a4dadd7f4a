"""Freeze the reference output of every menu point into bench/reference.json.

Run once, from the root of a checkout, against the code whose outputs the
benchmark should hold later code to:

    PYTHONPATH=src python3 bench/make_reference.py

Every op runs through rsad.cli.main, and its stdout is stored.  Values are
cross-checked by means that share no code with the counters they check:

  * counts with x <= 1e8 against rsad's count_brute (pair enumeration);
  * pi values and Mertens sums against a plain numpy sieve written here,
    the sums accumulated in long double;
  * `verify` check totals against their closed form;
  * Li values are not taken from rsad at all: they come from mpmath
    (li with offset, i.e. the integral from 2), formatted to 12 significant
    digits.  Where rsad fails on them the op is recorded as a known defect
    with the exit code it gave.

mpmath is needed only here; the benchmark itself uses the stdlib and numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import mpmath
import numpy as np

import rsad.cli
from rsad import Ratio, build_table, count_brute

from workloads import REFERENCE_PATH, workloads


def plain_sieve(n: int) -> np.ndarray:
    """All primes <= n by an unsegmented odd-only sieve."""
    flags = np.ones(n // 2 + 1, dtype=bool)  # flags[i] <-> 2i + 1
    flags[0] = False
    for i in range(1, math.isqrt(n) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    odd = 2 * np.flatnonzero(flags) + 1
    return np.concatenate(([2], odd[odd <= n])).astype(np.int64)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = rsad.cli.main(argv)
    return code, out.getvalue()


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def scale(text: str) -> int:
    return rsad.cli._parse_scale(text)


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def check(argv: list[str], stdout: str, primes: np.ndarray) -> str:
    """Cross-check one seed output; returns how it was checked."""
    kind = argv[0]
    if kind == "count":
        x, r = scale(flag(argv, "--x")), Ratio.parse(flag(argv, "--r"))
        if x > 10**8:
            return "seed identity"
        want = count_brute(x, r, build_table(math.isqrt(r.num * x // r.den) + 64))
        for row in stdout.splitlines()[1:]:
            require(int(row.split(",")[2]) == want, (argv, row, want))
        return "count_brute"
    if kind == "pi":
        x = scale(flag(argv, "--x"))
        require(int(stdout) == int(np.searchsorted(primes, x, side="right")), argv)
        return "plain sieve"
    if kind == "mertens":
        z = scale(flag(argv, "--z"))
        ps = primes[: np.searchsorted(primes, z, side="right")]
        total = float(np.sum(1.0 / ps.astype(np.longdouble)))
        require(stdout.splitlines()[0] == f"sum={total:.12g}", (argv, stdout, total))
        return "plain sieve, long double sum"
    if kind == "verify":
        m = scale(flag(argv, "--max-x"))
        total = 4 * (m + 1) + (min(m, 10**4) - 1) + min(m, 1000)
        require(stdout.splitlines()[-1] == f"all checks passed ({total} total)", argv)
        return "closed form"
    return "seed"


def main() -> int:
    ops = {op.key: op for small in (False, True) for wl in workloads(small).values() for op in wl.menu()}
    limit = max(
        scale(flag(list(op.argv), "--x" if op.kind == "pi" else "--z"))
        for op in ops.values() if op.kind in ("pi", "mertens")
    )
    primes = plain_sieve(limit)
    mpmath.mp.dps = 30
    reference = {}
    for key, op in sorted(ops.items()):
        argv = list(op.argv)
        code, out = run(argv + ["--threads", "2"])
        if op.kind == "li":
            want = f"{float(mpmath.li(mpmath.mpf(flag(argv, '--x')), offset=True)):.12g}\n"
            entry = {"stdout": want, "checked": "mpmath"}
            if code != 0:
                entry["known_defect_exit"] = code
            elif out != want:
                print(f"rsad disagrees with mpmath: {key}: {out!r} vs {want!r}", file=sys.stderr)
                return 1
        else:
            if code != 0:
                print(f"seed failed on {key} (exit {code})", file=sys.stderr)
                return 1
            entry = {"stdout": out, "checked": check(argv, out, primes)}
        reference[key] = entry
        print(f"{entry['checked']:>28}  {key}", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
