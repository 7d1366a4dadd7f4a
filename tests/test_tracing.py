"""The benchmark's per-layer tracer against the package as it stands.

bench/tracing.py wraps rsad's functions by name; a name deleted or renamed
in rsad makes its install fail, so this catches it in the test suite rather
than in a traced benchmark run.
"""

from pathlib import Path

import rsad.cli


def test_bench_tracer_installs_records_and_uninstalls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wrapped = list(tracer._originals)
        assert wrapped
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in wrapped)
        assert rsad.cli.main(["count", "--x", "100", "--r", "2", "--method", "both"]) == 0
        assert rsad.cli.main(["mertens", "--z", "1e4"]) == 0
        assert rsad.cli.main(["table", "--x-min", "100", "--x-max", "1e5", "--r", "2"]) == 0
        assert rsad.cli.main(["pi", "--x", "100"]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in wrapped)
    names = {span[1] for span in tracer.spans}
    # analytic.mertens_sum.s and diagnostics.convergence_table.s read 0
    # unless the CLI calls them through the module attributes this tracer wraps
    assert {"cli.main", "primes.build_table", "counting.count_report",
            "counting.count_brute", "analytic.mertens_sum",
            "diagnostics.convergence_table"} <= names
    assert tracer.counts["primes.prime_count.calls"] > 0
    assert capsys.readouterr().out.splitlines()[-1] == "25"
