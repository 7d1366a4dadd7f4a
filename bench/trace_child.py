"""Run one rsad command with outside-in tracing, in a fresh process.

Usage: python3 bench/trace_child.py SPANS_JSON OP_ID -- RSAD_ARGS...

Stdout and the exit code are rsad's own.  The spans and counters go to
SPANS_JSON when the command ends, whether it returned or raised.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, op_id, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = tracing.Tracer()
    tracer.op = int(op_id)
    import rsad.cli

    tracing.install(tracer)
    try:
        return rsad.cli.main(args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
