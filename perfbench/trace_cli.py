"""Run blotto's CLI in this process with the span tracer installed.

    python trace_cli.py SPANS_PATH CLI_ARGS...

Behaves like ``python -m blotto.cli CLI_ARGS...`` (same stdout, stderr and
exit status) and also writes the spans of the call to SPANS_PATH as JSON:
{"spans": [...], "absent": [...]}.
"""

from __future__ import annotations

import sys

from layers import wrap_points
from tracer import Tracer
from workloads import failure_class  # also puts src/ on sys.path

import blotto.cli  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(wrap_points(include_bench=False), failure_class)
    tracer.install()
    try:
        return tracer.call("bench.main", "cli.main", blotto.cli.main, cli_args)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
