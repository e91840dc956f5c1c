"""Traced stand-in for ``python -m qfoundry.cli``.

Installs the layer tracer, runs ``qfoundry.cli.main`` with this process's
arguments, and writes the tracer's raw sums as JSON to the file named by
``PERFBENCH_TRACE_FILE``. The exit code is main's.
"""

import json
import os
import sys

import tracer as layer_trace


def main() -> int:
    active = layer_trace.Tracer().install()
    try:
        from qfoundry import cli

        return cli.main(sys.argv[1:])
    finally:
        active.remove()
        with open(os.environ["PERFBENCH_TRACE_FILE"], "w", encoding="utf-8") as handle:
            json.dump(active.stats, handle)


if __name__ == "__main__":
    sys.exit(main())
