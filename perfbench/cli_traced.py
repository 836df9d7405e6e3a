"""Run the ruthvb command line under the benchmark tracer.

Usage: ``python -m perfbench.cli_traced STATS_FILE CLI_ARGS...``.  Exits with
the command line's own code and writes the tracer's counts to STATS_FILE, so
the parent benchmark process can fold them into its traced pass.
"""

import json
import sys

import ruthvb.cli

from perfbench.trace import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return ruthvb.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.end_item()
        with open(stats_path, "w") as fh:
            json.dump(tracer.raw(), fh)


if __name__ == "__main__":
    sys.exit(main())
