"""Run the tropcount CLI with the benchmark's spans installed.

Usage: python3 bench/traced_cli.py SPANS.json <tropcount arguments...>

Behaves like ``python3 -m tropcount.cli <arguments>`` and, when the command
ends, writes its spans and counts to SPANS.json.
"""

import sys

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    from tropcount import cli

    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
