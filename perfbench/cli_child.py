"""Traced CLI invocation: `python cli_child.py SPANS.npz <dehnscope arguments...>`.

Runs `dehnscope.cli.main` like `python -m dehnscope.cli` would, with the
benchmark's tracer installed for the whole command, and saves the spans for
the parent to absorb.
"""

import sys

import dehnscope.cli as cli
from tracer import Tracer

if __name__ == "__main__":
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.task_span(0):
            code = cli.main(argv)
    finally:
        tracer.save(spans)
    sys.exit(code)
