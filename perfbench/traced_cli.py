"""Run the flatkernels CLI once with the layer hooks installed.

Usage: traced_cli.py SPANS_JSON -- CLI_ARG...

Installs the hooks after `flatkernels.cli` is imported, runs
`flatkernels.cli.main` inside one root span, writes the spans to SPANS_JSON
and exits with the CLI's exit code.  Interpreter start and imports fall
outside the root span and are reported as unattributed time.
"""

from __future__ import annotations

import sys

import flatkernels.cli

import tracing


def main(argv) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        sys.stderr.write("usage: traced_cli.py SPANS_JSON -- CLI_ARG...\n")
        return 2
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    root = tracer.open("cli.main")
    try:
        return flatkernels.cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.op = None
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
