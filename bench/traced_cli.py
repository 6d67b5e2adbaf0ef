"""Run the locmat CLI with per-layer tracing; for traced cli workloads.

    python3 bench/traced_cli.py <span-file> <locmat argv...>

Behaves like ``python -m locmat.cli <argv...>`` (same output and exit
code) and writes the span aggregate to <span-file> on the way out.
"""

import json
import sys

import layers

import locmat.cli

out, sys.argv = sys.argv[1], ["locmat", *sys.argv[2:]]
tracer = layers.Tracer("cli-main")
tracer.install()
try:
    locmat.cli.main()
finally:
    tracer.uninstall()
    with open(out, "w") as f:
        json.dump(tracer.dump(), f)
