"""Import cost of the command-line front end, module by module.

Runs ``python -X importtime -c "import locmat.cli"`` in a fresh interpreter
``--runs`` times, with ``src`` on PYTHONPATH, and prints the median self and
cumulative microseconds of each ``locmat`` module and of each other module
that the import pulls in, that is, every module a bare interpreter
(``-c pass``) does not load already.  The bytecode state comes first:
whether PYTHONDONTWRITEBYTECODE is set, and whether ``src/locmat/__pycache__``
exists before and after the runs.  With the variable unset, the first run
writes that cache and the others read it.

    python3 tools/import_cost.py --runs 21
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CACHE = SRC / "locmat" / "__pycache__"


def importtime(code: str) -> dict[str, tuple[int, int]]:
    """(self us, cumulative us) per module imported while running ``code``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stderr
    out = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        out[name.strip()] = (int(own), int(cumulative))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=21, help="fresh interpreters to run (default 21)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be positive")
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    print(f"src/locmat/__pycache__ before the runs: {'present' if CACHE.is_dir() else 'absent'}")
    bare = set(importtime("pass"))
    runs = [importtime("import locmat.cli") for _ in range(args.runs)]
    print(f"src/locmat/__pycache__ after the runs: {'present' if CACHE.is_dir() else 'absent'}")
    names = [n for n in runs[0] if n not in bare]
    rows = [(n, *(statistics.median(r[n][i] for r in runs if n in r) for i in (0, 1))) for n in names]
    print(f"median of {args.runs} runs, us; modules a bare interpreter does not load")
    print(f"{'self':>8} {'cumulative':>10}  module")
    for group in (True, False):
        for name, own, cumulative in sorted(rows, key=lambda row: -row[2]):
            if name.startswith("locmat") == group:
                print(f"{own:>8.0f} {cumulative:>10.0f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
