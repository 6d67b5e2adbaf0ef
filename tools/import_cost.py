"""Import cost of the command-line front end, module by module.

Runs ``python -X importtime -c "import locmat.cli"`` in a fresh interpreter
``--runs`` times, with ``src`` on PYTHONPATH, and prints the median self and
cumulative microseconds of each ``locmat`` module and of each other module
that the import pulls in, that is, every module a bare interpreter
(``-c pass``) does not load already.  A locmat argv after ``--`` measures one
command instead: each run is ``python -X importtime -m locmat.cli <argv>``,
which lists what the call loads, though not ``locmat.cli`` itself, which runs
as ``__main__``.  The bytecode state comes first: whether
PYTHONDONTWRITEBYTECODE is set, and whether ``src/locmat/__pycache__``
exists before and after the runs.  With the variable unset, the first run
writes that cache and the others read it.

    python3 tools/import_cost.py --runs 21
    python3 tools/import_cost.py --runs 21 -- set member "S(3/2,P)" "(1/2)*P"
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CACHE = SRC / "locmat" / "__pycache__"


def importtime(*args: str) -> dict[str, tuple[int, int]]:
    """(self us, cumulative us) per module imported by ``python <args>``;
    exit codes 1 to 3 are locmat answers, not failures."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1, 2, 3):
        raise subprocess.CalledProcessError(proc.returncode, proc.args, proc.stdout, proc.stderr)
    err = proc.stderr
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
    ap.add_argument("argv", nargs="*", help="a locmat argv, after --, to time instead of the import")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be positive")
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    print(f"src/locmat/__pycache__ before the runs: {'present' if CACHE.is_dir() else 'absent'}")
    bare = set(importtime("-c", "pass"))
    command = ["-m", "locmat.cli", *args.argv] if args.argv else ["-c", "import locmat.cli"]
    if args.argv:
        print(f"timed: python -X importtime {shlex.join(command)}")
    runs = [importtime(*command) for _ in range(args.runs)]
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
