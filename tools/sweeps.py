"""Run the five equivalence sweeps and check their hashes.

Runs the ``lines()`` of ``parse_sweep``, ``steinitz_sweep``, ``oracle_sweep``,
``sample_sweep`` and ``cli_sweep`` from this directory, in that order and in
one process, with this checkout's ``src`` first on ``sys.path``.  Each
sweep's lines go to ``<name>.txt`` in ``--out`` (default: a temporary
directory).  It prints the sha256 of each file next to the one recorded in
``tools/sweeps.sha256`` and exits 1 if any differs.  A change that moves a
sweep on purpose records the new hash in that file.

    python3 tools/sweeps.py
    python3 tools/sweeps.py --out sweeps/

To compare two commits line by line, copy this directory into a checkout
of the other commit and keep both outputs; the other commit's run prints
whether it matches the hashes recorded here:

    mkdir ../old && git archive <commit> | tar -x -C ../old
    cp -r tools/. ../old/tools/
    python3 ../old/tools/sweeps.py --out ../old-sweeps
    python3 tools/sweeps.py --out sweeps/
    diff ../old-sweeps/cli.txt sweeps/cli.txt

The five sweeps take about 90 s on a 2-core Xeon, most of it the steinitz
sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
HASHES = TOOLS / "sweeps.sha256"
SWEEPS = ("parse", "steinitz", "oracle", "sample", "cli")


def recorded() -> dict[str, str]:
    """Sweep name to sha256, from lines ``<hex>  <name>.txt``."""
    out = {}
    for line in HASHES.read_text().splitlines():
        digest, name = line.split()
        out[name.removesuffix(".txt")] = digest
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="directory that keeps the output files (default: a temporary one)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(TOOLS.parent / "src"))
    want = recorded()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out or tmp)
        out.mkdir(parents=True, exist_ok=True)
        mismatches = 0
        for name in SWEEPS:
            path = out / f"{name}.txt"
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(line + "\n" for line in importlib.import_module(f"{name}_sweep").lines())
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            ok = got == want.get(name)
            mismatches += not ok
            print(f"{name:8} {got}  {'ok' if ok else 'MISMATCH, recorded ' + want.get(name, 'nothing')}", flush=True)
    print("all sweeps match" if not mismatches else f"{mismatches} of {len(SWEEPS)} sweeps differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
