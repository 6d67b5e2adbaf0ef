"""Run the five equivalence sweeps and check their hashes.

Runs ``parse_sweep.py``, ``steinitz_sweep.py``, ``oracle_sweep.py``,
``sample_sweep.py`` and ``cli_sweep.py`` from this directory, one after
another, each in a fresh interpreter with this checkout's ``src`` on
PYTHONPATH and its default corpus.  It prints the sha256 of each sweep's
output file next to the one recorded in ``tools/sweeps.sha256`` and exits 1
if any differs.

    python3 tools/sweeps.py
    python3 tools/sweeps.py --out sweeps/

With ``--out`` the output files are kept there (``parse.txt`` and so on),
so that a mismatch can be diffed against the same run at another commit;
the hash file is in ``sha256sum`` format, so ``cd sweeps && sha256sum -c
../tools/sweeps.sha256`` checks them too.  A change that moves a sweep on
purpose records the new hash in that file.  The five sweeps take about two
minutes on a 2-core Xeon, most of it the steinitz sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
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
    want = recorded()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out or tmp)
        out.mkdir(parents=True, exist_ok=True)
        mismatches = 0
        for name in SWEEPS:
            path = out / f"{name}.txt"
            subprocess.run(
                [sys.executable, str(TOOLS / f"{name}_sweep.py"), "--out", str(path)],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            ok = got == want.get(name)
            mismatches += not ok
            print(f"{name:8} {got}  {'ok' if ok else 'MISMATCH, recorded ' + want.get(name, 'nothing')}", flush=True)
    print("all sweeps match" if not mismatches else f"{mismatches} of {len(SWEEPS)} sweeps differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
