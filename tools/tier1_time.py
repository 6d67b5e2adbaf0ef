"""Tier-1 suite time at two checkouts, in alternating pairs.

Runs the tier-1 command, ``python -m pytest -q --continue-on-collection-errors``,
in each of two checkout directories: from inside the directory, so that its
own ``tests`` are collected, with its own ``src`` on PYTHONPATH.  Every run
adds ``--hypothesis-seed=0`` (fixed, so both sides draw the same examples) and
``-p no:cacheprovider`` (so no run reads what an earlier one cached).  It
runs 10 pairs, the pair count this project's benchmark comparisons use; pair
i runs the first directory first when i is even and the second first when it
is odd.  A run whose pytest exits non-zero counts as failed.  For each side
the tool prints the median and quartiles of the wall-clock seconds, the
failed-run count and pytest's last summary line, then how many pairs the
second side ran faster.

    python3 tools/tier1_time.py ../parent .

Each run takes about 20 s on a 2-core Xeon, so the tool takes about 7 min.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEED = 0
PAIRS = 10


def run_once(checkout: Path) -> tuple[float, bool, str]:
    """(wall-clock seconds, passed, last output line) of one tier-1 run."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--hypothesis-seed={SEED}", "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return seconds, proc.returncode == 0, lines[-1] if lines else proc.stderr.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path, help="checkout directory, usually the parent commit")
    ap.add_argument("second", type=Path, help="checkout directory, usually the change")
    args = ap.parse_args(argv)
    sides = [args.first.resolve(), args.second.resolve()]
    for d in sides:
        if not (d / "src").is_dir() or not (d / "tests").is_dir():
            ap.error(f"{d} has no src and tests directories")
    runs: list[list[tuple[float, bool, str]]] = [[], []]
    for i in range(PAIRS):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side].append(run_once(sides[side]))
            seconds, ok, _ = runs[side][-1]
            print(f"pair {i} side {side}: {seconds:.2f} s{'' if ok else ' FAILED'}", flush=True)
    for side, d in enumerate(sides):
        times = [s for s, _, _ in runs[side]]
        q1, q2, q3 = statistics.quantiles(times, n=4)
        failed = sum(not ok for _, ok, _ in runs[side])
        print(f"side {side} {d}: median {q2:.2f} s, quartiles {q1:.2f}-{q3:.2f} s, "
              f"{failed} of {PAIRS} runs failed; last run: {runs[side][-1][2]}")
    faster = sum(b[0] < a[0] for a, b in zip(*runs))
    print(f"side 1 faster in {faster} of {PAIRS} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
