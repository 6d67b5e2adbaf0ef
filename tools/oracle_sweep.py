"""Equivalence sweep over the brute-force r_s(b) oracle.

Writes every acceptance-corpus brute table, r_sub_brute(S, t, b) for each b
in Omega(t) up to 210 with t the set's reference member, at the scan bounds
of the verify-corpus benchmark (40 for infinite type, else 3b+80), then the
output of ``locmat check all --seed 3 --bound 60``.

The sweep is outside the test suite.  Run it at two commits and compare the
output files byte for byte, or by their sha256:

    PYTHONPATH=src python3 tools/oracle_sweep.py --out oracle.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from locmat import cli, oracle
from locmat.density import INFINITY
from locmat.saturated import format_set
from locmat.steinitz import enumerate_omega


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="file that receives the tables and the check output")
    args = ap.parse_args(argv)
    lines = []
    for name, S in oracle.acceptance_corpus():
        t = oracle.reference_member(S)
        for b in enumerate_omega(t, 210):
            i_bound = 40 if S.r is INFINITY else 3 * b + 80
            lines.append(f"{name} {format_set(S)} t={t} b={b}: {oracle.r_sub_brute(S, t, b, i_bound)!r}")
    code, out = cli.run(["check", "all", "--seed", "3", "--bound", "60"])
    text = "\n".join(lines + [f"check all exit {code}", out]) + "\n"
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"{len(lines)} brute values, sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
