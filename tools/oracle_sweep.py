"""Equivalence sweep over the brute-force r_s(b) oracle.

Lists every acceptance-corpus brute table, r_sub_brute(S, t, b) for each b
in Omega(t) up to 210 with t the set's reference member, at the scan bounds
of the verify-corpus benchmark (40 for infinite type, else 3b+80), then the
output of ``locmat check all --seed 3 --bound 60``.  ``tools/sweeps.py``
runs it.
"""

from __future__ import annotations

from collections.abc import Iterator

from locmat import cli, oracle
from locmat.density import INFINITY
from locmat.saturated import format_set
from locmat.steinitz import enumerate_omega


def lines() -> Iterator[str]:
    for name, S in oracle.acceptance_corpus():
        t = oracle.reference_member(S)
        for b in enumerate_omega(t, 210):
            i_bound = 40 if S.r is INFINITY else 3 * b + 80
            yield f"{name} {format_set(S)} t={t} b={b}: {oracle.r_sub_brute(S, t, b, i_bound)!r}"
    code, out = cli.run(["check", "all", "--seed", "3", "--bound", "60"])
    yield f"check all exit {code}"
    yield out
