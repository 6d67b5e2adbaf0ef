"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Checks that a deliberately wrong expected answer is counted as a failure
(library decisions and CLI calls), that per-layer call counts repeat exactly
for a fixed seed across two fresh traced runs of every workload, and that
the checker's exact density order agrees with 60-digit decimal arithmetic.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import random
import sys
from decimal import Decimal, getcontext
from fractions import Fraction

import run

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import cases  # noqa: E402
import layers  # noqa: E402
import model as M  # noqa: E402

SEED = 7


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def wrong_answers_are_failures() -> None:
    rec, _ = run.decision_workload(SEED, None)
    check(rec.failed == 0, f"decision-stream: {rec.attempted} ops, no failure")
    block = cases.DecisionStream.block

    def one_wrong(stream, n):
        ops = block(stream, n)
        kind, call, right = ops[5]
        ops[5] = (kind, call, lambda got: not right(got))
        return ops

    cases.DecisionStream.block = one_wrong
    try:
        rec, _ = run.decision_workload(SEED, None)
    finally:
        cases.DecisionStream.block = block
    check(rec.failed == 1, "decision-stream: one wrong expected answer counts as one failure")

    (argv, (kind, code, text)), *_ = [c for c in cases.CliCases(SEED).block() if c[1][0] == "text"]
    rec = run.Record()
    run.run_cli_case(rec, argv, (kind, code, text))
    run.run_cli_case(rec, argv, (kind, code, text + "0"))
    check((rec.attempted, rec.failed) == (2, 1), "cli: a wrong expected output counts as one failure")


def counts_repeat() -> None:
    for workload in run.GATED:
        first, second = (layers.layer_metrics(run.child_phase(workload, SEED, traced=True)["dump"]) for _ in range(2))
        exact = [k for k in first if k.endswith((".calls", ".errors", "_ratio"))]
        differ = [k for k in exact if first[k] != second[k]]
        check(not differ and first["steinitz.factorize.calls"] > 0,
              f"{workload}: {len(exact)} per-layer counts repeat exactly across two runs {differ}")


def density_order_matches_decimals() -> None:
    getcontext().prec = 60
    rng = random.Random(SEED)

    def draw():
        if rng.random() < 0.4:
            return Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        return M.Surd(rng.randint(-20, 20), rng.randint(1, 9), rng.choice(cases.SQUAREFREE), rng.randint(1, 9))

    def value(r):
        if isinstance(r, M.Surd):
            return (r.x + r.y * Decimal(r.d).sqrt()) / r.z
        return Decimal(r.numerator) / r.denominator

    bad = 0
    for _ in range(5000):
        a, b = draw(), draw()
        va, vb = value(a), value(b)
        bad += M.dcmp(a, b) != (va > vb) - (va < vb)
    check(bad == 0, "model.dcmp agrees with 60-digit decimals on 5000 pairs")


if __name__ == "__main__":
    density_order_matches_decimals()
    wrong_answers_are_failures()
    counts_repeat()
