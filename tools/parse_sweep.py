"""Seeded equivalence sweep over the five literal parsers.

Builds a corpus of inputs from three sources: random strings of grammar
fragments, seed literals with spaces and tabs inserted, and seed literals,
spaced or not, with one character inserted, replaced or deleted.  Every input goes through
``parse``, ``parse_scaled``, ``parse_density``, ``parse_set`` and
``parse_descriptor``.  Each call makes one line, the JSON list
[input number, parser, input, outcome], where the outcome is ["value",
repr] or ["error", exception type, message, position].  ``tools/sweeps.py``
runs it.

The corpus size and seed are fixed, so that two runs compare.  60,000
inputs (300,000 calls) take about 4 s on a 2-core Xeon.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator

from locmat.algebra import parse_descriptor
from locmat.density import parse_density
from locmat.saturated import parse_set
from locmat.steinitz import parse, parse_scaled

INPUTS = 60_000
SEED = 20261019
PARSERS = (parse, parse_scaled, parse_density, parse_set, parse_descriptor)

SEEDS = [
    "1", "2", "2*3", "2^2*3", "P", "P^inf", "2^inf*3^2", "2^0*P", "3*P^2", "(1/2)*P", "(3/2)*2^3*P",
    "(3/4)*2^5", "(3/4)*2^5*", "inf", "3/2", "7/3", "1/0", "sqrt(2)", "(1+2*sqrt(3))/5", "(-1+1*sqrt(5))/2",
    "N", "[1..12]", "S(inf, 2^inf)", "S(3/2, P)", "S+(3/2,P)", "S(3, (1/2)*P)", "S(sqrt(2), P)",
    "S(5/2, 2^3*P)", "S+(inf,P)", "S(3/22,P)", "S(32,2^7)", "alg(S(7/3, P))", "alg([1..3])", "alg(N)",
]
FRAGMENTS = [
    "2", "3", "4", "7", "1", "0", "12", "P", "x", "^", "inf", "*", "(", ")", "/", ",", "S(", "S+(", "[1..", "]",
    "N", "sqrt(", "-", "+", "(1/2)*", "(3/4)*", "alg(", " ", "  ", "\t",
]
CHARS = "0123456789()[]*/^+-,.PSNalginfsqrt \t"


def _fragments(rng: random.Random) -> str:
    return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 10)))


def _spaced(rng: random.Random) -> str:
    s = rng.choice(SEEDS)
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, len(s))
        s = s[:j] + rng.choice([" ", "  ", "\t", " \t"]) + s[j:]
    return s


def _mutant(rng: random.Random) -> str:
    s = _spaced(rng) if rng.random() < 0.5 else rng.choice(SEEDS)
    j = rng.randint(0, len(s))
    new, skip = rng.choice([(rng.choice(CHARS), 0), (rng.choice(CHARS), 1), ("", 1)])
    return s[:j] + new + s[j + skip :]


def _outcome(parse_fn, text: str) -> list:
    try:
        return ["value", repr(parse_fn(text))]
    except Exception as e:  # recorded, so that a change of exception type shows as a difference
        return ["error", type(e).__name__, getattr(e, "message", str(e)), getattr(e, "pos", None)]


def lines() -> Iterator[str]:
    rng = random.Random(SEED)
    for i in range(INPUTS):
        text = rng.choice((_fragments, _spaced, _mutant))(rng)
        for parse_fn in PARSERS:
            yield json.dumps([i, parse_fn.__name__, text, _outcome(parse_fn, text)])
