"""Equivalence sweep over the command-line front end.

Runs a fixed argv corpus through ``locmat.cli.run``: every subcommand with
accepted, negative and malformed inputs, usage errors, and the ``--help``
of the program, of each group and of each subcommand.  Every argv runs
plain and again with ``--json`` in front.  Each call makes one line, the
JSON list [argv, exit code, output]; an exception that escapes ``run`` is
recorded in place of the exit code and output.  ``tools/sweeps.py`` runs it.

Help text is wrapped at 80 columns whatever the terminal: ``COLUMNS`` is 80
while the lines are made.  The sweep takes about 16 s on a 2-core Xeon.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from unittest import mock

from locmat import cli

SETS = [
    "[1..3]",
    "[1..12]",
    "N",
    "S(inf, 2^inf)",
    "S(inf, 2^inf*3)",
    "S(inf, P)",
    "S(1,P)",
    "S+(1,P)",
    "S(3/2,P)",
    "S+(3/2,P)",
    "S(3, (1/2)*P)",
    "S(7/3, P)",
    "S+(7/3, P)",
    "S(5/2, 2^3*P)",
    "S(sqrt(2), P)",
    "S+(sqrt(5), P)",
    "S(3/2, 2^inf*3)",
    "S(inf, 2*3)",
]
BAD_SETS = [
    "S(3/2)", "S(1/0,P)", "S(sqrt(0),P)", "", "S(3/2, 4)", "T(1,P)", "[1..0]", "S(-1,P)", "S(3/22,P)", "S(32,2^7)",
    "S+(inf,P)",
]
NUMS = ["1", "2", "2*3", "2^2*3", "P", "(1/2)*P", "(2/1)*P", "(3/2)*P", "3*P", "2^3*P", "2^inf", "2^inf*3^2", "P^inf"]
BAD_NUMS = ["4^2", "6", "x", "", "2^", "(1/0)*P", "P^-1", "(1/9)*P"]
SHORT_SETS = SETS[::2]
SHORT_NUMS = ["1", "2*3", "P", "(1/2)*P", "2^inf", "2^inf*3"]
ALGS = [f"alg({s})" for s in SETS]
BAD_ALGS = ["alg[1..3]", "alg(", "foo", "alg(S(3/2))", "alg()"]
CHAIN_JSON = [
    '{"stages":[{"k":3,"s":"2^0*P","q":3},{"k":9,"s":"2^0*3^0*P","q":null}],"tail":{"kind":"attained","r":"1"}}',
    '{"stages":[{"k":4,"s":"1","q":null}],"tail":null}',
    '{"stages":"ab","tail":null}',
    '{"stages":[],"tail":null}',
    "{not json",
    '{"stages":[{"k":0,"s":"P","q":null}],"tail":null}',
    '{"stages":[{"k":-1,"s":"P","q":null}],"tail":null}',
    '{"stages":[{"k":1,"s":"P","q":0},{"k":2,"s":"P","q":null}],"tail":null}',
    '{"stages":[{"k":1,"s":"P","q":2},{"k":9,"s":"P","q":null}],"tail":null}',
    '{"stages":[{"k":3,"s":"P","q":1},{"k":2,"s":"P","q":null}],"tail":null}',
    '{"stages":[{"k":3,"s":"P","q":null}],"tail":{"kind":"attained","r":"1/2"}}',
    '{"stages":[{"k":3,"s":"P","q":null}],"tail":{"kind":"bogus","r":"1"}}',
    '{"stages":[{"k":1,"s":"2^inf","q":null}],"tail":{"kind":"attained","r":"2"}}',
    '{"stages":[{"k":0,"s":"P","q":1},{"k":1,"s":"x","q":null}],"tail":null}',
    '{"stages":[{"k":1,"s":"P"},{"k":2,"s":"P","q":null}],"tail":null}',
    '{"stages":[{"k":1,"s":"P","q":null}],"tail":{"r":"1"}}',
    '{"stages":[{"k":1,"s":"P","q":null}],"tail":{"kind":"attained"}}',
    '{"stages":[{"k":3,"s":"P","q":1},{"k":4,"s":"P","q":null}],"tail":{"kind":"attained","r":"1/2"}}',
    '{"stages":[{"k":0,"s":"P","q":null}],"tail":{"kind":"bogus","r":"1"}}',
]


def _corpus() -> list[list[str]]:
    out: list[list[str]] = []
    for cmd in ("eval", "format"):
        out += [["num", cmd, e] for e in NUMS + BAD_NUMS]
    out += [["set", "member", s, t] for s in SETS for t in NUMS]
    out += [["set", "member", s, t] for s in BAD_SETS for t in SHORT_NUMS[:2]]
    out += [["set", "member", s, t] for s in SHORT_SETS for t in BAD_NUMS]
    for cmd in ("eq", "subset"):
        out += [["set", cmd, a, b] for a in SETS for b in SHORT_SETS]
        out += [["set", cmd, a, b] for a in BAD_SETS for b in SHORT_SETS[:2]]
    out += [["set", "rsub", s, t, b] for s in SHORT_SETS for t in SHORT_NUMS for b in ("1", "2", "3", "4", "6", "x")]
    out += [["set", "rsub", s, "P", "2"] for s in BAD_SETS]
    out += [["set", "density", s, t] for s in SETS for t in SHORT_NUMS]
    out += [["set", "density", s, t] for s in SHORT_SETS for t in BAD_NUMS[:3]]
    for cmd in ("max", "classify"):
        out += [["set", cmd, s] for s in SETS + BAD_SETS]
    for cmd in ("unital", "minf", "spectrum"):
        out += [["alg", cmd, a] for a in ALGS + BAD_ALGS]
    out += [["alg", "spectrum", j] for j in CHAIN_JSON]
    for cmd in ("iso", "embed"):
        out += [["alg", cmd, a, b] for a in ALGS for b in ALGS[::3]]
        out += [["alg", cmd, a, ALGS[0]] for a in BAD_ALGS]
    out += [["alg", "matover", a, n] for a in ALGS[::2] + BAD_ALGS[:2] for n in ("1", "2", "3", "0", "-1", "x")]
    out += [["alg", "corner", a, q] for a in ALGS[::2] + BAD_ALGS[:2] for q in ("1", "1/2", "2/3", "1/0", "0", "3/")]
    for arg in SETS + ALGS[::4] + BAD_SETS[:3]:
        for extra in ([], ["--chain", "2,6"], ["--chain", ""], ["--chain", "3,2"], ["--depth", "2"], ["--depth", "0"]):
            out.append(["alg", "realize", arg, *extra])
    out += [
        ["alg", "realize", "S(3/2,P)", "--depth", "65"],
        ["alg", "realize", "S+(1,P)", "--chain", "1,2"],
        ["alg", "realize", "S+(1,P)", "--chain", "1,4"],
    ]
    # An error position counts the argument's leading spaces.
    out += [
        ["set", "classify", "S( -1,P)"],
        ["alg", "unital", "  foo"],
        ["alg", "realize", " S(1/0,P)"],
        ["alg", "realize", "  alg(S(1/0,P))"],
        ["alg", "spectrum", "  alg(S(1/0,P))"],
        ["alg", "spectrum", '  {"stages":x}'],
    ]
    # An empty part is reported where its spaces end, after a (u/v)* prefix too.
    out += [["num", "eval", "(3/4)*2^5*  "], ["set", "classify", "S(3/2,  )"]]
    out += [
        ["check", "roundtrip"],
        ["check", "saturation", "--trials", "20", "--bound", "12", "--seed", "2"],
        ["check", "inequalities", "--bound", "12"],
        ["check", "all", "--trials", "10", "--bound", "12", "--seed", "1"],
        ["check", "saturation", "--trials", "0"],
        ["check", "all", "--trials", "-5"],
        ["check", "bogus"],
        ["check", "all", "--seed", "x"],
        ["check"],
    ]
    out += [
        [],
        ["--bogus"],
        ["num"],
        ["set"],
        ["alg"],
        ["nonsense"],
        ["num", "eval"],
        ["num", "eval", "1", "2"],
        ["set", "nonsense"],
        ["set", "member", "N"],
        ["set", "member", "N", "1", "2"],
        ["set", "rsub", "N", "1"],
        ["alg", "nonsense"],
        ["alg", "iso", "alg(N)"],
        ["alg", "realize"],
        ["alg", "realize", "N", "--depth"],
        ["alg", "realize", "N", "--depth", "x"],
        ["alg", "realize", "N", "--bogus", "1"],
    ]
    out += [["--help"], ["-h"]]
    for group, cmds in (
        ("num", ("eval", "format")),
        ("set", ("member", "eq", "subset", "rsub", "density", "max", "classify")),
        ("alg", ("unital", "iso", "embed", "spectrum", "realize", "minf", "matover", "corner")),
        ("check", ()),
    ):
        out.append([group, "--help"])
        out += [[group, cmd, "--help"] for cmd in cmds]
    return out


def lines() -> Iterator[str]:
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for base in _corpus():
            for call in (base, ["--json", *base]):
                try:
                    code, out = cli.run(call)
                except Exception as e:  # recorded, so that an escaping exception shows as a difference
                    code, out = "raised", f"{type(e).__name__}: {e}"
                yield json.dumps([call, code, out])
