"""CLI golden outputs and exit-code protocol."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from locmat import cli, oracle
from locmat.steinitz import SteinitzNumber, _is_prime

# (argv, expected exit code, expected byte-exact output)
GOLDEN = [
    (["num", "eval", "2^inf*3^2"], 0, "2^inf*3^2"),
    (["num", "format", "P^1*2^3"], 0, "2^3*P"),
    (["num", "eval", "1"], 0, "1"),
    (["num", "eval", "(1/2)*P^1"], 0, "2^0*P"),
    (["set", "member", "S(3/2, P^1)", "(1/2)*P^1"], 0, "true"),
    (["set", "member", "S(3/2, P)", "(2/1)*P"], 1, "false"),
    # pq*P, p and q the first primes above 10^15: decided without their factors.
    (["set", "member", "S(3/2,P)", "(1000000000000128000000000003367/1)*P"], 1, "false"),
    (["set", "rsub", "S(3/2,P^1)", "P^1", "3"], 0, "4"),
    (["set", "rsub", "S+(3/2,P)", "P", "2"], 0, "2"),
    (["set", "rsub", "S(inf, 2^inf)", "2^inf", "4"], 0, "inf"),
    (["set", "eq", "S(3/2, P)", "S(3, (1/2)*P)"], 0, "true"),
    (["set", "eq", "S(3/2, P)", "S+(3/2, P)"], 1, "false"),
    (["set", "subset", "[1..3]", "N"], 0, "true"),
    (["set", "subset", "N", "[1..3]"], 1, "false"),
    (["set", "density", "S(3/2,P)", "(1/2)*P"], 0, "3"),
    (["set", "density", "S(sqrt(2), P)", "P"], 0, "(0+1*sqrt(2))/1"),
    (["set", "max", "S(3/2,P)"], 0, "2^0*3^2*P"),
    (["set", "max", "S+(3/2,P)"], 1, "none"),
    (["set", "classify", "S(3/2, 2^inf*3)"], 0, "S(inf, 2^inf*3)"),
    (["set", "classify", "S(inf, 2*3)"], 0, "N"),
    (["alg", "unital", "alg([1..7])"], 0, "true"),
    (["alg", "unital", "alg(S+(3/2,P^1))"], 1, "false"),
    (["alg", "unital", "alg(S(inf, 2^inf))"], 1, "false"),
    (["alg", "iso", "alg([1..3])", "alg([1..4])"], 1, "false"),
    (["alg", "iso", "alg(S(3/2, P))", "alg(S(3, (1/2)*P))"], 0, "true"),
    (["alg", "embed", "alg(S+(3/2,P^1))", "alg(S(3/2,P^1))"], 0, "true"),
    (["alg", "embed", "alg([1..3])", "alg(N)"], 0, "true"),
    (["alg", "embed", "alg(S(1,P))", "alg(S(inf,2^inf))"], 1, "false"),
    (["alg", "spectrum", "alg(S+(7/3, P))"], 0, "S+(7/3, P)"),
    (["alg", "minf", "alg([1..1])"], 0, "alg(N)"),
    (["alg", "matover", "alg([1..3])", "2"], 0, "alg([1..6])"),
    (["alg", "corner", "alg(S(1,P))", "1/2"], 0, "alg(S(1, 2^0*P))"),
    (
        ["alg", "realize", "S(3/2,P)", "--chain", "2,6"],
        0,
        '{"stages":[{"k":3,"s":"2^0*P","q":3},{"k":9,"s":"2^0*3^0*P","q":null}],'
        '"tail":{"kind":"attained","r":"1"}}',
    ),
    (["num", "eval", "4^2"], 2, "error: non-prime base 4 (at position 0)"),
    (["set", "member", "S(3/2)", "P"], 2, "error: missing comma in 'S(3/2)' (at position 5)"),
    (["set", "rsub", "S(3/2,P)", "P", "4"], 2, "error: 4 is not in Omega(P)"),
    (["set", "member", "S(1/0,P)", "P"], 2, "error: zero denominator in density '1/0' (at position 2)"),
    (["alg", "corner", "alg([1..4])", "1/0"], 2, "error: zero denominator in rank '1/0' (at position 2)"),
    (
        ["set", "member", "S((1+1*sqrt(2))/0,P)", "P"],
        2,
        "error: zero denominator in density '(1+1*sqrt(2))/0' (at position 14)",
    ),
    (["set", "member", "S(sqrt(0),P)", "P"], 2, "error: zero radicand in density 'sqrt(0)' (at position 5)"),
    (["--json", "set", "max", "S+(3/2,P)"], 1, '{"result":"none"}'),
    (["--json", "set", "max", "[1..3]"], 0, '{"result":"3"}'),
    (["--json", "set", "rsub", "S(inf, 2^inf)", "2^inf", "4"], 0, '{"result":"inf"}'),
    (
        ["--json", "alg", "realize", "S(3/2,P)", "--chain", "2,6"],
        0,
        '{"result":{"stages":[{"k":3,"s":"2^0*P","q":3},{"k":9,"s":"2^0*3^0*P","q":null}],'
        '"tail":{"kind":"attained","r":"1"}}}',
    ),
]


@pytest.mark.parametrize("argv,code,expected", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden(argv, code, expected):
    got_code, got = cli.run(argv)
    assert (got_code, got) == (code, expected)


def test_parse_format_roundtrip_through_cli():
    exprs = ["2^inf*3^2", "2^3*P", "1", "P^inf", "2^0*3^2*P"]
    for e in exprs:
        code, out = cli.run(["num", "format", e])
        assert code == 0 and out == e
        code, out2 = cli.run(["num", "format", out])
        assert out2 == out


def test_realize_spectrum_roundtrip():
    code, chain_json = cli.run(["alg", "realize", "S+(5/2, 2^3*P)"])
    assert code == 0
    code, spectrum = cli.run(["alg", "spectrum", chain_json])
    assert code == 0
    code, verdict = cli.run(["set", "eq", spectrum, "S+(5/2, 2^3*P)"])
    assert (code, verdict) == (0, "true")


def test_json_mirrors_plain_decision():
    plain_code, plain = cli.run(["set", "member", "S(3/2,P)", "(1/2)*P"])
    json_code, j = cli.run(["--json", "set", "member", "S(3/2,P)", "(1/2)*P"])
    assert plain_code == json_code == 0
    assert json.loads(j) == {"result": True}
    assert (plain == "true") == json.loads(j)["result"]

    plain_code, plain = cli.run(["set", "rsub", "S(3/2,P)", "P", "3"])
    json_code, j = cli.run(["--json", "set", "rsub", "S(3/2,P)", "P", "3"])
    assert json.loads(j)["result"] == int(plain) == 4

    json_code, j = cli.run(["--json", "num", "eval", "4^2"])
    assert json_code == 2 and "error" in json.loads(j)


def test_check_suites_pass():
    code, out = cli.run(["check", "roundtrip"])
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS total")
    code, out = cli.run(["check", "saturation", "--trials", "60", "--bound", "20"])
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_check_seed_determinism():
    a = cli.run(["check", "saturation", "--trials", "40", "--seed", "9", "--bound", "12"])
    b = cli.run(["check", "saturation", "--trials", "40", "--seed", "9", "--bound", "12"])
    assert a == b


def _axioms_fuzz(S, trials, seed):
    """``oracle.saturation_fuzz`` cut down to its axiom check."""
    rep = oracle.Report()
    v = oracle.check_saturation_axioms(S, samples=trials, seed=seed)
    rep.add(v is None, "axioms", v.witness if v else "")
    return rep


def test_check_failure_exit_code(monkeypatch):
    # A corpus with a broken literal member list must drive exit code 3.
    one = SteinitzNumber.from_int(1)
    three = SteinitzNumber.from_int(3)
    monkeypatch.setattr(oracle, "acceptance_corpus", lambda: [("broken", [one, three])])
    monkeypatch.setattr(oracle, "saturation_fuzz", _axioms_fuzz)
    code, out = cli.run(["check", "saturation", "--trials", "50"])
    assert code == 3
    assert "FAIL" in out


def test_json_check_failure_exit_code(monkeypatch):
    # The broken literal corpus of test_check_failure_exit_code, under --json.
    one = SteinitzNumber.from_int(1)
    three = SteinitzNumber.from_int(3)
    monkeypatch.setattr(oracle, "acceptance_corpus", lambda: [("broken", [one, three])])
    monkeypatch.setattr(oracle, "saturation_fuzz", _axioms_fuzz)
    code, out = cli.run(["--json", "check", "saturation", "--trials", "50"])
    assert code == 3
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert [(c["ok"], c["name"]) for c in result["checks"]] == [(False, "saturation:broken:axioms")]


def test_usage_error_exit_code():
    code, out = cli.run(["set", "nonsense"])
    assert code == 2
    code, out = cli.run([])
    assert code == 2


def test_json_check_report():
    code, out = cli.run(["--json", "check", "roundtrip"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["passed"] is True
    assert all(c["ok"] for c in data["result"]["checks"])


def test_unfactorable_size_exits_2_quickly():
    # p and q are the first two primes above 10^15: Pollard-Brent would need
    # about 3*10^7 steps, past the factorization budget.
    p, q = 1000000000000037, 1000000000000091
    start = time.perf_counter()
    code, out = cli.run(["alg", "matover", "alg(S(1,P))", str(p * q)])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == f"error: {p * q} is too large to factor"


def test_matover_segment_factors_nothing():
    # M_pq(M_2) is the segment [1..2pq], printed in decimal: no factors needed.
    p, q = 1000000000000037, 1000000000000091
    assert cli.run(["alg", "matover", "alg([1..2])", str(p * q)]) == (0, f"alg([1..{2 * p * q}])")


@pytest.mark.parametrize("arg", ["S(inf, P)", "N", "[1..3]", "S(3/2, P)"])
@pytest.mark.parametrize("depth", ["0", "-2"])
def test_realize_rejects_depth_below_one(arg, depth):
    code, out = cli.run(["alg", "realize", arg, "--depth", depth])
    assert (code, out) == (2, f"error: depth must be positive, got {depth}")


# Alternating p^100 and p^0 over the first 2000 primes, against a base P^50:
# every term is within the literal budget, their sum is not.  Unbounded, the
# member ratio is a quotient of two products of about 10^6 bits each.
_PRIMES_2000 = [p for p in range(2, 17390) if _is_prime(p)]
_MANY_TERMS = "*".join(f"{p}^{0 if i % 2 else 100}" for i, p in enumerate(_PRIMES_2000)) + "*P^50"


def _run_bounded(argv: list[str]) -> tuple[int, str, float]:
    """cli.run in a fresh interpreter, killed after 20 s: (code, output, seconds)."""
    import locmat

    src = str(Path(locmat.__file__).resolve().parents[1])
    code = (
        "import json, sys, time\n"
        "from locmat import cli\n"
        "start = time.perf_counter()\n"
        "code, out = cli.run(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, out, time.perf_counter() - start]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=20,
        check=True,
    )
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize(
    "argv",
    [
        ["set", "member", "S(3/2,P)", "3^100000000*P"],
        ["set", "member", "[1..3]", "2^100000000"],
        ["set", "member", "S(3/2,P^50)", _MANY_TERMS],
        ["alg", "realize", "S(3/2,P)", "--depth", "1000"],
    ],
    ids=["huge-exponent", "huge-natural", "many-terms", "depth-1000"],
)
def test_oversized_input_exits_2_quickly(argv):
    code, out, seconds = _run_bounded(argv)
    assert code == 2 and out.startswith("error: ") and "Traceback" not in out
    assert seconds < 1


def test_huge_default_member_answers_quickly():
    # Halving P^(10^12) subtracts from the exponent of 2; it never builds 2^(10^12).
    code, out, seconds = _run_bounded(["set", "member", "S(1,P^1000000000000)", "(1/2)*P^1000000000000"])
    assert (code, out) == (0, "true") and seconds < 1


def test_unital_segment_factors_nothing():
    # Deciding that [1..n] is unital needs no factors of n; listing its
    # largest element in product form still does.
    p, q = 1000000000000037, 1000000000000091
    start = time.perf_counter()
    assert cli.run(["alg", "unital", f"alg([1..{p * q}])"]) == (0, "true")
    assert time.perf_counter() - start < 1


_LONG = "1" * 5000  # past the interpreter's int-string limit of 4300 digits


@pytest.mark.parametrize(
    "argv",
    [
        ["num", "eval", f"2^{_LONG}"],
        ["set", "member", f"[1..{_LONG}]", "2"],
        ["set", "member", f"S({_LONG}/2, P)", "P"],
        ["set", "member", "S(3/2,P)", f"({_LONG}/1)*P"],
        ["alg", "corner", "alg([1..4])", f"1/{_LONG}"],
        ["alg", "realize", "S(3/2,P)", "--chain", f"2,{_LONG}"],
        ["alg", "spectrum", '{"stages":[{"k":' + _LONG + ',"s":"P","q":null}],"tail":null}'],
    ],
    ids=["exponent", "segment", "density", "scale-prefix", "rank", "chain", "chain-json"],
)
def test_overlong_integer_literal_is_a_parse_error(argv):
    code, out = cli.run(argv)
    assert code == 2 and "(at position" in out and "Exceeds the limit" not in out


@pytest.mark.parametrize(
    "arg,chain", [("S+(1,P)", []), ("S+(1,2^0*P)", ["--chain", "3,15"])], ids=["default-chain", "explicit-chain"]
)
def test_realize_strict_density_one(arg, chain):
    code, chain_json = cli.run(["alg", "realize", arg, *chain])
    assert code == 0
    code, spectrum = cli.run(["alg", "spectrum", chain_json])
    assert code == 0
    assert cli.run(["set", "eq", spectrum, arg]) == (0, "true")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["S+(1,2^0*P)"], "error: stage size must be positive, got 0"),
        (["S(3/2,P)", "--chain", "0,3"], "error: divisor must be positive, got 0"),
    ],
    ids=["zero-first-stage", "zero-divisor"],
)
def test_realize_degenerate_chain_exits_2(argv, expected):
    assert cli.run(["alg", "realize", *argv]) == (2, expected)


@pytest.mark.parametrize("suite", ["saturation", "all"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_rejects_trials_below_one(suite, trials):
    assert cli.run(["check", suite, "--trials", trials]) == (2, f"error: trials must be positive, got {trials}")


def test_realize_rejects_empty_chain():
    assert cli.run(["alg", "realize", "S(3/2,P)", "--chain", ""]) == (2, "error: malformed integer '' (at position 0)")


def test_deeply_nested_chain_json_exits_2():
    deep = '{"stages":' + "[" * 100000 + "]" * 100000 + "}"
    code, out = cli.run(["alg", "spectrum", deep])
    assert code == 2 and out.startswith("error: ")


def test_check_inequalities_passes():
    code, out = cli.run(["check", "inequalities", "--bound", "30"])
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 53 and lines[-1] == "PASS total 52 checks"
    assert all(line.startswith("PASS inequalities:") for line in lines[:-1])


def test_check_all_passes():
    code, out = cli.run(["check", "all", "--trials", "40", "--bound", "30"])
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "PASS total 103 checks"
    groups = [line.split()[1].split(":")[0] for line in lines[:-1]]
    assert groups == sorted(groups, key=["saturation", "inequalities", "roundtrip"].index)


# The seven decision commands: the only ones whose answer may be negative.
_DECISIONS = {
    ("set", "member"), ("set", "eq"), ("set", "subset"), ("set", "max"),
    ("alg", "unital"), ("alg", "iso"), ("alg", "embed"),
}
_EXTRA_ARGS = ["--json", "--chain", "--depth", "2", "0", "-1", "", "x", "inf", "P", "N", "alg(N)", "S(1,P)", "2,6"]
_CHARS = "0123456789()[]*/^+-,. PSNalginfsqrt"


def _mutant(rng: random.Random, argv: list[str], pool: list[str]) -> list[str]:
    """argv with one argument dropped, one inserted, or one character of an
    operand (an argument after the command words) edited."""
    argv = list(argv)
    kind = rng.randrange(3)
    operands = 3 if argv[:1] == ["--json"] else 2
    if kind == 0 and argv:
        del argv[rng.randrange(len(argv))]
    elif kind == 1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(pool))
    elif len(argv) > operands:
        i = rng.randrange(operands, len(argv))
        s, j = argv[i], rng.randrange(len(argv[i]) + 1)
        # Insert a character at j, replace the one at j, or delete it.
        new, skip = rng.choice([(rng.choice(_CHARS), 0), (rng.choice(_CHARS), 1), ("", 1)])
        argv[i] = s[:j] + new + s[j + skip :]
    return argv


def test_mutated_golden_argv_keep_the_exit_code_protocol():
    # No exception escapes, the exit code is 0, 1 or 2, and 1 is a negative
    # decision: it comes from a decision command only.
    rng = random.Random(20261018)
    goldens = [argv for argv, _, _ in GOLDEN if "check" not in argv]
    pool = sorted({a for argv in goldens for a in argv}) + _EXTRA_ARGS
    seen, violations = set(), []
    for argv in goldens:
        for _ in range(12):
            mutant = argv
            for _ in range(rng.randint(1, 3)):
                mutant = _mutant(rng, mutant, pool)
            try:
                code, out = cli.run(mutant)
            except Exception as e:  # reported with the argv that raised it
                violations.append((mutant, repr(e)))
                continue
            seen.add(code)
            if code == 1:
                args = cli._build_parser().parse_args(mutant)
                if (args.group, getattr(args, "cmd", None)) not in _DECISIONS:
                    violations.append((mutant, code, out))
            elif code not in (0, 2):
                violations.append((mutant, code, out))
    assert violations == []
    assert seen == {0, 1, 2}
