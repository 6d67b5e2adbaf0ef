"""Command-line front end.

Exit codes: 0 success / affirmative decision, 1 negative decision, 2 input
error, 3 verification-suite failure.  With --json the same decision is
wrapped as a JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate

from . import algebra, oracle, saturated
from .algebra import parse_descriptor
from .density import INFINITY, format_density
from .saturated import contains, format_set, parse_set
from .steinitz import ParseError, _parse_int, parse_scaled


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="locmat", description=__doc__)
    p.add_argument("--json", action="store_true", help="emit the decision as JSON")
    sub = p.add_subparsers(dest="group", required=True)

    num = sub.add_parser("num", help="Steinitz number operations").add_subparsers(dest="cmd", required=True)
    for name in ("eval", "format"):
        c = num.add_parser(name, help="parse and print the canonical form")
        c.add_argument("expr")

    st = sub.add_parser("set", help="saturated set operations").add_subparsers(dest="cmd", required=True)
    c = st.add_parser("member", help="membership test")
    c.add_argument("set"), c.add_argument("num")
    c = st.add_parser("eq", help="formal equality")
    c.add_argument("set1"), c.add_argument("set2")
    c = st.add_parser("subset", help="is the first set contained in the second")
    c.add_argument("set1"), c.add_argument("set2")
    c = st.add_parser("rsub", help="r_t(b) closed form")
    c.add_argument("set"), c.add_argument("num"), c.add_argument("b", type=int)
    c = st.add_parser("density", help="density at a member")
    c.add_argument("set"), c.add_argument("num")
    c = st.add_parser("max", help="largest member, if any")
    c.add_argument("set")
    c = st.add_parser("classify", help="canonical (normalized) form")
    c.add_argument("set")

    alg = sub.add_parser("alg", help="locally matrix algebra decisions").add_subparsers(dest="cmd", required=True)
    c = alg.add_parser("unital", help="is the algebra unital")
    c.add_argument("alg")
    c = alg.add_parser("iso", help="are two algebras isomorphic")
    c.add_argument("alg1"), c.add_argument("alg2")
    c = alg.add_parser("embed", help="does the first embed in the second as an approximative corner")
    c.add_argument("alg1"), c.add_argument("alg2")
    c = alg.add_parser("spectrum", help="spectrum of a descriptor or chain JSON")
    c.add_argument("arg")
    c = alg.add_parser("realize", help="chain of corners realizing a spectrum")
    c.add_argument("arg")
    c.add_argument("--chain", help="comma-separated ascending divisors of the base")
    c.add_argument("--depth", type=int, default=4)
    c = alg.add_parser("minf", help="finitary infinite matrices over a unital algebra")
    c.add_argument("alg")
    c = alg.add_parser("matover", help="n-by-n matrices over a unital algebra")
    c.add_argument("alg"), c.add_argument("n", type=int)
    c = alg.add_parser("corner", help="corner of relative rank a/b")
    c.add_argument("alg"), c.add_argument("rank")

    chk = sub.add_parser("check", help="verification suites over the built-in corpus")
    chk.add_argument("suite", choices=["all", "saturation", "inequalities", "roundtrip"])
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--bound", type=int, default=60, help="divisor bound, read by the inequalities suite only")
    chk.add_argument("--trials", type=int, default=200)
    return p


def _bool_result(flag: bool) -> tuple[object, int]:
    return flag, 0 if flag else 1


def _dispatch(args) -> tuple[object, int]:
    if args.group == "num":
        return str(parse_scaled(args.expr)), 0

    if args.group == "set":
        if args.cmd == "member":
            return _bool_result(contains(parse_set(args.set), parse_scaled(args.num)))
        if args.cmd == "eq":
            return _bool_result(saturated.equals_formal(parse_set(args.set1), parse_set(args.set2)))
        if args.cmd == "subset":
            return _bool_result(saturated._included(parse_set(args.set1), parse_set(args.set2)))
        if args.cmd == "rsub":
            v = saturated.r_sub(parse_set(args.set), parse_scaled(args.num), args.b)
            return ("inf" if v is INFINITY else v), 0
        if args.cmd == "density":
            return format_density(saturated.density(parse_set(args.set), parse_scaled(args.num))), 0
        if args.cmd == "max":
            m = saturated.max_element(parse_set(args.set))
            return ("none", 1) if m is None else (str(m), 0)
        if args.cmd == "classify":
            return format_set(parse_set(args.set)), 0

    if args.group == "alg":
        if args.cmd == "unital":
            return _bool_result(algebra.is_unital(parse_descriptor(args.alg)))
        if args.cmd == "iso":
            return _bool_result(algebra.isomorphic(parse_descriptor(args.alg1), parse_descriptor(args.alg2)))
        if args.cmd == "embed":
            return _bool_result(
                algebra.embeds_as_approximative_corner(parse_descriptor(args.alg1), parse_descriptor(args.alg2))
            )
        if args.cmd == "spectrum":
            arg = args.arg.strip()
            if arg.startswith("{"):
                return format_set(algebra.spectrum_of_chain(algebra.ChainPresentation.from_json(arg))), 0
            return format_set(parse_descriptor(arg).spectrum), 0
        if args.cmd == "realize":
            arg = args.arg.strip()
            S = parse_descriptor(arg).spectrum if arg.startswith("alg(") else parse_set(arg)
            chain = None
            if args.chain is not None:
                pieces = args.chain.split(",")
                starts = accumulate((len(x) + 1 for x in pieces), initial=0)
                chain = [_parse_int(x, pos) for x, pos in zip(pieces, starts)]
            return algebra.realize(S, divisor_chain=chain, depth=args.depth).to_json_dict(), 0
        if args.cmd == "minf":
            return str(algebra.m_infinity(parse_descriptor(args.alg))), 0
        if args.cmd == "matover":
            return str(algebra.matrix_over(parse_descriptor(args.alg), args.n)), 0
        if args.cmd == "corner":
            num, _, den = args.rank.partition("/")
            d = _parse_int(den, len(num) + 1) if den else 1
            if d == 0:
                raise ParseError(f"zero denominator in rank {args.rank!r}", len(num) + 1)
            q = Fraction(_parse_int(num, 0), d)
            return str(algebra.corner(parse_descriptor(args.alg), q)), 0

    if args.group == "check":
        return _run_checks(args.suite, seed=args.seed, bound=args.bound, trials=args.trials)

    raise AssertionError("unhandled command")


def _run_checks(suite: str, seed: int, bound: int, trials: int) -> tuple[object, int]:
    report = oracle.Report()
    corpus = oracle.acceptance_corpus()
    if suite in ("all", "saturation"):
        for name, S in corpus:
            report.extend(f"saturation:{name}:", oracle.saturation_fuzz(S, trials=trials, seed=seed))
    if suite in ("all", "inequalities"):
        for name, S in corpus:
            if S.r is INFINITY:
                continue
            sub = oracle.check_inequality_suite(S, oracle.reference_member(S), bound=bound)
            report.extend(f"inequalities:{name}:", sub)
    if suite in ("all", "roundtrip"):
        for name, S in corpus:
            chain = algebra.realize(S)
            ok = saturated.equals_formal(algebra.spectrum_of_chain(chain), S)
            report.add(ok, f"roundtrip:{name}", format_set(S))
    return report, 0 if report.passed else 3


def _render(value: object, as_json: bool) -> str:
    if as_json:
        if isinstance(value, oracle.Report):
            return json.dumps({"result": value.to_json_dict()}, separators=(",", ":"))
        return json.dumps({"result": value}, separators=(",", ":"))
    if isinstance(value, oracle.Report):
        lines = value.lines()
        lines.append(f"{'PASS' if value.passed else 'FAIL'} total {len(value.results)} checks")
        return "\n".join(lines)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def run(argv: list[str]) -> tuple[int, str]:
    """Pure entry point: argv in, (exit code, output text) out."""
    parser = _build_parser()
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            args = parser.parse_args(argv)
    except SystemExit as e:
        code = 0 if e.code in (0, None) else 2
        return code, buf.getvalue().rstrip("\n")
    try:
        value, code = _dispatch(args)
    except (ParseError, ValueError, OverflowError) as e:
        if args.json:
            return 2, json.dumps({"error": str(e)}, separators=(",", ":"))
        return 2, f"error: {e}"
    return code, _render(value, args.json)


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
