"""Command-line front end.

Exit codes: 0 success / affirmative decision, 1 negative decision, 2 input
error, 3 verification-suite failure.  With --json the same decision is
wrapped as a JSON object.

Each subcommand's parser carries its answering function as ``args.run``;
``_exit_code`` alone maps the answer to the exit code, ``_render`` to text.
A call builds the parsers of its own command group only.  The ``alg`` answers
reach ``algebra`` through ``locmat``'s lazy names, which load it on first use;
``check`` imports ``oracle``, and ``json`` is imported only to print JSON.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate

import locmat
from . import saturated
from .density import INFINITY, format_density
from .saturated import contains, format_set, parse_set
from .steinitz import ParseError, _parse_int, parse_scaled


class _Group(argparse.ArgumentParser):
    """A command group's parser, which adds its subcommands the first time it
    parses: argparse descends only into the group that argv names."""

    def __init__(self, *args, commands=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._commands = commands

    def parse_known_args(self, args=None, namespace=None):
        if self._commands is not None:
            self._commands(self.add_subparsers(dest="cmd", required=True))
            self._commands = None
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring up to its last paragraph, which is for readers of the source.
    p = argparse.ArgumentParser(prog="locmat", description=__doc__.rsplit("\n\n", 1)[0])
    p.add_argument("--json", action="store_true", help="emit the decision as JSON")
    sub = p.add_subparsers(dest="group", required=True, parser_class=_Group)
    sub.add_parser("num", help="Steinitz number operations", commands=_num_commands)
    sub.add_parser("set", help="saturated set operations", commands=_set_commands)
    sub.add_parser("alg", help="locally matrix algebra decisions", commands=_alg_commands)

    chk = sub.add_parser("check", help="verification suites over the built-in corpus")
    chk.add_argument("suite", choices=["all", "saturation", "inequalities", "roundtrip"])
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--bound", type=int, default=60, help="divisor bound, read by the inequalities suite only")
    chk.add_argument("--trials", type=int, default=200)
    chk.set_defaults(run=lambda a: _run_checks(a.suite, seed=a.seed, bound=a.bound, trials=a.trials))
    return p


def _num_commands(num) -> None:
    for name in ("eval", "format"):
        c = num.add_parser(name, help="parse and print the canonical form")
        c.add_argument("expr")
        c.set_defaults(run=lambda a: str(parse_scaled(a.expr)))


def _set_commands(st) -> None:
    c = st.add_parser("member", help="membership test")
    c.add_argument("set"), c.add_argument("num")
    c.set_defaults(run=lambda a: contains(parse_set(a.set), parse_scaled(a.num)))
    c = st.add_parser("eq", help="formal equality")
    c.add_argument("set1"), c.add_argument("set2")
    c.set_defaults(run=lambda a: saturated.equals_formal(parse_set(a.set1), parse_set(a.set2)))
    c = st.add_parser("subset", help="is the first set contained in the second")
    c.add_argument("set1"), c.add_argument("set2")
    c.set_defaults(run=lambda a: saturated._included(parse_set(a.set1), parse_set(a.set2)))
    c = st.add_parser("rsub", help="r_t(b) closed form")
    c.add_argument("set"), c.add_argument("num"), c.add_argument("b", type=int)
    c.set_defaults(run=lambda a: saturated.r_sub(parse_set(a.set), parse_scaled(a.num), a.b))
    c = st.add_parser("density", help="density at a member")
    c.add_argument("set"), c.add_argument("num")
    c.set_defaults(run=lambda a: format_density(saturated.density(parse_set(a.set), parse_scaled(a.num))))
    c = st.add_parser("max", help="largest member, if any")
    c.add_argument("set")
    c.set_defaults(run=_max)
    c = st.add_parser("classify", help="canonical (normalized) form")
    c.add_argument("set")
    c.set_defaults(run=lambda a: format_set(parse_set(a.set)))


def _alg_commands(alg) -> None:
    c = alg.add_parser("unital", help="is the algebra unital")
    c.add_argument("alg")
    c.set_defaults(run=lambda a: locmat.is_unital(locmat.parse_descriptor(a.alg)))
    c = alg.add_parser("iso", help="are two algebras isomorphic")
    c.add_argument("alg1"), c.add_argument("alg2")
    c.set_defaults(run=lambda a: locmat.isomorphic(locmat.parse_descriptor(a.alg1), locmat.parse_descriptor(a.alg2)))
    c = alg.add_parser("embed", help="does the first embed in the second as an approximative corner")
    c.add_argument("alg1"), c.add_argument("alg2")
    c.set_defaults(
        run=lambda a: locmat.embeds_as_approximative_corner(
            locmat.parse_descriptor(a.alg1), locmat.parse_descriptor(a.alg2)
        )
    )
    c = alg.add_parser("spectrum", help="spectrum of a descriptor or chain JSON")
    c.add_argument("arg")
    c.set_defaults(run=_spectrum)
    c = alg.add_parser("realize", help="chain of corners realizing a spectrum")
    c.add_argument("arg")
    c.add_argument("--chain", help="comma-separated ascending divisors of the base")
    c.add_argument("--depth", type=int, default=4)
    c.set_defaults(run=_realize)
    c = alg.add_parser("minf", help="finitary infinite matrices over a unital algebra")
    c.add_argument("alg")
    c.set_defaults(run=lambda a: str(locmat.m_infinity(locmat.parse_descriptor(a.alg))))
    c = alg.add_parser("matover", help="n-by-n matrices over a unital algebra")
    c.add_argument("alg"), c.add_argument("n", type=int)
    c.set_defaults(run=lambda a: str(locmat.matrix_over(locmat.parse_descriptor(a.alg), a.n)))
    c = alg.add_parser("corner", help="corner of relative rank a/b")
    c.add_argument("alg"), c.add_argument("rank")
    c.set_defaults(run=_corner)


def _max(args) -> str | None:
    m = saturated.max_element(parse_set(args.set))
    return None if m is None else str(m)


def _spectrum(args) -> str:
    if args.arg.lstrip().startswith("{"):
        return format_set(locmat.spectrum_of_chain(locmat.ChainPresentation.from_json(args.arg)))
    return format_set(locmat.parse_descriptor(args.arg).spectrum)


def _realize(args) -> dict:
    alg = args.arg.lstrip().startswith("alg(")
    S = locmat.parse_descriptor(args.arg).spectrum if alg else parse_set(args.arg)
    chain = None
    if args.chain is not None:
        pieces = args.chain.split(",")
        starts = accumulate((len(x) + 1 for x in pieces), initial=0)
        chain = [_parse_int(x, pos) for x, pos in zip(pieces, starts)]
    return locmat.realize(S, divisor_chain=chain, depth=args.depth).to_json_dict()


def _corner(args) -> str:
    num, slash, den = args.rank.partition("/")
    d = _parse_int(den, len(num) + 1) if slash else 1
    if d == 0:
        raise ParseError(f"zero denominator in rank {args.rank!r}", len(args.rank) - len(den.lstrip()))
    q = Fraction(_parse_int(num, 0), d)
    return str(locmat.corner(locmat.parse_descriptor(args.alg), q))


#: Largest ``check --bound`` and ``--trials``.  ``check inequalities`` grows about
#: as bound^1.7 and ``check saturation`` linearly in trials; on a 2-core Xeon each
#: takes about 1 s at its cap.
_MAX_BOUND, _MAX_TRIALS = 400, 10000


def _run_checks(suite: str, seed: int, bound: int, trials: int):
    for name, value, cap in (("bound", bound, _MAX_BOUND), ("trials", trials, _MAX_TRIALS)):
        if value > cap:
            raise ValueError(f"{name} must be at most {cap}, got {value}")
    from . import oracle
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
            ok = saturated.equals_formal(locmat.spectrum_of_chain(locmat.realize(S)), S)
            report.add(ok, f"roundtrip:{name}", format_set(S))
    return report


def _exit_code(answer: object) -> int:
    """1 for False or None (no largest member), 3 for a failed report, else 0.
    A check report is the one answer with a ``passed`` attribute."""
    if answer is False or answer is None:
        return 1
    if hasattr(answer, "passed") and not answer.passed:
        return 3
    return 0


def _json(value: object) -> str:
    import json
    return json.dumps(value, separators=(",", ":"))


def _render(value: object, as_json: bool) -> str:
    if value is None:
        value = "none"
    elif value is INFINITY:
        value = "inf"
    is_report = hasattr(value, "passed")
    if as_json:
        return _json({"result": value.to_json_dict() if is_report else value})
    if is_report:
        lines = value.lines()
        lines.append(f"{'PASS' if value.passed else 'FAIL'} total {len(value.results)} checks")
        return "\n".join(lines)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return _json(value)
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
        answer = args.run(args)
    except (ParseError, ValueError, OverflowError) as e:
        return 2, _json({"error": str(e)}) if args.json else f"error: {e}"
    return _exit_code(answer), _render(answer, args.json)


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
