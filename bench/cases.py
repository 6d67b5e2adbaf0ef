"""Seeded inputs for every workload, each paired with its expected answer.

Inputs are built from known parts: a member is (a/b)*base with a chosen a/b
and b in Omega(base), a natural is a product of chosen prime powers, a chain
is a realization over chosen divisors.  Expected answers are decided with
``model`` alone; locmat only receives the generated inputs.

A decision op is ``(kind, call, check)``: ``call()`` runs the library and
returns its raw result, ``check(result)`` says whether it is right.  Calls
look functions up on the locmat module at call time, so a traced run that
rebinds module attributes sees them.  A CLI case is ``(argv, expect)``
with ``expect`` one of ``("text", code, text)``, ``("json", code, obj)``
or ``("error", 2, None)``.
"""

from __future__ import annotations

import importlib
import json
import random
from fractions import Fraction

import model as M
from model import INF, Sat, St

SMALL_PRIMES = [p for p in range(2, 60) if M.is_prime(p)]
SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15]

#: Relative weights of the decision-stream op kinds, chosen so that no kind
#: takes more than half the measured time (each run reports the shares).
#: Measured shares on a 2-core Xeon, Python 3.11: equals_extensional about
#: 0.3, scale and mul_natural about 0.2 each, realize 0.1, the rest below 0.05.
DECISION_MIX = {
    "contains": 30,
    "r_sub": 14,
    "compare_inclusion": 10,
    "equals_formal": 8,
    "max_element": 8,
    "parse_num": 6,
    "parse_set": 6,
    "scale": 4,
    "mul_natural": 4,
    "realize": 4,
    "equals_extensional": 0.6,
}

#: CLI subcommands with a well-formed generated call; every num, set and
#: alg subcommand appears once per block of cli-oneshot.
CLI_COMMANDS = [
    "num eval", "num format",
    "set member", "set eq", "set subset", "set rsub", "set density", "set max", "set classify",
    "alg unital", "alg iso", "alg embed", "alg spectrum", "alg realize", "alg minf", "alg matover", "alg corner",
]
#: Malformed calls per cli-oneshot block, all expected to exit 2 cleanly.
CLI_MALFORMED_PER_BLOCK = 4
CLI_MALFORMED = [
    "composite-base", "density-below-1", "rsub-outside-omega", "density-non-member",
    "corner-non-unital", "matover-zero", "chain-missing-key", "missing-argument",
    "realize-bad-chain", "unclosed-set",
]
#: The input-contract defects listed in ROADMAP item 3; each should exit 2.
CLI_DEFECTS = ["density-zero-denominator", "corner-zero-denominator", "chain-null-density", "chain-float-size"]


class Gen:
    """Random canonical objects over a seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    # -- Steinitz numbers and naturals ------------------------------------

    def base(self, infinite_prime: bool | None = None) -> St:
        rng = self.rng
        default = rng.choice((1, 1, 2))
        primes = rng.sample(SMALL_PRIMES, rng.randint(0, 8))
        exc = {p: rng.choice((0, 1, 2, 3, 4)) for p in primes}
        if infinite_prime is None:
            infinite_prime = rng.random() < 0.15
        if infinite_prime:
            exc[primes[0] if primes else rng.choice(SMALL_PRIMES)] = INF
        return St(default, exc)

    def omega(self, s: St, terms: int = 2, cap: int = 2) -> dict[int, int]:
        """A small natural in Omega(s), as a factorization."""
        rng = self.rng
        fac: dict[int, int] = {}
        for p in rng.sample(SMALL_PRIMES[:8], rng.randint(0, terms)):
            v = s.v(p)
            if v >= 1:
                fac[p] = rng.randint(1, min(v, cap))
        return fac

    def fresh_nat(self) -> dict[int, int]:
        """A natural up to about 10^12 with one or two large random prime
        factors, so factorizing it misses any cache."""
        rng = self.rng
        fac = {p: rng.randint(1, 2) for p in rng.sample(SMALL_PRIMES[:6], rng.randint(0, 2))}
        for _ in range(rng.choice((1, 1, 2))):
            while True:
                p = rng.randrange(10_001, 1_000_000, 2)
                if M.is_prime(p):
                    break
            fac[p] = fac.get(p, 0) + 1
        return fac

    # -- densities and sets ------------------------------------------------

    def density(self):
        rng = self.rng
        if rng.random() < 0.35:
            while True:
                r = M.Surd(rng.randint(-3, 6), rng.randint(1, 3), rng.choice(SQUAREFREE), rng.randint(1, 4))
                if M.dcmp(r, Fraction(1)) >= 0 and M.dcmp(r, Fraction(9)) < 0:
                    return r
        v = rng.randint(1, 12)
        return Fraction(rng.randint(v, 8 * v), v)

    def raw_set(self, infinite_prime: bool | None = None) -> tuple:
        """(r, base, strict) as a user may write it: the base may have an
        infinite prime (the set collapses to the infinite type) and the
        strict flag may be one the set cannot have (S+ = S when r*base is
        not a Steinitz number)."""
        base = self.base(infinite_prime)
        if self.rng.random() < 0.1:
            return INF, base, False
        r = self.density()
        return r, base, r != 1 and self.rng.random() < 0.4

    def sat(self, infinite_prime: bool | None = None) -> Sat:
        return Sat(*self.raw_set(infinite_prime))

    def finite_sat(self) -> Sat:
        """S(r, base) or S+(r, base) over a base without infinite primes."""
        r = self.density()
        return Sat(r, self.base(infinite_prime=False), r != 1 and self.rng.random() < 0.4)

    def unital_sat(self) -> Sat:
        """S(u/v, base) closed with v in Omega(base): it has a largest member."""
        base = self.base(infinite_prime=False)
        v = M.nat(self.omega(base))
        return Sat(Fraction(self.rng.randint(v, 6 * v), v), base)

    def connected(self, S: Sat) -> Sat:
        """The same set presented over base2 = q0*base, for a q0 at most the
        density so that the rebased density r/q0 stays at least 1."""
        e = M.nat(self.omega(S.base))
        top = 4 * e if S.infinite else M.dfloor(M.dscale(S.r, Fraction(e)))
        q0 = Fraction(self.rng.randint(1, top), e)
        return Sat(M.dscale(S.r, 1 / q0), S.base.scale(q0), S.strict)

    def partner(self, S: Sat) -> Sat:
        """A second set to compare with S: equal, nested or disjoint, and
        presented over a rationally connected base half of the time."""
        rng = self.rng
        pick = rng.random()
        if pick < 0.15:
            return self.disjoint(S)
        if S.infinite or pick < 0.4:
            T = S
        elif pick < 0.6:
            T = Sat(S.r, S.base, not S.strict and S.r != 1)
        else:
            step = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            down = _add(S.r, -step)
            r2 = down if rng.random() < 0.5 and M.dcmp(down, Fraction(1)) >= 0 else _add(S.r, step)
            T = Sat(r2, S.base, r2 != 1 and rng.random() < 0.4)
        return self.connected(T) if rng.random() < 0.5 else T

    def disjoint(self, S: Sat) -> Sat:
        """The same shape over a base with another default exponent."""
        return Sat(S.r, St(2 if S.base.default == 1 else 1, S.base.exc), S.strict)

    def ratio_in(self, S: Sat, slack: int = 1) -> tuple[int, dict[int, int]]:
        """(a, b) with b in Omega(base) and a/b up to the density bound plus
        ``slack``/b; b is returned as its factorization."""
        b = self.omega(S.base)
        top = 3 * M.nat(b) + 1 if S.infinite else M.dfloor(M.dscale(S.r, Fraction(M.nat(b))))
        return self.rng.randint(1, max(1, top) + slack), b

    def member(self, S: Sat) -> tuple[St, Fraction]:
        """A member t = q*base with q = a/b below the bound, and q."""
        while True:
            a, b = self.ratio_in(S, slack=0)
            t = times(S.base, a, b)
            if M.member(S, t):
                return t, Fraction(a, M.nat(b))

    def probe(self, S: Sat) -> tuple[St, Fraction | None]:
        """A member or a near miss: just past the bound, or not rationally
        connected (then q is None)."""
        if self.rng.random() < 0.15:
            return self.disjoint(S).base, None
        a, b = self.ratio_in(S, slack=1)
        return times(S.base, a, b), Fraction(a, M.nat(b))

    # -- spellings ---------------------------------------------------------

    def spell_st(self, s: St) -> str:
        """A non-canonical but equivalent spelling of s."""
        rng = self.rng
        terms = [_term(str(p), e, rng) for p, e in s.exc.items()]
        spare = [p for p in SMALL_PRIMES if p not in s.exc]
        for p in rng.sample(spare, min(len(spare), rng.randint(0, 2))):
            terms.append(_term(str(p), s.default, rng))
        if s.default != 0:
            terms.append(_term("P", s.default, rng))
        if not terms:
            return "1"
        rng.shuffle(terms)
        return rng.choice(("*", " * ")).join(terms)

    def spell_scaled(self, t: St, q: Fraction, base: St) -> str:
        """t = q*base spelled either as ``(a/b)*base`` or directly."""
        if self.rng.random() < 0.6:
            return f"({q.numerator}/{q.denominator})*{self.spell_st(base)}"
        return self.spell_st(t)

    def spell_set(self, r, base: St, strict: bool) -> str:
        if isinstance(r, M.Surd) and (r.x, r.y, r.z) == (0, 1, 1) and self.rng.random() < 0.5:
            r_text = f"sqrt({r.d})"
        else:
            r_text = M.dtext(r)
        return f"S{'+' if strict else ''}({r_text},{self.rng.choice(('', ' '))}{self.spell_st(base)})"

    def spell(self, S: Sat) -> str:
        return self.spell_set(S.r, S.base, S.strict)


def times(base: St, a: int, b: dict[int, int]) -> St:
    """(a/b)*base for b in Omega(base), from the known factorization of b."""
    return base.div(b).mul(M.factor_small(a))


def _term(head: str, e, rng) -> str:
    if e == INF:
        return f"{head}^inf"
    if e == 1 and rng.random() < 0.5:
        return head
    return f"{head}^{e}"


def _add(r, step: Fraction):
    if isinstance(r, M.Surd):
        return M.Surd(r.x * step.denominator + step.numerator * r.z, r.y * step.denominator, r.d, r.z * step.denominator)
    return r + step


# -- realizations --------------------------------------------------------


def _first_primes(n: int) -> list[int]:
    out, p = [], 2
    while len(out) < n:
        if M.is_prime(p):
            out.append(p)
        p += 1
    return out


def default_divisor_chain(base: St, depth: int) -> list[dict[int, int]]:
    """b_i = prod over the first i primes p of p^min(v_p(base), i)."""
    primes = _first_primes(depth)
    return [{p: min(base.v(p), i) for p in primes[:i] if min(base.v(p), i) > 0} for i in range(1, depth + 1)]


def explicit_divisor_chain(gen: Gen, base: St, depth: int) -> list[dict[int, int]]:
    """Strictly ascending divisors of base, each a multiple of the last."""
    chain, cur = [], gen.omega(base, terms=1, cap=1)
    for _ in range(depth):
        chain.append(dict(cur))
        grow = [p for p in SMALL_PRIMES[:8] if base.v(p) > cur.get(p, 0)]
        grow = grow or [p for p in SMALL_PRIMES if base.v(p) > cur.get(p, 0)]
        p = gen.rng.choice(grow)
        cur[p] = cur.get(p, 0) + 1
    return chain


def expected_chain(S: Sat, chain: list[dict[int, int]], depth: int) -> dict:
    """The JSON form of realize(S) over the given divisors."""
    if S.infinite:
        stages = [{"k": i, "s": S.base.text(), "q": 1 if i < depth else None} for i in range(1, depth + 1)]
        return {"stages": stages, "tail": {"kind": "unbounded"}}
    bs = [M.nat(b) for b in chain]
    ks = [M.rsub(S, S.base, b) for b in chain]
    stages = [
        {"k": k, "s": S.base.div(b).text(), "q": (bs[i + 1] // bs[i] if i + 1 < len(bs) else None)}
        for i, (k, b) in enumerate(zip(ks, chain))
    ]
    tail_r = M.dscale(S.r, Fraction(bs[0], ks[0]))
    return {"stages": stages, "tail": {"kind": "approached" if S.strict else "attained", "r": M.dtext(tail_r)}}


def chain_spectrum(S: Sat, chain: list[dict[int, int]]) -> Sat:
    """The spectrum a chain with declared tail describes: S(r*b1/k1, k1*s/b1)."""
    exp = expected_chain(S, chain, len(chain))
    k1 = exp["stages"][0]["k"]
    n0 = S.base.div(chain[0]).mul(M.factor_small(k1))
    return Sat(M.parse_density(exp["tail"]["r"]), n0, S.strict)


def check_chain(got: dict, want: dict) -> bool:
    """Equal to the expected chain, plus the corner inequalities
    k_i*q_i <= k_{i+1} and s_i = q_i*s_{i+1} recomputed from the result."""
    if got != want:
        return False
    st = got["stages"]
    for a, b in zip(st, st[1:]):
        if a["k"] * a["q"] > b["k"]:
            return False
        if M.parse_st(a["s"]) != M.parse_st(b["s"]).mul(M.factor_small(a["q"])):
            return False
    return True


# -- decision-stream -----------------------------------------------------


class Lib:
    """The locmat modules, and conversion of model values into locmat
    inputs through its public normalizing constructors."""

    def __init__(self):
        # ``locmat.density`` the attribute is the function re-exported by the
        # package, so modules are looked up by their full names.
        mod = importlib.import_module
        self.algebra, self.density = mod("locmat.algebra"), mod("locmat.density")
        self.saturated, self.steinitz = mod("locmat.saturated"), mod("locmat.steinitz")

    def st(self, s: St):
        return self.steinitz.SteinitzNumber.of(s.default, s.exc)

    def set_(self, S: Sat):
        if S.infinite:
            return self.saturated.mk_inf_type(self.st(S.base))
        r = S.r
        if isinstance(r, M.Surd):
            r = self.density.Surd.make(r.x, r.y, r.d, r.z)
        return self.saturated.mk_finite_type(r, self.st(S.base), S.strict)


class DecisionStream:
    """Endless seeded stream of checked library decisions."""

    def __init__(self, seed: int, lm):
        self.rng = random.Random(f"decision-stream:{seed}")
        self.gen = Gen(self.rng)
        self.lm = lm
        self.kinds = list(DECISION_MIX)
        self.weights = list(DECISION_MIX.values())

    def block(self, n: int) -> list[tuple]:
        return [self.op(self.rng.choices(self.kinds, self.weights)[0]) for _ in range(n)]

    def op(self, kind: str) -> tuple:
        g, lm, rng = self.gen, self.lm, self.rng
        sat, st, alg = lm.saturated, lm.steinitz, lm.algebra

        if kind == "contains":
            S = g.sat()
            t, _ = g.probe(S)
            S_, t_, want = lm.set_(S), lm.st(t), M.member(S, t)
            return kind, lambda: sat.contains(S_, t_), lambda got: got is want

        if kind == "r_sub":
            S = g.sat()
            t, _ = g.member(S)
            b = g.omega(t, terms=3)
            S_, t_, b_, want = lm.set_(S), lm.st(t), M.nat(b), M.rsub(S, t, b)
            if want == INF:
                return kind, lambda: sat.r_sub(S_, t_, b_), lambda got: repr(got) == "inf"
            return kind, lambda: sat.r_sub(S_, t_, b_), lambda got: type(got) is int and got == want

        if kind in ("compare_inclusion", "equals_formal"):
            S1 = g.sat()
            S2 = g.partner(S1)
            A, B, want = lm.set_(S1), lm.set_(S2), M.inclusion(S1, S2)
            if kind == "compare_inclusion":
                return kind, lambda: sat.compare_inclusion(A, B), lambda got: got.value == want
            return kind, lambda: sat.equals_formal(A, B), lambda got: got is (want == "equal")

        if kind == "equals_extensional":
            # A sampling semi-decision: pairs are equal, disjoint, or nested
            # with an integer multiple of the base between the two bounds, so
            # that the first sampled members already tell them apart.
            S1 = g.sat()
            pick = rng.random()
            if pick < 0.5:
                S2 = g.connected(S1)
            elif pick < 0.75 or S1.infinite:
                S2 = g.disjoint(S1)
            else:
                S2 = Sat(_add(S1.r, Fraction(2)), S1.base)
            A, B, want = lm.set_(S1), lm.set_(S2), M.inclusion(S1, S2) == "equal"
            return kind, lambda: sat.equals_extensional(A, B), lambda got: got is want

        if kind == "max_element":
            S = g.unital_sat() if rng.random() < 0.5 else g.sat()
            S_, want = lm.set_(S), M.max_element(S)
            A_ = alg.AlgebraDescriptor(S_)

            def check(got):
                m, unital = got
                if want is None:
                    return m is None and unital is False
                return m is not None and M.parse_st(str(m)) == want and unital is True

            return kind, lambda: (sat.max_element(S_), alg.is_unital(A_)), check

        if kind == "parse_num":
            s = g.base()
            a, b = g.ratio_in(Sat(INF, s))
            text, want = g.spell_scaled(times(s, a, b), Fraction(a, M.nat(b)), s), times(s, a, b).text()
            return kind, lambda: str(st.parse_scaled(text)), lambda got: got == want

        if kind == "parse_set":
            raw = g.raw_set()
            text, want = g.spell_set(*raw), Sat(*raw).text()
            return kind, lambda: sat.format_set(sat.parse_set(text)), lambda got: got == want

        if kind == "scale":
            s = g.base()
            b = g.omega(s)
            a = g.fresh_nat()
            s_, q, want = lm.st(s), Fraction(M.nat(a), M.nat(b)), s.div(b).mul(a).text()
            return kind, lambda: st.scale(s_, q), lambda got: str(got) == want

        if kind == "mul_natural":
            s = g.base()
            n = g.fresh_nat()
            s_, n_, want = lm.st(s), M.nat(n), s.mul(n).text()
            return kind, lambda: st.mul_natural(s_, n_), lambda got: str(got) == want

        if kind == "realize":
            S = g.sat(infinite_prime=rng.random() < 0.1)
            depth = rng.randint(2, 4)
            explicit = not S.infinite and rng.random() < 0.5
            chain = explicit_divisor_chain(g, S.base, depth) if explicit else default_divisor_chain(S.base, depth)
            want = expected_chain(S, chain, depth)
            S_ = lm.set_(S)
            divisors = [M.nat(b) for b in chain] if explicit else None

            def call():
                c = alg.realize(S_, divisor_chain=divisors, depth=depth)
                return c, alg.spectrum_of_chain(c)

            def check(got):
                c, spec = got
                return check_chain(c.to_json_dict(), want) and M.inclusion(M.parse_set(sat.format_set(spec)), S) == "equal"

            return kind, call, check

        raise ValueError(f"unknown decision kind {kind!r}")


# -- CLI cases -----------------------------------------------------------


def _alg(S: Sat, g: Gen) -> str:
    return f"alg({g.spell(S)})"


def _bool(flag: bool) -> tuple[str, int, str]:
    return "text", 0 if flag else 1, "true" if flag else "false"


class CliCases:
    """Seeded blocks of argvs with their expected exit code and output."""

    def __init__(self, seed: int, defects: bool = False):
        self.rng = random.Random(f"cli:{seed}")
        self.gen = Gen(self.rng)
        self.defects = defects

    def block(self) -> list[tuple[list[str], tuple]]:
        if self.defects:
            cases = [self.defect(name) for name in CLI_DEFECTS]
        else:
            cases = [self.command(name) for name in CLI_COMMANDS]
            cases += [self.malformed(name) for name in self.rng.sample(CLI_MALFORMED, CLI_MALFORMED_PER_BLOCK)]
        self.rng.shuffle(cases)
        return cases

    def command(self, name: str) -> tuple[list[str], tuple]:
        g, rng = self.gen, self.rng
        group, cmd = name.split()
        if group == "num":
            s = g.base()
            a, b = g.ratio_in(Sat(INF, s))
            t = times(s, a, b)
            argv, expect = [group, cmd, g.spell_scaled(t, Fraction(a, M.nat(b)), s)], ("text", 0, t.text())
        elif cmd == "member":
            S = g.sat()
            t, q = g.probe(S)
            text = g.spell_st(t) if q is None else g.spell_scaled(t, q, S.base)
            argv, expect = [group, cmd, g.spell(S), text], _bool(M.member(S, t))
        elif cmd in ("eq", "subset"):
            S1 = g.sat()
            S2 = g.partner(S1)
            rel = M.inclusion(S1, S2)
            flag = rel == "equal" if cmd == "eq" else rel in ("equal", "left-in-right")
            argv, expect = [group, cmd, g.spell(S1), g.spell(S2)], _bool(flag)
        elif cmd in ("rsub", "density"):
            S = g.sat()
            t, q = g.member(S)
            argv = [group, cmd, g.spell(S), g.spell_scaled(t, q, S.base)]
            if cmd == "rsub":
                b = g.omega(t, terms=3)
                argv.append(str(M.nat(b)))
                value = M.rsub(S, t, b)
            else:
                value = M.rebased(S, t)
            expect = ("text", 0, "inf" if value == INF else M.dtext(value) if cmd == "density" else str(value))
        elif cmd == "max":
            S = g.unital_sat() if rng.random() < 0.5 else g.sat()
            m = M.max_element(S)
            argv, expect = [group, cmd, g.spell(S)], ("text", 1, "none") if m is None else ("text", 0, m.text())
        elif cmd == "classify":
            raw = g.raw_set()
            argv, expect = [group, cmd, g.spell_set(*raw)], ("text", 0, Sat(*raw).text())
        elif cmd == "unital":
            S = g.unital_sat() if rng.random() < 0.5 else g.sat()
            argv, expect = [group, cmd, _alg(S, g)], _bool(M.max_element(S) is not None)
        elif cmd in ("iso", "embed"):
            S1 = g.sat()
            S2 = g.partner(S1)
            rel = M.inclusion(S1, S2)
            flag = rel == "equal" if cmd == "iso" else rel in ("equal", "left-in-right")
            argv, expect = [group, cmd, _alg(S1, g), _alg(S2, g)], _bool(flag)
        elif cmd == "spectrum":
            if rng.random() < 0.4:
                S = g.sat()
                argv, expect = [group, cmd, _alg(S, g)], ("text", 0, S.text())
            else:
                S = g.finite_sat()
                chain = explicit_divisor_chain(g, S.base, rng.randint(1, 3))
                argv = [group, cmd, json.dumps(expected_chain(S, chain, len(chain)))]
                expect = ("text", 0, chain_spectrum(S, chain).text())
        elif cmd == "realize":
            S = g.sat(infinite_prime=rng.random() < 0.1)
            depth = rng.randint(2, 4)
            argv = [group, cmd, _alg(S, g) if rng.random() < 0.5 else g.spell(S)]
            if not S.infinite and rng.random() < 0.5:
                chain = explicit_divisor_chain(g, S.base, depth)
                argv += ["--chain", ",".join(str(M.nat(b)) for b in chain)]
            else:
                chain = default_divisor_chain(S.base, depth)
                argv += ["--depth", str(depth)]
            expect = ("json", 0, expected_chain(S, chain, depth))
        else:
            S = g.unital_sat()
            s = M.max_element(S)
            if cmd == "minf":
                argv, expect = [group, cmd, _alg(S, g)], ("text", 0, f"alg(S(inf, {s.text()}))")
            elif cmd == "matover":
                n = g.omega(St(1), terms=2) or {2: 1}
                argv = [group, cmd, _alg(S, g), str(M.nat(n))]
                expect = ("text", 0, f"alg(S(1, {s.mul(n).text()}))")
            else:
                b = M.nat(g.omega(s))
                q = Fraction(rng.randint(1, b), b)
                argv = [group, cmd, _alg(S, g), f"{q.numerator}/{q.denominator}"]
                expect = ("text", 0, f"alg(S(1, {s.scale(q).text()}))")
        if expect[0] != "json" and rng.random() < 0.15:
            kind, code, text = expect
            value = {"true": True, "false": False}.get(text, text)
            if group == "set" and cmd == "rsub" and text != "inf":
                value = int(text)
            argv, expect = ["--json"] + argv, ("json", code, {"result": value})
        return argv, expect

    def malformed(self, name: str) -> tuple[list[str], tuple]:
        g, rng = self.gen, self.rng
        error = ("error", 2, None)
        if name == "composite-base":
            c = rng.choice((4, 6, 8, 9, 10, 12, 15))
            return ["num", "eval", f"{g.spell_st(g.base())}*{c}^{rng.randint(1, 3)}"], error
        if name == "density-below-1":
            v = rng.randint(2, 9)
            return ["set", "classify", f"S({rng.randint(1, v - 1)}/{v}, {g.spell_st(g.base(False))})"], error
        if name == "rsub-outside-omega":
            S = g.sat()
            t, q = g.member(S)
            p = next(p for p in SMALL_PRIMES if t.v(p) != INF)
            return ["set", "rsub", g.spell(S), g.spell_scaled(t, q, S.base), str(p ** (t.v(p) + 1))], error
        if name == "density-non-member":
            S = g.sat()
            t = St(2 if S.base.default == 1 else 1, S.base.exc)
            return ["set", "density", g.spell(S), g.spell_st(t)], error
        if name == "corner-non-unital":
            S = g.sat()
            while M.max_element(S) is not None:
                S = g.sat()
            return ["alg", "corner", _alg(S, g), "1/2"], error
        if name == "matover-zero":
            return ["alg", "matover", _alg(g.unital_sat(), g), "0"], error
        if name == "chain-missing-key":
            S = g.finite_sat()
            d = expected_chain(S, explicit_divisor_chain(g, S.base, 2), 2)
            del d["stages"][rng.randrange(2)][rng.choice(("k", "s"))]
            return ["alg", "spectrum", json.dumps(d)], error
        if name == "missing-argument":
            argv = rng.choice((["set", "member", g.spell(g.sat())], ["alg", "iso", "alg(N)"], ["num", "eval"]))
            return argv, error
        if name == "realize-bad-chain":
            S = Sat(g.density(), g.base(False))
            p, q = rng.sample([p for p in SMALL_PRIMES[:8] if S.base.v(p) >= 1] or [2, 3], 2)
            return ["alg", "realize", g.spell(S), "--chain", f"{p},{q}"], error
        if name == "unclosed-set":
            return ["set", "member", g.spell(g.sat())[:-1], "P"], error
        raise ValueError(f"unknown malformed case {name!r}")

    def defect(self, name: str) -> tuple[list[str], tuple]:
        g, rng = self.gen, self.rng
        error = ("error", 2, None)
        if name == "density-zero-denominator":
            return ["set", "member", f"S({rng.randint(1, 9)}/0, {g.spell_st(g.base(False))})", "P"], error
        if name == "corner-zero-denominator":
            return ["alg", "corner", _alg(g.unital_sat(), g), f"{rng.randint(1, 3)}/0"], error
        S = g.finite_sat()
        d = expected_chain(S, explicit_divisor_chain(g, S.base, 2), 2)
        if name == "chain-null-density":
            d["tail"]["r"] = None
        else:
            d["stages"][-1]["k"] += 0.5
        return ["alg", "spectrum", json.dumps(d)], error


def check_cli(expect: tuple, code: int, out: str) -> bool:
    """Exit code and output as expected, and never a traceback."""
    kind, want_code, want = expect
    if code != want_code or "Traceback" in out:
        return False
    if kind == "error":
        return out.startswith(("error:", "usage:", '{"error"'))
    if kind == "json":
        try:
            return json.loads(out) == want
        except ValueError:
            return False
    return out == want
