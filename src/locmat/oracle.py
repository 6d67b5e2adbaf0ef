"""Brute-force oracles and sampling checks; the closed forms never import them.

Everything here recomputes quantities from raw definitions: members by
sweeping representations (a/b)*base, and through them extensional equality
and the saturation axioms; r_s(b) by scanning memberships down from a bound
(the first member met is the maximum, whatever the set) and the inequality
ladder from those values; matrix-chain rank evolution by stepwise recursion.
Results are reported as PASS/FAIL lines with a JSON mirror.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .density import INFINITY, Surd, cmp_density, cmp_ratio, floor_times
from .saturated import (
    ALL_NATURALS,
    AllNaturals,
    FiniteType,
    SaturatedSet,
    Segment,
    contains,
    format_set,
    mk_finite_type,
    mk_inf_type,
    mk_segment,
    r_sub,
)
from .steinitz import (
    INF,
    SteinitzNumber,
    _split,
    divide_by,
    enumerate_omega,
    finitely_divides,
    iter_omega,
    mul_natural,
    omega_contains,
    parse,
    rationally_connected,
    scale,
)


class AboveBound:
    """Result of a brute-force maximum that hit its scan bound (the finite
    answer, if any, lies beyond; expected only for infinite type)."""

    def __repr__(self):
        return "AboveBound"


ABOVE_BOUND = AboveBound()


@dataclass(frozen=True)
class EnumWindow:
    numerator_bound: int = 64
    denominator_bound: int = 30

    def __post_init__(self):
        if min(self.numerator_bound, self.denominator_bound) < 1:
            raise ValueError("window bounds must be positive")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    name: str
    witness: str = ""

    def line(self) -> str:
        head = "PASS" if self.ok else "FAIL"
        return f"{head} {self.name}" + (f" {self.witness}" if self.witness else "")


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

    def add(self, ok: bool, name: str, witness: str = "") -> None:
        self.results.append(CheckResult(ok, name, witness))

    def extend(self, prefix: str, other: "Report") -> None:
        """Append the results of ``other``, each name prefixed."""
        for r in other.results:
            self.add(r.ok, prefix + r.name, r.witness)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"ok": r.ok, "name": r.name, "witness": r.witness} for r in self.results],
        }


_INF_CAP = 3  # sample_members takes a <= _INF_CAP*b + 1 on infinite types
_SEARCH_DEN_BOUND = 4096  # largest denominator of the representation search
_AXIOM_DEN_BOUND = 30  # denominators of the axiom checker's pool and divisors


def sample_members(S: SaturatedSet, den_bound: int = 30, limit: int | None = None) -> list[SteinitzNumber]:
    """Deterministic member sample.

    Sets are swept as (a/b)*base with b from Omega(base) up to den_bound
    and a up to the density bound (plus one, to probe the boundary),
    filtering by the defining inequality; infinite types cap a at
    _INF_CAP*b+1.  A segment [1..n] = S(n, 1) is the sweep at b = 1, as
    Omega(1) = {1}; all naturals are the first ``limit`` (or 200) integers.

    The sweep is lazy: Omega(base) is tested one b at a time, so it stops
    at ``limit`` without testing the b it never reaches.  It visits each
    ratio once, in lowest terms: Omega is divisor-closed and b ascends, so
    a/b with gcd(a, b) = g > 1 was met as (a/g)/(b/g) at a smaller b.  Over
    a base with an infinite prime it skips each a with a factor the base
    absorbs: the rest k < a of a names the same number at the same b.  The
    ``seen`` set stays because distinct ratios can still name one number
    (1/2 and 1 over 2^inf).
    """
    if isinstance(S, AllNaturals):
        return [SteinitzNumber.from_int(i) for i in range(1, (200 if limit is None else limit) + 1)]
    out: list[SteinitzNumber] = []
    seen: set[SteinitzNumber] = set()
    base, r = S.base, S.r
    # The index in _split(a, radical) = (on, off) of the part the base absorbs.
    absorbed = None if base.is_infinity_free else (1 if base.default == INF else 0)
    for b in iter_omega(base, den_bound):
        u = divide_by(base, b)
        hi = _INF_CAP * b + 1 if r is INFINITY else floor_times(r, b) + 1
        for a in range(1, hi + 1):
            if math.gcd(a, b) > 1:
                continue
            if absorbed is not None and _split(a, base._radical)[absorbed] > 1:
                continue
            if r is not INFINITY:
                c = cmp_ratio(a, b, r)
                if c > 0 or (c == 0 and S.strict):
                    continue
            t = mul_natural(u, a)
            if t not in seen:
                seen.add(t)
                out.append(t)
                if limit is not None and len(out) >= limit:
                    return out
    return out


def _existential_contains(S: FiniteType, t: SteinitzNumber) -> bool:
    """Membership by representation search: some b in Omega(base) with
    t = (a/b)*base and a within the bound.

    Needed for raw finite-type descriptors whose base has an infinite prime
    exponent, where the canonical ratio does not range over all
    representations (the collapse phenomenon).  Omega(base) is swept
    lazily, so the search tests no b past the first representation it
    accepts; only a non-member costs the whole sweep to _SEARCH_DEN_BOUND.
    """
    if not rationally_connected(S.base, t):
        return False
    for b in iter_omega(S.base, _SEARCH_DEN_BOUND):
        a = finitely_divides(divide_by(S.base, b), t)
        if a is None:
            continue
        c = cmp_ratio(a, b, S.r)
        if c < 0 or (c == 0 and not S.strict):
            return True
    return False


def _probe_contains(S: SaturatedSet, t: SteinitzNumber) -> bool:
    if isinstance(S, FiniteType) and not S.base.is_infinity_free:
        return _existential_contains(S, t)
    return contains(S, t)


def equals_extensional(S1: SaturatedSet, S2: SaturatedSet, budget: int = 100) -> bool:
    """Semi-decision of set equality by bidirectional membership sampling.

    Samples up to ``budget`` members of each set and checks them against the
    other; membership of raw infinite-prime finite types is decided by
    representation search.  True means no disagreement was found.
    """
    for left, right in ((S1, S2), (S2, S1)):
        for t in sample_members(left, den_bound=256, limit=budget):
            if not _probe_contains(right, t):
                return False
    return True


@dataclass(frozen=True)
class AxiomViolation:
    axiom: int
    witness: str


def check_saturation_axioms(S, samples: int = 1000, seed: int = 0):
    """Check the three saturation axioms on sampled members.

    ``S`` may be a canonical SaturatedSet or a literal collection of
    SteinitzNumbers (membership by equality).  Returns the first
    AxiomViolation found, or None.  Deterministic for a fixed seed.
    """
    if isinstance(S, SaturatedSet):
        pool = sample_members(S, den_bound=_AXIOM_DEN_BOUND, limit=max(40, samples // 10))
        member = lambda t: _probe_contains(S, t)
    else:
        pool = list(S)
        literal = set(pool)
        member = lambda t: t in literal
    if not pool:
        return None
    rng = random.Random(seed)
    omegas: dict[SteinitzNumber, list[int]] = {}
    spent = 0
    while spent < samples:
        t1, t2 = rng.choice(pool), rng.choice(pool)
        spent += 1
        if not rationally_connected(t1, t2):
            return AxiomViolation(1, f"{t1} and {t2} are not rationally connected")
        t = rng.choice(pool)
        if t not in omegas:
            omegas[t] = enumerate_omega(t, _AXIOM_DEN_BOUND)
        b = rng.choice(omegas[t])
        spent += 1
        if not member(divide_by(t, b)):
            return AxiomViolation(2, f"{t} is a member but {t}/{b} is not")
        t = rng.choice(pool)
        n = rng.randint(2, 12)
        spent += 1
        if member(mul_natural(t, n)):
            for i in range(2, n):
                spent += 1
                if not member(mul_natural(t, i)):
                    return AxiomViolation(3, f"{t} and {n}*{t} are members but {i}*{t} is not")
    return None


def enumerate_members(S: SaturatedSet, w: EnumWindow) -> list[tuple[Fraction, SteinitzNumber]]:
    """All members representable in the window, by raw definition sweep.

    Every set sweeps b over Omega(base) up to the denominator bound and a up
    to the numerator bound, keeping pairs that satisfy the defining
    inequality; results are deduplicated by reduced formal ratio.  Natural
    sets have base 1, so they sweep a = 1, 2, ... against a <= n.
    """
    out: list[tuple[Fraction, SteinitzNumber]] = []
    seen: set[Fraction] = set()
    check = S.base.is_infinity_free
    for b in enumerate_omega(S.base, w.denominator_bound):
        for a in range(1, w.numerator_bound + 1):
            key = Fraction(a, b)
            c = cmp_density(key, S.r)
            if c > 0 or (c == 0 and S.strict):
                continue
            if key in seen:
                continue
            seen.add(key)
            t = scale(S.base, key)
            if check and not contains(S, t):
                raise AssertionError(f"definition sweep produced a non-member {t} of {format_set(S)}")
            out.append((key, t))
    return out


def r_sub_brute(S: SaturatedSet, t: SteinitzNumber, b: int, i_bound: int = 1000):
    """max { i <= i_bound : i * t/b in S } by membership scan.

    The scan runs from i_bound down and stops at the first member.  For any
    membership predicate that first hit is the maximum a full scan would
    find, so the value assumes nothing about S (not even saturation) and
    each i is still decided by ``contains`` on i * t/b.

    Returns ABOVE_BOUND when membership holds at i_bound, 0 when no i is a
    member (impossible for canonical sets with t in S).
    """
    if not contains(S, t):
        raise ValueError(f"{t} is not a member of {format_set(S)}")
    if not omega_contains(t, b):
        raise ValueError(f"{b} is not in Omega({t})")
    u = divide_by(t, b)
    for i in range(i_bound, 0, -1):
        if contains(S, mul_natural(u, i)):
            return ABOVE_BOUND if i == i_bound else i
    return 0


def _scan_bound(b: int) -> int:
    """The finite-type scan bound of r_sub_brute at b: 3b+80, above r*b for
    every corpus density (all below 3)."""
    return 3 * b + 80


def divisor_pairs(t: SteinitzNumber, bound: int = 210) -> list[tuple[int, int]]:
    """All pairs (b, c) with b | c, b < c, both dividing t and <= bound."""
    omega = enumerate_omega(t, bound)
    return [(b, c) for c in omega for b in omega if b < c and c % b == 0]


def check_inequality_suite(
    S: SaturatedSet,
    t: SteinitzNumber,
    pairs: list[tuple[int, int]] | None = None,
    bound: int = 210,
    brute_values: dict[int, int] | None = None,
) -> Report:
    """Verify the divisor-pair inequality ladder with brute-force values.

    For b | c: (1) r(b)/b <= r(c)/c; (2) floor(r(c)/(c/b)) <= r(b);
    (3) that floor equals r(b); (4) r(c)/c < r(b)/b + 1/b.  Finite type
    only; all comparisons are exact rationals.  ``brute_values`` may carry a
    precomputed r_sub_brute table keyed by b; any other b is scanned from
    ``_scan_bound(b)`` down, and a scan that hits that bound raises ValueError.
    """
    if S.r is INFINITY:
        raise ValueError("inequality ladder applies to finite-type sets only")
    if pairs is None:
        pairs = divisor_pairs(t, bound)
    report = Report()
    cache: dict[int, int] = dict(brute_values or {})

    def brute(b: int) -> int:
        if b not in cache:
            v = r_sub_brute(S, t, b, i_bound=_scan_bound(b))
            if v is ABOVE_BOUND:
                raise ValueError(f"brute r_sub hit its scan bound {_scan_bound(b)} at b={b}")
            cache[b] = v
        return cache[b]

    fails: dict[str, str] = {}  # the first failure witness of each check, by name
    for b, c in pairs:
        rb, rc = brute(b), brute(c)
        if not Fraction(rb, b) <= Fraction(rc, c):
            fails.setdefault("eq1-monotone-ratio", f"b={b} c={c} r(b)={rb} r(c)={rc}")
        floored = rc // (c // b)
        if not floored <= rb:
            fails.setdefault("eq2-floor-lower", f"b={b} c={c} floor={floored} r(b)={rb}")
        if floored != rb:
            fails.setdefault("eq3-floor-recurrence", f"b={b} c={c} floor={floored} r(b)={rb}")
        if not Fraction(rc, c) < Fraction(rb, b) + Fraction(1, b):
            fails.setdefault("eq4-strict-upper", f"b={b} c={c} r(b)={rb} r(c)={rc}")
    for name in ("eq1-monotone-ratio", "eq2-floor-lower", "eq3-floor-recurrence", "eq4-strict-upper"):
        report.add(name not in fails, f"{name}[{format_set(S)}]", fails.get(name, f"{len(pairs)} pairs"))
    return report


@dataclass(frozen=True)
class FiniteMatrixChain:
    """Concrete finite chain of matrix algebras with unital embeddings
    n_{i+1} = m_i * n_i + z_i (multiplicity m_i, padding z_i)."""

    sizes: tuple[int, ...]
    mults: tuple[int, ...]
    pads: tuple[int, ...]

    def validate(self) -> None:
        if not self.sizes:
            raise ValueError("chain needs at least one stage")
        if len(self.mults) != len(self.sizes) - 1 or len(self.pads) != len(self.sizes) - 1:
            raise ValueError("need one multiplicity and one padding per step")
        for i, (m, z) in enumerate(zip(self.mults, self.pads)):
            if self.sizes[i] < 1 or m < 1 or z < 0:
                raise ValueError(f"step {i}: need n >= 1, m >= 1, z >= 0")
            if self.sizes[i + 1] != m * self.sizes[i] + z:
                raise ValueError(f"step {i}: {self.sizes[i + 1]} != {m}*{self.sizes[i]}+{z}")


def simulate_finite_chain(
    chain: FiniteMatrixChain, seeds: list[tuple[int, int]]
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Rank evolution of seed idempotents through a finite matrix chain.

    A rank-rho idempotent at stage i (0-based) has rank rho * m_i * ... at
    every later stage, computed stepwise; padding never contributes.
    Returns (stage, rank, ranks-from-stage-on) rows.
    """
    chain.validate()
    rows = []
    for stage, rho in seeds:
        if not 0 <= stage < len(chain.sizes):
            raise ValueError(f"stage {stage} out of range")
        if not 1 <= rho <= chain.sizes[stage]:
            raise ValueError(f"rank {rho} out of range at stage {stage} (size {chain.sizes[stage]})")
        ranks = [rho]
        r = rho
        for j in range(stage, len(chain.sizes) - 1):
            r *= chain.mults[j]
            if r > chain.sizes[j + 1]:
                raise AssertionError("rank exceeded stage size")
            ranks.append(r)
        rows.append((stage, rho, tuple(ranks)))
    return rows


def saturation_fuzz(S, trials: int = 1000, seed: int = 0) -> Report:
    """Axiom fuzz plus closed-form/brute cross-checks at random divisors.

    ``S`` may also be a literal member collection; those get the axiom check
    only (there is no closed form to cross-check).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    report = Report()
    is_canonical = isinstance(S, SaturatedSet)
    label = format_set(S) if is_canonical else f"literal:{len(list(S))}-members"
    violation = check_saturation_axioms(S, samples=trials, seed=seed)
    report.add(violation is None, f"axioms[{label}]", violation.witness if violation else f"{trials} samples")
    if not is_canonical:
        return report
    rng = random.Random(seed)
    t = reference_member(S)
    omega = enumerate_omega(t, 210)
    infinite = S.r is INFINITY
    mismatch = None
    for _ in range(max(10, trials // 50)):
        b = rng.choice(omega)
        closed = r_sub(S, t, b)
        if infinite:
            brute = r_sub_brute(S, t, b, i_bound=60)
            ok = closed is INFINITY and brute is ABOVE_BOUND
        else:
            brute = r_sub_brute(S, t, b, i_bound=_scan_bound(b))
            ok = closed == brute
        if not ok:
            mismatch = f"b={b} closed={closed} brute={brute}"
            break
    report.add(mismatch is None, f"rsub-closed-vs-brute[{label}]", mismatch or "")
    return report


def reference_member(S: SaturatedSet) -> SteinitzNumber:
    """A canonical member to anchor per-set checks (the base, when it is one)."""
    if isinstance(S, Segment):
        return SteinitzNumber.from_int(S.n)
    if isinstance(S, AllNaturals):
        return SteinitzNumber.from_int(210)
    return S.base


def acceptance_corpus() -> list[tuple[str, SaturatedSet]]:
    """The fixed verification corpus: segments, all naturals, infinite types
    over 2^inf, 2^inf*3 and the product of all primes, and finite types with
    rational and quadratic-surd densities over two bases."""
    p_all = parse("P")
    p_with_8 = parse("P^1*2^3")
    sqrt2 = Surd.make(0, 1, 2, 1)
    sqrt5 = Surd.make(0, 1, 5, 1)
    return [
        ("segment-4", mk_segment(4)),
        ("segment-50", mk_segment(50)),
        ("naturals", ALL_NATURALS),
        ("inf-2adic", mk_inf_type(parse("2^inf"))),
        ("inf-2adic-3", mk_inf_type(parse("2^inf*3"))),
        ("inf-allprimes", mk_inf_type(p_all)),
        ("r1-closed", mk_finite_type(Fraction(1), p_all, False)),
        ("r1-closed-b8", mk_finite_type(Fraction(1), p_with_8, False)),
        ("r32-closed", mk_finite_type(Fraction(3, 2), p_all, False)),
        ("r32-strict", mk_finite_type(Fraction(3, 2), p_all, True)),
        ("r73-closed", mk_finite_type(Fraction(7, 3), p_all, False)),
        ("r73-strict", mk_finite_type(Fraction(7, 3), p_all, True)),
        ("r52-closed-b8", mk_finite_type(Fraction(5, 2), p_with_8, False)),
        ("r52-strict-b8", mk_finite_type(Fraction(5, 2), p_with_8, True)),
        ("sqrt2", mk_finite_type(sqrt2, p_all, False)),
        ("sqrt5", mk_finite_type(sqrt5, p_all, False)),
        ("sqrt2-b8", mk_finite_type(sqrt2, p_with_8, False)),
    ]
