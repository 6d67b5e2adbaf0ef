"""Saturated subsets of the Steinitz numbers, in canonical form.

A saturated set satisfies: (1) any two members are rationally connected,
(2) closure under finite division, (3) if s and n*s are members then so is
i*s for 1 <= i <= n.  Every saturated set is one of: a segment {1..n}, all
naturals, an infinite-type set S(inf, s), or a finite-type set S(r, s)
(closed bound a <= r*b) or S+(r, s) (strict bound a < r*b) over an infinite
base s.  Constructors here normalize to those forms; in particular a
finite-type set over a base with an infinite prime exponent is extensionally
the infinite-type set and is normalized to it (the "collapse").

The natural sets are the other two over the base 1: Omega(1) = {1}, so
[1..n] is S(n, 1) and N is S(inf, 1).  Every class therefore exposes the
same ``base``, ``r`` and ``strict``, and each decision reads those alone.
Sampling, representation search and axiom checks live in ``oracle``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .density import (
    INFINITY,
    Density,
    Surd,
    cmp_density,
    cmp_ratio,
    floor_times,
    format_density,
    parse_density,
    scale_density,
    times_is_integer,
)
from .steinitz import (
    ONE,
    ParseError,
    SteinitzNumber,
    _parse_int,
    _ratio_pair,
    omega_contains,
    parse_scaled,
    ratio_if_connected,
    scale,
)


class SaturatedSet:
    """Marker base class; instances are one of the four canonical forms."""

    __slots__ = ()


@dataclass(frozen=True)
class Segment(SaturatedSet):
    """{1, 2, ..., n} = S(n, 1)."""

    n: int
    base = ONE
    strict = False

    @property
    def r(self) -> Fraction:
        return Fraction(self.n)


@dataclass(frozen=True)
class AllNaturals(SaturatedSet):
    """All positive integers: S(inf, 1)."""

    base = ONE
    r = INFINITY
    strict = False


@dataclass(frozen=True)
class InfType(SaturatedSet):
    """S(inf, base) = {(a/b)*base : a natural, b in Omega(base)}."""

    base: SteinitzNumber
    r = INFINITY
    strict = False


@dataclass(frozen=True)
class FiniteType(SaturatedSet):
    """S(r, base) with bound a <= r*b, or S+(r, base) with a < r*b."""

    r: Fraction | Surd
    base: SteinitzNumber
    strict: bool


ALL_NATURALS = AllNaturals()


def mk_segment(n: int) -> SaturatedSet:
    if n < 1:
        raise ValueError(f"segment length must be positive, got {n}")
    return Segment(n)


def mk_all_naturals() -> SaturatedSet:
    return ALL_NATURALS


def mk_inf_type(s: SteinitzNumber) -> SaturatedSet:
    """S(inf, s); for natural s this is all of the naturals."""
    if s.is_natural:
        return ALL_NATURALS
    return InfType(s)


def mk_finite_type(r: Density, s: SteinitzNumber, strict: bool = False) -> SaturatedSet:
    """Normalized finite-type constructor.

    Density inf delegates to the infinite type; a base with an infinite
    prime exponent collapses to the infinite type (every bound a <= r*b is
    then satisfiable through representations absorbing that prime); the
    strict flag is cleared when the strict and closed sets coincide (r
    irrational, or r = u/v with v not dividing the base).
    """
    if r is INFINITY:
        return mk_inf_type(s)
    if s.is_natural:
        raise ValueError(f"finite-type base must be an infinite Steinitz number, got {s}")
    if cmp_density(r, Fraction(1)) < 0:
        raise ValueError(f"density must be at least 1, got {format_density(r)}")
    if not s.is_infinity_free:
        return InfType(s)
    if strict and (isinstance(r, Surd) or not omega_contains(s, r.denominator)):
        strict = False
    return FiniteType(r, s, strict)


def _member_ratio(S: SaturatedSet, t: SteinitzNumber) -> tuple[int, int] | None:
    """(qn, qd), not reduced, with t = (qn/qd)*base when t is a member of S,
    else None.  A rational bound is decided by integer cross-multiplication
    inline, a surd bound by ``cmp_ratio``; neither builds a Fraction.

    The reduced denominator of q always divides the base: the exponents of
    t are nonnegative, so no Omega check is needed.
    """
    q = _ratio_pair(S.base, t)
    r = S.r
    if q is None or r is INFINITY:
        return q
    qn, qd = q
    if type(r) is Fraction:
        c = qn * r.denominator - r.numerator * qd  # the sign of q - r, as qd > 0
    else:
        c = cmp_ratio(qn, qd, r)  # a <= r*b  iff  a/b <= r
    return q if c < 0 or (c == 0 and not S.strict) else None


def contains(S: SaturatedSet, t: SteinitzNumber) -> bool:
    """Exact membership test."""
    return _member_ratio(S, t) is not None


def _rebased(S: SaturatedSet, t: SteinitzNumber) -> Density:
    """The density of S expressed at the member t = q*base: r / q."""
    q = _member_ratio(S, t)
    if q is None:
        raise ValueError(f"{t} is not a member of {format_set(S)}")
    qn, qd = q
    return scale_density(S.r, Fraction(qd, qn))


def rebase(S: SaturatedSet, t: SteinitzNumber) -> tuple[Density, bool]:
    """Density and strictness of the same set expressed at the member t."""
    r = _rebased(S, t)
    if S.base.is_natural:
        raise ValueError(f"{format_set(S)} has no base to rebase")
    return r, S.strict


def density(S: SaturatedSet, t: SteinitzNumber) -> Density:
    """The density limit r_S(t) at an infinite member t."""
    if not t.is_infinite:
        raise ValueError(f"density is defined at infinite members only, got {t}")
    return rebase(S, t)[0]


def _floor_count(r: Density, strict: bool, b: int) -> int | float:
    """max { i : i/b <= r }, or i/b < r when strict: the floor dichotomy.

    floor(r*b) when r is irrational or its reduced denominator does not
    divide b; exactly r*b (closed) or r*b - 1 (strict) when it does.
    Infinite densities give infinity.
    """
    if r is INFINITY:
        return INFINITY
    k = floor_times(r, b)
    return k - 1 if strict and times_is_integer(r, b) else k


def r_sub(S: SaturatedSet, t: SteinitzNumber, b: int) -> int | float:
    """r_t(b) = max { i >= 1 : i * t/b in S }, in closed form: the floor
    dichotomy at the density r rebased to the member t.  Segments
    [1..n] = S(n, 1) and N = S(inf, 1) included."""
    r = _rebased(S, t)
    if not omega_contains(t, b):
        raise ValueError(f"{b} is not in Omega({t})")
    return _floor_count(r, S.strict, b)


def _has_max(S: SaturatedSet) -> bool:
    """Whether the bound is attained: closed, r rational and its reduced
    denominator in Omega(base).  Builds no element, so factors nothing."""
    return not S.strict and isinstance(S.r, Fraction) and omega_contains(S.base, S.r.denominator)


def max_element(S: SaturatedSet) -> SteinitzNumber | None:
    """The largest member, when one exists (segments and attained closed bounds)."""
    return scale(S.base, S.r) if _has_max(S) else None


class Inclusion(Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    LEFT_IN_RIGHT = "left-in-right"
    RIGHT_IN_LEFT = "right-in-left"


def compare_inclusion(S1: SaturatedSet, S2: SaturatedSet) -> Inclusion:
    """Exact trichotomy: saturated sets are disjoint or nested."""
    q = ratio_if_connected(S1.base, S2.base)
    if q is None:
        return Inclusion.DISJOINT
    # S2.base = q * S1.base, so S2's density at S1's base is S2.r * q.
    c = cmp_density(S1.r, scale_density(S2.r, q))
    if c < 0:
        return Inclusion.LEFT_IN_RIGHT
    if c > 0:
        return Inclusion.RIGHT_IN_LEFT
    # Equal densities: S+(r,s) within S(r,s); infinite densities are never strict.
    if S1.strict == S2.strict:
        return Inclusion.EQUAL
    return Inclusion.LEFT_IN_RIGHT if S1.strict else Inclusion.RIGHT_IN_LEFT


def _included(S1: SaturatedSet, S2: SaturatedSet) -> bool:
    """S1 is a subset of S2: the EQUAL or LEFT_IN_RIGHT verdict."""
    return compare_inclusion(S1, S2) in (Inclusion.EQUAL, Inclusion.LEFT_IN_RIGHT)


def equals_formal(S1: SaturatedSet, S2: SaturatedSet) -> bool:
    """Descriptor-level equality after normalization: the EQUAL verdict of
    :func:`compare_inclusion`, which needs rationally connected bases, equal
    densities once S2's is rebased to S1's base, and equal strictness."""
    return compare_inclusion(S1, S2) is Inclusion.EQUAL


@dataclass(frozen=True)
class TailRule:
    """Declared limit of an ascending chain of saturated sets.

    The density of an ``attained``/``approached`` tail is expressed at the
    base of the first chain element (no finite prefix determines the limit,
    so the construction declares it).
    """

    kind: str  # "attained" | "approached" | "unbounded"
    r: Density | None = None

    @classmethod
    def attained(cls, r: Density) -> "TailRule":
        return cls("attained", r)

    @classmethod
    def approached(cls, r: Density) -> "TailRule":
        return cls("approached", r)

    @classmethod
    def unbounded(cls) -> "TailRule":
        return cls("unbounded")


def union_chain(prefix: list[SaturatedSet], tail: TailRule | None = None) -> SaturatedSet:
    """Union of an ascending chain given a finite prefix and a declared tail.

    Under a density tail no prefix set may be of infinite type, and each
    must lie in the raw limit the tail declares."""
    if not prefix:
        raise ValueError("empty chain prefix")
    for a, b in zip(prefix, prefix[1:]):
        if not _included(a, b):
            raise ValueError(f"chain prefix is not ascending at {format_set(a)} vs {format_set(b)}")
    if tail is None:
        return prefix[-1]
    base = prefix[0].base
    if tail.kind == "unbounded":
        return mk_inf_type(base)
    if tail.kind not in ("attained", "approached"):
        raise ValueError(f"unknown tail kind {tail.kind!r}")
    if tail.r is None:
        raise ValueError("a density tail needs a density")
    if base.is_natural:
        raise ValueError("a density tail needs a chain of based sets")
    if any(S.r is INFINITY for S in prefix):
        raise ValueError("a density tail is inconsistent with an infinite-type prefix")
    limit = FiniteType(tail.r, base, tail.kind == "approached")
    for S in prefix:
        if not _included(S, limit):
            raise ValueError(f"prefix set {format_set(S)} is not inside the tail limit {format_set(limit)}")
    return mk_finite_type(limit.r, base, limit.strict)


def format_set(S: SaturatedSet) -> str:
    if isinstance(S, Segment):
        return f"[1..{S.n}]"
    if isinstance(S, AllNaturals):
        return "N"
    if isinstance(S, InfType):
        return f"S(inf, {S.base})"
    plus = "+" if S.strict else ""
    return f"S{plus}({format_density(S.r)}, {S.base})"


_SEGMENT_RE = re.compile(r"^\[\s*1\s*\.\.\s*(\d+)\s*\]$")


def parse_set(text: str) -> SaturatedSet:
    """Parse ``[1..n]``, ``N``, ``S(inf, s)``, ``S(r, s)`` or ``S+(r, s)``.

    The result is constructor-normalized, so printing it back gives the
    canonical form of the set, not necessarily the input spelling.
    """
    t = text.strip()
    if t == "N":
        return ALL_NATURALS
    m = _SEGMENT_RE.match(t)
    if m:
        return mk_segment(_parse_int(m.group(1), m.start(1)))
    strict = t.startswith("S+(")
    if not (strict or t.startswith("S(")) or not t.endswith(")"):
        raise ParseError(f"malformed saturated set {text!r}, expected [1..n], N, S(r, s) or S+(r, s)", 0)
    inner = t[3:-1] if strict else t[2:-1]
    if "," not in inner:
        raise ParseError(f"missing comma in {text!r}", len(t) - 1)
    r_text, base_text = inner.split(",", 1)
    r = parse_density(r_text)
    base = parse_scaled(base_text)
    if r is INFINITY:
        if strict:
            raise ParseError("S+ cannot have density inf", 0)
        return mk_inf_type(base)
    return mk_finite_type(r, base, strict)


def __getattr__(name: str):
    # bench/cases.py reads ``equals_extensional`` here, but ``oracle`` defines
    # it and imports this module.  Looked up on each access, never cached, so
    # a rebinding in ``oracle`` (the bench tracer's span wrapper) is what runs.
    if name == "equals_extensional":
        from .oracle import equals_extensional
        return equals_extensional
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
