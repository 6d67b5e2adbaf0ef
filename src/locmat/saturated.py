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
same ``base``, ``r`` and ``strict``, and each decision reads those alone,
with ``_parts``: the integer parts ``_parts(r)`` of a finite density, built
once and not a field, or None for the infinite density.
Sampling, representation search and axiom checks live in ``oracle``.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction

from .density import (
    INFINITY,
    Density,
    Surd,
    _cmp_scaled,
    _parts,
    _sign_single,
    cmp_ratio,
    floor_times,
    format_density,
    parse_density,
    scale_density,
)
from .steinitz import (
    ONE,
    ParseError,
    SteinitzNumber,
    _divided,
    _parse_at,
    _parse_int,
    _positive_int,
    _ratio_pair,
    _Value,
    mul_natural,
    omega_contains,
    parse_scaled,
)


class SaturatedSet(_Value):
    """Marker base class; instances are one of the four canonical forms."""

    __slots__ = __match_args__ = ()


class Segment(SaturatedSet):
    """{1, 2, ..., n} = S(n, 1)."""

    __slots__ = ("n", "r", "_parts")  # r, the density n as a Fraction, and its parts are built once and are not fields
    __match_args__ = ("n",)
    base = ONE
    strict = False

    def __init__(self, n: int):
        self._set("n", _positive_int("segment length", n))
        self._set("r", Fraction(n))
        self._set("_parts", _parts(self.r))


class AllNaturals(SaturatedSet):
    """All positive integers: S(inf, 1)."""

    __slots__ = __match_args__ = ()
    base = ONE
    r = INFINITY
    _parts = None
    strict = False


class InfType(SaturatedSet):
    """S(inf, base) = {(a/b)*base : a natural, b in Omega(base)}, over an
    infinite base: S(inf, 1) has one spelling, AllNaturals."""

    __slots__ = __match_args__ = ("base",)
    r = INFINITY
    _parts = None
    strict = False

    def __init__(self, base: SteinitzNumber):
        if base.is_natural:
            raise ValueError(f"infinite-type base must be an infinite Steinitz number, got {base}")
        self._set("base", base)


def _strict_flag(strict: bool) -> bool:
    """strict, when it is a bool: a truthy "no" or 1 would print as S+ yet not equal it."""
    if type(strict) is not bool:
        raise ValueError(f"strict must be a bool, got {strict!r} ({type(strict).__name__})")
    return strict


class FiniteType(SaturatedSet):
    """S(r, base) with bound a <= r*b, or S+(r, base) with a < r*b.  Built raw,
    it normalizes nothing, but takes only an infinite base (a natural one is
    a segment's), a finite density of at least 1 and of a type that
    decisions read (S(inf, base) has one spelling, InfType), and a bool
    ``strict``."""

    __slots__ = ("r", "base", "strict", "_parts")  # the parts of r are built once and are not a field
    __match_args__ = ("r", "base", "strict")

    def __init__(self, r: Fraction | Surd, base: SteinitzNumber, strict: bool):
        if base.is_natural:
            raise ValueError(f"finite-type base must be an infinite Steinitz number, got {base}")
        parts = _parts(r)  # which checks the density
        if cmp_ratio(1, 1, parts) > 0:  # 1 > r
            raise ValueError(f"density must be at least 1, got {format_density(r)}")
        self._set("r", r)
        self._set("base", base)
        self._set("strict", _strict_flag(strict))
        self._set("_parts", parts)


ALL_NATURALS = AllNaturals()


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
    if r is INFINITY:  # S(inf, s) reads no strict, yet refuses a non-bool as FiniteType does
        _strict_flag(strict)
        return mk_inf_type(s)
    S = FiniteType(Fraction(r) if type(r) is int else r, s, strict)  # which checks the base, then the density
    if not s.is_infinity_free:
        return InfType(s)
    _, y, _, z = S._parts
    if strict and (y or not omega_contains(s, z)):
        return FiniteType(S.r, s, False)
    return S


def contains(S: SaturatedSet, t: SteinitzNumber) -> bool:
    """Exact membership test: t = (qn/qd)*base with q not above r (below r
    when strict).  It reads the parts (x, y, d, z) of r that S keeps: a
    rational bound (y = 0) is decided by integer cross-multiplication inline,
    and a surd bound by one ``_sign_single`` on the same cross product, as
    ``cmp_ratio`` does; neither builds a Fraction.

    The reduced denominator of q always divides the base: the exponents of
    t are nonnegative, so no Omega check is needed.
    """
    base = S.base
    if base._core != t._core:
        return False
    parts = S._parts
    if parts is None:  # the infinite density
        return True
    qn, qd = t._num * base._den, t._den * base._num  # _ratio_pair's quotient, inline
    x, y, D, z = parts
    c = qn * z - x * qd  # the sign of q - r for a rational r, as qd > 0
    if y:
        c = _sign_single(c, -y * qd, D)  # cmp_ratio(qn, qd, parts), inline
    return c < 0 or (c == 0 and not S.strict)


def density(S: SaturatedSet, t: SteinitzNumber) -> Density:
    """The density limit r_S(t) at an infinite member t = q*base: the density
    r/q of S rebased to t.  The strictness of S is the same at every member."""
    if t.is_natural:
        raise ValueError(f"density is defined at infinite members only, got {t}")
    if not contains(S, t):
        raise ValueError(f"{t} is not a member of {format_set(S)}")
    qn, qd = _ratio_pair(S.base, t)
    return scale_density(S.r, Fraction(qd, qn))


def _floor_count(parts: tuple[int, int, int, int] | None, strict: bool, b: int, c: int = 1) -> int | float:
    """max { i : i <= r*b/c }, or i < r*b/c when strict: the floor dichotomy,
    where ``parts`` are ``_parts(r)``, or None for the infinite density.

    floor(r*b/c) when r*b/c is not an integer (always, for an irrational r);
    exactly r*b/c (closed) or r*b/c - 1 (strict) when it is.  The infinite
    density gives infinity.
    """
    if parts is None:
        return INFINITY
    k = floor_times(parts, b, c)
    x, y, _, z = parts
    return k - 1 if strict and y == 0 and x * b % (z * c) == 0 else k  # r*b/c is an integer


def r_sub(S: SaturatedSet, t: SteinitzNumber, b: int) -> int | float:
    """r_t(b) = max { i >= 1 : i * t/b in S }, in closed form: the floor dichotomy
    of r*(qd*b)/qn, the density of S rebased to the member t = (qn/qd)*base, at b.
    Segments [1..n] = S(n, 1) and N = S(inf, 1) included."""
    if not contains(S, t):
        raise ValueError(f"{t} is not a member of {format_set(S)}")
    if not omega_contains(t, b):
        raise ValueError(f"{b} is not in Omega({t})")
    qn, qd = _ratio_pair(S.base, t)
    return _floor_count(S._parts, S.strict, qd * b, qn)


def max_element(S: SaturatedSet) -> SteinitzNumber | None:
    """The largest member, (u/v)*base, when the bound r = u/v is attained:
    closed, r rational (a raw int included) and v in Omega(base)."""
    parts = S._parts
    if S.strict or parts is None or parts[1]:  # a strict, an infinite or a surd bound
        return None
    u, _, _, v = parts
    w = _divided(S.base, v)
    return None if w is None else mul_natural(w, u)


class Inclusion(Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    LEFT_IN_RIGHT = "left-in-right"
    RIGHT_IN_LEFT = "right-in-left"


def compare_inclusion(S1: SaturatedSet, S2: SaturatedSet) -> Inclusion:
    """Exact trichotomy: saturated sets are disjoint or nested."""
    q = _ratio_pair(S1.base, S2.base)
    if q is None:
        return Inclusion.DISJOINT
    # S2.base = (n/d) * S1.base, so S2's density at S1's base is S2.r * n/d.
    c = _cmp_scaled(S1._parts, S2._parts, *q)
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


class TailRule(_Value):
    """Declared limit of an ascending chain of saturated sets.

    The density of an ``attained``/``approached`` tail is expressed at the
    base of the first chain element (no finite prefix determines the limit,
    so the construction declares it).
    """

    __slots__ = __match_args__ = ("kind", "r")

    def __init__(self, kind: str, r: Density | None = None):
        if kind not in ("attained", "approached", "unbounded"):
            raise ValueError(f"unknown tail kind {kind!r}")
        if r is None and kind != "unbounded":
            raise ValueError("a density tail needs a density")
        if r is not None and kind == "unbounded":
            raise ValueError("an unbounded tail takes no density")
        if r is not None and r is not INFINITY:
            _parts(r)  # which checks the density
        self._set("kind", kind)
        self._set("r", r)


def format_set(S: SaturatedSet) -> str:
    if isinstance(S, Segment):
        return f"[1..{S.n}]"
    if isinstance(S, AllNaturals):
        return "N"
    plus = "+" if S.strict else ""
    return f"S{plus}({format_density(S.r)}, {S.base})"


#: One form with the spaces around it, or ``bad`` from the first character on.
#: In ``S(r, s)``, r runs to the first comma and s to the last ``)``, each with
#: its leading spaces; r0 and s0 start at the first character after them.
_SET_RE = re.compile(
    r"\s*(?:(?:(?P<N>N)|\[\s*1\s*\.\.\s*(?P<n>\d+)\s*\]|S(?P<strict>\+?)\((?:(?P<r>\s*(?P<r0>(?:[^,\s][^,]*)?)),"
    r"(?P<s>\s*(?P<s0>(?:\S.*)?))|(?P<nocomma>[^,]*))\))\s*\Z|(?P<bad>.*))",
    re.DOTALL,
)


def parse_set(text: str) -> SaturatedSet:
    """Parse ``[1..n]``, ``N``, ``S(inf, s)``, ``S(r, s)`` or ``S+(r, s)``.

    The result is constructor-normalized, so printing it back gives the
    canonical form of the set, not necessarily the input spelling.
    """
    m = _SET_RE.match(text)
    if m["N"]:
        return ALL_NATURALS
    if m["n"]:
        n_pos = m.start("n")
        n = _parse_int(m["n"], n_pos)
        try:
            return Segment(n)
        except ValueError as e:
            raise ParseError(str(e), n_pos) from None
    if m["bad"] is not None:
        raise ParseError(f"malformed saturated set {text!r}, expected [1..n], N, S(r, s) or S+(r, s)", m.start("bad"))
    if m["nocomma"] is not None:
        raise ParseError(f"missing comma in {text!r}", m.end("nocomma"))
    r = _parse_at(parse_density, m["r"], m.start("r"))
    base = _parse_at(parse_scaled, m["s"], m.start("s"))
    if r is INFINITY and m["strict"]:
        raise ParseError("S+ cannot have density inf", m.start("r0"))
    try:
        return mk_finite_type(r, base, m["strict"] == "+")
    except ValueError as e:  # a natural base is refused before a density below 1
        raise ParseError(str(e), m.start("s0") if base.is_natural else m.start("r0")) from None


def __getattr__(name: str):
    # bench/cases.py reads ``equals_extensional`` here, but ``oracle`` defines
    # it and imports this module.  Looked up on each access, never cached, so
    # a rebinding in ``oracle`` (the bench tracer's span wrapper) is what runs.
    if name == "equals_extensional":
        from .oracle import equals_extensional
        return equals_extensional
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
