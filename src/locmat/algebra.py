"""Countable-dimensional locally matrix algebras, modeled by their spectra.

The spectrum of such an algebra (the set of Steinitz numbers of its unital
corners) determines it up to isomorphism, so descriptors here carry a
saturated set and no field elements at all.  Decision procedures (unitality,
isomorphism, approximative-corner embedding) reduce to exact operations on
spectra; ``realize`` produces an explicit ascending chain of matrix corners
whose union has a prescribed spectrum, and ``spectrum_of_chain`` inverts it.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .density import INFINITY, _parts, cmp_ratio, format_density, parse_density, scale_density
from .saturated import (
    SaturatedSet,
    Segment,
    TailRule,
    _floor_count,
    _included,
    contains,
    equals_formal,
    format_set,
    max_element,
    mk_finite_type,
    mk_inf_type,
    parse_set,
)
from .steinitz import (
    ONE,
    ParseError,
    SteinitzNumber,
    _SMALL_PRIMES,
    _divided,
    _parse_at,
    _parse_int,
    _positive_int,
    _ratio_pair,
    _rational_parts,
    _Value,
    divide_by,
    mul_natural,
    parse as parse_steinitz,
)


def _unital_spectrum(s: SteinitzNumber) -> SaturatedSet:
    return Segment(s.as_int()) if s.is_natural else mk_finite_type(1, s, strict=False)


class AlgebraDescriptor(_Value):
    """A locally matrix algebra, known through its spectrum and ``st``: its
    Steinitz number when it is unital, else None.

    ``AlgebraDescriptor(spectrum)`` reads st as the spectrum's largest
    element.  An explicit st is accepted exactly when its unital spectrum
    equals ``spectrum``.  That keeps the st of a unital algebra over a number
    with an infinite prime, whose spectrum is of infinite type and no longer
    determines st.  The check builds no set: an infinity-free st must be the
    largest element, and an st with an infinite prime, whose unital spectrum
    S(1, st) collapses to S(inf, st), a member of an infinite-type spectrum.
    """

    __slots__ = __match_args__ = ("spectrum", "st")

    def __init__(self, spectrum: SaturatedSet, st: SteinitzNumber | None = None):
        if not isinstance(spectrum, SaturatedSet):
            raise ValueError(f"spectrum must be a SaturatedSet, got {spectrum!r} ({type(spectrum).__name__})")
        if st is None:
            st = max_element(spectrum)
        elif not isinstance(st, SteinitzNumber):
            raise ValueError(f"st must be a SteinitzNumber or None, got {st!r} ({type(st).__name__})")
        elif not (
            st == max_element(spectrum) if st.is_infinity_free else spectrum.r is INFINITY and contains(spectrum, st)
        ):
            raise ValueError(
                f"st {st} is not the Steinitz number of a unital algebra with spectrum {format_set(spectrum)}"
            )
        self._set("spectrum", spectrum)
        self._set("st", st)

    def __str__(self) -> str:
        if self.st is not None and self.spectrum.r is INFINITY:  # a spectrum that does not determine st
            return f"alg(unital {self.st})"
        return f"alg({format_set(self.spectrum)})"


def spec_matrix(n: int) -> AlgebraDescriptor:
    """The full matrix algebra of size n: spectrum {1, ..., n}."""
    return AlgebraDescriptor(Segment(n))


def spec_unital(s: SteinitzNumber) -> AlgebraDescriptor:
    """The unital locally matrix algebra with Steinitz number s.

    Natural s gives a segment; infinite s gives the closed density-1 set at
    base s, which collapses to the infinite type when s has an infinite
    prime (the descriptor keeps s as its st).
    """
    return AlgebraDescriptor(_unital_spectrum(s), s)


def _require_st(A: AlgebraDescriptor, op: str) -> SteinitzNumber:
    s = A.st
    if s is None:
        raise ValueError(f"{op} needs a unital algebra, got {A}")
    return s


def m_infinity(A: AlgebraDescriptor) -> AlgebraDescriptor:
    """Finitary infinite matrices over a unital A: spectrum S(inf, st(A))."""
    s = _require_st(A, "m_infinity")
    return AlgebraDescriptor(mk_inf_type(s))


def matrix_over(A: AlgebraDescriptor, n: int) -> AlgebraDescriptor:
    """M_n(A) for unital A: st multiplies by n."""
    _positive_int("matrix size", n)
    return spec_unital(mul_natural(_require_st(A, "matrix_over"), n))


def corner(A: AlgebraDescriptor, q: Fraction) -> AlgebraDescriptor:
    """eAe for an idempotent of relative rank q = a/b: st scales by q.

    Requires 0 < q <= 1 with the reduced denominator dividing st(A).
    """
    s = _require_st(A, "corner")
    n, d = _rational_parts("relative rank", q)
    if not 0 < n <= d:
        raise ValueError(f"relative rank must be in (0, 1], got {q}")
    u = _divided(s, d)
    if u is None:
        raise ValueError(f"denominator {d} is not in Omega({s})")
    return spec_unital(mul_natural(u, n))


def is_unital(A: AlgebraDescriptor) -> bool:
    """Unital iff the algebra has a Steinitz number."""
    return A.st is not None


def isomorphic(A: AlgebraDescriptor, B: AlgebraDescriptor) -> bool:
    """Descriptors model countable-dimensional algebras only.  A unital one is
    classified by its Steinitz number (Glimm 1960; Dixmier 1967), a non-unital
    one by its spectrum (the Dixmier-Baranov theorem).  Equal st and equal
    spectra decide both cases, and no unital algebra is isomorphic to a
    non-unital one."""
    return A.st == B.st and equals_formal(A.spectrum, B.spectrum)


def embeds_as_approximative_corner(B: AlgebraDescriptor, A: AlgebraDescriptor) -> bool:
    """B embeds in A as a union of an increasing chain of corners iff
    Spec(B) is contained in Spec(A)."""
    return _included(B.spectrum, A.spectrum)


class Stage(_Value):
    """One chain stage M_k(A_s): outer matrix size k over the algebra with
    Steinitz number s."""

    __slots__ = __match_args__ = ("k", "s")

    def __init__(self, k: int, s: SteinitzNumber):
        self._set("k", _positive_int("stage size", k))
        if not isinstance(s, SteinitzNumber):
            raise ValueError(f"s must be a SteinitzNumber, got {s!r} ({type(s).__name__})")
        self._set("s", s)

    @property
    def number(self) -> SteinitzNumber:
        return mul_natural(self.s, self.k)


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}

#: A JSON string or number token, so that a number inside a string never matches.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


class _JsonString(str):
    """A string value that ``from_json`` decoded: ``start`` is the offset of its
    first character in the document, ``escaped`` whether it holds an escape."""


def _scan_json_string(text: str, end: int, strict: bool) -> tuple[_JsonString, int]:
    value, stop = json.decoder.scanstring(text, end, strict)
    value = _JsonString(value)
    value.start, value.escaped = end, "\\" in text[end:stop]
    return value, stop


class _ChainDecoder(json.JSONDecoder):
    # The C scanner never calls parse_string, so this decoder runs the pure-Python one.
    def __init__(self, **kw):
        super().__init__(**kw)
        self.parse_string = _scan_json_string
        self.scan_once = json.scanner.py_make_scanner(self)


def _json_field(obj: dict, key: str, kind: type):
    # JSON true is a Python int and 1.5 would truncate; a decoded string is a str subclass.
    if key not in obj:
        raise ParseError(f"chain field {key!r} is missing")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"chain field {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _json_parsed(obj: dict, key: str, parse_fn):
    """parse_fn of the string field ``key``.  A string that ``from_json`` decoded
    raises again in the document: at its first character if it holds an escape."""
    value = _json_field(obj, key, str)
    try:
        return parse_fn(value)
    except ParseError as e:
        if not isinstance(value, _JsonString):
            raise
        raise ParseError(e.message, value.start + (0 if value.escaped else e.pos)) from None


class ChainPresentation(_Value):
    """Finitely presented ascending chain of corners M_{k_i}(A_{s_i}).

    ``quotients[i]`` is the integer q with s_i = q * s_{i+1}; consecutive
    stages must satisfy the north-west corner inequality k_i*q_i <= k_{i+1}.
    ``tail`` declares the limit of the infinite continuation, if any.
    """

    __slots__ = __match_args__ = ("stages", "quotients", "tail")

    def __init__(self, stages: tuple[Stage, ...], quotients: tuple[int, ...], tail: TailRule | None = None):
        if not stages:
            raise ValueError("chain needs at least one stage")
        if len(quotients) != len(stages) - 1:
            raise ValueError("need exactly one quotient per consecutive stage pair")
        for i, q in enumerate(quotients):
            a, b = stages[i], stages[i + 1]
            _positive_int("quotient", q)
            if mul_natural(b.s, q) != a.s:
                raise ValueError(f"stage {i}: {a.s} != {q} * {b.s}")
            if a.k * q > b.k:
                raise ValueError(f"stage {i}: corner inequality {a.k}*{q} <= {b.k} fails")
        self._set("stages", stages)
        self._set("quotients", quotients)
        self._set("tail", tail)

    def to_json_dict(self) -> dict:
        d: dict = {
            "stages": [
                {"k": st.k, "s": str(st.s), "q": (self.quotients[i] if i < len(self.quotients) else None)}
                for i, st in enumerate(self.stages)
            ]
        }
        if self.tail is None:
            d["tail"] = None
        elif self.tail.kind == "unbounded":
            d["tail"] = {"kind": "unbounded"}
        else:
            d["tail"] = {"kind": self.tail.kind, "r": format_density(self.tail.r)}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ChainPresentation":
        if type(d) is not dict:
            raise ParseError(f"chain JSON must be an object, got {d!r}")
        entries = _json_field(d, "stages", list)
        for i, e in enumerate(entries):
            if type(e) is not dict:
                raise ParseError(f"chain stage {i} must be an object, got {e!r}")
        fields = [(_json_field(e, "k", int), _json_parsed(e, "s", parse_steinitz)) for e in entries]
        quotients = tuple(_json_field(e, "q", int) for e in entries[:-1])
        tail = None
        if d.get("tail") is not None:
            tail_d = _json_field(d, "tail", dict)
            kind = _json_field(tail_d, "kind", str)
            r = _json_parsed(tail_d, "r", parse_density) if kind in ("attained", "approached") else None
            tail = TailRule(kind, r)  # an unknown kind is refused here, with no r read
        chain = cls(tuple(Stage(k, s) for k, s in fields), quotients, tail)
        # Last, so that a member's own error comes first: refuse what to_json_dict would not write.
        objects = [(d, ("stages", "tail"), "JSON")]
        objects += [(e, ("k", "s", "q"), f"stage {i}") for i, e in enumerate(entries)]
        if tail is not None:
            objects.append((tail_d, ("kind", "r") if r is not None else ("kind",), f"tail of kind {kind!r}"))
        for obj, known, where in objects:
            unknown = [key for key in obj if key not in known]
            if unknown:
                raise ParseError(f"chain {where} has an unknown member {unknown[0]!r}")
        if entries[-1].get("q") is not None:
            raise ParseError(f"chain field 'q' of the last stage must be null, got {entries[-1]['q']!r}")
        return chain

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ChainPresentation":
        def parse_int(literal: str) -> int:
            # Only a literal that int() refuses (past the interpreter's
            # int-string limit) is looked up, for the offset of its error.
            try:
                return int(literal)
            except ValueError:
                return _parse_int(literal, next(m.start() for m in _JSON_TOKEN.finditer(text) if m[0] == literal))

        try:
            d = json.loads(text, cls=_ChainDecoder, parse_int=parse_int)
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed chain JSON: {e.msg}", e.pos) from e
        except RecursionError:
            raise ParseError("chain JSON nests too deeply") from None
        return cls.from_json_dict(d)


#: Largest ``realize`` depth.  The default divisor chain's i-th divisor is a
#: product over the first i of the 168 primes in ``_SMALL_PRIMES``, so the
#: cost of one call grows steeply with the depth: for S(3/2, P) on a 2-core
#: Xeon (Python 3.11), about 0.8 ms at depth 64 and 0.1 ms at depth 16.
_MAX_DEPTH = 64


def _default_divisor_chain(base: SteinitzNumber, depth: int) -> list[int]:
    # Diagonal sweep: b_i is the product over the first i primes p of
    # p^min(v_p(base), i).  Ascending by divisibility, lcm exhausts the base.
    # b_i is b_{i-1} times p_i^min(v, i) and each earlier p with v_p(base) >= i.
    chain, b, rising = [], 1, []
    for i, p in enumerate(_SMALL_PRIMES[:depth], 1):
        v = base.valuation(p)
        rising = [(q, w) for q, w in rising if w >= i]
        b *= math.prod(q for q, _ in rising) * p ** min(v, i)
        rising.append((p, v))
        chain.append(b)
    return chain


def realize(S: SaturatedSet, divisor_chain: list[int] | None = None, depth: int = 4) -> ChainPresentation:
    """An explicit chain of corners whose union has spectrum S.

    For a finite-type S over base s with divisors b_1 | b_2 | ... the stages
    are M_{r_s(b_i)}(A_{s/b_i}); the corner inequality k_i*q_i <= k_{i+1} is
    an instance of r_s(b)*(c/b) <= r_s(c).  Segment and infinite-type
    spectra use the single-stage and growing-size constructions.
    """
    if _positive_int("depth", depth) > _MAX_DEPTH:
        raise ValueError(f"depth must be at most {_MAX_DEPTH}, got {depth}")
    if isinstance(S, Segment):
        return ChainPresentation((Stage(S.n, ONE),), ())
    if S.r is INFINITY:
        stages = tuple(Stage(i, S.base) for i in range(1, depth + 1))
        return ChainPresentation(stages, (1,) * (depth - 1), TailRule("unbounded"))
    base = S.base
    if divisor_chain is None:
        divisor_chain = _default_divisor_chain(base, depth)
    if not divisor_chain:
        raise ValueError("empty divisor chain")
    divisor_chain = [_positive_int("divisor", b) for b in divisor_chain]
    # Stage rejects a size of 0 (S+(1, s) at b = 1), before b1/k1 below; divide_by
    # rejects a divisor outside Omega(base).
    stages = tuple(Stage(_floor_count(S._parts, S.strict, b), divide_by(base, b)) for b in divisor_chain)
    for b, c in zip(divisor_chain, divisor_chain[1:]):
        if c % b != 0:
            raise ValueError(f"divisor chain not ascending by divisibility: {b}, {c}")
    quotients = tuple(c // b for b, c in zip(divisor_chain, divisor_chain[1:]))
    k1, b1 = stages[0].k, divisor_chain[0]
    tail_r = scale_density(S.r, Fraction(b1, k1))
    return ChainPresentation(stages, quotients, TailRule("approached" if S.strict else "attained", tail_r))


def spectrum_of_chain(chain: ChainPresentation) -> SaturatedSet:
    """Union of the stage spectra, with the declared tail: Spec of the
    chain's union algebra.  The corner rule makes each stage number
    n_i = (k_i*q_i/k_{i+1})*n_{i+1} a corner of the next, so the stages ascend
    and the union is the last stage's spectrum, or the tail's limit, which
    must contain it.  A tail density is expressed at the first stage's
    number s_0; inf declares S(inf, s_0), which is N over natural stages."""
    first, last = chain.stages[0].number, chain.stages[-1].number
    tail = chain.tail
    if tail is None:
        return _unital_spectrum(last)
    if tail.kind == "unbounded" or tail.r is INFINITY:
        return mk_inf_type(first)
    if first.is_natural:
        raise ValueError("a density tail needs a chain of based sets")
    if not first.is_infinity_free:  # every stage spectrum is S(inf, s_0)
        raise ValueError("a density tail is inconsistent with an infinite-type prefix")
    # The last spectrum, S(1, last), is closed and has the density last/s_0 at s_0.
    c = cmp_ratio(*_ratio_pair(first, last), _parts(tail.r))
    approached = tail.kind == "approached"
    if c > 0 or (c == 0 and approached):
        limit = f"S{'+' if approached else ''}({format_density(tail.r)}, {first})"
        raise ValueError(f"prefix set {format_set(_unital_spectrum(last))} is not inside the tail limit {limit}")
    return mk_finite_type(tail.r, first, approached)


#: ``alg(<set>)`` or ``alg(unital <st>)`` with the spaces around it; the set runs to the last ``)``.
_DESCRIPTOR_RE = re.compile(r"\s*(?:alg\((?:unital\s+(?P<st>.*)|(?P<set>.*))\)\s*\Z|(?P<bad>.*))", re.DOTALL)


def parse_descriptor(text: str) -> AlgebraDescriptor:
    """Parse the ``alg(<saturated-set>)`` and ``alg(unital <st>)`` text forms."""
    m = _DESCRIPTOR_RE.match(text)
    if m["bad"] is not None:
        raise ParseError(f"malformed algebra descriptor {text!r}, expected alg(<set>)", m.start("bad"))
    if m["st"] is not None:
        return spec_unital(_parse_at(parse_steinitz, m["st"], m.start("st")))
    return AlgebraDescriptor(_parse_at(parse_set, m["set"], m.start("set")))
