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
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .density import INFINITY, format_density, parse_density, scale_density
from .saturated import (
    InfType,
    SaturatedSet,
    Segment,
    TailRule,
    _floor_count,
    _has_max,
    _included,
    contains,
    equals_formal,
    format_set,
    max_element,
    mk_finite_type,
    mk_inf_type,
    mk_segment,
    parse_set,
    union_chain,
)
from .steinitz import (
    ONE,
    ParseError,
    SteinitzNumber,
    _is_prime,
    _parse_int,
    canonical_ratio,
    divide_by,
    mul_natural,
    omega_contains,
    parse as parse_steinitz,
    ratio_if_connected,
    scale,
)


@dataclass(frozen=True)
class AlgebraDescriptor:
    """A locally matrix algebra, known through its spectrum.

    ``unit_st`` is set when constructor normalization changed the canonical
    form (a finite-type spectrum over a base with an infinite prime
    collapses to the infinite type): it records the Steinitz number of the
    modeled unital algebra, which the spectrum alone no longer determines.
    The constructor accepts exactly what ``spec_unital`` produces: a
    ``unit_st`` with an infinite prime exponent whose collapsed spectrum
    S(inf, unit_st) equals ``spectrum``.
    """

    spectrum: SaturatedSet
    unit_st: SteinitzNumber | None = None

    def __post_init__(self):
        s = self.unit_st
        if s is None:
            return
        if s.is_infinity_free or not equals_formal(self.spectrum, mk_inf_type(s)):
            raise ValueError(
                f"unit_st {s} is not the Steinitz number of a unital algebra "
                f"whose spectrum collapsed to {format_set(self.spectrum)}"
            )

    @property
    def collapsed(self) -> bool:
        """Whether normalization dropped the modeled unital algebra's st."""
        return self.unit_st is not None

    @property
    def st(self) -> SteinitzNumber | None:
        """Steinitz number of the algebra, when it is unital (or collapsed)."""
        m = max_element(self.spectrum)
        return self.unit_st if m is None else m

    def __str__(self) -> str:
        return f"alg({format_set(self.spectrum)})"


def spec_matrix(n: int) -> AlgebraDescriptor:
    """The full matrix algebra of size n: spectrum {1, ..., n}."""
    return AlgebraDescriptor(mk_segment(n))


def spec_unital(s: SteinitzNumber) -> AlgebraDescriptor:
    """The unital locally matrix algebra with Steinitz number s.

    Natural s gives a segment; infinite s gives the closed density-1 set at
    base s, which collapses to the infinite type when s has an infinite
    prime (the descriptor keeps the modeled st and a collapsed flag).
    """
    if s.is_natural:
        return AlgebraDescriptor(mk_segment(s.as_int()))
    spec = mk_finite_type(Fraction(1), s, strict=False)
    if isinstance(spec, InfType):
        return AlgebraDescriptor(spec, unit_st=s)
    return AlgebraDescriptor(spec)


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
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    return spec_unital(mul_natural(_require_st(A, "matrix_over"), n))


def corner(A: AlgebraDescriptor, q: Fraction) -> AlgebraDescriptor:
    """eAe for an idempotent of relative rank q = a/b: st scales by q.

    Requires 0 < q <= 1 with the reduced denominator dividing st(A).
    """
    s = _require_st(A, "corner")
    q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError(f"relative rank must be in (0, 1], got {q}")
    if not omega_contains(s, q.denominator):
        raise ValueError(f"denominator {q.denominator} is not in Omega({s})")
    return spec_unital(scale(s, q))


def is_unital(A: AlgebraDescriptor) -> bool:
    """Unital iff the spectrum has a largest element (segment, or closed
    rational bound attained at the base), or normalization collapsed the
    spectrum of a unital algebra: the two facts ``st`` reads."""
    return A.collapsed or _has_max(A.spectrum)


def isomorphic(A: AlgebraDescriptor, B: AlgebraDescriptor) -> bool:
    """Equal spectra classify countable-dimensional algebras."""
    return equals_formal(A.spectrum, B.spectrum)


def embeds_as_approximative_corner(B: AlgebraDescriptor, A: AlgebraDescriptor) -> bool:
    """B embeds in A as a union of an increasing chain of corners iff
    Spec(B) is contained in Spec(A)."""
    return _included(B.spectrum, A.spectrum)


@dataclass(frozen=True)
class Stage:
    """One chain stage M_k(A_s): outer matrix size k over the algebra with
    Steinitz number s."""

    k: int
    s: SteinitzNumber

    @property
    def number(self) -> SteinitzNumber:
        return mul_natural(self.s, self.k)


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}

#: A JSON string or number token, so that a number inside a string never matches.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def _json_field(obj: dict, key: str, kind: type):
    # Exact type match: JSON true is a Python int and 1.5 would truncate.
    value = obj[key]
    if type(value) is not kind:
        raise ParseError(f"chain field {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _json_stage(e, i: int) -> dict:
    if type(e) is not dict:
        raise ParseError(f"chain stage {i} must be an object, got {e!r}")
    return e


@dataclass(frozen=True)
class ChainPresentation:
    """Finitely presented ascending chain of corners M_{k_i}(A_{s_i}).

    ``quotients[i]`` is the integer q with s_i = q * s_{i+1}; consecutive
    stages must satisfy the north-west corner inequality k_i*q_i <= k_{i+1}.
    ``tail`` declares the limit of the infinite continuation, if any.
    """

    stages: tuple[Stage, ...]
    quotients: tuple[int, ...]
    tail: TailRule | None = None

    def validate(self) -> None:
        if not self.stages:
            raise ValueError("chain needs at least one stage")
        if len(self.quotients) != len(self.stages) - 1:
            raise ValueError("need exactly one quotient per consecutive stage pair")
        for st in self.stages:
            if st.k < 1:
                raise ValueError(f"stage size must be positive, got {st.k}")
        for i, q in enumerate(self.quotients):
            a, b = self.stages[i], self.stages[i + 1]
            if q < 1:
                raise ValueError(f"quotient must be positive, got {q}")
            if mul_natural(b.s, q) != a.s:
                raise ValueError(f"stage {i}: {a.s} != {q} * {b.s}")
            if a.k * q > b.k:
                raise ValueError(f"stage {i}: corner inequality {a.k}*{q} <= {b.k} fails")

    def stage_numbers(self) -> list[SteinitzNumber]:
        return [st.number for st in self.stages]

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
        try:
            entries = [_json_stage(e, i) for i, e in enumerate(_json_field(d, "stages", list))]
            stages = tuple(Stage(_json_field(e, "k", int), parse_steinitz(_json_field(e, "s", str))) for e in entries)
            quotients = tuple(_json_field(e, "q", int) for e in entries[:-1])
            tail_d = d.get("tail")
            if tail_d is None:
                tail = None
            elif _json_field(d, "tail", dict)["kind"] == "unbounded":
                tail = TailRule.unbounded()
            else:
                tail = TailRule(tail_d["kind"], parse_density(_json_field(tail_d, "r", str)))
        except (KeyError, TypeError) as e:
            raise ParseError(f"malformed chain object: {e}") from e
        chain = cls(stages, quotients, tail)
        chain.validate()
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
            d = json.loads(text, parse_int=parse_int)
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed chain JSON: {e.msg}", e.pos) from e
        except RecursionError:
            raise ParseError("chain JSON nests too deeply") from None
        return cls.from_json_dict(d)


#: Largest ``realize`` depth.  The default divisor chain's i-th divisor is a
#: product over the first i primes, so the cost of one call grows steeply with
#: the depth: for S(3/2, P) on a 2-core Xeon, about 13 ms at depth 64, 2 s at
#: depth 300 and 50 s at depth 500.
_MAX_DEPTH = 64


def _default_divisor_chain(base: SteinitzNumber, depth: int) -> list[int]:
    # Diagonal sweep: b_i is the product over the first i primes p of
    # p^min(v_p(base), i).  Ascending by divisibility, lcm exhausts the base.
    primes = filter(_is_prime, count(2))
    first: list[int] = []
    out = []
    for i in range(1, depth + 1):
        first.append(next(primes))
        b = 1
        for p in first:
            b *= p ** min(base.valuation(p), i)
        out.append(b)
    return out


def realize(S: SaturatedSet, divisor_chain: list[int] | None = None, depth: int = 4) -> ChainPresentation:
    """An explicit chain of corners whose union has spectrum S.

    For a finite-type S over base s with divisors b_1 | b_2 | ... the stages
    are M_{r_s(b_i)}(A_{s/b_i}); the corner inequality k_i*q_i <= k_{i+1} is
    an instance of r_s(b)*(c/b) <= r_s(c).  Segment and infinite-type
    spectra use the single-stage and growing-size constructions.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth must be at most {_MAX_DEPTH}, got {depth}")
    if isinstance(S, Segment):
        return ChainPresentation((Stage(S.n, ONE),), ())
    if S.r is INFINITY:
        stages = tuple(Stage(i, S.base) for i in range(1, depth + 1))
        return ChainPresentation(stages, (1,) * (depth - 1), TailRule.unbounded())
    base = S.base
    if divisor_chain is None:
        divisor_chain = _default_divisor_chain(base, depth)
    if not divisor_chain:
        raise ValueError("empty divisor chain")
    # divide_by rejects a divisor outside Omega(base), zero and negatives included.
    stages = tuple(Stage(_floor_count(S.r, S.strict, b), divide_by(base, b)) for b in divisor_chain)
    for b, c in zip(divisor_chain, divisor_chain[1:]):
        if c % b != 0:
            raise ValueError(f"divisor chain not ascending by divisibility: {b}, {c}")
    quotients = tuple(c // b for b, c in zip(divisor_chain, divisor_chain[1:]))
    ChainPresentation(stages, quotients).validate()  # a stage size of 0 fails here, before b1/k1
    k1, b1 = stages[0].k, divisor_chain[0]
    tail_r = scale_density(S.r, Fraction(b1, k1))
    tail = TailRule.approached(tail_r) if S.strict else TailRule.attained(tail_r)
    return ChainPresentation(stages, quotients, tail)


def spectrum_of_chain(chain: ChainPresentation) -> SaturatedSet:
    """Union of the stage spectra, with the declared tail: Spec of the
    chain's union algebra."""
    chain.validate()
    prefix = [spec_unital(n).spectrum for n in chain.stage_numbers()]
    return union_chain(prefix, chain.tail)


@dataclass(frozen=True)
class CornerWitness:
    """Rank witness for growing one corner into another at a common stage:
    sizes current = (r1/n)*ref and target = (r2/n)*ref with r1 < r2."""

    n: int
    r1: int
    r2: int


def match_corner(
    A: AlgebraDescriptor, current: SteinitzNumber, target: SteinitzNumber
) -> CornerWitness | None:
    """Witness that the corner of size ``current`` extends to one of size
    ``target`` inside A; None when the preconditions fail."""
    if not contains(A.spectrum, current) or not contains(A.spectrum, target):
        return None
    q = ratio_if_connected(current, target)
    if q is None or q <= 1:
        return None
    ref = A.st
    if ref is None:
        ref = A.spectrum.base
    q1 = canonical_ratio(ref, current)
    q2 = canonical_ratio(ref, target)
    n = math.lcm(q1.denominator, q2.denominator)
    r1 = q1.numerator * (n // q1.denominator)
    r2 = q2.numerator * (n // q2.denominator)
    return CornerWitness(n, r1, r2)


def interleave(cA: ChainPresentation, cB: ChainPresentation) -> list[SteinitzNumber] | None:
    """Isomorphism certificate for two chains with equal spectra.

    Returns the merged ascending sequence of stage Steinitz numbers (each a
    member of both spectra), or None when the spectra differ formally.  The
    sequence is the matched st-chain a back-and-forth construction runs
    through.
    """
    SA, SB = spectrum_of_chain(cA), spectrum_of_chain(cB)
    if not equals_formal(SA, SB):
        return None
    numbers = cA.stage_numbers() + cB.stage_numbers()
    ref = numbers[0]
    numbers.sort(key=lambda t: canonical_ratio(ref, t))
    merged: list[SteinitzNumber] = []
    for t in numbers:
        if not merged or merged[-1] != t:
            merged.append(t)
    for t in merged:
        if not (contains(SA, t) and contains(SB, t)):
            raise AssertionError(f"stage number {t} escaped the common spectrum")
    return merged


def check_certificate(cert: list[SteinitzNumber], cA: ChainPresentation, cB: ChainPresentation) -> bool:
    """Verify an interleave certificate: ascending, inside both spectra, and
    dominating every stage of both chains."""
    if not cert:
        return False
    SA, SB = spectrum_of_chain(cA), spectrum_of_chain(cB)
    for t in cert:
        if not (contains(SA, t) and contains(SB, t)):
            return False
    for a, b in zip(cert, cert[1:]):
        q = canonical_ratio(a, b)
        if q < 1:
            return False
    covered = set(cert)
    return all(t in covered for t in cA.stage_numbers() + cB.stage_numbers())


def parse_descriptor(text: str) -> AlgebraDescriptor:
    """Parse the ``alg(<saturated-set>)`` text form."""
    t = text.strip()
    if not t.startswith("alg(") or not t.endswith(")"):
        raise ParseError(f"malformed algebra descriptor {text!r}, expected alg(<set>)", 0)
    return AlgebraDescriptor(parse_set(t[4:-1]))


def format_descriptor(A: AlgebraDescriptor) -> str:
    return str(A)
