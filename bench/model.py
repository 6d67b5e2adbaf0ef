"""Exact arithmetic the benchmark uses to decide expected answers.

Nothing here imports locmat.  Steinitz numbers are a default exponent plus a
dict of exceptional primes, naturals are carried as their factorizations,
densities are Fractions or quadratic surds (x + y*sqrt(d))/z compared by
integer sign analysis and isqrt (never floats), and saturated sets are
(density, base, strict) triples normalized the way the paper defines them.
Every text form here is the canonical spelling locmat prints, so a result is
checked by parsing its text with this module and comparing values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

INF = math.inf


def factor_small(n: int) -> dict[int, int]:
    """Factorization by trial division; only used on small numbers."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor_small(n) == {n: 1}


def nat(fac: dict[int, int]) -> int:
    n = 1
    for p, e in fac.items():
        n *= p**e
    return n


def _sign(n) -> int:
    return (n > 0) - (n < 0)


# -- Steinitz numbers --------------------------------------------------------


class St:
    """p^v(p) over all primes: ``default`` for unlisted primes, ``exc`` for the rest."""

    __slots__ = ("default", "exc")

    def __init__(self, default, exc=None):
        self.default = default
        self.exc = {p: e for p, e in (exc or {}).items() if e != default}

    def v(self, p: int):
        return self.exc.get(p, self.default)

    def __eq__(self, other):
        return isinstance(other, St) and self.default == other.default and self.exc == other.exc

    __hash__ = None

    @property
    def infinity_free(self) -> bool:
        return self.default != INF and INF not in self.exc.values()

    @property
    def natural(self) -> bool:
        return self.default == 0 and INF not in self.exc.values()

    def mul(self, fac: dict[int, int]) -> "St":
        exc = dict(self.exc)
        for p, e in fac.items():
            exc[p] = self.v(p) + e
        return St(self.default, exc)

    def div(self, fac: dict[int, int]) -> "St":
        exc = dict(self.exc)
        for p, e in fac.items():
            if e > self.v(p):
                raise ValueError(f"p={p} does not divide {self.text()} {e} times")
            exc[p] = self.v(p) - e
        return St(self.default, exc)

    def scale(self, q: Fraction) -> "St":
        return self.div(factor_small(q.denominator)).mul(factor_small(q.numerator))

    def divides_by(self, fac: dict[int, int]) -> bool:
        """Whether the natural with factorization ``fac`` is in Omega(self)."""
        return all(e <= self.v(p) for p, e in fac.items())

    def text(self) -> str:
        terms = []
        for p in sorted(self.exc):
            e = self.exc[p]
            terms.append(str(p) if e == 1 else f"{p}^inf" if e == INF else f"{p}^{e}")
        if self.default == 1:
            terms.append("P")
        elif self.default == INF:
            terms.append("P^inf")
        elif self.default != 0:
            terms.append(f"P^{self.default}")
        return "*".join(terms) if terms else "1"


def ratio(s1: St, s2: St) -> Fraction | None:
    """The canonical q with s2 = q*s1, or None when not rationally connected."""
    if s1.default != s2.default:
        return None
    num = den = 1
    for p in s1.exc.keys() | s2.exc.keys():
        e1, e2 = s1.v(p), s2.v(p)
        if e1 == INF or e2 == INF:
            if e1 != e2:
                return None
        elif e2 > e1:
            num *= p ** (e2 - e1)
        else:
            den *= p ** (e1 - e2)
    return Fraction(num, den)


_TERM = re.compile(r"^(\d+|P)(?:\^(\d+|inf))?$")
_SCALED = re.compile(r"^\((\d+)/(\d+)\)\*(.+)$")


def parse_st(text: str) -> St:
    """Parse the product grammar, with an optional ``(u/v)*`` prefix."""
    t = text.replace(" ", "")
    m = _SCALED.match(t)
    if m:
        return parse_st(m.group(3)).scale(Fraction(int(m.group(1)), int(m.group(2))))
    if t == "1":
        return St(0)
    default, exc = 0, {}
    for term in t.split("*"):
        m = _TERM.match(term)
        if m is None:
            raise ValueError(f"bad term {term!r}")
        e = 1 if m.group(2) is None else INF if m.group(2) == "inf" else int(m.group(2))
        if m.group(1) == "P":
            default = e
        else:
            exc[int(m.group(1))] = e
    return St(default, exc)


# -- densities ---------------------------------------------------------------


class Surd:
    """(x + y*sqrt(d))/z with y > 0, z > 0, d squarefree > 1 and gcd(x, y, z) = 1."""

    __slots__ = ("x", "y", "d", "z")

    def __init__(self, x: int, y: int, d: int, z: int):
        if y <= 0 or z <= 0 or d < 2 or any(e > 1 for e in factor_small(d).values()):
            raise ValueError("surd out of normal form")
        g = math.gcd(math.gcd(abs(x), y), z)
        self.x, self.y, self.d, self.z = x // g, y // g, d, z // g

    def __eq__(self, other):
        return isinstance(other, Surd) and (self.x, self.y, self.d, self.z) == (other.x, other.y, other.d, other.z)

    __hash__ = None


def dtext(r) -> str:
    if r == INF:
        return "inf"
    if isinstance(r, Surd):
        return f"({r.x}+{r.y}*sqrt({r.d}))/{r.z}"
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


_SURD = re.compile(r"^\((-?\d+)\+(\d+)\*sqrt\((\d+)\)\)/(\d+)$")


def parse_density(text: str):
    t = text.replace(" ", "")
    if t == "inf":
        return INF
    m = _SURD.match(t)
    if m:
        return Surd(*(int(g) for g in m.groups()))
    return Fraction(t)


def dscale(r, q: Fraction):
    """r*q for a positive rational q."""
    if r == INF:
        return INF
    if isinstance(r, Surd):
        return Surd(r.x * q.numerator, r.y * q.numerator, r.d, r.z * q.denominator)
    return r * q


def _sign_surd(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for a non-square d > 1."""
    if b == 0:
        return _sign(a)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    # Opposite signs: the larger square wins; they never tie since sqrt(d) is irrational.
    return _sign(a) if a * a > b * b * d else _sign(b)


def _sign_two_surds(a: int, b: int, d1: int, c: int, d2: int) -> int:
    """Sign of a + b*sqrt(d1) + c*sqrt(d2) for distinct squarefree d1, d2 > 1
    and nonzero b, c."""
    if _sign(b) == _sign(c):
        s_l = _sign(b)
    else:
        s_l = _sign(b) if b * b * d1 > c * c * d2 else _sign(c)
    if a == 0 or _sign(a) == s_l:
        return s_l
    # |L| versus |a| with L = b*sqrt(d1) + c*sqrt(d2): L^2 - a^2 is a surd in sqrt(d1*d2).
    s = _sign_surd(b * b * d1 + c * c * d2 - a * a, 2 * b * c, d1 * d2)
    return s_l if s > 0 else _sign(a)


def _as_surd_parts(r) -> tuple[int, int, int, int]:
    if isinstance(r, Surd):
        return r.x, r.y, r.d, r.z
    return r.numerator, 0, 2, r.denominator


def dcmp(r1, r2) -> int:
    """Exact three-way comparison of densities (INF is largest)."""
    if r1 == INF or r2 == INF:
        return (r1 == INF) - (r2 == INF)
    x1, y1, d1, z1 = _as_surd_parts(r1)
    x2, y2, d2, z2 = _as_surd_parts(r2)
    # (r1 - r2)*z1*z2 = (x1*z2 - x2*z1) + y1*z2*sqrt(d1) - y2*z1*sqrt(d2)
    a, b, c = x1 * z2 - x2 * z1, y1 * z2, -y2 * z1
    if c == 0 or b == 0 or d1 == d2:
        return _sign_surd(a, b + c, d2 if b == 0 else d1)
    return _sign_two_surds(a, b, d1, c, d2)


def dfloor(r) -> int:
    if isinstance(r, Surd):
        # x + y*sqrt(d) lies strictly between x + isqrt(y^2 d) and the next integer.
        return (r.x + math.isqrt(r.y * r.y * r.d)) // r.z
    return math.floor(r)


def dceil_minus_one(r) -> int:
    """The largest integer strictly below r."""
    if isinstance(r, Surd):
        return dfloor(r)
    return math.ceil(r) - 1


# -- saturated sets ----------------------------------------------------------


class Sat:
    """A based saturated set: S(inf, base), S(r, base) or S+(r, base), normalized."""

    __slots__ = ("r", "base", "strict")

    def __init__(self, r, base: St, strict: bool = False):
        if base.natural:
            raise ValueError("the benchmark only builds sets over infinite bases")
        if r != INF and dcmp(r, Fraction(1)) < 0:
            raise ValueError("density below 1")
        if r == INF or not base.infinity_free:
            r, strict = INF, False  # an infinite prime collapses a finite type
        elif strict and not (isinstance(r, Fraction) and base.divides_by(factor_small(r.denominator))):
            strict = False  # the bound r*base is not a Steinitz number, so S+ = S
        self.r, self.base, self.strict = r, base, strict

    @property
    def infinite(self) -> bool:
        return self.r == INF

    def text(self) -> str:
        return f"S{'+' if self.strict else ''}({dtext(self.r)}, {self.base.text()})"


_SET = re.compile(r"^S(\+?)\((.+?),(.+)\)$")


def parse_set(text: str) -> Sat:
    m = _SET.match(text.replace(" ", ""))
    if m is None:
        raise ValueError(f"not a based set: {text!r}")
    return Sat(parse_density(m.group(2)), parse_st(m.group(3)), m.group(1) == "+")


def member(S: Sat, t: St) -> bool:
    q = ratio(S.base, t)
    if q is None:
        return False
    if S.infinite:
        return True
    c = dcmp(q, S.r)
    return c < 0 if S.strict else c <= 0


def rebased(S: Sat, t: St):
    """The density of S expressed at its member t."""
    return dscale(S.r, 1 / ratio(S.base, t))


def rsub(S: Sat, t: St, b_fac: dict[int, int]):
    """max { i : i*t/b in S } for a member t and b in Omega(t)."""
    if S.infinite:
        return INF
    bound = dscale(rebased(S, t), Fraction(nat(b_fac)))
    return dceil_minus_one(bound) if S.strict else dfloor(bound)


def inclusion(S1: Sat, S2: Sat) -> str:
    """'disjoint', 'equal', 'left-in-right' or 'right-in-left'."""
    q = ratio(S1.base, S2.base)
    if q is None:
        return "disjoint"
    c = dcmp(S1.r, dscale(S2.r, q))
    if c == 0:
        # At equal density: S+ inside S inside S(inf).
        rank1, rank2 = (2 if S.infinite else 0 if S.strict else 1 for S in (S1, S2))
        c = _sign(rank1 - rank2)
    return {0: "equal", -1: "left-in-right", 1: "right-in-left"}[c]


def max_element(S: Sat) -> St | None:
    if S.infinite or S.strict or not isinstance(S.r, Fraction):
        return None
    if not S.base.divides_by(factor_small(S.r.denominator)):
        return None
    return S.base.scale(S.r)
