"""Exact density values: rationals, quadratic surds, and infinity.

Densities of saturated sets are rationals, numbers (x + y*sqrt(d))/z with d
squarefree, or infinite.  Every comparison here is decided by integer
arithmetic (sign analysis and math.isqrt), never by floating point, so the
order predicates a <= r*b used in membership tests are exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .steinitz import ParseError, factorize


class InfiniteDensity:
    """Singleton for the infinite density (infinite-type sets)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = InfiniteDensity()


def _sign(n) -> int:
    return (n > 0) - (n < 0)


def _sign_single(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and squarefree d > 1.

    Never returns 0 with b != 0: that would make sqrt(d) rational.
    """
    if b == 0:
        return _sign(a)
    if b < 0:
        return -_sign_single(-a, -b, d)
    if a >= 0:
        return 1
    return _sign(b * b * d - a * a)


def _cmp_surd_rational(x: int, y: int, d: int, z: int, num: int, den: int) -> int:
    """(x + y*sqrt(d))/z versus num/den, all integers, y > 0, z, den > 0."""
    a = x * den - num * z
    if a >= 0:
        return 1
    b = y * den
    return _sign(b * b * d - a * a)


def _squarefree_split(d: int) -> tuple[int, int]:
    """d = k^2 * m with m squarefree; returns (k, m)."""
    k, m = 1, 1
    for p, e in factorize(d):
        k *= p ** (e // 2)
        if e % 2:
            m *= p
    return k, m


@dataclass(frozen=True)
class Surd:
    """(x + y*sqrt(d))/z with y > 0, z > 0, d squarefree > 1, gcd(x,y,z) = 1.

    Always irrational under those invariants; construct via :meth:`make`,
    which normalizes square parts and common factors.
    """

    x: int
    y: int
    d: int
    z: int

    @classmethod
    def make(cls, x: int, y: int, d: int, z: int) -> "Surd | Fraction":
        if z == 0:
            raise ValueError("zero denominator")
        if z < 0:
            x, y, z = -x, -y, -z
        if d < 1:
            raise ValueError(f"radicand must be positive, got {d}")
        k, m = _squarefree_split(d)
        y *= k
        if m == 1 or y == 0:
            return Fraction(x + y * m, z)
        if y < 0:
            raise ValueError("surd part must be positive")
        g = math.gcd(math.gcd(abs(x), y), z)
        return cls(x // g, y // g, m, z // g)

    def _cmp(self, other) -> int:
        """Three-way exact comparison against Surd, Fraction or int."""
        if isinstance(other, int):
            return _cmp_surd_rational(self.x, self.y, self.d, self.z, other, 1)
        if isinstance(other, Fraction):
            return _cmp_surd_rational(self.x, self.y, self.d, self.z, other.numerator, other.denominator)
        if not isinstance(other, Surd):
            return NotImplemented
        x1, y1, d1, z1 = self.x, self.y, self.d, self.z
        x2, y2, d2, z2 = other.x, other.y, other.d, other.z
        if d1 == d2:
            return _sign_single(x1 * z2 - x2 * z1, y1 * z2 - y2 * z1, d1)
        # Compare B*sqrt(d1) - E*sqrt(d2) against R, squaring once; B, E > 0.
        big_b, big_e, r = y1 * z2, y2 * z1, x2 * z1 - x1 * z2
        s_t = 1 if big_b * big_b * d1 > big_e * big_e * d2 else -1
        s_r = _sign(r)
        if s_t != s_r:
            return s_t
        g = math.gcd(d1, d2)
        m = (d1 // g) * (d2 // g)
        s2 = _sign_single(big_b * big_b * d1 + big_e * big_e * d2 - r * r, -2 * big_b * big_e * g, m)
        return s_t * s2

    def __eq__(self, other):
        if isinstance(other, Surd):
            return (self.x, self.y, self.d, self.z) == (other.x, other.y, other.d, other.z)
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash(("surd", self.x, self.y, self.d, self.z))

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __repr__(self):
        return f"({self.x}+{self.y}*sqrt({self.d}))/{self.z}"


#: A density value: exact rational, exact quadratic surd, or infinity.
Density = Fraction | Surd | InfiniteDensity


def cmp_density(a: Density, b: Density) -> int:
    """Three-way comparison across all density kinds (INFINITY is largest)."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return _sign(a.numerator * b.denominator - b.numerator * a.denominator)
    if a is INFINITY and b is INFINITY:
        return 0
    if a is INFINITY:
        return 1
    if b is INFINITY:
        return -1
    if isinstance(a, Surd):
        return a._cmp(b)
    if isinstance(b, Surd):
        return -b._cmp(a)
    return _sign(a - b)


def scale_density(r: Density, q: Fraction) -> Density:
    """r * q for a positive rational q."""
    if q <= 0:
        raise ValueError(f"scale factor must be positive, got {q}")
    if r is INFINITY:
        return INFINITY
    if isinstance(r, Surd):
        return Surd.make(r.x * q.numerator, r.y * q.numerator, r.d, r.z * q.denominator)
    return r * q


def floor_times(r: Fraction | Surd, b: int) -> int:
    """floor(r * b), exactly.

    For a surd (x + y*sqrt(d))/z the value x*b + y*b*sqrt(d) lies strictly
    between consecutive integers K and K+1 with K = x*b + isqrt((y*b)^2 d)
    (the radicand is never a perfect square), and floor of anything in that
    open interval divided by z is K // z.
    """
    if isinstance(r, Surd):
        t = r.y * b
        return (r.x * b + math.isqrt(t * t * r.d)) // r.z
    return (r.numerator * b) // r.denominator


def times_is_integer(r: Fraction | Surd, b: int) -> bool:
    """Whether r * b is an integer (never, for surds)."""
    if isinstance(r, Surd):
        return False
    return r.numerator * b % r.denominator == 0


_SURD_RE = re.compile(r"^\(\s*(-?\d+)\s*\+\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(\d+)$")
_SQRT_RE = re.compile(r"^sqrt\(\s*(\d+)\s*\)$")
_RAT_RE = re.compile(r"^(\d+)\s*(?:/\s*(\d+))?$")


def parse_density(text: str) -> Density:
    """Parse ``inf``, ``u/v``, ``u``, ``(x+y*sqrt(d))/z`` or ``sqrt(d)``."""
    t = text.strip()
    if t == "inf":
        return INFINITY
    lead = len(text) - len(text.lstrip())

    def nonzero(m: re.Match, group: int, what: str) -> int:
        v = int(m.group(group))
        if v == 0:
            raise ParseError(f"zero {what} in density {text!r}", lead + m.start(group))
        return v

    m = _RAT_RE.match(t)
    if m:
        return Fraction(int(m.group(1)), 1 if m.group(2) is None else nonzero(m, 2, "denominator"))
    m = _SQRT_RE.match(t)
    if m:
        return Surd.make(0, 1, nonzero(m, 1, "radicand"), 1)
    m = _SURD_RE.match(t)
    if m:
        return Surd.make(int(m.group(1)), int(m.group(2)), nonzero(m, 3, "radicand"), nonzero(m, 4, "denominator"))
    raise ParseError(f"malformed density {text!r}, expected inf, u/v or (x+y*sqrt(d))/z", 0)


def format_density(r: Density) -> str:
    if r is INFINITY:
        return "inf"
    if isinstance(r, Surd):
        return f"({r.x}+{r.y}*sqrt({r.d}))/{r.z}"
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"
