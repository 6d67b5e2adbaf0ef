"""Exact density values: rationals, quadratic surds, and infinity.

Densities of saturated sets are rationals, numbers (x + y*sqrt(d))/z with d
squarefree, or infinite.  Every comparison here is decided by integer
arithmetic (sign analysis and math.isqrt), never by floating point, so the
order predicates a <= r*b used in membership tests are exact.  The infinite
density ``INFINITY`` is ``steinitz.INF``, the one infinity of the package,
which also stands for an infinite prime exponent.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .steinitz import INF, ParseError, _parse_int, _Value, factorize

#: The infinite density of the infinite-type sets.
INFINITY = INF


def _sign(n) -> int:
    return (n > 0) - (n < 0)


def _sign_single(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and d squarefree (d > 1 unless b = 0):
    the one sign rule of the exact densities.

    With s the sign of b != 0, the sign is s where a agrees with it (a*s >= 0),
    else s times the sign of b^2 d - a^2.  Never returns 0 with b != 0: that
    would make sqrt(d) rational.
    """
    if b == 0:
        return _sign(a)
    s = 1 if b > 0 else -1
    return s if a * s >= 0 else s * _sign(b * b * d - a * a)


def _squarefree_split(d: int) -> tuple[int, int]:
    """d = k^2 * m with m squarefree; returns (k, m)."""
    k, m = 1, 1
    for p, e in factorize(d):
        k *= p ** (e // 2)
        if e % 2:
            m *= p
    return k, m


@functools.total_ordering
class Surd(_Value):
    """(x + y*sqrt(d))/z with y > 0, z > 0, d squarefree > 1, gcd(x,y,z) = 1.

    Always irrational under those invariants, which the constructor checks;
    :meth:`make` normalizes square parts and common factors to meet them.
    A Surd never equals an int or a Fraction.
    """

    __slots__ = __match_args__ = ("x", "y", "d", "z")

    def __init__(self, x: int, y: int, d: int, z: int):
        if not (
            type(x) is type(y) is type(d) is type(z) is int
            and y > 0 and z > 0 and d > 1 and math.gcd(x, y, z) == 1 and _squarefree_split(d)[0] == 1
        ):
            raise ValueError(f"Surd{(x, y, d, z)} is not in normal form: build it with Surd.make")
        self._fill(x, y, d, z)

    def _fill(self, x: int, y: int, d: int, z: int) -> "Surd":
        """Set the fields of a checked normal form; returns self."""
        self._set("x", x)
        self._set("y", y)
        self._set("d", d)
        self._set("z", z)
        return self

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
        return object.__new__(cls)._fill(x // g, y // g, m, z // g)  # m is squarefree, the rest reduced above

    def __lt__(self, other):
        if type(other) is bool or not isinstance(other, (int, Fraction, Surd)):
            return NotImplemented
        return cmp_density(self, other) < 0

    def __repr__(self):
        return format_density(self)


#: A density value: exact rational, exact quadratic surd, or INFINITY.
Density = Fraction | Surd | float


def _parts(r: int | Fraction | Surd) -> tuple[int, int, int, int]:
    """(x, y, d, z) with r = (x + y*sqrt(d))/z and z > 0; a rational has y = 0, d = 1.
    The one check of a finite density: it refuses all but an int (not a bool), a Fraction or a Surd."""
    if isinstance(r, Surd):
        return r.x, r.y, r.d, r.z
    if type(r) is bool or not isinstance(r, (int, Fraction)):
        raise ValueError(f"density must be an int, a Fraction or a Surd, got {r!r} ({type(r).__name__})")
    return r.numerator, 0, 1, r.denominator


def _cmp_scaled(pa: tuple[int, int, int, int] | None, pb: tuple[int, int, int, int] | None, n: int, d: int) -> int:
    """Sign of a - b*n/d for ints n, d > 0, where pa and pb are the parts of a
    and b, or None for INFINITY: b's parts scale to (x*n, y*n, D, z*d), unreduced."""
    if pa is None or pb is None:
        return (pa is None) - (pb is None)
    x1, y1, d1, z1 = pa
    x2, y2, d2, z2 = pb
    # a - b*n/d has the sign of r + p*sqrt(d1) - q*sqrt(d2), with p, q >= 0.
    r, p, q = x1 * z2 * d - x2 * n * z1, y1 * z2 * d, y2 * n * z1
    if d1 == d2 or 1 in (d1, d2):  # one radicand: the other side has q or p = 0
        return _sign_single(r, p - q, max(d1, d2))
    # Distinct radicands: t = p*sqrt(d1) - q*sqrt(d2) against -r.  Where the
    # signs agree, compare squares: t^2 = p^2 d1 + q^2 d2 - 2pq*g*sqrt(m).
    s_t = 1 if p * p * d1 > q * q * d2 else -1
    if s_t != -_sign(r):
        return s_t
    g = math.gcd(d1, d2)
    return s_t * _sign_single(p * p * d1 + q * q * d2 - r * r, -2 * p * q * g, (d1 // g) * (d2 // g))


def cmp_density(a: Density, b: Density) -> int:
    """Three-way comparison across all density kinds (INFINITY is largest)."""
    return _cmp_scaled(None if a is INFINITY else _parts(a), None if b is INFINITY else _parts(b), 1, 1)


def cmp_ratio(n: int, d: int, parts: tuple[int, int, int, int]) -> int:
    """Sign of n/d - r for d > 0, where ``parts`` are ``_parts(r)`` of a finite
    density r, without building a Fraction.

    With r = (x + y*sqrt(D))/z, n/d - r has the sign of a - y*d*sqrt(D)
    with a = n*z - x*d, as d*z > 0: ``_sign_single(a, -y*d, D)``.  For a
    surd y*d > 0: that is -1 when a <= 0, else the sign of a^2 - y^2 d^2 D,
    never 0 as D is squarefree.  A rational has y = 0: the sign of a.
    """
    x, y, D, z = parts
    return _sign_single(n * z - x * d, -y * d, D)


def scale_density(r: Density, q: Fraction) -> Density:
    """r * q for a positive rational q."""
    if q <= 0:
        raise ValueError(f"scale factor must be positive, got {q}")
    if r is INFINITY:
        return INFINITY
    x, y, d, z = _parts(r)
    return Surd.make(x * q.numerator, y * q.numerator, d, z * q.denominator)


def floor_times(parts: tuple[int, int, int, int], b: int, c: int = 1) -> int:
    """floor(r * b / c) for c > 0, exactly, where ``parts`` are ``_parts(r)``
    of a finite density r.

    For a surd (x + y*sqrt(d))/z the value x*b + y*b*sqrt(d) lies strictly
    between consecutive integers K and K+1 with K = x*b + isqrt((y*b)^2 d)
    (the radicand is never a perfect square), and floor of anything in that
    open interval divided by z*c is K // (z*c).  A rational has y = 0.
    """
    x, y, d, z = parts
    t = y * b
    return (x * b + math.isqrt(t * t * d)) // (z * c)


#: One form with the spaces around it, or ``bad`` from the first character on.
_DENSITY_RE = re.compile(
    r"\s*(?:(?:(?P<inf>inf)|(?P<u>\d+)(?:\s*/\s*(?P<v>\d+))?|sqrt\(\s*(?P<root>\d+)\s*\)|\(\s*(?P<x>-?\d+)\s*\+"
    r"\s*(?P<y>\d+)\s*\*\s*sqrt\(\s*(?P<d>\d+)\s*\)\s*\)\s*/\s*(?P<z>\d+))\s*\Z|(?P<bad>.*))",
    re.DOTALL,
)


def parse_density(text: str) -> Density:
    """Parse ``inf``, ``u/v``, ``u``, ``(x+y*sqrt(d))/z`` or ``sqrt(d)``."""
    m = _DENSITY_RE.match(text)
    if m["inf"]:
        return INFINITY

    def number(group: str, nonzero: str = "") -> int:
        # ``nonzero`` names the part that must not be 0.
        pos = m.start(group)
        v = _parse_int(m[group], pos)
        if nonzero and v == 0:
            raise ParseError(f"zero {nonzero} in density {text!r}", pos)
        return v

    if m["u"]:
        return Fraction(number("u"), 1 if m["v"] is None else number("v", "denominator"))
    if m["root"] or m["x"]:
        x, y, g = (number("x"), number("y"), "d") if m["x"] else (0, 1, "root")
        d, z = number(g, "radicand"), (number("z", "denominator") if m["x"] else 1)
        try:
            return Surd.make(x, y, d, z)
        except ValueError as e:  # a radicand that factorize cannot split
            raise ParseError(str(e), m.start(g)) from None
    raise ParseError(f"malformed density {text!r}, expected inf, u/v or (x+y*sqrt(d))/z", m.start("bad"))


def format_density(r: Density) -> str:
    if r is INFINITY:
        return "inf"
    x, y, d, z = _parts(r)
    if y:
        return f"({x}+{y}*sqrt({d}))/{z}"
    return str(x) if z == 1 else f"{x}/{z}"
