"""Exact arithmetic of Steinitz (supernatural) numbers.

A Steinitz number is a formal product over all primes p of p^e(p) with
exponents in {0, 1, 2, ...} or infinity.  Values here use the cofinite
presentation: a *default* exponent shared by every prime not listed, plus a
finite map of exceptional primes.  That class is closed under every
operation this package needs (lcm, finite multiplication/division, rational
scaling) and covers shapes like the product of all primes (default 1) or a
single p^inf.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

#: Exponent value standing for an infinite prime exponent.  Finite exponents
#: stay arbitrary-precision ints; only this one value is a float.
INF = math.inf

Exponent = int | float


class ParseError(ValueError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


def _parse_int(text: str, pos: int) -> int:
    """int(text), or a ParseError at ``pos`` for a malformed literal or one
    past the interpreter's int-string limit (4300 digits by default)."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        if digits.isdecimal():
            raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None
        raise ParseError(f"malformed integer {text!r}", pos) from None


_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(p for p in range(2, _TRIAL_LIMIT) if all(p % q for q in range(2, math.isqrt(p) + 1)))
_PRIMORIAL = math.prod(_SMALL_PRIMES)

# (bound, bases): being a strong probable prime to every base is exact for
# odd n < bound (Jaeschke 1993, Sinclair 2011, Sorenson and Webster 2015).
# Each range starts above its largest base, so no base is a multiple of n.
_MR_BASES = (
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (3317044064679887385961981, _SMALL_PRIMES[:13]),
)


#: Pollard-Brent step budget per composite cofactor.  Rho finds a prime
#: factor p after a small multiple of sqrt(p) steps, so this splits off
#: factors up to about 10^10.  A product of larger primes, which CLI input
#: can name, is refused after this many steps instead of running for hours.
_RHO_STEPS = 1 << 20


def _strong_probable_prime(n: int, bases) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (P = 1, Q = (1 - D)/4)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # index k = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Exact primality: trial division, then deterministic Miller-Rabin,
    then Baillie-PSW past the largest proven base set."""
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL) != 1:
        return n < _TRIAL_LIMIT and n in _SMALL_PRIMES
    if n < _TRIAL_LIMIT**2:
        return True
    for bound, bases in _MR_BASES:
        if n < bound:
            return _strong_probable_prime(n, bases)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n (Brent 1980), with one gcd per
    batch of 128 steps.  Raises ValueError once a round would take the steps
    over _RHO_STEPS, summed across every constant c tried."""
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # at most r steps to x, then r steps compared to it
            if steps > _RHO_STEPS:
                raise ValueError(f"{n} is too large to factor")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"no factor found for {n}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer as sorted (p, e) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    counts: dict[int, int] = {}
    small = math.gcd(n, _PRIMORIAL)
    for p in _SMALL_PRIMES:
        if small == 1:
            break
        if small % p == 0:
            small //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts[p] = e
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            pending += (d, m // d)
    return tuple(sorted(counts.items()))


def _check_exponent(e: Exponent) -> Exponent:
    if e is INF or e == INF:
        return INF
    if isinstance(e, int) and e >= 0:
        return e
    raise ValueError(f"exponent must be a nonnegative integer or INF, got {e!r}")


@dataclass(frozen=True)
class SteinitzNumber:
    """A Steinitz number in minimal cofinite presentation.

    ``default`` is the exponent of every prime not listed in ``exceptions``,
    given as (p, e) pairs or a dict in any order and stored sorted by prime,
    without entries equal to the default, so instances compare and hash equal
    iff they denote the same number.  Only :meth:`of` checks keys and exponents.
    """

    default: Exponent
    exceptions: tuple[tuple[int, Exponent], ...]

    def __post_init__(self):
        exc = dict(self.exceptions)
        if len(exc) != len(self.exceptions):
            raise ValueError(f"duplicate prime in exceptions {self.exceptions!r}")
        d = self.default
        object.__setattr__(self, "exceptions", tuple(sorted((p, e) for p, e in exc.items() if e != d)))

    @classmethod
    def of(cls, default: Exponent = 0, exceptions: dict[int, Exponent] | None = None) -> "SteinitzNumber":
        checked: dict[int, Exponent] = {}
        for p, e in (exceptions or {}).items():
            if not (isinstance(p, int) and _is_prime(p)):
                raise ValueError(f"exception key {p!r} is not a prime")
            checked[p] = _check_exponent(e)
        return cls(_check_exponent(default), checked)

    @classmethod
    def from_int(cls, n: int) -> "SteinitzNumber":
        """The natural number n viewed as a Steinitz number."""
        return cls(0, factorize(n))

    def valuation(self, p: int) -> Exponent:
        """Exponent of the prime p (exception value if listed, else default)."""
        for q, e in self.exceptions:
            if q == p:
                return e
            if q > p:
                break
        return self.default

    @property
    def is_natural(self) -> bool:
        return self.default == 0 and all(e != INF for _, e in self.exceptions)

    @property
    def is_infinite(self) -> bool:
        return not self.is_natural

    @property
    def is_infinity_free(self) -> bool:
        return self.default != INF and all(e != INF for _, e in self.exceptions)

    def as_int(self) -> int:
        """The value as a Python int; only defined for natural numbers."""
        if not self.is_natural:
            raise ValueError(f"{self} is not a natural number")
        n = 1
        for p, e in self.exceptions:
            n *= p ** e
        return n

    def __str__(self) -> str:
        terms = []
        for p, e in self.exceptions:
            if e == 1:
                terms.append(str(p))
            elif e == INF:
                terms.append(f"{p}^inf")
            else:
                terms.append(f"{p}^{e}")
        if self.default == 1:
            terms.append("P")
        elif self.default == INF:
            terms.append("P^inf")
        elif self.default != 0:
            terms.append(f"P^{self.default}")
        return "*".join(terms) if terms else "1"

    def __repr__(self) -> str:
        return f'SteinitzNumber("{self}")'


ONE = SteinitzNumber.of(0, {})

#: Size budget of one product literal, in bits.  A term p^e weighs e times
#: the bit length of p (p^0 and p^inf weigh it once), and P^e weighs as p^e
#: would for the largest listed prime p.  That bounds the integers that
#: ratios and as_int build from the literal, and the primes that parse tests
#: for primality (a 2048-bit test takes about 0.3 s on a 2-core Xeon).
_LITERAL_BITS = 2048

_TERM_RE = re.compile(r"^(?:(?P<prime>\d+)|(?P<all>P))(?:\^(?P<exp>\d+|inf))?$")


def parse(text: str) -> SteinitzNumber:
    """Parse the canonical product grammar.

    Terms are separated by ``*``: ``p^e`` with p a prime literal and e a
    nonnegative integer or ``inf``; a bare ``p`` means ``p^1``; at most one
    ``P^e`` term assigns e to every unlisted prime (absent means default 0).
    The literal ``1`` denotes the empty product.  A literal heavier than
    ``_LITERAL_BITS`` is refused at the term that crosses the budget.

    >>> parse("2^inf*3^2")
    SteinitzNumber("2^inf*3^2")
    """
    stripped = text.strip()
    if stripped == "1":
        return ONE
    if not stripped:
        raise ParseError("empty Steinitz expression", 0)
    exceptions: dict[int, Exponent] = {}
    default: Exponent | None = None
    offset = 0
    spent = top = 0  # the literal's weight so far; its largest prime's bit length

    def spend(bits: int, e: Exponent, pos: int) -> None:
        nonlocal spent
        spent += bits * (1 if e == INF else max(e, 1))
        if spent > _LITERAL_BITS:
            raise ParseError(f"literal exceeds the size budget of {_LITERAL_BITS} bits", pos)

    for raw in text.split("*"):
        term = raw.strip()
        pos = offset + (len(raw) - len(raw.lstrip()))
        offset += len(raw) + 1
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"malformed term {term!r}, expected p^e or P^e", pos)
        exp_text, exp_pos = m.group("exp"), pos + m.start("exp")
        e: Exponent = 1 if exp_text is None else INF if exp_text == "inf" else _parse_int(exp_text, exp_pos)
        if m.group("all"):
            if default is not None:
                raise ParseError("duplicate P term", pos)
            default, default_pos = e, pos
            continue
        p = _parse_int(m.group("prime"), pos)
        spend(p.bit_length(), e, pos)
        top = max(top, p.bit_length())
        if not _is_prime(p):
            raise ParseError(f"non-prime base {p}", pos)
        if p in exceptions:
            raise ParseError(f"duplicate prime {p}", pos)
        exceptions[p] = e
    if default is None:
        default = 0
    else:
        spend(top, default, default_pos)
    return SteinitzNumber.of(default, exceptions)


_SCALED_RE = re.compile(r"^\(\s*(\d+)\s*/\s*(\d+)\s*\)\s*\*\s*(.+)$", re.DOTALL)


def parse_scaled(text: str) -> SteinitzNumber:
    """Parse an optionally scaled literal ``(u/v)*<product>``.

    The prefix multiplies the product by the positive rational u/v; the
    reduced denominator must divide the product.  Used by the CLI, where
    members of a set are written relative to its base.
    """
    m = _SCALED_RE.match(text.strip())
    if m is None:
        return parse(text)
    lead = len(text) - len(text.lstrip())
    u, v = (_parse_int(m.group(i), lead + m.start(i)) for i in (1, 2))
    if u < 1 or v < 1:
        raise ParseError("scale factor must be a positive rational", 1)
    return scale(parse(m.group(3)), Fraction(u, v))


def omega_contains(s: SteinitzNumber, n: int) -> bool:
    """True iff the natural number n divides s (n is in Omega(s))."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return all(e <= s.valuation(p) for p, e in factorize(n))


def _aligned(s1: SteinitzNumber, s2: SteinitzNumber):
    """(p, e1, e2) for each prime listed in either operand, in no order."""
    d1, d2 = dict(s1.exceptions), dict(s2.exceptions)
    for p in d1.keys() | d2.keys():
        yield p, d1.get(p, s1.default), d2.get(p, s2.default)


def divides(s1: SteinitzNumber, s2: SteinitzNumber) -> bool:
    """Divisibility order: every valuation of s1 is <= that of s2."""
    return s1.default <= s2.default and all(e1 <= e2 for _, e1, e2 in _aligned(s1, s2))


def _shift(s: SteinitzNumber, n: int, sign: int) -> SteinitzNumber:
    # s * n**sign exponentwise; INF absorbs, and below 0 n is not in Omega(s).
    exc = dict(s.exceptions)
    for p, e in factorize(n):
        e = exc.get(p, s.default) + sign * e
        if e < 0:
            raise ValueError(f"{n} is not in Omega({s})")
        exc[p] = e
    return SteinitzNumber(s.default, exc)


def mul_natural(s: SteinitzNumber, n: int) -> SteinitzNumber:
    """Multiply by a natural number (exponentwise add; INF absorbs)."""
    if n < 1:
        raise ValueError(f"multiplier must be positive, got {n}")
    if n == 1:
        return s
    return _shift(s, n, 1)


def divide_by(s: SteinitzNumber, b: int) -> SteinitzNumber:
    """Divide by b in Omega(s) (exponentwise subtract; INF absorbs)."""
    return _shift(s, b, -1)


def scale(s: SteinitzNumber, q: Fraction | int) -> SteinitzNumber:
    """Multiply by a positive rational whose reduced denominator divides s."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"scale factor must be positive, got {q}")
    return mul_natural(divide_by(s, q.denominator), q.numerator)


def finitely_divides(s1: SteinitzNumber, s2: SteinitzNumber) -> int | None:
    """The minimal witness b in Omega(s2) with s1 = s2/b, or None.

    Requires equal defaults, equal sets of infinite-exponent primes, and
    finite nonnegative exponent deficits at the remaining primes.  Witnesses
    are not unique when s2 has an infinite prime (extra powers of it change
    nothing); the minimal one has exponent 0 there.
    """
    q = ratio_if_connected(s2, s1)
    return q.denominator if q is not None and q.numerator == 1 else None


def ratio_if_connected(s1: SteinitzNumber, s2: SteinitzNumber) -> Fraction | None:
    """The canonical ratio q with s2 = q*s1, or None when not rationally
    connected.  One sweep over the primes listed in either operand."""
    if s1.default != s2.default:
        return None
    num = den = 1
    for p, e1, e2 in _aligned(s1, s2):
        if e1 == INF or e2 == INF:
            if e1 != e2:
                return None
            continue
        if e2 > e1:
            num *= p ** (e2 - e1)
        elif e1 > e2:
            den *= p ** (e1 - e2)
    return Fraction(num, den)


def rationally_connected(s1: SteinitzNumber, s2: SteinitzNumber) -> bool:
    """True iff s2 = q*s1 for some positive rational q."""
    return ratio_if_connected(s1, s2) is not None


def canonical_ratio(s1: SteinitzNumber, s2: SteinitzNumber) -> Fraction:
    """The canonical q with s2 = q*s1, as a reduced positive fraction.

    The product runs over primes where both valuations are finite; primes
    with infinite exponent contribute exponent 0 (there the ratio is not
    unique, and this fixes the decidable representative).
    """
    q = ratio_if_connected(s1, s2)
    if q is None:
        raise ValueError(f"{s1} and {s2} are not rationally connected")
    return q


def lcm(s1: SteinitzNumber, s2: SteinitzNumber) -> SteinitzNumber:
    """Pointwise max of valuations."""
    return SteinitzNumber(max(s1.default, s2.default), {p: max(e1, e2) for p, e1, e2 in _aligned(s1, s2)})


def enumerate_omega(s: SteinitzNumber, bound: int) -> list[int]:
    """All n <= bound dividing s, ascending."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    return [n for n in range(1, bound + 1) if omega_contains(s, n)]
