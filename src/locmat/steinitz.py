"""Exact arithmetic of Steinitz (supernatural) numbers.

A Steinitz number is a formal product over all primes p of p^e(p) with
exponents in {0, 1, 2, ...} or infinity.  Values here are cofinite: a
*default* exponent shared by all but finitely many primes.  That class is
closed under every operation this package needs (lcm, finite
multiplication/division, rational scaling) and covers shapes like the
product of all primes (default 1) or a single p^inf.  The infinite exponent
``INF`` is also the infinite density, ``density.INFINITY``.  The constructor
checks its keys and exponents; ``parse``, which checks each fact as it reads
it, and arithmetic, which keeps the invariant, skip those checks.  ``parse``
reads a product literal such as ``13^4*2^0*P^2*17`` with string methods
alone, in one pass over its ``*``-separated terms: no regular expression.

A value is stored as its connectivity class plus a rational offset (see
:class:`SteinitzNumber`), because every question the saturated sets ask is
asked inside one class: two numbers are rationally connected iff their
classes are equal, and then their ratio is the quotient of the offsets.
Multiplying by a natural, dividing by one against a default of 0 or INF,
ratios and connectivity therefore factor nothing.  Factoring is left to the
``exceptions`` view (and ``str``, which reads it), to Omega membership and
division against a default of 1 or more, and to ``lcm`` and ``divides``.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from operator import attrgetter

#: Exponent value standing for an infinite prime exponent.  Finite exponents
#: stay arbitrary-precision ints; only this one value is a float.
INF = math.inf

Exponent = int | float


class _Value:
    """An immutable value whose fields ``__match_args__`` lists and ``__init__`` sets with
    ``_set``; it equals only its own class's instances, on the tuple of its fields."""

    __slots__ = ()
    _set = object.__setattr__  # bound to the instance, it writes past the refusal below

    def __init_subclass__(cls):
        names = cls.__match_args__  # attrgetter builds the tuple in C, but not of one name
        cls._values = property(attrgetter(*names) if len(names) > 1 else lambda s: tuple(map(s.__getattribute__, names)))

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ParseError(ValueError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.message, self.pos = message, pos


def _parse_at(parse_fn, text: str, start: int):
    """parse_fn(text) for a slice that starts at ``start`` in the caller's
    argument: a ParseError is raised again at its position in that argument."""
    try:
        return parse_fn(text)
    except ParseError as e:
        raise ParseError(e.message, start + e.pos) from None


def _parse_int(text: str, pos: int) -> int:
    """int(text) of a slice that starts at ``pos``, or a ParseError past its leading spaces
    for a malformed literal or one past the int-string limit (4300 digits by default)."""
    try:
        return int(text)
    except ValueError:
        pos += len(text) - len(text.lstrip())
        digits = text.strip().lstrip("+-")
        if digits.isdecimal():
            raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None
        raise ParseError(f"malformed integer {text!r}", pos) from None


def _positive_int(name: str, v: int) -> int:
    """v, when it is an int of at least 1: the one check of a count argument.
    A bool is refused, though Python counts it as an int.  The membership-test
    primitives ``mul_natural``, ``divide_by`` and ``omega_contains`` compare
    inline instead, as a call here costs a frame on every membership test."""
    if type(v) is not int:
        raise ValueError(f"{name} must be an int, got {v!r} ({type(v).__name__})")
    if v < 1:
        raise ValueError(f"{name} must be positive, got {v}")
    return v


def _eratosthenes(limit: int) -> bytearray:
    """The sieve of Eratosthenes below limit >= 2: byte n is 1 iff n is a prime."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in compress(range(math.isqrt(limit - 1) + 1), sieve):
        sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return sieve


_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(compress(range(_TRIAL_LIMIT), _eratosthenes(_TRIAL_LIMIT)))
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


#: Size of the ``_is_prime`` and ``factorize`` caches.  A long-running
#: process meets fresh naturals without end, so the caches are LRU-bounded.
_CACHE_ENTRIES = 1 << 14

#: Pollard-Brent step budget per composite cofactor of at most 128 bits.  Rho
#: finds a prime factor p after a small multiple of sqrt(p) steps, so this
#: splits off factors up to about 10^10.  A product of larger primes, which
#: CLI input can name, is refused after this many steps instead of running
#: for hours.  A step on a cofactor of k*128 bits costs about k^2 times as
#: much (schoolbook multiplication and division), so it gets 1/k^2 of the
#: budget.  ``factorize`` refuses a cofactor past _FACTOR_BITS before testing
#: it for primality, which takes about 0.3 s at that size on a 2-core Xeon.
_RHO_STEPS = 1 << 20
_FACTOR_BITS = 4096


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
    """Strong Lucas test with Selfridge's parameters (P = 1, Q = (1 - D)/4).

    Needs an odd n > 11: at the primes 5 and 11 the search for D reaches
    |D| = n and the test returns False.  ``_is_prime`` calls it past 3.3e24.
    """
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


@lru_cache(maxsize=_CACHE_ENTRIES)
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
    batch of 128 steps.  Raises ValueError once a round would take the steps,
    summed across every constant c tried, over n's share of _RHO_STEPS."""
    budget, steps = _RHO_STEPS // ((n.bit_length() + 127) >> 7) ** 2, 0
    for c in count(1):  # each c takes 2 or more steps, so the budget ends the loop
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # at most r steps to x, then r steps compared to it
            if steps > budget:
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


@lru_cache(maxsize=_CACHE_ENTRIES)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer as sorted (p, e) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    counts: dict[int, int] = {}
    small = math.gcd(n, _PRIMORIAL)  # squarefree
    for p in _SMALL_PRIMES:
        if p * p > small:
            if small == 1:
                break
            p = small  # past its square root, what is left of small is one prime
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
        if m.bit_length() > _FACTOR_BITS:
            raise ValueError(f"integer of {m.bit_length()} bits is too large to factor")
        if _is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            pending += (d, m // d)
    return tuple(sorted(counts.items()))


#: factorize without its cache, for the exceptions view of a SteinitzNumber:
#: each instance keeps its own result, and the offsets that arithmetic makes
#: rarely repeat, so caching them globally only grows the cache.
_factorize_once = factorize.__wrapped__


def _check_exponent(e: Exponent) -> Exponent:
    if e is INF or e == INF:
        return INF
    if type(e) is int and e >= 0:  # a bool is refused, though Python counts it as an int
        return e
    raise ValueError(f"exponent must be a nonnegative integer or INF, got {e!r}")


def _split(n: int, radical: int) -> tuple[int, int]:
    """(a, b) with n = a*b, where a has only prime factors of radical and b
    is coprime to it: one gcd per distinct exponent level, no factoring."""
    a = 1
    g = math.gcd(n, radical)
    while g > 1:
        n //= g
        a *= g
        g = math.gcd(n, g)
    return a, n


def _vp(n: int, p: int) -> int:
    """The exponent of the prime p in the positive integer n.  Callers pass a
    prime (with p = 1 the loop would not end); ``valuation`` checks its p."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


#: Size limit of an offset built from exponents, in bits.  A value whose
#: listed exponents lie far from its default, such as 2^0 against P^(10^12),
#: would need an int of that many bits, so the constructor refuses it.
#: Parsed literals stay far below it (see ``_LITERAL_BITS``).
_OFFSET_BITS = 1 << 20


class SteinitzNumber:
    """A Steinitz number as its connectivity class plus a rational offset.

    The core ``(default, primes)`` is the class of the number under rational
    connectivity (s1 and s2 are connected iff s2 = q*s1 for a positive
    rational q, iff their cores are equal).  For a finite default d,
    ``primes`` are the primes with infinite exponent, and the number is
    P^d * prod(p^inf for p in primes) * m.  For the default INF, ``primes``
    are the finitely many primes with a finite exponent, and the number is
    P^inf * m with m supported on them.  The offset m = num/den is kept as
    two coprime ints, free of the primes that INF absorbs, so instances
    compare and hash equal iff they denote the same number.

    ``SteinitzNumber(default, exceptions)`` builds a value from the cofinite
    presentation: ``exceptions`` are (p, e) pairs or a dict, in any order,
    possibly with entries equal to the default.  It checks that every key is
    a prime and every exponent a nonnegative int or INF, and refuses an
    offset past ``_OFFSET_BITS``.
    ``default``, ``exceptions`` (sorted, without default-valued entries) and
    ``str`` are views of the pair; the exceptions view starts from one whose
    view is known, moves the known primes that divide the ratio of the two
    offsets by valuation, factorizes only the rest of that ratio, once, and
    is cached in ``_near``.
    """

    # _near is (view, num, den): the exceptions view of the value with this
    # core and the offset num/den, this value's own once its view is read.
    __slots__ = ("_core", "_radical", "_num", "_den", "_near")

    def __init__(self, default: Exponent, exceptions: dict[int, Exponent] | tuple[tuple[int, Exponent], ...]):
        exc = dict(exceptions)
        if len(exc) != len(exceptions):
            raise ValueError(f"duplicate prime in exceptions {exceptions!r}")
        for p, e in exc.items():
            if not (isinstance(p, int) and _is_prime(p)):
                raise ValueError(f"exception key {p!r} is not a prime")
            exc[p] = _check_exponent(e)
        self._fill(_check_exponent(default), exc)

    def _fill(self, default: Exponent, exc: dict[int, Exponent]) -> "SteinitzNumber":
        """Set the fields from a checked default and checked exceptions, in one
        sorted pass; the offset's size is checked before any power is built.
        Returns self."""
        # The core lists the primes whose exponent is finite exactly when the
        # default is not; the offset is taken from P^default, or from P^0 at INF.
        at_inf = default == INF
        base = 0 if at_inf else default
        view, primes, steps, bits = [], [], [], 0
        for p, e in sorted(exc.items()):
            if e == default:
                continue
            view.append((p, e))
            if e == INF:
                primes.append(p)
                continue
            if at_inf:
                primes.append(p)
            k = e - base
            steps.append((p, k))
            bits += abs(k) * p.bit_length()
        if bits > _OFFSET_BITS:
            raise ValueError(f"offset of about {bits} bits from P^{default} exceeds {_OFFSET_BITS} bits")
        num = den = 1
        for p, k in steps:
            if k > 0:
                num *= p**k
            else:
                den *= p**-k
        primes = tuple(primes)
        self._core, self._radical = (default, primes), math.prod(primes)
        self._num, self._den = num, den
        self._near = (tuple(view), num, den)
        return self

    @classmethod
    def of(cls, default: Exponent = 0, exceptions: dict[int, Exponent] | None = None) -> "SteinitzNumber":
        return cls(default, exceptions or {})

    @classmethod
    def from_int(cls, n: int) -> "SteinitzNumber":
        """The natural number n viewed as a Steinitz number."""
        return _coset(ONE, _positive_int("n", n), 1)

    @property
    def default(self) -> Exponent:
        return self._core[0]

    @property
    def exceptions(self) -> tuple[tuple[int, Exponent], ...]:
        view, num, den = self._near
        if num == self._num and den == self._den:
            return view
        # This offset is the near one times u/w in lowest terms.  The near view's
        # primes that divide u*w move by valuation; the parts of u and w coprime
        # to them are factored, each prime starting from the default.  At INF
        # the known primes are the core's, so those parts are 1.
        d = self._core[0]
        u, w = self._num * den, self._den * num
        g = math.gcd(u, w)
        u, w = u // g, w // g
        known = [p for p, e in view if e != INF]
        radical = math.prod(known)
        (u_on, u_rest), (w_on, w_rest) = _split(u, radical), _split(w, radical)
        exc: dict[int, Exponent] = dict(view)
        moved = u_on * w_on
        exc.update((p, exc[p] + _vp(u_on, p) - _vp(w_on, p)) for p in known if moved % p == 0)
        if u_rest != 1:  # a rest of 1 has nothing to factor
            exc.update((p, d + e) for p, e in _factorize_once(u_rest))
        if w_rest != 1:
            exc.update((p, d - e) for p, e in _factorize_once(w_rest))
        view = tuple(sorted(item for item in exc.items() if item[1] != d))
        self._near = (view, self._num, self._den)
        return view

    def valuation(self, p: int) -> Exponent:
        """Exponent of the prime p."""
        if not _is_prime(p):
            raise ValueError(f"{p} is not a prime")
        d, primes = self._core
        if d == INF:
            return _vp(self._num, p) if p in primes else INF
        if p in primes:
            return INF
        return d + _vp(self._num, p) - _vp(self._den, p)

    @property
    def is_natural(self) -> bool:
        return self._core == (0, ())

    @property
    def is_infinity_free(self) -> bool:
        d, primes = self._core
        return d != INF and not primes

    def as_int(self) -> int:
        """The value as a Python int; only defined for natural numbers."""
        if not self.is_natural:
            raise ValueError(f"{self} is not a natural number")
        return self._num

    def __eq__(self, other):
        if not isinstance(other, SteinitzNumber):
            return NotImplemented
        return self._core == other._core and self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._core, self._num, self._den))

    def __str__(self) -> str:  # INF is math.inf, which prints as inf
        terms = [str(p) if e == 1 else f"{p}^{e}" for p, e in self.exceptions]
        d = self.default
        if d != 0:
            terms.append("P" if d == 1 else f"P^{d}")
        return "*".join(terms) or "1"

    def __repr__(self) -> str:
        return f'SteinitzNumber("{self}")'


def _coset(like: SteinitzNumber, num: int, den: int) -> SteinitzNumber:
    """The number with the core of ``like`` and the offset num/den, which
    must be coprime and free of the primes the core absorbs.  Its exceptions
    view starts from the nearest one known, which ``like`` holds."""
    s = object.__new__(SteinitzNumber)
    s._core, s._radical = like._core, like._radical
    s._num, s._den = num, den
    s._near = like._near
    return s


ONE = SteinitzNumber.of(0, {})

#: Size budget of one product literal, in bits.  A term p^e weighs e times
#: the bit length of p (p^0 and p^inf weigh it once), and P^e weighs as p^e
#: would for the largest listed prime p.  That bounds the integers that
#: ratios and as_int build from the literal, and the primes that parse tests
#: for primality (a 2048-bit test takes about 0.3 s on a 2-core Xeon).
_LITERAL_BITS = 2048
_BUDGET = f"literal exceeds the size budget of {_LITERAL_BITS} bits"


def parse(text: str) -> SteinitzNumber:
    """Parse the canonical product grammar.

    Terms are separated by ``*``: ``p^e`` with p a prime literal and e a
    nonnegative integer or ``inf``; a bare ``p`` means ``p^1``; at most one
    ``P^e`` term assigns e to every unlisted prime (absent means default 0).
    The literal ``1`` denotes the empty product.  A literal heavier than
    ``_LITERAL_BITS`` is refused at the term that crosses the budget.

    The text is read in one pass over ``text.split("*")``.  Each piece is
    stripped of whitespace (``str.isspace``) and split at its first ``^``:
    the head must be ``P`` or a run of decimal digits in any script
    (``str.isdecimal``, which ``int`` reads), and the exponent such a run
    or ``inf``.  An error points at its term's first character, an exponent
    too long for ``int`` at its own, and an empty term where its spaces end.
    A non-str argument is refused with TypeError.

    >>> parse("2^inf*3^2")
    SteinitzNumber("2^inf*3^2")
    """
    if not isinstance(text, str):  # a subclass is read: from_json passes its decoded strings
        raise TypeError(f"literal must be a str, got {text!r} ({type(text).__name__})")
    if (whole := text.strip()) in ("", "1"):  # the whole literal is one empty or unit term
        if whole:
            return ONE
        raise ParseError("empty Steinitz expression", len(text))
    exceptions: dict[int, Exponent] = {}
    default: Exponent | None = None
    spent = top = 0  # the literal's weight so far; its largest prime's bit length
    start = 0  # the piece's offset in text
    for piece in text.split("*"):
        rest = piece.lstrip()
        term, pos = rest.rstrip(), start + len(piece) - len(rest)
        start += len(piece) + 1  # past the piece and its ``*``
        head, caret, exp_text = term.partition("^")
        if not (head == "P" or head.isdecimal()) or caret and not (exp_text == "inf" or exp_text.isdecimal()):
            raise ParseError(f"malformed term {term!r}, expected p^e or P^e", pos)
        e: Exponent = INF if exp_text == "inf" else _parse_int(exp_text, pos + len(head) + 1) if caret else 1
        if head == "P":
            if default is not None:
                raise ParseError("duplicate P term", pos)
            default, default_pos = e, pos
        else:
            p = _parse_int(head, pos)
            bits = p.bit_length()
            spent += (bits * e) if 1 < e < INF else bits
            if spent > _LITERAL_BITS:
                raise ParseError(_BUDGET, pos)
            if bits > top:
                top = bits
            if not _is_prime(p):
                raise ParseError(f"non-prime base {p}", pos)
            if p in exceptions:
                raise ParseError(f"duplicate prime {p}", pos)
            exceptions[p] = e
    if default is None:
        default = 0
    elif spent + top * (default if 1 < default < INF else 1) > _LITERAL_BITS:
        raise ParseError(_BUDGET, default_pos)
    return object.__new__(SteinitzNumber)._fill(default, exceptions)  # every fact is checked above


_SCALED_RE = re.compile(r"\s*\(\s*(\d+)\s*/\s*(\d+)\s*\)\s*\*(\s*\S.*)", re.DOTALL)


def parse_scaled(text: str) -> SteinitzNumber:
    """Parse an optionally scaled literal ``(u/v)*<product>``.

    The prefix multiplies the product by the positive rational u/v; the
    reduced denominator must divide the product, or the error points at v.
    Used by the CLI, where members of a set are written relative to its base.
    """
    # The pattern needs a "(" after the leading space, which lstrip (str.isspace) and \s agree on;
    # str.lstrip refuses a non-str with TypeError, as parse does.
    m = _SCALED_RE.fullmatch(text) if str.lstrip(text).startswith("(") else None
    if m is None:
        return parse(text)
    u_pos, v_pos = m.start(1), m.start(2)
    u, v = _parse_int(m[1], u_pos), _parse_int(m[2], v_pos)
    if u < 1 or v < 1:
        raise ParseError("scale factor must be a positive rational", u_pos if u < 1 else v_pos)
    s, g = _parse_at(parse, m[3], m.start(3)), math.gcd(u, v)
    try:
        return mul_natural(divide_by(s, v // g), u // g)
    except ValueError as e:  # u, v >= 1: the refusals left are v's, outside Omega(s) or too large to factor
        raise ParseError(str(e), v_pos) from None


def _quotient(s: SteinitzNumber, n: int) -> tuple[int, int] | None:
    """The offset (num, den) of s/n, or None when n is not in Omega(s).

    n's part on the primes the core absorbs drops out: it keeps the part on
    the core's primes at the default INF, the part off them otherwise.  The
    defaults 0 and INF refuse a leftover denominator; a finite d >= 1 factors
    it and admits it while no prime ends up with more than d there."""
    d = s._core[0]
    on, off = _split(n, s._radical)
    kept = on if d == INF else off
    g = math.gcd(s._num, kept)
    k = kept // g
    den = s._den * k
    if k > 1 and (d == 0 or d == INF or any(_vp(den, p) > d for p, _ in factorize(k))):
        return None
    return s._num // g, den


def omega_contains(s: SteinitzNumber, n: int) -> bool:
    """True iff the natural number n divides s (n is in Omega(s))."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _quotient(s, n) is not None


def _aligned(s1: SteinitzNumber, s2: SteinitzNumber):
    """(p, e1, e2) for each prime listed in either exceptions view, in no order."""
    d1, d2 = dict(s1.exceptions), dict(s2.exceptions)
    for p in d1.keys() | d2.keys():
        yield p, d1.get(p, s1.default), d2.get(p, s2.default)


def divides(s1: SteinitzNumber, s2: SteinitzNumber) -> bool:
    """Divisibility order: every valuation of s1 is <= that of s2."""
    return s1.default <= s2.default and all(e1 <= e2 for _, e1, e2 in _aligned(s1, s2))


def mul_natural(s: SteinitzNumber, n: int) -> SteinitzNumber:
    """Multiply by a natural number (exponentwise add; INF absorbs)."""
    if n < 1:
        raise ValueError(f"multiplier must be positive, got {n}")
    if s._core[0] == INF:  # keep n's part on the core's primes, 1 at P^inf
        n = _split(n, s._radical)[0]
    elif s._radical != 1:  # keep n's part off the core's infinite primes
        n = _split(n, s._radical)[1]
    if n == 1:
        return s
    g = math.gcd(n, s._den)
    return _coset(s, s._num * (n // g), s._den // g)


def _divided(s: SteinitzNumber, b: int) -> SteinitzNumber | None:
    """s/b when the natural b is in Omega(s), else None: one test, one division."""
    m = _quotient(s, b)
    return None if m is None else _coset(s, *m)


def divide_by(s: SteinitzNumber, b: int) -> SteinitzNumber:
    """Divide by b in Omega(s) (exponentwise subtract; INF absorbs)."""
    if b < 1:
        raise ValueError(f"divisor must be positive, got {b}")
    if (u := _divided(s, b)) is None:
        raise ValueError(f"{b} is not in Omega({s})")
    return u


def _rational_parts(name: str, q: Fraction | int) -> tuple[int, int]:
    """(numerator, denominator) of an int (not a bool) or a Fraction q, with no Fraction built."""
    if type(q) is not int and not isinstance(q, Fraction):
        raise ValueError(f"{name} must be an int or a Fraction, got {q!r} ({type(q).__name__})")
    return q.numerator, q.denominator


def scale(s: SteinitzNumber, q: Fraction | int) -> SteinitzNumber:
    """Multiply by a positive rational whose reduced denominator divides s."""
    n, d = _rational_parts("scale factor", q)
    if n < 1:
        raise ValueError(f"scale factor must be positive, got {q}")
    return mul_natural(divide_by(s, d), n)


def _ratio_pair(s1: SteinitzNumber, s2: SteinitzNumber) -> tuple[int, int] | None:
    """(n, d) with s2 = (n/d)*s1, not reduced, or None when not rationally
    connected: one core comparison, then the quotient of the offsets."""
    if s1._core != s2._core:
        return None
    return s2._num * s1._den, s2._den * s1._num


def ratio_if_connected(s1: SteinitzNumber, s2: SteinitzNumber) -> Fraction | None:
    """The canonical ratio q with s2 = q*s1, or None when not rationally
    connected.  q has no factor of a prime with infinite exponent, where the
    ratio is not unique; s1 = s2/b for a natural b exactly when q = 1/b."""
    q = _ratio_pair(s1, s2)
    return None if q is None else Fraction(*q)


def lcm(s1: SteinitzNumber, s2: SteinitzNumber) -> SteinitzNumber:
    """Pointwise max of valuations."""
    exc = {p: max(e1, e2) for p, e1, e2 in _aligned(s1, s2)}
    return object.__new__(SteinitzNumber)._fill(max(s1.default, s2.default), exc)  # its primes come from checked values


def enumerate_omega(s: SteinitzNumber, bound: int) -> list[int]:
    """All n <= bound dividing s, ascending, by a sieve: each prime p <= bound
    whose finite exponent v in s has p^(v+1) <= bound strikes the multiples
    of p^(v+1).  It reserves about 2 bytes per n up to ``bound`` (the marks
    and the primes' sieve) before it returns anything, and takes one
    valuation per prime up to it.  A sweep that may stop early tests each n
    itself instead, in constant memory."""
    _positive_int("bound", bound)
    keep = bytearray([0]) + bytearray([1]) * bound
    top = bound.bit_length()
    for p in compress(range(bound + 1), _eratosthenes(bound + 1)):
        v = s.valuation(p)
        if v < top and (q := p ** (v + 1)) <= bound:  # past top, and at INF, p^(v+1) > 2^top > bound
            keep[q::q] = bytes(len(range(q, bound + 1, q)))
    return list(compress(range(bound + 1), keep))
