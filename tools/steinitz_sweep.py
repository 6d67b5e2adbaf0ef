"""Seeded equivalence sweep over the Steinitz-number operations.

Draws operand pairs (s1, s2) of Steinitz numbers, a natural n, a positive
rational q and a density, then makes one line per pair holding the result,
or the exception type and message, of every public ``locmat.steinitz``
operation on them, plus ``contains``, ``r_sub``, ``density`` and
``compare_inclusion`` on saturated sets built over the two numbers.  Hash
values are not listed (they may change with the representation); equal
values must hash equal, and a line records that.  ``tools/sweeps.py`` runs it.

Only small primes and exponents appear, so nothing hits the factorization
budget.  100,000 pairs take about a minute on a 2-core Xeon.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction

from locmat import saturated, steinitz
from locmat.density import INFINITY, Surd, format_density
from locmat.steinitz import INF, SteinitzNumber

PAIRS = 100_000
SEED = 20261018
_PRIMES = (2, 3, 5, 7, 11, 13)
_RARE_PRIMES = (101, 1009, 10007)
_PROBES = (2, 3, 5, 7, 13, 101, 10007, 17)


def _exponent(rng: random.Random):
    return INF if rng.random() < 0.15 else rng.randint(0, 5)


def _number(rng: random.Random) -> SteinitzNumber:
    default = rng.choice((0, 0, 1, 1, 2, INF))
    exc = {p: _exponent(rng) for p in rng.sample(_PRIMES, rng.randint(0, 4))}
    if rng.random() < 0.1:
        exc[rng.choice(_RARE_PRIMES)] = _exponent(rng)
    return SteinitzNumber.of(default, exc)


def _natural(rng: random.Random) -> int:
    pick = rng.random()
    if pick < 0.02:
        return rng.choice((0, -3))
    if pick < 0.5:
        return rng.randint(1, 60)
    if pick < 0.8:
        n = 1
        for p in rng.sample(_PRIMES, rng.randint(1, 3)):
            n *= p ** rng.randint(1, 4)
        return n
    return rng.randint(1, 10**6)


def _density(rng: random.Random):
    pick = rng.random()
    if pick < 0.15:
        return INFINITY
    if pick < 0.3:
        return Surd.make(rng.randint(-3, 6), rng.randint(1, 3), rng.choice((2, 3, 5, 6)), rng.randint(1, 4))
    return Fraction(rng.randint(1, 40), rng.randint(1, 12))


def _pair(rng: random.Random) -> tuple[SteinitzNumber, SteinitzNumber]:
    """Independent numbers, or a second number connected to the first."""
    s1 = _number(rng)
    pick = rng.random()
    if pick < 0.4:
        return s1, _number(rng)
    if pick < 0.5:
        return s1, steinitz.parse(str(s1))
    exc = dict(s1.exceptions)
    for p in rng.sample(_PRIMES, rng.randint(1, 3)):
        if s1.valuation(p) != INF:
            exc[p] = rng.randint(0, 6)
    return s1, SteinitzNumber(s1.default, exc)


def _call(fn, *args) -> str:
    try:
        return _show(fn(*args))
    except (ValueError, ArithmeticError, TypeError) as e:
        return f"{type(e).__name__}: {e}"


def _show(v) -> str:
    if isinstance(v, saturated.SaturatedSet):
        return saturated.format_set(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_show(x) for x in v) + "]"
    if isinstance(v, saturated.Inclusion):
        return v.value
    return format_density(v) if isinstance(v, Surd) else str(v)


def _set(r, s: SteinitzNumber, strict: bool):
    if r is INFINITY:
        return saturated.mk_inf_type(s)
    return saturated.mk_finite_type(r, s, strict)


def sweep_line(rng: random.Random) -> str:
    s1, s2 = _pair(rng)
    n, b = _natural(rng), _natural(rng)
    q = Fraction(_natural(rng), _natural(rng) or 1)
    r1, r2 = _density(rng), _density(rng)
    strict1, strict2 = rng.random() < 0.4, rng.random() < 0.4
    st = steinitz
    out = [
        str(s1), repr(s2), str(s1 == s2), str(s1 != s2),
        str(hash(s1) == hash(s2)) if s1 == s2 else "-",
        _show(s1.default), _show(s1.exceptions), _show(s2.exceptions),
        _show([s1.valuation(p) for p in _PROBES]),
        _show([s1.is_natural, s1.is_infinity_free]),
        _call(s1.as_int), _call(s2.as_int),
        _call(st.parse, str(s1)) + "=" + str(st.parse(str(s1)) == s1),
        _call(st.SteinitzNumber.from_int, n),
        _call(st.omega_contains, s1, n), _call(st.omega_contains, s2, b),
        _call(st.enumerate_omega, s1, 30),
        _call(st.mul_natural, s1, n), _call(st.mul_natural, s2, b),
        _call(st.divide_by, s1, n), _call(st.divide_by, s2, b),
        _call(st.scale, s1, q), _call(st.scale, s2, 1 / q if q else q),
        _call(st.ratio_if_connected, s1, s2), _call(st.ratio_if_connected, s2, s1),
        _call(st.divides, s1, s2), _call(st.divides, s2, s1),
        _call(st.lcm, s1, s2),
        _call(st.parse_scaled, f"({abs(n) or 1}/{abs(b) or 1})*{s1}"),
    ]
    try:
        S1, S2 = _set(r1, s1, strict1), _set(r2, s2, strict2)
    except ValueError as e:
        out.append(f"set: {e}")
    else:
        out += [
            _show(S1), _show(S2),
            _call(saturated.contains, S1, s2), _call(saturated.contains, S2, s1),
            _call(saturated.contains, S1, st.mul_natural(s1, abs(n) or 1)),
            _call(saturated.r_sub, S1, s2, b), _call(saturated.r_sub, S2, s2, abs(n) or 1),
            _call(saturated.density, S1, s2), _call(saturated.density, S2, s1),
            _call(saturated.compare_inclusion, S1, S2), _call(saturated.compare_inclusion, S2, S1),
            _call(saturated.max_element, S1),
        ]
    return " | ".join(out)


def lines() -> Iterator[str]:
    rng = random.Random(SEED)
    for i in range(PAIRS):
        yield f"{i} {sweep_line(rng)}"
