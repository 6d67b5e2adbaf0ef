"""Equivalence sweep over the member sampler and extensional equality.

Draws seeded saturated sets with locmat's own constructors (segments, N,
infinite types, closed and strict finite types with rational or surd
densities) plus raw ``FiniteType`` descriptors over bases with an infinite
prime, whose constructor form would collapse.  For each set it lists
``sample_members`` at (den_bound, limit) = (256, 100), (30, 40) and
(12, None), then the ``equals_extensional`` verdicts against an equal
partner and against a different one.  ``tools/sweeps.py`` runs it.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction

import locmat
from locmat import FiniteType
from locmat.density import INFINITY, Surd, format_density, scale_density
from locmat.steinitz import INF, SteinitzNumber, divide_by, enumerate_omega, parse

SETS = 1500
SEED = 20261018
_PRIMES = (2, 3, 5, 7, 11)
_SAMPLES = ((256, 100), (30, 40), (12, None))
_RAW_BASES = ("2^inf", "2^inf*3", "P*7^inf")


def _base(rng: random.Random, infinity_free: bool) -> SteinitzNumber:
    """An infinite base: default 1 or 2 with finite exceptions, or, when
    infinite primes are allowed, some p^inf or the default INF."""
    exc = {p: rng.randint(0, 3) for p in rng.sample(_PRIMES, rng.randint(0, 3))}
    if infinity_free:
        return SteinitzNumber.of(rng.choice((1, 1, 2)), exc)
    pick = rng.random()
    if pick < 0.3:
        return SteinitzNumber.of(INF, exc)
    exc[rng.choice(_PRIMES)] = INF
    return SteinitzNumber.of(rng.choice((0, 0, 1)), exc)


def _density(rng: random.Random):
    """A density of at least 1: a rational u/v or a surd (x + y*sqrt(d))/z."""
    if rng.random() < 0.3:
        z = rng.randint(1, 3)
        return Surd.make(rng.randint(z, 6), rng.randint(1, 3), rng.choice((2, 3, 5, 6)), z)
    v = rng.randint(1, 8)
    return Fraction(rng.randint(v, 6 * v), v)


def _set(rng: random.Random) -> tuple[str, locmat.SaturatedSet]:
    pick = rng.random()
    if pick < 0.05:
        return "segment", locmat.Segment(rng.randint(1, 60))
    if pick < 0.08:
        return "naturals", locmat.ALL_NATURALS
    if pick < 0.25:
        return "inf", locmat.mk_inf_type(_base(rng, infinity_free=rng.random() < 0.5))
    if pick < 0.4:
        base = parse(rng.choice(_RAW_BASES))
        if rng.random() < 0.5:
            base = _base(rng, infinity_free=False)
        return "raw", FiniteType(_density(rng), base, rng.random() < 0.4)
    return "finite", locmat.mk_finite_type(_density(rng), _base(rng, infinity_free=True), rng.random() < 0.4)


def _plus_two(r):
    return Surd.make(r.x + 2 * r.z, r.y, r.d, r.z) if isinstance(r, Surd) else r + 2


def _rebased(S: locmat.SaturatedSet, b: int) -> locmat.SaturatedSet:
    """The same set written over the base divided by b, b in Omega(base)."""
    base, r = divide_by(S.base, b), scale_density(S.r, Fraction(b))
    if isinstance(S, FiniteType) and not S.base.is_infinity_free:
        return FiniteType(r, base, S.strict)
    if r is INFINITY:
        return locmat.mk_inf_type(base)
    return locmat.mk_finite_type(r, base, S.strict)


def _partners(rng: random.Random, kind: str, S: locmat.SaturatedSet):
    """An equal set and a different one (larger, or over another class)."""
    if kind == "segment":
        return locmat.Segment(S.n), locmat.Segment(S.n + rng.randint(1, 3))
    if kind == "naturals":
        return S, locmat.Segment(rng.randint(1, 60))
    b = rng.choice(enumerate_omega(S.base, 12))
    equal = locmat.mk_inf_type(S.base) if kind == "raw" and rng.random() < 0.5 else _rebased(S, b)
    if rng.random() < 0.5:
        other = locmat.mk_inf_type(_base(rng, infinity_free=True))
    elif S.r is INFINITY:
        other = locmat.mk_finite_type(Fraction(rng.randint(1, 5)), _base(rng, infinity_free=True))
    else:
        r = _plus_two(S.r)
        other = FiniteType(r, S.base, False) if kind == "raw" else locmat.mk_finite_type(r, S.base)
    return equal, other


def _label(kind: str, S: locmat.SaturatedSet) -> str:
    if kind == "raw":
        return f"raw S{'+' if S.strict else ''}({format_density(S.r)}, {S.base})"
    return locmat.format_set(S)


def sweep_line(rng: random.Random) -> str:
    kind, S = _set(rng)
    out = [_label(kind, S)]
    for den_bound, limit in _SAMPLES:
        members = locmat.sample_members(S, den_bound=den_bound, limit=limit)
        out.append(f"{den_bound}/{limit}:{len(members)}:" + ",".join(map(str, members)))
    for T in _partners(rng, kind, S):
        out.append(f"eq {locmat.format_set(T)} {locmat.equals_extensional(S, T)}")
    return " | ".join(out)


def lines() -> Iterator[str]:
    rng = random.Random(SEED)
    for i in range(SETS):
        yield f"{i} {sweep_line(rng)}"
