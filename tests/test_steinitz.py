"""Steinitz number arithmetic: worked examples and algebraic laws."""

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locmat import steinitz
from locmat.steinitz import (
    INF,
    ONE,
    ParseError,
    SteinitzNumber,
    divide_by,
    _is_prime,
    divides,
    enumerate_omega,
    factorize,
    iter_omega,
    lcm,
    mul_natural,
    omega_contains,
    parse,
    parse_scaled,
    ratio_if_connected,
    scale,
)


def test_small_primes_are_the_primes_below_the_trial_limit():
    # Reference: trial division by every smaller candidate.
    want = tuple(n for n in range(2, 1000) if all(n % d for d in range(2, n)))
    assert len(want) == 168 and want[-1] == 997
    assert steinitz._SMALL_PRIMES == want
    assert steinitz._PRIMORIAL == math.prod(want)


def trial_valuation(n: int, p: int) -> int:
    # Independent oracle: p-adic valuation by repeated division.
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_sieve(bound: int) -> list[int]:
    # Independent oracle for Omega(product of all primes): squarefree n.
    out = []
    for n in range(1, bound + 1):
        if all(n % (p * p) != 0 for p in range(2, n + 1)):
            out.append(n)
    return out


P_ALL = parse("P")


class TestParse:
    def test_exponent_map(self):
        s = parse("2^inf*3^2")
        assert s.default == 0
        assert s.exceptions == ((2, INF), (3, 2))

    def test_default_term(self):
        s = parse("P^1*2^3")
        assert s.default == 1
        assert s.exceptions == ((2, 3),)

    def test_non_prime_base(self):
        with pytest.raises(ParseError):
            parse("4^2")

    def test_duplicate_prime(self):
        with pytest.raises(ParseError):
            parse("2*2^3")

    def test_duplicate_default(self):
        with pytest.raises(ParseError):
            parse("P*P^2")

    def test_malformed_exponent(self):
        with pytest.raises(ParseError):
            parse("2^-1")

    def test_one(self):
        assert parse("1") == ONE
        assert str(ONE) == "1"

    def test_bare_prime_means_exponent_one(self):
        assert parse("5") == SteinitzNumber.of(0, {5: 1})

    def test_exponent_zero_exception_kept(self):
        s = parse("2^0*P")
        assert s.valuation(2) == 0
        assert s.valuation(3) == 1

    def test_scaled_literal(self):
        assert parse_scaled("(1/2)*P^1") == divide_by(P_ALL, 2)
        assert parse_scaled("2^3") == parse("2^3")

    def test_error_position(self):
        with pytest.raises(ParseError, match="position 4"):
            parse("2^3*.9")


class TestValuation:
    def test_exception_lookup(self):
        assert parse("P^1*2^3").valuation(2) == 3

    def test_default(self):
        assert parse("P^1*2^3").valuation(5) == 1
        assert parse("2^inf*3^2").valuation(7) == 0

    @pytest.mark.parametrize("text,p", [("P", 4), ("2^3*P", 6), ("2^inf", 4), ("P^inf", 1)])
    def test_non_prime_refused(self, text, p):
        # 4 does not divide P, and every power of 4 divides 2^inf: no single
        # exponent answers for a composite, and 1 has none at all.
        with pytest.raises(ValueError, match=f"^{p} is not a prime$"):
            parse(text).valuation(p)


class TestOmega:
    def test_componentwise(self):
        assert omega_contains(parse("2^inf*3"), 12)

    def test_trial_division_oracle(self):
        # 4 does not divide the product of all primes: v2(4) = 2 > 1.
        assert trial_valuation(4, 2) == 2
        assert not omega_contains(P_ALL, 4)

    def test_one_divides_everything(self):
        for s in (ONE, P_ALL, parse("2^inf")):
            assert omega_contains(s, 1)

    def test_enumerate_squarefree(self):
        assert enumerate_omega(P_ALL, 10) == [1, 2, 3, 5, 6, 7, 10]
        assert enumerate_omega(P_ALL, 40) == squarefree_sieve(40)

    def test_enumerate_powers_of_two(self):
        assert enumerate_omega(parse("2^inf"), 8) == [1, 2, 4, 8]

    def test_enumerate_one(self):
        assert enumerate_omega(ONE, 10) == [1]

    def test_enumerate_omega_sieves_instead_of_testing_each_n(self):
        want = squarefree_sieve(210)
        with mock.patch.object(steinitz, "omega_contains", wraps=omega_contains) as test:
            assert enumerate_omega(P_ALL, 210) == want
        assert test.call_count == 0

    def test_iter_omega_is_lazy_and_checks_its_bound_at_the_call(self):
        with pytest.raises(ValueError):
            iter_omega(P_ALL, 0)
        it = iter_omega(P_ALL, 10**12)  # a list would never finish
        assert [next(it) for _ in range(7)] == [1, 2, 3, 5, 6, 7, 10]
        assert list(iter_omega(parse("2^inf*3"), 40)) == enumerate_omega(parse("2^inf*3"), 40)


class TestDivides:
    def test_componentwise(self):
        assert divides(parse("2^inf"), parse("2^inf*3"))

    def test_valuation_violation(self):
        assert not divides(P_ALL, parse("2^inf"))

    def test_reflexive(self):
        s = parse("2^inf*3^2")
        assert divides(s, s)


class TestMulDiv:
    def test_divide_with_absorption(self):
        assert divide_by(parse("2^inf*3^2"), 12) == parse("2^inf*3")

    def test_mul_absorption(self):
        assert mul_natural(parse("2^inf"), 2) == parse("2^inf")

    @pytest.mark.parametrize(
        "text,n,want", [("P^inf", 6, "P^inf"), ("P^inf*2^3", 12, "P^inf*2^5"), ("2^inf*P", 12, "2^inf*3^2*P")]
    )
    def test_mul_absorbs_at_the_infinite_primes_only(self, text, n, want):
        s = parse(text)
        got = mul_natural(s, n)
        assert got == parse(want)
        assert (got is s) == (text == want)  # a product that absorbs all of n is s itself

    def test_default_inf_keeps_its_finite_primes(self):
        # At P^inf the core lists the primes of finite exponent, here 2^3 and 5^0.
        s = parse("P^inf*2^3*5^0")
        assert str(divide_by(s, 4)) == "2*5^0*P^inf"
        assert str(mul_natural(s, 10)) == "2^4*5*P^inf"
        assert [omega_contains(s, n) for n in (16, 56, 5)] == [False, True, False]

    def test_divide_outside_omega(self):
        with pytest.raises(ValueError):
            divide_by(P_ALL, 4)

    def test_scale(self):
        assert scale(parse("2^inf*3"), Fraction(3, 4)) == parse("2^inf*3^2")

    @pytest.mark.parametrize("q", [2.5, "3", True], ids=["float", "str", "bool"])
    def test_scale_takes_only_an_int_or_a_fraction(self, q):
        # Read as a Fraction, 2.5 would scale P by 5/2, "3" by 3 and True by 1.
        message = f"scale factor must be an int or a Fraction, got {q!r} ({type(q).__name__})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scale(P_ALL, q)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: scale(P_ALL, 0), "scale factor must be positive, got 0"),
            (lambda: SteinitzNumber.from_int(0), "n must be positive, got 0"),
            (lambda: omega_contains(P_ALL, 0), "n must be positive, got 0"),
            (lambda: mul_natural(P_ALL, 0), "multiplier must be positive, got 0"),
            (lambda: factorize(0), "cannot factor non-positive integer 0"),
        ],
        ids=["scale", "from_int", "omega_contains", "mul_natural", "factorize"],
    )
    def test_zero_argument_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("text", ["P", "2^inf*3", "(1/2)*P"])
    def test_as_int_refuses_an_infinite_number(self, text):
        s = parse_scaled(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(s))} is not a natural number$"):
            s.as_int()


class TestFinitelyDivides:
    # s1 = s2/b for a natural b exactly when the ratio from s2 to s1 is 1/b.
    def test_deficit_vector(self):
        assert ratio_if_connected(parse("2^inf*3^2*5"), parse("2^inf*3")) == Fraction(1, 15)

    def test_self(self):
        s = parse("P^2*7^inf")
        assert ratio_if_connected(s, s) == 1

    def test_infinity_prime_sets_differ(self):
        assert ratio_if_connected(parse("3^inf"), parse("2^inf")) is None

    def test_minimal_witness_skips_infinite_primes(self):
        # 2^inf = 2^inf / 2 as well, but the minimal witness is 1.
        assert ratio_if_connected(parse("2^inf"), parse("2^inf")) == 1


class TestRationalConnectivity:
    def test_ratio_exponent_differences(self):
        s1, s2 = parse("P^1*2^3"), parse("P*2*3^2")
        assert ratio_if_connected(s1, s2) == Fraction(3, 4)

    def test_ratio_skips_infinite_primes(self):
        s1, s2 = parse("2^inf*3"), parse("2^inf*5")
        assert ratio_if_connected(s1, s2) == Fraction(5, 3)

    def test_infinity_prime_sets_differ(self):
        assert ratio_if_connected(parse("2^inf"), parse("3^inf")) is None

    def test_defaults_differ(self):
        assert ratio_if_connected(P_ALL, parse("3^2")) is None

    def test_canonical_ratio_refuses_unconnected_numbers(self):
        assert ratio_if_connected(P_ALL, parse("2^inf")) is None
        assert ratio_if_connected(parse("2^inf"), P_ALL) is None


class TestLcm:
    def test_pointwise_max(self):
        assert lcm(parse("2^inf"), parse("3^2")) == parse("2^inf*3^2")
        assert lcm(P_ALL, parse("2^3")) == parse("P^1*2^3")

    def test_identity(self):
        s = parse("2^inf*5")
        assert lcm(s, ONE) == s


# Hypothesis strategies: small prime support keeps runs fast while covering
# defaults, infinite exponents, and exception collisions.
_PRIMES = (2, 3, 5, 7, 11)
_EXPONENTS = st.one_of(st.integers(min_value=0, max_value=4), st.just(INF))

steinitz_numbers = st.builds(
    lambda default, exc: SteinitzNumber.of(default, exc),
    st.one_of(st.integers(min_value=0, max_value=2), st.just(INF)),
    st.dictionaries(st.sampled_from(_PRIMES), _EXPONENTS, max_size=4),
)
naturals = st.integers(min_value=1, max_value=400)


@given(steinitz_numbers)
def test_parse_format_roundtrip(s):
    assert parse(str(s)) == s


@given(steinitz_numbers, steinitz_numbers, steinitz_numbers)
def test_divides_partial_order(a, b, c):
    assert divides(a, a)
    if divides(a, b) and divides(b, a):
        assert a == b  # antisymmetry on minimal presentations
    if divides(a, b) and divides(b, c):
        assert divides(a, c)


@given(steinitz_numbers, naturals)
def test_omega_downward_closed(s, n):
    if omega_contains(s, n):
        for m in range(1, n + 1):
            if n % m == 0:
                assert omega_contains(s, m)


@given(steinitz_numbers, naturals)
def test_divide_mul_roundtrip(s, n):
    grown = mul_natural(s, n)
    assert omega_contains(grown, n)
    assert divide_by(grown, n) == s or not s.is_infinity_free
    if s.is_infinity_free:
        assert divide_by(grown, n) == s
    else:
        # With absorption the roundtrip still holds whenever it is defined,
        # but may legitimately differ only at infinite primes; check the
        # finite part through the canonical ratio.
        back = divide_by(grown, n)
        assert ratio_if_connected(back, s) == 1


@given(steinitz_numbers, naturals, naturals)
def test_canonical_ratio_cocycle(s, n1, n2):
    s1 = mul_natural(s, n1)
    s2 = mul_natural(s, n2)
    q01 = ratio_if_connected(s, s1)
    q12 = ratio_if_connected(s1, s2)
    q02 = ratio_if_connected(s, s2)
    assert q01 * q12 == q02


@given(steinitz_numbers, steinitz_numbers, steinitz_numbers)
def test_lcm_laws(a, b, c):
    assert lcm(a, b) == lcm(b, a)
    assert lcm(a, a) == a
    assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))


@given(steinitz_numbers, steinitz_numbers)
def test_finitely_divides_consistency(a, b):
    q = ratio_if_connected(b, a)
    if q is not None and q.numerator == 1:
        assert omega_contains(b, q.denominator)
        assert divide_by(b, q.denominator) == a


@settings(max_examples=30)
@given(steinitz_numbers, naturals.map(lambda n: min(n, 60)))
@example(parse("P^2*3^0"), 1000)
@example(parse("2^inf*3"), 1000)
@example(parse("P^inf*2^3"), 1000)
@example(SteinitzNumber.from_int(2 * 997), 1000)  # 997 is the largest prime below the bound
@example(ONE, 1000)
@example(ONE, 1)
def test_omega_contains_matches_enumeration(s, bound):
    assert enumerate_omega(s, bound) == [n for n in range(1, bound + 1) if omega_contains(s, n)]


def prime_sieve(bound: int) -> bytearray:
    # Independent oracle for primality below bound: Eratosthenes.
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return sieve


class TestPrimeKernel:
    def test_caches_are_bounded(self):
        # A long-running process factors fresh naturals without end.
        for f in (_is_prime, factorize):
            assert f.cache_info().maxsize is not None

    def test_is_prime_matches_sieve(self):
        bound = 200_000
        sieve = prime_sieve(bound)
        # The uncached function, so the sweep leaves no cache behind.
        assert [n for n in range(bound) if _is_prime.__wrapped__(n)] == [n for n in range(bound) if sieve[n]]

    @pytest.mark.parametrize(
        "n",
        [
            561,
            41041,
            3215031751,
            3825123056546413051,
            318665857834031151167461,
            # Strong pseudoprime to all 13 prime bases up to 41: only the
            # Lucas half of Baillie-PSW rejects it.
            3317044064679887385961981,
        ],
    )
    def test_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)

    def test_strong_lucas_test_accepts_the_primes_and_a217255(self):
        # OEIS A217255: the strong Lucas pseudoprimes with Selfridge's
        # parameters, all those below 10^5.  Base-2 Miller-Rabin rejects each.
        bound = 10**5
        sieve = prime_sieve(bound)
        odd = range(13, bound, 2)
        accepted = [n for n in odd if steinitz._strong_lucas_probable_prime(n)]
        pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
        assert [n for n in accepted if not sieve[n]] == pseudoprimes
        assert [n for n in accepted if sieve[n]] == [n for n in odd if sieve[n]]
        assert not any(steinitz._strong_probable_prime(n, (2,)) for n in pseudoprimes)
        # The documented precondition: |D| reaches n at these two primes.
        assert not steinitz._strong_lucas_probable_prime(5) and not steinitz._strong_lucas_probable_prime(11)

    @pytest.mark.parametrize("k", [61, 89, 127])
    def test_mersenne_primes_accepted(self, k):
        assert _is_prime(2**k - 1)

    def test_factorize_mersenne_composite(self):
        assert factorize(2**67 - 1) == ((193707721, 1), (761838257287, 1))

    def test_factorize_refuses_a_cofactor_past_4096_bits(self):
        # 1009 is the least prime past trial division, so all of 1009^420 is one cofactor.
        with pytest.raises(ValueError, match="^integer of 4192 bits is too large to factor$"):
            factorize(1009**420)

    def test_factorize_roundtrip(self):
        rng = random.Random(20)
        for n in [1, 2, 999_983**2, 2**64 + 1] + [rng.randint(1, 10**20) for _ in range(150)]:
            f = factorize(n)
            assert math.prod(p**e for p, e in f) == n
            assert [p for p, _ in f] == sorted({p for p, _ in f})
            assert all(e >= 1 and _is_prime(p) for p, e in f)

    def test_cli_import_leaves_sympy_out(self):
        import locmat

        src = str(Path(locmat.__file__).resolve().parents[1])
        code = "import sys, locmat.cli; print('sympy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestCanonicalConstructor:
    def test_raw_default_only_prime(self):
        raw = SteinitzNumber(1, ((2, 1),))
        assert raw == parse("P")
        assert hash(raw) == hash(parse("P"))

    def test_equality_defers_to_another_type(self):
        # __eq__ returns NotImplemented, so the other operand decides.
        assert parse("P") != "P"
        assert parse("P") == mock.ANY

    def test_raw_unsorted_with_default_entry(self):
        assert SteinitzNumber(0, ((3, 1), (5, 0), (2, 1))) == parse("2*3")

    def test_raw_duplicate_prime_rejected(self):
        with pytest.raises(ValueError):
            SteinitzNumber(0, ((2, 1), (2, 3)))

    def test_of_validates(self):
        with pytest.raises(ValueError):
            SteinitzNumber.of(0, {4: 1})
        with pytest.raises(ValueError):
            SteinitzNumber.of(0, {2: -1})
        with pytest.raises(ValueError):
            SteinitzNumber.of(1.5, {})

    # Unchecked, these would print as 4, 2^-1 and P^1.5, and the first would
    # compare equal to from_int(4).
    @pytest.mark.parametrize(
        "default,exceptions,message",
        [
            (0, {4: 1}, "not a prime"), (0, {2: -1}, "exponent"), (1.5, {}, "exponent"),
            (True, {}, "exponent"), (False, {}, "exponent"), (0, {2: True}, "exponent"), (0, {2: False}, "exponent"),
        ],
        ids=[
            "composite-key", "negative-exponent", "fractional-default",
            "true-default", "false-default", "true-exponent", "false-exponent",
        ],
    )
    def test_raw_constructor_validates(self, default, exceptions, message):
        with pytest.raises(ValueError, match=message):
            SteinitzNumber(default, exceptions)


@given(steinitz_numbers, st.data())
def test_raw_constructor_canonicalizes(s, data):
    listed = {p for p, _ in s.exceptions}
    extra = data.draw(st.sampled_from([p for p in _PRIMES + (13,) if p not in listed]))
    pairs = data.draw(st.permutations(s.exceptions + ((extra, s.default),)))
    raw = SteinitzNumber(s.default, tuple(pairs))
    assert raw == s
    assert hash(raw) == hash(s)


@st.composite
def connected_pairs(draw):
    """(base, t) with t = q*base: equal defaults and infinite primes, any
    finite exponents of t at the listed primes."""
    base = draw(steinitz_numbers)
    exc = {p: INF if base.valuation(p) == INF else draw(st.integers(0, 6)) for p in _PRIMES}
    return base, SteinitzNumber.of(base.default, exc)


@given(connected_pairs())
def test_member_ratio_denominator_divides_base(pair):
    # The exponents of t are nonnegative, so the reduced denominator of
    # q = t/base divides the base: membership needs no Omega check.
    base, t = pair
    q = ratio_if_connected(base, t)
    assert q is not None
    assert omega_contains(base, q.denominator)
    assert scale(base, q) == t


def walk_finitely_divides(s1, s2):
    # Independent reference: the exponent walk over every prime the
    # strategies list, with the deficit s2/s1 built prime by prime.
    if s1.default != s2.default:
        return None
    b = 1
    for p in _PRIMES:
        e1, e2 = s1.valuation(p), s2.valuation(p)
        if (e1 == INF) != (e2 == INF) or e1 > e2:
            return None
        if e1 != INF:
            b *= p ** (e2 - e1)
    return b


@given(st.one_of(connected_pairs(), st.tuples(steinitz_numbers, steinitz_numbers)))
def test_finitely_divides_matches_exponent_walk(pair):
    for s1, s2 in (pair, pair[::-1]):
        q = ratio_if_connected(s2, s1)
        w = walk_finitely_divides(s1, s2)
        assert (q is not None and q.numerator == 1) == (w is not None)
        assert w is None or q == Fraction(1, w)


class TestLiteralBudget:
    def test_within_budget(self):
        assert parse("2^1024").as_int() == 2**1024
        assert parse("P^100000000").default == 100000000  # no listed prime to weigh it by
        assert parse("3^inf*5^0*P^681").default == 681

    def test_exponent_over_budget(self):
        with pytest.raises(ParseError) as e:
            parse("3 * 2^1025")
        assert e.value.pos == 4

    def test_sum_over_budget(self):
        with pytest.raises(ParseError) as e:
            parse("2^1000*3^20*5^3")
        assert e.value.pos == 12

    @pytest.mark.parametrize("exponent", ["0", "inf"])
    def test_zero_and_infinite_exponents_weigh_once(self, exponent):
        # 2^1024 spends the whole budget, so the 2 bits of 3^0 or 3^inf cross it.
        with pytest.raises(ParseError, match="size budget") as e:
            parse(f"2^1024*3^{exponent}")
        assert e.value.pos == 7

    def test_default_weighs_at_largest_listed_prime(self):
        with pytest.raises(ParseError) as e:
            parse("P^683*5")
        assert e.value.pos == 0

    def test_long_prime_literal_refused_before_primality_test(self):
        with pytest.raises(ParseError, match="size budget") as e:
            parse(f"2*{2**2100 + 1}^inf")
        assert e.value.pos == 2


class TestParseChecksOnce:
    # parse checks every prime, exponent, duplicate and the budget as it reads
    # the literal, then builds the value without the constructor's checks.
    def test_each_listed_prime_is_tested_once(self, monkeypatch):
        tested = []

        def counted(n):
            tested.append(n)
            return is_prime(n)

        is_prime = steinitz._is_prime
        monkeypatch.setattr(steinitz, "_is_prime", counted)
        s = parse("2^3*3*5^inf*7^0*P^2*1000003")
        assert tested == [2, 3, 5, 7, 1000003]
        assert s == SteinitzNumber(2, {2: 3, 3: 1, 5: INF, 7: 0, 1000003: 1})

    def test_a_composite_is_reported_before_a_duplicate(self):
        with pytest.raises(ParseError, match="non-prime base 4") as e:
            parse("4*4")
        assert e.value.pos == 0

    def test_lcm_tests_no_prime(self, monkeypatch):
        # Arithmetic keeps the invariant, so lcm builds its result unchecked.
        s1, s2 = parse("2^3*3^inf*1000003*P"), parse("2*5^4*7^0*P^2")
        expected = SteinitzNumber(2, {2: 3, 3: INF, 5: 4, 7: 1})
        tested = []
        monkeypatch.setattr(steinitz, "_is_prime", tested.append)
        assert lcm(s1, s2) == expected
        assert tested == []


def test_printing_arithmetic_factors_only_the_offset_apart_from_its_literal(monkeypatch):
    # parse knows its literal's primes; the scaled value factors 3 and 5, once.
    factored = []
    factorize_once = steinitz._factorize_once
    monkeypatch.setattr(steinitz, "_factorize_once", lambda n: factored.append(n) or factorize_once(n))
    s = parse_scaled("(3/20)*2^5*7^2*P")
    assert str(s) == "2^3*3^2*5^0*7^2*P" and factored == [3, 5]
    assert str(s) == "2^3*3^2*5^0*7^2*P" and factored == [3, 5]


_LITERAL_PRIMES = (2, 3, 5, 7, 11, 13, 1000003, 2**61 - 1)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3), st.just(INF)),
    st.lists(st.tuples(st.sampled_from(_LITERAL_PRIMES), _EXPONENTS), max_size=5, unique_by=lambda t: t[0]),
    st.integers(min_value=0, max_value=5),
)
@example(10**12, [], 0)
@example(INF, [(2, 0)], 1)
@example(None, [], 0)
def test_parse_builds_what_the_constructor_builds(default, terms, at):
    # The P term, if any, sits at index ``at`` among the prime terms.
    words = [f"{p}^{'inf' if e == INF else e}" for p, e in terms]
    if default is not None:
        words.insert(min(at, len(words)), f"P^{'inf' if default == INF else default}")
    s = parse("*".join(words) or "1")
    built = SteinitzNumber(0 if default is None else default, dict(terms))
    assert s == built and hash(s) == hash(built)
    assert str(s) == str(built) and s.exceptions == built.exceptions and s.default == built.default


class TestHugeDefault:
    # A bare P^e is weightless in the literal budget, so its e can be huge.
    # The offset of a value is an int, so no operation may build p^e from it.
    HUGE = 10**12

    def test_divide_and_omega_test_exponents_not_powers(self):
        s = parse(f"P^{self.HUGE}")
        t = divide_by(s, 12)
        assert (t.valuation(2), t.valuation(3), t.valuation(5)) == (self.HUGE - 2, self.HUGE - 1, self.HUGE)
        assert scale(s, Fraction(1, 2)) == divide_by(s, 2)
        assert omega_contains(s, 2**40 * 3**5)
        assert enumerate_omega(s, 30) == list(range(1, 31))

    def test_offset_past_limit_refused(self):
        with pytest.raises(ValueError, match="offset"):
            SteinitzNumber.of(self.HUGE, {2: 0})
        with pytest.raises(ValueError, match="offset"):
            SteinitzNumber(0, {3: self.HUGE})
        with pytest.raises(ValueError, match="offset"):
            lcm(parse("P^inf*2^0"), parse(f"P^{self.HUGE}"))


# An independent model of the coset representation: a Steinitz number as a
# default exponent and a dict of exceptional exponents over the primes below,
# factored by trial division, with every operation walking that map.
_MODEL_PRIMES = (2, 3, 5, 7, 11, 13)
_MODEL_DEFAULTS = st.sampled_from((0, 1, 2, INF))
model_numbers = st.tuples(
    _MODEL_DEFAULTS,
    st.dictionaries(st.sampled_from(_MODEL_PRIMES[:5]), _EXPONENTS, max_size=4),
)
# Naturals over the model primes, 13 included: no test number lists it.
model_naturals = st.lists(st.sampled_from(_MODEL_PRIMES), max_size=5).map(math.prod)


def model_factor(n):
    out = {}
    for p in _MODEL_PRIMES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    assert n == 1
    return out


def model_valuation(m, p):
    d, exc = m
    return exc.get(p, d)


def model_canon(m):
    d, exc = m
    return d, tuple(sorted((p, e) for p, e in exc.items() if e != d))


def model_shift(m, n, sign):
    # m * n**sign, or None when an exponent would go negative.
    d, exc = m
    exc = dict(exc)
    for p, e in model_factor(n).items():
        v = model_valuation((d, exc), p) + sign * e
        if v < 0:
            return None
        exc[p] = v
    return d, exc


def model_ratio(m1, m2):
    if m1[0] != m2[0]:
        return None
    q = Fraction(1)
    for p in set(m1[1]) | set(m2[1]):
        a, b = model_valuation(m1, p), model_valuation(m2, p)
        if (a == INF) != (b == INF):
            return None
        if a != INF:
            q *= Fraction(p) ** (b - a)
    return q


def model_lcm(m1, m2):
    primes = set(m1[1]) | set(m2[1])
    return max(m1[0], m2[0]), {p: max(model_valuation(m1, p), model_valuation(m2, p)) for p in primes}


def model_str(m):
    d, exc = model_canon(m)
    terms = [str(p) if e == 1 else f"{p}^inf" if e == INF else f"{p}^{e}" for p, e in exc]
    if d != 0:
        terms.append("P" if d == 1 else "P^inf" if d == INF else f"P^{d}")
    return "*".join(terms) or "1"


def model_steps(s, m, steps):
    # Apply mul_natural/divide_by steps to the number and to its model.
    for grow, n in steps:
        after = model_shift(m, n, 1 if grow else -1)
        if after is None:
            with pytest.raises(ValueError, match="is not in Omega"):
                divide_by(s, n)
            continue
        s, m = (mul_natural(s, n) if grow else divide_by(s, n)), after
    return s, m


@settings(max_examples=150, deadline=None)
@given(
    model_numbers,
    model_numbers,
    st.lists(st.tuples(st.booleans(), model_naturals), max_size=4),
    model_naturals,
    model_naturals,
)
@example((1, {}), (1, {}), [], 12, 2)  # P: no prime to split n on, so all of n is taken
@example((INF, {}), (INF, {}), [], 12, 2)  # P^inf: none either, and INF absorbs all of n
@example((1, {2: INF}), (1, {3: 0}), [], 12, 2)  # 2^inf*P: n's factor 4 is absorbed
def test_coset_representation_matches_exponent_walk(m1, m2, steps, n, k):
    s1, m1 = model_steps(SteinitzNumber.of(*m1), m1, steps)
    s2 = SteinitzNumber.of(*m2)
    if s1.default == s2.default and s1.valuation(2) != INF:
        # Also a number connected to s1: same core, other finite exponents.
        s2, m2 = model_steps(s1, m1, [(True, n), (False, k)])
    assert (s1.default, s1.exceptions) == model_canon(m1)
    assert str(s1) == model_str(m1) and parse(str(s1)) == s1
    rebuilt = SteinitzNumber(*model_canon(m1))
    assert rebuilt == s1 and hash(rebuilt) == hash(s1)
    assert (s1 == s2) == (model_canon(m1) == model_canon(m2))
    assert [s1.valuation(p) for p in _MODEL_PRIMES + (17,)] == [model_valuation(m1, p) for p in _MODEL_PRIMES + (17,)]
    assert mul_natural(s1, n) == SteinitzNumber(*model_shift(m1, n, 1))
    assert omega_contains(s1, n) == (model_shift(m1, n, -1) is not None)
    if model_shift(m1, k, -1) is not None:
        assert divide_by(s1, k) == SteinitzNumber(*model_shift(m1, k, -1))
        assert scale(s1, Fraction(n, k)) == SteinitzNumber(*model_shift(model_shift(m1, k, -1), n, 1))
    assert ratio_if_connected(s1, s2) == model_ratio(m1, m2)
    assert ratio_if_connected(s2, s1) == model_ratio(m2, m1)
    assert lcm(s1, s2) == SteinitzNumber(*model_lcm(m1, m2))
    assert (lcm(s1, s2).default, lcm(s1, s2).exceptions) == model_canon(model_lcm(m1, m2))
