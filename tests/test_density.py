"""Exact density arithmetic: surd ordering against integer-sqrt oracles."""

import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from locmat.density import (
    INFINITY,
    Surd,
    _cmp_scaled,
    _parts,
    _squarefree_split,
    cmp_density,
    cmp_ratio,
    floor_times,
    format_density,
    parse_density,
    scale_density,
)
from locmat.saturated import _floor_count
from locmat.steinitz import ParseError


def decimal_floor(x: int, y: int, d: int, z: int, digits: int) -> int:
    # Independent oracle: floor(((x + y*sqrt(d)) / z) * 10^digits) via
    # integer square roots at shifted precision.
    shift = 10**digits
    return (x * shift + math.isqrt(y * y * shift * shift * d)) // z


def oracle_cmp(a, b) -> int:
    # Compare two surd/rational values by decimal refinement; distinct
    # values always separate at some precision.
    def digits(v, k):
        if isinstance(v, Surd):
            return decimal_floor(v.x, v.y, v.d, v.z, k)
        return (v.numerator * 10**k) // v.denominator

    for k in range(1, 60):
        fa, fb = digits(a, k), digits(b, k)
        if fa != fb:
            return 1 if fa > fb else -1
    return 0


SQRT2 = Surd.make(0, 1, 2, 1)
SQRT5 = Surd.make(0, 1, 5, 1)


class TestConstruction:
    def test_square_extraction(self):
        assert Surd.make(0, 1, 8, 2) == Surd.make(0, 2, 2, 2) == Surd.make(0, 1, 2, 1)

    def test_rationalizes_perfect_square(self):
        assert Surd.make(0, 1, 4, 1) == Fraction(2)
        assert Surd.make(3, 2, 9, 3) == Fraction(3)

    def test_gcd_reduction(self):
        s = Surd.make(2, 4, 3, 6)
        assert (s.x, s.y, s.d, s.z) == (1, 2, 3, 3)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            Surd.make(0, 1, -2, 1)

    def test_negative_surd_part_rejected(self):
        with pytest.raises(ValueError):
            Surd.make(0, -1, 2, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="^zero denominator$"):
            Surd.make(1, 1, 2, 0)

    def test_negative_denominator_flips_every_sign(self):
        assert Surd.make(-1, -1, 2, -2) == Surd.make(1, 1, 2, 2)

    @pytest.mark.parametrize(
        "args",
        [
            (0, 1, 4, 1),  # sqrt(4) = 2 is rational
            (0, 1, 8, 1),  # 8 is not squarefree
            (0, 1, 1, 1),
            (1, 2, 3, 0),  # a zero denominator
            (1, 2, 3, -1),
            (0, 0, 2, 1),
            (0, -1, 2, 1),
            (0, 2, 2, 2),  # gcd(x, y, z) = 2
            (True, 1, 2, 1),
            (0, 1, 2.0, 1),
            (0, 1, "2", 1),
        ],
    )
    def test_raw_constructor_refuses_what_is_not_in_normal_form(self, args):
        with pytest.raises(ValueError) as e:
            Surd(*args)
        assert str(e.value) == f"Surd{args} is not in normal form: build it with Surd.make"

    def test_make_splits_the_radicand_once(self):
        # make builds the normal form, so it needs no second check of it.
        with mock.patch("locmat.density._squarefree_split", wraps=_squarefree_split) as split:
            s = Surd.make(2, 4, 12, 6)
        assert split.call_count == 1
        assert s == Surd(1, 4, 3, 3)

    def test_raw_constructor_takes_the_normal_form(self):
        s = Surd.make(2, 4, 12, 6)
        assert Surd(1, 4, 3, 3) == s == pickle.loads(pickle.dumps(s))
        assert Surd(-3, 1, 5, 2) == Surd.make(-3, 1, 5, 2)


class TestOrdering:
    def test_cross_radicand(self):
        assert SQRT2 < SQRT5
        assert Surd.make(1, 1, 2, 1) > SQRT5  # 2.414... > 2.236...

    def test_vs_rational(self):
        assert SQRT2 > Fraction(7, 5)
        assert SQRT2 < Fraction(3, 2)
        # Boundary case: 3 < 2*sqrt(2) iff 9 < 8 - false.
        assert not (Fraction(3, 2) < SQRT2)

    def test_never_equal_to_rational(self):
        assert SQRT2 != Fraction(141421356, 100000000)
        assert not (SQRT2 == 1)

    def test_order_with_another_type_is_a_type_error(self):
        with pytest.raises(TypeError):
            SQRT2 < "x"
        with pytest.raises(TypeError):
            SQRT2 < True
        with pytest.raises(TypeError):
            False >= SQRT2

    def test_infinity_is_largest(self):
        assert cmp_density(INFINITY, SQRT5) == 1
        assert cmp_density(SQRT5, INFINITY) == -1
        assert cmp_density(INFINITY, INFINITY) == 0


class TestFloorTimes:
    def test_known_values(self):
        assert floor_times(_parts(SQRT2), 2) == 2
        assert floor_times(_parts(SQRT2), 6) == 8
        assert floor_times(_parts(Fraction(3, 2)), 3) == 4

    def test_rational_exact(self):
        assert floor_times(_parts(Fraction(7, 3)), 6) == 14
        # The strict count is one less exactly where r*b is an integer.
        assert _floor_count(_parts(Fraction(7, 3)), True, 6) == 13
        assert _floor_count(_parts(Fraction(7, 3)), True, 4) == floor_times(_parts(Fraction(7, 3)), 4) == 9
        assert _floor_count(_parts(SQRT2), True, 4) == floor_times(_parts(SQRT2), 4) == 5


class TestText:
    def test_roundtrip(self):
        for text in ("inf", "3/2", "7", "(0+1*sqrt(2))/1", "(3+2*sqrt(5))/4"):
            assert format_density(parse_density(text)) == text

    def test_sqrt_sugar(self):
        assert parse_density("sqrt(2)") == SQRT2

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_density("sqrt(two)")


surds = st.builds(
    Surd.make,
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    st.integers(min_value=1, max_value=12),
)
rationals = st.builds(Fraction, st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=40))
values = st.one_of(surds, rationals)


@given(values, values)
def test_cmp_matches_decimal_oracle(a, b):
    assert cmp_density(a, b) == oracle_cmp(a, b)


@given(values, st.integers(min_value=1, max_value=500))
def test_floor_times_matches_decimal_oracle(r, b):
    scaled = scale_density(r, Fraction(b))
    expected = (
        decimal_floor(scaled.x, scaled.y, scaled.d, scaled.z, 0)
        if isinstance(scaled, Surd)
        else scaled.numerator // scaled.denominator
    )
    assert floor_times(_parts(r), b) == expected


@given(values, st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=60))
def test_floor_times_divides_by_its_divisor(r, b, c):
    # floor(x/c) = floor(floor(x)/c) for an integer c > 0, and x/c is an
    # integer exactly when x is one that c divides; the strict count is one
    # less exactly where it is an integer.
    assert floor_times(_parts(r), b, c) == floor_times(_parts(r), b) // c
    is_integer = [floor_times(_parts(r), b, k) - _floor_count(_parts(r), True, b, k) for k in (c, 1)]
    assert is_integer[0] == (is_integer[1] and floor_times(_parts(r), b) % c == 0)


#: Every kind a density comes in: rationals, raw ints, surds with x of either
#: sign (over two radicands, so that two draws often share one), and INFINITY.
kernel_densities = st.one_of(
    rationals,
    st.integers(min_value=1, max_value=60),
    surds,
    st.builds(Surd.make, st.integers(-20, 20), st.integers(1, 10), st.sampled_from([2, 3]), st.integers(1, 12)),
    st.just(INFINITY),
)


@given(kernel_densities, kernel_densities, st.integers(1, 60), st.integers(1, 60), st.booleans())
@example(SQRT2, Surd.make(0, 1, 8, 1), 1, 2, False)  # sqrt(2) against 2*sqrt(2)*(1/2): one radicand, equal
@example(SQRT2, SQRT5, 5, 8, False)  # distinct radicands, near: sqrt(2) against sqrt(5)*5/8
@example(Surd.make(-1, 1, 5, 2), 3, 1, 5, False)  # (sqrt(5)-1)/2 against 3/5
def test_cmp_scaled_matches_cmp_density_of_the_scaled_value(a, b, n, d, at_b):
    # at_b puts a at b*n/d itself, where a rational or one-radicand kernel answers 0.
    scaled = scale_density(b, Fraction(n, d))
    if at_b:
        a = scaled
    pa, pb = (None if v is INFINITY else _parts(v) for v in (a, b))
    assert _cmp_scaled(pa, pb, n, d) == cmp_density(a, scaled)
    if INFINITY not in (a, b):
        assert _cmp_scaled(pa, pb, n, d) == oracle_cmp(a, scaled)


def test_scale_density_refuses_a_zero_factor():
    with pytest.raises(ValueError, match="^scale factor must be positive, got 0$"):
        scale_density(Fraction(3, 2), Fraction(0))


@given(values, rationals)
def test_scale_density_order_preserving(r, q):
    scaled = scale_density(r, q)
    # r*q compared against any rational m matches r against m/q.
    m = Fraction(3, 2)
    assert cmp_density(scaled, m) == cmp_density(r, m / q)


named_surds = st.sampled_from([Surd.make(0, 1, 2, 1), Surd.make(0, 1, 5, 1), Surd.make(1, 3, 7, 2)])


@given(
    st.one_of(values, named_surds),
    st.integers(min_value=-20, max_value=400),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["free", "at-r", "floor", "floor+1"]),
)
def test_cmp_ratio_matches_cmp_density(r, n, d, k, pin):
    # n/d is drawn freely, set equal to r (for a rational r), or put at the
    # integers floor(r*d) and floor(r*d) + 1 around r*d; then unreduced by k.
    if pin == "at-r" and isinstance(r, Fraction):
        n, d = r.numerator, r.denominator
    elif pin.startswith("floor"):
        n = floor_times(_parts(r), d) + (pin == "floor+1")
    n, d = n * k, d * k
    assert cmp_ratio(n, d, _parts(r)) == cmp_density(Fraction(n, d), r)


@given(values, values, values)
def test_cmp_transitive(a, b, c):
    if cmp_density(a, b) <= 0 and cmp_density(b, c) <= 0:
        assert cmp_density(a, c) <= 0


operands = st.one_of(st.integers(min_value=-20, max_value=60), rationals, surds)


@given(surds, operands)
def test_surd_operators_agree_with_cmp_density(s, other):
    c = cmp_density(s, other)
    assert (s < other, s <= other, s > other, s >= other, s == other) == (c < 0, c <= 0, c > 0, c >= 0, c == 0)
    assert (other < s, other <= s, other > s, other >= s, other == s) == (c > 0, c >= 0, c < 0, c <= 0, c == 0)
