"""Saturated sets: normalization, membership, trichotomy, closed forms."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locmat import oracle, steinitz
from locmat.algebra import ChainPresentation, Stage, realize, spec_unital, spectrum_of_chain
from locmat.density import INFINITY, Surd, _parts, cmp_density, floor_times, format_density, scale_density
from locmat.oracle import _existential_contains, check_saturation_axioms, equals_extensional, sample_members
from locmat.saturated import (
    ALL_NATURALS,
    AllNaturals,
    FiniteType,
    Inclusion,
    InfType,
    Segment,
    TailRule,
    _floor_count,
    compare_inclusion,
    contains,
    density,
    equals_formal,
    format_set,
    max_element,
    mk_finite_type,
    mk_inf_type,
    parse_set,
    r_sub,
)
from locmat.steinitz import (
    INF,
    ONE,
    SteinitzNumber,
    divide_by,
    enumerate_omega,
    mul_natural,
    parse,
    parse_scaled,
    ratio_if_connected,
    scale,
)

P = parse("P")
SQRT2 = Surd.make(0, 1, 2, 1)
SQRT5 = Surd.make(0, 1, 5, 1)
HALF_P = parse_scaled("(1/2)*P")

S1 = mk_finite_type(Fraction(1), P, False)
S32 = mk_finite_type(Fraction(3, 2), P, False)
S32_STRICT = mk_finite_type(Fraction(3, 2), P, True)
SSQRT2 = mk_finite_type(SQRT2, P, False)


#: The normalizing and the raw constructor of S(r, P), as functions of r.
_FINITE_TYPE_BUILDS = (lambda r: mk_finite_type(r, P, False), lambda r: FiniteType(r, P, False))

#: Every entry point that takes a finite density, with r in one place: each checks it with ``_parts``.
_FINITE_DENSITY_READS = _FINITE_TYPE_BUILDS + (
    lambda r: TailRule("attained", r),
    lambda r: cmp_density(r, 1),
    lambda r: cmp_density(SQRT2, r),
    lambda r: scale_density(r, Fraction(2)),
    format_density,
)


class TestConstructors:
    def test_inf_type_of_natural_is_all_naturals(self):
        assert mk_inf_type(parse("2*3")) == ALL_NATURALS

    def test_collapse_on_infinite_prime(self):
        S = mk_finite_type(Fraction(3, 2), parse("2^inf*3"), False)
        assert S == InfType(parse("2^inf*3"))

    def test_collapse_verified_by_representation_search(self):
        # For odd m, m*(2^inf*3) = (m / 2^k)*(2^inf*3) with m <= (3/2)*2^k
        # once 2^k is large enough; every infinite-type member is reached.
        S_raw = FiniteType(Fraction(3, 2), parse("2^inf*3"), False)
        S_inf = mk_inf_type(parse("2^inf*3"))
        assert equals_extensional(S_raw, S_inf, budget=80)

    def test_strict_cleared_for_surd(self):
        S = mk_finite_type(SQRT2, P, True)
        assert isinstance(S, FiniteType) and not S.strict

    def test_strict_cleared_when_denominator_missing(self):
        # v = 2 but the base has exponent zero at 2, so S+ = S.
        S = mk_finite_type(Fraction(3, 2), parse("P^2*2^0"), True)
        assert isinstance(S, FiniteType) and not S.strict

    def test_natural_base_rejected(self):
        with pytest.raises(ValueError):
            mk_finite_type(Fraction(3, 2), parse("2^2"), False)

    @pytest.mark.parametrize(
        "build,kind",
        [(lambda s: FiniteType(Fraction(5, 2), s, False), "finite"), (InfType, "infinite")],
        ids=["finite-type", "infinite-type"],
    )
    @pytest.mark.parametrize("text", ["1", "2*3"])
    def test_raw_set_refuses_a_natural_base(self, build, kind, text):
        # Over a natural base the set is a segment or N: S(5/2, 1) is {1, 2}, and
        # a raw spelling of it would read as an infinite set with no largest member.
        message = f"{kind}-type base must be an infinite Steinitz number, got {text}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(parse(text))

    def test_raw_set_refuses_a_natural_base_before_its_density(self):
        with pytest.raises(ValueError, match=r"^finite-type base must be an infinite Steinitz number, got 1$"):
            FiniteType(Fraction(1, 2), ONE, False)

    @pytest.mark.parametrize(
        "build",
        [
            lambda strict: FiniteType(Fraction(3, 2), P, strict),
            lambda strict: mk_finite_type(Fraction(3, 2), P, strict),
            lambda strict: mk_finite_type(INFINITY, P, strict),
            lambda strict: mk_finite_type(INFINITY, parse("2*3"), strict),
        ],
        ids=["raw", "normalized", "infinite-density", "infinite-density-natural-base"],
    )
    @pytest.mark.parametrize(
        "strict,shown",
        [("no", "'no' (str)"), (1, "1 (int)"), (0, "0 (int)"), (None, "None (NoneType)")],
        ids=["str", "one", "zero", "none"],
    )
    def test_strict_must_be_a_bool(self, build, strict, shown):
        # A truthy "no" printed as S+(3/2, P) yet did not equal the set built with True;
        # at the density inf, where no set reads it, "no" was once taken silently.
        with pytest.raises(ValueError, match=f"^{re.escape(f'strict must be a bool, got {shown}')}$"):
            build(strict)

    def test_density_below_one_rejected(self):
        with pytest.raises(ValueError):
            mk_finite_type(Fraction(1, 2), P, False)

    def test_infinity_density_delegates(self):
        assert mk_finite_type(INFINITY, P, False) == InfType(P)

    @pytest.mark.parametrize(
        "builds,r,message",
        [
            (_FINITE_DENSITY_READS, 2.5, "density must be an int, a Fraction or a Surd, got 2.5 (float)"),
            (_FINITE_DENSITY_READS, float("inf"), "density must be an int, a Fraction or a Surd, got inf (float)"),
            (_FINITE_DENSITY_READS, "3/2", "density must be an int, a Fraction or a Surd, got '3/2' (str)"),
            (_FINITE_DENSITY_READS, True, "density must be an int, a Fraction or a Surd, got True (bool)"),
            (_FINITE_TYPE_BUILDS, 0, "density must be at least 1, got 0"),
            (_FINITE_TYPE_BUILDS, -1, "density must be at least 1, got -1"),
            (_FINITE_TYPE_BUILDS, Fraction(1, 2), "density must be at least 1, got 1/2"),
            # A segment's density is its length n: [1..n] = S(n, 1).
            ((Segment,), 0, "segment length must be positive, got 0"),
            ((Segment,), -2, "segment length must be positive, got -2"),
            ((Segment,), 2.5, "segment length must be an int, got 2.5 (float)"),
            ((Segment,), True, "segment length must be an int, got True (bool)"),
        ],
        ids=[
            "float", "float-inf", "str", "bool", "zero", "negative", "half",
            "segment-zero", "segment-negative", "segment-float", "segment-bool",
        ],
    )
    def test_density_of_another_type_refused(self, builds, r, message):
        # A float inf equals INFINITY but is not that object, so it is refused too.
        # A raw set is refused as it is built, not by the first decision on it.
        for build in builds:
            with pytest.raises(ValueError) as e:
                build(r)
            assert str(e.value) == message

    @pytest.mark.parametrize("strict", [False, True])
    def test_raw_set_refuses_the_infinite_density(self, strict):
        # S(inf, s) has one spelling, InfType, which mk_finite_type(INFINITY, s) builds.
        with pytest.raises(ValueError, match=r"^density must be an int, a Fraction or a Surd, got inf \(float\)$"):
            FiniteType(INFINITY, P, strict)

    def test_segment_builds_its_density_once(self):
        S = Segment(3)
        assert S.r is S.r and type(S.r) is Fraction and S.r == 3
        assert copy.copy(S).r == pickle.loads(pickle.dumps(S)).r == 3

    def test_all_naturals_is_the_one_instance(self):
        assert mk_inf_type(ONE) is ALL_NATURALS and parse_set("N") is ALL_NATURALS
        assert format_set(ALL_NATURALS) == "N"


class TestContains:
    def test_segment(self):
        assert contains(Segment(4), SteinitzNumber.from_int(3))
        assert not contains(Segment(4), SteinitzNumber.from_int(5))
        assert not contains(Segment(4), P)

    def test_all_naturals(self):
        assert contains(ALL_NATURALS, SteinitzNumber.from_int(10**9))
        assert not contains(ALL_NATURALS, parse("2^inf"))

    def test_density_one_boundary(self):
        assert not contains(S1, parse_scaled("(2/1)*P"))
        assert contains(S1, HALF_P)

    def test_surd_boundary_exact(self):
        # 3 <= sqrt(2)*2 iff 9 <= 8: false.
        assert not contains(SSQRT2, parse_scaled("(3/2)*P"))
        assert contains(SSQRT2, parse_scaled("(4/3)*P"))

    def test_inf_type_representation(self):
        assert contains(mk_inf_type(parse("2^inf")), parse_scaled("(5/1)*2^inf"))

    def test_strict_vs_closed(self):
        t = parse_scaled("(3/2)*P")
        assert contains(S32, t)
        assert not contains(S32_STRICT, t)


class TestRebase:
    def test_scaling_law(self):
        # At t = (1/3)*P the density 3/2 at P reads 3 times larger.
        assert density(S32_STRICT, parse_scaled("(1/3)*P")) == Fraction(9, 2)

    def test_identity_at_base(self):
        assert density(S32_STRICT, P) == Fraction(3, 2)

    def test_inf_type(self):
        assert density(mk_inf_type(parse("2^inf")), parse_scaled("(3/1)*2^inf")) is INFINITY

    def test_non_member_rejected(self):
        with pytest.raises(ValueError, match=r"^2\^2\*P is not a member of S\(3/2, P\)$"):
            density(S32, parse_scaled("(2/1)*P"))

    @pytest.mark.parametrize("S", [Segment(5), ALL_NATURALS], ids=["segment", "naturals"])
    def test_natural_base_refused(self, S):
        # Every member of a set over the base 1 is natural, so none has a density.
        with pytest.raises(ValueError, match=r"^density is defined at infinite members only, got 3$"):
            density(S, SteinitzNumber.from_int(3))


class TestDensity:
    def test_stored_at_base(self):
        assert density(S32, P) == Fraction(3, 2)

    def test_rebased(self):
        assert density(S32, HALF_P) == Fraction(3)

    def test_infinite_type(self):
        assert density(mk_inf_type(parse("2^inf")), parse("2^inf")) is INFINITY

    def test_natural_member_rejected(self):
        with pytest.raises(ValueError):
            density(Segment(5), SteinitzNumber.from_int(3))


class TestEqualsFormal:
    def test_rebase_identity(self):
        assert equals_formal(S32, mk_finite_type(Fraction(3), HALF_P, False))

    def test_strictness_distinguishes(self):
        assert not equals_formal(S32, S32_STRICT)

    def test_reflexive(self):
        for S in (S32, S32_STRICT, SSQRT2, Segment(7), ALL_NATURALS, mk_inf_type(P)):
            assert equals_formal(S, S)

    def test_cross_kind(self):
        assert not equals_formal(Segment(3), ALL_NATURALS)
        assert not equals_formal(mk_inf_type(P), S32)

    def test_surd_vs_rational_density(self):
        assert not equals_formal(SSQRT2, mk_finite_type(Fraction(141, 100), P, False))


class TestCompareInclusion:
    def test_strict_inside_closed(self):
        assert compare_inclusion(S32_STRICT, S32) == Inclusion.LEFT_IN_RIGHT

    def test_smaller_density_inside(self):
        assert compare_inclusion(S1, mk_finite_type(Fraction(2), P, False)) == Inclusion.LEFT_IN_RIGHT

    def test_disconnected_bases_disjoint(self):
        assert compare_inclusion(mk_inf_type(parse("2^inf")), mk_inf_type(P)) == Inclusion.DISJOINT

    def test_segments(self):
        assert compare_inclusion(Segment(3), Segment(5)) == Inclusion.LEFT_IN_RIGHT
        assert compare_inclusion(Segment(5), Segment(5)) == Inclusion.EQUAL
        assert compare_inclusion(ALL_NATURALS, Segment(5)) == Inclusion.RIGHT_IN_LEFT

    def test_natural_vs_based_disjoint(self):
        assert compare_inclusion(Segment(5), mk_inf_type(P)) == Inclusion.DISJOINT

    def test_finite_inside_infinite(self):
        assert compare_inclusion(S32, mk_inf_type(P)) == Inclusion.LEFT_IN_RIGHT

    def test_surd_ordering(self):
        assert compare_inclusion(SSQRT2, mk_finite_type(SQRT5, P, False)) == Inclusion.LEFT_IN_RIGHT


class TestRSub:
    def test_closed_rational(self):
        assert r_sub(S32, P, 2) == 3
        assert r_sub(S32, P, 3) == 4  # floor(4.5)

    def test_strict_rational(self):
        assert r_sub(S32_STRICT, P, 2) == 2

    def test_surd_floor(self):
        assert r_sub(SSQRT2, P, 2) == 2

    def test_infinite(self):
        assert r_sub(mk_inf_type(parse("2^inf")), parse("2^inf"), 8) is INFINITY
        assert r_sub(ALL_NATURALS, SteinitzNumber.from_int(6), 2) is INFINITY

    def test_segment(self):
        assert r_sub(Segment(7), SteinitzNumber.from_int(6), 2) == 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            r_sub(S32, parse_scaled("(2/1)*P"), 2)
        with pytest.raises(ValueError):
            r_sub(S32, P, 4)


class TestMaxElement:
    def test_segment(self):
        assert max_element(Segment(7)) == SteinitzNumber.from_int(7)

    def test_attained_closed_bound(self):
        assert max_element(S32) == mul_natural(divide_by(P, 2), 3)

    def test_strict_has_none(self):
        assert max_element(S32_STRICT) is None

    def test_surd_has_none(self):
        assert max_element(SSQRT2) is None

    def test_unattained_denominator_has_none(self):
        S = mk_finite_type(Fraction(3, 2), parse("P^2*2^0"), False)
        assert max_element(S) is None

    def test_infinite_type_has_none(self):
        assert max_element(mk_inf_type(P)) is None
        assert max_element(ALL_NATURALS) is None


class TestUnionChain:
    # The union of a chain's stage spectra: (k, s) stages build M_k(A_s), whose
    # spectrum is S(1, k*s), and HALF_P*3 = (3/2)*P.
    def test_finite_prefix(self):
        chain = ChainPresentation((Stage(2, HALF_P), Stage(3, HALF_P)), (1,))
        assert equals_formal(spectrum_of_chain(chain), S32)

    def test_approached_tail(self):
        chain = ChainPresentation((Stage(1, P),), (), TailRule("approached", Fraction(2)))
        assert spectrum_of_chain(chain) == mk_finite_type(Fraction(2), P, True)

    def test_unbounded_tail(self):
        assert spectrum_of_chain(ChainPresentation((Stage(1, P),), (), TailRule("unbounded"))) == InfType(P)

    def test_segments_to_naturals(self):
        chain = ChainPresentation((Stage(1, ONE), Stage(4, ONE)), (1,), TailRule("unbounded"))
        assert spectrum_of_chain(chain) is ALL_NATURALS

    def test_non_ascending_rejected(self):
        # Ends S(3/2, P) then S(1, P): the corner rule refuses the chain as it is built.
        with pytest.raises(ValueError, match=r"^stage 0: corner inequality 3\*1 <= 2 fails$"):
            ChainPresentation((Stage(3, HALF_P), Stage(2, HALF_P)), (1,))

    def test_tail_below_prefix_rejected(self):
        # A tail density is expressed at the first stage's number, here P.
        stages = (Stage(2, HALF_P), Stage(3, HALF_P))
        with pytest.raises(ValueError):
            spectrum_of_chain(ChainPresentation(stages, (1,), TailRule("attained", Fraction(1))))
        with pytest.raises(ValueError):
            spectrum_of_chain(ChainPresentation(stages, (1,), TailRule("approached", Fraction(3, 2))))

    def test_tail_below_prefix_names_the_last_set(self):
        # The stages ascend, so the last one is tested against the tail, and a
        # limit of density below 1 is named without being built.
        chain = ChainPresentation((Stage(2, HALF_P), Stage(3, HALF_P)), (1,), TailRule("attained", Fraction(1, 2)))
        message = r"^prefix set S\(1, 2\^0\*3\^2\*P\) is not inside the tail limit S\(1/2, P\)$"
        with pytest.raises(ValueError, match=message):
            spectrum_of_chain(chain)


class TestSaturationAxioms:
    def test_canonical_sets_pass(self):
        for S in (S32, S32_STRICT, SSQRT2, Segment(9), ALL_NATURALS, mk_inf_type(parse("2^inf"))):
            assert check_saturation_axioms(S, samples=400, seed=3) is None

    def test_raw_strict_surd_passes(self):
        raw = FiniteType(SQRT2, P, True)
        assert check_saturation_axioms(raw, samples=400, seed=5) is None

    def test_adversarial_literal_fails_axiom_3(self):
        one = SteinitzNumber.from_int(1)
        v = check_saturation_axioms([one, mul_natural(one, 3)], samples=200, seed=0)
        assert v is not None and v.axiom == 3 and "2*" in v.witness

    def test_literal_violating_axiom_2(self):
        v = check_saturation_axioms([P], samples=200, seed=0)
        assert v is not None and v.axiom == 2

    def test_empty_literal_passes(self):
        assert check_saturation_axioms([]) is None

    def test_literal_violating_axiom_1(self):
        v = check_saturation_axioms([SteinitzNumber.from_int(1), parse("2^inf")], seed=1)
        assert (v.axiom, v.witness) == (1, "1 and 2^inf are not rationally connected")


class TestCollapseProbe:
    def test_extensional_equality_under_collapse(self):
        raw = FiniteType(Fraction(1), parse("2^inf"), False)
        assert equals_extensional(raw, mk_inf_type(parse("2^inf")), budget=100)

    def test_formal_distinguishes_raw_descriptors(self):
        raw = FiniteType(Fraction(1), parse("2^inf"), False)
        assert not equals_formal(raw, mk_inf_type(parse("2^inf")))

    def test_extensional_negative_control(self):
        assert not equals_extensional(S1, S32, budget=60)


class TestText:
    def test_canonical_roundtrips(self):
        for S in (Segment(4), ALL_NATURALS, mk_inf_type(parse("2^inf")), S32, S32_STRICT, SSQRT2):
            assert parse_set(format_set(S)) == S

    def test_normalizing_parse(self):
        assert format_set(parse_set("S(3/2, 2^inf*3)")) == "S(inf, 2^inf*3)"
        assert format_set(parse_set("S+(sqrt(2), P)")) == "S((0+1*sqrt(2))/1, P)"

    def test_infinite_type_over_the_default_inf(self):
        assert format_set(mk_inf_type(parse("P^inf*2^3*5^0"))) == "S(inf, 2^3*5^0*P^inf)"


BASES = [P, parse("P^1*2^3"), parse("P^2"), parse("2^inf"), parse("2^inf*3")]
DENSITIES = [Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(5, 2), SQRT2, SQRT5]

saturated_sets = st.one_of(
    st.builds(Segment, st.integers(min_value=1, max_value=40)),
    st.just(ALL_NATURALS),
    st.builds(mk_inf_type, st.sampled_from(BASES)),
    st.builds(mk_finite_type, st.sampled_from(DENSITIES), st.sampled_from(BASES), st.booleans()),
)


@settings(max_examples=60, deadline=None)
@given(saturated_sets, saturated_sets)
def test_inclusion_consistent_with_membership(Sa, Sb):
    verdict = compare_inclusion(Sa, Sb)
    sa = sample_members(Sa, den_bound=12, limit=25)
    sb = sample_members(Sb, den_bound=12, limit=25)
    if verdict == Inclusion.DISJOINT:
        assert not any(contains(Sb, t) for t in sa)
        assert not any(contains(Sa, t) for t in sb)
    elif verdict in (Inclusion.EQUAL, Inclusion.LEFT_IN_RIGHT):
        assert all(contains(Sb, t) for t in sa)
    if verdict in (Inclusion.EQUAL, Inclusion.RIGHT_IN_LEFT):
        assert all(contains(Sa, t) for t in sb)


@settings(max_examples=60, deadline=None)
@given(saturated_sets, saturated_sets, saturated_sets)
def test_equals_formal_equivalence_relation(Sa, Sb, Sc):
    assert equals_formal(Sa, Sa)
    assert equals_formal(Sa, Sb) == equals_formal(Sb, Sa)
    if equals_formal(Sa, Sb) and equals_formal(Sb, Sc):
        assert equals_formal(Sa, Sc)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(DENSITIES),
    st.sampled_from([P, parse("P^1*2^3"), parse("P^2")]),
    st.booleans(),
)
def test_density_sandwich(r, base, strict):
    S = mk_finite_type(r, base, strict)
    if not contains(S, base):
        return
    for b in enumerate_omega(base, 30):
        k = r_sub(S, base, b)
        rb_vs_k = cmp_density(scale_density(r, Fraction(b)), Fraction(k))
        rb_vs_k1 = cmp_density(scale_density(r, Fraction(b)), Fraction(k + 1))
        assert rb_vs_k >= 0  # r_s(b) <= r*b
        assert rb_vs_k1 <= 0  # r*b <= r_s(b) + 1


@st.composite
def sets_and_candidates(draw):
    """(S, t): S has a rational density or a surd (x + y*sqrt(d))/z with x of
    either sign, over a listed base (built raw where the base has an infinite
    prime, so that it keeps its density); t is i*base/b with i at or next to
    floor(r*b), any i, or a number that may not be connected to the base."""
    x, y, d, z = st.sampled_from(range(-5, 6)), st.integers(1, 4), st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)
    surds = st.builds(Surd.make, x, y, d, z)
    rationals = st.fractions(min_value=1, max_value=4, max_denominator=6)
    r = draw(st.one_of(rationals, surds.filter(lambda r: cmp_density(r, Fraction(1)) >= 0)))
    base, strict = draw(st.sampled_from(BASES)), draw(st.booleans())
    S = mk_finite_type(r, base, strict) if base.is_infinity_free else FiniteType(r, base, strict)
    b = draw(st.sampled_from(enumerate_omega(base, 12)))
    i = draw(st.one_of(st.integers(-1, 1).map(lambda k: floor_times(_parts(r), b) + k), st.integers(1, 40)))
    other = st.sampled_from([P, parse("P^2"), parse("2^inf*P"), parse("3^inf"), parse("P^inf")])
    return S, draw(st.one_of(st.just(mul_natural(divide_by(base, b), max(i, 1))), other))


@settings(max_examples=100, deadline=None)
@given(sets_and_candidates())
@example((mk_finite_type(Surd.make(5, 1, 2, 1), P), P))  # q = 1 against 5 + sqrt(2): a = 1 - 5 < 0
@example((mk_finite_type(Surd.make(2, 1, 2, 1), P), parse_scaled("(2/1)*P")))  # q = 2 against 2 + sqrt(2): a = 0
@example((S32_STRICT, parse_scaled("(3/2)*P")))  # q = r at a strict bound
# Raw forms that normalization never builds:
@example((FiniteType(2, P, False), parse_scaled("(2/1)*P")))  # an int density, q = r
@example((FiniteType(Surd.make(2, 1, 2, 1), P, True), parse_scaled("(2/1)*P")))  # strict surd, a = 0: 2 < 2+sqrt(2)
@example((FiniteType(Fraction(5, 4), P, True), P))  # strict, though 4 is not in Omega(P)
@example((Segment(5), SteinitzNumber.from_int(5)))  # q = n
@example((Segment(5), SteinitzNumber.from_int(6)))  # q = n + 1
def test_contains_agrees_with_the_density_comparison(pair):
    # Membership is q = t/base against r, strict-aware; density and r_sub refuse
    # exactly the non-members, and give the rebased density at a member.  The
    # density is defined at infinite members only.
    S, t = pair
    q = ratio_if_connected(S.base, t)
    c = None if q is None else cmp_density(q, S.r)
    member = c is not None and (c < 0 or (c == 0 and not S.strict))
    assert contains(S, t) == member
    if member:
        assert t.is_natural or density(S, t) == scale_density(S.r, 1 / q)
        assert r_sub(S, t, 1) >= 1
        return
    for refused in (lambda: r_sub(S, t, 1),) + (() if t.is_natural else (lambda: density(S, t),)):
        with pytest.raises(ValueError, match="is not a member of"):
            refused()


@settings(max_examples=50, deadline=None)
@given(saturated_sets)
def test_max_element_dominates_members(S):
    m = max_element(S)
    if m is None:
        return
    assert contains(S, m)
    for t in sample_members(S, den_bound=10, limit=20):
        if isinstance(S, Segment):
            assert t.as_int() <= m.as_int()
        else:
            q = ratio_if_connected(m, t)
            assert q <= 1


natural_sets = st.one_of(st.builds(Segment, st.integers(min_value=1, max_value=60)), st.just(ALL_NATURALS))


def _top(S):
    # The largest member of a natural set as an int, or None for N.
    return S.n if isinstance(S, Segment) else None


@given(natural_sets, natural_sets, st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=12))
def test_natural_sets_match_integer_arithmetic(Sa, Sb, m, b):
    n, n2 = _top(Sa), _top(Sb)
    t = SteinitzNumber.from_int(m)
    assert contains(Sa, t) == (n is None or m <= n)
    assert not contains(Sa, mul_natural(P, m))
    tb = SteinitzNumber.from_int(m * b)  # b is in Omega(m*b)
    if contains(Sa, tb):
        assert r_sub(Sa, tb, b) == (INFINITY if n is None else n * b // (m * b))
    assert max_element(Sa) == (None if n is None else SteinitzNumber.from_int(n))
    if n == n2:
        want = Inclusion.EQUAL
    elif n2 is None or (n is not None and n < n2):
        want = Inclusion.LEFT_IN_RIGHT
    else:
        want = Inclusion.RIGHT_IN_LEFT
    assert compare_inclusion(Sa, Sb) is want
    assert compare_inclusion(Sa, S32) is Inclusion.DISJOINT


# Chains over a base s: quotients q_i, then s_i = q_i*s_{i+1} back from the
# last stage s, then sizes with k_i*q_i <= k_{i+1}.  The bases are natural,
# infinity-free, or 2^inf*3, whose unital spectra collapse to S(inf, .).
CHAIN_BASES = ["1", "2*3", "P", "2^3*P", "(1/2)*P", "2^inf*3"]
CHAIN_DENSITIES = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 3), SQRT2, SQRT5]


def arbitrary_stages(rng, base):
    quotients = tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(0, 3)))
    numbers = [parse_scaled(base)]
    for q in reversed(quotients):
        numbers.insert(0, mul_natural(numbers[0], q))
    sizes = [rng.randint(1, 4)]
    for q in quotients:
        sizes.append(sizes[-1] * q + rng.choice((0, 0, 1, 2)))
    return tuple(map(Stage, sizes, numbers)), quotients


def seeded_chains(rng, count):
    tails = [None, TailRule("unbounded"), TailRule("attained", Fraction(3)), TailRule("approached", Fraction(2))]
    return [ChainPresentation(*arbitrary_stages(rng, rng.choice(CHAIN_BASES)), rng.choice(tails)) for _ in range(count)]


#: A seeded set of chains, with and without a tail, and the realized chains of the acceptance corpus.
CHAINS = seeded_chains(random.Random(20261020), 300) + [realize(S) for _, S in oracle.acceptance_corpus()]


def test_chain_ends_ascend():
    # The stage number n_i = k_i*s_i is (k_i*q_i/k_{i+1})*n_{i+1}, a ratio at
    # most 1 whose denominator divides k_{i+1}, so n_{i+1}: n_i is a corner of
    # n_{i+1}.  So the first stage's spectrum lies inside the last stage's,
    # and spectrum_of_chain tests no ascent.
    for chain in CHAINS:
        first, last = (spec_unital(stage.number).spectrum for stage in (chain.stages[0], chain.stages[-1]))
        assert compare_inclusion(first, last) in (Inclusion.EQUAL, Inclusion.LEFT_IN_RIGHT), chain


# (kind, r) pairs, a kind of None meaning no tail; the test builds the TailRule.
# r is None for some draws, so that an unbounded tail is also accepted.
chain_tails = st.tuples(
    st.sampled_from([None, "attained", "approached", "attained", "approached", "unbounded", "spiral"]),
    st.sampled_from(CHAIN_DENSITIES + [Fraction(1, 2), INFINITY, None]),
)


def union_by_rebased_densities(prefix, kind, r):
    """The union the chain declares, or None when it is rejected: each prefix
    set's density, rebased to the base of the first set, must lie below the
    declared density (or equal it, unless a closed set meets an approached
    tail), and an infinite-type prefix admits no density tail."""
    for a, b in zip(prefix, prefix[1:]):
        if compare_inclusion(a, b) not in (Inclusion.EQUAL, Inclusion.LEFT_IN_RIGHT):
            return None
    if kind is None:
        return prefix[-1]
    base = prefix[0].base
    if kind == "unbounded":
        return None if r is not None else mk_inf_type(base)
    if kind not in ("attained", "approached") or r is None:
        return None
    if r is INFINITY:
        return mk_inf_type(base)
    if base.is_natural:
        return None
    for S in prefix:
        if S.r is INFINITY:
            return None
        here = scale_density(S.r, 1 / ratio_if_connected(S.base, base))
        c = cmp_density(r, here)
        if c < 0 or (c == 0 and kind == "approached" and not S.strict):
            return None
    return mk_finite_type(r, base, kind == "approached")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CHAIN_BASES), st.integers(min_value=0), chain_tails)
@example("2*3", 0, ("attained", INFINITY))
@example("2*3", 0, ("approached", INFINITY))
def test_union_chain_matches_rebased_density_rule(base, seed, tail):
    kind, r = tail
    stages, quotients = arbitrary_stages(random.Random(seed), base)
    want = union_by_rebased_densities([spec_unital(stage.number).spectrum for stage in stages], kind, r)

    def union():
        return spectrum_of_chain(ChainPresentation(stages, quotients, None if kind is None else TailRule(kind, r)))

    if want is None:
        with pytest.raises(ValueError):
            union()
    else:
        assert union() == want


@pytest.mark.parametrize("kind", ["attained", "approached"])
@pytest.mark.parametrize(
    "stages",
    [(Stage(1, P),), (Stage(1, P), Stage(2, P)), (Stage(1, parse("2^inf*3")),)],
    ids=["one", "two", "inf-type"],
)
def test_union_chain_density_tail_without_density(kind, stages):
    with pytest.raises(ValueError, match="density"):
        spectrum_of_chain(ChainPresentation(stages, (1,) * (len(stages) - 1), TailRule(kind)))


# sample_members against the sweep it has always defined: Omega(base) listed
# up front, every a/b built as a Fraction, filtered with cmp_density, scaled
# onto the base and deduplicated by the number it names.
SAMPLE_BASES = [
    P, parse("P^1*2^3"), parse("P^2"), HALF_P, parse("2^inf"), parse("2^inf*3"), parse("P*7^inf"),
    parse("P^inf"), parse("P^inf*3"),
]
RAW_BASES = [parse("2^inf"), parse("2^inf*3"), parse("P*7^inf")]


def sample_by_definition(S, den_bound, limit):
    if isinstance(S, (Segment, AllNaturals)):
        top = S.n if isinstance(S, Segment) else (limit or 200)
        if limit is not None:
            top = min(top, limit)
        return [SteinitzNumber.from_int(i) for i in range(1, top + 1)]
    out, seen = [], set()
    for b in enumerate_omega(S.base, den_bound):
        hi = 3 * b + 1 if S.r is INFINITY else floor_times(_parts(S.r), b) + 1
        for a in range(1, hi + 1):
            c = cmp_density(Fraction(a, b), S.r)
            if c > 0 or (c == 0 and S.strict):
                continue
            t = scale(S.base, Fraction(a, b))
            if t not in seen:
                seen.add(t)
                out.append(t)
                if limit is not None and len(out) >= limit:
                    return out
    return out


sampled_sets = st.one_of(
    st.builds(Segment, st.integers(min_value=1, max_value=60)),
    st.just(ALL_NATURALS),
    st.builds(mk_inf_type, st.sampled_from(SAMPLE_BASES)),
    st.builds(mk_finite_type, st.sampled_from(DENSITIES), st.sampled_from(SAMPLE_BASES), st.booleans()),
    st.builds(FiniteType, st.sampled_from(DENSITIES), st.sampled_from(RAW_BASES), st.booleans()),
)


@settings(max_examples=80, deadline=None)
@given(
    sampled_sets,
    st.integers(min_value=1, max_value=256),
    st.one_of(st.none(), st.integers(min_value=1, max_value=150)),
)
@example(mk_inf_type(parse("P^inf*3")), 64, None)
def test_sample_members_matches_definition_sweep(S, den_bound, limit):
    if S.base.default == INF:
        # Every a/b names one of a few numbers, so the definition sweep builds
        # about 1.5*den_bound^2 of them without reaching its limit (0.9 s at 256
        # on a 2-core Xeon).
        den_bound = min(den_bound, 64)
    assert sample_members(S, den_bound=den_bound, limit=limit) == sample_by_definition(S, den_bound, limit)


@st.composite
def members_and_divisors(draw):
    """(S, t, b): a set of any kind, one of its sampled members t, and b in Omega(t).
    Over a raw set's base with an infinite prime, a sampled number need not be a member."""
    S = draw(sampled_sets)
    t = draw(st.sampled_from([t for t in sample_members(S, den_bound=12, limit=30) if contains(S, t)] or [None]))
    assume(t is not None)
    return S, t, draw(st.sampled_from(enumerate_omega(t, 60)))


@settings(max_examples=100, deadline=None)
@given(members_and_divisors())
def test_r_sub_matches_the_rebased_density_path(case):
    # The path r_sub once took: the density r/q of S rebased to the member
    # t = q*base, built as a value, then the floor dichotomy of it at b.
    S, t, b = case
    rebased = scale_density(S.r, 1 / ratio_if_connected(S.base, t))
    assert r_sub(S, t, b) == _floor_count(None if rebased is INFINITY else _parts(rebased), S.strict, b)


def test_decisions_build_no_fraction_and_no_surd(monkeypatch):
    # Each of these decisions compares a density with a ratio of two integers,
    # so it reads integer parts: building a normalized Fraction or Surd only to
    # compare or floor it costs more than the comparison.
    closed_b8 = mk_finite_type(Fraction(5, 2), parse("P^1*2^3"))
    surd_b8 = mk_finite_type(Surd.make(1, 1, 5, 2), parse("P^1*2^3"))
    three_halves = Fraction(3, 2)
    built = []
    new, make = Fraction.__new__, Surd.make

    def counted_new(cls, *args, **kwargs):
        built.append(("Fraction", args))
        return new(cls, *args, **kwargs)

    def counted_make(cls, *args):
        built.append(("Surd", args))
        return make(*args)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Surd, "make", classmethod(counted_make))
    for left, right in ((S32, closed_b8), (SSQRT2, surd_b8), (S32_STRICT, SSQRT2), (surd_b8, S1)):
        compare_inclusion(left, right)
        equals_formal(left, right)
    for S in (S32, S32_STRICT, SSQRT2, closed_b8, surd_b8):
        r_sub(S, P, 6)
        r_sub(S, HALF_P, 15)
        max_element(S)
    scale(P, three_halves)
    scale(P, 3)
    monkeypatch.undo()
    assert built == []


#: A set of each kind with a finite density, raw forms and one over an infinite prime included.
_FINITE_SETS = [
    Segment(7),
    S32,
    S32_STRICT,
    SSQRT2,
    mk_finite_type(Surd.make(1, 1, 5, 2), parse("P^1*2^3"), True),
    FiniteType(2, P, False),
    FiniteType(Fraction(5, 4), P, True),
    FiniteType(Fraction(3, 2), parse("2^inf*3^4*P"), False),
]


@pytest.mark.parametrize("S", _FINITE_SETS, ids=format_set)
def test_a_set_keeps_the_parts_of_its_density_and_not_as_a_field(S):
    # The parts that decisions read are _parts(r), built with the set.  They
    # are no field: equality, hash, repr and pickling see the fields alone.
    assert S._parts == _parts(S.r)
    fields = ("n",) if isinstance(S, Segment) else ("r", "base", "strict")
    assert type(S).__match_args__ == fields and S._values == tuple(getattr(S, f) for f in fields)
    assert repr(S) == f"{type(S).__qualname__}({', '.join(f'{f}={getattr(S, f)!r}' for f in fields)})"
    assert hash(S) == hash(S._values)
    again = pickle.loads(pickle.dumps(S))
    assert again == S and hash(again) == hash(S) and again._parts == S._parts
    with pytest.raises(AttributeError):
        S._parts = (1, 0, 1, 1)


def test_infinite_sets_keep_no_parts():
    assert ALL_NATURALS._parts is None and mk_inf_type(P)._parts is None


def test_a_brute_scan_reads_no_fraction_property(monkeypatch):
    # Each membership test of a scan reads the parts its set keeps, not the
    # numerator and denominator properties of its Fraction density.
    scans = [(S, t, enumerate_omega(t, 12)) for S, t in ((S32, P), (SSQRT2, P), (Segment(50), SteinitzNumber.from_int(50)))]
    read = []
    for name in ("numerator", "denominator"):
        prop = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, property(lambda q, f=prop.fget, n=name: read.append(n) or f(q)))
    for S, t, omega in scans:
        for b in omega:
            oracle.r_sub_brute(S, t, b, i_bound=3 * b + 80)
    monkeypatch.undo()
    assert read == []


def test_inclusion_decisions_read_no_fraction_property(monkeypatch):
    # compare_inclusion and equals_formal compare the parts both sets keep,
    # not the numerator and denominator properties of their Fraction densities.
    pairs = [
        (S32, S1),
        (S32, mk_finite_type(Fraction(3), HALF_P)),  # equal, over two bases
        (SSQRT2, S32),
        (SSQRT2, mk_finite_type(SQRT5, HALF_P)),
        (S32_STRICT, S32),
        (FiniteType(2, P, True), mk_finite_type(Fraction(4), HALF_P)),
        (mk_inf_type(P), S32),
        (ALL_NATURALS, Segment(7)),
        (Segment(7), Segment(50)),
        (S32, mk_inf_type(parse("2^inf"))),
    ]
    pairs += [(B, A) for A, B in pairs]
    verdicts = [(compare_inclusion(A, B), equals_formal(A, B)) for A, B in pairs]
    read = []
    for name in ("numerator", "denominator"):
        prop = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, property(lambda q, f=prop.fget, n=name: read.append(n) or f(q)))
    again = [(compare_inclusion(A, B), equals_formal(A, B)) for A, B in pairs]
    monkeypatch.undo()
    assert read == [] and again == verdicts
    assert verdicts[1] == (Inclusion.EQUAL, True) and verdicts[5] == (Inclusion.LEFT_IN_RIGHT, False)


def test_oracle_probes_pick_their_membership_test_once_per_set(monkeypatch):
    # The choice between contains and the representation search reads the
    # probed set's base once per set, so more probes read it no more often.
    prop = SteinitzNumber.is_infinity_free
    read = []
    monkeypatch.setattr(SteinitzNumber, "is_infinity_free", property(lambda s: read.append(s) or prop.fget(s)))

    def reads(check, *args, **kwargs):
        del read[:]
        check(*args, **kwargs)
        return len(read)

    raw = FiniteType(Fraction(3, 2), parse("2^inf*3"), False)
    for S1, S2 in ((S32, S32), (raw, mk_inf_type(parse("2^inf*3"))), (raw, raw)):
        assert reads(equals_extensional, S1, S2, budget=5) == reads(equals_extensional, S1, S2, budget=50) <= 4
        assert reads(check_saturation_axioms, S1, samples=100) == reads(check_saturation_axioms, S1, samples=400) <= 2
    monkeypatch.undo()


@pytest.mark.parametrize("limit", [0, -1, True, 2.5], ids=["zero", "negative", "bool", "float"])
def test_sample_members_takes_a_count_as_its_limit(limit):
    # A limit of 0 once returned one member, [P]: it was tested only after a member was taken.
    if type(limit) is int:
        message = f"limit must be positive, got {limit}"
    else:
        message = f"limit must be an int, got {limit!r} ({type(limit).__name__})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_members(S32, limit=limit)


@pytest.mark.parametrize(
    "S,den_bound,message",
    [
        (S32, 0, "bound must be positive, got 0"),
        (S32, True, "bound must be an int, got True (bool)"),
        (ALL_NATURALS, 0, "bound must be positive, got 0"),
        (ALL_NATURALS, True, "bound must be an int, got True (bool)"),
        (ALL_NATURALS, "x", "bound must be an int, got 'x' (str)"),
    ],
    ids=["zero", "bool", "N-zero", "N-bool", "N-str"],
)
def test_sample_members_takes_a_count_as_its_den_bound(S, den_bound, message):
    # N's sweep never reads den_bound, but refuses what every other set refuses.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_members(S, den_bound=den_bound)


def test_equals_extensional_stops_at_the_first_disagreement(monkeypatch):
    # The sweep of S(3/2, P) meets P, (1/2)*P, then (3/2)*P, which S(1, P) lacks:
    # no later member is built, though the budget allows 100.
    built = []

    def counted(s, n):
        built.append(n)
        return mul_natural(s, n)

    monkeypatch.setattr(oracle, "mul_natural", counted)
    assert not equals_extensional(S32, S1, budget=100)
    assert built == [1, 1, 3]


@pytest.fixture
def omega_tests(monkeypatch):
    """Counts Omega membership tests: every omega_contains, divide_by and
    steinitz._divided goes through steinitz._quotient."""
    calls = []
    quotient = steinitz._quotient

    def counted(s, n):
        calls.append(n)
        return quotient(s, n)

    monkeypatch.setattr(steinitz, "_quotient", counted)
    return calls


def test_sample_members_stops_testing_omega_at_its_limit(omega_tests):
    # The 100th member lies at b = 17: each n <= 17 is tested once, by the
    # _divided that also divides the base by the 12 squarefree b among them,
    # 17 in all.
    assert len(sample_members(S32, den_bound=256, limit=100)) == 100
    assert omega_tests == list(range(1, 18))


def test_sample_members_skips_numbers_an_absorbed_prime_makes_equal(monkeypatch):
    # Over P^inf every a/b names P^inf; only a = 1 is built at each b <= 256.
    calls = []

    def counted(s, n):
        calls.append(n)
        return mul_natural(s, n)

    monkeypatch.setattr(oracle, "mul_natural", counted)
    p_inf = parse("P^inf")
    assert sample_members(mk_inf_type(p_inf), 256, 100) == [p_inf]
    assert len(calls) <= 256


def test_sample_members_at_default_inf_builds_only_unabsorbed_numerators(monkeypatch):
    # Over P^inf every prime is absorbed, so only a = 1 is built: the 256 b each
    # cost an Omega test that also divides, and a product, one _split apiece.
    calls = []

    def counted(n, radical):
        calls.append(n)
        return split(n, radical)

    split = steinitz._split
    monkeypatch.setattr(steinitz, "_split", counted)
    monkeypatch.setattr(oracle, "_split", counted, raising=False)  # for a sampler that splits each a itself
    p_inf = parse("P^inf")
    assert sample_members(mk_inf_type(p_inf), 256, 100) == [p_inf]
    assert len(calls) <= 512


@pytest.mark.parametrize(
    "S",
    [S32, mk_finite_type(Fraction(3, 2), P, True), mk_finite_type(Surd.make(1, 1, 2, 1), parse("P^2*2^3"), False),
     mk_inf_type(P), Segment(40)],
    ids=["closed", "strict", "surd", "inf-type", "segment"],
)
def test_sample_members_over_an_infinity_free_base_hashes_nothing(monkeypatch, S):
    # The ratio to an infinity-free base is unique, so lowest-terms ratios name
    # distinct numbers and no sample is hashed to deduplicate it.
    hashes = []

    def counted(s):
        hashes.append(s)
        return hash_number(s)

    hash_number = SteinitzNumber.__hash__
    monkeypatch.setattr(SteinitzNumber, "__hash__", counted)
    members = sample_members(S, den_bound=256, limit=100)
    assert hashes == []
    monkeypatch.undo()
    assert len(members) == len(set(members)) == (40 if S == Segment(40) else 100)


def test_representation_search_stops_at_the_first_representation(omega_tests):
    # t = (1/1)*base is found at b = 1: one Omega test, which also divides.
    raw = FiniteType(1, parse("2^inf"), False)
    assert _existential_contains(raw, parse("2^inf"))
    assert omega_tests == [1]


def test_representation_search_rejects_an_unconnected_number(omega_tests):
    # 3^inf is not rationally connected to 2^inf: no b in Omega(2^inf) is tried.
    raw = FiniteType(1, parse("2^inf"), False)
    assert _existential_contains(raw, parse("3^inf")) is False
    assert omega_tests == []


def test_representation_search_says_when_it_gives_up():
    # Over 2^inf every connected t is a member, but 5^6 * 2^inf needs b = 2^14,
    # past the search bound: the search says so instead of answering False.
    raw = FiniteType(1, parse("2^inf"), False)
    assert contains(mk_finite_type(1, parse("2^inf")), parse("2^inf*5^6"))
    with pytest.raises(ValueError, match="4096"):
        _existential_contains(raw, parse("2^inf*5^6"))


def test_representation_search_takes_only_natural_numerators():
    # 2^inf = (1/5^6)*base, and 5^6 > 4096 is the least b with a natural a:
    # the ratio 1/5^6 at b = 1 is no representation, so the search gives up.
    raw = FiniteType(1, parse("2^inf*5^6"), False)
    assert contains(mk_finite_type(1, parse("2^inf*5^6")), parse("2^inf"))
    with pytest.raises(ValueError, match="4096"):
        _existential_contains(raw, parse("2^inf"))
