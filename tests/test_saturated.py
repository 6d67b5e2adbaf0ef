"""Saturated sets: normalization, membership, trichotomy, closed forms."""

from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locmat import oracle, steinitz
from locmat.density import INFINITY, Surd, cmp_density, floor_times, scale_density
from locmat.oracle import _existential_contains, check_saturation_axioms, equals_extensional, sample_members
from locmat.saturated import (
    ALL_NATURALS,
    AllNaturals,
    FiniteType,
    Inclusion,
    InfType,
    Segment,
    TailRule,
    compare_inclusion,
    contains,
    density,
    equals_formal,
    format_set,
    max_element,
    mk_finite_type,
    mk_inf_type,
    mk_segment,
    parse_set,
    r_sub,
    rebase,
    union_chain,
)
from locmat.steinitz import (
    INF,
    ONE,
    SteinitzNumber,
    canonical_ratio,
    divide_by,
    enumerate_omega,
    mul_natural,
    parse,
    parse_scaled,
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

    def test_density_below_one_rejected(self):
        with pytest.raises(ValueError):
            mk_finite_type(Fraction(1, 2), P, False)

    def test_infinity_density_delegates(self):
        assert mk_finite_type(INFINITY, P, False) == InfType(P)


class TestContains:
    def test_segment(self):
        assert contains(mk_segment(4), SteinitzNumber.from_int(3))
        assert not contains(mk_segment(4), SteinitzNumber.from_int(5))
        assert not contains(mk_segment(4), P)

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
        assert rebase(S32, HALF_P) == (Fraction(3), False)

    def test_identity_at_base(self):
        assert rebase(S32_STRICT, P) == (Fraction(3, 2), True)

    def test_inf_type(self):
        assert rebase(mk_inf_type(parse("2^inf")), parse_scaled("(3/1)*2^inf")) == (INFINITY, False)

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            rebase(S32, parse_scaled("(2/1)*P"))


class TestDensity:
    def test_stored_at_base(self):
        assert density(S32, P) == Fraction(3, 2)

    def test_rebased(self):
        assert density(S32, HALF_P) == Fraction(3)

    def test_infinite_type(self):
        assert density(mk_inf_type(parse("2^inf")), parse("2^inf")) is INFINITY

    def test_natural_member_rejected(self):
        with pytest.raises(ValueError):
            density(mk_segment(5), SteinitzNumber.from_int(3))


class TestEqualsFormal:
    def test_rebase_identity(self):
        assert equals_formal(S32, mk_finite_type(Fraction(3), HALF_P, False))

    def test_strictness_distinguishes(self):
        assert not equals_formal(S32, S32_STRICT)

    def test_reflexive(self):
        for S in (S32, S32_STRICT, SSQRT2, mk_segment(7), ALL_NATURALS, mk_inf_type(P)):
            assert equals_formal(S, S)

    def test_cross_kind(self):
        assert not equals_formal(mk_segment(3), ALL_NATURALS)
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
        assert compare_inclusion(mk_segment(3), mk_segment(5)) == Inclusion.LEFT_IN_RIGHT
        assert compare_inclusion(mk_segment(5), mk_segment(5)) == Inclusion.EQUAL
        assert compare_inclusion(ALL_NATURALS, mk_segment(5)) == Inclusion.RIGHT_IN_LEFT

    def test_natural_vs_based_disjoint(self):
        assert compare_inclusion(mk_segment(5), mk_inf_type(P)) == Inclusion.DISJOINT

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
        assert r_sub(mk_segment(7), SteinitzNumber.from_int(6), 2) == 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            r_sub(S32, parse_scaled("(2/1)*P"), 2)
        with pytest.raises(ValueError):
            r_sub(S32, P, 4)


class TestMaxElement:
    def test_segment(self):
        assert max_element(mk_segment(7)) == SteinitzNumber.from_int(7)

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
    def test_finite_prefix(self):
        assert union_chain([S1, S32]) == S32

    def test_approached_tail(self):
        assert union_chain([S1], TailRule.approached(Fraction(2))) == mk_finite_type(Fraction(2), P, True)

    def test_unbounded_tail(self):
        assert union_chain([S1], TailRule.unbounded()) == InfType(P)

    def test_segments_to_naturals(self):
        assert union_chain([mk_segment(1), mk_segment(4)], TailRule.unbounded()) == ALL_NATURALS

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            union_chain([S32, S1])

    def test_tail_below_prefix_rejected(self):
        with pytest.raises(ValueError):
            union_chain([S32], TailRule.attained(Fraction(1)))
        with pytest.raises(ValueError):
            union_chain([S32], TailRule.approached(Fraction(3, 2)))


class TestSaturationAxioms:
    def test_canonical_sets_pass(self):
        for S in (S32, S32_STRICT, SSQRT2, mk_segment(9), ALL_NATURALS, mk_inf_type(parse("2^inf"))):
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
        for S in (mk_segment(4), ALL_NATURALS, mk_inf_type(parse("2^inf")), S32, S32_STRICT, SSQRT2):
            assert parse_set(format_set(S)) == S

    def test_normalizing_parse(self):
        assert format_set(parse_set("S(3/2, 2^inf*3)")) == "S(inf, 2^inf*3)"
        assert format_set(parse_set("S+(sqrt(2), P)")) == "S((0+1*sqrt(2))/1, P)"


BASES = [P, parse("P^1*2^3"), parse("P^2"), parse("2^inf"), parse("2^inf*3")]
DENSITIES = [Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(5, 2), SQRT2, SQRT5]

saturated_sets = st.one_of(
    st.builds(mk_segment, st.integers(min_value=1, max_value=40)),
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
            q = canonical_ratio(m, t)
            assert q <= 1


natural_sets = st.one_of(st.builds(mk_segment, st.integers(min_value=1, max_value=60)), st.just(ALL_NATURALS))


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


# union_chain against the rule it has always applied to a density tail: each
# prefix set's density, rebased to the base of the first set, must lie below
# the declared density (or equal it, unless a closed set meets an approached
# tail), and an infinite-type prefix admits no density tail.
CHAIN_BASES = [P, parse("2^3*P"), HALF_P, parse("2^inf*3")]
CHAIN_DENSITIES = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 3), SQRT2, SQRT5]


@st.composite
def chain_sets(draw):
    shape = draw(st.sampled_from(["segment", "inf-type", "normalized", "raw", "normalized", "raw"]))
    if shape == "segment":
        return mk_segment(draw(st.integers(min_value=1, max_value=6)))
    base = draw(st.sampled_from(CHAIN_BASES))
    if shape == "inf-type":
        return mk_inf_type(base)
    make = mk_finite_type if shape == "normalized" else FiniteType
    return make(draw(st.sampled_from(CHAIN_DENSITIES)), base, draw(st.booleans()))


chain_tails = st.builds(
    lambda kind, r: None if kind is None else TailRule(kind, r),
    st.sampled_from([None, "attained", "approached", "attained", "approached", "unbounded", "spiral"]),
    st.sampled_from(CHAIN_DENSITIES + [INFINITY]),
)


def _inclusion_order(a, b):
    return {Inclusion.LEFT_IN_RIGHT: -1, Inclusion.RIGHT_IN_LEFT: 1}.get(compare_inclusion(a, b), 0)


# Half the prefixes are sorted by inclusion, so that many chains ascend.
_chain_lists = st.lists(chain_sets(), min_size=1, max_size=3)
chain_prefixes = st.one_of(_chain_lists, _chain_lists.map(lambda xs: sorted(xs, key=cmp_to_key(_inclusion_order))))


def union_by_rebased_densities(prefix, tail):
    """The union the chain declares, or None when it is rejected."""
    for a, b in zip(prefix, prefix[1:]):
        if compare_inclusion(a, b) not in (Inclusion.EQUAL, Inclusion.LEFT_IN_RIGHT):
            return None
    if tail is None:
        return prefix[-1]
    base = prefix[0].base
    if tail.kind == "unbounded":
        return mk_inf_type(base)
    if tail.kind not in ("attained", "approached") or base.is_natural:
        return None
    for S in prefix:
        if S.r is INFINITY:
            return None
        here = scale_density(S.r, 1 / canonical_ratio(S.base, base))
        c = cmp_density(tail.r, here)
        if c < 0 or (c == 0 and tail.kind == "approached" and not S.strict):
            return None
    return mk_finite_type(tail.r, base, tail.kind == "approached")


@settings(max_examples=400, deadline=None)
@given(chain_prefixes, chain_tails)
def test_union_chain_matches_rebased_density_rule(prefix, tail):
    want = union_by_rebased_densities(prefix, tail)
    if want is None:
        with pytest.raises(ValueError):
            union_chain(prefix, tail)
    else:
        assert union_chain(prefix, tail) == want


@pytest.mark.parametrize("kind", ["attained", "approached"])
@pytest.mark.parametrize("prefix", [[S1], [S1, S32], [mk_inf_type(P)]], ids=["one", "two", "inf-type"])
def test_union_chain_density_tail_without_density(kind, prefix):
    with pytest.raises(ValueError, match="density"):
        union_chain(prefix, TailRule(kind))


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
        hi = 3 * b + 1 if S.r is INFINITY else floor_times(S.r, b) + 1
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
    st.builds(mk_segment, st.integers(min_value=1, max_value=60)),
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


@pytest.fixture
def omega_tests(monkeypatch):
    """Counts Omega membership tests: every omega_contains and divide_by
    goes through steinitz._quotient."""
    calls = []
    quotient = steinitz._quotient

    def counted(s, n):
        calls.append(n)
        return quotient(s, n)

    monkeypatch.setattr(steinitz, "_quotient", counted)
    return calls


def test_sample_members_stops_testing_omega_at_its_limit(omega_tests):
    # The 100th member lies at b = 17: each n <= 17 is tested once, and each
    # of the 12 squarefree b among them once more by divide_by, 29 in all.
    assert len(sample_members(S32, den_bound=256, limit=100)) == 100
    assert len(omega_tests) <= 40


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


def test_representation_search_stops_at_the_first_representation(omega_tests):
    # t = (1/1)*base is found at b = 1: one Omega test and one divide_by.
    raw = FiniteType(1, parse("2^inf"), False)
    assert _existential_contains(raw, parse("2^inf"))
    assert len(omega_tests) <= 4


def test_representation_search_rejects_an_unconnected_number(omega_tests):
    # 3^inf is not rationally connected to 2^inf: no b in Omega(2^inf) is tried.
    raw = FiniteType(1, parse("2^inf"), False)
    assert _existential_contains(raw, parse("3^inf")) is False
    assert omega_tests == []
