"""Algebra descriptors, decision procedures, and chain realization."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmat import algebra
from locmat.algebra import (
    AlgebraDescriptor,
    ChainPresentation,
    Stage,
    check_certificate,
    corner,
    embeds_as_approximative_corner,
    interleave,
    is_unital,
    isomorphic,
    m_infinity,
    match_corner,
    matrix_over,
    parse_descriptor,
    realize,
    spec_matrix,
    spec_unital,
    spectrum_of_chain,
)
from locmat.density import Surd
from locmat.oracle import FiniteMatrixChain, sample_members
from locmat.saturated import (
    ALL_NATURALS,
    FiniteType,
    InfType,
    Segment,
    TailRule,
    contains,
    equals_formal,
    mk_finite_type,
    mk_inf_type,
    mk_segment,
)
from locmat.steinitz import (
    ONE,
    ParseError,
    SteinitzNumber,
    canonical_ratio,
    mul_natural,
    parse,
    parse_scaled,
    rationally_connected,
    scale,
)

P = parse("P")
SQRT2 = Surd.make(0, 1, 2, 1)


class TestConstructors:
    def test_spec_matrix(self):
        assert spec_matrix(1).spectrum == Segment(1)
        assert spec_matrix(4).spectrum == Segment(4)

    def test_spec_unital_natural_members(self):
        # Members of the unital spectrum of st=4 are (a/b)*4 with b | 4,
        # a <= b: enumeration gives exactly {1, 2, 3, 4}.
        members = set()
        for b in (1, 2, 4):
            for a in range(1, b + 1):
                members.add(4 * a // b if (4 * a) % b == 0 else None)
        members.discard(None)
        assert members == {1, 2, 3, 4}
        assert spec_unital(parse("2^2")).spectrum == Segment(4)

    def test_spec_unital_infinite(self):
        A = spec_unital(P)
        assert A.spectrum == mk_finite_type(Fraction(1), P, False)
        assert not A.collapsed

    def test_spec_unital_collapse(self):
        A = spec_unital(parse("2^inf"))
        assert A.spectrum == InfType(parse("2^inf"))
        assert A.collapsed and A.unit_st == parse("2^inf")

    @pytest.mark.parametrize(
        "spectrum,unit_st",
        [
            (mk_inf_type(P), P),  # spec_unital(P) is S(1, P), not S(inf, P)
            (mk_segment(3), parse("3")),  # a segment has its own largest element
            (mk_segment(3), parse("2^inf")),
            (mk_inf_type(parse("2^inf")), parse("3^inf")),  # spec_unital(3^inf) is S(inf, 3^inf)
            (mk_finite_type(Fraction(1), P, False), parse("2^inf")),
        ],
    )
    def test_raw_unit_st_is_checked(self, spectrum, unit_st):
        with pytest.raises(ValueError, match="unit_st"):
            AlgebraDescriptor(spectrum, unit_st=unit_st)

    @pytest.mark.parametrize("text", ["2^inf", "2^inf*3", "2^inf*3^inf*5"])
    def test_collapsed_constructions_still_build(self, text):
        s = parse(text)
        A = spec_unital(s)
        assert A.collapsed and A.unit_st == s
        assert AlgebraDescriptor(A.spectrum, unit_st=s) == A
        M = matrix_over(A, 6)
        assert M.collapsed and M.st == mul_natural(s, 6)
        C = corner(A, Fraction(1, 2))
        assert C.collapsed and C.st == scale(s, Fraction(1, 2))

    def test_m_infinity(self):
        assert m_infinity(spec_matrix(1)).spectrum == ALL_NATURALS
        assert m_infinity(spec_unital(P)).spectrum == InfType(P)
        assert m_infinity(spec_unital(parse("2^inf*3"))).spectrum == InfType(parse("2^inf*3"))

    def test_m_infinity_requires_unit(self):
        with pytest.raises(ValueError):
            m_infinity(AlgebraDescriptor(mk_finite_type(Fraction(3, 2), P, True)))

    def test_matrix_over(self):
        assert matrix_over(spec_unital(P), 2).spectrum == mk_finite_type(Fraction(1), parse("2^2*P"), False)
        assert matrix_over(spec_matrix(3), 2).spectrum == Segment(6)
        A = spec_unital(P)
        assert matrix_over(A, 1) == A

    def test_corner(self):
        assert corner(spec_unital(P), Fraction(1, 2)) == spec_unital(parse_scaled("(1/2)*P"))
        A = spec_unital(P)
        assert corner(A, Fraction(1)) == A
        assert corner(spec_unital(parse("2^inf*3")), Fraction(3, 4)).spectrum == InfType(parse("2^inf*3^2"))

    def test_corner_validation(self):
        with pytest.raises(ValueError):
            corner(spec_unital(P), Fraction(3, 2))
        with pytest.raises(ValueError):
            corner(spec_unital(P), Fraction(1, 4))


class TestDecisions:
    def test_unital(self):
        assert is_unital(spec_matrix(7))
        assert not is_unital(AlgebraDescriptor(mk_finite_type(Fraction(3, 2), P, True)))
        assert not is_unital(AlgebraDescriptor(mk_inf_type(parse("2^inf"))))

    def test_collapsed_unital_agrees_with_st(self):
        # S(1, 2^inf) collapses to S(inf, 2^inf); the descriptor keeps st.
        A = spec_unital(parse("2^inf"))
        assert A.collapsed and A.st == parse("2^inf")
        assert is_unital(A)
        assert is_unital(matrix_over(A, 3))
        assert not is_unital(m_infinity(A))

    def test_unital_matches_max_element_on_closed(self):
        assert is_unital(AlgebraDescriptor(mk_finite_type(Fraction(3, 2), P, False)))
        assert not is_unital(AlgebraDescriptor(mk_finite_type(SQRT2, P, False)))

    def test_iso_roundtrip(self):
        A = spec_unital(P)
        assert isomorphic(A, corner(matrix_over(A, 2), Fraction(1, 2)))

    def test_iso_negative(self):
        assert not isomorphic(spec_matrix(3), spec_matrix(4))
        assert not isomorphic(m_infinity(spec_matrix(1)), spec_unital(P))

    def test_embed(self):
        strict = AlgebraDescriptor(mk_finite_type(Fraction(3, 2), P, True))
        closed = AlgebraDescriptor(mk_finite_type(Fraction(3, 2), P, False))
        assert embeds_as_approximative_corner(strict, closed)
        assert not embeds_as_approximative_corner(closed, strict)
        assert embeds_as_approximative_corner(spec_matrix(3), m_infinity(spec_matrix(1)))
        assert not embeds_as_approximative_corner(spec_unital(P), spec_unital(parse("2^inf")))


class TestRealize:
    def test_explicit_divisor_chain(self):
        chain = realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[2, 6])
        assert chain.stages == (Stage(3, parse_scaled("(1/2)*P")), Stage(9, parse_scaled("(1/6)*P")))
        assert chain.quotients == (3,)
        assert chain.stages[0].k * chain.quotients[0] <= chain.stages[1].k

    def test_strict_density_one(self):
        # S+(1, P) is the one canonical set whose base is not a member.
        S = mk_finite_type(Fraction(1), P, True)
        chain = realize(S)
        assert chain.stages[0] == Stage(1, parse_scaled("(1/2)*P"))
        assert equals_formal(spectrum_of_chain(chain), S)

    def test_segment(self):
        chain = realize(mk_segment(5))
        assert chain.stages == (Stage(5, ONE),)
        assert chain.tail is None

    def test_infinite_type(self):
        chain = realize(mk_inf_type(parse("2^inf")))
        assert all(st_.s == parse("2^inf") for st_ in chain.stages)
        assert [st_.k for st_ in chain.stages] == [1, 2, 3, 4]
        assert chain.tail == TailRule.unbounded()

    def test_invalid_divisor_chain(self):
        with pytest.raises(ValueError):
            realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[4])
        with pytest.raises(ValueError):
            realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[6, 2])
        with pytest.raises(ValueError):
            realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[2, 5])

    def test_corner_inequality_all_stages(self):
        for S in (
            mk_finite_type(Fraction(5, 2), parse("P^1*2^3"), True),
            mk_finite_type(SQRT2, P, False),
            mk_finite_type(Fraction(7, 3), P, False),
        ):
            chain = realize(S, depth=5)
            for i, q in enumerate(chain.quotients):
                assert chain.stages[i].k * q <= chain.stages[i + 1].k


class TestSpectrumOfChain:
    def test_roundtrip(self):
        for S in (
            mk_segment(5),
            ALL_NATURALS,
            mk_inf_type(parse("2^inf*3")),
            mk_finite_type(Fraction(3, 2), P, False),
            mk_finite_type(Fraction(3, 2), P, True),
            mk_finite_type(SQRT2, P, False),
        ):
            assert equals_formal(spectrum_of_chain(realize(S)), S)

    def test_single_matrix_stage(self):
        assert spectrum_of_chain(ChainPresentation((Stage(7, ONE),), ())) == Segment(7)

    def test_growing_stages_unbounded(self):
        chain = ChainPresentation(
            (Stage(1, parse("2^inf")), Stage(2, parse("2^inf"))), (1,), TailRule.unbounded()
        )
        assert spectrum_of_chain(chain) == InfType(parse("2^inf"))

    def test_malformed_chain(self):
        with pytest.raises(ValueError):
            ChainPresentation((Stage(3, P), Stage(2, P)), (1,)).validate()  # corner inequality
        with pytest.raises(ValueError):
            ChainPresentation((Stage(1, P), Stage(9, P)), (2,)).validate()  # wrong quotient


class TestChainJson:
    def test_roundtrip(self):
        chain = realize(mk_finite_type(Fraction(5, 2), parse("P^1*2^3"), True), depth=3)
        again = ChainPresentation.from_json(chain.to_json())
        assert again == chain

    def test_malformed(self):
        with pytest.raises(ValueError):
            ChainPresentation.from_json("{not json")
        with pytest.raises(ValueError):
            ChainPresentation.from_json('{"stages": []}')

    @pytest.mark.parametrize(
        "path,value",
        [
            (("tail", "r"), None),
            (("stages", 0, "s"), 5),
            (("stages", 0, "k"), 1.5),
            (("stages", 0, "k"), True),
            (("stages", 0, "q"), 3.0),
        ],
    )
    def test_field_types(self, path, value):
        # Each wrongly typed field is a ParseError, never an AttributeError
        # or a silent int() truncation of 1.5 or true.
        d = realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[2, 6]).to_json_dict()
        *parents, key = path
        obj = d
        for step in parents:
            obj = obj[step]
        obj[key] = value
        with pytest.raises(ParseError, match=repr(key)):
            ChainPresentation.from_json_dict(d)

    def test_overlong_integer_has_a_position(self):
        text = '{"stages":[{"k":' + "1" * 5000 + ',"s":"P","q":null}],"tail":null}'
        with pytest.raises(ParseError, match="integer literal of 5000 digits is too long") as e:
            ChainPresentation.from_json(text)
        assert e.value.pos == text.index("1")

    def test_overlong_integer_position_skips_strings(self):
        # The same digits inside an earlier string are not the literal.
        digits = "7" * 4400
        text = '{"note":"' + digits + '","stages":[{"k":' + digits + ',"s":"P","q":null}],"tail":null}'
        with pytest.raises(ParseError) as e:
            ChainPresentation.from_json(text)
        assert e.value.pos == text.index(digits, text.index("k"))

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"stages":"ab","tail":null}', "chain field 'stages' must be a list, got 'ab'"),
            ('{"stages":{"k":1},"tail":null}', "chain field 'stages' must be a list"),
            ('{"stages":[{"k":1,"s":"P","q":null}],"tail":"x"}', "chain field 'tail' must be an object, got 'x'"),
            ('{"stages":[{"k":1,"s":"P","q":null}],"tail":[]}', "chain field 'tail' must be an object"),
            ('{"stages":["ab"],"tail":null}', "chain stage 0 must be an object, got 'ab'"),
            ("[1, 2]", "chain JSON must be an object"),
        ],
    )
    def test_wrong_shape_names_the_field(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            ChainPresentation.from_json(text)


class TestMatchCorner:
    def test_known_witness(self):
        w = match_corner(spec_unital(P), parse_scaled("(1/2)*P"), P)
        assert (w.n, w.r1, w.r2) == (2, 1, 2)

    def test_witness_scales_back_to_inputs(self):
        from locmat.steinitz import scale

        A = spec_unital(P)
        cur, tgt = parse_scaled("(2/3)*P"), parse_scaled("(5/6)*P")
        w = match_corner(A, cur, tgt)
        assert (w.n, w.r1, w.r2) == (6, 4, 5)
        assert scale(A.st, Fraction(w.r1, w.n)) == cur
        assert scale(A.st, Fraction(w.r2, w.n)) == tgt

    def test_equal_target_infeasible(self):
        assert match_corner(spec_unital(P), P, P) is None

    def test_non_member_infeasible(self):
        assert match_corner(spec_unital(P), P, parse_scaled("(2/1)*P")) is None

    def test_succeeds_on_random_member_pairs(self):
        A = AlgebraDescriptor(mk_finite_type(Fraction(5, 2), P, False))
        members = sample_members(A.spectrum, den_bound=12, limit=30)
        hits = 0
        for cur in members:
            for tgt in members:
                if rationally_connected(cur, tgt) and canonical_ratio(cur, tgt) > 1:
                    w = match_corner(A, cur, tgt)
                    assert w is not None and w.r1 < w.r2
                    hits += 1
        assert hits > 50


class TestInterleave:
    def test_two_realizations_produce_checkable_certificate(self):
        S = mk_finite_type(Fraction(3, 2), P, True)
        cA = realize(S, divisor_chain=[2, 6, 30])
        cB = realize(S, divisor_chain=[6, 210])
        cert = interleave(cA, cB)
        assert cert is not None
        assert check_certificate(cert, cA, cB)

    def test_trivial_segment_certificate(self):
        cA = realize(mk_segment(3))
        cB = realize(mk_segment(3))
        assert interleave(cA, cB) == [SteinitzNumber.from_int(3)]

    def test_unequal_spectra(self):
        cA = realize(mk_finite_type(Fraction(1), P, False))
        cB = realize(mk_finite_type(Fraction(3, 2), P, True))
        assert interleave(cA, cB) is None

    def test_check_certificate_rejects_empty_before_any_spectrum(self, monkeypatch):
        c = realize(mk_segment(3))
        monkeypatch.setattr(algebra, "spectrum_of_chain", None)  # a call would raise TypeError
        assert check_certificate([], c, c) is False

    @pytest.mark.parametrize(
        "broken",
        [lambda cert: cert[::-1], lambda cert: cert[1:], lambda cert: cert + [mul_natural(cert[-1], 2)]],
        ids=["descending", "missing-stage", "outside-spectrum"],
    )
    def test_check_certificate_rejects(self, broken):
        # Two realizations of S(7/3, P) certified by [2^2*P, 3^0*7^2*P]; the
        # first number is a stage of cA only, and (98/3)*P lies above 7/3.
        S = mk_finite_type(Fraction(7, 3), P, False)
        cA, cB = realize(S), realize(S, divisor_chain=[6, 30])
        cert = interleave(cA, cB)
        assert [str(t) for t in cert] == ["2^2*P", "3^0*7^2*P"] and check_certificate(cert, cA, cB)
        assert check_certificate(broken(cert), cA, cB) is False


class TestText:
    def test_descriptor_roundtrip(self):
        for A in (spec_matrix(4), spec_unital(P), AlgebraDescriptor(mk_finite_type(SQRT2, P, False))):
            assert parse_descriptor(str(A)).spectrum == A.spectrum


class TestFiniteMatrixChain:
    def test_validation(self):
        FiniteMatrixChain((2, 5, 11), (2, 2), (1, 1)).validate()
        with pytest.raises(ValueError):
            FiniteMatrixChain((2, 5), (2,), (0,)).validate()


DESCRIPTORS = st.one_of(
    st.builds(spec_matrix, st.integers(min_value=1, max_value=30)),
    st.builds(spec_unital, st.sampled_from([P, parse("P^1*2^3"), parse("2^inf"), parse("3^3*P")])),
    st.builds(
        lambda r, s, strict: AlgebraDescriptor(mk_finite_type(r, s, strict)),
        st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(7, 3), SQRT2]),
        st.sampled_from([P, parse("P^1*2^3")]),
        st.booleans(),
    ),
    st.builds(lambda s: AlgebraDescriptor(mk_inf_type(s)), st.sampled_from([P, parse("2^inf")])),
)


@settings(max_examples=80, deadline=None)
@given(DESCRIPTORS, DESCRIPTORS)
def test_iso_iff_mutual_embedding(A, B):
    mutual = embeds_as_approximative_corner(A, B) and embeds_as_approximative_corner(B, A)
    assert isomorphic(A, B) == mutual


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([spec_matrix(3), spec_unital(P), spec_unital(parse("3^3*P"))]),
    st.integers(min_value=1, max_value=20),
)
def test_corner_of_matrix_over_is_identity(A, n):
    assert isomorphic(corner(matrix_over(A, n), Fraction(1, n)), A)


INFINITY_FREE = st.sampled_from(
    [P, parse("P^1*2^3"), parse("P^2"), parse("3^5*P"), parse("2^0*P"), parse("2^4*3^2*P^2")]
)


@settings(max_examples=30, deadline=None)
@given(INFINITY_FREE)
def test_spec_unital_is_unital_for_infinity_free(s):
    assert is_unital(spec_unital(s))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.builds(spec_matrix, st.integers(1, 40)), st.builds(spec_unital, INFINITY_FREE)))
def test_m_infinity_never_unital(A):
    assert is_unital(A)
    assert not is_unital(m_infinity(A))
