"""Algebra descriptors, decision procedures, and chain realization."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmat import algebra, saturated
from locmat.algebra import (
    AlgebraDescriptor,
    ChainPresentation,
    Stage,
    _default_divisor_chain,
    _unital_spectrum,
    corner,
    embeds_as_approximative_corner,
    is_unital,
    isomorphic,
    m_infinity,
    matrix_over,
    parse_descriptor,
    realize,
    spec_matrix,
    spec_unital,
    spectrum_of_chain,
)
from locmat.density import Surd
from locmat.oracle import FiniteMatrixChain
from locmat.saturated import (
    ALL_NATURALS,
    FiniteType,
    InfType,
    Segment,
    TailRule,
    equals_formal,
    format_set,
    max_element,
    mk_finite_type,
    mk_inf_type,
)
from locmat.steinitz import (
    _SMALL_PRIMES,
    ONE,
    ParseError,
    SteinitzNumber,
    mul_natural,
    parse,
    parse_scaled,
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
        assert A.st == P == max_element(A.spectrum)

    def test_spec_unital_collapse(self):
        A = spec_unital(parse("2^inf"))
        assert A.spectrum == InfType(parse("2^inf"))
        assert A.st == parse("2^inf") and max_element(A.spectrum) is None

    @pytest.mark.parametrize(
        "spectrum,unit_st",
        [
            (mk_inf_type(P), P),  # spec_unital(P) is S(1, P), not S(inf, P)
            (Segment(3), parse("2")),  # a segment's st is its length
            (Segment(3), parse("2^inf")),
            (mk_inf_type(parse("2^inf")), parse("3^inf")),  # spec_unital(3^inf) is S(inf, 3^inf)
            (mk_finite_type(Fraction(1), P, False), parse("2^inf")),
        ],
    )
    def test_raw_unit_st_is_checked(self, spectrum, unit_st):
        message = f"st {unit_st} is not the Steinitz number of a unital algebra with spectrum {format_set(spectrum)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AlgebraDescriptor(spectrum, unit_st)

    def test_raw_st_of_the_largest_element_is_accepted(self):
        assert AlgebraDescriptor(Segment(3), parse("3")) == AlgebraDescriptor(Segment(3))
        S = mk_finite_type(Fraction(3, 2), P)
        assert AlgebraDescriptor(S, parse_scaled("(3/2)*P")) == AlgebraDescriptor(S)

    def test_explicit_st_is_accepted_exactly_when_its_unital_spectrum_is_equal(self):
        # The rule the constructor applies, without building a set, against
        # building the unital spectrum of st and comparing it.
        spectra = [
            Segment(3),
            Segment(6),
            ALL_NATURALS,
            mk_inf_type(P),
            mk_inf_type(parse("2^inf")),
            mk_inf_type(parse("2^inf*3")),
            mk_finite_type(Fraction(1), P, False),
            mk_finite_type(Fraction(3, 2), P, False),
            mk_finite_type(Fraction(3, 2), P, True),
            mk_finite_type(SQRT2, P, False),
            mk_finite_type(Fraction(5, 2), parse("P^1*2^3"), True),
            FiniteType(Fraction(1), parse("2^inf"), False),
            FiniteType(2, P, False),
            FiniteType(Fraction(3, 2), P, True),
        ]
        sts = [parse(t) for t in ("3", "2*3", "P", "2*P", "2^inf", "2^inf*3", "3^inf", "2^inf*3^2")]
        sts += [parse_scaled("(3/2)*P"), parse_scaled("(1/2)*P")]
        accepted = 0
        for spectrum in spectra:
            for st_ in sts:
                try:
                    ok = AlgebraDescriptor(spectrum, st_).st == st_
                except ValueError:
                    ok = False
                assert ok == equals_formal(spectrum, _unital_spectrum(st_)), (spectrum, st_)
                accepted += ok
        assert accepted == 11

    @pytest.mark.parametrize("text", ["P", "2^inf"])
    def test_spec_unital_builds_its_spectrum_once(self, monkeypatch, text):
        built, unital = [], _unital_spectrum
        monkeypatch.setattr(algebra, "_unital_spectrum", lambda s: built.append(str(s)) or unital(s))
        assert spec_unital(parse(text)).st == parse(text)
        assert built == [text]

    @pytest.mark.parametrize(
        "spectrum,s,name",
        [("x", None, "spectrum"), (None, None, "spectrum"), (Segment(3), 3, "st"), (Segment(3), "3", "st")],
    )
    def test_raw_arguments_are_type_checked(self, spectrum, s, name):
        with pytest.raises(ValueError, match=f"^{name} must be a "):
            AlgebraDescriptor(spectrum, s)

    @pytest.mark.parametrize("text", ["2^inf", "2^inf*3", "2^inf*3^inf*5"])
    def test_collapsed_constructions_still_build(self, text):
        s = parse(text)
        A = spec_unital(s)
        assert A.st == s and A.spectrum == InfType(s)
        assert AlgebraDescriptor(A.spectrum, s) == A
        M = matrix_over(A, 6)
        assert M.st == mul_natural(s, 6) and max_element(M.spectrum) is None
        C = corner(A, Fraction(1, 2))
        assert C.st == scale(s, Fraction(1, 2)) and max_element(C.spectrum) is None

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

    def test_matrix_over_refuses_size_below_one(self):
        with pytest.raises(ValueError, match="^matrix size must be positive, got 0$"):
            matrix_over(spec_unital(P), 0)

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

    def test_corner_tests_its_denominator_once(self, monkeypatch):
        from locmat import algebra, steinitz

        seen, quotient, want = [], steinitz._quotient, parse_scaled("(1/6)*P")

        def counted(s, n):
            seen.append(n)
            return quotient(s, n)

        monkeypatch.setattr(steinitz, "_quotient", counted)
        monkeypatch.setattr(algebra, "_quotient", counted, raising=False)
        assert corner(spec_unital(P), Fraction(1, 6)).st == want
        assert seen == [6]
        with pytest.raises(ValueError, match=r"^denominator 4 is not in Omega\(P\)$"):
            corner(spec_unital(P), Fraction(1, 4))

    @pytest.mark.parametrize("q", [True, 0.5], ids=["bool", "float"])
    def test_corner_takes_only_an_int_or_a_fraction(self, q):
        # Read as a Fraction, True would be the rank 1 and 0.5 the rank 1/2.
        message = f"relative rank must be an int or a Fraction, got {q!r} ({type(q).__name__})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            corner(spec_unital(P), q)


class TestDecisions:
    def test_unital(self):
        assert is_unital(spec_matrix(7))
        assert not is_unital(AlgebraDescriptor(mk_finite_type(Fraction(3, 2), P, True)))
        assert not is_unital(AlgebraDescriptor(mk_inf_type(parse("2^inf"))))
        # S+(1, P) has no largest member, so its algebra has no Steinitz number.
        assert AlgebraDescriptor(mk_finite_type(Fraction(1), P, True)).st is None

    def test_collapsed_unital_agrees_with_st(self):
        # S(1, 2^inf) collapses to S(inf, 2^inf); the descriptor keeps st.
        A = spec_unital(parse("2^inf"))
        assert A.st == parse("2^inf") and max_element(A.spectrum) is None
        assert is_unital(A)
        assert is_unital(matrix_over(A, 3))
        assert not is_unital(m_infinity(A))

    def test_unital_matches_max_element_on_closed(self):
        assert is_unital(AlgebraDescriptor(mk_finite_type(Fraction(3, 2), P, False)))
        assert not is_unital(AlgebraDescriptor(mk_finite_type(SQRT2, P, False)))

    @pytest.mark.parametrize("base", ["P", "2^3*P"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_int_density_answers_as_its_fraction(self, n, base):
        # An int density is stored as the Fraction it equals, so the two
        # equal sets also agree on their largest element and on unitality.
        # A raw FiniteType keeps its int, and answers as the normalized set.
        s = parse(base)
        S = mk_finite_type(n, s)
        assert type(S.r) is Fraction
        for T in (S, FiniteType(n, s, False)):
            assert T == S
            assert max_element(T) == scale(s, n)
            assert is_unital(AlgebraDescriptor(T))
        limit = spectrum_of_chain(ChainPresentation((Stage(1, s),), (), TailRule("attained", n)))
        assert limit == S and type(limit.r) is Fraction

    def test_iso_roundtrip(self):
        A = spec_unital(P)
        assert isomorphic(A, corner(matrix_over(A, 2), Fraction(1, 2)))

    def test_iso_negative(self):
        assert not isomorphic(spec_matrix(3), spec_matrix(4))
        assert not isomorphic(m_infinity(spec_matrix(1)), spec_unital(P))

    def test_iso_tells_collapsed_unital_algebras_apart(self):
        # spec_unital(2^inf), M_inf of it and spec_unital(3*2^inf) share the spectrum S(inf, 2^inf).
        s = parse("2^inf")
        A = spec_unital(s)
        assert equals_formal(A.spectrum, m_infinity(A).spectrum)
        assert not isomorphic(A, m_infinity(A))
        assert not isomorphic(A, spec_unital(mul_natural(s, 3)))
        assert isomorphic(A, spec_unital(parse("2^inf")))

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
        chain = realize(Segment(5))
        assert chain.stages == (Stage(5, ONE),)
        assert chain.tail is None

    def test_infinite_type(self):
        chain = realize(mk_inf_type(parse("2^inf")))
        assert all(st_.s == parse("2^inf") for st_ in chain.stages)
        assert [st_.k for st_ in chain.stages] == [1, 2, 3, 4]
        assert chain.tail == TailRule("unbounded")

    def test_depth_above_the_cap_refused(self):
        with pytest.raises(ValueError, match="^depth must be at most 64, got 65$"):
            realize(mk_finite_type(Fraction(3, 2), P, False), depth=65)

    def test_invalid_divisor_chain(self):
        with pytest.raises(ValueError):
            realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[4])
        with pytest.raises(ValueError):
            realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[6, 2])
        with pytest.raises(ValueError):
            realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[2, 5])

    @pytest.mark.parametrize("text", ["P", "P^2*3", "2^inf*P", "P^1*2^3"])
    def test_default_divisor_chain_matches_the_diagonal_sweep(self, text):
        # The sweep as it once ran, reading the i-th valuation again for every divisor past it.
        base = parse(text)
        for depth in range(1, 65):
            sweep = [math.prod(p ** min(base.valuation(p), i) for p in _SMALL_PRIMES[:i]) for i in range(1, depth + 1)]
            assert _default_divisor_chain(base, depth) == sweep

    def test_realize_reads_each_valuation_once(self, monkeypatch):
        read, valuation = [], SteinitzNumber.valuation
        monkeypatch.setattr(SteinitzNumber, "valuation", lambda s, p: read.append(p) or valuation(s, p))
        realize(mk_finite_type(Fraction(3, 2), P, False), depth=64)
        assert read == list(_SMALL_PRIMES[:64])

    def test_empty_divisor_chain_refused(self):
        with pytest.raises(ValueError, match="^empty divisor chain$"):
            realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[])

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
            Segment(5),
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
            (Stage(1, parse("2^inf")), Stage(2, parse("2^inf"))), (1,), TailRule("unbounded")
        )
        assert spectrum_of_chain(chain) == InfType(parse("2^inf"))

    def test_malformed_chain(self):
        with pytest.raises(ValueError):
            ChainPresentation((Stage(3, P), Stage(2, P)), (1,))  # corner inequality
        with pytest.raises(ValueError):
            ChainPresentation((Stage(1, P), Stage(9, P)), (2,))  # wrong quotient


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Stage(0, P), "stage size must be positive, got 0"),
        (lambda: ChainPresentation((), ()), "chain needs at least one stage"),
        (
            lambda: ChainPresentation((Stage(1, P), Stage(2, P)), ()),
            "need exactly one quotient per consecutive stage pair",
        ),
        (lambda: ChainPresentation((Stage(1, P), Stage(2, P)), (0,)), "quotient must be positive, got 0"),
        (lambda: ChainPresentation((Stage(1, P), Stage(9, P)), (2,)), "stage 0: P != 2 * P"),
        (lambda: ChainPresentation((Stage(3, P), Stage(2, P)), (1,)), "stage 0: corner inequality 3*1 <= 2 fails"),
        (lambda: FiniteMatrixChain((2, 5), (2,), (0,)), "step 0: 5 != 2*2+0"),
        (lambda: FiniteMatrixChain((-3,), (), ()), "stage sizes must be positive, got (-3,)"),
        (lambda: FiniteMatrixChain((0,), (), ()), "stage sizes must be positive, got (0,)"),
        (lambda: FiniteMatrixChain((), (), ()), "chain needs at least one stage"),
        (lambda: FiniteMatrixChain((2, 5), (), ()), "need one multiplicity and one padding per step"),
        (lambda: FiniteMatrixChain((2, 4), (0,), (4,)), "step 0: need m >= 1, z >= 0"),
        (lambda: FiniteMatrixChain([1, 2], [2], [0]), "stage sizes must be a tuple of ints, got [1, 2]"),
        (lambda: FiniteMatrixChain((2.5,), (), ()), "stage sizes must be a tuple of ints, got (2.5,)"),
        (lambda: FiniteMatrixChain((True, 2), (2,), (0,)), "stage sizes must be a tuple of ints, got (True, 2)"),
        (lambda: FiniteMatrixChain((1, 2), [2], (0,)), "multiplicities must be a tuple of ints, got [2]"),
        (lambda: FiniteMatrixChain((1, 2), (2,), (False,)), "paddings must be a tuple of ints, got (False,)"),
        (lambda: Stage(2, "P"), "s must be a SteinitzNumber, got 'P' (str)"),
        (lambda: TailRule("spiral", Fraction(1)), "unknown tail kind 'spiral'"),
        (lambda: TailRule("attained"), "a density tail needs a density"),
        (lambda: TailRule("unbounded", Fraction(2)), "an unbounded tail takes no density"),
    ],
    ids=[
        "size-0", "no-stage", "quotient-count", "zero-quotient", "wrong-quotient", "corner", "finite-chain",
        "finite-chain-one-negative-stage", "finite-chain-one-empty-stage", "finite-chain-no-stage",
        "finite-chain-step-count", "finite-chain-zero-multiplicity", "finite-chain-list", "finite-chain-float-size",
        "finite-chain-bool-size", "finite-chain-list-multiplicities", "finite-chain-bool-padding", "stage-str-number",
        "tail-kind", "tail-density",
        "unbounded-tail-density",
    ],
)
def test_chain_values_refuse_bad_input_when_built(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_realized_chain_is_validated_once(monkeypatch):
    calls = []
    init = ChainPresentation.__init__
    monkeypatch.setattr(ChainPresentation, "__init__", lambda self, *a: calls.append(self) or init(self, *a))
    spectrum_of_chain(realize(mk_finite_type(Fraction(3, 2), P, False)))
    assert len(calls) == 1


def test_chain_spectrum_reads_only_the_first_and_last_stage(monkeypatch):
    # The constructor's corner rule makes the stages ascend, so the last stage
    # and the tail decide the union, with no inclusion test.
    S = mk_finite_type(Fraction(3, 2), P, False)
    chain = realize(S)
    assert len(chain.stages) == 4
    calls = []
    compare = saturated.compare_inclusion
    monkeypatch.setattr(saturated, "compare_inclusion", lambda a, b: calls.append((a, b)) or compare(a, b))
    union = spectrum_of_chain(chain)
    assert calls == []
    assert equals_formal(union, S)


class TestChainJson:
    def test_roundtrip(self):
        chain = realize(mk_finite_type(Fraction(5, 2), parse("P^1*2^3"), True), depth=3)
        again = ChainPresentation.from_json(chain.to_json())
        assert again == chain

    @pytest.mark.parametrize(
        "S,tail",
        [(mk_inf_type(parse("2^inf")), {"kind": "unbounded"}), (Segment(4), None)],
        ids=["unbounded", "none"],
    )
    def test_roundtrip_without_a_density_tail(self, S, tail):
        chain = realize(S)
        assert chain.to_json_dict()["tail"] == tail
        assert ChainPresentation.from_json(chain.to_json()) == chain

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

    @pytest.mark.parametrize(
        "path", [("stages", 0, "k"), ("stages", 0, "s"), ("stages", 0, "q"), ("tail", "kind"), ("tail", "r")]
    )
    def test_missing_field_is_named(self, path):
        d = realize(mk_finite_type(Fraction(3, 2), P, False), divisor_chain=[2, 6]).to_json_dict()
        *parents, key = path
        obj = d
        for step in parents:
            obj = obj[step]
        del obj[key]
        with pytest.raises(ParseError, match=f"^chain field '{key}' is missing$"):
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
            # A member that to_json_dict would not write is refused, not skipped.
            (
                '{"stages":[{"k":1,"s":"P","q":null}],"tial":{"kind":"unbounded"}}',
                "chain JSON has an unknown member 'tial'",
            ),
            ('{"stages":[{"k":1,"s":"P","q":2,"x":1},{"k":2,"s":"2^0*P"}]}', "chain stage 0 has an unknown member 'x'"),
            (
                '{"stages":[{"k":1,"s":"P","q":"x"}],"tail":null}',
                "chain field 'q' of the last stage must be null, got 'x'",
            ),
            (
                '{"stages":[{"k":1,"s":"P","q":null}],"tail":{"kind":"unbounded","r":"3"}}',
                "chain tail of kind 'unbounded' has an unknown member 'r'",
            ),
        ],
    )
    def test_wrong_shape_names_the_field(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            ChainPresentation.from_json(text)

    @pytest.mark.parametrize("tail", ["", ',"tail":null'], ids=["missing", "null"])
    def test_last_quotient_and_tail_may_be_left_out(self, tail):
        chain = ChainPresentation.from_json('{"stages":[{"k":1,"s":"P","q":2},{"k":2,"s":"2^0*P"}]%s}' % tail)
        assert chain == ChainPresentation((Stage(1, P), Stage(2, parse("2^0*P"))), (2,))

    @pytest.mark.parametrize(
        "text,pos",
        [
            ('{"stages":[{"k":0,"s":"P","q":1},{"k":1,"s":"x","q":null}],"tail":null}', 45),
            ('{"stages":[{"k":1,"s":"P","q":null}],"tail":{"kind":"attained","r":"1/0"}}', 70),
            ('  {"stages":[{"k":1,"s":"2*x","q":null}],"tail":null}', 27),
            # The value "s" after the key "s"; the key is not the field.
            ('{"stages":[{"k":1,"s":"s","q":null}],"tail":null}', 23),
            # The same string in an earlier field of another name is not the field.
            ('{"tail":{"kind":"attained","r":"x"},"stages":[{"k":1,"s":"x","q":null}]}', 58),
            # A key inside a value of the key "s" is not a value of "s".
            ('{"junk":{"s":{"x":1}},"stages":[{"k":1,"s":"x","q":null}],"tail":null}', 44),
            # A string with an escape is reported at its first character.
            ('{"stages":[{"k":1,"s":"2*\\u0078","q":null}],"tail":null}', 23),
            # An equal string in a member that is never read is not the field.
            ('{"stages":[{"k":1,"s":"P","q":null,"r":"1/0"}],"tail":{"kind":"attained","r":"1/0"}}', 80),
            ('{"x":{"s":"2^"},"stages":[{"k":1,"s":"2^","q":null}],"tail":null}', 38),
        ],
        ids=[
            "stage", "tail", "leading-spaces", "value-like-key", "earlier-field", "nested-key", "escape",
            "unread-stage-member", "unread-top-member",
        ],
    )
    def test_string_field_error_points_into_the_document(self, text, pos):
        with pytest.raises(ParseError) as e:
            ChainPresentation.from_json(text)
        assert e.value.pos == pos

    def test_string_field_error_from_a_dict_points_into_the_string(self):
        d = {"stages": [{"k": 1, "s": "2*x", "q": None}], "tail": None}
        with pytest.raises(ParseError, match="malformed term 'x'") as e:
            ChainPresentation.from_json_dict(d)
        assert e.value.pos == 2


class TestText:
    def test_descriptor_roundtrip(self):
        for A in (spec_matrix(4), spec_unital(P), AlgebraDescriptor(mk_finite_type(SQRT2, P, False))):
            assert parse_descriptor(str(A)).spectrum == A.spectrum

    @pytest.mark.parametrize(
        "A,text",
        [
            (spec_matrix(4), "alg([1..4])"),
            (spec_unital(P), "alg(S(1, P))"),
            (m_infinity(spec_unital(P)), "alg(S(inf, P))"),
            (spec_unital(parse("2^inf")), "alg(unital 2^inf)"),
        ],
    )
    def test_format_descriptor_is_the_text_form(self, A, text):
        assert str(A) == text


class TestFiniteMatrixChain:
    def test_validation(self):
        FiniteMatrixChain((2, 5, 11), (2, 2), (1, 1))
        with pytest.raises(ValueError):
            FiniteMatrixChain((2, 5), (2,), (0,))


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


def _collapsed(A):
    return A.st is not None and max_element(A.spectrum) is None


@settings(max_examples=80, deadline=None)
@given(DESCRIPTORS, DESCRIPTORS)
def test_iso_iff_mutual_embedding(A, B):
    # spec_unital(2^inf) and S(inf, 2^inf) are each a corner of the other, so
    # they embed both ways, but only one of them is unital: the converse needs
    # descriptors whose spectrum keeps their st.
    mutual = embeds_as_approximative_corner(A, B) and embeds_as_approximative_corner(B, A)
    if isomorphic(A, B):
        assert mutual
    elif not (_collapsed(A) or _collapsed(B)):
        assert not mutual


@settings(max_examples=80, deadline=None)
@given(DESCRIPTORS, DESCRIPTORS)
def test_isomorphic_algebras_agree_on_unitality(A, B):
    if isomorphic(A, B):
        assert is_unital(A) == is_unital(B)


_BASES = st.sampled_from(
    [P, parse("P^1*2^3"), parse("3^3*P"), parse("2^inf"), parse("2^inf*3"), parse("2^inf*3^inf*5")]
)
_UNITAL = st.one_of(
    st.builds(spec_matrix, st.integers(min_value=1, max_value=30)),
    st.builds(spec_unital, _BASES),
    st.builds(lambda s, n: matrix_over(spec_unital(s), n), _BASES, st.integers(min_value=1, max_value=12)),
    st.builds(lambda s, b: corner(spec_unital(mul_natural(s, b)), Fraction(1, b)), _BASES, st.integers(1, 12)),
)


@settings(max_examples=120, deadline=None)
@given(st.one_of(_UNITAL, DESCRIPTORS, _UNITAL.map(m_infinity)))
def test_descriptor_text_roundtrip(A):
    assert parse_descriptor(str(A)) == A


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
