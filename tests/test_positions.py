"""One position rule for every literal parser.

A reported position is the offset, in the whole argument, of the failing
part's first character; an empty part is reported where its whitespace
ends.  So a literal nested in another reports its error shifted by the
offset of its slice, and leading spaces shift every position by their count.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locmat.algebra import parse_descriptor
from locmat.density import parse_density
from locmat.saturated import parse_set
from locmat.steinitz import ParseError, parse, parse_scaled

_SPACE = [" ", "  ", "\t"]
_PRODUCT = ["2", "3", "4", "5", "1", "0", "12", "P", "x", "^", "inf", "*", "(", ")", "/"] + _SPACE
_SET = _PRODUCT + ["S(", "S+(", "[1..", "]", "N", ",", ",", "sqrt(", "-", "+", "(1/2)*", "alg("]

products = st.lists(st.sampled_from(_PRODUCT), max_size=8).map("".join)
literals = st.lists(st.sampled_from(_SET), max_size=10).map("".join)
spaces = st.text(alphabet=" \t\n", min_size=1, max_size=4)


def outcome(parse_fn, text):
    """("error", message, position) or ("value", value)."""
    try:
        return ("value", parse_fn(text))
    except ParseError as e:
        return ("error", e.message, e.pos)


def shifted(result, k):
    kind, *rest = result
    return (kind, rest[0], rest[1] + k) if kind == "error" else result


@settings(max_examples=100, deadline=None)
@given(products)
@example("2*  ")
@example("2^5*  ")
@example("2 ^x \t")
def test_scaled_product_reports_where_it_stands(x):
    assume(x.strip())  # the scaled form needs a product after its ``*``
    assert outcome(parse_scaled, "(1/1)*" + x) == shifted(outcome(parse, x), 6)


@settings(max_examples=100, deadline=None)
@given(literals)
def test_set_base_reports_where_it_stands(x):
    inner = outcome(parse_scaled, x)
    assume(inner[0] == "error")  # a parsed base can still be refused by the set
    assert outcome(parse_set, "S(2," + x + ")") == shifted(inner, 4)


@settings(max_examples=100, deadline=None)
@given(literals)
def test_descriptor_set_reports_where_it_stands(y):
    inner = outcome(parse_set, y)
    got = outcome(parse_descriptor, "alg(" + y + ")")
    if inner[0] == "error":
        assert got == shifted(inner, 4)
    else:
        assert got[1].spectrum == inner[1]


@pytest.mark.parametrize("parse_fn", [parse, parse_scaled, parse_density, parse_set, parse_descriptor])
@settings(max_examples=100, deadline=None)
@given(x=literals, lead=spaces)
@example(x="", lead="  ")
@example(x="(3/4)*2^5*  ", lead=" ")
def test_leading_spaces_shift_every_position(parse_fn, x, lead):
    plain, padded = outcome(parse_fn, x), outcome(parse_fn, lead + x)
    if plain[0] == "value":
        assert padded == plain
    else:
        assert padded[0] == "error" and padded[2] == plain[2] + len(lead)


@pytest.mark.parametrize(
    "parse_fn,text,pos",
    [
        # An empty part is reported where its spaces end.
        (parse_scaled, "(3/4)*2^5*  ", 12),
        (parse, "2^5*  ", 6),
        (parse, "   ", 3),
        (parse_set, "S(1,  )", 6),
        (parse_set, "S(  ,P)", 4),
        (parse_descriptor, "alg(S(3/2, P*  ))", 15),
        # A refusal made after a set parses points at the part's first character.
        (parse_set, "S( 3/22, P)", 3),
        (parse_set, "S+( inf,P)", 4),
        (parse_set, "S(32,  2^7)", 7),
    ],
)
def test_a_part_is_reported_at_its_first_character(parse_fn, text, pos):
    with pytest.raises(ParseError) as e:
        parse_fn(text)
    assert e.value.pos == pos
