"""The public surface: the names ``locmat`` exports, and the shape shared by
the four saturated-set classes."""

import inspect
from dataclasses import fields
from fractions import Fraction

import locmat
from locmat import ALL_NATURALS, INFINITY, ONE, AllNaturals, FiniteType, InfType, Segment, parse

PUBLIC_NAMES = {
    "ALL_NATURALS", "AlgebraDescriptor", "AllNaturals", "AxiomViolation", "ChainPresentation",
    "CornerWitness", "Density", "FiniteMatrixChain", "FiniteType", "INF", "INFINITY", "Inclusion",
    "InfType", "ONE", "ParseError", "SaturatedSet", "Segment", "Stage", "SteinitzNumber", "Surd",
    "TailRule", "canonical_ratio", "check_certificate", "check_saturation_axioms", "cmp_density",
    "compare_inclusion", "contains", "corner", "density", "divide_by", "divides",
    "embeds_as_approximative_corner", "enumerate_omega", "equals_extensional", "equals_formal",
    "finitely_divides", "format_density", "format_descriptor", "format_set", "interleave",
    "is_unital", "isomorphic", "lcm", "m_infinity", "match_corner", "matrix_over", "max_element",
    "mk_all_naturals", "mk_finite_type", "mk_inf_type", "mk_segment", "mul_natural",
    "omega_contains", "parse", "parse_density", "parse_descriptor", "parse_scaled", "parse_set",
    "r_sub", "rationally_connected", "realize", "rebase", "sample_members", "scale",
    "spec_matrix", "spec_unital", "spectrum_of_chain", "union_chain",
}


def test_exported_names_are_pinned():
    exported = {n for n, v in vars(locmat).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported == PUBLIC_NAMES


def test_every_set_class_has_base_r_strict():
    P = parse("P")
    cases = [
        (Segment(3), ONE, Fraction(3), False),
        (ALL_NATURALS, ONE, INFINITY, False),
        (InfType(P), P, INFINITY, False),
        (FiniteType(Fraction(3, 2), P, True), P, Fraction(3, 2), True),
    ]
    for S, base, r, strict in cases:
        assert (S.base, S.r, S.strict) == (base, r, strict)


def test_set_classes_keep_their_fields_repr_and_equality():
    P = parse("P")
    assert [f.name for f in fields(Segment)] == ["n"]
    assert [f.name for f in fields(AllNaturals)] == []
    assert [f.name for f in fields(InfType)] == ["base"]
    assert [f.name for f in fields(FiniteType)] == ["r", "base", "strict"]
    assert repr(Segment(3)) == "Segment(n=3)"
    assert repr(ALL_NATURALS) == "AllNaturals()"
    assert repr(InfType(P)) == 'InfType(base=SteinitzNumber("P"))'
    assert Segment(3) == Segment(3) and hash(Segment(3)) == hash(Segment(3))
    assert AllNaturals() == ALL_NATURALS and hash(AllNaturals()) == hash(ALL_NATURALS)
    assert Segment(3) != Segment(4)
