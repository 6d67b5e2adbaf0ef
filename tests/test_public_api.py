"""The public surface: the names ``locmat`` exports, the shape shared by the
four saturated-set classes, and what every value class keeps: equality,
hashing, immutability, constructors and reprs."""

import copy
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import locmat
from locmat import (
    ALL_NATURALS,
    INFINITY,
    ONE,
    AlgebraDescriptor,
    AllNaturals,
    AxiomViolation,
    ChainPresentation,
    FiniteMatrixChain,
    FiniteType,
    InfType,
    Segment,
    Stage,
    SteinitzNumber,
    Surd,
    TailRule,
    check_saturation_axioms,
    enumerate_omega,
    equals_extensional,
    matrix_over,
    mk_finite_type,
    parse,
    realize,
    spec_unital,
)
from locmat.oracle import CheckResult, EnumWindow, Report, saturation_fuzz

PUBLIC_NAMES = {
    "ALL_NATURALS", "AlgebraDescriptor", "AllNaturals", "AxiomViolation", "ChainPresentation",
    "FiniteMatrixChain", "FiniteType", "INFINITY", "Inclusion",
    "InfType", "ONE", "ParseError", "SaturatedSet", "Segment", "Stage", "SteinitzNumber", "Surd",
    "TailRule", "check_saturation_axioms", "cmp_density",
    "compare_inclusion", "contains", "corner", "density", "divide_by", "divides",
    "embeds_as_approximative_corner", "enumerate_omega", "equals_extensional", "equals_formal",
    "format_density", "format_set",
    "is_unital", "isomorphic", "lcm", "m_infinity", "matrix_over", "max_element",
    "mk_finite_type", "mk_inf_type", "mul_natural",
    "omega_contains", "parse", "parse_density", "parse_descriptor", "parse_scaled", "parse_set",
    "r_sub", "ratio_if_connected", "realize", "sample_members", "scale",
    "spec_matrix", "spec_unital", "spectrum_of_chain",
}


def test_exported_names_are_pinned():
    exported = {n for n in dir(locmat) if not n.startswith("_") and not inspect.ismodule(getattr(locmat, n))}
    assert exported == PUBLIC_NAMES


def test_no_two_exported_names_share_an_object():
    # One name per concept: a second name bound to the same object is a second spelling.
    names_by_object = {}
    for name in locmat.__all__:
        names_by_object.setdefault(id(getattr(locmat, name)), []).append(name)
    assert [names for names in names_by_object.values() if len(names) > 1] == []


# Run in a fresh interpreter: a star import, then the submodules, then what
# each public name is bound to.
FRESH = """
import importlib, json, sys
star = {}
exec("from locmat import *", star)
del star["__builtins__"]
import locmat.density, locmat.algebra, locmat.oracle
import locmat
modules = [importlib.import_module("locmat." + m) for m in ("steinitz", "density", "saturated", "algebra", "oracle")]
homes = {name: [vars(m)[name] for m in modules if name in vars(m)] for name in star}
print(json.dumps({
    "star": sorted(star),
    "foreign": sorted(n for n, v in star.items() if not homes[n] or any(h is not v for h in homes[n])),
    "package": sorted(n for n, v in star.items() if getattr(locmat, n) is not v),
    "density": locmat.density is sys.modules["locmat.saturated"].density,
}))
"""


def test_public_names_in_a_fresh_interpreter():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", FRESH], env=env, capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert set(got["star"]) == PUBLIC_NAMES
    assert got["foreign"] == [] and got["package"] == []
    assert got["density"] is True


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
    assert Segment.__match_args__ == ("n",)
    assert AllNaturals.__match_args__ == ()
    assert InfType.__match_args__ == ("base",)
    assert FiniteType.__match_args__ == ("r", "base", "strict")
    assert repr(Segment(3)) == "Segment(n=3)"
    assert repr(ALL_NATURALS) == "AllNaturals()"
    assert repr(InfType(P)) == 'InfType(base=SteinitzNumber("P"))'
    assert Segment(3) == Segment(3) and hash(Segment(3)) == hash(Segment(3))
    assert AllNaturals() == ALL_NATURALS and hash(AllNaturals()) == hash(ALL_NATURALS)
    assert Segment(3) != Segment(4)


def _values():
    P = parse("P")
    return [
        Surd.make(0, 1, 2, 1), Segment(3), ALL_NATURALS, InfType(P), FiniteType(Fraction(3, 2), P, True),
        TailRule("attained", Fraction(2)), AlgebraDescriptor(Segment(3)), Stage(2, P),
        ChainPresentation((Stage(1, P),), ()), EnumWindow(),
        CheckResult(True, "x"), AxiomViolation(1, "w"), FiniteMatrixChain((1, 2), (2,), (0,)),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_classes_are_immutable_and_compare_within_their_class(value):
    names = type(value).__match_args__
    same = type(value)(*(getattr(value, n) for n in names))
    assert same == value and hash(same) == hash(value) and same is not value
    assert value != tuple(getattr(value, n) for n in names)
    assert bool(value)
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    for name in names or ("base",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_value_class_defaults_checks_and_reprs():
    P = parse("P")
    assert TailRule("unbounded").r is None and ChainPresentation((Stage(1, P),), ()).tail is None
    assert AlgebraDescriptor(Segment(3)).st == parse("3") and CheckResult(True, "x").witness == ""
    assert (EnumWindow().numerator_bound, EnumWindow().denominator_bound) == (64, 30)
    with pytest.raises(ValueError, match="window bounds"):
        EnumWindow(0, 30)
    with pytest.raises(ValueError, match="^st P is not the Steinitz number"):
        AlgebraDescriptor(Segment(3), P)
    assert repr(Stage(2, P)) == 'Stage(k=2, s=SteinitzNumber("P"))'
    assert repr(Surd.make(1, 1, 5, 2)) == "(1+1*sqrt(5))/2"
    assert Surd.make(0, 1, 2, 1) != Fraction(1) and Surd.make(0, 1, 2, 1) > 1
    match FiniteType(Fraction(3, 2), P, True):
        case FiniteType(r, base, strict):
            assert (r, base, strict) == (Fraction(3, 2), P, True)
        case _:
            pytest.fail("FiniteType does not match its own fields")


def test_saturated_forwards_equals_extensional_to_oracle(monkeypatch):
    # bench/cases.py reads saturated.equals_extensional, and the bench tracer
    # rebinds oracle's name: the forward is looked up on each access.
    from locmat import oracle, saturated

    assert saturated.equals_extensional is oracle.equals_extensional
    monkeypatch.setattr(oracle, "equals_extensional", lambda *args: True)
    assert saturated.equals_extensional is oracle.equals_extensional


def test_report_is_mutable_and_unhashable():
    a, b = Report(), Report()
    assert a.results is not b.results and a == b
    a.add(True, "x")
    assert a != b and a.results == [CheckResult(True, "x")]
    b.results = list(a.results)
    assert a == b and repr(a) == "Report(results=[CheckResult(ok=True, name='x', witness='')])"
    with pytest.raises(TypeError):
        hash(a)


_S32 = mk_finite_type(Fraction(3, 2), parse("P"))
#: Each count argument, by the name its refusal gives it, and a call that passes it.
_COUNTS = {
    "segment length": Segment,
    "stage size": lambda v: Stage(v, parse("P")),
    "quotient": lambda v: ChainPresentation((Stage(1, parse("P")), Stage(1, parse("P"))), (v,)),
    "matrix size": lambda v: matrix_over(spec_unital(parse("P")), v),
    "depth": lambda v: realize(_S32, depth=v),
    "trials": lambda v: saturation_fuzz(_S32, trials=v),
    "n": SteinitzNumber.from_int,
    "bound": lambda v: enumerate_omega(parse("P"), v),
    "budget": lambda v: equals_extensional(_S32, mk_finite_type(Fraction(2), parse("P")), v),
    "samples": lambda v: check_saturation_axioms(_S32, samples=v),
    "divisor": lambda v: realize(_S32, divisor_chain=[v]),
    "numerator bound of the window bounds": lambda v: EnumWindow(v, 30),
    "denominator bound of the window bounds": lambda v: EnumWindow(64, v),
}


@pytest.mark.parametrize("name", _COUNTS)
@pytest.mark.parametrize("value", [0, -1, True, 2.5, None], ids=["zero", "negative", "bool", "float", "none"])
def test_every_count_argument_has_one_contract(name, value):
    # A count is an int of at least 1; a bool is refused, though Python counts it
    # as an int.  A budget of 0 would sample nothing and call S(3/2, P) and S(2, P)
    # equal, and 0 samples would report no axiom violation after checking nothing.
    if type(value) is int:
        message = f"{name} must be positive, got {value}"
    else:
        message = f"{name} must be an int, got {value!r} ({type(value).__name__})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _COUNTS[name](value)
