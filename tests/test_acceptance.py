"""Acceptance gate: every criterion exercised at its stated tolerance.

Each test prints one ``ACCEPTANCE nn [label] PASS|FAIL`` line (visible with
``pytest -s`` or on failure).  All comparisons are exact; nothing is
tolerance-calibrated at runtime.
"""

import contextlib
import json
import random
import time
from fractions import Fraction

import pytest

from locmat import cli
from locmat import oracle as oracle_mod
from locmat.algebra import (
    AlgebraDescriptor,
    corner,
    embeds_as_approximative_corner,
    is_unital,
    isomorphic,
    matrix_over,
    realize,
    spec_matrix,
    spectrum_of_chain,
)
from locmat.density import INFINITY, cmp_density, scale_density
from locmat.oracle import (
    ABOVE_BOUND,
    EnumWindow,
    FiniteMatrixChain,
    acceptance_corpus,
    check_inequality_suite,
    check_saturation_axioms,
    divisor_pairs,
    enumerate_members,
    equals_extensional,
    r_sub_brute,
    reference_member,
    sample_members,
    simulate_finite_chain,
)
from locmat.saturated import (
    AllNaturals,
    FiniteType,
    Inclusion,
    InfType,
    Segment,
    compare_inclusion,
    contains,
    equals_formal,
    max_element,
    mk_inf_type,
    r_sub,
)
from locmat.steinitz import SteinitzNumber, enumerate_omega, mul_natural, parse

DIVISOR_BOUND = 210
CORPUS = acceptance_corpus()
FINITE = [(name, S) for name, S in CORPUS if isinstance(S, (Segment, FiniteType))]
BASED_FINITE = [(name, S) for name, S in CORPUS if isinstance(S, FiniteType)]


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} [{label}] FAIL")
        raise
    print(f"ACCEPTANCE {n:02d} [{label}] PASS")


@pytest.fixture(scope="module")
def brute_data():
    """Brute-force r_s(b) tables for every corpus set and b in Omega up to
    the divisor bound, with the wall time they took."""
    start = time.perf_counter()
    data = {}
    for name, S in CORPUS:
        t = reference_member(S)
        omega = enumerate_omega(t, DIVISOR_BOUND)
        if isinstance(S, (InfType, AllNaturals)):
            above = all(r_sub_brute(S, t, b, i_bound=40) is ABOVE_BOUND for b in omega)
            data[name] = {"S": S, "t": t, "omega": omega, "table": None, "all_above_bound": above}
        else:
            table = {b: r_sub_brute(S, t, b, i_bound=3 * b + 80) for b in omega}
            data[name] = {"S": S, "t": t, "omega": omega, "table": table}
    return data, time.perf_counter() - start


@pytest.fixture(scope="module")
def member_pools():
    return {name: sample_members(S, den_bound=24, limit=400) for name, S in CORPUS}


def test_criterion_01_closed_form_oracle_equivalence(brute_data):
    data, elapsed = brute_data
    with criterion(1, "closed-form vs brute-force r_s(b)"):
        assert len(CORPUS) >= 12
        for name, entry in data.items():
            S, t = entry["S"], entry["t"]
            if entry["table"] is None:
                assert entry["all_above_bound"], name
                for b in entry["omega"][:4]:
                    assert r_sub(S, t, b) is INFINITY, name
            else:
                for b, brute in entry["table"].items():
                    assert brute is not ABOVE_BOUND, (name, b)
                    assert r_sub(S, t, b) == brute, (name, b)
        assert elapsed < 10.0, f"brute tables took {elapsed:.2f}s"


def test_criterion_02_inequality_ladder(brute_data):
    data, _ = brute_data
    with criterion(2, "divisor-pair inequality ladder, zero violations"):
        for name, S in FINITE:
            entry = data[name]
            pairs = divisor_pairs(entry["t"], DIVISOR_BOUND)
            assert pairs, name
            report = check_inequality_suite(
                S, entry["t"], pairs=pairs, brute_values=entry["table"]
            )
            assert report.passed, (name, [r.line() for r in report.results if not r.ok])


def test_criterion_03_density_sandwich_and_convergence(brute_data):
    data, _ = brute_data
    with criterion(3, "density sandwich and 1/b convergence at b=210"):
        for name, S in BASED_FINITE:
            entry = data[name]
            r = S.r
            for b, k in entry["table"].items():
                rb = scale_density(r, Fraction(b))
                assert cmp_density(rb, Fraction(k)) >= 0, (name, b)  # r_s(b) <= r*b
                assert cmp_density(rb, Fraction(k + 1)) <= 0, (name, b)  # r*b <= r_s(b)+1
            assert DIVISOR_BOUND in entry["table"], name
            k210 = entry["table"][DIVISOR_BOUND]
            # |r_s(210)/210 - r| <= 1/210, exactly.
            assert cmp_density(r, Fraction(k210 - 1, DIVISOR_BOUND)) >= 0, name
            assert cmp_density(r, Fraction(k210 + 1, DIVISOR_BOUND)) <= 0, name


def test_criterion_04_saturation_axioms():
    with criterion(4, "saturation axioms, 1000 seeded samples per set"):
        for name, S in CORPUS:
            violation = check_saturation_axioms(S, samples=1000, seed=42)
            assert violation is None, (name, violation)
        one = SteinitzNumber.from_int(1)
        broken = [one, mul_natural(one, 3)]
        violation = check_saturation_axioms(broken, samples=1000, seed=42)
        assert violation is not None and violation.witness, "broken set must fail with a witness"


def test_criterion_05_classification_trichotomy(member_pools):
    with criterion(5, "inclusion trichotomy vs membership sampling"):
        rng = random.Random(5)
        names = [name for name, _ in CORPUS]
        sets = dict(CORPUS)
        for i, n1 in enumerate(names):
            for n2 in names[i:]:
                S1, S2 = sets[n1], sets[n2]
                verdict = compare_inclusion(S1, S2)
                pool1, pool2 = member_pools[n1], member_pools[n2]
                draws1 = [rng.choice(pool1) for _ in range(500)]
                draws2 = [rng.choice(pool2) for _ in range(500)]
                if verdict == Inclusion.DISJOINT:
                    assert not any(contains(S2, t) for t in draws1), (n1, n2)
                    assert not any(contains(S1, t) for t in draws2), (n1, n2)
                if verdict in (Inclusion.EQUAL, Inclusion.LEFT_IN_RIGHT):
                    assert all(contains(S2, t) for t in draws1), (n1, n2)
                if verdict in (Inclusion.EQUAL, Inclusion.RIGHT_IN_LEFT):
                    assert all(contains(S1, t) for t in draws2), (n1, n2)


def test_criterion_06_realization_roundtrip():
    with criterion(6, "spectrumOfChain(realize(S)) == S with corner inequalities"):
        for name, S in CORPUS:
            chain = realize(S, depth=4)
            assert equals_formal(spectrum_of_chain(chain), S), name
            for i, q in enumerate(chain.quotients):
                assert chain.stages[i].k * q <= chain.stages[i + 1].k, (name, i)
        # An alternate divisor chain realizes the same set.
        for name, S in BASED_FINITE[:4]:
            alt = realize(S, divisor_chain=[2, 6, 30])
            assert equals_formal(spectrum_of_chain(alt), S), name


def test_criterion_07_decision_procedure_coherence():
    with criterion(7, "isomorphic iff mutually embeddable"):
        descriptors = [AlgebraDescriptor(S) for _, S in CORPUS]
        for A in descriptors:
            for B in descriptors:
                mutual = embeds_as_approximative_corner(A, B) and embeds_as_approximative_corner(B, A)
                assert isomorphic(A, B) == mutual


def test_criterion_08_unitality():
    with criterion(8, "largest-element unitality and corner/matrix inverse"):
        for name, S in CORPUS:
            A = AlgebraDescriptor(S)
            assert is_unital(A) == (max_element(S) is not None), name
        unital = [AlgebraDescriptor(S) for _, S in CORPUS if max_element(S) is not None]
        assert unital, "corpus must contain unital descriptors"
        for A in unital:
            for n in range(1, 21):
                assert isomorphic(corner(matrix_over(A, n), Fraction(1, n)), A)


def test_criterion_09_collapse_evidence():
    with criterion(9, "infinite-prime collapse: extensional equal, formal distinct"):
        for base_text, r in (("2^inf", Fraction(1)), ("2^inf*3", Fraction(3, 2))):
            base = parse(base_text)
            raw = FiniteType(r, base, False)
            inf_form = mk_inf_type(base)
            assert equals_extensional(raw, inf_form, budget=100), base_text
            assert not equals_formal(raw, inf_form), base_text


def test_criterion_10_finite_chain_oracle():
    with criterion(10, "matrix-chain rank tables and Spec(M_n(F))"):
        rng = random.Random(10)
        built = 0
        while built < 100:
            sizes = [rng.randint(1, 8)]
            mults, pads = [], []
            target_len = rng.randint(1, 8)
            while len(sizes) < target_len:
                m, z = rng.randint(1, 3), rng.randint(0, 5)
                if m * sizes[-1] + z > 2000:
                    break
                mults.append(m)
                pads.append(z)
                sizes.append(m * sizes[-1] + z)
            chain = FiniteMatrixChain(tuple(sizes), tuple(mults), tuple(pads))
            stage = rng.randrange(len(sizes))
            rho = rng.randint(1, sizes[stage])
            (_, _, ranks), = simulate_finite_chain(chain, [(stage, rho)])
            prod = 1
            for j, rank in enumerate(ranks):
                assert rank == rho * prod
                if stage + j < len(mults):
                    prod *= mults[stage + j]
            built += 1
        for n in range(1, 51):
            A = spec_matrix(n)
            assert A.spectrum == Segment(n)
            members = enumerate_members(A.spectrum, EnumWindow(numerator_bound=60))
            assert [ratio for ratio, _ in members] == [Fraction(i) for i in range(1, n + 1)]
            rows = simulate_finite_chain(FiniteMatrixChain((n,), (), ()), [(0, r) for r in range(1, n + 1)])
            assert [row[2][0] for row in rows] == list(range(1, n + 1))


def test_criterion_11_cli_golden(monkeypatch):
    with criterion(11, "CLI golden outputs and exit-code protocol"):
        golden = [
            (["set", "member", "S(3/2, P^1)", "(1/2)*P^1"], 0, "true"),
            (["alg", "embed", "alg(S+(3/2,P^1))", "alg(S(3/2,P^1))"], 0, "true"),
            (["set", "rsub", "S(3/2,P^1)", "P^1", "3"], 0, "4"),
            (["set", "member", "S(3/2, P)", "(2/1)*P"], 1, "false"),
            (["num", "eval", "4^2"], 2, "error: non-prime base 4 (at position 0)"),
        ]
        for argv, code, expected in golden:
            assert cli.run(argv) == (code, expected), argv
        for expr in ("2^inf*3^2", "2^3*P", "1", "2^0*3^2*P", "P^inf"):
            assert cli.run(["num", "format", expr]) == (0, expr)
        plain = cli.run(["set", "rsub", "S(3/2,P)", "P", "3"])
        as_json = cli.run(["--json", "set", "rsub", "S(3/2,P)", "P", "3"])
        assert json.loads(as_json[1])["result"] == int(plain[1]) == 4
        code, _ = cli.run(["check", "roundtrip"])
        assert code == 0
        one = SteinitzNumber.from_int(1)
        monkeypatch.setattr(
            oracle_mod, "acceptance_corpus", lambda: [("broken", [one, mul_natural(one, 3)])]
        )
        code, out = cli.run(["check", "saturation", "--trials", "50"])
        assert code == 3 and "FAIL" in out
