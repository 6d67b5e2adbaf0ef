"""Brute-force oracles: definition sweeps, rank simulation, fuzz reports."""

import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from locmat import oracle
from locmat.density import Surd
from locmat.oracle import (
    ABOVE_BOUND,
    EnumWindow,
    FiniteMatrixChain,
    acceptance_corpus,
    check_inequality_suite,
    divisor_pairs,
    enumerate_members,
    r_sub_brute,
    reference_member,
    sample_members,
    saturation_fuzz,
    simulate_finite_chain,
)
from locmat.saturated import (
    InfType,
    Segment,
    contains,
    mk_finite_type,
    mk_inf_type,
    r_sub,
)
from locmat.steinitz import SteinitzNumber, divide_by, enumerate_omega, mul_natural, parse, ratio_if_connected, scale

P = parse("P")
S32 = mk_finite_type(Fraction(3, 2), P, False)
S32_STRICT = mk_finite_type(Fraction(3, 2), P, True)
SSQRT2 = mk_finite_type(Surd.make(0, 1, 2, 1), P, False)


class TestEnumerateMembers:
    def test_definition_sweep_dedupes_by_ratio(self):
        w = EnumWindow(numerator_bound=6, denominator_bound=6)
        ratios = [r for r, _ in enumerate_members(mk_finite_type(Fraction(1), P, False), w)]
        assert Fraction(1) in ratios and Fraction(1, 2) in ratios and Fraction(2, 3) in ratios
        assert len(ratios) == len(set(ratios))
        assert all(r <= 1 for r in ratios)

    def test_segment_window(self):
        w = EnumWindow(numerator_bound=10)
        assert [r for r, _ in enumerate_members(Segment(4), w)] == [1, 2, 3, 4]

    def test_strict_boundary(self):
        w = EnumWindow(numerator_bound=8, denominator_bound=6)
        ratios = [r for r, _ in enumerate_members(S32_STRICT, w)]
        assert Fraction(3, 2) not in ratios
        assert Fraction(4, 3) in ratios

    def test_members_verified(self):
        w = EnumWindow(numerator_bound=12, denominator_bound=10)
        for S in (S32, SSQRT2, mk_inf_type(P)):
            for _, t in enumerate_members(S, w):
                assert contains(S, t)


class TestRSubBrute:
    def test_known_values(self):
        assert r_sub_brute(S32, P, 2, 50) == 3
        assert r_sub_brute(S32_STRICT, P, 2, 50) == 2
        assert r_sub_brute(mk_inf_type(parse("2^inf")), parse("2^inf"), 2, 1000) is ABOVE_BOUND
        assert repr(ABOVE_BOUND) == "AboveBound"

    def test_refusals(self):
        with pytest.raises(ValueError, match=r"^3\^2\*P is not a member of S\(3/2, P\)$"):
            r_sub_brute(S32, parse("3^2*P"), 2)
        with pytest.raises(ValueError, match=r"^4 is not in Omega\(P\)$"):
            r_sub_brute(S32, P, 4)

    @pytest.mark.parametrize("b", [0, -3])
    def test_non_positive_b(self, b):
        # Both refuse; the closed form's check is omega_contains, the oracle's
        # is divide_by, so the messages differ.
        with pytest.raises(ValueError, match=rf"^n must be positive, got {b}$"):
            r_sub(S32, P, b)
        with pytest.raises(ValueError, match=rf"^divisor must be positive, got {b}$"):
            r_sub_brute(S32, P, b)

    def test_membership_edges(self):
        # Memberships hold at i = 1, 2, 3 and fail at i = 4 for S(3/2, P), b=2.
        from locmat.steinitz import divide_by, mul_natural

        u = divide_by(P, 2)
        assert [contains(S32, mul_natural(u, i)) for i in (1, 2, 3, 4)] == [True, True, True, False]

    def test_matches_closed_form_on_samples(self):
        rng = random.Random(1)
        for S in (S32, S32_STRICT, SSQRT2, mk_finite_type(Fraction(7, 3), P, True)):
            t = reference_member(S)
            for b in rng.sample(enumerate_omega(t, 100), 8):
                assert r_sub_brute(S, t, b, 3 * b + 80) == r_sub(S, t, b)

    @given(
        st.sampled_from(enumerate_omega(P, 30)),
        st.integers(min_value=1, max_value=40),
        st.sets(st.integers(min_value=1, max_value=45)),
    )
    @example(b=2, i_bound=10, members={1, 5, 10})  # a member at the bound
    @example(b=30, i_bound=20, members=set())  # no member at all
    @example(b=3, i_bound=12, members={1, 7})  # the largest member lies below the bound, past gaps
    def test_matches_full_scan_on_any_membership(self, b, i_bound, members):
        # Membership is replaced by an arbitrary set of multipliers i (t itself,
        # i = b, always in), so nothing saturated or monotone can be assumed.
        u = divide_by(P, b)
        hits = members | {b}
        inside = {mul_natural(u, i) for i in hits}
        best = max((i for i in range(1, i_bound + 1) if i in hits), default=0)
        want = ABOVE_BOUND if best == i_bound else best
        with mock.patch.object(oracle, "contains", lambda S, x: x in inside):
            assert r_sub_brute(S32, P, b, i_bound) == want

    def test_stops_at_the_first_member_from_the_top(self):
        calls = []

        def counted(S, x):
            calls.append(x)
            return contains(S, x)

        S = mk_inf_type(parse("2^inf"))
        with mock.patch.object(oracle, "contains", counted):
            assert r_sub_brute(S, parse("2^inf"), 2, 40) is ABOVE_BOUND
        assert len(calls) == 2  # the guard on t, then i = 40


class TestInequalitySuite:
    def test_known_pair_values(self):
        rep = check_inequality_suite(S32, P, pairs=[(2, 6)])
        assert rep.passed
        assert r_sub_brute(S32, P, 6, 50) == 9

    def test_strict_pair_values(self):
        assert r_sub_brute(S32_STRICT, P, 6, 50) == 8
        assert check_inequality_suite(S32_STRICT, P, pairs=[(2, 6)]).passed

    def test_surd_pair_values(self):
        assert r_sub_brute(SSQRT2, P, 6, 50) == 8
        assert check_inequality_suite(SSQRT2, P, pairs=[(2, 6)]).passed

    def test_infinite_type_rejected(self):
        with pytest.raises(ValueError):
            check_inequality_suite(mk_inf_type(P), P)

    def test_precomputed_values_honored(self):
        rep = check_inequality_suite(S32, P, pairs=[(2, 6)], brute_values={2: 3, 6: 9})
        assert rep.passed
        # A wrong table must surface as a failure, proving the values are used.
        rep_bad = check_inequality_suite(S32, P, pairs=[(2, 6)], brute_values={2: 4, 6: 9})
        assert not rep_bad.passed

    def test_scan_starts_at_three_b_plus_80(self):
        # b = 1 scans 83 down to r(1) = 1, b = 2 scans 86 down to r(2) = 3,
        # each after the guard on t.
        calls = []

        def counted(S, x):
            calls.append(x)
            return contains(S, x)

        with mock.patch.object(oracle, "contains", counted):
            assert check_inequality_suite(S32, P, pairs=[(1, 2)]).passed
        assert len(calls) <= 83 + 86 + 2

    def test_scan_bound_hit_raises(self):
        # r(1) = 100 lies above the scan bound 83 at b = 1.
        with pytest.raises(ValueError, match="scan bound 83 at b=1"):
            check_inequality_suite(mk_finite_type(Fraction(100), P, False), P, pairs=[(1, 2)])

    def test_failure_witnesses(self):
        # r(1) = 1 and r(2) = 5: floor(5/2) = 2 exceeds r(1), and 5/2 >= 1/1 + 1/1.
        rep = check_inequality_suite(S32, P, pairs=[(1, 2)], brute_values={1: 1, 2: 5})
        assert rep.lines() == [
            "PASS eq1-monotone-ratio[S(3/2, P)] 1 pairs",
            "FAIL eq2-floor-lower[S(3/2, P)] b=1 c=2 floor=2 r(b)=1",
            "FAIL eq3-floor-recurrence[S(3/2, P)] b=1 c=2 floor=2 r(b)=1",
            "FAIL eq4-strict-upper[S(3/2, P)] b=1 c=2 r(b)=1 r(c)=5",
        ]

    def test_divisor_pairs(self):
        t = SteinitzNumber.from_int(12)
        pairs = divisor_pairs(t, 12)
        assert (2, 6) in pairs and (1, 12) in pairs and (4, 6) not in pairs


class TestSimulateFiniteChain:
    def test_doubling(self):
        chain = FiniteMatrixChain((2, 4, 8), (2, 2), (0, 0))
        assert simulate_finite_chain(chain, [(0, 1)]) == [(0, 1, (1, 2, 4))]

    def test_padding_grows_sizes_not_ranks(self):
        chain = FiniteMatrixChain((2, 5, 11), (2, 2), (1, 1))
        assert simulate_finite_chain(chain, [(0, 1)]) == [(0, 1, (1, 2, 4))]

    def test_single_stage_spectrum(self):
        # Spec truncation of a single matrix stage: every rank 1..n occurs.
        chain = FiniteMatrixChain((7,), (), ())
        rows = simulate_finite_chain(chain, [(0, r) for r in range(1, 8)])
        assert [row[2][0] for row in rows] == list(range(1, 8))

    def test_rank_out_of_range(self):
        chain = FiniteMatrixChain((2, 4), (2,), (0,))
        with pytest.raises(ValueError):
            simulate_finite_chain(chain, [(0, 3)])

    def test_stage_out_of_range(self):
        with pytest.raises(ValueError, match="^stage 1 out of range$"):
            simulate_finite_chain(FiniteMatrixChain((2,), (), ()), [(1, 1)])

    def test_random_chains_match_product_formula(self):
        rng = random.Random(7)
        for _ in range(60):
            sizes = [rng.randint(1, 6)]
            mults, pads = [], []
            while len(sizes) < rng.randint(2, 8) and sizes[-1] < 500:
                m, z = rng.randint(1, 3), rng.randint(0, 4)
                mults.append(m)
                pads.append(z)
                sizes.append(m * sizes[-1] + z)
            chain = FiniteMatrixChain(tuple(sizes), tuple(mults), tuple(pads))
            stage = rng.randrange(len(sizes))
            rho = rng.randint(1, sizes[stage])
            (_, _, ranks), = simulate_finite_chain(chain, [(stage, rho)])
            prod = 1
            for j, r in enumerate(ranks):
                assert r == rho * prod  # closed product formula
                if stage + j < len(mults):
                    prod *= mults[stage + j]


class TestRebasedClosedForm:
    def test_closed_form_matches_brute_at_non_base_members(self):
        # The closed form routes through rebasing (density and strictness
        # expressed at t); the brute scan never rebases.
        rng = random.Random(23)
        sets = [
            S32,
            S32_STRICT,
            SSQRT2,
            mk_finite_type(Fraction(7, 3), P, True),
            mk_finite_type(Fraction(5, 2), parse("P^1*2^3"), False),
            mk_finite_type(Fraction(5, 2), parse("P^1*2^3"), True),
        ]
        for S in sets:
            members = sample_members(S, den_bound=10, limit=40)
            for t in rng.sample(members, 12):
                # Densities rebase by the member's ratio: a corpus density
                # below 3 at the base is below 3*b0 at t = (a0/b0)*base.
                b0 = ratio_if_connected(S.base, t).denominator
                omega = enumerate_omega(t, 40)
                for b in rng.sample(omega, min(4, len(omega))):
                    closed = r_sub(S, t, b)
                    assert closed == r_sub_brute(S, t, b, 3 * b0 * b + 80), (S, t, b)

    def test_segment_closed_form_matches_brute_at_non_base_members(self):
        S = Segment(36)
        for t in (SteinitzNumber.from_int(12), SteinitzNumber.from_int(30)):
            for b in enumerate_omega(t, 40):
                assert r_sub(S, t, b) == r_sub_brute(S, t, b, 200)


class TestEnumerateMembersComplete:
    def test_no_false_negatives_in_window(self):
        # Independent sweep over all reduced ratios in the window: whatever
        # passes the membership test must appear in the enumeration.
        w = EnumWindow(numerator_bound=10, denominator_bound=8)
        for S in (S32, S32_STRICT, SSQRT2):
            got = {r for r, _ in enumerate_members(S, w)}
            expected = set()
            for b in enumerate_omega(P, w.denominator_bound):
                for a in range(1, w.numerator_bound + 1):
                    q = Fraction(a, b)
                    if q not in expected and contains(S, scale(P, q)):
                        expected.add(q)
            assert got == expected, S


class TestSaturationFuzz:
    def test_corpus_sets_pass(self):
        for name, S in acceptance_corpus()[:6]:
            rep = saturation_fuzz(S, trials=200, seed=11)
            assert rep.passed, (name, rep.lines())

    def test_literal_generator_is_read_once(self):
        # A one-shot iterable of members is reported as the list of them is.
        members = [P, mul_natural(P, 3)]
        rep = saturation_fuzz(t for t in members)
        assert rep.lines() == saturation_fuzz(members).lines()
        assert rep.lines() == ["FAIL axioms[literal:2-members] P is a member but P/13 is not"]

    def test_report_shapes(self):
        rep = saturation_fuzz(S32, trials=100, seed=0)
        lines = rep.lines()
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)
        d = rep.to_json_dict()
        assert d["passed"] is True and len(d["checks"]) == len(lines)

    def test_closed_form_mismatch_fails_with_witness(self, monkeypatch):
        monkeypatch.setattr(oracle, "r_sub", lambda S, t, b: r_sub(S, t, b) + 1)
        rep = saturation_fuzz(S32, trials=100, seed=0)
        axioms, mismatch = rep.results
        assert axioms.ok and not mismatch.ok and not rep.passed
        assert mismatch.name == "rsub-closed-vs-brute[S(3/2, P)]"
        b, closed, brute = map(int, re.fullmatch(r"b=(\d+) closed=(\d+) brute=(\d+)", mismatch.witness).groups())
        assert closed == brute + 1 == r_sub(S32, P, b) + 1
        assert mismatch.line() == f"FAIL rsub-closed-vs-brute[S(3/2, P)] b={b} closed={closed} brute={brute}"


class TestCorpus:
    def test_size_and_shapes(self):
        corpus = acceptance_corpus()
        assert len(corpus) >= 12
        kinds = {type(S).__name__ for _, S in corpus}
        assert kinds == {"Segment", "AllNaturals", "InfType", "FiniteType"}
        assert sum(1 for _, S in corpus if isinstance(S, InfType)) == 3

    def test_reference_members(self):
        for _, S in acceptance_corpus():
            assert contains(S, reference_member(S))
