"""Group grammar, invariants, and the classification verdicts."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiso.factorfn import FactorFunction, ff_equal, ff_le, ff_sub
from coarseiso.groups import (
    CanonicalForm,
    GroupDescription,
    canonical_form,
    coarse_equivalent,
    coarse_isomorphic,
    factorizing_function_symbolic,
    find_multipliers,
    free_rank,
    is_finitely_generated,
    parse_group,
    render_group,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import extnat_phi  # noqa: E402

INF = math.inf


def ff(values, default=0):
    return FactorFunction.from_dict(values, default)


class TestParsing:
    def test_rank_and_torsion(self):
        g = parse_group("Z^2 + C2^inf")
        assert g.free_rank_part == 2
        assert g.summands == ((2, INF),)

    def test_single_cyclic(self):
        g = parse_group("C12")
        assert g.free_rank_part == 0
        assert g.summands == ((12, 1),)

    def test_infinite_rank_with_tail(self):
        g = parse_group("Z^inf + Call^1")
        assert g.free_rank_part == INF
        assert g.tail == 1

    def test_whitespace_insignificant(self):
        assert parse_group("Z^2+C2^inf") == parse_group("  Z^2 + C 2 ^ inf ")

    def test_finite_group_normalizes_to_cyclic(self):
        assert render_group(parse_group("F12")) == "C12"

    def test_trivial(self):
        g = parse_group("Z^0")
        assert render_group(g) == "Z^0"
        assert g.free_rank_part == 0

    def test_duplicate_orders_merge(self):
        assert render_group(parse_group("C2 + C2 + C2^inf")) == "C2^inf"
        assert render_group(parse_group("C3 + C3^2")) == "C3^3"

    def test_rank_accumulates(self):
        assert parse_group("Z + Z + Z^3").free_rank_part == 5

    @pytest.mark.parametrize("bad", ["", "C1", "C0", "F1", "Q8", "Z^-1", "Z +", "Call"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_group(bad)

    def test_error_carries_position(self):
        with pytest.raises(ValueError, match="position 6"):
            parse_group("Z^2 + wat")

    def test_overflow(self):
        with pytest.raises(ValueError):
            parse_group("C2^99999999")


class TestRendering:
    @pytest.mark.parametrize("text", [
        "Z^0",
        "Z",
        "Z^2 + C2^inf",
        "Z^inf + Call^1",
        "C4 + C8^3 + Call^inf",
    ])
    def test_parse_render_identity(self, text):
        assert render_group(parse_group(text)) == text

    def test_str_is_the_rendering(self):
        assert str(parse_group("Z + C2^inf")) == "Z + C2^inf"

    def test_zero_multiplicities_and_tails_drop(self):
        g = GroupDescription(1, ((2, 0), (3, 1)), 0)
        assert (g.summands, g.tail) == (((3, 1),), None)


class TestInvariants:
    def test_free_rank(self):
        assert free_rank(parse_group("Z^2 + C2^inf")) == 2
        assert free_rank(parse_group("C2^inf")) == 0
        assert free_rank(parse_group("Z^inf")) == INF

    def test_phi_mixed_orders(self):
        # Z + C12 + C2^inf: v2 accumulates 2 from C12 and inf from C2^inf
        g = parse_group("Z + C12 + C2^inf")
        assert factorizing_function_symbolic(g) == ff({2: INF, 3: 1})

    def test_phi_trivial(self):
        assert factorizing_function_symbolic(parse_group("Z^0")) == ff({})

    def test_phi_tail(self):
        assert factorizing_function_symbolic(parse_group("Call^1")) == ff({}, default=1)

    def test_phi_tail_outside_summands_only(self):
        g = parse_group("C2 + Call^1")
        phi = factorizing_function_symbolic(g)
        assert phi.get(2) == 1
        assert phi.get(3) == 1
        assert phi.get(97) == 1

    def test_canonical_form(self):
        assert canonical_form(parse_group("Z^2 + C4")) == CanonicalForm(2, ff({2: 2}))
        assert canonical_form(parse_group("C2^inf + C3")) == CanonicalForm(
            0, ff({2: INF, 3: 1})
        )
        assert canonical_form(parse_group("Z^inf + C5^inf")) == CanonicalForm(
            INF, ff({5: INF})
        )

    def test_locally_finite(self):
        assert parse_group("C2^inf").free_rank_part == 0
        assert parse_group("Z").free_rank_part != 0

    def test_finitely_generated(self):
        assert is_finitely_generated(parse_group("Z^3 + C12^5"))
        assert not is_finitely_generated(parse_group("Z + C2^inf"))
        assert not is_finitely_generated(parse_group("Call^1"))
        assert not is_finitely_generated(parse_group("Z^inf"))


class TestEquivalence:
    def test_both_infinitely_generated(self):
        v = coarse_equivalent(parse_group("Z + C2^inf"), parse_group("Z + C3^inf"))
        assert v.result is True

    def test_generation_mismatch(self):
        v = coarse_equivalent(parse_group("Z"), parse_group("Z + C2^inf"))
        assert v.result is False
        assert v.case_label == "generation-mismatch"

    def test_identity(self):
        assert coarse_equivalent(parse_group("Z^2"), parse_group("Z^2")).result is True

    def test_rank_mismatch(self):
        v = coarse_equivalent(parse_group("Z^2"), parse_group("Z^3"))
        assert v.result is False
        assert v.case_label == "rank-mismatch"


class TestIsomorphism:
    def test_case3_true(self):
        v = coarse_isomorphic(parse_group("Z + C2^inf"), parse_group("Z + C2^inf + C3"))
        assert v.result is True
        assert v.case_label.startswith("case-3")

    def test_case2_violated(self):
        v = coarse_isomorphic(parse_group("C2^inf"), parse_group("C2^inf + C3"))
        assert v.result is False
        assert v.case_label.startswith("case-2")

    def test_case1(self):
        v = coarse_isomorphic(parse_group("Z^inf"), parse_group("Z^inf + C5^inf"))
        assert v.result is True
        assert v.case_label.startswith("case-1")

    def test_case2_true_needs_exact_phi(self):
        v = coarse_isomorphic(parse_group("C2^inf + C3"), parse_group("C2^inf + C3"))
        assert v.result is True
        # at rank zero a finite phi discrepancy is enough to split the classes
        w = coarse_isomorphic(parse_group("C2"), parse_group("C4"))
        assert w.result is False

    def test_json_shape(self):
        v = coarse_isomorphic(parse_group("Z + C2^inf"), parse_group("Z + C2^inf + C3"))
        payload = v.to_json()
        # the CLI prints the dict as it is: plain JSON values, unchanged by a round trip
        assert json.loads(json.dumps(payload)) == payload
        assert payload["result"] is True
        assert payload["relation"] == "isomorphism"
        assert payload["invariants"]["phi2"] == "2:inf,3:1"
        assert payload["multipliers"] == {"n": 1, "m": 3}


class TestMultipliers:
    def test_closed_form(self):
        got = find_multipliers(
            CanonicalForm(1, ff({2: 3})), CanonicalForm(1, ff({2: 1}))
        )
        assert got == (4, 1)

    def test_equal_phi(self):
        c = CanonicalForm(1, ff({2: INF, 3: 2}))
        assert find_multipliers(c, c) == (1, 1)

    def test_infinite_discrepancy_absent(self):
        got = find_multipliers(
            CanonicalForm(1, ff({2: INF})), CanonicalForm(1, ff({2: 3}))
        )
        assert got is None

    def test_default_mismatch_absent(self):
        got = find_multipliers(
            CanonicalForm(1, ff({}, default=1)),
            CanonicalForm(1, ff({})),
        )
        assert got is None

    def test_satisfies_defining_equation(self):
        from coarseiso.factorfn import phi_of_nat

        fx, fy = ff({2: 3, 3: 1, 5: INF}), ff({2: 1, 3: 4, 5: INF})
        n, m = find_multipliers(CanonicalForm(1, fx), CanonicalForm(1, fy))
        assert ff_le(phi_of_nat(n), fx) and ff_le(phi_of_nat(m), fy)
        assert ff_sub(fx, phi_of_nat(n)) == ff_sub(fy, phi_of_nat(m))


# randomized description strategies

orders = st.sampled_from([2, 3, 4, 5, 8, 9, 12, 25, 30])
mults = st.one_of(st.integers(min_value=1, max_value=3), st.just(INF))
ranks = st.one_of(st.integers(min_value=0, max_value=3), st.just(INF))
groups = st.builds(
    GroupDescription,
    ranks,
    st.lists(st.tuples(orders, mults), max_size=3).map(tuple),
    st.one_of(st.none(), st.just(1), st.just(INF)),
)


@given(groups, groups)
def test_iso_implies_equiv(g1, g2):
    if coarse_isomorphic(g1, g2).result:
        assert coarse_equivalent(g1, g2).result


@given(groups)
def test_relations_reflexive(g):
    assert coarse_equivalent(g, g).result
    assert coarse_isomorphic(g, g).result


@given(groups, groups)
def test_relations_symmetric(g1, g2):
    assert coarse_equivalent(g1, g2).result == coarse_equivalent(g2, g1).result
    assert coarse_isomorphic(g1, g2).result == coarse_isomorphic(g2, g1).result


@settings(max_examples=200)
@given(groups, groups, groups)
def test_relations_transitive(g1, g2, g3):
    for rel in (coarse_equivalent, coarse_isomorphic):
        if rel(g1, g2).result and rel(g2, g3).result:
            assert rel(g1, g3).result


@given(groups)
def test_parse_render_roundtrip(g):
    assert parse_group(render_group(g)) == g


COPRIME_SPLITS = [(4, 3), (8, 9), (5, 4), (27, 25), (7, 8), (9, 109)]


@pytest.mark.parametrize("a,b", COPRIME_SPLITS)
def test_coprime_split_preserves_verdict(a, b):
    base = parse_group("Z + C2^inf")
    joined = GroupDescription(1, ((2, INF), (a * b, 1)))
    split = GroupDescription(1, ((2, INF), (a, 1), (b, 1)))
    assert coarse_isomorphic(joined, base) == coarse_isomorphic(split, base)
    assert coarse_isomorphic(joined, split).result is True


@pytest.mark.parametrize("make, message", [
    (lambda: GroupDescription(summands=((1, 1),)), "cyclic order must be >= 2, got 1"),
    (lambda: GroupDescription(summands=((10**9 + 1, 1),)),
     "order 1000000001 exceeds limit 1000000000"),
    (lambda: GroupDescription(summands=((2, 10**6 + 1),)), "multiplicity overflow at order 2"),
    (lambda: GroupDescription(free_rank_part=10**6 + 1), "free rank overflow"),
], ids=["order-1", "order-past-limit", "multiplicity-past-limit", "rank-past-limit"])
def test_every_refusal_of_a_description_built_directly(make, message):
    with pytest.raises(ValueError) as refused:
        make()
    assert type(refused.value) is ValueError and str(refused.value) == message


@pytest.mark.parametrize("summands", [
    ((2, 10**6), (2, 10**6)),
    ((2, 10**6), (3, 1), (2, 1)),
])
def test_merged_multiplicities_are_bounded_after_summing(summands):
    # as the free rank is: each term is within the bound, the sum is not
    with pytest.raises(ValueError, match="^multiplicity overflow at order 2$"):
        GroupDescription(summands=summands)
    with pytest.raises(ValueError, match="^multiplicity overflow at order 2$"):
        parse_group(" + ".join(f"C{o}^{k}" for o, k in summands))
    merged = GroupDescription(summands=((2, 10**6 - 1), (2, 1), (2, INF), (3, 10**6)))
    assert merged.summands == ((2, INF), (3, 10**6))


@pytest.mark.parametrize("order", [4.0, 2.5, "4", True])
def test_an_order_that_is_not_an_int_is_refused(order):
    # worded as checked_count words a count; 4.0 and 2.5 were built, and
    # "4" failed on a bare comparison
    with pytest.raises(TypeError) as refused:
        GroupDescription(summands=((order, 1),))
    assert str(refused.value) == f"a cyclic order must be an int, got {order!r}"


@pytest.mark.parametrize("value, error, message", [
    (1.5, TypeError, "a count must be an int or math.inf, got 1.5"),
    (True, TypeError, "a count must be an int or math.inf, got True"),
    ("3", TypeError, "a count must be an int or math.inf, got '3'"),
    (2.0, TypeError, "a count must be an int or math.inf, got 2.0"),
    (-1, ValueError, "a count must be nonnegative, got -1"),
])
@pytest.mark.parametrize("where", ["rank", "multiplicity", "tail"])
def test_every_refused_count_of_a_description(where, value, error, message):
    # the counts are checked where factor functions check theirs
    # (factorfn.checked_count)
    build = {"rank": lambda: GroupDescription(value),
             "multiplicity": lambda: GroupDescription(summands=((2, value),)),
             "tail": lambda: GroupDescription(tail=value)}[where]
    with pytest.raises(error) as refused:
        build()
    assert type(refused.value) is error and str(refused.value) == message


def test_none_is_no_longer_infinite_and_means_only_no_tail():
    for build in (lambda: GroupDescription(None), lambda: GroupDescription(summands=((2, None),))):
        with pytest.raises(TypeError, match="^a count must be an int or math.inf, got None$"):
            build()
    assert GroupDescription(tail=None).tail is None


def test_infinite_counts_pass_the_overflow_bounds():
    # inf > 10**6, yet an infinite rank or multiplicity is no overflow
    g = GroupDescription(INF, ((2, INF),), INF)
    assert (g.free_rank_part, g.summands, g.tail) == (INF, ((2, INF),), INF)
    assert render_group(g) == "Z^inf + C2^inf + Call^inf"


@pytest.mark.parametrize("f_text, c_text, case, rendered", [
    ("F6^inf", "C6^inf", "case-2-zero-rank-phi-equal", "C6^inf"),
    ("F8^2", "C8^2", "case-2-zero-rank-phi-equal", "C8^2"),
    ("Z + F6^inf", "Z + C6^inf", "case-3-finite-rank-phi-almost-equal", "Z + C6^inf"),
])
def test_finite_group_powers_normalize_to_cyclic_powers(f_text, c_text, case, rendered):
    # k finite groups of order n are coarsely k cyclic groups of order n
    v = coarse_isomorphic(parse_group(f_text), parse_group(c_text))
    assert (v.result, v.case_label) == (True, case)
    assert render_group(parse_group(f_text)) == rendered
    assert parse_group(f_text) == parse_group(c_text)


@pytest.mark.parametrize("text, message", [
    ("Z + F1^inf", "syntax error at position 4: finite-group order must be >= 2 "
                   "(F1 is trivial, write Z^0)"),
    ("C2 + F6^", "syntax error at position 5: 'F6^'"),
    ("Z^2 + F6^-1", "syntax error at position 6: 'F6^-1'"),
    ("F6^99999999", "exponent overflow at position 0"),
])
def test_finite_group_power_errors_carry_positions(text, message):
    with pytest.raises(ValueError) as refused:
        parse_group(text)
    assert str(refused.value) == message


# acceptance #9's pool
VERDICT_POOL = [
    "Z", "Z^2", "Z^3", "Z^inf", "C2", "C3", "C4", "C9", "C12",
    "C2^inf", "C3^inf", "C5^inf", "C6", "F8", "Call^inf",
    "Z + C2^inf", "Z + C3^inf", "Z + C2^inf + C3", "Z^2 + C4",
    "C2^inf + C3", "C2^inf + C3^inf", "Z + C4 + C9",
]


def test_every_verdict_of_the_pool_keeps_its_pinned_payload():
    # sha256 of Verdict.to_json() for every ordered pair, isomorphism then
    # equivalence, dumped with sorted keys; captured while ranks and
    # exponents were ExtNat values (132 of the 968 verdicts are true)
    gs = [parse_group(s) for s in VERDICT_POOL]
    payload = [rel(a, b).to_json() for rel in (coarse_isomorphic, coarse_equivalent)
               for a in gs for b in gs]
    assert sum(v["result"] for v in payload) == 132
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7e574616d7c9bcab36b2cd382f0e588931f3c8761e5c6a0729c56024c18a79be"


@settings(max_examples=300)
@given(groups)
def test_symbolic_phi_matches_the_extnat_reference(g):
    # mult * exp never meets 0 * inf, whose convention (0) the reference
    # keeps and floats do not (nan)
    assert factorizing_function_symbolic(g) == extnat_phi(g)
