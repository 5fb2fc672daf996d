"""Witness construction, verification, and the chain assembly.

Every constructor is checked through verify_witness, which re-measures all
recorded moduli from scratch; corrupted tables must be reported, never
silently accepted.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiso.analysis import oscillation
from coarseiso.groups import parse_group
from coarseiso.spaces import (
    build_truncation,
    example31_fixture,
    k_point_space,
    product_space,
    tower_space,
    zball,
)
from coarseiso.witness import (
    WitnessMap,
    absorption_witness,
    component_multiplicity,
    compose_witness,
    factorization_witness,
    invert_witness,
    iso_witness_chain,
    product_witness,
    relabel_witness,
    tower_alignment_witness,
    verify_witness,
)


def brute_oscillation(source, target, pairs, delta):
    best = 0.0
    for a, b in pairs:
        for c, d in pairs:
            if source.d(a, c) <= delta:
                best = max(best, float(target.d(b, d)))
    return best


def identity_witness(space):
    return relabel_witness(space, space)


class TestWitnessMap:
    def test_apply_and_len(self):
        w = identity_witness(tower_space([2, 3]))
        assert len(w) == 6
        assert w.as_dict()[4] == 4

    def test_json_shape(self):
        w = identity_witness(tower_space([2, 3]))
        payload = w.to_json()
        json.dumps(payload)  # must be serializable as-is
        assert set(payload) == {
            "source_id", "target_id", "validity_radius", "pairs", "moduli",
            "claims",
        }
        assert payload["validity_radius"] == 3.0
        assert sorted(payload["pairs"]) == [[i, i] for i in range(6)]

    def test_infinite_validity_serializes_as_sentinel(self):
        w = identity_witness(k_point_space(3))
        assert math.isinf(w.validity_radius)
        assert w.to_json()["validity_radius"] == "inf"

    def test_duplicate_sources_rejected(self):
        # every constructor funnels through the same finishing step
        from coarseiso.witness import _finish

        sp = tower_space([2])
        with pytest.raises(ValueError):
            _finish(sp, sp, [(0, 0), (0, 1)], ())


class TestVerification:
    def test_clean_witness_passes(self):
        rep = verify_witness(identity_witness(tower_space([2, 2])))
        assert rep.ok and rep.violations == ()

    def test_swapped_targets_break_moduli(self):
        w = identity_witness(zball(6))
        table = list(w.table)
        # swap the images of the two extremes
        table[0], table[-1] = (table[0][0], table[-1][1]), (table[-1][0], table[0][1])
        bad = dataclasses.replace(w, table=tuple(table))
        rep = verify_witness(bad)
        assert not rep.ok
        assert any("modulus" in v for v in rep.violations)

    def test_non_injective_reported(self):
        w = identity_witness(tower_space([2, 2]))
        table = tuple((s, 0) for s, _ in w.table)
        rep = verify_witness(dataclasses.replace(w, table=table))
        assert not rep.ok
        assert any("injective" in v for v in rep.violations)

    def test_missing_entries_reported(self):
        w = identity_witness(tower_space([2, 2]))
        rep = verify_witness(dataclasses.replace(w, table=w.table[:2]))
        assert not rep.ok
        assert any("has no entry" in v for v in rep.violations)

    def test_tampered_modulus_value(self):
        w = identity_witness(tower_space([2, 2]))
        moduli = dict(w.forward_moduli)
        moduli[2.0] = moduli[2.0] + 1.0
        rep = verify_witness(dataclasses.replace(w, forward_moduli=moduli))
        assert not rep.ok

    def test_report_json(self):
        rep = verify_witness(identity_witness(tower_space([2])))
        payload = rep.to_json()
        assert payload["ok"] is True
        assert payload["violations"] == []


class TestFactorization:
    def test_mixed_truncation_full_table(self):
        sp = build_truncation(parse_group("Z + C2"), radius=8)
        w = factorization_witness(sp, 1.0)
        assert len(w) == len(sp) == 34
        assert w.validity_radius == 8.0
        assert w.forward_moduli == {1.0: 1.0, 2.0: 2.0, 4.0: 4.0, 8.0: 8.0}
        assert w.backward_moduli == w.forward_moduli
        assert verify_witness(w).ok

    def test_carries_isometry_claim(self):
        sp = build_truncation(parse_group("Z + C2"), radius=8)
        w = factorization_witness(sp, 1.0)
        assert w.claims == ({"kind": "per-component-isometry", "epsilon": 1.0},)
        assert component_multiplicity(w, 1.0) == 1

    def test_pure_torsion_truncation(self):
        sp = build_truncation(parse_group("C2^inf"), radius=8)
        w = factorization_witness(sp, 2.0)
        assert len(w) == len(sp)
        assert verify_witness(w).ok

    def test_plane_fixture_rejected(self):
        with pytest.raises(ValueError):
            factorization_witness(example31_fixture(1, 0.5, 3), 1.0)


class TestTowerAlignment:
    def test_frozen_small_case(self):
        u, v = tower_space([2, 2, 2]), tower_space([8], levels=[2])
        al = tower_alignment_witness(u, v)
        assert al.pairs == ((1, 1), (3, 1))
        assert al.witness.validity_radius == 4.0
        assert al.witness.claims == (
            {"kind": "ball-respecting", "pairs": [[2.0, 0.0], [4.0, 2.0]]},
        )
        assert verify_witness(al.witness).ok

    def test_modulus_bounds_measured_oscillation(self):
        u, v = tower_space([2, 2, 2]), tower_space([8], levels=[2])
        al = tower_alignment_witness(u, v)
        src = np.asarray([s for s, _ in al.witness.table])
        dst = np.asarray([t for _, t in al.witness.table])
        for delta in (2.0, 3.0, 4.0):
            measured = oscillation(u, v, src, dst, delta)
            assert measured <= al.modulus(delta)

    def test_alternating_interleave(self):
        u = tower_space([2, 3, 2, 3])
        v = tower_space([6, 6], levels=[2, 3])
        al = tower_alignment_witness(u, v)
        # alternating divisibility chain 2 | 6 | 6 | 36 | 36 over the prefixes
        assert al.pairs == ((1, 1), (2, 1), (3, 2), (4, 2))
        assert verify_witness(al.witness).ok

    def test_profile_mismatch_rejected(self):
        with pytest.raises(ValueError, match="factor functions"):
            tower_alignment_witness(tower_space([2, 2]), tower_space([8], levels=[2]))

    def test_requires_towers(self):
        with pytest.raises(ValueError):
            tower_alignment_witness(zball(2), tower_space([2]))

    def test_json(self):
        al = tower_alignment_witness(tower_space([2, 2, 2]), tower_space([8], levels=[2]))
        payload = al.to_json()
        assert payload["pairs"] == [[1, 1], [3, 1]]
        assert "witness" in payload


class TestAbsorption:
    def test_frozen_small_case(self):
        w = absorption_witness(2, 10)
        assert len(w) == 21
        assert w.validity_radius == 10.0
        assert w.forward_moduli == {1.0: 1.0, 2.0: 1.0, 4.0: 2.0, 8.0: 4.0}
        assert w.backward_moduli == {1.0: 3.0, 2.0: 5.0, 4.0: 9.0, 8.0: 17.0}
        assert verify_witness(w).ok

    def test_division_pairs(self):
        w = absorption_witness(3, 6)
        src_labels = {w.source.labels[s]: w.target.labels[t] for s, t in w.table}
        assert src_labels[(-4,)] == (-2, 2)  # floor division toward minus inf
        assert src_labels[(5,)] == (1, 2)

    def test_moduli_match_brute_force(self):
        w = absorption_witness(3, 30, deltas=(3.0,))
        pairs = list(w.table)
        for delta, value in w.forward_moduli.items():
            assert value == brute_oscillation(w.source, w.target, pairs, delta)

    def test_inverse_loses_the_corner(self):
        w = absorption_witness(2, 10)
        inv = invert_witness(w)
        assert inv.validity_radius == 4.0
        assert verify_witness(inv).ok

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            absorption_witness(1, 10)


class TestCombinators:
    def test_compose_identities(self):
        sp = tower_space([2, 3])
        w = compose_witness(identity_witness(sp), identity_witness(sp))
        assert w.table == identity_witness(sp).table
        assert verify_witness(w).ok

    def test_compose_needs_matching_interface(self):
        with pytest.raises(ValueError):
            compose_witness(identity_witness(zball(2)), identity_witness(zball(3)))

    def test_compose_validity_shrinks_to_reachable(self):
        f = absorption_witness(2, 10)
        g = invert_witness(f)
        round_trip = compose_witness(f, g)
        assert round_trip.validity_radius <= f.validity_radius
        assert verify_witness(round_trip).ok
        for s, t in round_trip.table:
            assert s == t

    def test_product_of_identities(self):
        a, b = tower_space([2]), tower_space([3])
        w = product_witness(identity_witness(a), identity_witness(b))
        assert len(w) == 6
        assert w.source == product_space(a, b)
        assert verify_witness(w).ok

    def test_invert_round_trip(self):
        w = absorption_witness(2, 8)
        back = invert_witness(invert_witness(w))
        kept = {(s, t) for s, t in w.table
                if w.source.dists_from(w.source.basepoint)[s] <= back.validity_radius}
        assert kept <= set(back.table)
        assert verify_witness(back).ok

    def test_invert_requires_injectivity(self):
        w = identity_witness(tower_space([2, 2]))
        table = tuple((s, 0) for s, _ in w.table)
        with pytest.raises(ValueError):
            invert_witness(dataclasses.replace(w, table=table))

    def test_relabel_with_translation(self):
        sp = tower_space([2, 2])
        w = relabel_witness(sp, sp, translate=lambda lab: (lab[1], lab[0]))
        assert verify_witness(w).ok
        assert w.forward_moduli == w.backward_moduli


class TestChain:
    def test_absorbing_one_torsion_summand(self):
        w = iso_witness_chain(parse_group("Z + C2"), parse_group("Z"))
        assert len(w) == 46
        assert w.validity_radius == 11.0
        assert verify_witness(w).ok

    def test_rank_zero_tower_route(self):
        w = iso_witness_chain(parse_group("C2^inf"), parse_group("C2^inf + C4"))
        assert len(w) == 16
        assert w.validity_radius == 5.0
        assert verify_witness(w).ok

    def test_multiplier_on_the_right(self):
        w = iso_witness_chain(parse_group("Z + C2^inf"), parse_group("Z + C2^inf + C3"))
        assert len(w) == 28
        assert w.validity_radius == 3.0
        assert verify_witness(w).ok

    def test_rank_two_self_chain(self):
        w = iso_witness_chain(parse_group("Z^2 + C6"), parse_group("Z^2 + C6"),
                              radius=6)
        assert len(w) == 1014
        assert w.validity_radius == 6.0
        assert verify_witness(w).ok

    def test_rejects_non_isomorphic(self):
        with pytest.raises(ValueError, match="rank-mismatch"):
            iso_witness_chain(parse_group("Z"), parse_group("Z^2"))

    def test_rejects_infinite_rank(self):
        with pytest.raises(ValueError, match="infinite rank"):
            iso_witness_chain(parse_group("Z^inf"), parse_group("Z^inf"))

    def test_larger_radius_grows_validity(self):
        small = iso_witness_chain(parse_group("Z + C2"), parse_group("Z"), radius=24)
        big = iso_witness_chain(parse_group("Z + C2"), parse_group("Z"), radius=60)
        assert big.validity_radius > small.validity_radius
        assert verify_witness(big).ok


class TestComponentMultiplicity:
    def test_inverted_absorption_counts_k(self):
        inv = invert_witness(absorption_witness(3, 60))
        assert component_multiplicity(inv, 1.0) == 3

    def test_factorization_is_one_to_one(self):
        sp = build_truncation(parse_group("Z + C2"), radius=8)
        w = factorization_witness(sp, 1.0)
        assert component_multiplicity(w, 1.0) == 1

    def test_wrapped_tower_alignment(self):
        al = tower_alignment_witness(tower_space([2, 2, 2]), tower_space([8], levels=[2]))
        unit = identity_witness(k_point_space(1))
        wrapped = product_witness(al.witness, unit)
        assert component_multiplicity(wrapped, 2.0) == 1

    def test_requires_product_source(self):
        with pytest.raises(ValueError):
            component_multiplicity(absorption_witness(2, 10), 1.0)

    def test_uneven_merge_detected(self):
        inv = invert_witness(absorption_witness(2, 20))
        # collide two slices on one target point inside the validity region,
        # so that singleton component meets two slices while the rest meet one
        entries = {inv.source.labels[s]: (s, t) for s, t in inv.table}
        s1, t1 = entries[(0, 0)]
        s2, _ = entries[(0, 1)]
        table = tuple((s, t1 if s == s2 else t) for s, t in inv.table)
        bad = dataclasses.replace(inv, table=table)
        with pytest.raises(ValueError, match="meets"):
            component_multiplicity(bad, 0.5)


# randomized properties

small_towers = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=3
).map(tower_space)


@settings(max_examples=25, deadline=None)
@given(small_towers)
def test_identity_witness_always_verifies(sp):
    w = identity_witness(sp)
    rep = verify_witness(w)
    assert rep.ok
    for delta, value in w.forward_moduli.items():
        assert value <= delta


@settings(max_examples=15, deadline=None)
@given(small_towers, small_towers)
def test_product_witness_verifies(a, b):
    w = product_witness(identity_witness(a), identity_witness(b))
    assert verify_witness(w).ok


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=4, max_value=30))
def test_absorption_always_bijective_and_clean(k, radius):
    w = absorption_witness(k, radius)
    assert len(w) == 2 * radius + 1
    assert len({t for _, t in w.table}) == len(w)
    assert verify_witness(w).ok
