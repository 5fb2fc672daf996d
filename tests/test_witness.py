"""Witness construction, verification, and the chain assembly.

Every constructor is checked through verify_witness, which re-measures all
recorded moduli from scratch; corrupted tables must be reported, never
silently accepted.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiso import cli
from coarseiso import spaces as spaces_mod
from coarseiso import witness as witness_mod
from coarseiso.analysis import oscillation
from coarseiso.factorfn import ff_sub, phi_of_nat
from coarseiso.groups import coarse_equivalent, coarse_isomorphic, parse_group
from coarseiso.spaces import (
    BudgetError,
    FiniteSpace,
    SupRule,
    build_truncation,
    enumerate_summands,
    example31_fixture,
    k_point_space,
    product_space,
    quotient_with_projection,
    row_blocks,
    subspace,
    tower_space,
    zball,
)
from coarseiso.witness import (
    WitnessMap,
    _check_isometry_claim,
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

sys.path.insert(0, str(Path(__file__).resolve().parent))

from dense_rule import dense_space  # noqa: E402
from oracles import distance, index  # noqa: E402


def iso_verdict(g1: str, g2: str):
    """The coarse_isomorphic verdict of two group descriptions: what
    iso_witness_chain reads, as the CLI hands it over."""
    return coarse_isomorphic(parse_group(g1), parse_group(g2))


def cli_chain(verdict, **given):
    """iso_witness_chain of the verdict with the values the CLI passes for
    the arguments not given: the defaults of --radius, --depth,
    --prime-bound and --point-budget, and no extra scales."""
    flags = cli._FLAGS
    values = dict(radius=cli.DEFAULT_RADIUS, depth=flags["--depth"]["default"],
                  prime_bound=flags["--prime-bound"]["default"], deltas=(),
                  point_budget=flags["--point-budget"]["default"])
    return iso_witness_chain(verdict, **{**values, **given})


def brute_oscillation(source, target, pairs, delta):
    best = 0.0
    for a, b in pairs:
        for c, d in pairs:
            if distance(source, a, c) <= delta:
                best = max(best, float(distance(target, b, d)))
    return best


def first_isometry_breaks(w, si, ti):
    """Pairwise scan of each right-factor slice, in member order: the first
    pair whose source and target distances differ, as (slice, a, b)."""
    split = w.source.rule.split
    groups = {}
    for k in range(len(si)):
        groups.setdefault(w.source.labels[si[k]][split:], []).append(k)
    out = []
    for key, members in groups.items():
        pairs = ((a, b) for i, a in enumerate(members) for b in members[i + 1:])
        for a, b in pairs:
            if abs(distance(w.source, si[a], si[b]) - distance(w.target, ti[a], ti[b])) > 1e-9:
                out.append((key, w.source.labels[si[a]], w.source.labels[si[b]]))
                break
    return out


def isometry_messages(w, si, ti):
    out = []
    _check_isometry_claim(w, {"kind": "per-component-isometry", "epsilon": 1.0}, si, ti, out)
    return [v for v in out if "distance" in v]


def identity_witness(space):
    return relabel_witness(space, space)


class TestWitnessMap:
    def test_apply_and_len(self):
        w = identity_witness(tower_space([2, 3]))
        assert len(w) == 6
        assert dict(w.table)[4] == 4

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
        # every constructor funnels through the same staging step
        from coarseiso.witness import _stage

        sp = tower_space([2])
        with pytest.raises(ValueError, match="maps a source point twice"):
            _stage(sp, sp, [0, 0], [0, 1], "probe")


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

    def test_backward_only_scale_is_checked(self):
        # a scale recorded only backward is measured and compared too
        w = cli_chain(iso_verdict("Z + C2", "Z"), radius=16)
        assert w.validity_radius == 7.0 and 3.0 not in w.forward_moduli
        backward = {**w.backward_moduli, 3.0: 999}
        rep = verify_witness(dataclasses.replace(w, backward_moduli=backward))
        assert not rep.ok
        measured = rep.backward[3.0]
        assert rep.violations == (
            "no recorded forward modulus at delta=3.0",
            f"backward modulus at delta=3.0: recorded 999, measured {measured}",
        )

    def test_scale_above_validity_is_reported(self):
        # _finish records no scale above the validity radius
        w = cli_chain(iso_verdict("Z + C2", "Z"), radius=16)
        forward = {**w.forward_moduli, 1e6: 0}
        rep = verify_witness(dataclasses.replace(w, forward_moduli=forward))
        assert not rep.ok
        assert rep.violations == (
            "modulus recorded at delta=1000000.0, above the validity radius 7.0",
        )
        assert 1e6 not in rep.forward
        rep = verify_witness(dataclasses.replace(w, forward_moduli=forward), deltas=[1.0])
        assert rep.violations == (
            "modulus recorded at delta=1000000.0, above the validity radius 7.0",
        )

    def test_given_scales_add_to_the_recorded_ones(self):
        w = cli_chain(iso_verdict("Z + C2", "Z"), radius=60, deltas=(1, 2, 5))
        assert sorted(w.forward_moduli) == [1.0, 2.0, 4.0, 5.0, 8.0]
        bad = dataclasses.replace(w, forward_moduli={**w.forward_moduli, 8.0: 99})
        rep = verify_witness(bad, [1, 2, 5])
        assert rep.violations == (
            f"forward modulus at delta=8.0: recorded 99, measured {w.forward_moduli[8.0]}",
        )
        for deltas in ([1, 2, 5], [math.inf], []):
            rep = verify_witness(w, deltas)
            assert rep.ok
            assert (rep.forward, rep.backward) == (w.forward_moduli, w.backward_moduli)
        # a given scale without a record is reported, and measured
        rep = verify_witness(w, [3])
        assert rep.violations == ("no recorded forward modulus at delta=3.0",
                                  "no recorded backward modulus at delta=3.0")
        assert sorted(rep.forward) == [1.0, 2.0, 3.0, 4.0, 5.0, 8.0]

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

    @pytest.mark.parametrize("group,eps", [
        ("Z + C2", 1.0), ("Z + C3", 1.0), ("Z^2 + C2", 1.0), ("C2^inf", 2.0), ("C3^inf", 2.0),
    ])
    def test_each_slice_lands_in_its_component(self, group, eps):
        # a source point (fiber point, quotient point z) maps into component z
        sp = build_truncation(parse_group(group), radius=6)
        w = factorization_witness(sp, eps)
        quotient, part = quotient_with_projection(sp, eps)
        slice_of = {lab: z for z, lab in enumerate(quotient.labels)}
        split = w.source.rule.split
        blocks = [int(part.point_block[t]) for _, t in w.table]
        assert blocks == [slice_of[w.source.labels[s][split:]] for s, _ in w.table]
        assert len(set(blocks)) == len(quotient) > 1

    def test_slice_cut_by_the_validity_radius_verifies(self):
        # the one slice at 3 is the whole 30-point space, but the table ends
        # at the validity radius 2, which holds 10 of its points: it covers
        # what the region holds of its target component, not all of it
        w = factorization_witness(product_space(zball(2), tower_space([2, 3])), 3.0)
        assert w.validity_radius == 2.0 and len(w.source) == 30
        assert verify_witness(w).violations == ()

    def test_slice_inside_the_region_must_cover_its_component(self):
        # at 2 the slices are 10 points each, and only the basepoint's lies
        # inside the validity radius; one image dropped from it is a
        # violation, one dropped outside the region is not
        w = factorization_witness(product_space(zball(2), tower_space([2, 3])), 2.0)
        keep = witness_mod._inside(w.source, w.src, w.validity_radius)
        si, ti = w.src[keep], w.dst[keep]
        assert len(si) == 10 and verify_witness(w).ok
        out = []
        _check_isometry_claim(w, w.claims[0], si[1:], ti[1:], out)
        assert out == ["slice (0,): image covers 9 of 10 points of its target component"]
        out = []
        far = np.flatnonzero(~keep)[0]
        rest = np.delete(np.arange(len(w.src)), far)
        _check_isometry_claim(w, w.claims[0], w.src[rest], w.dst[rest], out)
        assert out == []

    def test_plane_fixture_rejected(self):
        with pytest.raises(ValueError):
            factorization_witness(example31_fixture(1, 0.5, 3), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["Z + C2", "Z + C3", "Z^2 + C2"]), st.randoms(use_true_random=False))
    def test_isometry_check_reports_the_first_broken_pair(self, group, rnd):
        # shuffled images inside the table against a pairwise scan
        w = factorization_witness(build_truncation(parse_group(group), radius=3), 1.0)
        si = np.asarray([s for s, _ in w.table])
        ti = np.asarray([t for _, t in w.table])
        picks = rnd.sample(range(len(ti)), rnd.randint(2, 4))
        ti[picks] = ti[picks[::-1]]
        want = first_isometry_breaks(w, si, ti)
        got = isometry_messages(w, si, ti)
        assert len(got) == len(want)
        for msg, (key, a, b) in zip(got, want):
            assert msg.startswith(f"slice {key}: images of {a} and {b} are at distance ")

    def test_isometry_check_over_several_row_blocks(self):
        # slices of 1101 points span several row blocks; the one broken pair
        # sits in the last block, so the message names exactly it
        sp = product_space(zball(550), tower_space([2]))
        m = sp.dmat().copy()
        a, b = index(sp)[(449, 1)], index(sp)[(499, 1)]
        m[a, b] = m[b, a] = 51.0
        target = dense_space(m, sp.basepoint, 550)
        idx = np.arange(len(sp))
        assert len(row_blocks(1101)) > 1
        w = WitnessMap(sp, target, {}, {}, 550.0, (), table=tuple(zip(idx, idx)))
        assert isometry_messages(w, idx, idx) == [
            "slice (1,): images of (449, 1) and (499, 1) are at distance 51.0, not 50.0"
        ]


def product_loop_modulus(al, delta):
    """TowerAlignment.modulus as it multiplied the orders in its own loop."""
    i = sum(1 for lvl in al.u_levels if lvl <= delta + witness_mod._TOL)
    ua = 1
    for o in al.u_orders[:i]:
        ua *= o
    v = 1
    for b, o in enumerate(al.v_orders, start=1):
        if v % ua == 0:
            return 0.0 if b == 1 else float(al.v_levels[b - 2])
        v *= o
    if v % ua == 0:
        return float(al.v_levels[-1]) if al.v_levels else 0.0
    raise ValueError("tower does not absorb the requested ball")


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
        reversed_pairs = [(t, s) for s, t in al.witness.table]
        for delta in (2.0, 3.0, 4.0):
            (forward,), (backward,) = oscillation(u, v, src, dst, [delta])
            assert forward <= al.modulus(delta)
            assert backward == brute_oscillation(v, u, reversed_pairs, delta)

    def test_alternating_interleave(self):
        u = tower_space([2, 3, 2, 3])
        v = tower_space([6, 6], levels=[2, 3])
        al = tower_alignment_witness(u, v)
        # alternating divisibility chain 2 | 6 | 6 | 36 | 36 over the prefixes
        assert al.pairs == ((1, 1), (2, 1), (3, 2), (4, 2))
        assert verify_witness(al.witness).ok

    @pytest.mark.parametrize("u, v", [([2, 2], [8]), ([2, 3], [3, 3]), ([6], [2, 2, 2])])
    def test_profile_mismatch_rejected(self, u, v):
        # different totals are different prime multisets: no check of its own
        with pytest.raises(ValueError, match="factor functions"):
            tower_alignment_witness(tower_space(u), tower_space(v, levels=range(2, len(v) + 2)))

    def test_requires_towers(self):
        with pytest.raises(ValueError):
            tower_alignment_witness(zball(2), tower_space([2]))

    @pytest.mark.parametrize("seed", range(12))
    def test_modulus_matches_the_product_loop(self, seed):
        # the towers above, then towers drawn from one shuffled multiset of
        # primes, grouped into orders two ways, at increasing levels
        rng = random.Random(seed)
        pairs = [(([2, 2, 2], None), ([8], [2])), (([2, 3, 2, 3], None), ([6, 6], [2, 3]))]
        for _ in range(4):
            primes = [rng.choice((2, 2, 3, 5)) for _ in range(rng.randint(1, 5))]
            while math.prod(primes) > 600:
                primes.pop()
            towers = []
            for _ in range(2):
                rng.shuffle(primes)
                cuts = sorted(rng.sample(range(1, len(primes)), rng.randint(0, len(primes) - 1)))
                orders = [math.prod(primes[a:b]) for a, b in zip([0, *cuts], [*cuts, len(primes)])]
                levels = list(itertools.accumulate(rng.randint(1, 3) for _ in orders))
                towers.append((orders, levels))
            pairs.append(tuple(towers))
        for (uo, ul), (vo, vl) in pairs:
            al = tower_alignment_witness(tower_space(uo, ul), tower_space(vo, vl))
            levels = sorted(set(al.u_levels) | set(al.v_levels))
            for delta in {0.0, *levels, *(lvl + 0.5 for lvl in levels), *(lvl - 0.5 for lvl in levels)}:
                assert al.modulus(delta) == product_loop_modulus(al, delta), (uo, ul, vo, vl, delta)


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


def test_finish_and_verify_measure_each_direction_once(monkeypatch):
    # every scale of a table, in both directions, comes from one call
    calls = []

    def counting(source, target, src_idx, dst_idx, deltas):
        calls.append(list(deltas))
        return oscillation(source, target, src_idx, dst_idx, deltas)

    monkeypatch.setattr(witness_mod, "oscillation", counting)
    w = absorption_witness(3, 30, deltas=(3.0,))
    assert calls == [[1.0, 2.0, 3.0, 4.0, 8.0]]
    calls.clear()
    assert verify_witness(w).ok
    assert calls == [[1.0, 2.0, 3.0, 4.0, 8.0]]


def test_rank_two_chain_at_radius_100_takes_the_window_route(monkeypatch):
    # every table of the chain and its verification at or above WINDOW_MIN
    # takes the window route; the pair pass reads only smaller tables. The
    # chain measures 2 witnesses, and verification re-measures the last.
    # The small tables (the alignment, inside the side) are stages, so no
    # table takes the keyed route or the pair pass
    from coarseiso import analysis as analysis_mod

    routes, pair_sizes = [], []
    route, pair_pass = analysis_mod._route, analysis_mod._pair_oscillation
    monkeypatch.setattr(analysis_mod, "_route",
                        lambda *a: routes.append(route(*a)[0]) or route(*a))
    monkeypatch.setattr(analysis_mod, "_pair_oscillation",
                        lambda *a: pair_sizes.append(len(a[2])) or pair_pass(*a))
    w = cli_chain(iso_verdict("Z^2 + C4", "Z^2"), radius=100)
    assert verify_witness(w).ok
    assert all(n < analysis_mod.WINDOW_MIN for n in pair_sizes), pair_sizes
    assert (routes.count("window"), routes.count("keyed"), routes.count("pairs")) == (3, 0, 0)
    assert len(pair_sizes) == 0


@pytest.mark.parametrize("pair,finished,built", [
    (("Z + C2", "Z"), 2, 6),
    (("Z^2 + C4", "Z^2"), 2, 8),
], ids=["rank-1", "rank-2"])
def test_chain_measures_no_identity_or_relabel_step(monkeypatch, pair, finished, built):
    # a side with k >= 2 measures 1 witness (its one stage, which builds
    # no space between the ball times the tower and the middle space, and
    # no tower of the multiplier's points) and the end 1; relabels and
    # inverses are tables, not witnesses. A side with k = 1 is the middle
    # space, so no other start space is built
    witnesses, spaces = [], []
    finish, store = witness_mod._finish, FiniteSpace._store

    def recording_finish(*args, **kwargs):
        witnesses.append(finish(*args, **kwargs))
        return witnesses[-1]

    def recording_store(self, *args, **kwargs):
        spaces.append(self)
        return store(self, *args, **kwargs)

    monkeypatch.setattr(witness_mod, "_finish", recording_finish)
    monkeypatch.setattr(FiniteSpace, "_store", recording_store)
    cli_chain(iso_verdict(*pair), radius=16)
    assert (len(witnesses), len(spaces)) == (finished, built)
    for w in witnesses:
        assert not (w.source == w.target and np.array_equal(w.src, w.dst)), w


def test_a_witness_job_checks_no_row_it_built(monkeypatch, capsys):
    # every space of the chain comes from a builder, which stores its rows
    # as given; only labels handed to the public constructor are checked
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for owner, name in [(spaces_mod.SupRule, "checked_coords"),
                        (spaces_mod.PlaneRule, "checked_coords"),
                        (spaces_mod, "_has_equal_rows")]:
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    code = cli.main(["witness", "Z + C12", "Z + C3", "--radius", "70"])
    assert code == 0 and json.loads(capsys.readouterr().out)["verification"]["ok"]
    assert calls == []
    # the recorders see the checks of a hand-given space
    FiniteSpace([(0,), (1,)], spaces_mod.SupRule.group_ball(1), 0, 1)
    assert calls == ["checked_coords", "_has_equal_rows"]


def test_rank_zero_chain_aligns_one_tower_with_itself(monkeypatch):
    # n = m = 1 at rank 0 and the profiles are equal, so the chain builds
    # the canonical tower once and measures one witness on it
    spaces, store = [], FiniteSpace._store

    def recording_store(self, *args, **kwargs):
        spaces.append(self)
        return store(self, *args, **kwargs)

    monkeypatch.setattr(FiniteSpace, "_store", recording_store)
    w = cli_chain(iso_verdict("C2^inf", "C4^inf"), depth=12)
    assert len(spaces) == 1 and len(spaces[0]) == 4096
    assert w.source is w.target and np.array_equal(w.src, w.dst)


@pytest.mark.parametrize("pair", [
    ("C8 + C101", "C8 + C101"), ("Z + C101", "Z + C101"),
    ("Z + C2 + C101", "Z + C101"), ("Z^2 + C4 + C101", "Z^2 + C101"),
], ids=["rank-0", "rank-1", "rank-1-absorbing", "rank-2-absorbing"])
@pytest.mark.parametrize("bound", [97, 101])
def test_chain_stays_below_the_first_summand_the_bound_drops(pair, bound):
    g1, g2 = map(parse_group, pair)
    verdict = coarse_isomorphic(g1, g2)
    n = verdict.multipliers[0] if verdict.multipliers else 1
    remainder = ff_sub(verdict.invariants[0].phi, phi_of_nat(n))
    depth = 4
    # the remainder's towers without a bound: the first summand above the
    # bound, i + 2 in level, is where a bounded tower stops being faithful
    unbounded = enumerate_summands(remainder, depth + 1, 10**6)
    above = [i for i, p in enumerate(unbounded) if p > bound]
    if above:
        horizon = above[0] + 1
    else:
        horizon = math.inf if len(unbounded) <= depth else depth + 1
    assert (horizon < math.inf) == (bound < 101)
    if bound < 101 and n > 1:
        # the bounded remainder is faithful to 1, and the line's stages
        # leave nothing of it: a witness valid to 0 is refused
        with pytest.raises(ValueError, match=r"valid only to 0: .* remainder tower is faithful "
                                             r"to 1 under prime bound 97 \(--prime-bound\)"):
            cli_chain(verdict, depth=depth, prime_bound=bound)
        return
    w = cli_chain(verdict, depth=depth, prime_bound=bound)
    assert w.validity_radius <= horizon
    assert verify_witness(w).ok


class TestCombinators:
    def test_compose_identities(self):
        sp = tower_space([2, 3])
        w = compose_witness(identity_witness(sp), identity_witness(sp), ())
        assert w.table == identity_witness(sp).table
        assert verify_witness(w).ok

    def test_compose_needs_matching_interface(self):
        with pytest.raises(ValueError):
            compose_witness(identity_witness(zball(2)), identity_witness(zball(3)), ())

    def test_compose_validity_shrinks_to_reachable(self):
        f = absorption_witness(2, 10)
        g = invert_witness(f)
        round_trip = compose_witness(f, g, ())
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


class TestChain:
    def test_absorbing_one_torsion_summand(self):
        w = cli_chain(iso_verdict("Z + C2", "Z"))
        assert len(w) == 46
        assert w.validity_radius == 11.0
        assert verify_witness(w).ok

    def test_rank_zero_tower_route(self):
        w = cli_chain(iso_verdict("C2^inf", "C2^inf + C4"))
        assert len(w) == 16
        assert w.validity_radius == 5.0
        assert verify_witness(w).ok

    def test_multiplier_on_the_right(self):
        w = cli_chain(iso_verdict("Z + C2^inf", "Z + C2^inf + C3"))
        assert len(w) == 28
        assert w.validity_radius == 3.0
        assert verify_witness(w).ok

    def test_rank_two_self_chain(self):
        w = cli_chain(iso_verdict("Z^2 + C6", "Z^2 + C6"), radius=6)
        assert len(w) == 1014
        assert w.validity_radius == 6.0
        assert verify_witness(w).ok

    @pytest.mark.parametrize("pair,case", [
        (("Z", "Z^2"), "rank-mismatch"), (("C2^inf", "C3^inf"), "case-2-phi-mismatch"),
    ])
    def test_rejects_non_isomorphic(self, pair, case):
        # the text the CLI prints for a false verdict, after "error: "
        with pytest.raises(ValueError) as refused:
            cli_chain(iso_verdict(*pair))
        assert str(refused.value) == f"groups are not coarsely isomorphic ({case})"

    @pytest.mark.parametrize("pair", [("Z + C2", "Z"), ("Z", "Z^2")], ids=["true", "false"])
    def test_rejects_an_equivalence_verdict(self, pair):
        # a coarse equivalence, true or false, fixes no multipliers
        with pytest.raises(ValueError) as refused:
            cli_chain(coarse_equivalent(*map(parse_group, pair)))
        assert str(refused.value) == "a coarse equivalence verdict names no isomorphism"

    def test_rejects_infinite_rank(self):
        with pytest.raises(ValueError, match="infinite rank"):
            cli_chain(iso_verdict("Z^inf", "Z^inf"))

    def test_larger_radius_grows_validity(self):
        small = cli_chain(iso_verdict("Z + C2", "Z"), radius=24)
        big = cli_chain(iso_verdict("Z + C2", "Z"), radius=60)
        assert big.validity_radius > small.validity_radius
        assert verify_witness(big).ok

    @pytest.mark.parametrize("kwargs,message", [
        ({"radius": -1}, "radius must be >= 0"),
        ({"depth": -1}, "depth must be >= 0"),
        ({"deltas": (1.0, math.nan)}, "delta must be >= 0, got nan"),
        ({"deltas": (-1,)}, "delta must be >= 0, got -1.0"),
    ], ids=["radius", "depth", "nan-delta", "negative-delta"])
    @pytest.mark.parametrize("pair", [("Z + C2", "Z"), ("C2", "C2")], ids=["rank-1", "rank-0"])
    def test_rejects_out_of_range_arguments(self, pair, kwargs, message):
        with pytest.raises(ValueError, match=message):
            cli_chain(iso_verdict(*pair), **kwargs)

    @pytest.mark.parametrize("pair", [
        ("Z + C2", "Z"), ("Z^2 + C4", "Z^2"), ("C2^inf", "C4^inf"),
    ], ids=["rank-1", "rank-2", "rank-0"])
    def test_every_built_space_keeps_the_point_budget(self, monkeypatch, pair):
        sizes = []
        store = FiniteSpace._store

        def recording(self, coords, *args, **kwargs):
            sizes.append(len(coords))
            return store(self, coords, *args, **kwargs)

        monkeypatch.setattr(FiniteSpace, "_store", recording)
        v = iso_verdict(*pair)
        w = cli_chain(v, radius=12, depth=3)
        largest = max(sizes)
        monkeypatch.setattr(FiniteSpace, "_store", store)
        within = cli_chain(v, radius=12, depth=3, point_budget=largest)
        assert within.to_json() == w.to_json()
        with pytest.raises(BudgetError, match=f"{largest} points exceed the budget"):
            cli_chain(v, radius=12, depth=3, point_budget=largest - 1)


@pytest.mark.parametrize("pair", [
    ("Z + C2", "Z"), ("Z", "Z + C2"), ("Z + C12", "Z + C3"), ("Z^2 + C4", "Z^2"),
    ("Z^2 + C2", "Z^2 + C4"), ("Z + C2^inf", "Z + C2^inf + C3"), ("C2^inf", "C4^inf"),
])
def test_chain_passes_its_point_budget_to_every_builder(monkeypatch, pair):
    seen = []

    def recording(name):
        fn = getattr(witness_mod, name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            seen.append((name, signature.bind(*args, **kwargs).arguments.get("point_budget")))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("zball", "tower_space", "product_space", "canonical_ultrametric"):
        monkeypatch.setattr(witness_mod, name, recording(name))
    v = iso_verdict(*pair)
    cli_chain(v, radius=12, depth=3, point_budget=10**5)
    # every chain builds its remainder tower; at positive rank the sides
    # build their own towers too
    builders = {"canonical_ultrametric"}
    if v.invariants[0].r != 0:
        builders.add("tower_space")
    assert {name for name, _ in seen} >= builders
    assert [budget for _, budget in seen] == [10**5] * len(seen)


@pytest.mark.parametrize("deltas", [(math.nan,), (2.0, -0.5)], ids=["nan", "negative"])
def test_bad_scales_are_rejected_before_measuring(deltas):
    sp, same = zball(3), np.arange(7)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        witness_mod._finish(witness_mod._stage(sp, sp, same, same, "identity"), (), deltas)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        verify_witness(identity_witness(sp), deltas)


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


def _table_witness(source, target, src, dst, claims=(), validity=2.0):
    """A witness of the table with no recorded moduli, so verify_witness
    checks no scale, and only the table and the claims can be at fault."""
    return WitnessMap(source, target, {}, {}, validity, claims, src=src, dst=dst)


@pytest.mark.parametrize("make, violation", [
    (lambda: _table_witness(zball(2), zball(2), range(5), range(5),
                            ({"kind": "per-component-isometry", "epsilon": 0},)),
     "per-component-isometry claim on a non-product source"),
    (lambda: _table_witness(zball(2), zball(3), [0, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5]),
     "table maps a source point twice"),
    (lambda: _table_witness(zball(2), zball(2), range(5), range(5), ({"kind": "spiral"},)),
     "unknown claim kind 'spiral'"),
], ids=["isometry-on-no-product", "source-twice", "unknown-claim"])
def test_every_violation_of_a_given_witness(make, violation):
    report = verify_witness(make())
    assert not report.ok and report.violations == (violation,)


def _tower_rows(orders, row):
    """A hand-built tower space of the zero row and row, too large to
    build whole."""
    rule = SupRule.tower(orders, range(2, len(orders) + 2))
    return FiniteSpace([[0] * len(orders), row], rule, 0, len(orders) + 1)


@pytest.mark.parametrize("make, error, message", [
    (lambda: tower_alignment_witness(tower_space([2, 2]), subspace(tower_space([4]), [0, 1, 2])),
     ValueError, "alignment: a rank has no point in the second tower"),
    (lambda: relabel_witness(zball(2), tower_space([2])), ValueError,
     "relabel: no target point for label (-2,)"),
    # labels of another width match no target row
    (lambda: relabel_witness(zball(1), zball(1, 2)), ValueError,
     "relabel: no target point for label (-1,)"),
    # the one entry, label (-1, 0), lies 1 from the basepoint, outside radius 0
    (lambda: component_multiplicity(_table_witness(
        product_space(zball(1), tower_space([2])), zball(1), [0], [0], validity=0.0), 1),
     ValueError, "no table entries inside the validity region"),
    # TowerAlignment is a public record: here its second tower holds 3, not 2 x 2
    (lambda: dataclasses.replace(
        tower_alignment_witness(tower_space([2, 2]), tower_space([4], levels=[2])),
        v_orders=(3,)).modulus(2.0),
     ValueError, "tower does not absorb the requested ball"),
    # ranks past int64: (0, ..., 0, 1, 2) in a [3] * 40 tower has rank 7 * 3^38,
    # whose true image (0, ..., 0, 7) the [9] * 20 tower holds; a wrapped rank
    # would find no point there. A [2] * 64 tower would overflow on conversion
    (lambda: tower_alignment_witness(_tower_rows([3] * 40, [0] * 38 + [1, 2]),
                                     _tower_rows([9] * 20, [0] * 19 + [7])),
     ValueError, f"alignment: the towers' order product {3 ** 40} passes 2^63 - 1"),
    (lambda: tower_alignment_witness(_tower_rows([2] * 64, [0] * 63 + [1]),
                                     _tower_rows([2] * 64, [0] * 63 + [1])),
     ValueError, f"alignment: the towers' order product {2 ** 64} passes 2^63 - 1"),
    # an absorption's multiplier and radius are ints, never truncated: 2.5
    # folded by 2, and a radius of 4.7 gave the ball of radius 4
    (lambda: absorption_witness(2.5, 4), TypeError, "k must be an int, got 2.5"),
    (lambda: absorption_witness(2, 4.7), TypeError, "radius must be an int, got 4.7"),
    (lambda: absorption_witness(True, 4), TypeError, "k must be an int, got True"),
    (lambda: absorption_witness(2, False), TypeError, "radius must be an int, got False"),
    (lambda: absorption_witness(2, "4"), TypeError, "radius must be an int, got '4'"),
], ids=["alignment-rank-missing", "relabel-label-missing", "relabel-width", "no-entries",
        "modulus-other-prime", "alignment-rank-past-int64", "alignment-order-past-int64",
        "absorption-k-float", "absorption-radius-float", "absorption-k-bool",
        "absorption-radius-bool", "absorption-radius-str"])
def test_every_refusal_of_outside_input(make, error, message):
    with pytest.raises(error) as refused:
        make()
    assert type(refused.value) is error and str(refused.value) == message
