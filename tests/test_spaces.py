"""Space builders, components, quotients, and their metric axioms."""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarseiso.factorfn import FactorFunction
from coarseiso.groups import parse_group
from coarseiso.spaces import (
    BudgetError,
    FiniteSpace,
    PlaneRule,
    TableRule,
    build_truncation,
    canonical_ultrametric,
    cantor_cube_truncation,
    enumerate_summands,
    epsilon_components,
    example31_fixture,
    k_point_space,
    make_schedule,
    plane_edges,
    product_space,
    quotient_space,
    quotient_with_projection,
    subspace,
    tower_space,
    validate_metric,
    zball,
)
from coarseiso.witness import space_id


def ff(values, default=0):
    return FactorFunction.from_dict(values, default)


def dist_values(space):
    return sorted(set(np.asarray(space.dmat()).ravel().tolist()))


def threshold_blocks(m, eps):
    """Components of the all-pairs graph with edges d <= eps, by
    breadth-first search over the dense matrix; blocks ordered by their
    minimal index."""
    owner = np.full(len(m), -1)
    for s in range(len(m)):
        if owner[s] < 0:
            owner[s] = s
            frontier = np.array([s])
            while len(frontier):
                frontier = np.flatnonzero((m[frontier] <= eps).any(axis=0) & (owner < 0))
                owner[frontier] = s
    return tuple(tuple(np.flatnonzero(owner == s).tolist()) for s in np.unique(owner))


def plane_cloud(points):
    """Plane space on distinct points, None when they are collinear."""
    labels = sorted((x / 4, y / 4) for x, y in points)
    if np.linalg.matrix_rank(np.asarray(labels) - labels[0]) < 2:
        return None
    return FiniteSpace(labels, PlaneRule(), 0, 0)


plane_spaces = st.one_of(
    st.tuples(st.integers(1, 3), st.sampled_from([0.1, 0.25, 0.5])).map(
        lambda t: example31_fixture(t[0], t[1], 5)
    ),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=3, max_size=60,
             unique=True).map(plane_cloud).filter(lambda sp: sp is not None),
)


def unstructured(sp):
    """Copy of a space that must take the graph path for its components."""
    return FiniteSpace(sp.labels, sp.rule, sp.basepoint, sp.inner_radius,
                       sp.ultrametric, structural=False)


class TestSchedules:
    def test_default_interleaves_doubling_levels(self):
        got = make_schedule(parse_group("Z + C2^inf"), 8)
        assert got == [("Z", 1), (2, 2), (2, 4), (2, 8)]

    def test_finite_multiplicity_exhausts(self):
        got = make_schedule(parse_group("C6"), 32)
        assert got == [(6, 2)]

    def test_round_robin_across_orders(self):
        got = make_schedule(parse_group("C2^inf + C3^inf"), 16)
        assert got == [(2, 2), (3, 4), (2, 8), (3, 16)]

    def test_infinite_rank_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(parse_group("Z^inf"), 8)


class TestBuilders:
    def test_zball_is_the_interval(self):
        sp = zball(3)
        assert len(sp) == 7
        assert sp.labels[sp.basepoint] == (0,)
        assert sp.d(sp.index[(-3,)], sp.index[(3,)]) == 6
        validate_metric(sp)

    def test_zball_rank_two_sup_metric(self):
        sp = zball(2, rank=2)
        assert len(sp) == 25
        assert sp.d(sp.index[(0, 0)], sp.index[(2, -1)]) == 2

    def test_tower_distances_are_levels(self):
        # two cyclic coordinates at levels 2 and 3
        sp = tower_space([2, 2])
        assert dist_values(sp) == [0.0, 2.0, 3.0]
        assert sp.inner_radius == 3
        validate_metric(sp)

    def test_truncation_levels_follow_schedule(self):
        sp = build_truncation(parse_group("C2 + C2"), radius=4)
        assert len(sp) == 4
        assert dist_values(sp) == [0.0, 2.0, 4.0]

    def test_truncation_mixed_free_and_torsion(self):
        sp = build_truncation(parse_group("Z + C2"), radius=4)
        # 9 free positions times 2 torsion classes
        assert len(sp) == 18
        a = sp.index[(0, 0)]
        b = sp.index[(3, 1)]
        assert sp.d(a, b) == 3  # sup of the free offset 3 and the level-2 flip
        assert sp.d(a, sp.index[(0, 1)]) == 2
        validate_metric(sp)

    def test_canonical_ultrametric_frozen_example(self):
        sp = canonical_ultrametric(ff({2: 2, 3: 1}), 3)
        assert len(sp) == 12
        assert sp.rule.descriptor() == {
            "kind": "tower", "orders": [2, 2, 3], "levels": [2, 3, 4],
        }
        # depth 3 exhausts the profile: the model is the whole group
        assert math.isinf(sp.inner_radius)
        assert dist_values(sp) == [0.0, 2.0, 3.0, 4.0]

    def test_canonical_ultrametric_partial_depth_keeps_horizon(self):
        sp = canonical_ultrametric(ff({2: 2, 3: 1}, default=1), 3)
        assert sp.rule.descriptor()["orders"] == [2, 2, 3]
        assert sp.inner_radius == 4

    def test_summand_enumeration_groups_primes_ascending(self):
        assert enumerate_summands(ff({2: 2, 3: 2}), 4) == [2, 2, 3, 3]
        assert enumerate_summands(ff({2: 1, 3: 2, 5: 1}), 4) == [2, 3, 3, 5]
        assert enumerate_summands(ff({2: 2, 3: 1}, default=1), 5) == [2, 2, 3, 5, 7]
        assert enumerate_summands(ff({2: 2}), 0) == []

    def test_summand_enumeration_stops_at_the_profile(self):
        # asking deeper than the profile carries returns the whole profile
        assert enumerate_summands(ff({2: 2, 3: 1}), 6) == [2, 2, 3]
        assert enumerate_summands(ff({101: 2}), 4) == []  # above the bound

    def test_summand_enumeration_staged_diagonal(self):
        # finite exponents drain stage by stage, primes ascending
        assert enumerate_summands(ff({2: 2, 5: 1, 7: 2}), 7) == [2, 2, 5, 7, 7]
        # an infinite exponent keeps recurring without starving later primes
        assert enumerate_summands(ff({2: 2, 3: 1}, default=1), 5) == [2, 2, 3, 5, 7]
        from coarseiso.extnat import INF

        assert enumerate_summands(ff({2: INF, 3: 1}), 4) == [2, 2, 3, 2]

    def test_cantor_cube(self):
        sp = cantor_cube_truncation(4)
        assert len(sp) == 16
        assert sp.inner_radius == 16
        e = sp.index[(0, 0, 0, 0)]
        for i in range(4):
            lab = tuple(1 if j == i else 0 for j in range(4))
            assert sp.d(e, sp.index[lab]) == 2 ** (i + 1)

    def test_k_point_space(self):
        sp = k_point_space(3)
        assert dist_values(sp) == [0.0, 1.0]
        assert math.isinf(sp.inner_radius)
        single = k_point_space(1)
        assert len(single) == 1 and math.isinf(single.inner_radius)

    def test_point_budget_enforced(self):
        with pytest.raises(BudgetError):
            zball(100, rank=3, point_budget=10**5)
        with pytest.raises(BudgetError):
            build_truncation(parse_group("Z^2"), radius=600, point_budget=10**6)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FiniteSpace([(0,), (0,)], zball(1).rule, 0, 1)


class TestExample31:
    def test_two_branch_sample(self):
        sp = example31_fixture(1, 0.5, 3)
        assert len(sp) == 10
        assert sp.labels[sp.basepoint] == (0.0, 0.0)
        assert not sp.ultrametric
        validate_metric(sp)

    def test_branches_offset_by_two_pi(self):
        sp = example31_fixture(1, 0.5, 3)
        xs = sorted(l[0] for l in sp.labels)
        assert xs[5] - xs[0] == pytest.approx(2 * math.pi, abs=1e-4)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            example31_fixture(0, 0.5, 3)
        with pytest.raises(ValueError):
            example31_fixture(1, -0.1, 3)


class TestComponents:
    def test_gap_splits_the_line(self):
        zb = zball(11)
        line = subspace(zb, [zb.index[(v,)] for v in (0, 1, 2, 10, 11)])
        part = epsilon_components(line, 1)
        got = [[line.labels[i][0] for i in b] for b in part.blocks]
        assert got == [[0, 1, 2], [10, 11]]

    def test_representative_is_min_index(self):
        part = epsilon_components(tower_space([2, 3]), 2)
        assert part.blocks == ((0, 3), (1, 4), (2, 5))
        assert part.representatives == (0, 1, 2)

    def test_point_block_consistent(self):
        sp = tower_space([2, 2, 2])
        part = epsilon_components(sp, 2)
        for b, blk in enumerate(part.blocks):
            for i in blk:
                assert part.point_block[i] == b

    def test_extremes(self):
        sp = tower_space([2, 3])
        assert epsilon_components(sp, 0).count == len(sp)
        assert epsilon_components(sp, 3).count == 1

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            epsilon_components(zball(2), -1)

    @settings(max_examples=40, deadline=None)
    @given(plane_spaces, st.sampled_from([0.05, 0.3, 0.5, 1.0, 2.0, 4.0]))
    def test_matches_graph_search_on_plane(self, sp, eps):
        # Delaunay-edge components against the all-pairs threshold graph
        assert epsilon_components(sp, eps).blocks == threshold_blocks(sp.dmat(), eps)

    def test_graph_path_over_several_row_blocks(self):
        # ~3000 points: the graph path reads its distance rows in blocks,
        # and runs of the line must join across block boundaries
        zb = zball(1500)
        line = subspace(zb, [i for i, (v,) in enumerate(zb.labels) if (v + 48) % 97])
        assert not line.structural
        run = [(v + 48) // 97 for (v,) in line.labels]
        want = tuple(tuple(i for i, k in enumerate(run) if k == r) for r in sorted(set(run)))
        assert epsilon_components(line, 1).blocks == want

    def test_plane_edges_freed_with_their_space(self):
        sp = example31_fixture(2, 0.25, 5)
        epsilon_components(sp, 1.0)
        ref = weakref.ref(plane_edges(sp)[2])
        del sp
        gc.collect()
        assert ref() is None


class TestSubspace:
    def test_induced_distances(self):
        zb = zball(5)
        sub = subspace(zb, [zb.index[(v,)] for v in (-5, 0, 4)])
        assert sub.d(0, 2) == 9
        assert sub.labels == ((-5,), (0,), (4,))

    def test_basepoint_must_belong(self):
        zb = zball(5)
        with pytest.raises(ValueError):
            subspace(zb, [zb.index[(v,)] for v in (1, 2)])

    def test_box_subsets_drop_the_shortcut(self):
        zb = zball(5)
        assert zb.structural
        assert not subspace(zb, [zb.index[(v,)] for v in (0, 1)]).structural

    def test_ultrametric_subsets_keep_it(self):
        t = tower_space([2, 2, 3])
        sub = subspace(t, [0, 1, 5, 7], basepoint=0)
        assert sub.structural
        got = [[sub.labels[i] for i in b] for b in epsilon_components(sub, 2).blocks]
        assert got == [[(0, 0, 0)], [(0, 0, 1), (1, 0, 1)], [(0, 1, 2)]]


class TestQuotient:
    def test_tower_quotient_drops_low_levels(self):
        q, part = quotient_with_projection(tower_space([2, 3]), 2)
        assert q.rule.descriptor() == {"kind": "tower", "orders": [3], "levels": [3]}
        assert q.labels == ((0,), (1,), (2,))
        assert part.blocks == ((0, 3), (1, 4), (2, 5))

    def test_group_ball_quotient_collapses_free_part(self):
        sp = build_truncation(parse_group("Z + C2"), radius=4)
        q = quotient_space(sp, 1)
        assert len(q) == 2
        assert q.d(0, 1) == 2

    def test_generic_quotient_single_linkage(self):
        zb = zball(11)
        line = subspace(zb, [zb.index[(v,)] for v in (0, 1, 2, 10, 11)])
        q = quotient_space(line, 1)
        assert len(q) == 2
        assert q.d(0, 1) == 8.0  # least gap between the two chains
        assert q.ultrametric

    def test_plane_quotient_is_ultrametric_table(self):
        sp = example31_fixture(1, 0.5, 3)
        q = quotient_space(sp, 1.0)
        assert isinstance(q.rule, TableRule)
        assert q.ultrametric
        validate_metric(q)

    def test_quotient_below_the_free_scale_keeps_every_point(self):
        sp = build_truncation(parse_group("Z + C2"), radius=2)
        q, part = quotient_with_projection(sp, 0.5)
        assert isinstance(q.rule, TableRule)
        assert part.count == len(sp)
        assert dist_values(q) == [0.0, 1.0, 2.0]  # single-linkage heights

    def test_coinciding_product_levels_take_the_generic_path(self):
        # two factors with a cyclic coordinate at level 3 each: no tower
        p = product_space(tower_space([2], levels=[3]), tower_space([3], levels=[3]))
        q, part = quotient_with_projection(p, 1)
        assert isinstance(q.rule, TableRule)
        assert part.count == len(p)
        assert np.array_equal(q.dmat(), p.dmat())

    def test_quotient_distances_exceed_epsilon(self):
        q = quotient_space(tower_space([2, 2, 3]), 2)
        vals = [v for v in dist_values(q) if v > 0]
        assert vals and min(vals) > 2


class TestProduct:
    def test_sup_metric(self):
        # two 2-point spaces with gaps 1 and 3
        a = tower_space([2], levels=[1])
        b = tower_space([2], levels=[3])
        p = product_space(a, b)
        assert dist_values(p) == [0.0, 1.0, 3.0]

    def test_basepoint_pairs(self):
        p = product_space(zball(2), tower_space([3]))
        assert p.labels[p.basepoint] == (0, 0)

    def test_component_projection(self):
        # components of a product at eps below the right factor's scale are
        # left-component times point
        p = product_space(zball(3), tower_space([2], levels=[5]))
        part = epsilon_components(p, 1)
        assert part.count == 2
        for blk in part.blocks:
            rights = {p.labels[i][-1] for i in blk}
            assert len(rights) == 1

    def test_table_factors_rejected(self):
        q = quotient_space(example31_fixture(1, 0.5, 3), 1.0)
        with pytest.raises(ValueError):
            product_space(q, zball(2))

    def test_budget(self):
        with pytest.raises(BudgetError):
            product_space(zball(1000), zball(1000), point_budget=10**6)


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: zball(4),
        lambda: tower_space([2, 3]),
        lambda: build_truncation(parse_group("Z + C2"), radius=4),
        lambda: product_space(zball(2), tower_space([2])),
    ])
    def test_round_trip(self, make):
        sp = make()
        back = FiniteSpace.from_json(sp.to_json())
        assert back == sp
        assert back.ultrametric == sp.ultrametric
        assert back.inner_radius == sp.inner_radius
        assert np.array_equal(back.dmat(), sp.dmat())

    def test_structural_flag_survives(self):
        zb = zball(5)
        sub = subspace(zb, [zb.index[(v,)] for v in (0, 1, 4)])
        back = FiniteSpace.from_json(sub.to_json())
        assert not back.structural
        assert epsilon_components(back, 1).count == 2

    def test_table_round_trip(self):
        q = quotient_space(example31_fixture(1, 0.5, 3), 1.0)
        back = FiniteSpace.from_json(q.to_json())
        assert np.allclose(back.dmat(), q.dmat())
        assert back.rule.is_ultrametric == q.rule.is_ultrametric

    def test_product_split_must_match_left_width(self):
        # a split off the left factor's width would read the wrong columns
        sp = product_space(tower_space([2]), tower_space([2], levels=[3]))
        payload = json.loads(sp.to_json())
        for split in (0, 2):
            payload["rule"]["split"] = split
            with pytest.raises(ValueError, match="split"):
                FiniteSpace.from_json(json.dumps(payload))

    def test_label_width_must_match_rule(self):
        # the column kernel would ignore an extra coordinate
        for rank, labels in ((1, [[-1, 0], [0, 0], [1, 0]]), (2, [[v] for v in range(9)])):
            payload = json.loads(zball(1, rank).to_json())
            payload["labels"] = labels
            with pytest.raises(ValueError, match="width"):
                FiniteSpace.from_json(json.dumps(payload))

    def test_table_size_must_match_points(self):
        payload = json.loads(quotient_space(example31_fixture(1, 0.5, 3), 1.0).to_json())
        payload["labels"] = payload["labels"][:-1]
        with pytest.raises(ValueError, match="table size"):
            FiniteSpace.from_json(json.dumps(payload))

    def test_version_guard(self):
        payload = json.loads(zball(1).to_json())
        payload["version"] = 2
        with pytest.raises(ValueError):
            FiniteSpace.from_json(json.dumps(payload))


# randomized properties

small_towers = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=4
).map(tower_space)


@given(small_towers)
def test_tower_metric_axioms(sp):
    validate_metric(sp)


@given(small_towers, st.floats(min_value=0, max_value=6))
def test_components_refine_under_smaller_epsilon(sp, eps):
    fine = epsilon_components(sp, eps)
    coarse = epsilon_components(sp, eps + 1)
    for blk in fine.blocks:
        owners = {int(coarse.point_block[i]) for i in blk}
        assert len(owners) == 1


@given(small_towers, st.integers(min_value=1, max_value=5))
def test_quotient_block_count_matches_partition(sp, eps):
    q, part = quotient_with_projection(sp, eps)
    assert len(q) == part.count
    validate_metric(q)


@settings(max_examples=30)
@given(small_towers)
def test_serialization_round_trip_random(sp):
    assert FiniteSpace.from_json(sp.to_json()) == sp


rule_spaces = st.one_of(
    small_towers,
    st.tuples(st.integers(1, 4), st.integers(1, 2)).map(lambda t: zball(*t)),
    st.sampled_from(["Z + C2", "Z + C3 + C2", "Z^2 + C2", "C2^inf + C3"]).map(
        lambda g: build_truncation(parse_group(g), radius=4)
    ),
    st.tuples(
        st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tower_space),
        st.integers(1, 3),
    ).map(lambda t: product_space(t[0], zball(t[1]))),
)


@settings(max_examples=40, deadline=None)
@given(rule_spaces, st.sampled_from([0, 0.5, 1, 2, 3, 4, 5]))
def test_structural_keys_match_graph_components(sp, eps):
    assert sp.structural
    keyed = epsilon_components(sp, eps)
    graph = epsilon_components(unstructured(sp), eps)
    assert keyed.blocks == graph.blocks == threshold_blocks(sp.dmat(), eps)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.data())
def test_generic_quotient_matches_single_linkage(rank, eps, data):
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    zb = zball(6 if rank == 1 else 3, rank)
    picked = data.draw(st.sets(st.integers(0, len(zb) - 1), min_size=1))
    sub = subspace(zb, sorted(picked | {zb.basepoint}))
    assume(len(sub) >= 2 and not sub.structural)
    q, part = quotient_with_projection(sub, eps)
    coph = squareform(cophenet(linkage(squareform(sub.dmat()), "single")))
    same_block = part.point_block[:, None] == part.point_block[None, :]
    assert np.array_equal(coph <= eps, same_block)
    reps = list(part.representatives)
    assert np.array_equal(q.dmat(), coph[np.ix_(reps, reps)])


# pinned serialized form and space id of every constructor: witnesses name
# their spaces by these ids, and saved spaces must load unchanged
_zb3 = zball(3)
GOLDEN = {
    "zball": lambda: zball(1),
    "zball-rank2": lambda: zball(1, rank=2),
    "truncation": lambda: build_truncation(parse_group("Z + C2 + C3"), radius=2),
    "tower": lambda: tower_space([2, 3]),
    "canonical-full": lambda: canonical_ultrametric(ff({2: 1, 3: 1}), 2),
    "canonical-partial": lambda: canonical_ultrametric(ff({2: 5}), 2),
    "k-point": lambda: k_point_space(3),
    "one-point": lambda: k_point_space(1),
    "cantor": lambda: cantor_cube_truncation(2),
    "product-left": lambda: product_space(
        product_space(zball(1), tower_space([2])), k_point_space(2)),
    "product-right": lambda: product_space(
        zball(1), product_space(tower_space([2]), k_point_space(2))),
    "subspace": lambda: subspace(_zb3, [_zb3.index[(v,)] for v in (-1, 0, 2)]),
    "quotient": lambda: quotient_space(build_truncation(parse_group("Z + C2 + C3"), radius=4), 1),
}
GOLDEN_JSON = {
    "zball": (
        '{"version": 1, "basepoint": 1, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1], [0], [1]], "rule": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}}',
        "group-ball-3-9b5500d2b3cb",
    ),
    "zball-rank2": (
        '{"version": 1, "basepoint": 4, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 0], [0, 1], [1, -1], [1, 0], [1, 1]], "rule": {"kind": "group-ball", "free_rank": 2, "cyclic_orders": [], "cyclic_levels": []}}',
        "group-ball-9-37cdf98ad8de",
    ),
    "truncation": (
        '{"version": 1, "basepoint": 4, "inner_radius": 2, "ultrametric": false, "structural": true, "labels": [[-2, 0], [-2, 1], [-1, 0], [-1, 1], [0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]], "rule": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [2], "cyclic_levels": [2]}}',
        "group-ball-10-ebbdc389c576",
    ),
    "tower": (
        '{"version": 1, "basepoint": 0, "inner_radius": 3, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]], "rule": {"kind": "tower", "orders": [2, 3], "levels": [2, 3]}}',
        "tower-6-b578561dd7ea",
    ),
    "canonical-full": (
        '{"version": 1, "basepoint": 0, "inner_radius": "inf", "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]], "rule": {"kind": "tower", "orders": [2, 3], "levels": [2, 3]}}',
        "tower-6-b578561dd7ea",
    ),
    "canonical-partial": (
        '{"version": 1, "basepoint": 0, "inner_radius": 3, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [1, 0], [1, 1]], "rule": {"kind": "tower", "orders": [2, 2], "levels": [2, 3]}}',
        "tower-4-9960663098e4",
    ),
    "k-point": (
        '{"version": 1, "basepoint": 0, "inner_radius": "inf", "ultrametric": true, "structural": true, "labels": [[0], [1], [2]], "rule": {"kind": "tower", "orders": [3], "levels": [1]}}',
        "tower-3-aaea608467e3",
    ),
    "one-point": (
        '{"version": 1, "basepoint": 0, "inner_radius": "inf", "ultrametric": true, "structural": true, "labels": [[]], "rule": {"kind": "tower", "orders": [], "levels": []}}',
        "tower-1-39cf22dcb8a9",
    ),
    "cantor": (
        '{"version": 1, "basepoint": 0, "inner_radius": 4, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [1, 0], [1, 1]], "rule": {"kind": "tower", "orders": [2, 2], "levels": [2, 4]}}',
        "tower-4-a8864b4e50e7",
    ),
    "product-left": (
        '{"version": 1, "basepoint": 4, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1, 0, 0], [-1, 0, 1], [-1, 1, 0], [-1, 1, 1], [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], "rule": {"kind": "product", "split": 2, "left": {"kind": "product", "split": 1, "left": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}, "right": {"kind": "tower", "orders": [2], "levels": [2]}}, "right": {"kind": "tower", "orders": [2], "levels": [1]}}}',
        "product-12-08cb647bc024",
    ),
    "product-right": (
        '{"version": 1, "basepoint": 4, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1, 0, 0], [-1, 0, 1], [-1, 1, 0], [-1, 1, 1], [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], "rule": {"kind": "product", "split": 1, "left": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}, "right": {"kind": "product", "split": 1, "left": {"kind": "tower", "orders": [2], "levels": [2]}, "right": {"kind": "tower", "orders": [2], "levels": [1]}}}}',
        "product-12-6d6d3f1818cd",
    ),
    "subspace": (
        '{"version": 1, "basepoint": 1, "inner_radius": 3, "ultrametric": false, "structural": false, "labels": [[-1], [0], [2]], "rule": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}}',
        "group-ball-3-edd67b6553e4",
    ),
    "quotient": (
        '{"version": 1, "basepoint": 0, "inner_radius": 4, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]], "rule": {"kind": "tower", "orders": [2, 3], "levels": [2, 4]}}',
        "tower-6-1456dd026f1c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_serialization_is_pinned(name):
    sp = GOLDEN[name]()
    text, ident = GOLDEN_JSON[name]
    assert sp.to_json() == text
    assert space_id(sp) == ident
    assert FiniteSpace.from_json(text) == sp


def _factor(kind, a, b):
    """A small factor space and its coordinates, each ("free", 1) or
    ("cyclic", level), stated independently of the space's rule."""
    if kind == "ball":
        return zball(a, b), [("free", 1)] * b
    if kind == "tower":
        orders = [2 + (a + i) % 2 for i in range(b)]
        return tower_space(orders), [("cyclic", i + 2) for i in range(b)]
    if kind == "levels":
        return tower_space([a + 2], levels=[b + 1]), [("cyclic", b + 1)]
    return k_point_space(a + 1), [] if a == 0 else [("cyclic", 1)]


sup_factors = st.tuples(
    st.sampled_from(["ball", "tower", "levels", "points"]), st.integers(0, 2), st.integers(1, 3)
).map(lambda t: _factor(*t))


def _product(pair):
    (x, cx), (y, cy) = pair
    assume(len(x) * len(y) <= 400)
    return product_space(x, y), cx + cy


nested_products = st.recursive(
    sup_factors, lambda inner: st.tuples(inner, inner).map(_product), max_leaves=4
)


def recount(labels, coords, i, j):
    a, b = labels[i], labels[j]
    d = 0
    for (kind, level), x, y in zip(coords, a, b, strict=True):
        d = max(d, abs(x - y) if kind == "free" else level * (x != y))
    return d


@settings(max_examples=40, deadline=None)
@given(nested_products, st.data())
def test_row_kernel_matches_coordinate_recount(built, data):
    sp, coords = built
    for i in data.draw(st.lists(st.integers(0, len(sp) - 1), min_size=1, max_size=5)):
        want = [recount(sp.labels, coords, i, j) for j in range(len(sp))]
        assert sp.dists_from(i).tolist() == want
        assert [sp.d(i, j) for j in range(len(sp))] == want
    assert FiniteSpace.from_json(sp.to_json()) == sp
