"""Space builders, components, quotients, and their metric axioms."""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import math
import random
import struct
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from coarseiso import plane as plane_mod
from coarseiso import spaces as spaces_mod
from coarseiso.analysis import estimate_factorizing_step
from coarseiso.factorfn import FactorFunction
from coarseiso.groups import GroupDescription, coarse_isomorphic, parse_group
from coarseiso.primes import primes_upto
from coarseiso.spaces import (
    BudgetError,
    FiniteSpace,
    PlaneRule,
    build_truncation,
    canonical_ultrametric,
    enumerate_summands,
    epsilon_components,
    example31_fixture,
    k_point_space,
    make_schedule,
    product_space,
    quotient_with_projection,
    row_blocks,
    subspace,
    tower_space,
    zball,
)
from coarseiso.plane import _connected_labels, _grid_scale, _kruskal_chain, round_decimals
from coarseiso.spaces import _partition_from_keys
from coarseiso.witness import space_id

sys.path.insert(0, str(Path(__file__).resolve().parent))

from dense_rule import as_dense, dense_space  # noqa: E402
from oracles import (  # noqa: E402
    blocks,
    chain_cophenet,
    distance,
    extnat_schedule,
    graph_components,
    index,
    prim_heights,
    single_linkage_cophenet,
    single_linkage_heights,
    stage_summands,
    validate_metric,
)


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


def graph_partition(sp, eps):
    """Components read on the threshold graph (graph_components), whatever
    path the space's rule would take."""
    return _partition_from_keys(eps, graph_components(sp, float(eps)))


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

    def test_schedule_matches_the_loop_over_extnat_counts(self):
        # seeded groups: ranks 0 to 2, up to four orders with finite or
        # infinite multiplicities, radii from 0 past the last level
        rng = random.Random(45)
        for _ in range(500):
            orders = rng.sample([2, 3, 4, 6, 8, 9, 12, 25], rng.randint(0, 4))
            g = GroupDescription(rng.randint(0, 2),
                                 tuple((o, rng.choice([1, 2, 3, 7, math.inf])) for o in orders))
            radius = rng.choice([0, 1, 2, 3, 8, 100, 2**12, 2**40])
            assert make_schedule(g, radius) == extnat_schedule(g, radius)


class TestBuilders:
    def test_zball_is_the_interval(self):
        sp = zball(3)
        assert len(sp) == 7
        assert sp.labels[sp.basepoint] == (0,)
        assert distance(sp, index(sp)[(-3,)], index(sp)[(3,)]) == 6
        validate_metric(sp)

    def test_zball_rank_two_sup_metric(self):
        sp = zball(2, rank=2)
        assert len(sp) == 25
        assert distance(sp, index(sp)[(0, 0)], index(sp)[(2, -1)]) == 2

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
        a = index(sp)[(0, 0)]
        b = index(sp)[(3, 1)]
        assert distance(sp, a, b) == 3  # sup of the free offset 3 and the level-2 flip
        assert distance(sp, a, index(sp)[(0, 1)]) == 2
        validate_metric(sp)

    def test_canonical_ultrametric_frozen_example(self):
        sp = canonical_ultrametric(ff({2: 2, 3: 1}), 3, 97)
        assert len(sp) == 12
        assert sp.rule.descriptor() == {
            "kind": "tower", "orders": [2, 2, 3], "levels": [2, 3, 4],
        }
        # depth 3 exhausts the profile: the model is the whole group
        assert math.isinf(sp.inner_radius)
        assert dist_values(sp) == [0.0, 2.0, 3.0, 4.0]

    def test_canonical_ultrametric_partial_depth_keeps_horizon(self):
        sp = canonical_ultrametric(ff({2: 2, 3: 1}, default=1), 3, 97)
        assert sp.rule.descriptor()["orders"] == [2, 2, 3]
        assert sp.inner_radius == 4

    def test_summand_enumeration_groups_primes_ascending(self):
        assert enumerate_summands(ff({2: 2, 3: 2}), 4, 97) == [2, 2, 3, 3]
        assert enumerate_summands(ff({2: 1, 3: 2, 5: 1}), 4, 97) == [2, 3, 3, 5]
        assert enumerate_summands(ff({2: 2, 3: 1}, default=1), 5, 97) == [2, 2, 3, 5, 7]
        assert enumerate_summands(ff({2: 2}), 0, 97) == []

    def test_summand_enumeration_stops_at_the_profile(self):
        # asking deeper than the profile carries returns the whole profile
        assert enumerate_summands(ff({2: 2, 3: 1}), 6, 97) == [2, 2, 3]
        assert enumerate_summands(ff({101: 2}), 4, 97) == []  # above the bound

    def test_summand_enumeration_past_a_million_stages_is_refused(self):
        # each stage emits a summand of order 2, so the tower would hold
        # 2^(10^6 + 1) points: a BudgetError that names the depth
        with pytest.raises(BudgetError) as refused:
            enumerate_summands(ff({2: math.inf}), 10**6 + 1, 97)
        assert str(refused.value) == "depth 1000001 asks for a tower beyond any point budget"

    def test_support_primes_past_the_first_64_are_walked_up_to_the_bound(self):
        # 313 is the 65th prime: a bound of 1000 keeps it, and C2 + C313 is
        # the whole 626-point group
        sp = canonical_ultrametric(ff({2: 1, 313: 1}), 4, prime_bound=1000)
        assert sp.rule.orders == (2, 313) and len(sp) == 626
        assert math.isinf(sp.inner_radius)
        # a support prime above the bound is dropped: without the bound it
        # is the second summand, at level 3, so the 2 points left are
        # faithful only below it
        for phi, bound in ((ff({2: 1, 101: 1}), 97), (ff({2: 1, 313: 1}), 97)):
            sp = canonical_ultrametric(phi, 4, prime_bound=bound)
            assert sp.rule.orders == (2,) and sp.inner_radius == 2

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0, 1, math.inf]),
        st.dictionaries(st.sampled_from([2, 3, 5, 7, 101, 313, 1009]),
                        st.sampled_from([0, 1, 2, 3, math.inf]), max_size=4),
        st.integers(min_value=0, max_value=8),
        st.sampled_from([2, 5, 97, 1000]),
    )
    @example(math.inf, {2: 1, 101: 1}, 4, 97)
    @example(0, {2: 1, 313: 1}, 4, 97)
    @example(0, {2: 3, 101: 1}, 4, 97)
    @example(0, {2: 2, 3: 1}, 3, 97)
    def test_canonical_tower_is_faithful_up_to_the_bound_s_first_cut(
        self, default, values, depth, bound
    ):
        phi = ff(values, default=default)
        assume(math.prod(enumerate_summands(phi, depth, bound)) <= 20_000)
        sp = canonical_ultrametric(phi, depth, prime_bound=bound)
        # the tower built without the bound, one level deeper
        unbounded = enumerate_summands(phi, depth + 1, 10**6)
        orders = sp.rule.orders
        assert sp.rule.levels == tuple(range(2, len(orders) + 2))
        if math.isinf(sp.inner_radius):
            # the whole finite profile
            assert len(orders) == phi.total_mass
            assert list(orders) == unbounded
            return
        # summand i sits at level i + 2: the same orders at every level up
        # to the inner radius, and a different one (or none) at the next
        r = sp.inner_radius
        assert 1 <= r <= depth + 1
        assert orders[: r - 1] == tuple(unbounded[: r - 1])
        assert orders[r - 1 : r] != tuple(unbounded[r - 1 : r])

    @pytest.mark.parametrize("phi", [
        ff({}, default=1), ff({2: 0}, default=1), ff({2: 0, 3: 0, 5: 0, 7: 0}, default=2),
        ff({2: 3, 3: 0, 11: math.inf}, default=1), ff({5: 0, 313: 4}, default=math.inf),
    ])
    @pytest.mark.parametrize("depth", [1, 4, 9])
    @pytest.mark.parametrize("bound", [2, 5, 97, 1000])
    def test_summands_of_a_positive_default_match_a_walk_of_every_prime(self, phi, depth, bound):
        # the stage walk over every prime up to the bound, which
        # enumerate_summands cuts short without changing the summands
        primes = primes_upto(bound)
        want: list[int] = []
        for stage in range(1, depth + len(primes) + 2):
            for i, p in enumerate(primes[:stage], start=1):
                if len(want) < depth and phi.get(p) > stage - i:
                    want.append(p)
        assert enumerate_summands(phi, depth, bound) == want

    def test_summand_enumeration_staged_diagonal(self):
        # finite exponents drain stage by stage, primes ascending
        assert enumerate_summands(ff({2: 2, 5: 1, 7: 2}), 7, 97) == [2, 2, 5, 7, 7]
        # an infinite exponent keeps recurring without starving later primes
        assert enumerate_summands(ff({2: 2, 3: 1}, default=1), 5, 97) == [2, 2, 3, 5, 7]
        assert enumerate_summands(ff({2: math.inf, 3: 1}), 4, 97) == [2, 2, 3, 2]

    def test_summands_match_the_stage_loop_over_extnat_counts(self):
        # seeded profiles with explicit zeros, finite and infinite values,
        # defaults 0, 1 and inf, and bounds from 2 to inf: the active-list
        # walk gives the list of the loop over every prime at every stage
        rng = random.Random(45)
        seen = set()
        for _ in range(2000):
            support = rng.sample([2, 3, 5, 7, 11, 13, 101, 313], rng.randint(0, 5))
            values = {p: rng.choice([0, 1, 2, 3, 5, math.inf]) for p in support}
            default = rng.choice([0, 1, math.inf])
            phi = ff(values, default=default)
            depth, bound = rng.randint(0, 30), rng.choice([2, 3, 5, 11, 97, 1000, math.inf])
            assert enumerate_summands(phi, depth, bound) == stage_summands(phi, depth, bound)
            seen |= {("default", default), ("bound", bound)}
            seen |= {("value", v) for p, v in values.items() if p <= bound}
        assert len(seen) == 3 + 7 + 6

    def test_cantor_cube(self):
        # binary strings, d the largest 2^n over differing coordinates n
        sp = tower_space([2] * 4, levels=[2, 4, 8, 16])
        assert len(sp) == 16
        assert sp.inner_radius == 16
        e = index(sp)[(0, 0, 0, 0)]
        for i in range(4):
            lab = tuple(1 if j == i else 0 for j in range(4))
            assert distance(sp, e, index(sp)[lab]) == 2 ** (i + 1)

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

    def test_negative_radius_rejected(self):
        for rank in (1, 2):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                zball(-1, rank)

    @pytest.mark.parametrize("desc,tail", [
        ("Call^inf", "inf"), ("C2 + Call^1", "1"), ("Z + Call^2", "2"),
        ("Z^2 + C3 + Call^inf", "inf"),
    ])
    def test_a_call_tail_is_refused(self, desc, tail):
        # one summand type per prime outside the listed orders: no schedule
        # exhausts it, so it is refused, not dropped
        g = parse_group(desc)
        for build in (lambda: make_schedule(g, 8), lambda: build_truncation(g, radius=8)):
            with pytest.raises(ValueError, match=rf"a Call\^{tail} tail has no finite truncation"):
                build()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FiniteSpace([(0,), (0,)], zball(1).rule, 0, 1)


# fields a direct SupRule(...) once accepted, though they make no metric or
# a rule unequal to its constructor's with every distance equal
@pytest.mark.parametrize("fields,message", [
    (((0, 2), (1,), "group-ball"), "orders and levels must have equal length"),  # dists drops a column
    (((1,), (2,), "tower"), "cyclic orders must be >= 2"),
    (((-3,), (2,), "tower"), "cyclic orders must be >= 2"),
    (((0,), (5,), "group-ball"), "free coordinates must be at level 1"),  # group_ball(1)'s metric
    (((3,), (0,), "tower"), "levels must be >= 1"),  # distinct points at distance 0
    (((0, 3), (1, -2), "group-ball"), "levels must be >= 1"),
], ids=["lengths", "order-1", "negative-order", "free-level", "cyclic-level-0",
        "negative-cyclic-level"])
def test_sup_rules_refuse_fields_that_make_no_metric(fields, message):
    with pytest.raises(ValueError, match=message):
        spaces_mod.SupRule(*fields)


@pytest.mark.parametrize("build,message", [
    (lambda: spaces_mod.SupRule.tower((2, 3), (2,)), "orders and levels must have equal length"),
    (lambda: spaces_mod.SupRule.tower((1,), (2,)), "cyclic orders must be >= 2"),
    (lambda: spaces_mod.SupRule.tower((0,), (1,)), "cyclic orders must be >= 2"),
    (lambda: spaces_mod.SupRule.tower((2,), (0,)), "levels must be >= 1"),
    (lambda: spaces_mod.SupRule.tower((2, 2), (3, 3)), "levels must be strictly increasing"),
    (lambda: spaces_mod.SupRule.group_ball(-1), "free rank must be >= 0"),
    (lambda: spaces_mod.SupRule.group_ball(1, (2,), ()), "orders and levels must have equal length"),
    (lambda: spaces_mod.SupRule.group_ball(1, (1,), (2,)), "cyclic orders must be >= 2"),
    (lambda: spaces_mod.SupRule.group_ball(1, (2,), (1,)), "cyclic levels must be >= 2"),
    (lambda: spaces_mod.SupRule.group_ball(0, (2, 2), (3, 3)),
     "cyclic levels must be strictly increasing"),
], ids=["tower-lengths", "tower-order-1", "tower-free", "tower-level-0", "tower-increasing",
        "ball-rank", "ball-lengths", "ball-order-1", "ball-level-1", "ball-increasing"])
def test_sup_rule_constructors_keep_their_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_sup_rule_constructors_build_their_fields():
    rule = spaces_mod.SupRule
    assert dataclasses.astuple(rule.tower([2, 3], [1, 5])) == ((2, 3), (1, 5), "tower")
    assert dataclasses.astuple(rule.tower((), ())) == ((), (), "tower")
    assert dataclasses.astuple(rule.group_ball(2, [3, 2], [2, 4])) == \
        ((0, 0, 3, 2), (1, 1, 2, 4), "group-ball")
    assert dataclasses.astuple(rule.group_ball(0)) == ((), (), "group-ball")
    both = rule.product(rule.group_ball(1), rule.tower([2], [3]))
    assert dataclasses.astuple(both) == ((0, 2), (1, 3), (1, "group-ball", "tower"))


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

    @staticmethod
    def grid_loop(grid_step, clamp):
        """The kept x of the whole grid below pi / 2, one math.tan each."""
        kmax = int(math.floor((math.pi / 2) / grid_step))
        xs = []
        for k in range(-kmax, kmax + 1):
            x = k * grid_step
            if abs(x) < math.pi / 2 and abs(math.tan(x)) <= clamp:
                xs.append(x)
        return xs

    @classmethod
    def point_loop(cls, branches, grid_step, clamp):
        """The per-point builder the array build replaced: labels, basepoint."""
        xs = cls.grid_loop(grid_step, clamp)
        labels = []
        for n in range(branches + 1):
            sign = -1.0 if n % 2 else 1.0
            for x in xs:
                labels.append((round(x + 2 * math.pi * n, 9), round(sign * math.tan(x), 9)))
        labels.sort()
        return labels, labels.index((0.0, 0.0))

    @pytest.mark.parametrize("branches,grid_step,clamp", [
        (1, 0.5, 3), (2, 0.5, 0.5), (20, 0.01, 1000), (31, 0.0125, 1000),
        (7, 0.003, 50), (300, 0.05, 3), (1000, 0.3, 1e6),
    ])
    def test_array_build_matches_the_point_loop(self, branches, grid_step, clamp):
        # bit for bit, signed zeros included, in labels and coordinates
        labels, base = self.point_loop(branches, grid_step, clamp)
        sp = example31_fixture(branches, grid_step, clamp)
        want = np.asarray(labels).view(np.int64)
        assert np.array_equal(np.asarray(sp.labels).view(np.int64), want)
        assert np.array_equal(sp.coords.view(np.int64), want)
        assert sp.basepoint == base
        assert sp.inner_radius == float(np.max(sp.dists_from(base)))

    def test_rounding_near_a_half_matches_python_round(self):
        # values whose scaled fraction sits at or next to one half, where
        # numpy's rint of v * 1e9 picks the other integer about half the
        # time, and values too large for any fraction
        rng = np.random.default_rng(3)
        halves = (rng.integers(-10**12, 10**12, 3000) + 0.5) / 1e9
        values = np.concatenate([
            halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
            [0.0, -0.0, 5e-10, -5e-10, 1.5e-9, 2.5e-10, 1e17, -3e15, 2.0**52 + 0.5, 2.0**60],
        ])
        want = np.asarray([round(float(v), 9) for v in values])
        assert np.sum(np.round(values, 9) != want) > 100  # the naive rounding misses
        assert np.array_equal(round_decimals(values, 9).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("args, digest", [
        ((2, 0.5, 1000.0), "45bde4691acd4a61"), ((1, 0.25, 3.0), "22218d8f8525e7af"),
        ((8, 0.01, 50.0), "2b638df7ba41cc8a"), ((3, 0.3, 0.5), "f4b12e8f137f7b05"),
        ((5, 0.001, 2.0), "dcdcef937101301f"), ((25, 0.0125, 1000.0), "38b0ed4f9d87487f"),
        ((50, 0.01, 1000.0), "714c7959459151e7"), ((87, 0.01, 1000.0), "e3f8175a0e749337"),
    ])
    def test_rows_ascend_without_a_sort(self, args, digest, monkeypatch):
        # the branches' x ranges are disjoint and x ascends in each, so the
        # rows come out in order: no lexsort runs, and the coordinates,
        # basepoint and radius keep the digests of the sorting build
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
        sp = example31_fixture(*args)
        assert sorts == []
        payload = sp.coords.tobytes() + repr((sp.basepoint, sp.inner_radius)).encode()
        assert hashlib.sha256(payload).hexdigest()[:16] == digest

    def test_rows_that_rounding_leaves_out_of_order_are_sorted(self, monkeypatch):
        # x rounded to whole numbers gives many points of a branch one x,
        # and y falls as x grows on an odd branch, so those rows need the sort;
        # the fixture rounds y first, and that call keeps its decimals
        rounded, calls = plane_mod.round_decimals, []

        def coarse_x(values, decimals):
            calls.append(len(values))
            return rounded(values, decimals if len(calls) == 1 else 0)

        monkeypatch.setattr(plane_mod, "round_decimals", coarse_x)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
        sp = example31_fixture(2, 0.25, 1000)
        assert sorts == [2]
        rows = [tuple(r) for r in sp.coords.tolist()]
        assert rows == sorted(rows) and sp.labels[sp.basepoint] == (0.0, 0.0)

    def test_a_fine_grid_under_a_small_clamp_is_refused_from_the_points_kept(self):
        # |tan x| <= 1e-3 keeps 2 million of the 3.1e9 grid x below pi / 2:
        # the grid stops at atan(clamp), so the budget refuses the points
        # kept without an array of the whole grid
        with pytest.raises(BudgetError, match="5999997 points exceed"):
            example31_fixture(2, 1e-9, 1e-3)

    def test_the_budget_counts_the_grid_loop_s_points(self):
        # the fixture counts its kept x by bisection before it builds any
        # array: over seeded triples, and at the edges of tan's range, the
        # count is the grid loop's, one point below it is refused, and at
        # it the fixture builds that many points
        rng = np.random.default_rng(44)
        triples = [(1, 0.5, 1e300), (1, math.pi / 4, 1e300), (2, math.pi / 8, 1.0),
                   (1, math.pi / 2, 5.0), (3, math.pi / 4, 1.0), (1, 0.5, 1e-3),
                   (2, 1.0, math.tan(1.0))]
        triples += [(int(rng.integers(1, 7)), float(10 ** rng.uniform(-4, 0.3)),
                     float(10 ** rng.uniform(-3, 6))) for _ in range(60)]
        for branches, step, clamp in triples:
            count = (branches + 1) * len(self.grid_loop(step, clamp))
            with pytest.raises(BudgetError) as refused:
                example31_fixture(branches, step, clamp, point_budget=count - 1)
            assert str(refused.value) == f"{count} points exceed the budget of {count - 1}"
            if count <= 20_000:
                assert len(example31_fixture(branches, step, clamp, point_budget=count)) == count

    def test_a_refused_fine_grid_builds_no_array(self):
        # 627,918 points at step 1e-5: the grid's arrays took a 25 MB traced
        # peak before the budget refused them
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as refused:
                example31_fixture(1, 1e-5, 1000.0, point_budget=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "627918 points exceed the budget of 10"
        assert peak < 10**6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            example31_fixture(0, 0.5, 3)
        with pytest.raises(ValueError):
            example31_fixture(1, -0.1, 3)
        # NaN fails every comparison: the bisection takes x = 0 as kept, so
        # a NaN clamp would keep it alone, and a NaN step names no grid
        for step, clamp in ((0.5, math.nan), (math.nan, 3)):
            with pytest.raises(ValueError, match="^grid_step and clamp must be positive$"):
                example31_fixture(1, step, clamp)
        # an infinite step makes x = 0 * inf = NaN, so no point is the basepoint
        with pytest.raises(ValueError, match="^grid_step must be finite$"):
            example31_fixture(1, math.inf, 3)
        # a subnormal step is counted exactly: atan(clamp) / step overflows
        # a float, and so would float(k) for the k near it
        for step, count in ((1e-310, "more than 10^310"), (5e-324, "more than 10^324")):
            with pytest.raises(BudgetError) as refused:
                example31_fixture(1, step, 1000, point_budget=10)
            assert str(refused.value) == f"{count} points exceed the budget of 10"
        # under a clamp of 3 steps, a subnormal step keeps |k| <= 3 (tan x
        # is x there): 7 x on each of 2 branches
        with pytest.raises(BudgetError, match="^14 points exceed the budget of 13$"):
            example31_fixture(1, 5e-324, 1.5e-323, point_budget=13)
        # a budget that admits them finds kept x that round to one label at
        # PLANE_DECIMALS: the step is named, not a duplicate label
        for step, clamp, budget in ((5e-324, 1.5e-323, 14), (3e-10, 1e-9, 10**6)):
            with pytest.raises(ValueError) as refused:
                example31_fixture(1, step, clamp, point_budget=budget)
            assert str(refused.value) == (f"grid_step {step!r} is below the label resolution "
                                          "1e-9: two kept points round to one label")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 40), min_size=1, max_size=60))
def test_partition_of_a_label_array_matches_the_key_loop(keys):
    got = _partition_from_keys(1.0, np.asarray(keys))
    # the dict loop over tuple keys that partitions once took
    groups: dict = {}
    for i, key in enumerate((k,) for k in keys):
        groups.setdefault(key, []).append(i)
    want = sorted(groups.values(), key=lambda blk: blk[0])
    assert blocks(got) == tuple(tuple(blk) for blk in want)
    assert got.representatives == tuple(blk[0] for blk in want)
    assert got.point_block.tolist() == [next(b for b, blk in enumerate(want) if i in blk)
                                        for i in range(len(keys))]


class TestComponents:
    def test_gap_splits_the_line(self):
        # the holed line fills no box, so its sup rule refuses it, and its
        # table splits it at the gap
        zb = zball(11)
        line = subspace(zb, [index(zb)[(v,)] for v in (0, 1, 2, 10, 11)])
        with pytest.raises(ValueError, match="^5 points of .* fill no box"):
            epsilon_components(line, 1)
        part = epsilon_components(as_dense(line), 1)
        got = [[line.labels[i][0] for i in b] for b in blocks(part)]
        assert got == [[0, 1, 2], [10, 11]]

    def test_representative_is_min_index(self):
        part = epsilon_components(tower_space([2, 3]), 2)
        assert blocks(part) == ((0, 3), (1, 4), (2, 5))
        assert part.representatives == (0, 1, 2)

    def test_point_block_consistent(self):
        sp = tower_space([2, 2, 2])
        part = epsilon_components(sp, 2)
        for b, blk in enumerate(blocks(part)):
            for i in blk:
                assert part.point_block[i] == b

    def test_extremes(self):
        sp = tower_space([2, 3])
        assert epsilon_components(sp, 0).count == len(sp)
        assert epsilon_components(sp, 3).count == 1

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            epsilon_components(zball(2), -1)

    @pytest.mark.parametrize("make", [
        lambda: build_truncation(parse_group("Z + C2"), radius=3),
        lambda: example31_fixture(2, 0.25, 5),
        lambda: as_dense(zball(4)),
    ], ids=["sup", "plane", "dense"])
    def test_nan_epsilon_rejected_and_inf_gives_one_block(self, make):
        # NaN compares false with everything, so `eps < 0` let it through
        sp = make()
        for call in (epsilon_components, quotient_with_projection):
            with pytest.raises(ValueError, match="epsilon"):
                call(sp, math.nan)
        assert epsilon_components(sp, math.inf).count == 1
        assert graph_partition(sp, math.inf).count == 1

    @settings(max_examples=40, deadline=None)
    @given(plane_spaces, st.sampled_from([0.05, 0.3, 0.5, 1.0, 2.0, 4.0]))
    def test_matches_graph_search_on_plane(self, sp, eps):
        # cell-grid components against the all-pairs threshold graph
        assert blocks(epsilon_components(sp, eps)) == threshold_blocks(sp.dmat(), eps)

    def test_graph_oracle_over_several_row_blocks(self):
        # ~3000 points: the threshold-graph oracle reads its distance rows
        # in blocks, and runs of the line must join across block boundaries
        zb = zball(1500)
        line = subspace(zb, [i for i, (v,) in enumerate(zb.labels) if (v + 48) % 97])
        assert len(spaces_mod.row_blocks(len(line))) > 1
        run = [(v + 48) // 97 for (v,) in line.labels]
        want = tuple(tuple(i for i, k in enumerate(run) if k == r) for r in sorted(set(run)))
        assert blocks(graph_partition(line, 1)) == want

    def test_block_dmat_matches_stacked_rows(self):
        # sup rules with free and cyclic coordinates, the plane (same
        # rounding) and a dense table, each filled over several row blocks
        rng = np.random.default_rng(5)
        line = zball(1100)
        spaces = [
            zball(20, 2),
            product_space(build_truncation(parse_group("Z + C3"), radius=60), tower_space([2, 2])),
            example31_fixture(4, 0.01, 5),
            as_dense(line),
        ]
        for sp in spaces:
            n = len(sp)
            assert len(row_blocks(n)) > 1
            assert np.array_equal(sp.dmat(), np.stack([sp.dists_from(i) for i in range(n)]))
            rows, cols = rng.choice(n, size=50), rng.choice(n, size=70)
            assert np.array_equal(sp.dists_block(rows, cols), sp.dmat()[np.ix_(rows, cols)])

    def test_plane_edges_freed_with_their_space(self):
        sp = example31_fixture(2, 0.25, 5)
        epsilon_components(sp, 1.0)
        sp.rule.chain(sp, np.arange(len(sp)))
        ref = weakref.ref(sp._tree[1][2])
        del sp
        gc.collect()
        assert ref() is None

    def test_plane_grid_freed_with_its_space(self):
        # the bands' grid, which a step's windows reuse, lives on the space
        sp = example31_fixture(2, 0.25, 5)
        estimate_factorizing_step(sp)
        ref = weakref.ref(sp._tree[2][1])
        del sp
        gc.collect()
        assert ref() is None


def lattice(width, height, step=1.0):
    """Integer grid points scaled by step: every unit square is
    co-circular, and ties decide the tree."""
    return np.array([(x * step, y * step) for x in range(width) for y in range(height)])


def line_space(count, direction, gaps):
    """Plane space on `count` points of one line through the origin, spaced
    by 1/4 times the direction, with a gap of `gaps` after every 3rd point."""
    dx, dy = direction
    steps = np.cumsum([1 + (gaps if k % 3 == 2 else 0) for k in range(count)]) - 1
    labels = sorted((t * dx / 4, t * dy / 4) for t in steps.tolist())
    return FiniteSpace(labels, PlaneRule(), 0, 0)


def single_linkage_quotient(sp, eps):
    """Partition and quotient table of the all-pairs single linkage."""
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    if len(sp) == 1:
        return np.ones((1, 1), dtype=bool), np.zeros((1, 1))
    coph = squareform(cophenet(linkage(squareform(sp.dmat()), "single")))
    return coph <= eps, coph


def assert_minimum_spanning_tree(pts, edges):
    """The edges join two points each, come once each in any order and
    either direction, with their PlaneRule distances, and make a spanning
    tree whose weights are Prim's: a tree of least weight, so a minimum
    spanning tree."""
    ii, jj, ww = edges
    n = len(pts)
    assert len(ii) == max(n - 1, 0)
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    assert np.all(lo < hi) and len(np.unique(lo * n + hi)) == len(lo)
    assert np.array_equal(ww, np.round(np.hypot(pts[ii, 0] - pts[jj, 0],
                                                 pts[ii, 1] - pts[jj, 1]), 9))
    assert not np.any(_connected_labels(n, ii, jj))
    assert sorted(ww.tolist()) == prim_heights(pts)


def band_edges(pts):
    """The band route's tree of raw points, in their own order, unseeded:
    the edges Kruskal joins over the bands' candidates, i < j, in
    ascending (i, j) order, after checking that every candidate joins two
    points at their PlaneRule distance, and that the tree has Prim's and
    scipy's single-linkage heights."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    grid = plane_mod._plane_grid(pts) if n > 1 else None
    ii, jj, ww = plane_mod._band_edges(pts, np.arange(n), grid)
    assert np.all(ii != jj) and np.array_equal(ww, plane_mod._plane_pair_dists(pts, ii, jj))
    joined = _kruskal_chain(n, ii, jj, ww)[2]
    assert sorted(ww[joined].tolist()) == prim_heights(pts) == single_linkage_heights(pts)
    lo, hi, ww = np.minimum(ii, jj)[joined], np.maximum(ii, jj)[joined], ww[joined]
    by = np.argsort(lo * n + hi)
    return lo[by], hi[by], ww[by]


def cloud(pts):
    return FiniteSpace(sorted(map(tuple, np.asarray(pts).tolist())), PlaneRule(), 0, 0)


def gaussian_blobs(size):
    """Five blobs of size points each, of unit spread, in a square of side 40."""
    rng = np.random.default_rng(1)
    centres = rng.uniform(-20, 20, size=(5, 2))
    return cloud(np.concatenate([rng.normal(c, 1.0, size=(size, 2)) for c in centres]))


def with_near_twins(pts, count, offset):
    """The points and a twin offset in x of each of the first count."""
    return np.concatenate([pts, pts[:count] + [offset, 0.0]])


class TestPlaneEdges:
    @pytest.mark.parametrize("make", [
        # the example31 fixtures of both benchmark grids
        lambda: example31_fixture(20, 0.01, 1000),
        lambda: example31_fixture(24, 0.0125, 1000),
        lambda: cloud(np.random.default_rng(3).uniform(-5, 5, size=(3000, 2))),
        lambda: cloud(np.random.default_rng(4).normal(size=(500, 2))),
        lambda: cloud(lattice(40, 30)),
        lambda: cloud(lattice(7, 50, 0.25)),
    ], ids=["fixture-0.01", "fixture-0.0125", "uniform", "normal", "lattice", "lattice-quarter"])
    def test_tree_is_a_minimum_spanning_tree(self, make):
        sp = make()
        assert_minimum_spanning_tree(sp.coords, plane_mod.tree(sp.coords)[1])

    @settings(max_examples=40, deadline=None)
    @given(plane_spaces)
    def test_tree_is_a_minimum_spanning_tree_random(self, sp):
        assert_minimum_spanning_tree(sp.coords, plane_mod.tree(sp.coords)[1])

    @pytest.mark.parametrize("make, unique", [
        (lambda: example31_fixture(12, 0.02, 200), True),
        (lambda: cloud(lattice(7, 50, 0.25)), False),
        (lambda: cloud(np.random.default_rng(5).uniform(-5, 5, size=(800, 2))), True),
    ], ids=["fixture", "lattice-quarter", "uniform"])
    def test_tree_is_the_kruskal_joins_in_joining_order(self, make, unique):
        # the edges a pass over every candidate of the bands joins, as the
        # bands gave them, in its order, so their weights ascend. Under
        # ties the index path may join another minimum spanning tree
        sp = make()
        n = len(sp)
        ii, jj, ww = plane_mod._band_edges(sp.coords, np.arange(n),
                                           plane_mod._plane_grid(sp.coords))
        joined = _kruskal_chain(n, ii, jj, ww)[2]
        edges = plane_mod.tree(sp.coords)[1]
        if unique:
            assert all(np.array_equal(a, b[joined]) for a, b in zip(edges, (ii, jj, ww)))
        given = set(zip(ii.tolist(), jj.tolist(), ww.tolist()))
        assert set(zip(*(a.tolist() for a in edges))) <= given
        assert np.all(np.diff(edges[2]) >= 0)
        assert_minimum_spanning_tree(sp.coords, edges)

    def test_collinear_points_give_the_path_along_the_line(self):
        pts = np.array([(2.0, 4.0), (0.0, 0.0), (3.0, 6.0), (1.0, 2.0)])
        ii, jj, ww = band_edges(pts)
        # along the line: points 1, 3, 0, 2
        assert (ii.tolist(), jj.tolist()) == ([0, 0, 1], [2, 3, 3])
        assert ww.tolist() == [round(math.sqrt(5), 9)] * 3

    def test_vertical_line_and_tiny_inputs(self):
        ii, jj, _ = band_edges([(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)])
        assert (ii.tolist(), jj.tolist()) == ([0, 1], [2, 2])
        for n in (0, 1):
            assert all(len(a) == 0 for a in band_edges(np.zeros((n, 2))))
        ii, jj, ww = band_edges([(0.0, 0.0), (3.0, 4.0)])
        assert (ii.tolist(), jj.tolist(), ww.tolist()) == ([0], [1], [5.0])

    def test_points_nearly_on_one_line(self):
        # Qhull could not triangulate these, nor take them for one line
        pts = np.array([(0.0, 0.0), (1.0, 1e-17), (2.0, 0.0)])
        ii, jj, ww = band_edges(pts)
        assert (ii.tolist(), jj.tolist(), ww.tolist()) == ([0, 1], [1, 2], [1.0, 1.0])
        assert_minimum_spanning_tree(pts, (ii, jj, ww))

    def test_a_point_beside_the_centre_of_a_square(self):
        # 1e-16 beside the centre: Qhull set it aside as coplanar; the pair
        # reads 0, the only such edge, so every minimum spanning tree has it
        pts = np.array([(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (0.0, 0.0),
                        (1e-16, 0.0)])
        edges = band_edges(pts)
        assert_minimum_spanning_tree(pts, edges)
        assert (4, 5, 0.0) in zip(*(a.tolist() for a in edges))

    def test_a_uniform_cloud_with_a_point_beside_one_steps(self):
        # Qhull set the doubled point aside, and every pair of the 7,001
        # points was above DENSE_LIMIT, so the step raised BudgetError
        pts = np.random.default_rng(0).uniform(-5, 5, size=(7000, 2))
        sp = cloud(np.vstack([pts, pts[:1] + [1e-12, 0.0]]))
        assert len(sp) == 7001 > spaces_mod.DENSE_LIMIT
        est = estimate_factorizing_step(sp)
        edges = plane_mod.tree(sp.coords)[1]
        # the doubled pair reads 0, and the candidates are the tree's heights
        assert est.candidates == tuple(sorted({0.0, *edges[2].tolist()}))
        assert_minimum_spanning_tree(sp.coords, edges)

    def test_gaussian_blobs_are_exact_in_few_reads(self, monkeypatch):
        # without the Morton split the bucket pairs of two blobs' cores read
        # about 600 point pairs a point; each read point pair counts once
        reads = []
        real = plane_mod._plane_pair_dists

        def counting(pts, ii, jj):
            reads.append(len(ii))
            return real(pts, ii, jj)

        sp = gaussian_blobs(400)
        monkeypatch.setattr(plane_mod, "_plane_pair_dists", counting)
        edges = plane_mod.tree(sp.coords)[1]
        monkeypatch.undo()
        assert len(sp) == 2000 and sum(reads) < 20 * len(sp)
        assert_minimum_spanning_tree(sp.coords, edges)

    @pytest.mark.parametrize("make", [
        # two clusters 1e7 apart at spacing 1e-4: the fine grid spans about
        # 2^43 cells per axis, so both Morton words order the points
        lambda rng: np.concatenate([rng.integers(0, 12, size=(80, 2)) * 1e-4 + c
                                    for c in ((0.0, 0.0), (1e7, 3e6))]),
        # clusters of spacing 1e-4 spread over 3e3: the bands read cells of
        # every size up to about 2^30 fine cells, across the words' split
        lambda rng: np.concatenate([rng.integers(0, 6, size=(8, 2)) * 1e-4 + c
                                    for c in rng.uniform(0, 3e3, size=(60, 2))]),
        # 40 pairs 1e-6 apart in a uniform cloud: the first band's scale is
        # about 2e-6, and bands of some thousand components read cells of
        # 2^20 to 2^28 fine cells, across the words' split
        lambda rng: with_near_twins(rng.uniform(0, 8, size=(1200, 2)), 40, 1e-6),
        # every coordinate negative, near the origin and far from it
        lambda rng: rng.uniform(-9, -1, size=(600, 2)),
        lambda rng: np.concatenate([rng.integers(0, 6, size=(8, 2)) * -1e-4 + c
                                    for c in rng.uniform(-2e7, -1e7, size=(40, 2))]),
        # columns of points that share one x, and one column alone
        lambda rng: np.stack([rng.integers(0, 6, size=500) * 0.5,
                              rng.uniform(-3, 3, size=500)], axis=1),
        lambda rng: np.stack([np.full(300, -2.5), rng.uniform(0, 40, size=300)], axis=1),
    ], ids=["far-clusters", "spread-clusters", "tight-pairs", "negative", "negative-far",
            "columns", "one-column"])
    def test_grid_edge_cases_keep_every_single_linkage_height(self, make):
        # the bands' one grid and one Morton order at its edges, against
        # Prim's and scipy's single linkage on all pairs
        for seed in range(3):
            sp = cloud(np.unique(make(np.random.default_rng(seed)), axis=0))
            order, gap = plane_mod.tree(sp.coords)[0]
            assert sorted(order.tolist()) == list(range(len(sp))) and gap[0] == math.inf
            want = prim_heights(sp.coords)
            assert sorted(gap.tolist())[:-1] == want == single_linkage_heights(sp.coords)


def sorted_cloud(pts):
    """Plane space on points whose x ascends with the index."""
    return FiniteSpace(sorted(map(tuple, np.round(np.asarray(pts), 9).tolist())),
                       PlaneRule(), 0, 0)


def sine_curve(count):
    x = np.linspace(0, 12, count)
    return sorted_cloud(np.stack([x, np.sin(x)], axis=1))


def random_walk(count, seed):
    rng = np.random.default_rng(seed)
    return sorted_cloud(np.cumsum(np.stack([rng.uniform(0.01, 0.3, size=count),
                                            rng.normal(0, 0.2, size=count)], axis=1), axis=0))


def triangle_strip(count):
    """Points k / 2 apart in x, alternately on two lines sqrt(3) / 2
    apart: every index neighbour and every pair two apart is 1 away, so
    path weights tie with each other and with the pairs beside the path."""
    k = np.arange(count)
    return sorted_cloud(np.stack([k / 2, (k % 2) * (math.sqrt(3) / 2)], axis=1))


def broken_curves():
    """Sine segments shifted apart in y, one after another in x: index
    neighbours across a shift are far apart, so the bands give no such
    pair, and the nearest pairs across are cross links off the path."""
    x = np.linspace(0, 3, 40)
    parts = [np.stack([x + 3.05 * k, np.sin(3 * x) + 2.5 * (k % 2)], axis=1) for k in range(4)]
    return sorted_cloud(np.concatenate(parts))


@st.composite
def path_clouds(draw):
    """Points along a walk whose x never falls, on a grid of quarters, so
    that path weights tie, with jumps in y that leave index neighbours far
    apart and gaps in x that leave the walk's pieces apart."""
    x = y = 0
    pts = {(0, 0)}
    for dx, dy, jump in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3),
                                                st.sampled_from(["", "", "", "up", "down", "gap"])),
                                      min_size=1, max_size=60)):
        x += dx + 8 * (jump == "gap")
        y += dy + {"up": 12, "down": -12}.get(jump, 0)
        pts.add((x, y))
    return sorted_cloud(np.asarray(sorted(pts)) / 4)


def assert_single_linkage_chain(sp):
    """The whole space's chain states scipy's single-linkage cophenetic
    matrix on all pairs, and its tree is a minimum spanning tree with
    ascending weights."""
    (order, gap), edges, _ = plane_mod.tree(sp.coords)
    assert sorted(order.tolist()) == list(range(len(sp))) and gap[0] == math.inf
    whole = np.arange(len(sp))
    assert np.array_equal(chain_cophenet(order, gap), single_linkage_cophenet(sp, whole))
    assert np.all(np.diff(edges[2]) >= 0)
    assert_minimum_spanning_tree(sp.coords, edges)


class TestIndexPath:
    """plane.tree's index path route, on curves and on clouds with little
    path, against scipy's single linkage and an independent Prim."""

    @pytest.mark.parametrize("make", [
        lambda: example31_fixture(2, 0.05, 20),
        lambda: example31_fixture(3, 0.1, 50),
        lambda: example31_fixture(4, 0.02, 8),
        lambda: sine_curve(300),
        lambda: random_walk(400, 1),
        lambda: random_walk(300, 2),
        lambda: triangle_strip(2),
        lambda: triangle_strip(61),
        lambda: broken_curves(),
        lambda: cloud(np.random.default_rng(5).uniform(-5, 5, size=(600, 2))),
        lambda: gaussian_blobs(120),
        lambda: cloud(lattice(20, 15)),
        lambda: cloud(lattice(7, 50, 0.25)),
        lambda: cloud(np.zeros((1, 2))),
    ], ids=["tan-2", "tan-3", "tan-4", "sine", "walk-1", "walk-2", "strip-2", "strip-61",
            "broken", "uniform", "blobs", "lattice", "lattice-quarter", "one-point"])
    def test_chain_is_single_linkage(self, make):
        assert_single_linkage_chain(make())

    def test_the_cases_reach_what_they_are_for(self):
        # the strip's pairs two apart tie with its path, and the broken
        # curves leave index neighbours without a pair and link across
        def candidates(sp):
            ii, jj, ww = plane_mod._band_edges(sp.coords, np.arange(len(sp)),
                                               plane_mod._plane_grid(sp.coords))
            return np.abs(ii - jj) == 1, ww

        step, ww = candidates(triangle_strip(61))
        assert np.count_nonzero(step) == 60 and np.all(ww[step] == 1.0)
        assert np.count_nonzero(ww[~step] == 1.0) == 59
        step, ww = candidates(broken_curves())
        assert 0 < np.count_nonzero(step) < 159 and np.count_nonzero(~step) >= 3

    @settings(max_examples=120, deadline=None)
    @given(path_clouds())
    def test_chain_is_single_linkage_random(self, sp):
        assert_single_linkage_chain(sp)


def band_inputs(sp, subsets=()):
    """The arguments of the bands of the whole space and of each subset on
    the whole space's grid, built without the band loop: at each scale
    t = t0 * 4^b the labels are the components of every pair at distance
    <= t / 4 (_band_edges, step 4), until one component is left."""
    grid = plane_mod._plane_grid(sp.coords)
    inputs = []
    for subset in [np.arange(len(sp)), *subsets]:
        pos = np.full(len(sp), -1)
        pos[subset] = np.arange(len(subset))
        t, fine, order = plane_mod._grid_subset(grid, pos)
        pts = sp.coords[subset]
        flips = (fine[1:, 0] ^ fine[:-1, 0]) | (fine[1:, 1] ^ fine[:-1, 1])
        i, j = np.triu_indices(len(pts), k=1)
        r = plane_mod._plane_pair_dists(pts, i, j)
        labels, shift = np.arange(len(pts)), plane_mod.SPLIT_LEVELS
        while labels.any():
            inputs.append((pts[order], fine, flips, labels[order], min(shift, 62), t))
            labels = _connected_labels(len(pts), i[r <= t], j[r <= t])
            t, shift = 4 * t, shift + 2
    return inputs


def band_weights(args, direct):
    """{(component, component): weight} of one band, read directly or by
    buckets as DIRECT_PAIRS forces, after checking that each pair kept
    joins two components at its PlaneRule distance, within the band's
    scale, one pair for each two components."""
    pts, _, _, comp, _, t = args
    with mock.patch.object(plane_mod, "DIRECT_PAIRS", math.inf if direct else -1):
        i, j, r = plane_mod._band_pairs(*args)
    assert np.all(comp[i] != comp[j]) and np.all(r <= t)
    assert np.array_equal(r, plane_mod._plane_pair_dists(pts, i, j))
    keys = [tuple(sorted(k)) for k in zip(comp[i].tolist(), comp[j].tolist())]
    assert len(set(keys)) == len(keys)
    return dict(zip(keys, r.tolist()))


def all_pairs_weights(args):
    """{(component, component): weight} of the lightest pair at distance
    <= t between each two components, over all point pairs."""
    pts, _, _, comp, _, t = args
    i, j = np.triu_indices(len(pts), k=1)
    r = plane_mod._plane_pair_dists(pts, i, j)
    keep = (comp[i] != comp[j]) & (r <= t)
    want: dict = {}
    for a, b, w in zip(comp[i][keep].tolist(), comp[j][keep].tolist(), r[keep].tolist()):
        key = (min(a, b), max(a, b))
        want[key] = min(w, want.get(key, math.inf))
    return want


@st.composite
def band_clouds(draw):
    """A plane space whose bands tie, nearly tie or run along lines, and a
    random subset of it: lattices and masks of them, uniform points with
    twins 1e-9 away, and collinear runs."""
    kind = draw(st.sampled_from(["lattice", "mask", "twins", "collinear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind in ("lattice", "mask"):
        pts = lattice(draw(st.integers(2, 12)), draw(st.integers(2, 12)),
                      draw(st.sampled_from([1.0, 0.25, 0.1])))
        if kind == "mask":
            pts = pts[rng.random(len(pts)) < draw(st.sampled_from([0.3, 0.6, 0.9]))]
    elif kind == "twins":
        size = draw(st.integers(3, 90))
        pts = with_near_twins(rng.uniform(0, 3, size=(size, 2)), size // 3, 1e-9)
    else:
        runs = []
        for _ in range(draw(st.integers(1, 4))):
            start, angle = rng.uniform(-2, 2, size=2), rng.choice(8) * (math.pi / 4)
            count, spacing = draw(st.integers(2, 25)), draw(st.sampled_from([0.05, 0.3, 1.0]))
            steps = np.arange(count)[:, None] * spacing
            runs.append(start + steps * [math.cos(angle), math.sin(angle)])
        pts = np.concatenate(runs)
    labels = sorted(set(map(tuple, np.round(pts, 12).tolist())))
    assume(len(labels) > 1)
    sp = FiniteSpace(labels, PlaneRule(), 0, 0)
    return sp, np.flatnonzero(rng.random(len(sp)) < draw(st.sampled_from([0.3, 0.7])))


@settings(max_examples=80, deadline=None)
@given(band_clouds())
def test_direct_and_bucket_reads_keep_the_same_lightest_pairs(case):
    # every band of the whole space and of a subset on its grid, read by
    # each route, against the lightest pair of each two components over
    # all point pairs: a route that lost the pairs inside one cell, or
    # any pair of the kept cell pairs, keeps a heavier pair or none
    sp, subset = case
    inputs = band_inputs(sp, [subset] if len(subset) > 1 else [])
    assert inputs
    for args in inputs:
        assert band_weights(args, True) == all_pairs_weights(args) == band_weights(args, False)


def band_routes(monkeypatch, sp):
    """The read each band of the space's tree takes: buckets when it
    pairs buckets (_sub_pairs), else direct."""
    routes, pairs, sub_pairs = [], plane_mod._band_pairs, plane_mod._sub_pairs

    def recording(*args):
        routes.append("direct")
        return pairs(*args)

    def bucketing(*args):
        routes[-1] = "buckets"
        return sub_pairs(*args)

    monkeypatch.setattr(plane_mod, "_band_pairs", recording)
    monkeypatch.setattr(plane_mod, "_sub_pairs", bucketing)
    plane_mod.tree(sp.coords)
    monkeypatch.undo()
    return routes


def test_fixture_bands_read_directly_and_a_lattice_by_buckets(monkeypatch):
    # the first four bands of the fixture hold 0.5-2.2 point pairs a point
    # in their kept cell pairs, the later ones 213 or more; the first band
    # of an 80 x 80 lattice holds 19.6 a point
    sp = example31_fixture(20, 0.01, 1000)
    assert band_routes(monkeypatch, sp) == ["direct"] * 4 + ["buckets"] * 3
    sp = cloud(lattice(80, 80, 0.25))
    assert band_routes(monkeypatch, sp)[0] == "buckets"
    assert_minimum_spanning_tree(sp.coords, plane_mod.tree(sp.coords)[1])


class TestFlatPlane:
    """Plane spaces with no triangulation: one line, or under three points."""

    flat = [line_space(10, (1, 0), 0), line_space(10, (1, 2), 3), line_space(12, (0, -1), 1),
            line_space(1, (1, 0), 0), line_space(2, (3, 1), 0)]
    ids = ["line", "slanted-gaps", "vertical-gaps", "one-point", "two-points"]

    @pytest.mark.parametrize("sp", flat, ids=ids)
    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.6, 1.0, 1.2, 5.0])
    def test_components_match_all_pairs(self, sp, eps):
        assert blocks(epsilon_components(sp, eps)) == threshold_blocks(sp.dmat(), eps)


def plane_points(points):
    """Plane space on distinct (x, y) points, in label order."""
    return FiniteSpace(sorted({(float(x), float(y)) for x, y in points}), PlaneRule(), 0, 0)


def rounded_distances(sp):
    """Distinct PlaneRule distances of the pairs of a space, ascending."""
    return sorted(set(sp.dmat()[np.triu_indices(len(sp), k=1)].tolist()))


def around(v):
    """v and its float neighbours."""
    return [float(np.nextafter(v, -np.inf)), v, float(np.nextafter(v, np.inf))]


class TestGridComponents:
    """Plane components read from the cell grid, against the all-pairs
    threshold graph, where the grid's bounds are tight."""

    @staticmethod
    def check(sp, eps):
        assert blocks(epsilon_components(sp, eps)) == threshold_blocks(sp.dmat(), eps)

    @pytest.mark.parametrize("eps", [0.3, 2.0])
    def test_pairs_on_and_beside_cell_boundaries(self, eps):
        # cell corners k / inv, each also one ulp below and above, paired
        # with anchors at the far side of the origin's cell: one cell and
        # 8-adjacent cells join untested, and pairs 2 to 3 cells apart are
        # read, the nearest of them well within eps
        inv, join = _grid_scale(4.0 / _grid_scale(1.0, eps)[0], eps)
        assert join
        corners = sorted({v for k in range(5) for v in around(k / inv)})
        below = float(np.nextafter(1 / inv, 0))
        anchors = [(0.0, 0.0), (below, 0.0), (below, below)]
        for a in anchors:
            for b in itertools.product(corners, repeat=2):
                if a != b:
                    sp = plane_points([a, b])
                    want = 1 if distance(sp, 0, 1) <= eps else 2
                    assert epsilon_components(sp, eps).count == want, (a, b)

    def test_pair_rounded_onto_epsilon_is_read_rounded(self):
        # hypot is 0.50000000016, which PlaneRule rounds to 0.5; the two
        # points are 2 cells apart, so the grid reads this pair exactly
        sp = plane_points([(0.0, 0.0), (0.3, 0.4000000002)])
        assert distance(sp, 0, 1) == 0.5
        assert epsilon_components(sp, 0.5).count == 1
        assert epsilon_components(sp, np.nextafter(0.5, 0)).count == 2

    @pytest.mark.parametrize("shape", [(9, 7, 1.0), (12, 5, 0.25), (6, 6, 0.1)])
    def test_co_circular_lattices_with_holes(self, shape):
        # every unit square is co-circular; dropping a third of the points
        # leaves components that hinge on sides or diagonals, at scales
        # equal to the step or to its rounded diagonal
        w, h, step = shape
        pts = lattice(w, h, step)
        keep = np.random.default_rng(w * h).random(len(pts)) < 0.65
        sp = plane_points(pts[keep])
        for v in (step, round(step * math.sqrt(2), 9), 2 * step):
            for eps in around(v):
                self.check(sp, eps)
        self.check(plane_points(pts), step)

    @settings(max_examples=40, deadline=None)
    @given(plane_spaces, st.integers(0, 10**6), st.sampled_from([-1, 0, 1]))
    def test_epsilon_at_a_pair_distance_and_its_neighbours(self, sp, pick, side):
        values = rounded_distances(sp)
        eps = around(values[pick % len(values)])[side + 1]
        self.check(sp, eps)

    @pytest.mark.parametrize("make", [
        lambda: example31_fixture(2, 0.25, 5),
        lambda: plane_points(lattice(8, 6, 0.5)),
        lambda: plane_points(np.random.default_rng(8).uniform(-3, 3, size=(60, 2))),
    ], ids=["fixture", "lattice", "uniform"])
    def test_zero_epsilon_and_at_or_above_the_diameter(self, make):
        sp = make()
        diameter = float(sp.dmat().max())
        assert epsilon_components(sp, 0).count == len(sp)
        for eps in [diameter, float(np.nextafter(diameter, np.inf)), 2 * diameter, math.inf]:
            assert epsilon_components(sp, eps).count == 1
        self.check(sp, float(np.nextafter(diameter, 0)))

    @pytest.mark.parametrize("sp", TestFlatPlane.flat, ids=TestFlatPlane.ids)
    def test_flat_spaces_at_their_pair_distances(self, sp):
        for v in rounded_distances(sp) or [0.0]:
            for eps in around(v):
                self.check(sp, max(eps, 0.0))

    @pytest.mark.parametrize("spacing", [1e-11, 2e-10])
    @pytest.mark.parametrize("eps", [0.0, 1e-10, 4e-10, 5e-10, 6e-10, 1e-9, 1.5e-9, 1.7e-9,
                                     1e-8, 2e-8, 5e-8])
    def test_near_coincident_points_at_tiny_epsilon(self, eps, spacing):
        # points on a small grid near (1, -1): PlaneRule reads pairs closer
        # than 5e-10 as 0, so even eps = 0 joins some of them, and pairs a
        # little farther than eps may read as eps
        rng = np.random.default_rng(11)
        steps = rng.choice(60 * 60, size=80, replace=False)
        sp = plane_points([(1 + (k // 60) * spacing, -1 + (k % 60) * spacing)
                           for k in steps.tolist()])
        self.check(sp, eps)

    @pytest.mark.parametrize("eps", [1e-6, 1.2e-6, 2.5e-7, 3e-6])
    def test_coordinates_near_a_million_at_micro_epsilon(self, eps):
        rng = np.random.default_rng(12)
        steps = rng.choice(40 * 40, size=150, replace=False)
        sp = plane_points([(1e6 + (k // 40) * 2.5e-7, -1e6 + (k % 40) * 3e-7) for k in steps.tolist()])
        assert _grid_scale(1e6, eps)[1]
        for v in [eps] + [d for d in rounded_distances(sp) if abs(d - eps) < 5e-8][:5]:
            self.check(sp, v)

    def test_cell_keys_stay_in_int64_across_a_wide_extent(self):
        # about 2^43 cells per axis at eps = 1e-6: keys taken as
        # x_cell * (y cells + 4) + y_cell would wrap past 2^64, and these
        # cells would meet there: (2^21, 0) on (0, 0) with 2^43 y cells
        eps = 1e-6
        inv, join = _grid_scale(2.0**22, eps)
        assert join
        pts = [(0.5 / inv, 0.5 / inv), (0.5 / inv, (2**43 - 3.5) / inv),
               ((2**21 + 0.5) / inv, 0.5 / inv), (2.0**22, 0.5 / inv)]
        sp = plane_points(pts)
        assert epsilon_components(sp, eps).count == 4
        self.check(sp, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 1.0])
    def test_dense_cells_expand_in_small_chunks(self, eps, monkeypatch):
        # clusters of 40 points a few cells apart: tens of chunks of 32
        # pairs, several inside one pair of cells
        monkeypatch.setattr(plane_mod, "BLOCK_ENTRIES", 32)
        rng = np.random.default_rng(13)
        centres = [(0.0, 0.0), (eps + 0.02, 0.0), (0.0, eps + 0.1), (eps, eps)]
        radius = 0.04 * eps + 2e-10
        pts = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for cx, cy in centres
               for a in rng.uniform(0, 2 * math.pi, size=40)]
        self.check(plane_points(pts), eps)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=2,
                    max_size=6, unique=True),
           st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 1.5]))
    def test_random_dense_clusters(self, centres, seed, eps):
        # clusters of 1 to 30 points around centres on a grid of eps / 4
        rng = np.random.default_rng(seed)
        pts = [(cx * eps / 4 + dx, cy * eps / 4 + dy) for cx, cy in centres
               for dx, dy in rng.normal(scale=eps / 20, size=(rng.integers(1, 30), 2))]
        old = plane_mod.BLOCK_ENTRIES
        plane_mod.BLOCK_ENTRIES = 32
        try:
            self.check(plane_points(pts), eps)
        finally:
            plane_mod.BLOCK_ENTRIES = old


    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=0, max_size=4,
                    unique=True),
           st.lists(st.integers(3, 16), min_size=6, max_size=6),
           st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 3.0]), st.integers(1, 8))
    def test_chunks_split_a_crowded_cell_pair(self, centres, sizes, seed, eps, limit):
        # clusters crowded into single cells of side about eps / 2.83. Two
        # of them sit mid-cell 1.02 eps apart, 3 cells, far from the rest,
        # so their cell pair is read and never joined: at least 9 slots,
        # more than a chunk
        rng = np.random.default_rng(seed)
        spots = [(0.18 * eps, 0.18 * eps), (1.2 * eps, 0.18 * eps)]
        spots += [(40 * eps + cx * eps / 3, cy * eps / 3) for cx, cy in centres]
        pts = [(x + dx, y + dy) for (x, y), size in zip(spots, sizes)
               for dx, dy in rng.normal(scale=eps / 4000, size=(size, 2))]
        sp = plane_points(pts)
        chunks, items = [], []
        expand = plane_mod._slot_chunks

        def recorded(slots):
            items.append(slots)
            for k, t in expand(slots):
                chunks.append(len(k))
                yield k, t

        old = plane_mod.BLOCK_ENTRIES, plane_mod._slot_chunks
        plane_mod.BLOCK_ENTRIES, plane_mod._slot_chunks = limit, recorded
        try:
            got = epsilon_components(sp, eps)
        finally:
            plane_mod.BLOCK_ENTRIES, plane_mod._slot_chunks = old
        assert blocks(got) == blocks(graph_partition(sp, eps))
        assert max(items[0]) > limit and max(chunks) <= limit
        assert sum(chunks) == int(items[0].sum())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=12), st.integers(1, 40))
def test_slot_chunks_match_the_plain_expansion(sizes, limit):
    # every slot of every item, in order, in chunks of at most limit; all
    # but the last chunk full, so an item larger than a chunk is split
    sizes = np.asarray(sizes, dtype=np.int64)
    old = plane_mod.BLOCK_ENTRIES
    plane_mod.BLOCK_ENTRIES = limit
    try:
        chunks = list(plane_mod._slot_chunks(sizes))
    finally:
        plane_mod.BLOCK_ENTRIES = old
    want_k = [k for k, size in enumerate(sizes.tolist()) for _ in range(size)]
    want_t = [t for size in sizes.tolist() for t in range(size)]
    assert [len(k) for k, _ in chunks] == [min(limit, len(want_k) - lo)
                                           for lo in range(0, len(want_k), limit)]
    assert [x for k, _ in chunks for x in k.tolist()] == want_k
    assert [x for _, t in chunks for x in t.tolist()] == want_t


def assert_least_index_labels(n, ii, jj):
    """_connected_labels against scipy's connected_components: each node's
    label must be the least index of its component in scipy's partition,
    which asserts both the partition and the labels the plane components
    and graph_components read as roots."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    ii, jj = np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64)
    got = _connected_labels(n, ii, jj)
    graph = coo_matrix((np.ones(len(ii)), (ii, jj)), shape=(n, n))
    ref = connected_components(graph, directed=False)[1]
    least = np.full(n, n)
    np.minimum.at(least, ref, np.arange(n))
    assert np.array_equal(got, least[ref])


def path(ids):
    return ids[:-1], ids[1:]


class TestConnectedLabels:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        if n else st.just([]))))
    def test_matches_csgraph_on_multigraphs(self, case):
        # duplicate edges, self-loops and isolated nodes; n = 0 and 1, and
        # no edges at all
        n, edges = case
        ii, jj = zip(*edges) if edges else ((), ())
        assert_least_index_labels(n, ii, jj)

    @pytest.mark.parametrize("family", [
        "path-shuffled", "path-sorted", "path-zigzag", "path-shuffled-in-pieces",
        "star-largest-centre", "grid-shuffled", "binary-tree-reversed-heap",
    ])
    def test_matches_csgraph_on_large_families(self, family):
        n = 10**5
        rng = np.random.default_rng(17)
        if family == "path-shuffled":
            ii, jj = path(rng.permutation(n))
        elif family == "path-sorted":
            ii, jj = path(np.arange(n))
        elif family == "path-zigzag":
            # 0, n - 1, 1, n - 2, ...: every other node a local minimum
            k = np.arange(n)
            ii, jj = path(np.where(k % 2 == 0, k // 2, n - 1 - k // 2))
        elif family == "path-shuffled-in-pieces":
            ii, jj = path(rng.permutation(n))
            keep = np.arange(n - 1) % 997 != 0
            ii, jj = ii[keep], jj[keep]
        elif family == "star-largest-centre":
            ii, jj = np.full(n - 1, n - 1), np.arange(n - 1)
        elif family == "grid-shuffled":
            side = math.isqrt(n)
            ids = rng.permutation(n)[: side * side].reshape(side, side)
            ii = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
            jj = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
        else:
            # heap position h has children 2h + 1 and 2h + 2, and ids run
            # the other way: every child's id is below its parent's
            h = np.arange(1, n)
            ii, jj = n - 1 - h, n - 1 - (h - 1) // 2
        assert_least_index_labels(n, ii, jj)


class TestSubspace:
    def test_induced_distances(self):
        zb = zball(5)
        sub = subspace(zb, [index(zb)[(v,)] for v in (-5, 0, 4)])
        assert distance(sub, 0, 2) == 9
        assert sub.labels == ((-5,), (0,), (4,))

    def test_basepoint_must_belong(self):
        zb = zball(5)
        with pytest.raises(ValueError):
            subspace(zb, [index(zb)[(v,)] for v in (1, 2)])

    def test_points_5_apart_are_two_1_components(self):
        # given labels took a structural flag by default, and coordinate
        # keys read these two points as one 1-component; they fill no box,
        # so the sup rule refuses them, and their table counts two
        line = FiniteSpace([(0,), (5,)], spaces_mod.SupRule.group_ball(1), 0, 5)
        assert not line.structural
        with pytest.raises(ValueError, match="^2 points of .* fill no box"):
            epsilon_components(line, 1)
        assert epsilon_components(as_dense(line), 1).count == 2

    def test_sub_boxes_keep_the_shortcut_and_holed_subsets_drop_it(self):
        zb = zball(5)
        assert zb.structural
        assert subspace(zb, [index(zb)[(v,)] for v in (0, 1)]).structural
        assert not subspace(zb, [index(zb)[(v,)] for v in (0, 2)]).structural

    def test_ultrametric_subsets_keep_it(self):
        t = tower_space([2, 2, 3])
        sub = subspace(t, [0, 1, 5, 7])
        assert sub.structural
        got = [[sub.labels[i] for i in b] for b in blocks(epsilon_components(sub, 2))]
        assert got == [[(0, 0, 0)], [(0, 0, 1), (1, 0, 1)], [(0, 1, 2)]]


class TestQuotient:
    def test_tower_quotient_drops_low_levels(self):
        q, part = quotient_with_projection(tower_space([2, 3]), 2)
        assert q.rule.descriptor() == {"kind": "tower", "orders": [3], "levels": [3]}
        assert q.labels == ((0,), (1,), (2,))
        assert blocks(part) == ((0, 3), (1, 4), (2, 5))

    def test_group_ball_quotient_collapses_free_part(self):
        sp = build_truncation(parse_group("Z + C2"), radius=4)
        q = quotient_with_projection(sp, 1)[0]
        assert len(q) == 2
        assert distance(q, 0, 1) == 2

    def test_quotient_distances_exceed_epsilon(self):
        q = quotient_with_projection(tower_space([2, 2, 3]), 2)[0]
        vals = [v for v in dist_values(q) if v > 0]
        assert vals and min(vals) > 2

    @pytest.mark.parametrize("make, eps", [
        (lambda: example31_fixture(1, 0.5, 3), 1.0),
        (lambda: subspace(zball(11), [11, 12, 13, 21, 22]), 1),
        (lambda: product_space(tower_space([2], levels=[3]), tower_space([3], levels=[3])), 1),
        (lambda: build_truncation(parse_group("Z + C2"), radius=2), 0.5),
        (lambda: example31_fixture(3, 0.1, 3), 0.2),
        (lambda: FiniteSpace(sorted(map(tuple, np.round(
            np.random.default_rng(5).uniform(-3, 3, size=(300, 2)), 3).tolist())),
            PlaneRule(), 0, 0), 0.5),
        (lambda: as_dense(tower_space([2, 3, 2])), 2),
    ], ids=["plane", "holed-zball", "coinciding-levels", "below-the-free-scale", "fixture-3",
            "plane-cloud", "dense-tower"])
    def test_quotient_without_structure_is_refused(self, make, eps):
        sp = make()
        assert sp.rule.quotient_parts(sp, eps) is None
        with pytest.raises(ValueError, match="structural quotient"):
            quotient_with_projection(sp, eps)


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

    @pytest.mark.parametrize("x, y", [
        (zball(2), tower_space([3])),
        (k_point_space(1), zball(3)),
        (zball(2, 2), k_point_space(1)),
        (k_point_space(1), k_point_space(1)),
        (k_point_space(3), zball(1, 2)),
        (build_truncation(parse_group("Z + C3"), radius=4), product_space(zball(1), k_point_space(2))),
    ])
    def test_basepoint_is_found_by_position(self, x, y):
        # the labels run over x's points in the outer loop, so the pair of
        # basepoints sits at x.basepoint * len(y) + y.basepoint
        p = product_space(x, y)
        want = p.labels.index(x.labels[x.basepoint] + y.labels[y.basepoint])
        assert p.basepoint == want
        assert p.labels[p.basepoint] == x.labels[x.basepoint] + y.labels[y.basepoint]

    def test_component_projection(self):
        # components of a product at eps below the right factor's scale are
        # left-component times point
        p = product_space(zball(3), tower_space([2], levels=[5]))
        part = epsilon_components(p, 1)
        assert part.count == 2
        for blk in blocks(part):
            rights = {p.labels[i][-1] for i in blk}
            assert len(rights) == 1

    def test_table_factors_rejected(self):
        for factor in (example31_fixture(1, 0.5, 3), as_dense(zball(2))):
            with pytest.raises(ValueError, match="sup-metric factors"):
                product_space(factor, zball(2))

    def test_budget(self):
        with pytest.raises(BudgetError):
            product_space(zball(1000), zball(1000), point_budget=10**6)


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
    for blk in blocks(fine):
        owners = {int(coarse.point_block[i]) for i in blk}
        assert len(owners) == 1


@given(small_towers, st.integers(min_value=1, max_value=5))
def test_quotient_block_count_matches_partition(sp, eps):
    q, part = quotient_with_projection(sp, eps)
    assert len(q) == part.count
    validate_metric(q)


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
    graph = graph_partition(sp, eps)
    assert blocks(keyed) == blocks(graph) == threshold_blocks(sp.dmat(), eps)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([
    product_space(zball(2), tower_space([2, 3])),
    product_space(tower_space([3]), zball(1, 2)),
    product_space(product_space(zball(1), tower_space([2])), zball(2)),
]), st.data())
def test_structural_flag_accepted_only_where_keys_are_exact(sp, data):
    # a subset is structural exactly when it is a free box times a set of
    # cyclic values, and there coordinate keys give the components
    picked = sorted(data.draw(st.sets(st.integers(0, len(sp) - 1), min_size=1)))
    sub = FiniteSpace(sp.coords[picked], sp.rule, 0, sp.inner_radius)
    free = [c for c, o in enumerate(sp.rule.orders) if o == 0]
    box = {tuple(l[c] for c in free) for l in sub.labels}
    rest = {tuple(v for c, v in enumerate(l) if c not in free) for l in sub.labels}
    spans = [max(b[k] for b in box) - min(b[k] for b in box) + 1 for k in range(len(free))]
    assert sub.structural == (math.prod(spans) * len(rest) == len(sub))
    if sub.structural:
        for eps in (0, 0.5, 1, 2, 3, 4):
            assert blocks(epsilon_components(sub, eps)) == threshold_blocks(sub.dmat(), eps)


@settings(max_examples=60, deadline=None)
@given(rule_spaces)
def test_structural_quotient_matches_single_linkage(sp):
    # the tower of the retained coordinates against scipy's single linkage
    # on all pairs, at every scale where the space has a structural quotient
    tested = 0
    for eps in [k / 2 for k in range(11)] + [math.inf]:
        if sp.rule.quotient_parts(sp, eps) is None:
            continue
        tested += 1
        q, part = quotient_with_projection(sp, eps)
        same, coph = single_linkage_quotient(sp, eps)
        assert np.array_equal(part.point_block[:, None] == part.point_block[None, :], same)
        reps = list(part.representatives)
        assert np.array_equal(q.dmat(), coph[np.ix_(reps, reps)])
    assert tested >= 10


# towers, group balls and products with distinct levels, each quotiented at
# its levels (where a tie at exactly epsilon joins two blocks), between them
# and above them all
STRUCTURAL_QUOTIENTS = {
    "tower": lambda: tower_space([2, 3, 2]),
    "tower-gapped-levels": lambda: tower_space([2, 2, 3], levels=[2, 5, 6]),
    "zball": lambda: zball(5),
    "zball-rank-2": lambda: zball(2, 2),
    "group-Z+C2": lambda: build_truncation(parse_group("Z + C2"), radius=4),
    "group-Z^2+C2": lambda: build_truncation(parse_group("Z^2 + C2"), radius=2),
    "group-Z+C2^inf": lambda: build_truncation(parse_group("Z + C2^inf"), radius=8),
    "product-of-towers": lambda: product_space(tower_space([2], levels=[2]),
                                               tower_space([3], levels=[5])),
    "product-with-a-line": lambda: product_space(zball(3), tower_space([2, 3])),
}


@pytest.mark.parametrize("eps", [1, 2, 2.5, 3, 4, 5, math.inf])
@pytest.mark.parametrize("name", list(STRUCTURAL_QUOTIENTS))
def test_structural_quotient_matches_single_linkage_at_each_level(name, eps):
    sp = STRUCTURAL_QUOTIENTS[name]()
    parts = sp.rule.quotient_parts(sp, eps)
    assert parts is not None
    q, part = quotient_with_projection(sp, eps)
    same, coph = single_linkage_quotient(sp, eps)
    assert np.array_equal(part.point_block[:, None] == part.point_block[None, :], same)
    reps = list(part.representatives)
    assert np.array_equal(q.dmat(), coph[np.ix_(reps, reps)])
    # the quotient is the tower of the cyclic coordinates above eps, based
    # at the basepoint's block
    kept = sorted(lvl for o, lvl in zip(sp.rule.orders, sp.rule.levels) if o and lvl > eps)
    assert q.rule.descriptor() == {"kind": "tower", "orders": [sp.rule.orders[c] for c in parts],
                                   "levels": kept}
    assert len(q) == part.count and q.basepoint == part.point_block[sp.basepoint]
    assert q.ultrametric and q == quotient_with_projection(sp, eps)[0]


def space_text(sp) -> str:
    """The JSON text of a space's fields, in the form the package once
    serialized spaces to: the pins below hold these texts, and their
    digests, as they were."""
    r = sp.inner_radius
    return json.dumps({
        "version": 1, "basepoint": sp.basepoint, "inner_radius": "inf" if r == math.inf else r,
        "ultrametric": sp.ultrametric, "structural": sp.structural,
        "labels": sp.label_lists(), "rule": sp.rule.descriptor(),
    })


# pinned fields and space id of every constructor: witnesses name their
# spaces by these ids. The texts are those the package once serialized; the
# ids were taken again when they became a hash of the rows' bytes
_zb3 = zball(3)
GOLDEN = {
    "zball": lambda: zball(1),
    "zball-rank2": lambda: zball(1, rank=2),
    "truncation": lambda: build_truncation(parse_group("Z + C2 + C3"), radius=2),
    "tower": lambda: tower_space([2, 3]),
    "canonical-full": lambda: canonical_ultrametric(ff({2: 1, 3: 1}), 2, 97),
    "canonical-partial": lambda: canonical_ultrametric(ff({2: 5}), 2, 97),
    "k-point": lambda: k_point_space(3),
    "one-point": lambda: k_point_space(1),
    "cantor": lambda: tower_space([2, 2], levels=[2, 4]),
    "product-left": lambda: product_space(
        product_space(zball(1), tower_space([2])), k_point_space(2)),
    "product-right": lambda: product_space(
        zball(1), product_space(tower_space([2]), k_point_space(2))),
    "subspace": lambda: subspace(_zb3, [index(_zb3)[(v,)] for v in (-1, 0, 2)]),
    "quotient": lambda: quotient_with_projection(
        build_truncation(parse_group("Z + C2 + C3"), radius=4), 1)[0],
}
GOLDEN_JSON = {
    "zball": (
        '{"version": 1, "basepoint": 1, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1], [0], [1]], "rule": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}}',
        "group-ball-3-66f98b7af3a3",
    ),
    "zball-rank2": (
        '{"version": 1, "basepoint": 4, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 0], [0, 1], [1, -1], [1, 0], [1, 1]], "rule": {"kind": "group-ball", "free_rank": 2, "cyclic_orders": [], "cyclic_levels": []}}',
        "group-ball-9-16008be37e4e",
    ),
    "truncation": (
        '{"version": 1, "basepoint": 4, "inner_radius": 2, "ultrametric": false, "structural": true, "labels": [[-2, 0], [-2, 1], [-1, 0], [-1, 1], [0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]], "rule": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [2], "cyclic_levels": [2]}}',
        "group-ball-10-6fb9afb0bd8e",
    ),
    "tower": (
        '{"version": 1, "basepoint": 0, "inner_radius": 3, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]], "rule": {"kind": "tower", "orders": [2, 3], "levels": [2, 3]}}',
        "tower-6-da2ef5965d1e",
    ),
    "canonical-full": (
        '{"version": 1, "basepoint": 0, "inner_radius": "inf", "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]], "rule": {"kind": "tower", "orders": [2, 3], "levels": [2, 3]}}',
        "tower-6-da2ef5965d1e",
    ),
    "canonical-partial": (
        '{"version": 1, "basepoint": 0, "inner_radius": 3, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [1, 0], [1, 1]], "rule": {"kind": "tower", "orders": [2, 2], "levels": [2, 3]}}',
        "tower-4-f97d36842149",
    ),
    "k-point": (
        '{"version": 1, "basepoint": 0, "inner_radius": "inf", "ultrametric": true, "structural": true, "labels": [[0], [1], [2]], "rule": {"kind": "tower", "orders": [3], "levels": [1]}}',
        "tower-3-31ebfaffae4b",
    ),
    "one-point": (
        '{"version": 1, "basepoint": 0, "inner_radius": "inf", "ultrametric": true, "structural": true, "labels": [[]], "rule": {"kind": "tower", "orders": [], "levels": []}}',
        "tower-1-39cad9fdbeb6",
    ),
    "cantor": (
        '{"version": 1, "basepoint": 0, "inner_radius": 4, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [1, 0], [1, 1]], "rule": {"kind": "tower", "orders": [2, 2], "levels": [2, 4]}}',
        "tower-4-76816d0ac0f6",
    ),
    "product-left": (
        '{"version": 1, "basepoint": 4, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1, 0, 0], [-1, 0, 1], [-1, 1, 0], [-1, 1, 1], [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], "rule": {"kind": "product", "split": 2, "left": {"kind": "product", "split": 1, "left": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}, "right": {"kind": "tower", "orders": [2], "levels": [2]}}, "right": {"kind": "tower", "orders": [2], "levels": [1]}}}',
        "product-12-056613a6b0f5",
    ),
    "product-right": (
        '{"version": 1, "basepoint": 4, "inner_radius": 1, "ultrametric": false, "structural": true, "labels": [[-1, 0, 0], [-1, 0, 1], [-1, 1, 0], [-1, 1, 1], [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], "rule": {"kind": "product", "split": 1, "left": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}, "right": {"kind": "product", "split": 1, "left": {"kind": "tower", "orders": [2], "levels": [2]}, "right": {"kind": "tower", "orders": [2], "levels": [1]}}}}',
        "product-12-7c43154cef4b",
    ),
    "subspace": (
        '{"version": 1, "basepoint": 1, "inner_radius": 3, "ultrametric": false, "structural": false, "labels": [[-1], [0], [2]], "rule": {"kind": "group-ball", "free_rank": 1, "cyclic_orders": [], "cyclic_levels": []}}',
        "group-ball-3-2212c36666e2",
    ),
    "quotient": (
        '{"version": 1, "basepoint": 0, "inner_radius": 4, "ultrametric": true, "structural": true, "labels": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]], "rule": {"kind": "tower", "orders": [2, 3], "levels": [2, 4]}}',
        "tower-6-65c19166dfd5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_serialization_is_pinned(name):
    sp = GOLDEN[name]()
    text, ident = GOLDEN_JSON[name]
    assert space_text(sp) == text
    assert space_id(sp) == ident


def test_coordinate_built_plane_fixture_serializes_like_the_label_built_one():
    # the fixture is built from its coordinate rows; the same points given
    # as (x, y) label tuples have the same fields, name and compare alike,
    # and the text is the one the label-built fixture had
    sp = example31_fixture(3, 0.1, 20)
    assert sp._labels is None
    text = space_text(sp)
    by_labels = FiniteSpace(list(zip(*sp.coords.T.tolist())), PlaneRule(), sp.basepoint,
                            sp.inner_radius)
    assert space_text(by_labels) == text
    assert space_id(sp) == space_id(by_labels) == "plane-124-d5c3eb32a039"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3eb4cb4ce25f41794ef4f562889d02d7286273e5f287b02fc5e3776fba71d22d")
    assert sp == by_labels and by_labels == sp
    assert sp._labels is None
    assert sp.labels == by_labels.labels


# spaces whose points moved from label tuples to the one row array: the
# text of their fields (by its sha256) is the one the label tuples gave
ROW_PINS = {
    "label-sup-subset": (
        lambda: FiniteSpace([(-2, 1), (0, 0), (1, 2), (3, 0)],
                            build_truncation(parse_group("Z + C3"), radius=3).rule, 1, 3),
        "group-ball-4-14602f658d4b",
        "6207e47472ac9f300bb1419040de3c4632fe8fda1875dbae503e99e4fd3209f7",
    ),
    "list-tower": (
        lambda: FiniteSpace(tower_space([2, 3, 2]).label_lists(),
                            spaces_mod.SupRule.tower([2, 3, 2], [2, 3, 4]), 0, 4),
        "tower-12-76cae8f6d5f2",
        "1162ee4e0d6227176c8144195dae893f3be1109c3e07cb54b58374930c46db71",
    ),
    "sup-quotient": (
        lambda: quotient_with_projection(product_space(zball(3), tower_space([2, 3, 2])), 2)[0],
        "tower-6-297a36070d68",
        "6b53398a6bee84b71dc61e615191d5142b88c1a358fceab16be75251af01affb",
    ),
    "group-quotient": (
        lambda: quotient_with_projection(build_truncation(parse_group("Z + C2^inf"), radius=8), 1)[0],
        "tower-8-2479ebb0a6bd",
        "922059b395fce4895d9a85496b8310eddb084eaec725820d23558ff48a3fae4b",
    ),
}


@pytest.mark.parametrize("name", sorted(ROW_PINS))
def test_row_built_spaces_serialize_as_their_label_tuples_did(name):
    make, ident, digest = ROW_PINS[name]
    sp = make()
    assert hashlib.sha256(space_text(sp).encode()).hexdigest() == digest
    assert space_id(sp) == ident
    assert all(type(v) is int for lab in sp.labels for v in lab)


SUP_RULE = spaces_mod.SupRule.group_ball(1, [3], [2])
NAN, INF = float("nan"), float("inf")

MALFORMED = {
    "plane-nan": (PlaneRule(), [(0.0, 0.0), (NAN, 1.0), (1.0, 0.0)], "must be finite"),
    "plane-inf": (PlaneRule(), [(0.0, 0.0), (1.0, -INF), (1.0, 0.0)], "must be finite"),
    "sup-ragged": (SUP_RULE, [(0, 0), (1,), (2, 1)], "width"),
    "plane-ragged": (PlaneRule(), [(0.0, 0.0), (1.0,), (2.0, 1.0)], r"\(x, y\) pairs"),
    "sup-wide": (SUP_RULE, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], "width"),
    "plane-narrow": (PlaneRule(), [(0.0,), (1.0,), (2.0,)], r"\(x, y\) pairs"),
    "sup-duplicate": (SUP_RULE, [(0, 0), (1, 2), (0, 0)], "duplicate point labels"),
    "plane-duplicate": (PlaneRule(), [(0.5, 0.0), (1.0, 2.5), (0.5, 0.0)],
                        "duplicate point labels"),
    "sup-fractional": (SUP_RULE, [(0, 0), (0.5, 1), (2, 1)], "coordinates must be integers"),
    "sup-beyond-2^53": (SUP_RULE, [(0, 0), (2**53 + 1, 1), (2, 1)],
                        "coordinates must be integers"),
    "sup-non-numeric": (SUP_RULE, [("a", 0), ("b", 1), ("c", 2)], "must be numbers"),
    "sup-cyclic-range": (spaces_mod.SupRule.tower((2,), (2,)), [(0,), (5,)],
                         r"cyclic label value outside \[0, 2\)"),
}


def _routes(rule, labels):
    """Every route that builds a space from given label rows."""
    rect = len(set(map(len, labels))) == 1
    return {
        "labels": lambda: FiniteSpace(labels, rule, 0, 1),
        "array": lambda: FiniteSpace(np.array(labels) if rect else labels, rule, 0, 1),
    }


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_points_raise_one_error_on_every_route(case):
    rule, labels, message = MALFORMED[case]
    errors = set()
    for route, build in _routes(rule, labels).items():
        with pytest.raises(ValueError, match=message) as exc:
            build()
        errors.add(str(exc.value))
    assert len(errors) == 1, errors


@pytest.mark.parametrize("rule,good", [
    (PlaneRule(), [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]),
    (SUP_RULE, [(0, 0), (1, 2), (2, 1)]),
], ids=["plane", "sup"])
def test_good_points_build_alike_on_every_route(rule, good):
    built = [build() for build in _routes(rule, good).values()]
    assert all(sp == built[0] and space_text(sp) == space_text(built[0]) for sp in built)


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
        assert [distance(sp, i, j) for j in range(len(sp))] == want


# ---------------------------------------------------------------------------
# spaces built from coordinates against the label tuples they replaced


def old_box_labels(ranges):
    return list(itertools.product(*ranges))


def old_product_labels(x, y):
    return [a + b for a in x.labels for b in y.labels]


def assert_labels(space, want):
    """Unbuilt labels that read as the wanted tuples of Python ints."""
    assert space._labels is None
    assert len(space) == len(want)
    assert space.labels == tuple(want)
    assert all(type(v) is int for lab in space.labels for v in lab)
    assert space.labels is space.labels


@pytest.mark.parametrize("radius", [0, 1, 3])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_zball_labels_match_the_product_loop(radius, rank):
    assert_labels(zball(radius, rank), old_box_labels([range(-radius, radius + 1)] * rank))


@pytest.mark.parametrize("orders", [[], [2], [3, 2], [2, 3, 5]])
def test_tower_labels_match_the_product_loop(orders):
    assert_labels(tower_space(orders), old_box_labels([range(o) for o in orders]))
    rewrapped = canonical_ultrametric(ff({2: 1, 3: 1, 5: 1}), len(orders), 97)
    assert rewrapped.labels == tuple(old_box_labels([range(o) for o in rewrapped.rule.orders]))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_k_point_labels_match_the_old_builder(k):
    sp = k_point_space(k)
    labels = [()] if k == 1 else [(i,) for i in range(k)]
    assert_labels(sp, labels)
    rule = spaces_mod.SupRule.tower(*(((), ()) if k == 1 else ((k,), (1,))))
    old = FiniteSpace(labels, rule, 0, math.inf)
    assert sp == old and space_id(sp) == space_id(old) and space_text(sp) == space_text(old)


@settings(max_examples=40, deadline=None)
@given(nested_products, nested_products)
def test_product_labels_match_concatenation(a, b):
    x, y = a[0], b[0]
    assume(len(x) * len(y) <= 600)
    want = old_product_labels(x, y)
    sp = product_space(x, y)
    assert_labels(sp, want)
    assert sp.basepoint == want.index(x.labels[x.basepoint] + y.labels[y.basepoint])


def test_coordinate_rows_are_checked_like_labels():
    rule = spaces_mod.SupRule.tower((2, 3), (2, 3))
    with pytest.raises(ValueError, match="duplicate point labels"):
        FiniteSpace(np.array([[0, 1], [1, 2], [0, 1]]), rule, 0, 1)
    # rows out of order are sorted before neighbours are compared
    with pytest.raises(ValueError, match="duplicate point labels"):
        FiniteSpace(np.array([[1, 2], [0, 0], [1, 0], [1, 2]]), rule, 0, 1)
    sp = FiniteSpace(np.array([[1, 2], [0, 0], [1, 0]]), rule, 1, 1)
    assert sp.labels == ((1, 2), (0, 0), (1, 0))
    with pytest.raises(ValueError, match="basepoint index out of range"):
        FiniteSpace(np.array([[1, 2], [0, 0], [1, 0]]), rule, 3, 1)
    with pytest.raises(ValueError, match="label width"):
        FiniteSpace(np.array([[1], [0]]), rule, 0, 1)
    with pytest.raises(ValueError, match="duplicate point labels"):
        FiniteSpace(np.empty((2, 0)), spaces_mod.SupRule.tower((), ()), 0, 1)
    for bad in ([[0.5, 0], [1, 0]], [[np.nan, 0], [1, 0]], [[2.0**60, 0], [1, 0]]):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            FiniteSpace(np.array(bad), rule, 0, 1)
    # plane rows are finite pairs
    with pytest.raises(ValueError, match=r"\(x, y\) pairs"):
        FiniteSpace(np.array([[0.0, 0, 0], [1, 0, 0]]), PlaneRule(), 0, 1)
    with pytest.raises(ValueError, match="must be finite"):
        FiniteSpace(np.array([[0.5, 0], [np.nan, 1]]), PlaneRule(), 0, 1)
    with pytest.raises(ValueError, match="duplicate point labels"):
        FiniteSpace(np.array([[0.5, 0], [1, 2.5], [0.5, 0]]), PlaneRule(), 0, 1)
    plane = FiniteSpace(np.array([[1, 2.5], [0.5, 0]]), PlaneRule(), 1, 1)
    assert plane.labels == ((1.0, 2.5), (0.5, 0.0))


def _label_equal(a, b):
    return a.labels == b.labels and a.basepoint == b.basepoint and a.rule == b.rule


@settings(max_examples=60, deadline=None)
@given(nested_products, nested_products, st.data())
def test_equality_agrees_with_label_equality(a, b, data):
    x, y = a[0], b[0]
    copy = FiniteSpace(x.labels, x.rule, x.basepoint, x.inner_radius)
    assert copy == x and x == copy and _label_equal(copy, x) and x != x.labels
    assert (x == y) == _label_equal(x, y)
    # one label moved by 1000 in a free coordinate, or dropped where all
    # are cyclic (a moved cyclic value would leave the group): a
    # label-built space against the coordinate-built one
    if len(x) > 1 and len(x.rule.orders):
        k = data.draw(st.integers(0, len(x) - 2))
        k += k >= x.basepoint  # never the basepoint
        labels = list(x.labels)
        free = [c for c, o in enumerate(x.rule.orders) if o == 0]
        if free:
            c = free[0]
            labels[k] = labels[k][:c] + (labels[k][c] + 1000,) + labels[k][c + 1:]
            moved = FiniteSpace(labels, x.rule, x.basepoint, x.inner_radius)
        else:
            del labels[k]
            moved = FiniteSpace(labels, x.rule, x.basepoint - (k < x.basepoint), x.inner_radius)
        assert (moved == x) is False and _label_equal(moved, x) is False
    other = FiniteSpace(x.labels, x.rule, (x.basepoint + 1) % len(x), x.inner_radius)
    assert (other == x) == _label_equal(other, x)


def test_plane_labels_must_be_pairs():
    with pytest.raises(ValueError, match=r"plane labels must be \(x, y\) pairs"):
        FiniteSpace([(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)], PlaneRule(), 0, 1)
    with pytest.raises(ValueError, match=r"plane labels must be \(x, y\) pairs"):
        FiniteSpace([(0.0,), (1.0,)], PlaneRule(), 0, 1)
    with pytest.raises(ValueError, match=r"plane labels must be \(x, y\) pairs"):
        FiniteSpace([(0.0, 0.0), (1.0,)], PlaneRule(), 0, 1)


def stated_id(space):
    """space_id as its docstring states it, read from the label tuples: the
    sorted-key JSON of [descriptor, basepoint], then every label value as
    a little-endian float64, row after row, -0.0 as 0.0."""
    descriptor = space.rule.descriptor()
    head = json.dumps([descriptor, space.basepoint], sort_keys=True, default=str)
    rows = b"".join(struct.pack(f"<{len(lab)}d", *(float(v) + 0.0 for v in lab))
                    for lab in space.labels)
    return f"{descriptor['kind']}-{len(space)}-{hashlib.sha1(head.encode() + rows).hexdigest()[:12]}"


def _regrouped(layout):
    """Another nesting of the same factors: ((a, b), c) as (a, (b, c)) and
    (a, (b, c)) as ((a, b), c); None for a layout that is not a product of
    a product."""
    if not isinstance(layout, tuple):
        return None
    s, left, right = layout
    if isinstance(left, tuple):
        return left[0], left[1], (s - left[0], left[2], right)
    if isinstance(right, tuple):
        return s + right[0], (s, left, right[1]), right[2]
    return None


def same_spaces(sp):
    """The space built again on other routes; each equals it."""
    rows, again = sp.coords, lambda labels: FiniteSpace(labels, sp.rule, sp.basepoint, 1)
    c_rows = copy.copy(sp)
    c_rows.coords = np.ascontiguousarray(rows)  # the id reads values, not memory order
    same = {"labels": again(sp.labels), "float-rows": again(rows.astype(float)),
            "c-order": again(np.ascontiguousarray(rows)),
            "fortran-order": again(np.asfortranarray(rows)), "c-order-coords": c_rows,
            "inner-radius": sp.with_inner_radius(sp.inner_radius + 7),
            "negative-zero": again(np.where(rows == 0, -0.0, rows))}
    if np.array_equal(rows, np.trunc(rows)):
        same["int-rows"] = again(rows.astype(np.int64))
    return same


def edited_spaces(sp):
    """The space with one field changed; none equals it."""
    rule, labels = sp.rule, list(sp.labels)
    orders = getattr(rule, "orders", ())  # sup rules; a plane test moves its own coordinate
    edits = {}
    if len(sp) > 1:
        edits["basepoint"] = FiniteSpace(labels, rule, (sp.basepoint + 1) % len(sp), 1)
    free = [c for c, o in enumerate(orders) if o == 0]
    if free:  # one coordinate of one label, moved past every other label
        c, k = free[0], len(sp) - 1
        labels[k] = labels[k][:c] + (labels[k][c] + 1000,) + labels[k][c + 1:]
        edits["coordinate"] = FiniteSpace(labels, rule, sp.basepoint, 1)
    cyclic = [c for c, o in enumerate(orders) if o]
    if cyclic:  # the last cyclic level raised by one: its factor's levels still increase
        levels = list(rule.levels)
        levels[cyclic[-1]] += 1
        edits["level"] = FiniteSpace(sp.coords, dataclasses.replace(rule, levels=tuple(levels)),
                                     sp.basepoint, 1)
    regrouped = _regrouped(getattr(rule, "layout", None))
    if regrouped:
        edits["nesting"] = FiniteSpace(sp.coords, dataclasses.replace(rule, layout=regrouped),
                                       sp.basepoint, 1)
    return edits


def assert_ids_tell_spaces_apart(sp):
    same, edited = same_spaces(sp), edited_spaces(sp)
    assert all(other == sp for other in same.values())
    assert not any(other == sp for other in edited.values())
    spaces = [sp, *same.values(), *edited.values()]
    for a, b in itertools.combinations(spaces, 2):
        assert (space_id(a) == space_id(b)) == (a == b)
    assert space_id(sp) == stated_id(sp)
    return edited


@settings(max_examples=60, deadline=None)
@given(nested_products)
def test_space_ids_are_equal_exactly_when_spaces_are(built):
    edited = assert_ids_tell_spaces_apart(built[0])
    event(" ".join(sorted(edited)))


@pytest.mark.parametrize("make,edits", [
    (lambda: zball(2, 2), {"basepoint", "coordinate"}),
    (lambda: k_point_space(1), set()),
    (lambda: k_point_space(3), {"basepoint", "level"}),
    (lambda: GOLDEN["product-left"](), {"basepoint", "coordinate", "level", "nesting"}),
    (lambda: GOLDEN["product-right"](), {"basepoint", "coordinate", "level", "nesting"}),
    (lambda: build_truncation(parse_group("Z + C2 + C3"), radius=2),
     {"basepoint", "coordinate", "level"}),
    (lambda: subspace(zball(3), [0, 2, 3]), {"basepoint", "coordinate"}),
    (lambda: quotient_with_projection(product_space(zball(3), tower_space([2, 3, 2])), 2)[0],
     {"basepoint", "level"}),
    (lambda: FiniteSpace([(-(2**53), -7, 1), (-3, 0, 0), (-1, 2**53, 1)],
                         spaces_mod.SupRule.group_ball(2, [2], [2]), 1, 3),
     {"basepoint", "coordinate", "level"}),
], ids=["zball", "k1", "k3", "product-left", "product-right", "truncation", "subspace",
        "quotient", "wide"])
def test_space_ids_tell_apart_one_field_edits(make, edits):
    assert set(assert_ids_tell_spaces_apart(make())) == edits


def test_plane_ids_read_values_and_hash_negative_zero_as_zero():
    sp = example31_fixture(2, 0.25, 3)
    zeros = np.where(sp.coords == 0, -0.0, sp.coords)
    signed = FiniteSpace(zeros, PlaneRule(), sp.basepoint, sp.inner_radius)
    assert np.signbit(signed.coords).sum() > np.signbit(sp.coords).sum()
    assert signed == sp and space_id(signed) == space_id(sp)
    assert_ids_tell_spaces_apart(sp)
    # one coordinate one ulp away is another space with another id
    moved = sp.coords.copy()
    moved[3, 0] = np.nextafter(moved[3, 0], np.inf)
    ulp = FiniteSpace(moved, PlaneRule(), sp.basepoint, sp.inner_radius)
    assert ulp != sp and space_id(ulp) != space_id(sp)


def test_dense_ids_read_values_not_dtypes():
    # the generic rule keeps the dtype of its rows: int and float rows of
    # the same values are one space with one id
    matrix = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    ints = dense_space(matrix, 0, 1)
    floats = FiniteSpace(ints.coords.astype(float), ints.rule, 0, 1)
    assert ints.coords.dtype.kind == "i" and floats.coords.dtype.kind == "f"
    assert ints == floats and space_id(ints) == space_id(floats) == stated_id(ints)


def test_space_ids_build_no_label_tuples():
    from coarseiso.witness import iso_witness_chain

    # the ends of `coarseiso witness "Z^2 + C4" "Z^2" --radius 100`: 41,004
    # source and 40,401 target points
    w = iso_witness_chain(coarse_isomorphic(parse_group("Z^2 + C4"), parse_group("Z^2")),
                          radius=100, depth=4, prime_bound=97, deltas=(), point_budget=10**6)
    for sp in (w.source, w.target):
        assert sp._labels is None
        ident = space_id(sp)
        assert sp._labels is None
        assert ident == stated_id(sp)


@pytest.mark.parametrize("fn,removed", [
    ("spaces.build_truncation", "schedule"),
    ("spaces.FiniteSpace", "coords"),
    ("analysis.foelner_search", "max_points"),
    ("analysis._cluster_scales", "rel"),
    ("factorfn.phi_of_nat", "limit"),
    ("witness.factorization_witness", "deltas"),
    ("witness.relabel_witness", "deltas"),
    ("witness.product_witness", "deltas"),
    ("witness.invert_witness", "deltas"),
    ("witness.absorption_witness", "point_budget"),
    ("witness.relabel_witness", "columns"),
    ("analysis.estimate_factorizing_step", "max_tested"),
    ("analysis.estimate_factorizing_step", "window_fractions"),
    ("spaces.subspace", "basepoint"),
])
def test_removed_parameters_stay_removed(fn, removed):
    # no program call set these; their values are module constants, the
    # standard scales or the ambient basepoint now
    module, name = fn.split(".")
    obj = getattr(importlib.import_module(f"coarseiso.{module}"), name)
    assert removed not in inspect.signature(obj).parameters


def test_schedule_alias_is_gone():
    assert not hasattr(spaces_mod, "Schedule")


@pytest.mark.parametrize("module, name", [
    ("spaces", "validate_metric"), ("spaces", "_verify_ultrametric"),
    ("spaces", "EXHAUSTIVE_LIMIT"), ("spaces", "cantor_cube_truncation"),
    ("spaces", "quotient_space"), ("factorfn", "ff_add"), ("factorfn", "ff_parse"),
    ("factorfn", "ZERO_FF"), ("groups", "is_locally_finite"),
    ("spaces", "FiniteSpace.d"), ("spaces", "SupRule.distance"),
    ("spaces", "PlaneRule.distance"), ("spaces", "FiniteSpace.index"),
    ("spaces", "ComponentPartition.blocks"), ("spaces", "FiniteSpace.to_json"),
    ("spaces", "FiniteSpace.from_json"), ("spaces", "_rule_from_descriptor"),
    ("witness", "TowerAlignment.to_json"), ("factorfn", "FactorFunction.as_dict"),
    ("spaces", "MetricRule.label_json"), ("spaces", "SupRule.label_json"),
    ("spaces", "MetricRule.chain"), ("spaces", "MetricRule.components"),
    ("spaces", "MetricRule.checked_coords"),
])
def test_test_only_names_left_the_package(module, name):
    # the metric and distance oracles, the label and block lookups, and the
    # factor-function parser and sum live in tests/oracles.py; the one-line
    # wrappers gave way to what they wrap; space serialization is gone, and
    # with it, once space ids hashed the rows, the rules' label writers;
    # the Prim chain and
    # the threshold-graph components, which only the tests took, are
    # prim_chain and graph_components there; each rule checks its own
    # labels
    owner = importlib.import_module(f"coarseiso.{module}")
    *path, name = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, name) and not hasattr(importlib.import_module("coarseiso"), name)


def test_the_extnat_module_left_the_package():
    # ranks and exponents are ints or math.inf; the reference ExtNat is
    # tests/oracles.py's
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("coarseiso.extnat")
    root = importlib.import_module("coarseiso")
    assert not hasattr(root, "ExtNat") and not hasattr(root, "INF")


def test_partitions_compare_by_identity():
    # nothing in the package compares partitions; the tests compare blocks
    part = epsilon_components(tower_space([2, 3]), 2)
    assert spaces_mod.ComponentPartition.__eq__ is object.__eq__
    assert spaces_mod.ComponentPartition.__hash__ is object.__hash__
    assert part != epsilon_components(tower_space([2, 3]), 2)


def test_the_metric_oracle_reads_every_triple_or_refuses():
    # 511 points are read on every triple, 513 are refused, not sampled
    validate_metric(zball(255))
    with pytest.raises(ValueError, match="^513 points exceed the 512 whose triples are all read$"):
        validate_metric(zball(256))
    # d(0, 2) = 3 > d(0, 1) + d(1, 2); and d(0, 2) = 2 > max(d(0, 1), d(1, 2))
    # on a table that claims to be an ultrametric
    with pytest.raises(ValueError, match="^triangle inequality violated$"):
        validate_metric(dense_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]], 0, 1))
    sp = dense_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0, 1)
    validate_metric(sp)
    sp.rule.is_ultrametric = True
    with pytest.raises(ValueError, match="^strong triangle inequality violated$"):
        validate_metric(sp)


def two_points_5_apart():
    """A sup line of two points 5 apart, which fill no box."""
    return FiniteSpace([(0,), (5,)], spaces_mod.SupRule.group_ball(1), 0, 5)


NO_BOX = ("2 points of FiniteSpace(2 points, group-ball, R=5) fill no box: a sup rule reads "
          "chains and components only on boxes")


@pytest.mark.parametrize("make, error, message", [
    (lambda: zball(3300).dmat(), BudgetError, "dense matrix of 6601 points exceeds 6500"),
    (lambda: FiniteSpace(np.zeros(3), spaces_mod.SupRule.group_ball(1), 0, 0), ValueError,
     "coordinates must be an (n, k) array"),
    (lambda: FiniteSpace([[[1]], [[2]]], spaces_mod.SupRule.group_ball(1), 0, 0), ValueError,
     "coordinates must be an (n, k) array"),
    (lambda: FiniteSpace([(1,), (object(),)], spaces_mod.SupRule.group_ball(1), 0, 0),
     ValueError, "point labels must be numbers"),
    (lambda: FiniteSpace([(1,), ("1",)], spaces_mod.SupRule.group_ball(1), 0, 0), ValueError,
     "point labels must be numbers"),
    # None and text are no numbers, though numpy's float cast reads them as
    # NaN and as the number the text spells
    (lambda: FiniteSpace([(1,), (None,)], spaces_mod.SupRule.group_ball(1), 0, 0), ValueError,
     "point labels must be numbers"),
    (lambda: FiniteSpace([(1.0, 2.0), (None, 0.0)], PlaneRule(), 0, 0), ValueError,
     "point labels must be numbers"),
    (lambda: FiniteSpace([(2**70,), ("1",)], spaces_mod.SupRule.group_ball(1), 0, 0),
     ValueError, "point labels must be numbers"),
    # an int past 64 bits makes the rows objects, read as float64
    (lambda: FiniteSpace([(2**70,), (1,)], spaces_mod.SupRule.group_ball(1), 0, 0),
     ValueError, "coordinates must be integers"),
    # an int past float64's range reads as infinite
    (lambda: FiniteSpace([(10**400,), (1,)], spaces_mod.SupRule.group_ball(1), 0, 0),
     ValueError, "coordinates must be integers"),
    (lambda: FiniteSpace([(1.0, 2.0), (-(10**400), 0.0)], PlaneRule(), 0, 0), ValueError,
     "plane coordinates must be finite"),
    (lambda: FiniteSpace([], spaces_mod.SupRule.group_ball(1), 0, 0), ValueError,
     "basepoint index out of range"),
    (lambda: build_truncation(parse_group("Z + C2"), radius=-1), ValueError,
     "radius must be >= 0"),
    (lambda: canonical_ultrametric(FactorFunction.from_dict({2: 1}), -1, 97), ValueError,
     "depth must be >= 0"),
    (lambda: k_point_space(0), ValueError, "k must be >= 1"),
    # a sup space that fills no box: no coordinate keys read it
    (lambda: epsilon_components(two_points_5_apart(), 1), ValueError, NO_BOX),
    (lambda: spaces_mod.SupRule.group_ball(1).chain(two_points_5_apart(), np.arange(2)),
     ValueError, NO_BOX),
    (lambda: estimate_factorizing_step(two_points_5_apart()), ValueError, NO_BOX),
], ids=["dense-limit", "array-of-one-axis", "rows-of-rows", "not-a-number", "text",
        "none-sup", "none-plane", "text-beside-a-wide-int", "wide-int", "huge-int-sup",
        "huge-int-plane", "no-labels",
        "negative-radius", "negative-depth", "no-point", "components-of-no-box",
        "chain-of-no-box", "step-of-no-box"])
def test_every_refusal_of_outside_input(make, error, message):
    with pytest.raises(error) as refused:
        make()
    assert type(refused.value) is error and str(refused.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: zball(10, rank=10000), "more than 10^13222 points exceed the budget of 1000000"),
    (lambda: tower_space([2] * 20000), "more than 10^6020 points exceed the budget of 1000000"),
    (lambda: zball(1, rank=100, point_budget=10**40),
     "more than 10^47 points exceed the budget of more than 10^39"),
    (lambda: zball(1, rank=3, point_budget=26), "27 points exceed the budget of 26"),
], ids=["ball-of-rank-10000", "tower-of-20000", "budget-past-30-digits", "small"])
def test_budget_refusals_word_counts_of_any_size(make, message):
    # past 4,300 digits Python refuses to write an int, so a count that
    # large was a plain ValueError about int conversion
    with pytest.raises(BudgetError) as refused:
        make()
    assert str(refused.value) == message


def test_a_long_tower_of_mixed_orders_is_refused_by_its_exact_count():
    # 2^100000 * 3^50000 points, counted by one power per order, not by a
    # product over the 150,000 orders one by one
    count = 2**100000 * 3**50000
    power = int(100000 * math.log10(2) + 50000 * math.log10(3))
    assert 10**power < count <= 10**(power + 1)
    with pytest.raises(BudgetError) as refused:
        tower_space([2] * 100000 + [3] * 50000)
    assert str(refused.value) == f"more than 10^{power} points exceed the budget of 1000000"


def test_a_refused_canonical_tower_builds_no_per_level_tuple():
    # the budget counts the 900,000 orders before any per-level tuple is
    # laid out: the int orders and the levels, 7.2 MB each, came first
    orders = [2] * 900_000
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as refused:
            tower_space(orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "more than 10^270926 points exceed the budget of 1000000"
    assert peak < 2 * 10**6


def test_counts_past_30_digits_name_the_power_of_10_they_exceed():
    assert spaces_mod._count_text(10**30) == "1" + "0" * 30
    assert spaces_mod._count_text(10**30 + 1) == "more than 10^30"
    for e in range(100, 20000, 997):
        for count in (10**e, 10**e + 1, 2**e, 3**e, 10**(e + 1) - 1):
            power = int(spaces_mod._count_text(count).removeprefix("more than 10^"))
            assert 10**power < count <= 10**(power + 1)
