"""Step estimation, empirical factor profiles, oscillation, Folner boxes,
and dimension covers, each checked against a hand or brute-force oracle."""

from __future__ import annotations

import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarseiso import analysis as analysis_mod
from coarseiso import plane as plane_mod
from coarseiso import primes as primes_mod
from coarseiso import spaces as spaces_mod
from coarseiso.analysis import (
    _select_tested,
    asdim_cover,
    empirical_phi,
    estimate_factorizing_step,
    foelner_search,
    oscillation,
)
from coarseiso.factorfn import FactorFunction
from coarseiso.groups import parse_group
from coarseiso.plane import _kruskal_chain
from coarseiso.spaces import (
    FiniteSpace,
    PlaneRule,
    SupRule,
    build_truncation,
    canonical_ultrametric,
    epsilon_components,
    example31_fixture,
    k_point_space,
    product_space,
    quotient_with_projection,
    row_blocks,
    subspace,
    tower_space,
    zball,
)


sys.path.insert(0, str(Path(__file__).resolve().parent))

from dense_rule import as_dense, dense_space  # noqa: E402
from oracles import (  # noqa: E402
    blocks,
    chain_cophenet,
    distance,
    index,
    prim_chain,
    prim_heights,
    single_linkage_cophenet,
    single_linkage_heights,
)

# the refusal of a sup rule's chains and components on points that fill no box
NO_BOX = r"^\d+ points of FiniteSpace\(.*\) fill no box: a sup rule reads chains and"


def ff(values, default=0):
    return FactorFunction.from_dict(values, default)


def brute_oscillation(source, target, src_idx, dst_idx, delta):
    best = 0.0
    for a in range(len(src_idx)):
        for b in range(len(src_idx)):
            if distance(source, int(src_idx[a]), int(src_idx[b])) <= delta:
                best = max(best, float(distance(target, int(dst_idx[a]), int(dst_idx[b]))))
    return best


def oscillation_at(source, target, src_idx, dst_idx, delta):
    """The forward and backward values of oscillation at one scale."""
    (fwd,), (bwd,) = oscillation(source, target, src_idx, dst_idx, [delta])
    return fwd, bwd


def rowwise_oscillation(source, target, src_idx, dst_idx, delta):
    """The one-row-at-a-time loop the blocked kernel replaced."""
    best = 0.0
    for k in range(len(src_idx)):
        row = source.dists_from(int(src_idx[k]))[src_idx]
        near = np.flatnonzero(row <= delta + 1e-12)
        best = max(best, float(np.max(target.dists_from(int(dst_idx[k]))[dst_idx[near]])))
    return best


class TestEmpiricalPhi:
    def test_canonical_model_recovers_its_profile(self):
        sp = canonical_ultrametric(ff({2: 2, 3: 1}), 3, 97)
        assert empirical_phi(sp, 97) == ff({2: 2, 3: 1})

    def test_truncation_caps_the_exponent(self):
        sp = build_truncation(parse_group("C2^inf"), radius=16)
        assert empirical_phi(sp, 97) == ff({2: 4})

    def test_cantor_cube(self):
        assert empirical_phi(tower_space([2] * 4, levels=[2, 4, 8, 16]), 97) == ff({2: 4})

    def test_single_point(self):
        assert empirical_phi(k_point_space(1), 97) == FactorFunction()

    def test_partial_mass_from_deeper_profile(self):
        sp = canonical_ultrametric(ff({2: 3, 5: 1}), 4, 97)
        assert empirical_phi(sp, 97) == ff({2: 3, 5: 1})

    def test_mass_above_depth_is_capped(self):
        # four maximal exponents only fit 12 of their 16 summands; the model
        # needs a raised point budget and reports the truncated content
        phi = ff({2: 4, 3: 4, 5: 4, 7: 4})
        sp = canonical_ultrametric(phi, 12, 97, point_budget=2_000_000)
        assert len(sp) == 1_134_000
        assert empirical_phi(sp, 97) == ff({2: 4, 3: 4, 5: 3, 7: 1})

    def test_needs_ultrametric(self):
        with pytest.raises(ValueError):
            empirical_phi(zball(4), 97)

    def test_prime_bound_filters(self):
        sp = tower_space([101])
        assert empirical_phi(sp, prime_bound=97) == FactorFunction()

    def test_huge_prime_bound_sizes_nothing(self, monkeypatch):
        # the bound only filters the primes factorize found, so a value far
        # beyond any ball order must not size a sieve (10 GB at 10**10)
        def sieve_guard(bound):
            assert bound <= 10**5, f"sieve of {bound} bytes"
            return sieve(bound)

        sieve = primes_mod.primes_upto
        monkeypatch.setattr(primes_mod, "primes_upto", sieve_guard)
        monkeypatch.setattr(analysis_mod, "primes_upto", sieve_guard, raising=False)
        sp = canonical_ultrametric(ff({2: 3, 5: 1, 101: 1}), 5, prime_bound=101)
        assert empirical_phi(sp, prime_bound=10**10) == ff({2: 3, 5: 1, 101: 1})
        assert empirical_phi(sp, prime_bound=97) == ff({2: 3, 5: 1})


class TestStepEstimate:
    def test_group_models_have_step_zero(self):
        est = estimate_factorizing_step(zball(200))
        assert est.estimate == 0.0
        assert est.stable_from == 3.0  # smallest positive tested scale
        assert not est.inconclusive

    def test_small_tower_inconclusive_but_stable(self):
        est = estimate_factorizing_step(tower_space([2, 2, 3, 3, 2]))
        assert est.estimate == 0.0
        assert est.stable_from == 0.0
        assert est.inconclusive

    def test_mixed_truncation_stabilizes_at_one(self):
        sp = build_truncation(parse_group("Z + C2^inf"), radius=16)
        est = estimate_factorizing_step(sp)
        assert est.estimate == 0.0
        assert est.stable_from == 1.0

    def test_curve_fixture_coarse_sample(self):
        est = estimate_factorizing_step(example31_fixture(8, 0.01, 50))
        assert est.estimate == pytest.approx(3.243185308, abs=1e-6)
        assert not est.inconclusive

    def test_json_shape(self):
        est = estimate_factorizing_step(zball(50))
        payload = est.to_json()
        assert set(payload) == {
            "estimate", "stable_from", "candidates", "tested", "windows",
            "inconclusive",
        }


class TestOscillation:
    def test_identity_on_zball(self):
        sp = zball(20)
        idx = np.arange(len(sp))
        for delta in (1.0, 3.0, 7.0):
            assert oscillation_at(sp, sp, idx, idx, delta) == (delta, delta)

    def test_empty_table(self):
        sp = zball(2)
        assert oscillation_at(sp, sp, np.array([]), np.array([]), 1.0) == (0.0, 0.0)
        assert oscillation(sp, sp, np.array([]), np.array([]), [1.0, 2.0]) == (
            [0.0, 0.0], [0.0, 0.0])

    def test_mismatched_lengths(self):
        sp = zball(2)
        with pytest.raises(ValueError):
            oscillation_at(sp, sp, np.array([0]), np.array([0, 1]), 1.0)

    def test_matches_brute_force_on_reversal(self):
        sp = zball(8)
        idx = np.arange(len(sp))
        rev = idx[::-1].copy()
        for delta in (0.0, 1.0, 2.0, 5.0):
            want = brute_oscillation(sp, sp, idx, rev, delta)
            back = brute_oscillation(sp, sp, rev, idx, delta)
            assert oscillation_at(sp, sp, idx, rev, delta) == (want, back)

    def test_matches_brute_force_tower_to_ball(self):
        t = tower_space([2, 3])
        zb = zball(3)
        src = np.arange(6)
        dst = np.array([index(zb)[(v,)] for v in (-3, -2, -1, 1, 2, 3)])
        for delta in (2.0, 3.0):
            want = brute_oscillation(t, zb, src, dst, delta)
            back = brute_oscillation(zb, t, dst, src, delta)
            assert oscillation_at(t, zb, src, dst, delta) == (want, back)

    def test_subset_source_ultrametric_path(self):
        t = tower_space([2, 2, 2])
        sub = np.array([0, 3, 5, 6])
        dst = np.array([0, 1, 2, 3])
        zb = zball(4)
        for delta in (2.0, 3.0, 4.0):
            want = brute_oscillation(t, zb, sub, dst, delta)
            back = brute_oscillation(zb, t, dst, sub, delta)
            assert oscillation_at(t, zb, sub, dst, delta) == (want, back)


class TestFoelner:
    def test_zball_box(self):
        f = foelner_search(zball(100), 1.1, 1)
        assert (f.k, f.size, f.neighborhood_size) == (10, 21, 23)
        assert f.ratio == pytest.approx(23 / 21)
        assert len(f.indices) == f.size

    def test_tower_subgroup_ball_is_exact(self):
        f = foelner_search(tower_space([2, 2, 2]), 1.1, 2)
        assert (f.k, f.size, f.neighborhood_size, f.ratio) == (2, 2, 2, 1.0)

    def test_non_structural_ball_is_recounted(self):
        # a ball count would include the missing label 2 in the neighbourhood
        zb = zball(10)
        sp = subspace(zb, [i for i, lab in enumerate(zb.labels) if lab != (2,)])
        f = foelner_search(sp, 1.3, 1)
        assert (f.k, f.size, f.neighborhood_size) == (2, 4, 5)
        near = sp.dmat()[list(f.indices)].min(axis=0) <= 1
        assert f.neighborhood_size == int(near.sum())

    def test_no_box_fits(self):
        assert foelner_search(zball(5), 1.01, 3) is None

    def test_growth_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            foelner_search(zball(5), 1.0, 1)

    def test_an_oversize_recount_is_a_budget_error(self):
        # the plane rule has no ball count, so the neighbourhood of the
        # basepoint's ball would be recounted over every point
        sp = example31_fixture(96, 0.01, 1000)
        assert len(sp) == 30361 > analysis_mod.RECOUNT_LIMIT == 30000
        with pytest.raises(spaces_mod.BudgetError,
                           match="^30361 points exceed the neighbourhood recount's limit of 30000$"):
            foelner_search(sp, 1.1, 1.0)

    @pytest.mark.parametrize("make", [lambda: zball(100), lambda: example31_fixture(2, 0.5, 5)],
                             ids=["group", "fixture"])
    def test_infinite_epsilon_is_refused(self, make):
        # k + inf never fits in the radius, so no radius could find a box
        with pytest.raises(ValueError, match="foelner epsilon must be finite, got inf"):
            foelner_search(make(), 1.1, math.inf)

    def test_product_set_stays_in_one_component(self):
        # the found box projects into a single component of the right scale
        p = product_space(zball(20), tower_space([2], levels=[24]))
        f = foelner_search(p, 1.1, 1)
        assert f is not None
        part = epsilon_components(p, 1)
        owners = {int(part.point_block[i]) for i in f.indices}
        assert len(owners) == 1
        frees = sorted(p.labels[i][0] for i in f.indices)
        assert frees == list(range(-f.k, f.k + 1))


def per_block_cover(rank, epsilon, radius):
    """The blocks and mesh of asdim_cover as its loop over block ids read
    them, one mask of every point per block."""
    if rank == 0:
        return ((tuple(),),), 0.0
    eps = max(1, math.ceil(epsilon))
    axes = [np.arange(-radius, radius + 1)] * rank
    coords = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    ids = (analysis_mod._bcc_ids(coords, eps) if rank == 3
           else analysis_mod._brick_ids(coords, eps, rank))
    mesh, blocks = 0.0, []
    for bid in np.unique(ids):
        members = coords[ids == bid]
        mesh = max(mesh, float(np.max(members.max(axis=0) - members.min(axis=0))))
        blocks.append(tuple(tuple(int(v) for v in row) for row in members))
    return tuple(blocks), mesh


class TestCover:
    @pytest.mark.parametrize("rank,epsilon,radius", [
        (0, 1, 3), (1, 1, 0), (1, 1, 9), (1, 0.4, 2), (1, 3, 50), (1, 7, 100), (2, 1, 0),
        (2, 1, 7), (2, 2, 12), (2, 3.5, 10), (3, 1, 4), (3, 2, 5), (3, 0.5, 3),
    ])
    def test_blocks_and_mesh_match_the_per_block_loop(self, rank, epsilon, radius):
        cover = asdim_cover(rank, epsilon, radius)
        blocks, mesh = per_block_cover(rank, epsilon, radius)
        assert cover.blocks == blocks
        assert all(type(v) is int for block in cover.blocks for row in block for v in row)
        assert cover.mesh == mesh and type(cover.mesh) is float

    def test_a_large_rank_one_cover_groups_its_points_once(self):
        # 120,001 points in 30,001 blocks: a mask of every point per block
        # took over ten seconds here, one sort of the ids about a tenth
        start = time.perf_counter()
        cover = asdim_cover(1, 1, 60_000)
        elapsed = time.perf_counter() - start
        assert (len(cover.blocks), cover.mesh, cover.multiplicity) == (30_001, 3.0, 2)
        assert cover.blocks[0][0] == (-60_000,) and cover.blocks[-1] == ((60_000,),)
        assert elapsed < 2.0, elapsed

    def test_a_cover_over_its_multiplicity_is_caught(self, monkeypatch):
        # the exhaustive check the docstring promises: one block per point
        # puts 3 blocks in every ball of radius 1 on the line, over rank + 1
        monkeypatch.setattr(analysis_mod, "_brick_ids", lambda coords, eps, rank: coords[:, 0])
        with pytest.raises(AssertionError, match=r"^cover multiplicity 3 exceeds 2$"):
            asdim_cover(1, 1, 5)

    def test_rank_zero(self):
        cover = asdim_cover(0, 3, 10)
        assert cover.multiplicity == 1 and len(cover.blocks) == 1

    def test_rank_one_interval_cover(self):
        cover = asdim_cover(1, 3, 50)
        assert cover.multiplicity == 2
        assert cover.mesh <= 2 * 3 * 2

    def test_rank_two_brick_cover(self):
        cover = asdim_cover(2, 2, 12)
        assert cover.multiplicity == 3
        # independent recount: blocks met by every epsilon-ball
        owner = {}
        for b, blk in enumerate(cover.blocks):
            for lab in blk:
                owner[lab] = b
        eps = 2
        worst = 0
        for x in range(-12, 13):
            for y in range(-12, 13):
                met = {
                    owner[(x + dx, y + dy)]
                    for dx in range(-eps, eps + 1)
                    for dy in range(-eps, eps + 1)
                    if (x + dx, y + dy) in owner
                }
                worst = max(worst, len(met))
        assert worst == cover.multiplicity

    def test_rank_two_mesh_bound(self):
        cover = asdim_cover(2, 2, 12)
        for blk in cover.blocks:
            arr = np.asarray(blk)
            spread = arr.max(axis=0) - arr.min(axis=0)
            assert spread.max() <= cover.mesh

    def test_rank_three_lattice_cells(self):
        cover = asdim_cover(3, 2, 8)
        assert cover.multiplicity <= 4

    def test_blocks_partition_the_ball(self):
        cover = asdim_cover(2, 2, 12)
        seen = [lab for blk in cover.blocks for lab in blk]
        assert len(seen) == 25 * 25
        assert len(set(seen)) == len(seen)

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            asdim_cover(4, 2, 10)

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            asdim_cover(3, 2, 200)

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    @pytest.mark.parametrize("radius", [-1, -5])
    def test_negative_radius_rejected(self, rank, radius):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            asdim_cover(rank, 1.0, radius)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_ball_check_clamped_to_the_grid_counts_the_same(self, rank):
        # a ball of radius side - 1 or more, clipped to the grid, is the
        # whole grid around every point
        rng = np.random.default_rng(rank)
        for side in (1, 2, 3, 5):
            grid = rng.integers(0, 7, size=(side,) * rank)
            clamped = analysis_mod._max_ball_multiplicity(grid, side - 1, rank)
            assert clamped == len(np.unique(grid))
            for eps in (side, side + 1, 2 * side + 3):
                assert analysis_mod._max_ball_multiplicity(grid, eps, rank) == clamped

    @pytest.mark.parametrize("rank,epsilon,radius", [
        (1, 3, 1), (1, 40, 4), (2, 9, 3), (2, 5, 2), (3, 7, 2), (3, 2, 1),
    ])
    def test_cover_checks_balls_clamped_to_the_grid(self, monkeypatch, rank, epsilon, radius):
        # the check reads radius 2 * radius where epsilon exceeds it, and
        # the unclamped check on the same grid counts the same
        checked = []
        real = analysis_mod._max_ball_multiplicity

        def recording(grid, eps, rank):
            checked.append((eps, real(grid, eps, rank), real(grid, math.ceil(epsilon), rank)))
            return checked[-1][1]

        monkeypatch.setattr(analysis_mod, "_max_ball_multiplicity", recording)
        cover = asdim_cover(rank, epsilon, radius)
        (eps, clamped, unclamped), = checked
        assert eps == min(epsilon, 2 * radius) and clamped == unclamped == cover.multiplicity

    @pytest.mark.parametrize("rank,epsilon,radius,message", [
        (3, 40, 24, "checking balls of radius 40 on the 49^3 grid reads 1275989841 ids a grid "
                    "row, over the 3e7 of one slab"),
        (3, 12, 24, "checking balls of radius 12 on the 49^3 grid reads 37515625 ids"),
        (2, 1000, 300, "checking balls of radius 600 on the 601^2 grid reads 866883001 ids"),
        (1, 1e20, 2, "cover epsilon 1e+20 gives a brick side beyond int64"),
        (3, 2**60, 1, "cover epsilon 1152921504606846976 gives a brick side beyond int64"),
    ])
    def test_cover_refuses_before_building(self, monkeypatch, rank, epsilon, radius, message):
        # the refusals come before any id is computed or counted
        def fail(*args):
            raise AssertionError("built")

        for name in ("_max_ball_multiplicity", "_brick_ids", "_bcc_ids"):
            monkeypatch.setattr(analysis_mod, name, fail)
        with pytest.raises(ValueError, match=re.escape(message)):
            asdim_cover(rank, epsilon, radius)


# randomized properties

small_towers = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=4
).map(tower_space)


@settings(max_examples=25, deadline=None)
@given(small_towers, st.integers(min_value=1, max_value=5))
def test_oscillation_of_identity_bounded_by_delta(sp, delta):
    idx = np.arange(len(sp))
    forward, backward = oscillation_at(sp, sp, idx, idx, float(delta))
    assert forward <= delta and backward <= delta


@settings(max_examples=25, deadline=None)
@given(small_towers, st.randoms(use_true_random=False))
def test_oscillation_matches_brute_force_random_maps(sp, rnd):
    n = len(sp)
    src = np.arange(n)
    dst = np.asarray(rnd.sample(range(n), n))
    for delta in (2.0, 3.0):
        assert oscillation_at(sp, sp, src, dst, delta) == (
            brute_oscillation(sp, sp, src, dst, delta),
            brute_oscillation(sp, sp, dst, src, delta),
        )


@settings(max_examples=20, deadline=None)
@given(small_towers)
def test_empirical_phi_divides_full_profile(sp):
    # every ball order divides the full group order
    phi = empirical_phi(sp, 97)
    total = math.prod(sp.rule.orders)
    for p in phi.support_primes:
        assert total % p ** phi.get(p) == 0


def chain_labels(order, gap, eps):
    """Component label of each subset position at eps: the chain's runs
    cut where gap > eps."""
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = np.cumsum(gap > eps)
    return labels


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.data())
def test_chain_order_matches_single_linkage(plane, data):
    # band trees (plane) and Prim trees (dense table) against scipy's
    # single-linkage merge heights on the same all-pairs distances
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    if plane:
        # random grid points: ties, cocircular quadruples, long hull edges
        pts = data.draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                                 min_size=3, max_size=60, unique=True))
        labels = sorted((x / 4, y / 4) for x, y in pts)
        assume(np.linalg.matrix_rank(np.asarray(labels) - labels[0]) == 2)
        sp = FiniteSpace(labels, PlaneRule(), 0, 0)
        subset = np.arange(len(sp))
    else:
        zb = zball(3, 2)
        sp = dense_space(zb.dmat(), zb.basepoint, 3)
        subset = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(zb) - 1), min_size=2))))
    tree = linkage(squareform(sp.dmat()[np.ix_(subset, subset)]), "single")
    heights = sorted(set(tree[:, 2].tolist()))
    order, gap = sp.rule.chain(sp, subset)
    assert sorted(order.tolist()) == list(range(len(subset)))
    assert gap[0] == math.inf and sorted(set(gap[1:].tolist())) == heights

    coph = squareform(cophenet(tree))
    scales = [0.0] + heights + [h * 0.999 for h in heights]
    for eps in scales:
        labels = chain_labels(order, gap, eps)
        assert np.array_equal(labels[:, None] == labels[None, :], coph <= eps)


def test_a_holed_line_is_refused_and_its_table_splits_at_the_gaps():
    # a line ball with two gaps is not a box: coordinate keys would call it
    # one block at eps = 1, where it has three. So its sup rule refuses its
    # chain, components and step, and its table reads them
    zb = zball(12)
    holed = subspace(zb, [i for i, (v,) in enumerate(zb.labels) if v not in (3, 4, -7, -8)])
    assert not holed.structural
    for refused in (lambda: holed.rule.chain(holed, np.arange(len(holed))),
                    lambda: epsilon_components(holed, 1),
                    lambda: estimate_factorizing_step(holed)):
        with pytest.raises(ValueError, match=NO_BOX):
            refused()
    sp = as_dense(holed)
    order, gap = sp.rule.chain(sp, np.arange(len(sp)))
    # three runs of unit steps, joined across the gaps of 3
    assert sorted(gap[1:].tolist()) == [1.0] * (len(sp) - 3) + [3.0, 3.0]
    labels = {eps: chain_labels(order, gap, eps) for eps in (1.0, 3.0)}
    assert len(np.unique(labels[1.0])) == epsilon_components(sp, 1).count == 3
    assert len(np.unique(labels[3.0])) == epsilon_components(sp, 3).count == 1
    blocks = epsilon_components(sp, 1).point_block
    assert np.array_equal(labels[1.0][:, None] == labels[1.0], blocks[:, None] == blocks)
    # a table tests only its chain's gaps, 1 and 3, so 2 is no candidate
    est = estimate_factorizing_step(sp)
    assert (est.estimate, est.stable_from) == (1.0, 3.0)


ultrametric_factors = st.one_of(
    st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tower_space),
    st.integers(1, 4).map(k_point_space),
    st.tuples(st.integers(2, 3), st.integers(1, 4)).map(
        lambda t: tower_space([t[0]], levels=[t[1]])
    ),
)
ultrametric_spaces = st.one_of(
    ultrametric_factors,
    st.tuples(ultrametric_factors, ultrametric_factors).map(lambda t: product_space(*t)),
)
sup_spaces = st.one_of(
    ultrametric_spaces,
    st.tuples(st.integers(1, 4), st.integers(1, 2)).map(lambda t: zball(*t)),
    st.sampled_from(["Z + C2", "Z + C3 + C2"]).map(
        lambda g: build_truncation(parse_group(g), radius=3)
    ),
    st.tuples(ultrametric_factors, st.integers(1, 3)).map(
        lambda t: product_space(zball(t[1]), t[0])
    ),
)


def assert_scales_agree(source, target, src, dst, deltas):
    """The sequence call, the one-scale calls and the all-pairs oracle agree
    at every scale, forward and backward."""
    want = [brute_oscillation(source, target, src, dst, d) for d in deltas]
    back = [brute_oscillation(target, source, dst, src, d) for d in deltas]
    assert [oscillation_at(source, target, src, dst, d) for d in deltas] == list(zip(want, back))
    assert oscillation(source, target, src, dst, deltas) == (want, back)


@settings(max_examples=60, deadline=None)
@given(ultrametric_spaces, sup_spaces,
       st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]), min_size=1, max_size=4),
       st.data())
def test_oscillation_shortcut_matches_all_pairs(source, target, deltas, data):
    # the key-and-diameter shortcut on random subsets and injective maps
    assert source.ultrametric
    n = min(len(source), len(target), 30)
    src = data.draw(st.lists(st.integers(0, len(source) - 1), min_size=1, max_size=n,
                             unique=True))
    dst = data.draw(st.lists(st.integers(0, len(target) - 1), min_size=len(src),
                             max_size=len(src), unique=True))
    assert_scales_agree(source, target, np.asarray(src), np.asarray(dst), deltas)


@settings(max_examples=60, deadline=None)
@given(sup_spaces, st.data())
def test_oscillation_from_one_point_is_the_image_diameter(sp, data):
    # every source point is the one point, so the forward value is the
    # diameter of the image, and a table that repeats it hides nothing
    idx = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(sp) - 1), min_size=1,
                                              max_size=40))))
    want = max(float(distance(sp, int(a), int(b))) for a in idx for b in idx)
    point = k_point_space(1)
    assert oscillation_at(point, sp, np.zeros(len(idx), dtype=np.int64), idx, 0.0) == (want, 0.0)


def loop_oscillation(source, target, src_idx, dst_idx, delta):
    """The per-block loop the one-pass keyed path replaced: the source
    points grouped by their coordinates of level above delta (on the pair
    pass's bound, delta + 1e-12), and the largest image diameter over the
    groups, each the largest level of a target coordinate that varies in
    it. Both spaces must be ultrametric sup spaces."""
    above = np.asarray(source.rule.levels) > delta + 1e-12
    keys = spaces_mod._row_groups(source.coords[src_idx][:, above])
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1

    def diameter(idx):
        rows = target.coords[idx]
        varies = rows.max(axis=0) != rows.min(axis=0)
        return float(np.asarray(target.rule.levels, dtype=float)[varies].max(initial=0.0))

    return max(diameter(dst_idx[members]) for members in np.split(order, cuts))


def near_levels(*spaces):
    """0, 0.5, and every level of the spaces' rules, with the scales
    5e-13 below and above it: the pair pass counts a distance within
    delta up to delta + 1e-12."""
    levels = sorted({float(lvl) for sp in spaces for lvl in sp.rule.levels})
    return [0.0, 0.5] + [lvl + off for lvl in levels for off in (-5e-13, 0.0, 5e-13)]


def assert_keyed_matches_every_oracle(source, target, src, dst, deltas):
    """The keyed path agrees, at every scale and in both directions, with
    the pair pass on table copies of the spaces, the per-block loop, and
    brute_oscillation at the pair pass's bound."""
    got = oscillation(source, target, src, dst, deltas)
    assert got == oscillation(as_dense(source), as_dense(target), src, dst, deltas)
    assert got == ([loop_oscillation(source, target, src, dst, d) for d in deltas],
                   [loop_oscillation(target, source, dst, src, d) for d in deltas])
    assert got == ([brute_oscillation(source, target, src, dst, d + 1e-12) for d in deltas],
                   [brute_oscillation(target, source, dst, src, d + 1e-12) for d in deltas])


coinciding_products = st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3)).map(
    lambda t: product_space(tower_space([t[0]], levels=[t[2]]),
                            tower_space([t[1], 2], levels=[t[2], t[2] + 1])))


@st.composite
def ultrametric_subsets(draw):
    """A subspace of a tower, a k-point space, a product of them, or a
    product of towers whose levels coincide across the factors."""
    sp = draw(st.one_of(ultrametric_spaces, coinciding_products))
    picked = sorted(draw(st.sets(st.integers(0, len(sp) - 1), min_size=1, max_size=16)))
    return FiniteSpace(sp.coords[picked], sp.rule, 0, sp.inner_radius)


@settings(max_examples=200, deadline=None)
@given(ultrametric_subsets(), ultrametric_subsets(), st.data())
def test_keyed_oscillation_matches_the_pair_pass_and_the_loop(source, target, data):
    # tables that may repeat a source or a target index, of one point up,
    # at scales on both sides of every level
    assert source.ultrametric and target.ultrametric
    size = data.draw(st.integers(1, 20))
    src = np.asarray(data.draw(st.lists(st.integers(0, len(source) - 1), min_size=size,
                                        max_size=size)))
    dst = np.asarray(data.draw(st.lists(st.integers(0, len(target) - 1), min_size=size,
                                        max_size=size)))
    assert_keyed_matches_every_oracle(source, target, src, dst, near_levels(source, target))


def test_keyed_oscillation_counts_a_level_just_above_the_scale():
    # 2 - 5e-13 is within the pair pass's 1e-12 of level 2, so the points
    # that differ only at level 2 are one block, and the map splits them
    sp = tower_space([2, 2])
    src, dst = np.arange(4), np.array([0, 2, 1, 3])
    assert oscillation_at(sp, sp, src, dst, 2 - 5e-13) == (3.0, 3.0)
    assert oscillation_at(as_dense(sp), as_dense(sp), src, dst, 2 - 5e-13) == (3.0, 3.0)
    assert_keyed_matches_every_oracle(sp, sp, src, dst, near_levels(sp))


@pytest.mark.parametrize("source, target", [
    (tower_space([2, 2]), tower_space([3])),
    (product_space(tower_space([2], levels=[2]), tower_space([3], levels=[2])), k_point_space(3)),
    (k_point_space(1), tower_space([2, 3])),
    (zball(3), build_truncation(parse_group("Z + C2"), radius=2)),
])
def test_repeated_indices_agree_on_every_path(source, target):
    # a source index mapped to two targets, and a target hit from two
    # sources: equal rows are one block at every scale, 0 included, so a
    # path that splits them reads 0 where the others read a distance
    rng = np.random.default_rng(11)
    src = rng.integers(0, len(source), size=12)
    dst = rng.integers(0, len(target), size=12)
    src[1], dst[1] = src[0], (dst[0] + 1) % len(target)
    deltas = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0]
    want = ([brute_oscillation(source, target, src, dst, d) for d in deltas],
            [brute_oscillation(target, source, dst, src, d) for d in deltas])
    assert want[0][0] > 0
    assert oscillation(source, target, src, dst, deltas) == want
    assert oscillation(as_dense(source), as_dense(target), src, dst, deltas) == want


@st.composite
def plane_grids(draw):
    # grid points: ties and cocircular quadruples; maybe one point doubled
    # 1e-12 away, a pair whose rounded distance is 0
    pts = draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)),
                        min_size=1, max_size=50, unique=True))
    labels = [(x / 4, y / 4) for x, y in pts]
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(labels))
        labels.append((x + 1e-12, y))
    return FiniteSpace(sorted(labels), PlaneRule(), 0, 0)


coinciding_levels = st.sampled_from([
    product_space(tower_space([2], levels=[2]), tower_space([3], levels=[2])),
    product_space(zball(2), k_point_space(3)),
    product_space(k_point_space(2), product_space(zball(1, 2), k_point_space(3))),
    product_space(tower_space([2, 2], levels=[1, 3]), zball(2)),
])


@settings(max_examples=120, deadline=None)
@given(st.one_of(sup_spaces, coinciding_levels, plane_grids(), sup_spaces.map(as_dense)),
       st.data())
def test_chain_order_matches_cophenet(sp, data):
    # every chain against scipy's single linkage: structural spaces on balls
    # (boxes) and on any subset, and every other space (plane grids,
    # non-structural subsets, tables) on any subset
    if sp.structural and isinstance(sp.rule, SupRule):
        if data.draw(st.booleans()):
            subset = sorted(data.draw(st.sets(st.integers(0, len(sp) - 1), min_size=1)))
        else:
            radius = data.draw(st.sampled_from([0, 0.5, 1, 2, 3, 5]))
            subset = np.flatnonzero(sp.dists_from(sp.basepoint) <= radius)
    else:
        if isinstance(sp.rule, SupRule) and data.draw(st.booleans()):
            picked = sorted(data.draw(st.sets(st.integers(0, len(sp) - 1), min_size=1)))
            sp = FiniteSpace(sp.coords[picked], sp.rule, 0, sp.inner_radius)
        subset = sorted(data.draw(st.sets(st.integers(0, len(sp) - 1), min_size=1)))
    subset = np.asarray(subset, dtype=np.int64)
    if isinstance(sp.rule, SupRule) and not sp.rule.fills_box(sp.coords[subset]):
        # a sup rule keys only boxes; the tables above serve the rest
        with pytest.raises(ValueError, match=NO_BOX):
            sp.rule.chain(sp, subset)
        return
    order, gap = sp.rule.chain(sp, subset)
    assert sorted(order.tolist()) == list(range(len(subset)))
    assert gap[0] == math.inf
    assert np.array_equal(chain_cophenet(order, gap), single_linkage_cophenet(sp, subset))


def test_sup_chain_of_a_subset_that_fills_no_box_is_refused():
    # -5 and -3 are 2 apart; sorted coordinates alone would join them at 1,
    # as if -4 lay between them, so the sup rule refuses them
    zb = zball(5)
    subset = np.array([0, 2])
    assert zb.label_lists(subset) == [[-5], [-3]]
    with pytest.raises(ValueError, match=r"^2 points of FiniteSpace\(11 points, group-ball, "
                                         r"R=5\) fill no box"):
        zb.rule.chain(zb, subset)
    assert prim_chain(zb, subset)[1].tolist() == [math.inf, 2.0]


@pytest.mark.parametrize("group,radius", [("Z + C2^inf", 16), ("C2^inf", 64)])
def test_sup_step_reads_its_ball_chains_from_coordinates(group, radius):
    # the candidate ball and the windows of a step are balls, which fill a
    # box, so the sup rule keys every chain, and the estimate is the
    # all-pairs loop's
    sp = build_truncation(parse_group(group), radius=radius)
    assert estimate_factorizing_step(sp).to_json() == all_pairs_step(sp)


def all_pairs_step(space):
    """estimate_factorizing_step as a per-scale loop on the all-pairs
    distances: single-linkage candidates from scipy, one connected-components
    pass per window and scale, and each block count a bincount; windows at
    half, three quarters and all of the radius, and at most 48 tested
    scales."""
    from scipy.cluster.hierarchy import linkage
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial.distance import squareform

    m, base = space.dmat(), space.basepoint
    bd = m[base]
    radius = float(space.inner_radius)
    if not math.isfinite(radius) or radius <= 0:
        radius = float(bd.max())
    windows = [f * radius for f in (0.5, 0.75, 1.0)]
    if isinstance(space.rule, SupRule):
        # the values a sup rule realizes: cyclic levels, and every integer
        # up to the radius when a coordinate is free
        rule = space.rule
        values = {0.0} | {float(lvl) for o, lvl in zip(rule.orders, rule.levels) if o}
        if 0 in rule.orders:
            values |= {float(k) for k in range(1, int(radius) + 1)}
        candidates = sorted(v for v in values if v <= radius)
    else:
        full = np.flatnonzero(bd <= radius)
        heights = set()
        if len(full) > 1:
            heights = set(linkage(squareform(m[np.ix_(full, full)], checks=False),
                                  "single")[:, 2].tolist())
        candidates = sorted({0.0} | heights)
    tested = _select_tested([c for c in candidates if c <= windows[0]], 48)
    subsets = [np.flatnonzero(bd <= w) for w in windows]
    labels = [{eps: connected_components(m[np.ix_(sub, sub)] <= eps, directed=False)[1]
               for eps in tested} for sub in subsets]

    def sig_count(w, eps, delta):
        at = int(np.flatnonzero(subsets[w] == base)[0])
        members = labels[w][delta] == labels[w][delta][at]
        sizes = np.bincount(labels[w][eps][members])
        return int(np.sum(sizes * 8 >= np.max(sizes)))

    stable = {eps: all(len({sig_count(w, eps, delta) for w in range(len(windows))}) == 1
                       for delta in tested if eps <= delta <= windows[0]) for eps in tested}
    unstable = [e for e in tested if not stable[e]]
    stable_vals = [e for e in tested if stable[e]]
    return {
        "estimate": max(unstable) if unstable else 0.0,
        "stable_from": min(stable_vals) if stable_vals else None,
        "candidates": candidates,
        "tested": tested,
        "windows": windows,
        "inconclusive": (len(subsets[0]) < 16 or len([c for c in tested if c > 0]) < 2
                         or not stable_vals),
    }


@st.composite
def step_spaces(draw):
    kind = draw(st.sampled_from(["plane", "sup", "subset", "table"]))
    if kind == "plane":
        # clusters of grid points: nested blocks of uneven sizes
        centres = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                min_size=1, max_size=4, unique=True))
        pts = draw(st.lists(st.tuples(st.sampled_from(centres), st.integers(0, 3),
                                      st.integers(0, 3)), min_size=3, max_size=40))
        labels = sorted({(c[0] * 2 + dx / 4, c[1] * 2 + dy / 4) for c, dx, dy in pts})
        assume(len(labels) >= 3)
        return FiniteSpace(labels, PlaneRule(), draw(st.integers(0, len(labels) - 1)), 0)
    sp = draw(sup_spaces)
    if kind == "subset":
        # a sup rule keys a subset that fills a box; the table of any other
        # reads its distances
        picked = sorted(draw(st.sets(st.integers(0, len(sp) - 1), min_size=1)))
        base = draw(st.integers(0, len(picked) - 1))
        sub = FiniteSpace(sp.coords[picked], sp.rule, base, sp.inner_radius)
        return sub if sub.structural else as_dense(sub)
    return as_dense(sp) if kind == "table" else sp


@settings(max_examples=60, deadline=None)
@given(step_spaces())
def test_step_estimate_matches_the_all_pairs_loop(sp):
    assert estimate_factorizing_step(sp).to_json() == all_pairs_step(sp)


def sig_count_step(space):
    """estimate_factorizing_step with the stability check it had as one
    sig_count call per (eps, delta, window): the run boundaries of each
    window's chain at every tested scale, the basepoint's delta-run, and
    the significant eps-runs inside it counted one at a time."""
    base = space.basepoint
    bd = space.dists_from(base)
    radius = float(space.inner_radius)
    if not math.isfinite(radius) or radius <= 0:
        radius = float(np.max(bd))
    windows = tuple(f * radius for f in (0.5, 0.75, 1.0))
    delta_cap = windows[0]
    full = np.flatnonzero(bd <= radius)
    candidates = space.rule.step_candidates(radius, space.rule.chain(space, full)[1])
    tested = _select_tested([c for c in candidates if c <= delta_cap], 48)
    subsets = [np.flatnonzero(bd <= w) for w in windows]
    inconclusive = len(subsets[0]) < 16 or len([c for c in tested if c > 0]) < 2

    runs, spans = [], []
    for sub in subsets:
        order, gap = space.rule.chain(space, sub)
        at = int(np.flatnonzero(sub[order] == base)[0])
        bounds = {eps: np.append(np.flatnonzero(gap > eps), len(sub)) for eps in tested}
        runs.append({eps: (b, np.diff(b)) for eps, b in bounds.items()})
        spans.append({})
        for delta, b in bounds.items():
            k = int(b.searchsorted(at, side="right"))
            spans[-1][delta] = (b[k - 1], b[k])

    def sig_count(w, eps, delta):
        lo, hi = spans[w][delta]
        bounds, sizes = runs[w][eps]
        block = sizes[bounds.searchsorted(lo):bounds.searchsorted(hi)]
        return int(np.count_nonzero(block * 8 >= block.max()))

    stable = {}
    for eps in tested:
        ok = True
        for delta in tested:
            if delta < eps or delta > delta_cap:
                continue
            if len({sig_count(w, eps, delta) for w in range(len(subsets))}) > 1:
                ok = False
                break
        stable[eps] = ok
    unstable = [e for e in tested if not stable[e]]
    stable_vals = [e for e in tested if stable[e]]
    # every count, per window and scale eps, over its coarser scales
    counts = [[[sig_count(w, eps, delta) for delta in tested if eps <= delta <= delta_cap]
               for eps in tested] for w in range(len(subsets))]
    return analysis_mod.StepEstimate(
        estimate=max(unstable) if unstable else 0.0,
        stable_from=min(stable_vals) if stable_vals else None,
        candidates=tuple(candidates),
        tested=tuple(tested),
        windows=windows,
        inconclusive=inconclusive or not stable_vals,
    ), counts


def window_counts(space, est):
    """The significant counts the vectorised check reads, per window and
    tested scale, from the same chains."""
    top = sum(1 for d in est.tested if d <= est.windows[0])
    out = []
    for w in est.windows:
        sub = np.flatnonzero(space.dists_from(space.basepoint) <= w)
        order, gap = space.rule.chain(space, sub)
        at = int(np.flatnonzero(sub[order] == space.basepoint)[0])
        lo, hi = analysis_mod._base_runs(gap, at, est.tested[:top])
        out.append([analysis_mod._significant_counts(gap, at, eps, lo[k:], hi[k:]).tolist()
                    for k, eps in enumerate(est.tested)])
    return out


@st.composite
def tied_plane_clouds(draw):
    """Points of a coarse integer lattice, scaled: many chain gaps tie, at
    the lattice steps and their diagonals. Small ones give windows under
    16 points."""
    pts = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                        min_size=2, max_size=60, unique=True))
    scale = draw(st.sampled_from([1.0, 0.5, 0.3]))
    labels = sorted((x * scale, y * scale) for x, y in pts)
    return FiniteSpace(labels, PlaneRule(), draw(st.integers(0, len(labels) - 1)), 0)


@settings(max_examples=150, deadline=None)
@given(st.one_of(tied_plane_clouds(), step_spaces()))
def test_step_stability_matches_the_sig_count_loop(sp):
    got = estimate_factorizing_step(sp)
    want, counts = sig_count_step(sp)
    assert got == want
    assert window_counts(sp, got) == counts


def run_counts(gap, at, eps, deltas):
    """Per scale delta, the significant eps-runs of the basepoint's
    delta-run of a chain, each run boundary found on its own."""
    def cuts(scale):
        return np.append(np.flatnonzero(gap > scale), len(gap))

    bounds = cuts(eps)
    sizes, out = np.diff(bounds), []
    for delta in deltas:
        d = cuts(delta)
        k = int(d.searchsorted(at, side="right"))
        block = sizes[bounds.searchsorted(d[k - 1]):bounds.searchsorted(d[k])]
        out.append(int(np.count_nonzero(block * 8 >= block.max())))
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 20), st.sampled_from([1.0, 2.0, 3.0, 4.0]),
                          st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=10),
       st.data())
def test_significant_counts_match_one_run_at_a_time(runs, data):
    # bare chains of runs with tied gaps: a cut, then gaps inside the run;
    # the largest run of a delta-run may lie on either side of the
    # basepoint's, or be its own
    gap = np.concatenate([[cut] + [inner] * (size - 1) for size, cut, inner in runs])
    gap[0] = math.inf
    at = data.draw(st.integers(0, len(gap) - 1))
    scales = sorted(set(data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]), min_size=1, max_size=6))))
    k = data.draw(st.integers(0, len(scales) - 1))
    lo, hi = analysis_mod._base_runs(gap, at, scales)
    got = analysis_mod._significant_counts(gap, at, scales[k], lo[k:], hi[k:])
    assert got.tolist() == run_counts(gap, at, scales[k], scales[k:])


@pytest.mark.parametrize("at", [0, 1, 21])
def test_significant_counts_see_the_largest_run_on_either_side(at):
    # runs of 1, 20 and 1 points, one run at 2: the largest run is right of
    # the basepoint's at 0, its own at 1 and left of it at 21; the runs of
    # one point are never significant beside it
    gap = np.array([math.inf, 2.0] + [0.0] * 19 + [2.0])
    lo, hi = analysis_mod._base_runs(gap, at, [0.5, 2.0])
    got = analysis_mod._significant_counts(gap, at, 0.5, lo, hi)
    assert got.tolist() == run_counts(gap, at, 0.5, [0.5, 2.0]) == [1, 1]


def test_step_stability_on_the_curve_fixture_matches_the_sig_count_loop():
    # windows of thousands of points, 48 tested scales, and spans cut
    # from the cached whole-space tree
    sp = example31_fixture(12, 0.02, 200)
    got = estimate_factorizing_step(sp)
    want, counts = sig_count_step(sp)
    assert got == want
    assert window_counts(sp, got) == counts


def test_zero_distance_pair_stays_joined_at_zero():
    # csgraph reads a zero weight as no edge; the chain keeps the pair at 0
    sp = FiniteSpace([(0.0, 0.0), (1e-12, 0.0), (1.0, 0.0), (0.0, 2.0)], PlaneRule(), 0, 0)
    assert distance(sp, 0, 1) == 0.0
    order, gap = sp.rule.chain(sp, np.arange(4))
    assert sorted(gap.tolist()) == [0.0, 1.0, 2.0, math.inf]
    at_zero = chain_labels(order, gap, 0.0)
    assert at_zero[0] == at_zero[1] and len(set(at_zero.tolist())) == 3
    est = estimate_factorizing_step(sp)
    assert est.candidates == (0.0, 1.0, 2.0)


@pytest.mark.parametrize("make", [
    lambda: doubled_cluster(),
    lambda: FiniteSpace([(float(x), float(y)) for x in range(5) for y in range(4)],
                        PlaneRule(), 0, 0),
], ids=["doubled-cluster", "lattice"])
def test_kruskal_chain_skips_edges_inside_a_cluster(make):
    # every pair, a graph of many cycles and, on the lattice, ties: an edge
    # whose ends are joined already is skipped, so the chain is the one of
    # a minimum spanning tree
    sp = make()
    n = len(sp)
    ii, jj = np.triu_indices(n, k=1)
    order, gap, joined = _kruskal_chain(n, ii, jj, sp.dmat()[ii, jj])
    assert np.array_equal(chain_cophenet(order, gap), single_linkage_cophenet(sp, np.arange(n)))
    assert len(joined) == n - 1
    assert not np.any(plane_mod._connected_labels(n, ii[joined], jj[joined]))


# sources that take the exhaustive path: free coordinates, plane samples
# and tables (a table never takes the coordinate-key shortcut)
exhaustive_spaces = st.one_of(
    sup_spaces.filter(lambda sp: not sp.ultrametric),
    st.tuples(st.integers(1, 2), st.sampled_from([0.25, 0.5])).map(
        lambda t: example31_fixture(t[0], t[1], 3)
    ),
    sup_spaces.map(as_dense),
)


@settings(max_examples=80, deadline=None)
@given(exhaustive_spaces, st.one_of(sup_spaces, exhaustive_spaces),
       st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.5]), min_size=1, max_size=4),
       st.data())
def test_block_oscillation_matches_all_pairs(source, target, deltas, data):
    # random subsets of the source and random injective maps
    n = min(len(source), len(target), 40)
    src = data.draw(st.lists(st.integers(0, len(source) - 1), min_size=1, max_size=n,
                             unique=True))
    dst = data.draw(st.lists(st.integers(0, len(target) - 1), min_size=len(src),
                             max_size=len(src), unique=True))
    assert_scales_agree(source, target, np.asarray(src), np.asarray(dst), deltas)


def test_block_oscillation_over_several_blocks_and_uncached_rows():
    # a 1200-point table map needs several row blocks, and zball(1600) has
    # 3201 points; the all-pairs row loop is the oracle (brute_oscillation
    # would take minutes here)
    rng = np.random.default_rng(7)
    n = 1200
    m = rng.integers(1, 6, size=(n, n)).astype(float)
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, 0.0)
    table = dense_space(m, 0, 5)
    line = zball(1600)
    assert len(row_blocks(n)) > 1
    src = rng.permutation(n)
    dst = rng.choice(len(line), size=n, replace=False)
    for source, target, si, ti, deltas in ((table, line, src, dst, [3.0, 1.0]),
                                           (line, table, dst, src, [40.0, 800.0, 0.0])):
        want = [rowwise_oscillation(source, target, si, ti, d) for d in deltas]
        back = [rowwise_oscillation(target, source, ti, si, d) for d in deltas]
        assert [oscillation_at(source, target, si, ti, d) for d in deltas] == list(zip(want, back))
        assert oscillation(source, target, si, ti, deltas) == (want, back)


@pytest.mark.parametrize("make", [
    lambda: (zball(12), build_truncation(parse_group("Z + C3"), radius=6)),
    lambda: (example31_fixture(1, 0.5, 3), zball(20)),
    lambda: (as_dense(product_space(zball(4), tower_space([3]))), example31_fixture(1, 0.5, 3)),
])
def test_pair_pass_over_many_small_blocks(make, monkeypatch):
    # blocks of a few rows each: every row block reads only the columns from
    # its first row on, and the pairs i <= j still cover all pairs
    monkeypatch.setattr(plane_mod, "BLOCK_ENTRIES", 32)
    source, target = make()
    rng = np.random.default_rng(3)
    n = min(len(source), len(target), 30)
    src = rng.choice(len(source), size=n, replace=False)
    dst = rng.choice(len(target), size=n, replace=False)
    assert len(row_blocks(n)) > 3
    assert_scales_agree(source, target, src, dst, [0.0, 1.0, 2.5, 4.0, 30.0])


@pytest.mark.parametrize("make,keyed", [
    pytest.param(lambda: (zball(4, 2), zball(5, 2)), False, id="sup-free"),
    pytest.param(lambda: (tower_space([2, 3, 2]), tower_space([6, 2], levels=[2, 3])), True,
                 id="tower-with-tower"),
    pytest.param(lambda: (tower_space([2, 2, 3]), zball(20)), False,
                 id="ultrametric-with-free"),
    pytest.param(lambda: (zball(20), tower_space([2, 2, 3])), False,
                 id="free-with-ultrametric"),
    pytest.param(lambda: (example31_fixture(1, 0.25, 3), example31_fixture(1, 0.5, 3)), False,
                 id="plane"),
    pytest.param(lambda: (as_dense(zball(3, 2)), as_dense(tower_space([7, 7]))), False,
                 id="table"),
    pytest.param(lambda: (example31_fixture(1, 0.25, 3), zball(30)), False,
                 id="plane-with-integer-sup"),
    pytest.param(lambda: (zball(30), example31_fixture(1, 0.25, 3)), False,
                 id="integer-sup-with-plane"),
])
def test_both_directions_match_all_pairs(make, keyed, monkeypatch):
    # the backward value is the all-pairs forward value of the reversed
    # table; two ultrametric sup sides take the coordinate keys, every
    # other pair of spaces one pair pass for both directions
    passes = []
    pair_pass = analysis_mod._pair_oscillation
    monkeypatch.setattr(analysis_mod, "_pair_oscillation",
                        lambda *a: passes.append(a[4]) or pair_pass(*a))
    source, target = make()
    rng = np.random.default_rng(11)
    n = min(len(source), len(target), 40)
    src = rng.choice(len(source), size=n, replace=False)
    dst = rng.choice(len(target), size=n, replace=False)
    deltas = [0.0, 0.5, 1.0, 2.0, 3.0, 7.5]
    assert_scales_agree(source, target, src, dst, deltas)
    # the scalar calls, then the sequence call
    assert passes == ([] if keyed else [[d] for d in deltas] + [deltas])


def test_int_coords_hold_values_far_from_zero_and_large_levels():
    # a spread of 10 fits 8 bits, but labels near 20000 do not
    line = zball(20000)
    edge = [index(line)[(v,)] for v in range(19990, 20001)]
    near_edge = FiniteSpace(line.coords[edge], line.rule, 0, line.inner_radius)
    assert near_edge.rule.kernel_coords(near_edge.coords).dtype == np.int16
    small = zball(5)
    src, dst = np.arange(len(near_edge)), np.arange(len(near_edge))[::-1].copy()
    assert_scales_agree(near_edge, small, src, dst, [0.0, 1.0, 3.0])
    assert_scales_agree(small, near_edge, dst, src, [0.0, 1.0, 3.0])
    far = FiniteSpace([(2**40 + v,) for v in range(11)], line.rule, 0, 5)
    assert far.rule.kernel_coords(far.coords).dtype == np.int64
    assert_scales_agree(far, small, np.arange(11), np.arange(11)[::-1].copy(), [1.0, 2.0])
    # levels above 127 and 32767 need wider products than the values do
    tall = product_space(zball(2), tower_space([2, 3], levels=[300, 70000]))
    assert tall.rule.kernel_coords(tall.coords).dtype == np.int32
    idx = np.arange(len(tall))
    perm = np.random.default_rng(5).permutation(len(tall))
    assert_scales_agree(tall, tall, idx, perm, [1.0, 2.0, 300.0, 70000.0])
    # a level past int64 leaves the coordinates float64
    huge = tower_space([2], levels=[2**64])
    assert huge.rule.kernel_coords(huge.coords).dtype == np.float64


# the window route of oscillation, called through its kernel so that it runs
# at every table size (the routing sends tables below WINDOW_MIN to the
# pair pass)

def window_route(source, target, src, dst, deltas):
    """Both directions from the window-maximum kernel."""
    fwd = source.rule.sup_rows(source, src), target.rule.sup_rows(target, dst)
    return (analysis_mod._window_oscillation(*fwd, deltas),
            analysis_mod._window_oscillation(*fwd[::-1], deltas))


def window_scales(*spaces):
    """0, 0.5, every level of the spaces' rules with the scales 5e-13 below
    and above it, free window radii up to 4 and between them, an infinite,
    a NaN and a negative scale."""
    return near_levels(*spaces) + [2.0, 2.5, 3.0, 4.0, math.inf, math.nan, -1.0]


def assert_window_matches_the_pair_pass(source, target, src, dst, deltas):
    """The window kernel agrees, at every scale and in both directions,
    with the pair pass and with brute_oscillation at the pair pass's bound
    (a NaN or negative scale admits no pair, so it reads 0)."""
    got = window_route(source, target, src, dst, deltas)
    assert got == tuple(analysis_mod._pair_oscillation(source, target, src, dst, deltas))
    assert got == ([brute_oscillation(source, target, src, dst, d + 1e-12) for d in deltas],
                   [brute_oscillation(target, source, dst, src, d + 1e-12) for d in deltas])


window_spaces = st.one_of(
    sup_spaces,
    st.sampled_from([k_point_space(1), zball(2, 0)]),  # width 0
    st.sampled_from(["Z^2 + C2", "Z + C2 + C3"]).map(
        lambda g: build_truncation(parse_group(g), radius=2)),
    st.tuples(st.integers(1, 3), st.integers(2, 3), st.integers(1, 3)).map(
        lambda t: product_space(tower_space([t[1]], levels=[t[2]]), zball(t[0]))),
)


@st.composite
def holed_sup_spaces(draw):
    """A sup space with some of its points dropped, which may leave holes
    in its box."""
    sp = draw(window_spaces)
    kept = sorted(draw(st.sets(st.integers(0, len(sp) - 1), min_size=1, max_size=len(sp))))
    return FiniteSpace(sp.coords[kept], sp.rule, 0, sp.inner_radius)


@settings(max_examples=250, deadline=None)
@given(holed_sup_spaces(), holed_sup_spaces(), st.data())
def test_window_route_matches_the_pair_pass_and_all_pairs(source, target, data):
    # tables of one entry up, any width 0 included, that may map a source
    # point to two targets (two entries in one cell) or hit a target twice
    size = data.draw(st.integers(1, 24))
    src = np.asarray(data.draw(st.lists(st.integers(0, len(source) - 1), min_size=size,
                                        max_size=size)))
    dst = np.asarray(data.draw(st.lists(st.integers(0, len(target) - 1), min_size=size,
                                        max_size=size)))
    assert_window_matches_the_pair_pass(source, target, src, dst, window_scales(source, target))


@pytest.mark.parametrize("source, target", [
    (k_point_space(1), zball(3, 2)),
    (zball(2, 0), build_truncation(parse_group("Z + C2"), radius=3)),
    (zball(3, 2), k_point_space(1)),
    (k_point_space(1), zball(2, 0)),
], ids=["point-to-square", "rank-0-to-product", "square-to-point", "point-to-point"])
def test_window_route_on_width_zero_sides(source, target):
    # a side of width 0 is one cell of an empty box: every entry is within
    # any scale >= 0 of every other on that side, and within no negative one
    rng = np.random.default_rng(4)
    src = rng.integers(0, len(source), size=9)
    dst = rng.integers(0, len(target), size=9)
    deltas = window_scales(source, target)
    assert_window_matches_the_pair_pass(source, target, src, dst, deltas)
    fwd, _ = window_route(source, target, src, dst, [0.0, -1.0])
    if source.coords.shape[1] == 0:
        assert fwd == [max(float(distance(target, int(a), int(b))) for a in dst for b in dst), 0.0]
    if target.coords.shape[1] == 0:
        assert fwd == [0.0, 0.0]


def test_window_route_counts_a_window_of_exactly_the_scale():
    # on a line, points 0..6 mapped to an alternating image: at delta = k
    # the window reaches k steps and no further, and a cyclic axis of
    # level 2 joins its two values at delta = 2 exactly
    line = zball(10)
    src = np.array([index(line)[(v,)] for v in range(7)])
    dst = np.array([index(line)[(v,)] for v in (0, 9, 0, -9, 0, 9, 0)])
    deltas = [0.0, 1.0, 2.0 - 5e-13, 2.0 + 5e-13, 3.0]
    # backward, the target value 0 has the preimages 0, 2, 4 and 6
    assert window_route(line, line, src, dst, deltas) == ([0.0, 9.0, 18.0, 18.0, 18.0],
                                                          [6.0] * 5)
    # (a, b) -> the image; points that differ in a alone are 2 apart
    ring = tower_space([2, 2], levels=[2, 3])
    src, dst = np.arange(4), np.array([index(line)[(v,)] for v in (0, 5, 1, 9)])
    got = window_route(ring, line, src, dst, [1.0, 2.0 - 5e-13, 2.0, 3.0 - 5e-13])
    assert got[0] == [0.0, 4.0, 4.0, 9.0]
    assert_window_matches_the_pair_pass(ring, line, src, dst, window_scales(ring, line))


def test_window_route_keeps_every_entry_of_a_shared_cell():
    # two entries in one source cell: the cell holds their largest and
    # least image, so a later write does not hide the earlier one
    line = zball(10)
    src = np.array([index(line)[(v,)] for v in (0, 0, 1)])
    dst = np.array([index(line)[(v,)] for v in (4, -4, 0)])
    assert window_route(line, line, src, dst, [0.0, 1.0]) == ([8.0, 8.0], [0.0, 0.0])
    assert window_route(line, line, src[::-1].copy(), dst[::-1].copy(), [0.0]) == ([8.0], [0.0])


def test_window_route_over_large_tables():
    # boxes of many cells and several doubling steps per scale, against the
    # pair pass (brute_oscillation would take minutes here)
    rng = np.random.default_rng(9)
    ball = build_truncation(parse_group("Z^2 + C2"), radius=12)
    line = zball(400)
    deltas = [0.0, 1.0, 2.0, 3.0, 7.0, 40.0, 400.0, math.inf]
    for source, target in ((ball, line), (line, ball), (ball, ball)):
        src = rng.permutation(len(source))[:len(source) - 7]
        dst = rng.integers(0, len(target), size=len(src))
        got = window_route(source, target, src, dst, deltas)
        assert got == tuple(analysis_mod._pair_oscillation(source, target, src, dst, deltas))


def spread_points(sp, step):
    """Every step-th point: a box with holes between them."""
    return subspace(sp, list(range(0, len(sp), step)))


@pytest.mark.parametrize("make, route", [
    pytest.param(lambda: (tower_space([2, 2, 3, 3, 2]), tower_space([6, 2, 6], levels=[2, 3, 4])),
                 "keyed", id="tower-with-tower"),
    pytest.param(lambda: (zball(20, 2), build_truncation(parse_group("Z^2 + C2"), radius=14)),
                 "window", id="free-with-free"),
    pytest.param(lambda: (tower_space([2, 2, 3, 3, 2, 3, 2]), zball(300)), "window",
                 id="ultrametric-with-free"),
    pytest.param(lambda: (zball(300), tower_space([2, 2, 3, 3, 2, 3, 2])), "window",
                 id="free-with-ultrametric"),
    pytest.param(lambda: (zball(12), zball(12)), "pairs", id="below-window-min"),
    pytest.param(lambda: (spread_points(zball(2000), 5), zball(400)), "pairs",
                 id="sparse-source-box"),
    pytest.param(lambda: (zball(400), spread_points(zball(2000), 5)), "pairs",
                 id="sparse-target-box"),
    pytest.param(lambda: (example31_fixture(8, 0.01, 50), zball(2000)), "pairs", id="plane"),
    pytest.param(lambda: (as_dense(zball(400)), zball(400)), "pairs", id="table"),
])
def test_each_kind_of_table_takes_its_route(make, route):
    source, target = make()
    n = min(len(source), len(target))
    rng = np.random.default_rng(1)
    src = rng.permutation(len(source))[:n]
    dst = rng.permutation(len(target))[:n]
    assert analysis_mod._route(source, target, src, dst)[0] == route
    if route == "window":
        deltas = [0.0, 1.0, 2.0, 5.0]
        assert oscillation(source, target, src, dst, deltas) == tuple(
            analysis_mod._pair_oscillation(source, target, src, dst, deltas))


def test_prim_chain_over_several_blocks():
    # the oracle takes the points in Prim's order, one distance row each:
    # its finite gaps are scipy's single-linkage heights, and its runs the
    # single-linkage clusters at every height (single_linkage_cophenet, on
    # the subset's distances alone rather than the 3,721-point space's
    # dense matrix)
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    rng = np.random.default_rng(2)
    for sp in (zball(20, 2), zball(30, 2)):
        subset = np.sort(rng.choice(len(sp), size=1100, replace=False))
        n = len(subset)
        assert len(row_blocks(n)) > 1
        order, gap = prim_chain(sp, subset)
        assert sorted(order.tolist()) == list(range(n)) and gap[0] == math.inf
        tree = linkage(squareform(sp.dists_block(subset, subset)), "single")
        assert sorted(gap[1:].tolist()) == sorted(tree[:, 2].tolist())
        assert np.array_equal(chain_cophenet(order, gap), squareform(cophenet(tree)))


@st.composite
def window_planes(draw):
    """Plane point sets for the window edges: uniform, co-circular lattice
    squares, points on one circle, clusters and coordinates near 1e6, maybe
    with one point doubled at a rounded distance of 0."""
    kind = draw(st.sampled_from(["uniform", "lattice", "circle", "clusters", "far"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    size = draw(st.integers(3, 90))
    if kind == "uniform":
        pts = rng.uniform(-3, 3, size=(size, 2))
    elif kind == "lattice":
        w, h = draw(st.integers(2, 12)), draw(st.integers(2, 12))
        pts = np.array([(x, y) for x in range(w) for y in range(h)]) * draw(
            st.sampled_from([1.0, 0.25]))
    elif kind == "circle":
        angles = rng.choice(64, size=min(size, 40), replace=False) * (2 * math.pi / 64)
        pts = 2 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        if draw(st.booleans()):
            pts = np.vstack([pts, [(0.0, 0.0)]])
    elif kind == "clusters":
        centres = rng.uniform(-10, 10, size=(draw(st.integers(1, 4)), 2))
        pts = centres[rng.integers(len(centres), size=size)] + rng.normal(0, 0.3, (size, 2))
    else:
        grid = np.array([(x, y) for x in range(9) for y in range(9)]) * 1e-3
        pts = 1e6 + (grid if draw(st.booleans()) else rng.uniform(0, 0.05, size=(size, 2)))
    labels = {(float(x), float(y)) for x, y in pts}
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(sorted(labels)))
        # 2e-10 apart, 2 ulps near 1e6: it reads as 0
        labels.add((x + 2e-10, y))
    return FiniteSpace(sorted(labels), PlaneRule(), 0, 0)


def window_edges(sp, subset):
    """The window-tree route: the whole space's tree inside the subset
    (window_seeds) and the bands' candidates between the seeds'
    components, after checking that every candidate joins two of them, and
    that Kruskal over the seeds and the candidates takes a spanning tree
    with Prim's and scipy's single-linkage heights."""
    n = len(subset)
    si, sj, sw = window_seeds(sp, subset)
    labels = plane_mod._connected_labels(n, si, sj)
    pos = np.full(len(sp), -1)
    pos[subset] = np.arange(n)
    grid = plane_mod.tree(sp.coords)[2]
    ii, jj, ww = plane_mod._band_edges(sp.coords[subset], labels,
                                       plane_mod._grid_subset(grid, pos))
    assert np.all(labels[ii] != labels[jj])
    edges = np.concatenate([si, ii]), np.concatenate([sj, jj]), np.concatenate([sw, ww])
    joined = _kruskal_chain(n, *edges)[2]
    assert len(joined) == max(n - 1, 0)
    pts = sp.coords[subset]
    assert sorted(edges[2][joined].tolist()) == prim_heights(pts) == single_linkage_heights(pts)
    return edges


def window_cophenet(sp, subset):
    """Cophenetic matrix of the Kruskal chain of the window-tree route."""
    return chain_cophenet(*_kruskal_chain(len(subset), *window_edges(sp, subset))[:2])


def assert_seeded_window(sp, subset):
    """The plane chain of the subset, cut from the whole space's chain, and
    the window-tree route both have scipy's single-linkage heights on all
    rounded pairs."""
    want = single_linkage_cophenet(sp, subset)
    order, gap = sp.rule.chain(sp, subset)
    assert sorted(order.tolist()) == list(range(len(subset)))
    assert len(subset) == 0 or gap[0] == math.inf
    assert np.array_equal(chain_cophenet(order, gap), want)
    assert np.array_equal(window_cophenet(sp, subset), want)


@settings(max_examples=150, deadline=None)
@given(window_planes(), st.sampled_from(["ball", "mask", "half"]), st.data())
def test_window_edges_keep_every_single_linkage_height(sp, shape, data):
    # the chain cut from the whole space's chain, and the space's tree
    # inside the subset plus the bands between the components it leaves,
    # against scipy's single linkage on all rounded pairs: the arguments
    # for them hold for any subset, balls or not
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    if shape == "ball":
        d = sp.dists_from(data.draw(st.integers(0, len(sp) - 1)))
        subset = np.flatnonzero(d <= data.draw(st.sampled_from([0.2, 0.5, 0.75, 0.9])) * d.max())
    elif shape == "mask":
        # a sparse mask keeps few of the whole tree's edges: many seed components
        keep = data.draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
        subset = np.flatnonzero(rng.random(len(sp)) < keep)
    else:
        normal = np.array([math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t)])
        side = sp.coords @ normal
        subset = np.flatnonzero(side <= np.quantile(side, rng.uniform(0.1, 0.9)))
    assume(0 < len(subset) < len(sp))
    assert_seeded_window(sp, subset)


def window_seeds(sp, subset):
    """The edges (i, j, weight) of the whole space's tree inside the
    subset, in subset positions."""
    ii, jj, ww = plane_mod.tree(sp.coords)[1]
    pos = np.full(len(sp), -1)
    pos[subset] = np.arange(len(subset))
    inside = (pos[ii] >= 0) & (pos[jj] >= 0)
    return pos[ii][inside], pos[jj][inside], ww[inside]


@pytest.mark.parametrize("step", [1.0, 0.25])
@pytest.mark.parametrize("keep", [0.3, 0.6, 0.9])
def test_plane_chain_of_lattice_masks_with_ties(step, keep):
    # every lattice step is a tie, within a component, between runs and
    # with the joining edges; the masks leave many seed components
    sp = FiniteSpace(sorted((x * step, y * step) for x in range(14) for y in range(9)),
                     PlaneRule(), 0, 0)
    for seed in range(4):
        subset = np.flatnonzero(np.random.default_rng(seed).random(len(sp)) < keep)
        seeds = plane_mod._connected_labels(len(subset), *window_seeds(sp, subset)[:2])
        assert len(np.unique(seeds)) > 3
        assert_seeded_window(sp, subset)


def test_plane_chain_of_no_point_one_point_and_the_whole_space():
    # the whole space's chain is the cached Kruskal chain of its tree
    sp = example31_fixture(2, 0.25, 5)
    whole = np.arange(len(sp))
    for subset in (whole[:0], whole[:1], whole[3:4], whole):
        assert_seeded_window(sp, subset)
    assert sp.rule.chain(sp, whole) is sp._tree[0]


def test_range_max_over_every_range():
    values = np.random.default_rng(4).permutation(37).astype(float)
    lo, hi = np.triu_indices(38, k=1)
    assert plane_mod._range_max(values, lo, hi).tolist() == [
        values[a:b].max() for a, b in zip(lo.tolist(), hi.tolist())]
    assert plane_mod._range_max(values, lo[:0], hi[:0]).shape == (0,)


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("columns", [1, 2, 5, 8])
def test_seeded_window_of_lattice_columns(rows, columns):
    # the first columns of a lattice, every step a tie; the window starts
    # from the whole tree's edges inside it
    sp = FiniteSpace(sorted((float(x), float(y)) for x in range(10) for y in range(rows)),
                     PlaneRule(), 0, 0)
    assert_seeded_window(sp, np.flatnonzero(sp.coords[:, 0] < columns))


@pytest.mark.parametrize("radius", [2.5, 4.0, 6.5])
def test_seeded_window_on_a_lattice_where_ties_decide_the_tree(radius):
    # a disc of a 12 x 12 lattice: the whole tree's paths between points of
    # the disc leave it, so the seeds leave several components, and the
    # bands join them by steps that tie with the seeds
    sp = FiniteSpace(sorted((float(x), float(y)) for x in range(12) for y in range(12)),
                     PlaneRule(), 0, 0)
    subset = np.flatnonzero(sp.dists_from(index(sp)[(5.0, 6.0)]) <= radius)
    seeds = plane_mod._connected_labels(len(subset), *window_seeds(sp, subset)[:2])
    assert len(np.unique(seeds)) > 1
    assert_seeded_window(sp, subset)


def test_seeded_window_of_spread_clusters_split_by_its_seeds():
    # clusters of spacing 1e-3 spread over 1e4, cut by a slanted strip: the
    # whole tree's edges leave the window in pieces, and the window's bands
    # read a fine grid of about 2^30 cells a side, so both Morton words count
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.integers(0, 8, size=(12, 2)) * 1e-3 + c
                          for c in rng.uniform(-5e3, 5e3, size=(50, 2))])
    sp = FiniteSpace(sorted(set(map(tuple, pts.tolist()))), PlaneRule(), 0, 0)
    subset = np.flatnonzero(np.abs(sp.coords[:, 1] - 0.3 * sp.coords[:, 0]) < 2e3)
    seeds = plane_mod._connected_labels(len(subset), *window_seeds(sp, subset)[:2])
    assert len(np.unique(seeds)) > 1
    assert_seeded_window(sp, subset)


def far_lattice():
    """30 x 30 lattice, spacing 1e-3, at (1e6, 1e6): Qhull set aside 896 of
    its 900 points when it triangulated them where they lie."""
    return FiniteSpace(sorted((1e6 + x * 1e-3, 1e6 + y * 1e-3)
                              for x in range(30) for y in range(30)), PlaneRule(), 0, 0)


def tiny_cloud():
    """80 points of a 1e-11 grid near (1, -1): 69 set aside there."""
    rng = np.random.default_rng(11)
    steps = rng.choice(60 * 60, size=80, replace=False)
    return FiniteSpace(sorted((1 + (k // 60) * 1e-11, -1 + (k % 60) * 1e-11)
                              for k in steps.tolist()), PlaneRule(), 0, 0)


@pytest.mark.parametrize("make", [tiny_cloud, far_lattice], ids=["tiny-cloud", "far-lattice"])
def test_whole_space_chain_joins_points_far_from_the_origin(make):
    # the chain has no infinite gap, and its gaps are scipy's single-linkage
    # heights on all rounded pairs, each as often
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    sp = make()
    order, gap = sp.rule.chain(sp, np.arange(len(sp)))
    assert np.count_nonzero(np.isinf(gap[1:])) == 0
    heights = linkage(squareform(sp.dmat(), checks=False), "single")[:, 2]
    assert sorted(gap[1:].tolist()) == sorted(heights.tolist())


def test_far_lattice_steps_at_its_spacing():
    # with the points set aside, candidates were [0.0, 0.029]
    est = estimate_factorizing_step(far_lattice())
    assert est.candidates == (0.0, 0.001)


def doubled_cluster():
    """Points around 4 seeded centres in [-10, 10]^2, spread 0.3, with the
    first one doubled 1e-12 away: Qhull set 1 of the 15 points aside."""
    rng = np.random.default_rng(11)
    n = int(rng.integers(3, 91))
    centres = rng.uniform(-10, 10, size=(4, 2))
    pts = centres[rng.integers(0, 4, size=n)] + rng.normal(0, 0.3, size=(n, 2))
    pts = np.vstack([pts, pts[:1] + [1e-12, 0]])
    return FiniteSpace(sorted(map(tuple, pts.tolist())), PlaneRule(), 0, 0)


def nearly_collinear_triple():
    """Three points of a 0.3 lattice that Qhull found flat, though the
    float cross product of their offsets is not 0."""
    return FiniteSpace([(0.0, 0.0), (0.8999999999999999, 0.3),
                        (2.6999999999999997, 0.8999999999999999)], PlaneRule(), 0, 0)


def doubled_border_point():
    """Eight points; below the window y > -2 lies only (-2, -3), and the
    window's border held (-2, -0.25) and a point 1e-12 beside it, which
    Qhull set aside there, though not in the whole space."""
    return FiniteSpace(sorted([(-0.5, 2.0), (0.5, 2.5), (1.0, 2.5), (-2.0, -0.25),
                               (-2.0 + 1e-12, -0.25), (0.1, -0.3), (2.5, -0.5),
                               (-2.0, -3.0)]), PlaneRule(), 0, 0)


def bent_lattice_column():
    """A 6 x 3 lattice with (2, 1) moved 1 ulp right: the border of the
    window x < 2.5 was the column x = 2, nearly but not exactly one line."""
    return FiniteSpace(sorted((x + (4.440892098500626e-16 if (x, y) == (2, 1) else 0.0),
                               float(y)) for x in range(6) for y in range(3)),
                       PlaneRule(), 0, 0)


def square_with_its_centre():
    """A square's corners and centre: the ball of radius 2.9 around (2, 0)
    drops (-2, 0), and keeps (0, 2), (0, 0) and (0, -2), one line up to
    the rounding of cos(pi / 2), which Qhull found flat."""
    angles = np.arange(4) * (math.pi / 2)
    labels = [(2 * math.cos(a), 2 * math.sin(a)) for a in angles] + [(0.0, 0.0)]
    return FiniteSpace(sorted(labels), PlaneRule(), 0, 0)


def beside_the_centre():
    """A square's corners, its centre and a point 1e-16 beside it, which
    Qhull set aside even at the origin."""
    return FiniteSpace(sorted([(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (0.0, 0.0),
                               (1e-16, 0.0)]), PlaneRule(), 0, 0)


def flat_triple():
    """Three points 1e-17 off one line: Qhull could not triangulate them,
    and they are not on one line."""
    return FiniteSpace([(0.0, 0.0), (1.0, 1e-17), (2.0, 0.0)], PlaneRule(), 0, 0)


REFUSED = {
    "doubled-cluster": (doubled_cluster, None),
    "nearly-collinear": (nearly_collinear_triple, None),
    "doubled-border-point": (doubled_border_point, lambda c: c[:, 1] > -2),
    "bent-lattice-column": (bent_lattice_column, lambda c: c[:, 0] < 2.5),
    "square-with-its-centre": (square_with_its_centre,
                               lambda c: np.hypot(c[:, 0] - 2, c[:, 1]) <= 2.9),
    "beside-the-centre": (beside_the_centre, None),
    "flat-triple": (flat_triple, None),
}


@pytest.mark.parametrize("name", REFUSED)
def test_clouds_qhull_refused_match_single_linkage(name):
    # whole, on the window that Qhull refused (the points, or the window's
    # border), and on the balls around each point
    make, window = REFUSED[name]
    sp = make()
    whole = np.arange(len(sp))
    assert np.array_equal(window_cophenet(sp, whole), single_linkage_cophenet(sp, whole))
    subsets = [np.flatnonzero(window(sp.coords))] if window else []
    for centre in range(min(len(sp), 12)):
        d = sp.dists_from(centre)
        subsets += [np.flatnonzero(d <= f * d.max()) for f in (0.3, 0.5, 0.75, 0.9)]
    for subset in subsets:
        if 0 < len(subset) < len(sp):
            assert_seeded_window(sp, subset)


@pytest.mark.parametrize("make", [doubled_cluster, nearly_collinear_triple],
                         ids=["doubled-cluster", "nearly-collinear"])
def test_step_on_clouds_qhull_refused_matches_the_all_pairs_table(make):
    # the clouds take the band route like any other: the whole tree spans
    # them, and the step and components agree with the all-pairs table
    sp = make()
    ii, jj, _ = plane_mod.tree(sp.coords)[1]
    assert len(ii) == len(sp) - 1
    assert not np.any(plane_mod._connected_labels(len(sp), ii, jj))
    assert estimate_factorizing_step(sp) == estimate_factorizing_step(as_dense(sp))
    assert blocks(epsilon_components(sp, 0.5)) == blocks(epsilon_components(as_dense(sp), 0.5))


@pytest.mark.parametrize("make", [lambda: example31_fixture(8, 0.01, 50), doubled_cluster],
                         ids=["fixture", "doubled-cluster"])
def test_components_build_no_tree_and_a_step_builds_the_whole_tree_once(monkeypatch, make):
    # components come from a cell grid, and a plane quotient is refused,
    # before any tree is built; a step builds the whole space's tree first
    # and once, for its candidates, and a window calls the bands only when
    # the whole tree's edges inside it (seeds) leave it split
    calls = []
    real = plane_mod._band_edges

    def recording(pts, labels, grid):
        calls.append((len(pts), int(np.count_nonzero(labels != np.arange(len(pts))))))
        return real(pts, labels, grid)

    monkeypatch.setattr(plane_mod, "_band_edges", recording)
    sp = make()
    epsilon_components(sp, 1.0)
    with pytest.raises(ValueError, match="structural quotient"):
        quotient_with_projection(sp, 1.0)
    assert calls == []
    estimate_factorizing_step(sp)
    assert calls[0] == (len(sp), 0)
    assert calls == {2799: [(2799, 0), (1840, 1838)], 15: [(15, 0), (6, 4)]}[len(sp)]
    assert all(0 < seeds < points - 1 < len(sp) for points, seeds in calls[1:])
    estimate_factorizing_step(sp)
    epsilon_components(sp, 1.0)
    assert [c for c in calls if c[0] == len(sp)] == [(len(sp), 0)]


@pytest.mark.parametrize("make", [lambda: example31_fixture(8, 0.01, 50), doubled_cluster],
                         ids=["fixture", "doubled-cluster"])
def test_a_step_sorts_one_morton_order_per_space(monkeypatch, make):
    # the windows that call bands read the whole space's grid, restricted
    # to them, and sort no points of their own
    sorts, bands = [], []
    morton_order, band_edges = plane_mod._morton_order, plane_mod._band_edges

    def sorting(cells):
        sorts.append(len(cells))
        return morton_order(cells)

    def recording(pts, labels, grid):
        bands.append(len(pts))
        return band_edges(pts, labels, grid)

    monkeypatch.setattr(plane_mod, "_morton_order", sorting)
    monkeypatch.setattr(plane_mod, "_band_edges", recording)
    sp = make()
    estimate_factorizing_step(sp)
    assert len(bands) == 2 and bands[1] < len(sp)
    assert sorts == [len(sp)]


def test_image_diameter_of_a_table_over_several_blocks():
    # the two ends of the line come last, so only the last row block of
    # the pair pass sees the widest pair
    table = as_dense(zball(700))
    idx = np.concatenate([np.arange(1, len(table) - 1), [0, len(table) - 1]])
    assert len(row_blocks(len(idx))) > 1
    point = np.zeros(len(idx), dtype=np.int64)
    assert oscillation_at(k_point_space(1), table, point, idx, 0.0) == (1400.0, 0.0)


def test_step_on_a_line_matches_the_all_pairs_table():
    # plane points on one line, where the band tree is a path along the
    # line, against the Prim tree of the dense all-pairs table
    for direction in ((1, 0), (1, 2), (0, -1)):
        for count in (1, 2, 10, 40):
            steps = [t + 2 * (t // 5) for t in range(count)]  # a gap after every 5th
            pts = [(t * direction[0] / 4, t * direction[1] / 4) for t in steps]
            sp = FiniteSpace(sorted(pts), PlaneRule(), 0, 0)
            got = estimate_factorizing_step(sp).to_json()
            assert got == estimate_factorizing_step(as_dense(sp)).to_json()


def test_step_work_is_pinned(monkeypatch):
    # every tested scale of a window is read from one chain: a step job
    # runs no connected-components pass (141 before the chains) and no
    # triangulation (three Qhull calls before the bands). The whole space's
    # tree takes 7 bands, whose 9,063 candidates one Kruskal pass read,
    # joining its 6,572 edges (16,533 joins when each window ran its own,
    # and a Boruvka pass in the bands before). Now 6,492 candidates join
    # index neighbours: Kruskal reads the 130 of them between the 211 runs
    # their lighter edges join, and the 470 of the 2,571 others lighter
    # than the path between their ends, and makes 210 joins. Its edges
    # inside the 0.5 and 0.75 windows join each window already, so they
    # call no bands, and a later window counts only the scales still
    # stable (141 counts before).
    # The grid reads 6,572 neighbouring rows for t0; bands 1-4 read every
    # pair of their kept cell pairs directly, 20,191 pairs against 9,192
    # by buckets, and bands 5-7 read 7,721 by buckets
    import scipy.spatial

    calls = {"Delaunay": 0, "epsilon_components": 0, "components": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(scipy.spatial, "Delaunay")
    counting(spaces_mod, "epsilon_components")
    counting(plane_mod, "components")
    chains, reads = [], []
    band_edges, band_pairs, pair_dists = (plane_mod._band_edges, plane_mod._band_pairs,
                                          plane_mod._plane_pair_dists)

    def edges(pts, labels, grid):
        chains.append([])
        return band_edges(pts, labels, grid)

    def pairs(pts, fine, flips, comp, shift, t):
        chains[-1].append(round(t, 6))
        return band_pairs(pts, fine, flips, comp, shift, t)

    def dists(pts, ii, jj):
        reads.append(len(ii))
        return pair_dists(pts, ii, jj)

    joined, counted = [], []
    kruskal_chain, significant_counts = plane_mod._kruskal_chain, analysis_mod._significant_counts

    def kruskal(n, ii, jj, ww):
        chain = kruskal_chain(n, ii, jj, ww)
        joined.append((len(ii), len(chain[2])))
        return chain

    def significant(*args):
        counted.append(1)
        return significant_counts(*args)

    monkeypatch.setattr(plane_mod, "_band_edges", edges)
    monkeypatch.setattr(plane_mod, "_band_pairs", pairs)
    monkeypatch.setattr(plane_mod, "_plane_pair_dists", dists)
    monkeypatch.setattr(plane_mod, "_kruskal_chain", kruskal)
    monkeypatch.setattr(analysis_mod, "_significant_counts", significant)
    sp = example31_fixture(20, 0.01, 1000)
    estimate_factorizing_step(sp)
    assert calls == {"Delaunay": 0, "epsilon_components": 0, "components": 0}
    assert chains == [[0.028285, 0.113139, 0.452556, 1.810223, 7.240894, 28.963576, 115.854303]]
    assert sum(reads) == 34484 and len(sp) == 6573
    assert joined == [(600, 210)] and len(counted) == 101


def rowwise_foelner(space, c, epsilon):
    """The recount the blocked search replaced: one distance row per point
    of the ball, started over at every k. (k, size, neighborhood size) of
    the first Foelner ball, or None."""
    bd = space.dists_from(space.basepoint)
    radius = float(space.inner_radius)
    if not math.isfinite(radius):
        radius = float(np.max(bd))
    k = 0
    while k + epsilon <= radius:
        inside = np.flatnonzero(bd <= k)
        if len(inside):
            mark = np.zeros(len(space), dtype=bool)
            for i in inside:
                mark |= space.dists_from(int(i)) <= epsilon
            nbr = int(np.sum(mark))
            if nbr <= c * len(inside):
                return k, len(inside), nbr
        k += 1
    return None


def foelner_triple(space, c, epsilon):
    f = foelner_search(space, c, epsilon)
    return None if f is None else (f.k, f.size, f.neighborhood_size)


def pure_free(sp):
    """Whether the search counts a ball, not recounting: a structural space
    of free coordinates, a group ball or a product of them."""
    return sp.structural and not any(sp.rule.orders)


@settings(max_examples=60, deadline=None)
@given(sup_spaces.filter(lambda sp: not pure_free(sp)),
       st.sampled_from([1.05, 1.2, 1.5, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_foelner_recount_matches_the_rowwise_loop(sp, c, epsilon):
    assert foelner_triple(sp, c, epsilon) == rowwise_foelner(sp, c, epsilon)


def test_foelner_recount_over_several_row_blocks():
    # 2178 points: a block holds 120 rows, and from k = 8 on a new shell
    # of the ball adds more than that
    sp = build_truncation(parse_group("Z^2 + C2"), radius=16)
    assert not pure_free(sp) and len(row_blocks(len(sp))) > 1
    for c, epsilon, want in ((1.25, 1.0, (8, 578, 722)), (1.5, 2.0, (9, 722, 1058)),
                             (2.0, 3.0, (7, 450, 882)), (1.2, 2.0, None)):
        assert foelner_triple(sp, c, epsilon) == rowwise_foelner(sp, c, epsilon) == want


@pytest.mark.parametrize("radius, c, epsilon, want", [
    (60, 1.1, 2, (41, 6889, 7569)), (6, 1.4, 1, (5, 121, 169)), (4, 2.0, 0.5, (0, 1, 1)),
])
def test_foelner_counts_a_product_of_free_balls_as_the_group_ball(radius, c, epsilon, want):
    # equal metric spaces, equal answers: the product is the group ball's
    # box, with its points in the same order
    product = product_space(zball(radius), zball(radius))
    assert pure_free(product)
    f = foelner_search(product, c, epsilon)
    assert f == foelner_search(zball(radius, 2), c, epsilon)
    assert foelner_triple(product, c, epsilon) == want


@pytest.mark.parametrize("make", [
    lambda: product_space(zball(5), zball(7)),
    lambda: product_space(product_space(zball(3), zball(4)), zball(2)),
    lambda: product_space(zball(4), tower_space([])),
], ids=["uneven", "three-factors", "with-a-point"])
def test_foelner_ball_count_of_free_products_matches_the_rowwise_loop(make):
    sp = make()
    assert pure_free(sp)
    for c, epsilon in ((1.05, 0.5), (1.2, 1.0), (1.5, 2.0), (3.0, 3.0)):
        assert foelner_triple(sp, c, epsilon) == rowwise_foelner(sp, c, epsilon)


def test_foelner_on_a_product_past_the_recount_limit():
    # 58,081 points: a recount would be refused past RECOUNT_LIMIT
    product = product_space(zball(120), zball(120))
    assert len(product) == 58081 > analysis_mod.RECOUNT_LIMIT
    assert foelner_search(product, 1.1, 2) == foelner_search(zball(120, 2), 1.1, 2)
