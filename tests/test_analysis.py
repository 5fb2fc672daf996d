"""Step estimation, empirical factor profiles, oscillation, Folner boxes,
and dimension covers, each checked against a hand or brute-force oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarseiso.analysis import (
    _mst_weights,
    _sup_diameter,
    _window_labels,
    asdim_cover,
    empirical_phi,
    estimate_factorizing_step,
    foelner_search,
    oscillation,
)
from coarseiso.factorfn import FactorFunction, ZERO_FF
from coarseiso.groups import parse_group
from coarseiso.spaces import (
    FiniteSpace,
    PlaneRule,
    TableRule,
    build_truncation,
    canonical_ultrametric,
    cantor_cube_truncation,
    epsilon_components,
    example31_fixture,
    k_point_space,
    product_space,
    subspace,
    tower_space,
    zball,
)


def ff(values, default=0):
    return FactorFunction.from_dict(values, default)


def brute_oscillation(source, target, src_idx, dst_idx, delta):
    best = 0.0
    for a in range(len(src_idx)):
        for b in range(len(src_idx)):
            if source.d(int(src_idx[a]), int(src_idx[b])) <= delta:
                best = max(best, float(target.d(int(dst_idx[a]), int(dst_idx[b]))))
    return best


class TestEmpiricalPhi:
    def test_canonical_model_recovers_its_profile(self):
        sp = canonical_ultrametric(ff({2: 2, 3: 1}), 3)
        assert empirical_phi(sp) == ff({2: 2, 3: 1})

    def test_truncation_caps_the_exponent(self):
        sp = build_truncation(parse_group("C2^inf"), radius=16)
        assert empirical_phi(sp) == ff({2: 4})

    def test_cantor_cube(self):
        assert empirical_phi(cantor_cube_truncation(4)) == ff({2: 4})

    def test_single_point(self):
        assert empirical_phi(k_point_space(1)) == ZERO_FF

    def test_partial_mass_from_deeper_profile(self):
        sp = canonical_ultrametric(ff({2: 3, 5: 1}), 4)
        assert empirical_phi(sp) == ff({2: 3, 5: 1})

    def test_mass_above_depth_is_capped(self):
        # four maximal exponents only fit 12 of their 16 summands; the model
        # needs a raised point budget and reports the truncated content
        phi = ff({2: 4, 3: 4, 5: 4, 7: 4})
        sp = canonical_ultrametric(phi, 12, point_budget=2_000_000)
        assert len(sp) == 1_134_000
        assert empirical_phi(sp) == ff({2: 4, 3: 4, 5: 3, 7: 1})

    def test_needs_ultrametric(self):
        with pytest.raises(ValueError):
            empirical_phi(zball(4))

    def test_prime_bound_filters(self):
        sp = tower_space([101])
        assert empirical_phi(sp, prime_bound=97) == ZERO_FF


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
            assert oscillation(sp, sp, idx, idx, delta) == delta

    def test_empty_table(self):
        sp = zball(2)
        assert oscillation(sp, sp, np.array([]), np.array([]), 1.0) == 0.0

    def test_mismatched_lengths(self):
        sp = zball(2)
        with pytest.raises(ValueError):
            oscillation(sp, sp, np.array([0]), np.array([0, 1]), 1.0)

    def test_matches_brute_force_on_reversal(self):
        sp = zball(8)
        idx = np.arange(len(sp))
        rev = idx[::-1].copy()
        for delta in (0.0, 1.0, 2.0, 5.0):
            want = brute_oscillation(sp, sp, idx, rev, delta)
            assert oscillation(sp, sp, idx, rev, delta) == want

    def test_matches_brute_force_tower_to_ball(self):
        t = tower_space([2, 3])
        zb = zball(3)
        src = np.arange(6)
        dst = np.array([zb.index[(v,)] for v in (-3, -2, -1, 1, 2, 3)])
        for delta in (2.0, 3.0):
            want = brute_oscillation(t, zb, src, dst, delta)
            assert oscillation(t, zb, src, dst, delta) == want

    def test_subset_source_ultrametric_path(self):
        t = tower_space([2, 2, 2])
        sub = np.array([0, 3, 5, 6])
        dst = np.array([0, 1, 2, 3])
        zb = zball(4)
        for delta in (2.0, 3.0, 4.0):
            want = brute_oscillation(t, zb, sub, dst, delta)
            assert oscillation(t, zb, sub, dst, delta) == want


class TestFoelner:
    def test_zball_box(self):
        f = foelner_search(zball(100), 1.1, 1)
        assert (f.k, f.size, f.neighborhood_size) == (10, 21, 23)
        assert f.ratio == pytest.approx(23 / 21)
        assert len(f.indices) == f.size

    def test_tower_subgroup_ball_is_exact(self):
        f = foelner_search(tower_space([2, 2, 2]), 1.1, 2)
        assert (f.k, f.size, f.neighborhood_size, f.ratio) == (2, 2, 2, 1.0)

    def test_no_box_fits(self):
        assert foelner_search(zball(5), 1.01, 3) is None

    def test_growth_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            foelner_search(zball(5), 1.0, 1)

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


class TestCover:
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


# randomized properties

small_towers = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=4
).map(tower_space)


@settings(max_examples=25, deadline=None)
@given(small_towers, st.integers(min_value=1, max_value=5))
def test_oscillation_of_identity_bounded_by_delta(sp, delta):
    idx = np.arange(len(sp))
    assert oscillation(sp, sp, idx, idx, float(delta)) <= delta


@settings(max_examples=25, deadline=None)
@given(small_towers, st.randoms(use_true_random=False))
def test_oscillation_matches_brute_force_random_maps(sp, rnd):
    n = len(sp)
    src = np.arange(n)
    dst = np.asarray(rnd.sample(range(n), n))
    for delta in (2.0, 3.0):
        assert oscillation(sp, sp, src, dst, delta) == brute_oscillation(
            sp, sp, src, dst, delta
        )


@settings(max_examples=20, deadline=None)
@given(small_towers)
def test_empirical_phi_divides_full_profile(sp):
    # every ball order divides the full group order
    phi = empirical_phi(sp)
    total = math.prod(sp.rule.orders)
    for p in phi.support_primes:
        assert total % p ** phi.get(p).finite_value() == 0


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.data())
def test_mst_and_window_graph_match_single_linkage(plane, data):
    # Delaunay (plane) and dense (table) edge graphs against scipy's
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
        sp = FiniteSpace(zb.labels, TableRule(zb.dmat(), ultrametric=False), zb.basepoint, 3)
        subset = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(zb) - 1), min_size=2))))
    tree = linkage(squareform(sp.dmat()[np.ix_(subset, subset)]), "single")
    heights = sorted(set(tree[:, 2].tolist()))
    assert _mst_weights(sp, subset) == heights

    coph = squareform(cophenet(tree))
    scales = [0.0] + heights + [h * 0.999 for h in heights]
    window = _window_labels(sp, subset, scales)
    for eps in scales:
        assert np.array_equal(window[eps][:, None] == window[eps][None, :], coph <= eps)


def test_window_labels_of_a_holed_line_take_the_graph_path():
    # a line ball with two gaps is not a box: coordinate keys would call it
    # one block at eps = 1, where it has three
    zb = zball(12)
    sp = subspace(zb, [i for i, (v,) in enumerate(zb.labels) if v not in (3, 4, -7, -8)])
    assert not sp.structural
    window = _window_labels(sp, np.arange(len(sp)), [1.0, 3.0])
    assert len(np.unique(window[1.0])) == epsilon_components(sp, 1).count == 3
    assert len(np.unique(window[3.0])) == epsilon_components(sp, 3).count == 1
    est = estimate_factorizing_step(sp)
    assert (est.estimate, est.stable_from) == (2.0, 3.0)


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


@settings(max_examples=60, deadline=None)
@given(ultrametric_spaces, sup_spaces, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
       st.data())
def test_oscillation_shortcut_matches_all_pairs(source, target, delta, data):
    # the key-and-diameter shortcut on random subsets and injective maps
    assert source.ultrametric
    n = min(len(source), len(target), 30)
    src = data.draw(st.lists(st.integers(0, len(source) - 1), min_size=1, max_size=n,
                             unique=True))
    dst = data.draw(st.lists(st.integers(0, len(target) - 1), min_size=len(src),
                             max_size=len(src), unique=True))
    src, dst = np.asarray(src), np.asarray(dst)
    want = brute_oscillation(source, target, src, dst, delta)
    assert oscillation(source, target, src, dst, delta) == want


@settings(max_examples=60, deadline=None)
@given(sup_spaces, st.data())
def test_sup_diameter_matches_pairwise_maximum(sp, data):
    idx = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(sp) - 1), min_size=1,
                                              max_size=40))))
    want = max(float(sp.d(int(a), int(b))) for a in idx for b in idx)
    assert _sup_diameter(sp, idx) == want
