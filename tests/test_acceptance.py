"""End-to-end checks at desk scale, one per shipping criterion.

Each test re-derives its expected values by an independent route (brute
force over all pairs, raw coordinate recounts, exhaustive search) and
asserts a wall-clock budget. Verdict checks are exact; the only tolerance
is the stated interval for the plane step estimate.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from coarseiso.analysis import (
    asdim_cover,
    empirical_phi,
    estimate_factorizing_step,
    foelner_search,
)
from coarseiso.factorfn import (
    FactorFunction,
    ff_equal,
    ff_le,
    ff_sub,
    phi_of_nat,
)
from coarseiso.groups import (
    CanonicalForm,
    coarse_equivalent,
    coarse_isomorphic,
    find_multipliers,
    parse_group,
)
from coarseiso.spaces import (
    build_truncation,
    canonical_ultrametric,
    enumerate_summands,
    epsilon_components,
    example31_fixture,
    k_point_space,
    product_space,
    tower_space,
    zball,
)
from coarseiso.witness import (
    absorption_witness,
    component_multiplicity,
    factorization_witness,
    invert_witness,
    product_witness,
    relabel_witness,
    tower_alignment_witness,
    verify_witness,
)

# expensive witnesses built once and reused by the multiplicity criterion
_built: dict = {}


def _pass(n: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {n:2d}: PASS in {elapsed:6.2f}s (budget {budget:.0f}s) {detail}")
    assert elapsed < budget


def _tower_dmat(space) -> np.ndarray:
    # level ultrametric from raw digits, independent of the rule code
    levels = np.asarray(space.rule.levels, dtype=np.float32)
    digits = space.coords.astype(np.int64)
    n = len(space)
    d = np.zeros((n, n), dtype=np.float32)
    for i in range(digits.shape[1]):
        col = digits[:, i]
        np.maximum(d, np.where(col[:, None] != col[None, :], levels[i], 0.0), out=d)
    return d


def _live_pairs(w) -> tuple[np.ndarray, np.ndarray]:
    d = w.source.dists_from(w.source.basepoint)
    kept = [(s, t) for s, t in w.table if d[s] <= w.validity_radius + 1e-9]
    return np.asarray([s for s, _ in kept]), np.asarray([t for _, t in kept])


def test_criterion_01_pair_verdicts():
    """Named group pairs classify exactly as documented, both ways round."""
    started = time.perf_counter()
    rows = [
        ("equiv", "Z + C2^inf", "Z + C3^inf", True, "matched", None),
        ("equiv", "Z", "Z + C2^inf", False, "generation-mismatch", None),
        ("equiv", "Z^2", "Z^2", True, "matched", None),
        ("iso", "Z + C2^inf", "Z + C2^inf + C3", True, "case-3", (1, 3)),
        ("iso", "C2^inf", "C2^inf + C3", False, "case-2", None),
        ("iso", "Z^inf", "Z^inf + C5^inf", True, "case-1", None),
        ("iso", "C4", "C4", True, "case-2", (1, 1)),
    ]
    for relation, a, b, expected, label, mults in rows:
        fn = coarse_equivalent if relation == "equiv" else coarse_isomorphic
        for g1, g2 in ((a, b), (b, a)):
            v = fn(parse_group(g1), parse_group(g2))
            assert v.result is expected, (relation, g1, g2)
            assert v.case_label.startswith(label), (relation, g1, g2, v.case_label)
        v = fn(parse_group(a), parse_group(b))
        if mults is not None:
            assert v.multipliers == mults, (a, b, v.multipliers)
    _pass(1, started, 1.0, f"{len(rows)} pairs, both orientations")


def test_criterion_02_profile_recovery():
    """Seeded prime profiles survive the round trip through their model.

    Supports are drawn from the primes up to 47 with exponents up to 4;
    profiles whose depth-12 truncation would not fit the point budget are
    skipped. Every accepted profile has total mass <= 12 (three maximal
    exponents already cost 810000 points), so recovery must be exact.
    """
    started = time.perf_counter()
    rng = random.Random(2026)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    profiles = []
    attempts = 0
    while len(profiles) < 100:
        attempts += 1
        assert attempts < 5000, "sampler rejected too many profiles"
        support = rng.sample(pool, rng.randint(1, 5))
        phi = FactorFunction.from_dict({p: rng.randint(1, 4) for p in support})
        size = math.prod(enumerate_summands(phi, 12, prime_bound=47))
        if size <= 150_000:
            profiles.append(phi)
    for phi in profiles:
        got = empirical_phi(canonical_ultrametric(phi, 12, prime_bound=47), 47)
        mass = phi.total_mass
        if mass <= 12:
            assert ff_equal(got, phi), str(phi)
        else:
            capped = FactorFunction.from_dict(
                Counter(enumerate_summands(phi, 12, prime_bound=47))
            )
            assert ff_le(got, phi) and ff_equal(got, capped), str(phi)
    _pass(2, started, 10.0, f"100 profiles, {attempts} draws")


def test_criterion_03_splitting_witness():
    """The rank-one truncation splits off its basepoint component exactly.

    The witness is verified from its table alone, then every slice of the
    product source is re-checked pairwise against the target distances.
    """
    started = time.perf_counter()
    g = parse_group("Z + C2^inf")
    sp = build_truncation(g, radius=32)
    est = estimate_factorizing_step(sp)
    assert est.stable_from == 1.0
    w = factorization_witness(sp, est.stable_from)
    _built["factorization"] = w
    report = verify_witness(w)
    assert report.ok and report.violations == ()
    assert len(w) == len(sp) == 2080
    assert w.validity_radius == 32.0

    si, ti = _live_pairs(w)
    split = w.source.rule.split
    slices: dict = {}
    for s, t in zip(si.tolist(), ti.tolist()):
        slices.setdefault(w.source.labels[s][split:], []).append((s, t))
    levels = [2, 4, 8, 16, 32]  # the doubling schedule behind radius 32
    for members in slices.values():
        fiber = np.asarray([w.source.labels[s][:split] for s, _ in members])
        assert not fiber[:, 1:].any()  # fiber points sit on the free line
        image = np.asarray([w.target.labels[t] for _, t in members])
        want = np.abs(fiber[:, 0][:, None] - fiber[:, 0][None, :]).astype(float)
        got = np.abs(image[:, 0][:, None] - image[:, 0][None, :]).astype(float)
        for i, lvl in enumerate(levels, start=1):
            col = image[:, i]
            np.maximum(got, np.where(col[:, None] != col[None, :], float(lvl), 0.0), out=got)
        assert np.array_equal(want, got)
    _pass(3, started, 30.0, f"{len(slices)} slices isometric, validity {w.validity_radius}")


def test_criterion_04_tower_alignment():
    """Aligning a depth-12 order-2 tower with a depth-6 order-4 tower.

    Bijectivity, the aligned-ball statements, and the oscillation bounds are
    all re-derived from scratch on the full 4096 x 4096 distance matrices.
    """
    started = time.perf_counter()
    deltas = (2.0, 3.0, 5.0, 9.0, 13.0)
    al = tower_alignment_witness(tower_space([2] * 12), tower_space([4] * 6), deltas=deltas)
    _built["alignment"] = al
    w = al.witness
    assert len(w) == 4096
    srcs = sorted(s for s, _ in w.table)
    tgts = sorted(t for _, t in w.table)
    assert srcs == list(range(4096)) and tgts == list(range(4096))
    assert verify_witness(w).ok

    d_s = _tower_dmat(w.source)
    perm = np.empty(4096, dtype=int)
    for s, t in w.table:
        perm[s] = t
    d_t = _tower_dmat(w.target)[np.ix_(perm, perm)]

    for a, b in al.pairs:
        # images of level-a balls land inside level-b balls
        ru, rv = float(al.u_levels[a - 1]), float(al.v_levels[b - 1])
        assert float(d_t[d_s <= ru].max()) <= rv
    for ru, rv in w.claims[0]["pairs"]:
        # image of each ru-ball is a union of rv-balls
        if rv > 0:
            assert float(d_s[d_t <= rv].max()) <= ru
    for delta in deltas:
        omega = float(d_t[d_s <= delta].max())
        assert omega == w.forward_moduli[delta]
        assert omega <= al.modulus(delta)
    _pass(4, started, 10.0, f"pairs {al.pairs}")


def test_criterion_05_absorption_moduli():
    """Digit-split of a 2001-point line ball, brute-forced over all pairs."""
    started = time.perf_counter()
    deltas = (1.0, 3.0, 9.0)
    w = absorption_witness(3, 1000, deltas=deltas)
    _built["absorption"] = w
    report = verify_witness(w, deltas=deltas)
    assert report.ok

    si, ti = _live_pairs(w)
    d0 = w.source.dists_from(w.source.basepoint)
    assert len(si) == int(np.sum(d0 <= w.validity_radius + 1e-9))
    assert len(set(si.tolist())) == len(si) == len(set(ti.tolist()))

    xs = np.asarray([w.source.labels[int(s)][0] for s in si], dtype=float)
    d_s = np.abs(xs[:, None] - xs[None, :])
    d_t = w.target.dmat()[np.ix_(ti, ti)]
    for delta in deltas:
        assert report.forward[delta] == float(d_t[d_s <= delta].max())
        assert report.backward[delta] == float(d_s[d_t <= delta].max())
    assert {d: w.forward_moduli[d] for d in deltas} == {1.0: 1.0, 3.0: 1.0, 9.0: 3.0}
    assert {d: w.backward_moduli[d] for d in deltas} == {1.0: 5.0, 3.0: 11.0, 9.0: 29.0}
    _pass(5, started, 10.0, f"{len(si)} points, moduli re-measured")


def test_criterion_06_plane_step_estimate():
    """The tangent-curve fixture's step estimate lands within 0.1 of pi."""
    started = time.perf_counter()
    sp = example31_fixture(50, 0.01, 1000)
    est = estimate_factorizing_step(sp)
    assert math.pi - 0.1 <= est.estimate <= math.pi + 0.1
    _pass(6, started, 30.0, f"estimate {est.estimate:.6f} on {len(sp)} points")


def test_criterion_07_foelner_box():
    """A slow-growth box in the rank-two ball, recounted from coordinates."""
    started = time.perf_counter()
    sp = zball(60, rank=2)
    f = foelner_search(sp, 1.1, 2)
    assert f is not None
    assert (f.k, f.size, f.neighborhood_size) == (41, 6889, 7569)

    norms = np.max(np.abs(sp.coords.astype(int)), axis=1)
    assert set(np.flatnonzero(norms <= f.k).tolist()) == set(f.indices)
    assert int(np.sum(norms <= f.k)) == f.size == (2 * f.k + 1) ** 2
    assert int(np.sum(norms <= f.k + 2)) == f.neighborhood_size
    assert f.neighborhood_size <= 1.1 * f.size

    # a box found in a product stays inside one component and fills its line
    p = product_space(zball(20), tower_space([2], levels=[24]))
    fp = foelner_search(p, 1.1, 1)
    assert fp is not None
    part = epsilon_components(p, 1)
    assert len({int(part.point_block[i]) for i in fp.indices}) == 1
    assert sorted(p.labels[i][0] for i in fp.indices) == list(range(-fp.k, fp.k + 1))
    _pass(7, started, 5.0, f"k={f.k}, {f.neighborhood_size} <= 1.1*{f.size}")


def test_criterion_08_grid_cover():
    """Brick cover of the rank-two ball, multiplicity recounted per point."""
    started = time.perf_counter()
    cover = asdim_cover(2, 5, 100)
    assert cover.multiplicity <= 3

    side = 2 * cover.radius + 1
    owner = np.full((side, side), -1, dtype=np.int64)
    mesh = 0.0
    for b, block in enumerate(cover.blocks):
        pts = np.asarray(block)
        mesh = max(mesh, float(np.max(pts.max(axis=0) - pts.min(axis=0))))
        owner[pts[:, 0] + cover.radius, pts[:, 1] + cover.radius] = b
    assert (owner >= 0).all()
    assert sum(len(b) for b in cover.blocks) == side * side
    assert mesh == cover.mesh <= 2 * 5 * 3

    eps = 5
    worst = 0
    for i in range(side):
        strip = owner[max(0, i - eps):i + eps + 1]
        for j in range(side):
            window = strip[:, max(0, j - eps):j + eps + 1]
            worst = max(worst, len(np.unique(window)))
    assert worst == cover.multiplicity
    _pass(8, started, 10.0, f"multiplicity {worst}, mesh {mesh}")


def test_criterion_09_relation_consistency():
    """Isomorphism implies equivalence; both are symmetric and transitive."""
    started = time.perf_counter()
    rng = random.Random(909)
    pool = [
        "Z", "Z^2", "Z^3", "Z^inf", "C2", "C3", "C4", "C9", "C12",
        "C2^inf", "C3^inf", "C5^inf", "C6", "F8", "Call^inf",
        "Z + C2^inf", "Z + C3^inf", "Z + C2^inf + C3", "Z^2 + C4",
        "C2^inf + C3", "C2^inf + C3^inf", "Z + C4 + C9",
    ]
    groups = [parse_group(s) for s in pool]
    pick = lambda: rng.choice(groups)

    for _ in range(500):
        a, b = pick(), pick()
        iso, eqv = coarse_isomorphic(a, b), coarse_equivalent(a, b)
        if iso.result:
            assert eqv.result, (str(a), str(b))
        assert coarse_isomorphic(b, a).result == iso.result
        assert coarse_equivalent(b, a).result == eqv.result

    chained = 0
    for _ in range(200):
        a, b, c = pick(), pick(), pick()
        for fn in (coarse_isomorphic, coarse_equivalent):
            if fn(a, b).result and fn(b, c).result:
                chained += 1
                assert fn(a, c).result, (str(a), str(b), str(c))
    assert chained > 0
    _pass(9, started, 30.0, f"500 pairs, 200 triples ({chained} premises held)")


def test_criterion_10_multiplicities():
    """Slice counts are constant on every constructed witness family, and
    the closed-form minimal multipliers match exhaustive search up to 64."""
    started = time.perf_counter()
    wf = _built.get("factorization") or factorization_witness(
        build_truncation(parse_group("Z + C2^inf"), radius=32), 1.0
    )
    assert component_multiplicity(wf, 1.0) == 1

    al = _built.get("alignment") or tower_alignment_witness(
        tower_space([2] * 12), tower_space([4] * 6)
    )
    unit = relabel_witness(k_point_space(1), k_point_space(1))
    assert component_multiplicity(product_witness(al.witness, unit), 2.0) == 1

    absorb = _built.get("absorption") or absorption_witness(3, 1000)
    assert component_multiplicity(invert_witness(absorb), 1.0) == 3

    powers = [None] + [phi_of_nat(n) for n in range(1, 65)]

    def exhaustive(x: FactorFunction, y: FactorFunction):
        for n in range(1, 65):
            if not ff_le(powers[n], x):
                continue
            left = ff_sub(x, powers[n])
            for m in range(1, 65):
                if ff_le(powers[m], y) and ff_equal(left, ff_sub(y, powers[m])):
                    return (n, m)
        return None

    rng = random.Random(4242)
    checked_none = 0
    for i in range(50):
        base = {p: rng.randint(0, 3) for p in rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 4))}
        if rng.random() < 0.3:
            base[rng.choice([2, 3, 5])] = math.inf
        x, y = dict(base), dict(base)
        bump = rng.sample([2, 3, 5, 7], rng.randint(0, 2))
        for p in bump:
            exp = rng.randint(1, 3 if p == 2 else 1)
            side = x if rng.random() < 0.5 else y
            cur = side.get(p, 0)
            side[p] = cur + exp  # inf + exp = inf
        if i % 10 == 9:
            x[17], y[17] = math.inf, rng.randint(0, 3)  # mismatched tail: no pair
        fx = FactorFunction.from_dict(x)
        fy = FactorFunction.from_dict(y)
        got = find_multipliers(CanonicalForm(1, fx), CanonicalForm(1, fy))
        want = exhaustive(fx, fy)
        assert got == want, (x, y, got, want)
        checked_none += want is None
    assert 0 < checked_none < 50
    _pass(10, started, 30.0, f"3 families constant, 50 pairs ({checked_none} without multipliers)")
