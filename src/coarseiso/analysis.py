"""Numerical estimators on finite metric spaces.

The central routine estimates the factorizing step of an ambient space from
a finite sample by watching, over nested observation windows, how many
sizable epsilon-blocks a delta-component decomposes into. Scales whose
counts saturate (stop depending on the window) are the ones at which the
quotient construction is trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .extnat import ExtNat
from .factorfn import FactorFunction
from .primes import factorize, primes_upto
from .spaces import (
    DENSE_LIMIT,
    FiniteSpace,
    PlaneRule,
    SupRule,
    _component_keys,
    _connected_labels,
    _partition_from_keys,
    _spanning_tree,
    delaunay_edges,
)

NOISE_NUM = 1
NOISE_DEN = 8  # a block is significant when 8 * size >= largest block

# spaces up to this size get a dense matrix cached for repeated row access;
# above it the O(n^2) memory outweighs the row recomputation
DENSE_CACHE_LIMIT = 3000


def dist_rows(space: FiniteSpace):
    """Row accessor, backed by the cached dense matrix on small spaces."""
    if len(space) <= DENSE_CACHE_LIMIT:
        m = space.dmat()
        return lambda i: m[i]
    return lambda i: space.dists_from(i)


# ---------------------------------------------------------------------------
# factorizing-step estimation


@dataclass(frozen=True)
class StepEstimate:
    """Window-stability report over the candidate scales.

    estimate is the largest tested scale whose block counts still depend on
    the observation window (0 when none does): a resolution-limited lower
    bound for the ambient factorizing step. stable_from is the smallest
    tested scale whose counts agree across all windows at every tested
    coarser scale; quotients taken there are safe.
    """

    estimate: float
    stable_from: Optional[float]
    candidates: tuple[float, ...]
    tested: tuple[float, ...]
    windows: tuple[float, ...]
    inconclusive: bool

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stable_from": self.stable_from,
            "candidates": list(self.candidates),
            "tested": list(self.tested),
            "windows": list(self.windows),
            "inconclusive": self.inconclusive,
        }


def _structured_values(rule: SupRule, radius: float) -> set[float]:
    """Distance values a sup rule can realize up to the radius: the cyclic
    levels, and every integer up to the radius when a coordinate is free."""
    vals = {0.0} | {float(lvl) for o, lvl in zip(rule.orders, rule.levels) if o}
    if 0 in rule.orders:
        vals |= {float(k) for k in range(1, int(radius) + 1)}
    return vals


def _mst_weights(space: FiniteSpace, subset: np.ndarray) -> list[float]:
    """Single-linkage merge heights of the subset: its minimum spanning
    tree's distinct edge weights."""
    # distinct points lie at positive distance, so no weight is a zero
    weights = _spanning_tree(len(subset), *_subset_edges(space, subset))[2]
    return sorted(set(weights.tolist()))


def _subset_edges(space: FiniteSpace, subset: np.ndarray):
    """Edges (i, j, weight) of the induced subspace, in subset positions.
    For plane spaces a fresh Delaunay triangulation of the subset is used;
    its threshold components agree with the full graph's because it
    contains the MST."""
    if isinstance(space.rule, PlaneRule):
        return delaunay_edges(space.coords[subset])
    if len(subset) > DENSE_LIMIT:
        raise ValueError("subset too large for dense edge enumeration")
    sub = np.asarray([space.dists_from(int(i))[subset] for i in subset])
    iu, ju = np.triu_indices(len(subset), k=1)
    return iu, ju, sub[iu, ju]


def _window_labels(
    space: FiniteSpace, subset: np.ndarray, tested: Sequence[float]
) -> dict[float, np.ndarray]:
    """Component labels of the induced subspace at each tested scale.

    Windows are balls around the basepoint, and a ball of a structural
    space is again a box, so there the coordinate keys classify chain
    components of the subspace itself.
    """
    out: dict[float, np.ndarray] = {}
    if space.structural and isinstance(space.rule, SupRule):
        sublabels = [space.labels[int(i)] for i in subset]
        for eps in tested:
            keys = _component_keys(sublabels, space.rule, float(eps))
            out[eps] = _partition_from_keys(eps, keys).point_block
        return out
    ii, jj, ww = _subset_edges(space, subset)
    for eps in tested:
        keep = ww <= eps
        out[eps] = _connected_labels(len(subset), ii[keep], jj[keep])
    return out


def _cluster_scales(vals: Sequence[float], rel: float = 1e-7) -> list[float]:
    """Collapse near-duplicate scales produced by coordinate rounding onto
    the cluster maximum, so one merge event is tested as one candidate."""
    out: list[float] = []
    for v in sorted(set(float(c) for c in vals)):
        if out and v - out[-1] <= rel * max(1.0, v):
            out[-1] = v
        else:
            out.append(v)
    return out


def _select_tested(candidates: Sequence[float], max_tested: int) -> list[float]:
    vals = _cluster_scales(list(candidates) + [0.0])
    if len(vals) <= max_tested:
        return vals
    head = vals[-max_tested // 2:]
    rest = vals[: -max_tested // 2]
    take = max(1, max_tested - len(head) - 1)
    idx = np.unique(np.linspace(0, len(rest) - 1, take).astype(int))
    return sorted(set(rest[i] for i in idx) | set(head) | {0.0})


def estimate_factorizing_step(
    space: FiniteSpace,
    max_tested: int = 48,
    window_fractions: tuple[float, ...] = (0.5, 0.75, 1.0),
) -> StepEstimate:
    """Estimate the factorizing step by window saturation.

    For each candidate scale eps and each coarser tested scale delta, count
    the significant eps-blocks inside the basepoint's delta-component of
    each window subspace (significant: at least 1/8 of the largest block
    there, which discards sampling debris near a fixture's boundary). A
    candidate is stable when the counts are window-independent.
    """
    base = space.basepoint
    bd = space.dists_from(base)
    radius = float(space.inner_radius)
    if not math.isfinite(radius) or radius <= 0:
        radius = float(np.max(bd))
    windows = tuple(f * radius for f in window_fractions)
    delta_cap = windows[0]

    if isinstance(space.rule, SupRule):
        values = _structured_values(space.rule, radius)
        candidates = sorted(v for v in values if v <= radius)
    else:
        candidates = _mst_weights(space, np.flatnonzero(bd <= radius))
        candidates = sorted(set([0.0] + list(candidates)))

    tested = _select_tested([c for c in candidates if c <= delta_cap], max_tested)
    subsets = [np.flatnonzero(bd <= w) for w in windows]
    inconclusive = len(subsets[0]) < 16 or len([c for c in tested if c > 0]) < 2

    labelings = [_window_labels(space, sub, tested) for sub in subsets]
    base_pos = [int(np.flatnonzero(sub == base)[0]) for sub in subsets]

    def sig_count(w: int, eps: float, delta: float) -> int:
        labels_d = labelings[w][delta]
        labels_e = labelings[w][eps]
        members = labels_d == labels_d[base_pos[w]]
        _, sizes = np.unique(labels_e[members], return_counts=True)
        return int(np.sum(sizes * NOISE_DEN >= np.max(sizes) * NOISE_NUM))

    stable: dict[float, bool] = {}
    for eps in tested:
        ok = True
        for delta in tested:
            if delta < eps or delta > delta_cap:
                continue
            counts = {sig_count(w, eps, delta) for w in range(len(subsets))}
            if len(counts) > 1:
                ok = False
                break
        stable[eps] = ok

    unstable = [e for e in tested if not stable[e]]
    stable_vals = [e for e in tested if stable[e]]
    estimate = max(unstable) if unstable else 0.0
    stable_from = min(stable_vals) if stable_vals else None
    if stable_from is None:
        inconclusive = True
    return StepEstimate(
        estimate=estimate,
        stable_from=stable_from,
        candidates=tuple(candidates),
        tested=tuple(tested),
        windows=windows,
        inconclusive=inconclusive,
    )


# ---------------------------------------------------------------------------
# empirical factor function


def empirical_phi(space: FiniteSpace, prime_bound: int = 97) -> FactorFunction:
    """Largest prime-power content of the realized ball orders around the
    basepoint, up to the faithfulness radius. Meaningful for ultrametric
    spaces, where balls are subgroups of the ambient model."""
    if not space.ultrametric:
        raise ValueError("empirical phi is defined for ultrametric spaces")
    plist = primes_upto(prime_bound)
    best: dict[int, int] = {}

    def absorb(count: int) -> None:
        for p, e in factorize(count).items():
            if p <= prime_bound and e > best.get(p, 0):
                best[p] = e

    rule = space.rule
    full_tower = isinstance(rule, SupRule) and rule.layout == "tower"
    if full_tower and len(space) == math.prod(rule.orders):
        acc: dict[int, int] = {}
        radius = float(space.inner_radius)
        for o, lvl in zip(rule.orders, rule.levels):
            if lvl > radius:
                break
            for p, e in factorize(o).items():
                acc[p] = acc.get(p, 0) + e
            for p, e in acc.items():
                if p <= prime_bound and e > best.get(p, 0):
                    best[p] = e
    else:
        bd = space.dists_from(space.basepoint)
        radius = float(space.inner_radius)
        if not math.isfinite(radius):
            radius = float(np.max(bd))
        for eps in np.unique(bd[bd <= radius]):
            absorb(int(np.sum(bd <= eps)))
    return FactorFunction.from_dict({p: ExtNat(e) for p, e in best.items() if p in plist})


# ---------------------------------------------------------------------------
# oscillation


def _sup_diameter(space: FiniteSpace, idx: np.ndarray) -> float:
    """Diameter of an index set. For a sup rule this is the max over the
    coordinates of each one's spread: the range of a free coordinate, the
    level of a cyclic one that varies. Otherwise pairwise."""
    if len(idx) <= 1:
        return 0.0
    rule = space.rule
    if isinstance(rule, SupRule):
        sub = space.coords[idx]
        spread = sub.max(axis=0) - sub.min(axis=0)
        free = np.asarray(rule.orders) == 0
        spans = np.where(free, spread, (spread != 0) * np.asarray(rule.levels))
        return float(spans.max(initial=0.0))
    best = 0.0
    for k in idx:
        best = max(best, float(np.max(space.dists_from(int(k))[idx])))
    return best


def oscillation(
    source: FiniteSpace,
    target: FiniteSpace,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    delta: float,
) -> float:
    """Largest target distance between images of source points within delta.

    Exhaustive over the given pairs. For an ultrametric source the delta-
    relation is an equivalence, so the value is the max image diameter over
    the delta-blocks.
    """
    src_idx = np.asarray(src_idx)
    dst_idx = np.asarray(dst_idx)
    if len(src_idx) != len(dst_idx):
        raise ValueError("mismatched map table")
    if len(src_idx) == 0:
        return 0.0
    if source.ultrametric:
        # in an ultrametric the within-delta relation is an equivalence, so
        # coordinate keys classify it even on an arbitrary subset
        if isinstance(source.rule, SupRule):
            sublabels = [source.labels[int(i)] for i in src_idx]
            kk = _component_keys(sublabels, source.rule, float(delta))
            groups: dict = {}
            for k, key in enumerate(kk):
                groups.setdefault(key, []).append(k)
            best = 0.0
            for members in groups.values():
                best = max(best, _sup_diameter(target, dst_idx[members]))
            return best
    best = 0.0
    srow, trow = dist_rows(source), dist_rows(target)
    for k in range(len(src_idx)):
        row = srow(int(src_idx[k]))[src_idx]
        near = np.flatnonzero(row <= float(delta) + 1e-12)
        if len(near):
            tr = trow(int(dst_idx[k]))[dst_idx[near]]
            best = max(best, float(np.max(tr)))
    return best


# ---------------------------------------------------------------------------
# Foelner search


@dataclass(frozen=True)
class FoelnerSet:
    k: int
    indices: tuple[int, ...]
    size: int
    neighborhood_size: int
    ratio: float

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "size": self.size,
            "neighborhood_size": self.neighborhood_size,
            "ratio": self.ratio,
        }


def foelner_search(
    space: FiniteSpace, c: float, epsilon: float, max_points: int = 30000
) -> Optional[FoelnerSet]:
    """First basepoint ball F = O_k with |O_epsilon(F)| <= c|F|, growing k
    while the enlarged set stays inside the faithfulness radius."""
    if c <= 1:
        raise ValueError("growth factor must exceed 1")
    base = space.basepoint
    bd = space.dists_from(base)
    radius = float(space.inner_radius)
    if not math.isfinite(radius):
        radius = float(np.max(bd))
    rule = space.rule
    pure_free = isinstance(rule, SupRule) and rule.layout == "group-ball" and not any(rule.orders)
    k = 0
    while k + epsilon <= radius:
        inside = np.flatnonzero(bd <= k)
        size = len(inside)
        if size:
            if pure_free:
                # a box fattened by epsilon is again a box, so a ball count
                # around the basepoint is the exact recount
                nbr = int(np.sum(bd <= k + epsilon))
            else:
                if len(space) > max_points:
                    raise ValueError("space too large for the neighborhood recount")
                mark = np.zeros(len(space), dtype=bool)
                for i in inside:
                    mark |= space.dists_from(int(i)) <= epsilon
                nbr = int(np.sum(mark))
            if nbr <= c * size:
                return FoelnerSet(
                    k=k,
                    indices=tuple(int(i) for i in inside),
                    size=size,
                    neighborhood_size=nbr,
                    ratio=nbr / size,
                )
        k += 1
    return None


# ---------------------------------------------------------------------------
# asymptotic-dimension covers


@dataclass(frozen=True)
class Cover:
    """Verified cover of a Z^r sup-metric ball: every epsilon-ball meets at
    most `multiplicity` blocks, and every block has diameter <= mesh."""

    rank: int
    epsilon: float
    radius: int
    mesh: float
    multiplicity: int
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "epsilon": self.epsilon,
            "radius": self.radius,
            "mesh": self.mesh,
            "multiplicity": self.multiplicity,
            "blocks": len(self.blocks),
        }


def _brick_ids(coords: np.ndarray, eps: int, rank: int) -> np.ndarray:
    """Staggered-brick block ids: side 2*eps*(rank+1), consecutive rows
    shifted by half a side so no ball meets joints in two rows at once."""
    L = 2 * eps * (rank + 1)
    if rank == 1:
        return coords[:, 0] // L
    x, y = coords[:, 0], coords[:, 1]
    row = y // L
    off = (row % 2) * (L // 2)
    col = (x - off) // L
    return (row + 2**20) * 2**21 + (col + 2**20)


def _bcc_ids(coords: np.ndarray, eps: int) -> np.ndarray:
    """Nearest-site cells of the body-centered lattice (2L)Z^3 union
    (2L)Z^3 + L, L = 2*eps*4: the cells meet four at a corner.

    The nearest site is one of two candidates: the rounded even-lattice
    site and the rounded odd-lattice site. Ties go to the even lattice.
    """
    L = 2 * eps * 4
    pts = coords.astype(float)
    even = 2 * L * np.round(pts / (2 * L))
    odd = 2 * L * np.round((pts - L) / (2 * L)) + L
    de = np.sum((pts - even) ** 2, axis=1)
    do = np.sum((pts - odd) ** 2, axis=1)
    pick_odd = do < de - 1e-9
    site = np.where(pick_odd[:, None], odd, even).astype(np.int64)
    cell = site // L + 2**18  # integer coords in units of L, shifted positive
    return (cell[:, 0] * 2**19 + cell[:, 1]) * 2**19 + cell[:, 2]


def asdim_cover(rank: int, epsilon: float, radius: int) -> Cover:
    """Uniformly bounded cover of the Z^rank ball with multiplicity rank+1
    at scale epsilon, verified exhaustively.

    rank <= 2 uses staggered bricks of side 2*ceil(epsilon)*(rank+1);
    rank 3 uses the body-centered nearest-site cells, whose corners have
    degree four.
    """
    if rank not in (0, 1, 2, 3):
        raise ValueError("rank must be between 0 and 3")
    eps = max(1, math.ceil(epsilon))
    side = 2 * radius + 1
    if side**max(rank, 1) > 2 * 10**6:
        raise ValueError("radius too large for exhaustive verification")
    if rank == 0:
        return Cover(0, epsilon, radius, 0.0, 1, ((tuple(),),))

    axes = [np.arange(-radius, radius + 1)] * rank
    mesh_grids = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh_grids], axis=1)
    if rank == 3:
        ids = _bcc_ids(coords, eps)
    else:
        ids = _brick_ids(coords, eps, rank)

    grid_ids = ids.reshape([side] * rank)
    mult = _max_ball_multiplicity(grid_ids, eps, rank)
    if mult > rank + 1:
        raise AssertionError(f"cover multiplicity {mult} exceeds {rank + 1}")

    mesh = 0.0
    blocks = []
    for bid in np.unique(ids):
        members = coords[ids == bid]
        spread = float(np.max(members.max(axis=0) - members.min(axis=0)))
        mesh = max(mesh, spread)
        blocks.append(tuple(tuple(int(v) for v in row) for row in members))
    return Cover(rank, epsilon, radius, mesh, int(mult), tuple(blocks))


def _max_ball_multiplicity(grid_ids: np.ndarray, eps: int, rank: int) -> int:
    """Exhaustive: the max number of distinct block ids inside any sup-ball
    of radius eps around a grid point.

    Edge padding repeats boundary ids, which are the clamped points' own
    ids and already inside every clipped ball, so clipping is handled
    without introducing spurious blocks.
    """
    side = grid_ids.shape[0]
    offsets = list(np.ndindex(*([2 * eps + 1] * rank)))
    pad = np.pad(grid_ids, eps, mode="edge")
    # slab the leading axis to bound the transient stack memory
    slab = max(1, int(3e7 // (len(offsets) * max(1, grid_ids.size // side))))
    best = 0
    for start in range(0, side, slab):
        stop = min(side, start + slab)
        rows = stop - start
        n = rows * (grid_ids.size // side)
        stack = np.empty((len(offsets), n), dtype=np.int64)
        for k, off in enumerate(offsets):
            sl = (slice(start + off[0], stop + off[0]),) + tuple(
                slice(o, o + side) for o in off[1:]
            )
            stack[k] = pad[sl].ravel()
        stack.sort(axis=0)
        distinct = np.ones(n, dtype=np.int64)
        distinct += np.sum(stack[1:] != stack[:-1], axis=0)
        best = max(best, int(np.max(distinct)))
    return best
