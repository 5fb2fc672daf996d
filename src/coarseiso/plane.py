"""Plane point sets under the rounded Euclidean distance, the metric of the
sampled example-3.1 curve: its distances, chains, trees and components.
A leaf of the package: it imports the standard library and numpy only.
spaces reads it through dists, tree, window_chain and components (the
methods of PlaneRule), round_decimals and PLANE_DECIMALS (the fixture) and
BLOCK_ENTRIES (row_blocks).

The distance of two points is their Euclidean distance rounded to
PLANE_DECIMALS decimals (dists), the only formula for it in the package.
A point set reads its chain and tree once, from the candidate pairs of
bands (_band_edges, tree): the points are sorted once into the Morton
order of one fine cell grid, and every band reads its cells, buckets and
sub-cells as runs of that order. The index path carries what it can of
the tree: a candidate no lighter than the path between its ends is
dropped (the cycle property), the path edges lighter than every candidate
left join in bulk (a path holds no cycle), and one Kruskal pass loops over
the runs they leave (_path_chain). On the sampled curve, whose rows run
along it, that leaves little. The chain of any of its subsets is cut from
the whole chain (window_chain), and the bands a subset still needs read
the whole set's grid. Components join by _connected_labels over a grid of
cells, with no triangulation (components). They read a cell pair of
several point pairs only when its cells' boxes may come within eps (the
bound of the bands, _box_bounds), and the grid sorts its cells only when
their range is 4 times their number or more (_squeeze).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

PLANE_DECIMALS = 9
# a plane distance r of points at Euclidean distance d has
# |r - d| <= PLANE_HALF_UNIT + PLANE_REL * (d + PLANE_HALF_UNIT): half a unit
# of the last kept decimal, and a bound on the float error of the
# difference, hypot and the rounding (components)
PLANE_HALF_UNIT = 0.5 * 10.0**-PLANE_DECIMALS
PLANE_REL = 2.0**-40
# _band_pairs splits a bucket pair of more point pairs than SPLIT_PAIRS into
# Morton sub-cells, up to SPLIT_LEVELS levels (the fine grid of _band_edges
# is 2^SPLIT_LEVELS times finer than its first band's cells), and
# _band_edges skips the bands below the least box gap of at most
# SKIP_COMPONENTS components
SPLIT_PAIRS = 256
SPLIT_LEVELS = 8
SKIP_COMPONENTS = 64
# _band_pairs reads every point pair of its kept cell pairs directly, with
# no buckets, while they hold at most DIRECT_PAIRS point pairs a point. On
# the example31 fixtures of 20-30 branches (grids 0.01 and 0.0125) bands 1-4
# held 0.5-2.6 a point; every other band measured held at least 19.6
# (later fixture bands 28-6,475, an 80 x 80 lattice's first band 19.6, a
# uniform 3,000-point cloud's 177), so any bound from 3 to 16 routes these
# clouds alike
DIRECT_PAIRS = 4
# entries of one block of distance rows (2 MB of float64): spaces.row_blocks
# sizes every blocked distance read, and _slot_chunks every chunk of point
# pairs, so that one block holds about this many; blocks four times larger
# were no faster and raised the peak memory of witness chains by about an
# eighth
BLOCK_ENTRIES = 2**18


def dists(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The plane distances of points whose coordinates differ by dx and
    dy, elementwise: the Euclidean distance rounded to PLANE_DECIMALS
    decimals. Callers take the differences column by column: gathering
    whole (x, y) rows of column-major points took twice as long (18
    against 10 ms for 2^18 pairs, on a 2-vCPU x86 VM)."""
    return np.round(np.hypot(dx, dy), PLANE_DECIMALS)


def _plane_pair_dists(pts: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The plane distances of the point pairs (ii[k], jj[k]) (dists)."""
    return dists(pts[ii, 0] - pts[jj, 0], pts[ii, 1] - pts[jj, 1])


def tree(pts: np.ndarray) -> tuple:
    """((order, gap), (i, j, weight), grid) of plane points: their chain,
    as spaces.MetricRule.chain states it, a minimum spanning tree, and the
    grid of their bands (_plane_grid), which window_chain reuses.

    The tree comes from the candidate pairs of the bands (_band_edges),
    which hold a minimum spanning tree. Its edges are pairs as the bands
    gave them, by ascending weight, ties in the order the bands gave them:
    the joins of a Kruskal pass over every candidate pair, in joining
    order, when that pass joins the same tree. Under ties it may be another
    minimum spanning tree, as the bands may (_band_edges, step 3).

    Kruskal loops only over what the index path leaves apart, which on a
    curve sampled in order is little. The candidates joining rows k - 1
    and k form a path in index order, with weight pw[k], or inf where the
    bands gave no such pair. Every other candidate no lighter than the
    largest pw between its ends is dropped: it is a heaviest edge of a
    cycle whose other edges are all kept, so the kept edges join every two
    points below any height the candidates join them below (the cycle
    property), and every threshold component, at every height, stays.
    _path_chain then joins the path's edges lighter than every kept
    candidate in bulk, as a path holds no cycle, and runs Kruskal over the
    runs they leave."""
    n = len(pts)
    grid = _plane_grid(pts) if n > 1 else None
    ii, jj, ww = _band_edges(pts, np.arange(n), grid)
    # the index path, inf where the bands gave no neighbour pair, and
    # the other candidates lighter than it between their ends: those
    # whose path crosses an inf, and those the range maxima keep
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    step = hi - lo == 1
    pw, pe = np.full(n, math.inf), np.zeros(n, dtype=np.int64)
    pw[hi[step]], pe[hi[step]] = ww[step], np.flatnonzero(step)
    holes = np.cumsum(pw == math.inf)
    keep = (holes[hi] != holes[lo]) & ~step
    near = np.flatnonzero(~keep & ~step)
    keep[near] = ww[near] < _range_max(pw, lo[near] + 1, hi[near] + 1)
    keep = np.flatnonzero(keep)
    order, gap, joined = _path_chain(pw, ii[keep], jj[keep], ww[keep])
    # by weight, then as the bands gave them: the order a Kruskal pass
    # over every candidate joins the same tree in
    joined = np.sort(np.concatenate([pe, keep])[joined])
    joined = joined[np.argsort(ww[joined], kind="stable")]
    return (order, gap), (ii[joined], jj[joined], ww[joined]), grid


def window_chain(pts: np.ndarray, subset: np.ndarray, whole: tuple) -> tuple:
    """The chain of the points subset (ascending distinct indices) of
    pts, cut from the chain of all of them, whose tree(pts) is whole. The
    subset's points in whole-chain order are stably sorted by their
    component under the whole tree's edges inside the subset (the seeds).
    Each such component is a subtree of the whole tree, so two of its
    points merge in the subset at their height in the whole set: the
    largest whole-chain gap between them (_range_max), and each component
    starts at inf. The chain of a component is a path with the same
    heights as its subtree. When the seeds leave m > 1 components, Kruskal
    joins the paths and the bands' candidate pairs between them
    (_band_edges, steps 7 and 8), as tree joins the index path and its
    candidates (_path_chain): the paths, one after another with inf
    between them, are one path, whose edges lighter than the lightest
    candidate join in bulk, as a path holds no cycle, and Kruskal runs
    over the runs they leave. No candidate is dropped: each joins two
    components, and the path between its ends crosses an inf. The bands
    read the whole set's grid (_plane_grid): its t0, fine cells and Morton
    order, the order filtered to the subset (_grid_subset). A window sorts
    and scales nothing, and the reach bound of that grid holds for any
    subset of its points (_band_edges, step 1)."""
    (order, gap), (ii, jj, _), grid = whole
    n = len(subset)
    pos = np.full(len(pts), -1, dtype=np.int64)
    pos[subset] = np.arange(n)
    pi, pj = pos[ii], pos[jj]
    inside = (pi >= 0) & (pj >= 0)
    labels = _connected_labels(n, pi[inside], pj[inside])
    # at: the whole-chain positions of the subset's points, by component
    at = np.flatnonzero(pos[order] >= 0)
    at = at[np.argsort(labels[pos[order[at]]], kind="stable")]
    sub = pos[order[at]]
    comp = labels[sub]
    cuts = np.full(n, math.inf)
    same = np.flatnonzero(comp[1:] == comp[:-1]) + 1
    cuts[same] = _range_max(gap, at[same - 1] + 1, at[same] + 1)
    if not comp.any():
        return sub, cuts
    ja, jb, jw = _band_edges(pts[subset], labels, _grid_subset(grid, pos))
    where = np.empty(n, dtype=np.int64)
    where[sub] = np.arange(n)
    k, joins, _ = _path_chain(cuts, where[ja], where[jb], jw)
    return sub[k], joins


def round_decimals(values: np.ndarray, decimals: int) -> np.ndarray:
    """round(v, decimals) for every float v, bit for bit: numpy's rint of
    v * 10^decimals picks the integer Python's round does unless the scaled
    value lies within its own rounding error of a half (the product is off
    by at most half a unit in its last place), and those values, large ones
    included, go through Python's round."""
    scale = 10.0**decimals
    scaled = values * scale
    out = np.rint(scaled) / scale
    frac = scaled - np.floor(scaled)
    near = ~(np.abs(frac - 0.5) > 1e-6 + 2 * np.spacing(np.abs(scaled)))  # NaN included
    for k in np.flatnonzero(near).tolist():
        out[k] = round(float(values[k]), decimals)
    return out


def _plane_grid(pts: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The grid of the bands of two or more plane points (_band_edges,
    steps 1 and 2): the first scale t0, the points' fine cells in Morton
    order, and that order."""
    n = len(pts)
    rows, k = np.arange(n - 1), math.isqrt(n) // 2
    step = np.partition(_plane_pair_dists(pts, rows, rows + 1), k)[k]
    t = 2 * max(float(step), 10.0**-PLANE_DECIMALS)
    inv = _grid_scale(float(np.max(np.abs(pts))), t, 1)[0]
    fine = np.floor(pts * inv * 2**SPLIT_LEVELS).astype(np.int64)
    fine -= fine.min(axis=0)
    order = _morton_order(fine)
    return t, fine[order], order


def _grid_subset(grid: tuple, pos: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The grid of a whole space restricted to a subset, pos[i] the subset
    position of point i or -1: the same t0 and fine cells, and the whole
    Morton order filtered to the subset, in subset positions."""
    t, fine, order = grid
    at = pos[order]
    inside = at >= 0
    return t, fine[inside], at[inside]


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo[k]:hi[k]]) for each k, lo < hi: the larger of two
    overlapping maxima over runs of a power of 2, read from a sparse table
    of the maxima over the runs of each length 2^j."""
    levels = np.frexp((hi - lo).astype(float))[1] - 1  # floor(log2(hi - lo))
    top = int(levels.max(initial=0))
    table = np.full((top + 1, len(values)), -math.inf)
    table[0] = values
    for j in range(1, top + 1):
        half = 1 << (j - 1)
        table[j, :len(values) - 2 * half + 1] = np.maximum(
            table[j - 1, :len(values) - 2 * half + 1], table[j - 1, half:len(values) - half + 1])
    return np.maximum(table[levels, lo], table[levels, hi - (1 << levels)])


def _band_edges(pts: np.ndarray, labels: np.ndarray, grid: Optional[tuple]):
    """Candidate pairs (i, j, weight) between the components labels (each
    the least index of its points) of seed edges, a forest in some minimum
    spanning tree of plane points under plane distances: Kruskal over
    the seeds and the candidates takes a minimum spanning tree of the
    points (no seeds: labels = arange(n)). Bands of ratio 4 over one cell
    grid, read by shifts of one Morton order, with no triangulation.

    The labels start as the components of the seeds. A band reads, at a
    scale t, the lightest pair at distance <= t between each two components
    (_band_pairs). Those are its candidates, and the components they join
    (_connected_labels) become the labels; t then grows fourfold. The
    grid (_plane_grid) gives the first t, t0, the points' fine cells and
    their Morton order, all in that order: a whole space's own, or the
    restriction of a larger space's (_grid_subset), as for a step window.
    Its t0 is twice the sqrt(n) / 2-th least distance between neighbouring
    rows of the space it was built for: about the spacing of a uniform
    cloud whose rows are in lexicographic order, as a space's are, and
    twice the least spacing along a sampled curve. While at most
    SKIP_COMPONENTS components remain, t grows fourfold until it reaches
    the least box gap between two of them, so t = t0 * 4^b for the b-th
    fourfold step. Each step is exact:

    1. One grid, read by shifts. The points of the space the grid was
       built for get fine cells fine = floor(x * inv0 * 2^SPLIT_LEVELS)
       per axis once, inv0 the scale of _grid_scale at t0 with reach 1
       (never its join scale), less their least fine cell per axis. The
       bound below holds for every two of those points, so for any subset
       of them on the same cells. x * inv0 is rounded once and
       scaling by a power of 2 is exact, so the band at t = t0 * 4^b reads
       the cells fine >> (SPLIT_LEVELS + 2b), the grid of scale inv0 / 4^b
       with its origin moved by a whole number of fine cells, which changes
       no bound on cell differences. Two points at distance <= t lie in
       cells at most 1 apart per axis on it, since the reach bound of
       _grid_scale at t0 holds at t on the grid 4^b times coarser:
       (t0 + s) * 4^b >= t0 * 4^b + s for its slack s. fine stays below
       2^53, so a shift is clamped at 62 (one cell).
    2. One order: the points are sorted once, stably, by the Morton code
       of their fine cells (np.lexsort over two words of 27 interleaved
       bits per axis), so every aligned cell and sub-cell is a run of
       that order, and of that order filtered to any subset. With
       flips = (fx ^ fx') | (fy ^ fy') over neighbouring points, a cell at
       shift s starts where flips >> s is nonzero.
    3. Two reads, one set of pairs. While the cell pairs kept hold at most
       DIRECT_PAIRS point pairs a point, the band reads each of their
       point pairs of two components directly, a pair of one cell once.
       Otherwise it reads buckets: a bucket is a maximal run of one
       component inside one cell, and one component may give several
       buckets in a cell. Each point lies in exactly one bucket, so each
       pair between two components in cells at most 1 apart lies in
       exactly one bucket pair: the lightest pair of each two components,
       the bounds and the Morton split below do not depend on how the
       buckets fall. Either way every pair at distance <= t of two
       components is read once, so both keep the same weight for each two
       components. Ties keep the pair read first, so which read a band
       takes, and in which order its pairs fall, may keep another pair of
       the same weight: the tree may differ under ties, its heights not.
    4. Entering a band at t, the labels are the components of the seeds
       and of every pair at distance <= the last t, since a band's
       candidates join every two components with such a pair. So a pair
       between two of them is longer than the last t.
    5. The bounds on the distances between two boxes carry the rounding
       terms of _grid_scale (PLANE_HALF_UNIT and PLANE_REL), so a bucket
       pair dropped by them holds no pair that the band keeps. The Morton
       split changes which pairs are read, not which minimum is kept: a
       sub-pair is dropped by the same bounds.
    6. No pair between two components is closer than the least gap between
       their boxes, so the skipped bands are empty: the band at the larger
       t reads what they would have.
    7. Say Kruskal on all pairs between the seeds' components joins
       clusters X and Y by a pair of weight w during the band at t, so
       w <= t. The pair runs from a component A in X to a component B in
       Y of that band's start, and the lightest A-B pair, a candidate,
       weighs w, or Kruskal would have joined A and B before. So the
       candidates hold a minimum spanning tree of the components; with
       the seeds (step 8) it is one of the points, and Kruskal over both
       takes one as light. All minimum spanning trees share their
       single-linkage heights.
    8. A seed, an edge of a minimum spanning tree T of a larger space
       inside a subset W, is the only edge of T across its own cut. So
       every path in W between its ends crosses that cut by an edge no
       lighter than it, ties included, and the seeds lie in some minimum
       spanning tree of W.
    """
    n = len(pts)
    none = np.zeros(0, dtype=np.int64)
    pairs = [(none, none, np.zeros(0))]
    comps = np.count_nonzero(labels == np.arange(n))
    if comps > 1:
        t, fine, order = grid
        sorted_pts = pts[order]
        flips = (fine[1:, 0] ^ fine[:-1, 0]) | (fine[1:, 1] ^ fine[:-1, 1])
        shift = SPLIT_LEVELS
    while comps > 1:
        if comps <= SKIP_COMPONENTS:
            by = np.argsort(labels, kind="stable")
            boxes = _run_boxes(pts[by], np.flatnonzero(np.diff(labels[by], prepend=-1)))
            u, v = np.triu_indices(comps, k=1)
            floor = float(_box_bounds(boxes[:, u], boxes[:, v])[0].min())
            while t < floor:
                t *= 4
                shift += 2
        bi, bj, bw = _band_pairs(sorted_pts, fine, flips, labels[order], min(shift, 62), t)
        bi, bj = order[bi], order[bj]
        pairs.append((bi, bj, bw))
        labels = _connected_labels(n, labels[bi], labels[bj])[labels]
        comps = np.count_nonzero(labels == np.arange(n))
        t *= 4
        shift += 2
    return tuple(map(np.concatenate, zip(*pairs)))


def _morton_order(cells: np.ndarray) -> np.ndarray:
    """The stable order of non-negative integer cells (x, y), each below
    2^54, by their Morton (Z-order) code: the bits of x and y interleaved,
    x's above y's, as two words of 27 bits per axis, the high word first.
    Ties keep index order."""
    def spread(v):
        # bit k of v (k < 32) moves to bit 2k
        for s, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
            v = (v | (v << s)) & mask
        return v

    low, high = cells & (2**27 - 1), cells >> 27
    return np.lexsort([(spread(w[:, 0]) << 1) | spread(w[:, 1]) for w in (low, high)])


def _run_boxes(pts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Bounding boxes (x0, x1, y0, y1), as columns, of the runs of points
    that begin at the ascending starts."""
    return np.stack([np.minimum.reduceat(pts[:, 0], starts), np.maximum.reduceat(pts[:, 0], starts),
                     np.minimum.reduceat(pts[:, 1], starts), np.maximum.reduceat(pts[:, 1], starts)])


def _sub_pairs(rs: np.ndarray, rc: np.ndarray, subs: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Every pair (k, x, y) of the finer runs that start at subs, x inside
    run u[k] and y inside run v[k] of the runs that start at rs with sizes
    rc, in ascending (k, x, y) order."""
    lo = np.searchsorted(subs, rs)
    many = np.searchsorted(subs, rs + rc) - lo
    nu, nv = many[u], many[v]
    slots = nu * nv
    k = np.repeat(np.arange(len(slots)), slots)
    s = np.arange(len(k)) - np.repeat(np.cumsum(slots) - slots, slots)
    return k, lo[u][k] + s // nv[k], lo[v][k] + s % nv[k]


def _box_bounds(ubox: np.ndarray, vbox: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lower, upper) on the plane distance of every pair of
    points of two boxes, given as columns (x0, x1, y0, y1): the Euclidean
    distance lies between the gap of the boxes and the distance of their
    farthest corners, each off by at most a relative 2^-52 in floats, and
    dists rounds it within PLANE_HALF_UNIT + PLANE_REL * (d + h)."""
    h, rel = PLANE_HALF_UNIT, PLANE_REL
    gx = np.maximum(np.maximum(vbox[0] - ubox[1], ubox[0] - vbox[1]), 0)
    gy = np.maximum(np.maximum(vbox[2] - ubox[3], ubox[2] - vbox[3]), 0)
    fx = np.maximum(vbox[1] - ubox[0], ubox[1] - vbox[0])
    fy = np.maximum(vbox[3] - ubox[2], ubox[3] - vbox[2])
    # the factors beyond (1 - rel) and (1 + rel) cover the rounding of
    # computing the bounds
    return (np.hypot(gx, gy) * (1 - rel) ** 2 - h * (1 + rel),
            (np.hypot(fx, fy) + h) * (1 + rel) ** 2)


def _band_pairs(pts: np.ndarray, fine: np.ndarray, flips: np.ndarray, comp: np.ndarray,
                shift: int, t: float):
    """The lightest pair (i, j, weight) at plane distance <= t between
    each two components that have one, read on the cells fine >> shift, on
    which every such pair lies in cells at most 1 apart (_band_edges, step
    1). The points, their fine cells and their components (comp) are in
    Morton order, flips[k] = (fx ^ fx') | (fy ^ fy') of points k and k + 1
    (steps 2 and 3), and i and j index that order.

    Only the occupied cells are paired (_cell_pairs, reach 1), and two
    cells of one bucket each, of one component, are dropped first. While
    the cell pairs kept hold at most DIRECT_PAIRS * n point pairs, every
    pair of two components in them is read directly, in chunks of at most
    BLOCK_ENTRIES (_slot_chunks), a pair inside one cell once. Otherwise
    the band reads buckets. A bucket is a maximal run of one component in
    one cell, and a bucket pair is one of two distinct components in cells
    at most 1 apart. A bucket pair whose lower bound (_box_bounds) exceeds
    t, or the upper bound of another bucket pair of the same two
    components, or a distance read between them, holds no lightest pair
    and is dropped. A bucket pair of
    more than SPLIT_PAIRS point pairs is split into the pairs of its
    buckets' Morton sub-cells, runs of the order too, half a cell side
    each level, up to SPLIT_LEVELS levels, and the others are read, in
    chunks too. Either read keeps the lightest pair of each two components
    by one lexsort, and ties keep the pair read first (_band_edges,
    step 3)."""
    n = len(pts)
    cut = np.ones(n, dtype=bool)
    cut[1:] = (flips >> shift) != 0
    start = np.flatnonzero(cut)
    count = np.diff(start, append=n)
    cells = fine[start] >> shift
    # each occupied cell is one run, so _cell_pairs sees it once: by maps
    # its sorted cells back to the runs
    by, _, _, a, b, _ = _cell_pairs(_squeeze(cells[:, 0]), _squeeze(cells[:, 1]), 1, True)
    a, b = by[a], by[b]
    cut[1:] |= comp[1:] != comp[:-1]
    # two cells of one bucket each, of one component, hold no bucket pair
    one = np.where(np.add.reduceat(cut, start, dtype=np.int64) == 1, comp[start], -1)
    keep = (one[a] < 0) | (one[a] != one[b])
    a, b = a[keep], b[keep]
    found = [(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros(0, dtype=np.int64))]
    size = count[a] * count[b]
    if int(size.sum()) <= DIRECT_PAIRS * n:
        for c, slot in _slot_chunks(size):
            row, col = np.divmod(slot, count[b[c]])
            i, j = start[a[c]] + row, start[b[c]] + col
            ci, cj = comp[i], comp[j]
            read = (ci != cj) & ((a[c] != b[c]) | (row < col))
            i, j, ci, cj = i[read], j[read], ci[read], cj[read]
            r = _plane_pair_dists(pts, i, j)
            hit = r <= t
            key = np.minimum(ci[hit], cj[hit]) * n + np.maximum(ci[hit], cj[hit])
            found.append((r[hit], i[hit], j[hit], key))
        return _lightest(found)

    def runs(level: int):
        """Starts, sizes and boxes of the runs of one sub-cell of one
        component: the buckets at level 0."""
        cuts = cut.copy()
        cuts[1:] |= (flips >> (shift - level)) != 0
        rs = np.flatnonzero(cuts)
        return rs, np.diff(rs, append=n), _run_boxes(pts, rs)

    # the bucket pairs of two components in the cell pairs
    rs, rc, box = runs(0)
    k, u, v = _sub_pairs(start, count, rs, a, b)
    keep = (comp[rs[u]] != comp[rs[v]]) & ((a[k] != b[k]) | (u < v))
    u, v = u[keep], v[keep]
    cu, cv = comp[rs[u]], comp[rs[v]]
    keys, key = np.unique(np.minimum(cu, cv) * n + np.maximum(cu, cv), return_inverse=True)
    bound = np.full(len(keys), math.inf)
    level = 0
    while True:
        lower, upper = _box_bounds(box[:, u], box[:, v])
        np.minimum.at(bound, key, upper)
        keep = lower <= np.minimum(bound[key], t)
        u, v, key = u[keep], v[keep], key[keep]
        size = rc[u] * rc[v]
        small = (size <= SPLIT_PAIRS) | (level == SPLIT_LEVELS)
        su, sv, sk = u[small], v[small], key[small]
        for c, slot in _slot_chunks(size[small]):
            row, col = np.divmod(slot, rc[sv[c]])
            i, j = rs[su[c]] + row, rs[sv[c]] + col
            r = _plane_pair_dists(pts, i, j)
            np.minimum.at(bound, sk[c], r)
            hit = r <= np.minimum(bound[sk[c]], t)
            found.append((r[hit], i[hit], j[hit], sk[c][hit]))
        u, v, key = u[~small], v[~small], key[~small]
        if not len(u):
            break
        # each big pair becomes the pairs of its buckets' sub-cells
        level += 1
        subs, sizes, box = runs(level)
        k, u, v = _sub_pairs(rs, rc, subs, u, v)
        rs, rc, key = subs, sizes, key[k]
    return _lightest(found)


def _lightest(found: list[tuple]):
    """The lightest pair (i, j, weight) of each key, from reads (weight,
    i, j, key) in the order read: one stable lexsort, so ties keep the pair
    read first."""
    r, i, j, key = map(np.concatenate, zip(*found))
    by = np.lexsort((r, key))
    by = by[np.diff(key[by], prepend=-1) != 0]
    return i[by], j[by], r[by]


def _connected_labels(n: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n nodes under the edges
    (ii, jj): the least index in its component. Duplicate edges,
    self-loops and isolated nodes are allowed.

    Hook and shortcut (after Shiloach & Vishkin, 1982). Labels start as
    the nodes' own indices, and every label stays at most its node and a
    node of its component. A round hooks the larger label of each edge
    whose ends still carry two labels onto the smaller one (a label
    offered several keeps the least, which the bound below needs), then
    jumps pointers (labels[labels]) until nothing changes, so that every
    label is a root, its own label. A round without such an edge ends the
    pass: each component then has one label, a root, and so its least
    index.

    Rounds. After round t every node's label is at most the least index
    within t edges of it, so a pass hooks in at most as many rounds as the
    largest component's diameter. On a path it needs at most
    ceil(log2 n): the labels of a path stay contiguous runs, and only a
    run whose label is below every neighbour's stays a root, so each round
    at least halves the runs. Shuffled paths of 10^6 nodes take 13 rounds,
    bit-reversed ones 19. Each round reads only the edges still crossing
    two labels, and each jump halves the depth of the label forest, so a
    round makes at most log2(n) + 2 jumps."""
    labels = np.arange(n)
    while True:
        a, b = labels[ii], labels[jj]
        cross = a != b
        if not cross.any():
            return labels
        ii, jj, a, b = ii[cross], jj[cross], a[cross], b[cross]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _path_chain(gap: np.ndarray, ii: np.ndarray, jj: np.ndarray, ww: np.ndarray):
    """Chain (order, gap) of the graph on the n = len(gap) nodes of a path
    and extra edges (ii, jj, ww), and the edges joined, the bulk joins
    first: path edge k, 1 <= k < n, joins nodes k - 1 and k at gap[k],
    none where that is inf (gap[0] must be), and is named k; extra edge e
    is named n + e.

    Kruskal takes every path edge lighter than the lightest extra edge
    first, and a path holds no cycle, so it joins them all: they merge
    contiguous runs of the path, cut at every gap at least that edge.
    Kruskal then runs over the runs alone (_kruskal_chain): the path edges
    between consecutive runs, at their cut gaps, and the extra edges. The
    runs keep path order inside, with their gaps, and come in Kruskal's
    order, each starting at the height at which it joins."""
    n = len(gap)
    cut = gap >= ww.min(initial=math.inf)
    starts, run = np.flatnonzero(cut), np.cumsum(cut) - 1
    # each finite cut is a path edge from the run before it
    inner = starts[gap[starts] < math.inf]
    runs, joins, joined = _kruskal_chain(len(starts), np.concatenate([run[inner] - 1, run[ii]]),
                                         np.concatenate([run[inner], run[jj]]),
                                         np.concatenate([gap[inner], ww]))
    out = gap.copy()
    first = starts[runs]
    out[first] = joins
    # the runs in Kruskal's order, each in path order: a run laid out from
    # position p0 holds node first + p - p0 at position p
    size = np.diff(starts, append=n)[runs]
    k = np.arange(n) + np.repeat(first - (np.cumsum(size) - size), size)
    names = np.concatenate([inner, n + np.arange(len(ww))])
    return k, out[k], np.concatenate([np.flatnonzero(~cut), names[joined]])


def _kruskal_chain(n: int, ii: np.ndarray, jj: np.ndarray, ww: np.ndarray):
    """Chain (order, gap) of the graph on n nodes with edges (ii, jj, ww),
    and the positions of the edges joined, in joining order: the edges
    sorted by weight are joined by union-find, an edge whose ends are
    already joined skipped, and each cluster is kept as a linked list; a
    merge at height w appends one list to the other with w at the
    junction, and the pass stops once one tree spans the nodes. Nodes the
    edges leave apart are joined at height inf. The program's only
    union-find loop, and a Python one: a plane space hands it only the runs
    its index path leaves apart and the edges the path does not make
    redundant (tree, _path_chain)."""
    by = np.argsort(ww, kind="stable")
    parent = list(range(n))
    head, tail = list(range(n)), list(range(n))
    succ = [-1] * n
    after = [math.inf] * n  # height at which a node joins its successor
    joined: list[int] = []
    for e, a, b, w in zip(by.tolist(), ii[by].tolist(), jj[by].tolist(), ww[by].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        succ[tail[a]] = head[b]
        after[tail[a]] = w
        tail[a] = tail[b]
        parent[b] = a
        joined.append(e)
        if len(joined) == n - 1:
            break
    order: list[int] = []
    for r in range(n):
        if parent[r] == r:
            k = head[r]
            while k >= 0:
                order.append(k)
                k = succ[k]
    idx = np.asarray(order, dtype=np.int64)
    # a tree's tail joins nothing, so each tree starts at inf (cyclically)
    return idx, np.asarray(after, dtype=float)[np.roll(idx, 1)], np.asarray(joined, dtype=np.int64)


def _squeeze(cells: np.ndarray) -> np.ndarray:
    """Integer cell coordinates renumbered from 0 with every gap above 3
    cut to 4: differences of at most 3 keep their value, larger ones stay
    above 3, and the range stays below 4 * len(cells). Cells whose range is
    already below that are only shifted to start at 0, which keeps every
    difference, and the others are sorted (np.unique). Both renumberings
    are monotone and keep the same differences up to 3, so _cell_pairs
    reads the same order, cells and pairs from either."""
    low = cells.min()
    if cells.max() - low < 4 * len(cells):
        return cells - low
    vals, where = np.unique(cells, return_inverse=True)
    return np.concatenate(([0], np.cumsum(np.minimum(np.diff(vals), 4))))[where]


def _grid_scale(extent: float, eps: float, reach: int = 3) -> tuple[float, bool]:
    """Cells per unit length of a grid on which points at plane
    distance <= eps lie at most reach cells apart per axis, for
    coordinates of absolute value at most extent, and whether points one
    cell apart may be joined untested: components reads reach 3
    (see there for the bounds), the bands reach 1 (_band_edges), where
    the join bound is never met."""
    h, rel, e = PLANE_HALF_UNIT, PLANE_REL, 2.0**-8
    slack = h * (1 + rel)
    # the factors (1 - rel) and (1 + rel)^2 beyond the bounds stated in
    # components cover the rounding of computing them
    inv = (reach - e) / ((eps + slack) / (1 - rel)) * (1 - rel)
    if extent > 0:
        inv = min(inv, 2.0**44 / extent * (1 - rel))
    if eps > slack:
        inv_join = math.sqrt(2) * (2 + e) * (1 + rel) ** 3 / (eps - slack)
        if inv_join <= inv:
            return inv_join, True
    return inv, False


def components(pts: np.ndarray, eps: float) -> np.ndarray:
    """Component labels of the graph joining plane points at plane
    distance <= eps, read from a grid of square cells; no triangulation.

    Exactness. For points at Euclidean distance d, dists reads r with
    |r - d| <= h + rel * (d + h): h is half a unit of the last kept
    decimal, and rel = 2^-40 bounds the float error of the difference,
    hypot and the rounding. A point's cell is floor(x * inv) per axis, with
    x * inv rounded to a float; inv <= 2^44 / max|x| keeps that error, in
    cells, under e = 2^-8 for the difference of two points.

    * Reach: r <= eps gives d <= D = (eps + h * (1 + rel)) / (1 - rel), so
      the cells of such a pair differ by less than D * inv + e + 1 per
      axis: by at most 3 (Chebyshev) whenever inv <= (3 - e) / D.
    * Join: points in one cell or in 8-adjacent cells differ by under
      (2 + e) / inv per axis, so r <= eps once inv is at least
      sqrt(2) * (2 + e) * (1 + rel) / (eps - h * (1 + rel)): a cell side
      just under eps / (2 sqrt 2). The occupied cells joined to their
      neighbours give the first components.
    * Test: pairs in cells 2 or 3 apart are read exactly, r <= eps, but
      only between cells still in different components, and the
      components they join are joined once more.
    * Bound: a cell pair left to read that holds more than one point pair
      is read only when the lower bound of _box_bounds on its cells' boxes
      is at most eps. That bound carries h and rel, so it lies below the
      plane distance of every pair of the two boxes, and a cell pair it
      skips holds no pair within eps. Only such pairs go, so the hits
      reach _connected_labels in the same order. A pair of single points
      is read with no bound.

    Below eps of about 36 h no side meets both bounds on inv (at eps = 0
    none meets the join bound): the cells then honour the reach alone,
    nothing joins untested, and every pair up to 3 cells apart, one cell
    included, is read, crowded ones only within the bound. _squeeze
    renumbers the grid, so cell keys stay far below 2^63 at any scale of
    coordinates or eps. It sorts only cells whose range is 4 times their
    number or more, and either way the cell pairs are the same.

    Cell pairs come from key ranges (_cell_pairs). Point pairs are
    expanded in chunks of at most BLOCK_ENTRIES (_slot_chunks), a cell
    pair larger than that split across chunks, so memory stays bounded,
    but the number read is quadratic in the points per cell: a cloud that
    packs many points into a few cells around components that stay apart
    at eps, with boxes within eps of each other, costs up to O(n^2)
    distance reads. On the example31 fixtures at eps <= 2 every cell pair
    left to read holds one point a side, so the bound reads no box; at eps
    3.0 it takes the reads of example31:51:0.01 from 43,532 to 1,837.
    """
    inv, join = _grid_scale(float(np.max(np.abs(pts))), eps)
    cx = _squeeze(np.floor(pts[:, 0] * inv).astype(np.int64))
    cy = _squeeze(np.floor(pts[:, 1] * inv).astype(np.int64))
    # a cell pairs with itself only where nothing joins untested
    order, start, count, a, b, near = _cell_pairs(cx, cy, 3, not join)
    if join:
        cells = _connected_labels(len(start), a[near], b[near])
        far = ~near
        a, b = a[far], b[far]
        keep = cells[a] != cells[b]
        a, b = a[keep], b[keep]
        comp = np.empty(len(pts), dtype=np.int64)
        comp[order] = np.repeat(cells, count)
    else:
        comp = np.arange(len(pts))
    # skip the cell pairs of more than one point pair whose cells' boxes
    # lie beyond eps (Bound), boxing only the cells those pairs name
    skip = count[a] * count[b] > 1
    named = np.zeros(len(start), dtype=bool)
    named[a[skip]] = named[b[skip]] = True
    box = _run_boxes(pts[order[np.repeat(named, count)]], np.cumsum(count[named]) - count[named])
    at = np.cumsum(named) - 1
    skip[skip] = _box_bounds(box[:, at[a[skip]]], box[:, at[b[skip]]])[0] > eps
    a, b = a[~skip], b[~skip]
    ia, jb, nb = start[a], start[b], count[b]
    ii, jj = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for k, t in _slot_chunks(count[a] * nb):
        row, col = np.divmod(t, nb[k])
        i, j = order[ia[k] + row], order[jb[k] + col]
        hit = _plane_pair_dists(pts, i, j) <= eps
        ii.append(comp[i[hit]])
        jj.append(comp[j[hit]])
    return _connected_labels(int(comp.max()) + 1, np.concatenate(ii), np.concatenate(jj))[comp]


def _cell_pairs(cx: np.ndarray, cy: np.ndarray, reach: int, itself: bool):
    """The occupied cells of points in squeezed integer cells (cx, cy) and
    the cell pairs (a, b) up to reach cells apart (Chebyshev), one of each
    opposite pair, a cell paired with itself too when itself is true:
    components reads reach 3, the bands reach 1.

    Points by cell come from one stable sort of the cell keys: those of
    cell c are order[start[c]:start[c] + count[c]], and the cells ascend by
    key. A key is cx * width + cy, and width exceeds every cy by
    2 * reach + 1, so offsets of up to reach in y never wrap onto another
    column: the occupied cells of column cx + dx within reach in y are one
    run of the sorted keys, found by two searchsorted calls per dx, and a
    pair's key difference dx * width + dy names its offset. near marks the
    pairs of distinct cells 1 apart (Chebyshev)."""
    width = int(cy.max()) + 2 * reach + 1
    key = cx * width + cy
    order = np.argsort(key, kind="stable")
    start = np.flatnonzero(np.diff(key[order], prepend=-1))
    keys = key[order[start]]
    count = np.diff(start, append=len(key))
    # runs lo[r]:hi[r] of the sorted keys: in its own column a cell pairs
    # with those above it
    own = np.arange(len(keys))
    lo = [own + (not itself)]
    hi = [np.searchsorted(keys, keys + reach, side="right")]
    for dx in range(1, reach + 1):
        lo.append(np.searchsorted(keys, keys + (dx * width - reach)))
        hi.append(np.searchsorted(keys, keys + (dx * width + reach), side="right"))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    runs = hi - lo
    a = np.repeat(np.tile(own, reach + 1), runs)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(runs) - runs), runs)
    diff = keys[b] - keys[a]
    return order, start, count, a, b, (diff == 1) | (np.abs(diff - width) <= 1)


def _slot_chunks(sizes: np.ndarray):
    """The slots of items of the given sizes, in item order, as pairs (k, t)
    of arrays, slot t of item k, in chunks of at most BLOCK_ENTRIES slots;
    an item larger than that is split across chunks."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, BLOCK_ENTRIES):
        hi = min(total, lo + BLOCK_ENTRIES)
        # items k0 .. k1 - 1 hold the slots lo .. hi - 1
        k0 = int(np.searchsorted(ends, lo, side="right"))
        k1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        first = ends[k0:k1] - sizes[k0:k1]
        span = np.minimum(ends[k0:k1], hi) - np.maximum(first, lo)
        yield (np.repeat(np.arange(k0, k1), span),
               np.arange(lo, hi) - np.repeat(first, span))

