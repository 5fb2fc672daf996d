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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .factorfn import FactorFunction
from .primes import factorize
from .spaces import BudgetError, FiniteSpace, _check_epsilon, level_chain, row_blocks

NOISE_NUM = 1
NOISE_DEN = 8  # a block is significant when 8 * size >= largest block
RECOUNT_LIMIT = 30000  # foelner_search recounts neighbourhoods up to here
MAX_TESTED = 48  # scales a step estimate tests at most
WINDOW_FRACTIONS = (0.5, 0.75, 1.0)  # its windows, as fractions of the radius
# oscillation's window route: the least table it takes (the pair pass was
# faster below about this many entries), and the most cells per entry in
# each side's coordinate box
WINDOW_MIN = 325
BOX_PER_ENTRY = 4

# ---------------------------------------------------------------------------
# factorizing-step estimation


@dataclass(frozen=True)
class StepEstimate:
    """Window-stability report over the candidate scales.

    estimate is the largest tested scale whose block counts still depend on
    the observation window (0 when none does): a resolution-limited lower
    bound for the ambient factorizing step. stable_from is the smallest
    tested scale whose counts agree across all windows at every tested
    coarser scale; quotients taken there are safe. The largest tested
    scale always does: every window counts one block there, the basepoint's
    run.
    """

    estimate: float
    stable_from: float
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


def _cluster_scales(vals: Sequence[float]) -> list[float]:
    """Collapse near-duplicate scales produced by coordinate rounding onto
    the cluster maximum, so one merge event is tested as one candidate:
    a scale within 1e-7 of the last kept one, relative to the larger of the
    scale and 1, joins its cluster."""
    out: list[float] = []
    for v in sorted(set(float(c) for c in vals)):
        if out and v - out[-1] <= 1e-7 * max(1.0, v):
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


def _base_runs(gap: np.ndarray, at: int, deltas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The basepoint's run [lo, hi) of a chain at each of the ascending
    scales: a run is cut where gap > delta, and the basepoint sits at
    position at. The largest gap met walking out from the basepoint grows
    with the distance walked, so the first cut on each side is one
    searchsorted of that running maximum for all scales at once."""
    delta = np.asarray(deltas, dtype=float)
    # gap[0] = inf, so the walk to the left always meets a cut
    left = np.maximum.accumulate(gap[at::-1])
    right = np.maximum.accumulate(gap[at + 1:])
    lo = at - left.searchsorted(delta, side="right")
    return lo, at + 1 + right.searchsorted(delta, side="right")


def _significant_counts(
    gap: np.ndarray, at: int, eps: float, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Significant eps-blocks of each of the basepoint's runs [lo, hi), one
    or more, of a chain at ascending coarser scales. The eps-blocks inside
    a delta-run are the eps-runs inside it, since eps <= delta makes every
    cut at delta one at eps. The delta-runs nest around the basepoint's
    eps-run, so the largest block of each is the larger of two running
    maxima walking out from that run, and the largest blocks grow with
    delta. So each eps-run counts at the scales from the first delta-run
    that holds it up to the first whose largest block is too large for it:
    an interval of scales, and the counts are the running sum of the
    intervals' ends."""
    # the eps-runs of the last delta-run, the largest; it starts at a cut
    start = int(lo[-1])
    bounds = np.append(np.flatnonzero(gap[start:hi[-1]] > eps), hi[-1] - start)
    sizes = np.diff(bounds)
    own = int(bounds.searchsorted(at - start, side="right")) - 1
    # delta-run k holds the eps-runs [a[k], b[k]), with a[k] <= own < b[k]
    a, b = bounds.searchsorted(lo - start), bounds.searchsorted(hi - start)
    left = np.maximum.accumulate(sizes[own::-1])
    right = np.maximum.accumulate(sizes[own:])
    top = np.maximum(left[own - a], right[b - 1 - own])
    # a run too small for the least largest block counts at no scale
    runs = np.flatnonzero(sizes * NOISE_DEN >= top[0] * NOISE_NUM)
    # each counts from the first delta-run that holds it (the runs left of
    # the basepoint's by the starts a, which fall with delta, the others
    # by the ends b) up to the first whose largest block is too large
    cut = int(runs.searchsorted(own))
    first = np.concatenate(((-a).searchsorted(-runs[:cut]),
                            b.searchsorted(runs[cut:], side="right")))
    stop = (top * NOISE_NUM).searchsorted(sizes[runs] * NOISE_DEN, side="right")
    keep = first < stop
    slots = len(a) + 1
    ends = np.bincount(first[keep], minlength=slots) - np.bincount(stop[keep], minlength=slots)
    return np.cumsum(ends[:-1])


def estimate_factorizing_step(space: FiniteSpace) -> StepEstimate:
    """Estimate the factorizing step by window saturation.

    For each candidate scale eps and each coarser tested scale delta, count
    the significant eps-blocks inside the basepoint's delta-component of
    each window, the basepoint ball at each of WINDOW_FRACTIONS of the
    radius (significant: at least 1/8 of the largest block there, which
    discards sampling debris near a fixture's boundary). A candidate, of at
    most MAX_TESTED tested, is stable when the counts are window-independent.
    The candidates come from the rule (MetricRule.step_candidates) and the
    gaps of the last window's chain, the ball of the radius; each window of
    a distinct size reads its chain once.
    """
    base = space.basepoint
    bd = space.base_dists
    radius = float(space.inner_radius)
    if not math.isfinite(radius) or radius <= 0:
        radius = float(np.max(bd))
    windows = tuple(f * radius for f in WINDOW_FRACTIONS)
    delta_cap = windows[0]

    # windows are nested balls, so windows of one size are one subset with
    # one chain; the last window is the ball of the radius, whose chain
    # gives the candidates
    subsets = [np.flatnonzero(bd <= w) for w in windows]
    chains: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for sub in subsets:
        if len(sub) not in chains:
            chains[len(sub)] = space.rule.chain(space, sub)
    candidates = space.rule.step_candidates(radius, chains[len(subsets[-1])][1])
    tested = _select_tested([c for c in candidates if c <= delta_cap], MAX_TESTED)
    inconclusive = len(subsets[0]) < 16 or len([c for c in tested if c > 0]) < 2

    # per window, the significant counts at each tested scale eps over its
    # coarser tested scales; eps is stable when every window counts as the
    # first does, so a later window counts only the scales still stable
    first: dict[int, np.ndarray] = {}
    still = list(range(len(tested)))
    for sub in subsets:
        order, gap = chains[len(sub)]
        at = int(np.flatnonzero(sub[order] == base)[0])
        lo, hi = _base_runs(gap, at, tested)
        counts = {k: _significant_counts(gap, at, tested[k], lo[k:], hi[k:]) for k in still}
        first = first or counts
        still = [k for k in still if np.array_equal(first[k], counts[k])]

    estimate = max((e for k, e in enumerate(tested) if k not in still), default=0.0)
    stable_from = tested[still[0]]
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


def empirical_phi(space: FiniteSpace, prime_bound: int) -> FactorFunction:
    """Largest prime-power content of the realized ball orders around the
    basepoint, up to the faithfulness radius. Meaningful for ultrametric
    spaces, where balls are subgroups of the ambient model."""
    if not space.ultrametric:
        raise ValueError("empirical phi is defined for ultrametric spaces")
    best: dict[int, int] = {}
    bd = space.base_dists
    for eps in np.unique(bd[bd <= float(space.inner_radius)]):
        for p, e in factorize(int(np.sum(bd <= eps))).items():
            if p <= prime_bound and e > best.get(p, 0):
                best[p] = e
    return FactorFunction.from_dict(best)


# ---------------------------------------------------------------------------
# oscillation


def _pair_blocks(space: FiniteSpace, idx: np.ndarray) -> Callable[[slice], np.ndarray]:
    """Reader of the table's distances by row block: block blk holds the
    distances from idx[blk] to idx[blk.start:], which covers the pairs
    i <= j of those rows, computed by the rule from the kernel coordinates
    of the table's points (narrowed to integers under a sup rule)."""
    rule = space.rule
    coords = rule.kernel_coords(space.coords[idx])
    return lambda blk: rule.dists(coords[blk], coords[blk.start:])


def _within(dtype: np.dtype, deltas: Sequence[float]) -> list[Union[int, float]]:
    """Bound b per scale with d <= b exactly when d <= delta + 1e-12, for
    distances d of the dtype: an integer distance passes when it is at most
    the floor, and an integer bound keeps the comparison in the block's
    dtype. A NaN scale's bound admits no distance, as NaN does in a float
    block."""
    bounds = [delta + 1e-12 for delta in deltas]
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return [math.floor(min(max(b, info.min), info.max)) if b == b else info.min
                for b in bounds]
    return bounds


def _keyed_oscillation(src: tuple, dst: tuple, deltas: list[float]) -> list[float]:
    """Max image diameter over the delta-blocks of the source, at each
    scale, where each side is the (rows, orders, levels) of its points
    (MetricRule.sup_rows) and has cyclic columns only. The blocks are the
    runs of the source's chain cut where a gap is beyond the pair pass's
    bound (level_chain, _within). The largest image diameter over them is
    the largest level of a target column that varies in some run: in which
    two neighbours along the chain differ, with a gap within the bound
    between them. So a column counts from the least such gap on, one pass
    for all scales."""
    order, gap = level_chain(src[0], np.asarray(src[2], dtype=float))
    rows, levels = dst[0], np.asarray(dst[2], dtype=float)
    ranked = rows[order]
    differ = ranked[1:] != ranked[:-1]
    # NaN where a column never differs: it counts at no scale
    least = np.fmin.reduce(np.where(differ, gap[1:, None], np.nan), axis=0, initial=np.nan)
    return [float(levels[least <= bound].max(initial=0.0)) for bound in _within(gap.dtype, deltas)]


def _widen(x: np.ndarray, axis: int, reached: int, radius: int) -> np.ndarray:
    """Maxima over the windows of a radius along axis, clipped at its ends,
    from x, the maxima over the windows of the reached radius r. The window
    of radius r + s around i is the union of the r-windows around i - s, i
    and i + s when s <= 2r + 1. When s <= r + 1 too, the part of the window
    on the far side of an r-window centred off the axis is off the axis as
    well, so leaving that r-window out is exact. Each step shifts by at
    most r + 1, so the radius at least doubles per step; a radius that
    covers the axis leaves it one cell."""
    if radius >= x.shape[axis] - 1:
        return x.max(axis=axis, keepdims=True)
    before = (slice(None),) * axis
    while reached < radius:
        step = min(radius - reached, reached + 1)
        head, tail = before + (slice(step, None),), before + (slice(None, -step),)
        y = x.copy()
        y_head, y_tail = y[head], y[tail]
        np.maximum(y_head, x[tail], out=y_head)
        np.maximum(y_tail, x[head], out=y_tail)
        x, reached = y, reached + step
    return x


def _window_oscillation(src: tuple, dst: tuple, deltas: list[float]) -> list[float]:
    """Forward oscillation at each scale, where each side is the (rows,
    orders, levels) of its points (MetricRule.sup_rows), from window maxima
    over the source's coordinate box. The source points within an integer
    bound b of a row (the pair pass's, _within) are a window: radius b on
    each free axis, the whole axis on a cyclic one of level <= b, the row's
    own value on the others. So each target column is read alone: its
    largest value in a cell's window less its least value in the cell,
    over the cells, is the largest difference between images of points
    within b (pairs are symmetric). A free column counts that value, and a
    cyclic one its level when the value is positive. The cells hold the
    largest and least target value of the table's points there (-inf and
    +inf where none is), ufunc.at reducing rows that share a cell, and the
    windows grow scale by scale; a collapsed axis stays one cell."""
    rows, orders, levels = src
    values, t_orders, t_levels = dst
    offset = rows - rows.min(axis=0)
    shape = tuple(int(w) + 1 for w in offset.max(axis=0).tolist())
    size, k = math.prod(shape), values.shape[1]
    # row-major cell numbers, exact in float64 below 2^53
    cell = (offset @ [float(math.prod(shape[c + 1:])) for c in range(len(shape))]).astype(np.int64)
    high, low = np.full((k, size), -np.inf), np.full((k, size), np.inf)
    for c in range(k):
        np.maximum.at(high[c], cell, values[:, c])
        np.minimum.at(low[c], cell, values[:, c])
    top, low = high.reshape((k,) + shape), low.reshape((k,) + shape)
    free = [a for a, o in enumerate(orders, start=1) if o == 0]
    cyclic = [(a, lvl) for a, (o, lvl) in enumerate(zip(orders, levels), start=1) if o]
    bounds = _within(np.dtype(np.int64), deltas)  # sup distances are integers
    out, reached = {}, 0
    for bound in sorted(set(b for b in bounds if b >= 0)):
        if bound > reached:
            for axis in free:
                top = _widen(top, axis, reached, bound)
        collapse = tuple(a for a, lvl in cyclic if lvl <= bound and top.shape[a] > 1)
        if collapse:
            top = top.max(axis=collapse, keepdims=True)
        reached = bound
        spread = (top - low).reshape(k, size).max(axis=1).tolist()
        out[bound] = float(max([v if o == 0 else lvl * (v > 0)
                                for v, o, lvl in zip(spread, t_orders, t_levels)], default=0))
    return [out.get(b, 0.0) for b in bounds]


def _pair_oscillation(
    source: FiniteSpace, target: FiniteSpace, src_idx: np.ndarray, dst_idx: np.ndarray,
    deltas: list[float],
) -> tuple[list[float], list[float]]:
    """Forward and backward oscillation at every scale from one pass over
    the pairs i <= j: each row block's source and target distances are
    computed once and serve both directions; a masked-out pair reads 0,
    which is no larger than any distance."""
    read_s, read_t = _pair_blocks(source, src_idx), _pair_blocks(target, dst_idx)
    fwd, bwd = [0.0] * len(deltas), [0.0] * len(deltas)
    bound_s = bound_t = None
    for blk in row_blocks(len(src_idx)):
        ds, dt = read_s(blk), read_t(blk)
        if bound_s is None:  # every block of a reader has the same dtype
            bound_s, bound_t = _within(ds.dtype, deltas), _within(dt.dtype, deltas)
        for k in range(len(deltas)):
            fwd[k] = max(fwd[k], float((dt * (ds <= bound_s[k])).max()))
            bwd[k] = max(bwd[k], float((ds * (dt <= bound_t[k])).max()))
    return fwd, bwd


def _box_cells(rows: np.ndarray) -> int:
    """Cells of the coordinate box of at least one row."""
    return math.prod(int(w) + 1 for w in (rows.max(axis=0) - rows.min(axis=0)).tolist())


def _route(source: FiniteSpace, target: FiniteSpace, src_idx: np.ndarray,
           dst_idx: np.ndarray) -> tuple[str, Optional[tuple]]:
    """The route oscillation takes for a non-empty table, with the sides
    its kernel reads (MetricRule.sup_rows) when it is not the pair pass:
    "keyed" when both sides have cyclic columns only, "window" when both
    are sup rows of at least WINDOW_MIN entries whose coordinate boxes
    hold at most BOX_PER_ENTRY cells per entry, and "pairs" otherwise."""
    sides = (source.rule.sup_rows(source, src_idx), target.rule.sup_rows(target, dst_idx))
    if None in sides:
        return "pairs", None
    if all(all(orders) for _, orders, _ in sides):
        return "keyed", sides
    n = len(src_idx)
    if n >= WINDOW_MIN and all(_box_cells(rows) <= BOX_PER_ENTRY * n for rows, _, _ in sides):
        return "window", sides
    return "pairs", None


def oscillation(
    source: FiniteSpace,
    target: FiniteSpace,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    deltas: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Forward and backward oscillation of a table: the largest target
    distance between images of source points within delta, and the largest
    source distance between preimages of target points within delta.

    deltas is a sequence of scales, and each direction gives a list with
    one value per scale. The backward value is the forward value of the
    reversed table, so oscillation(target, source, dst_idx, src_idx,
    deltas) gives the same pair swapped. Every route is exact over the
    given pairs, on one bound per scale (_within), and _route picks it:

    - keyed, when both rules give sup rows with cyclic columns only
      (MetricRule.sup_rows; ultrametric sup spaces): each direction is the
      max image diameter over the delta-blocks of the other side, read off
      one sort of its rows (_keyed_oscillation). On the tower-align tables
      (2,187-5,184 points, 3-8 ms for both directions) neither it nor the
      window route was faster on all of them, and it needs no dense box.
    - window, when both rules give sup rows, the table has at least
      WINDOW_MIN entries and each side's coordinate box holds at most
      BOX_PER_ENTRY cells per entry: each direction from window maxima
      over the other side's box (_window_oscillation). Timed call by call
      against the pair pass on the tables of free-chain benchmark rounds
      (2-vCPU x86 VM), it was slower below about WINDOW_MIN entries and
      faster above, 2-3x at 450-1,000 entries and 15-75x at 10-40 thousand.
    - pairs, otherwise: one pass over the pairs i <= j measures both
      directions at every scale, masking each side's block by the other's
      (distances are >= 0). Every rule is symmetric, so these pairs are all
      of them. Each block comes from the rule's kernel
      (MetricRule.kernel_coords); no dense matrix is read.
    """
    src_idx = np.asarray(src_idx)
    dst_idx = np.asarray(dst_idx)
    if len(src_idx) != len(dst_idx):
        raise ValueError("mismatched map table")
    deltas = [float(d) for d in deltas]
    if not len(src_idx) or not deltas:
        fwd, bwd = [0.0] * len(deltas), [0.0] * len(deltas)
    else:
        route, sides = _route(source, target, src_idx, dst_idx)
        if route == "pairs":
            fwd, bwd = _pair_oscillation(source, target, src_idx, dst_idx, deltas)
        else:
            kernel = _keyed_oscillation if route == "keyed" else _window_oscillation
            fwd, bwd = kernel(*sides, deltas), kernel(*sides[::-1], deltas)
    return fwd, bwd


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


def foelner_search(space: FiniteSpace, c: float, epsilon: float) -> Optional[FoelnerSet]:
    """First basepoint ball F = O_k with |O_epsilon(F)| <= c|F|, growing k
    while the enlarged set stays inside the faithfulness radius. Epsilon
    must be finite and >= 0: no ball fits an infinite neighbourhood inside
    the radius. A ValueError is raised otherwise, and a neighbourhood
    recount (no rule shortcut) on more than RECOUNT_LIMIT points is a
    BudgetError."""
    if not math.isfinite(_check_epsilon(epsilon)):
        raise ValueError(f"foelner epsilon must be finite, got {epsilon}")
    if c <= 1:
        raise ValueError("growth factor must exceed 1")
    bd = space.base_dists
    radius = float(space.inner_radius)
    if not math.isfinite(radius):
        radius = float(np.max(bd))
    # the balls grow with k, so the neighbourhood mark carries over and only
    # the rows of points new to the ball are read
    mark = np.zeros(len(space), dtype=bool)
    counted = np.zeros(len(space), dtype=bool)
    k = 0
    while k + epsilon <= radius:
        inside = np.flatnonzero(bd <= k)
        size = len(inside)
        if size:
            nbr = space.rule.ball_neighbourhood(space, k, epsilon)
            if nbr is None:
                if len(space) > RECOUNT_LIMIT:
                    raise BudgetError(f"{len(space)} points exceed the neighbourhood "
                                      f"recount's limit of {RECOUNT_LIMIT}")
                new = inside[~counted[inside]]
                counted[new] = True
                for blk in row_blocks(len(space)):
                    if blk.start >= len(new):
                        break
                    near = space.dists_block(new[blk], slice(None)) <= epsilon
                    mark |= near.any(axis=0)
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
    degree four. Epsilon must be finite and >= 0, and the radius >= 0.

    The check reads balls of radius e = min(max(1, ceil(epsilon)),
    2 * radius): a larger ball clipped to the grid of side 2 * radius + 1
    is the whole grid around every point, so the multiplicity is the same.
    Refused with a ValueError before anything is built: an epsilon whose
    brick side int64 cannot hold, and a check whose one slab row,
    (2e + 1)^rank * side^(rank - 1) entries, exceeds the 3e7 entries that
    the slabs of _max_ball_multiplicity are sized to.
    """
    if not math.isfinite(_check_epsilon(epsilon)):
        raise ValueError(f"cover epsilon must be finite, got {epsilon}")
    if rank not in (0, 1, 2, 3):
        raise ValueError("rank must be between 0 and 3")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    eps = max(1, math.ceil(epsilon))
    side = 2 * radius + 1
    if side**max(rank, 1) > 2 * 10**6:
        raise ValueError("radius too large for exhaustive verification")
    if rank == 0:
        return Cover(0, epsilon, radius, 0.0, 1, ((tuple(),),))
    if 2 * eps * (rank + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"cover epsilon {epsilon} gives a brick side beyond int64")
    ball = min(eps, side - 1)
    row = (2 * ball + 1) ** rank * side ** (rank - 1)
    if row > 3e7:
        raise ValueError(
            f"checking balls of radius {ball} on the {side}^{rank} grid reads {row} ids a "
            "grid row, over the 3e7 of one slab"
        )

    axes = [np.arange(-radius, radius + 1)] * rank
    mesh_grids = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh_grids], axis=1)
    if rank == 3:
        ids = _bcc_ids(coords, eps)
    else:
        ids = _brick_ids(coords, eps, rank)

    grid_ids = ids.reshape([side] * rank)
    mult = _max_ball_multiplicity(grid_ids, ball, rank)
    if mult > rank + 1:
        raise AssertionError(f"cover multiplicity {mult} exceeds {rank + 1}")

    # the blocks by ascending id, each in grid order, from one stable sort;
    # each block's spread by one reduceat over its run
    order = np.argsort(ids, kind="stable")
    members, ids = coords[order], ids[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    spread = np.maximum.reduceat(members, starts) - np.minimum.reduceat(members, starts)
    blocks = tuple(tuple(map(tuple, part.tolist())) for part in np.split(members, starts[1:]))
    return Cover(rank, epsilon, radius, float(spread.max()), int(mult), blocks)


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
