"""Finite metric spaces with exact distances: group-ball truncations,
ultrametric towers, sup-metric products, and the sampled plane curve.

Every space carries a basepoint and an inner radius: the distance up to which
the truncation faithfully represents the ambient space it samples. Distances
are integers for the algebraic models (exact in float64) and 64-bit floats
rounded to 1e-9 for plane fixtures.

Metric conventions: every constructor-built space is one sup rule over its
label coordinates, d(x, y) = max over coordinates of

* |x_c - y_c| for a free coordinate (a Z summand, level 1), and
* L_c * [x_c != y_c] for a cyclic coordinate of order o_c at level L_c.

Group balls put their free coordinates first and schedule the cyclic ones
at strictly increasing levels >= 2, which makes d the exhaustion metric
min{n : x - y lies in F_n} for F_n = [-n, n]^r x (product of the cyclic
summands scheduled at levels <= n). Towers have cyclic coordinates only,
at strictly increasing levels, so d is the level of the highest differing
coordinate; canonical towers put summand i (1-based) at level i + 1, so the
free-part scale 1 stays below every torsion scale. Products concatenate
their factors' coordinates, and a rule without free coordinates is an
ultrametric.

Points are stored in ascending lexicographic label order, so the minimal
index of a subset is also its lexicographically minimal label.

Every path whose method depends on the metric is a method of the rule, so
callers never test a rule's type outside one input check of tower
alignment (tests/test_rules.py counts them): SupRule (group balls, towers,
products) and PlaneRule (the example-3.1 curve) share the generic paths of
MetricRule. Quotients exist only where the structure gives them: the
epsilon-quotient of a structural tower or group ball is the tower of its
cyclic coordinates above epsilon, and every other quotient is refused.

No module imports scipy. The generic chain is the order in which Prim's
algorithm takes the points, one distance row at a time (MetricRule.chain).
A plane space reads its chain and tree once, by one Kruskal pass over the
candidate pairs of bands (_band_edges, plane_chain): the points are sorted
once into the Morton order of one fine cell grid, and every band reads its
cells, buckets and sub-cells as runs of that order. The chain of any of its
subsets is cut from the whole chain (PlaneRule.chain), and the bands a
subset still needs read the whole space's grid.
Components, plane ones included, join by _connected_labels.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .extnat import ExtNat
from .factorfn import FactorFunction
from .groups import GroupDescription
from .primes import first_primes

DEFAULT_POINT_BUDGET = 10**6
DENSE_LIMIT = 6500
PLANE_DECIMALS = 9
# a PlaneRule distance r of points at Euclidean distance d has
# |r - d| <= PLANE_HALF_UNIT + PLANE_REL * (d + PLANE_HALF_UNIT): half a unit
# of the last kept decimal, and a bound on the float error of the
# difference, hypot and the rounding (_plane_components)
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
# entries of one block of distance rows (2 MB of float64): row_blocks sizes
# every blocked distance read so that one block of its result holds about
# this many; blocks four times larger were no faster and raised the peak
# memory of witness chains by about an eighth
BLOCK_ENTRIES = 2**18

Num = Union[int, float, Fraction]
Label = tuple


class BudgetError(ValueError):
    """Requested truncation exceeds the point budget."""


# ---------------------------------------------------------------------------
# metric rules


Layout = Union[str, tuple]


class MetricRule:
    """A way to compute distances, and every path that depends on it.

    A rule reads a block of distances from rows of kernel coordinates
    (``dists``); every distance the program reads comes from it. The
    methods here are the generic paths, written once from
    ``FiniteSpace.dists_block``: the threshold graph read in row blocks for
    epsilon-components, and a subset's chain in the order Prim's algorithm
    takes its points, from one distance row per point. SupRule and
    PlaneRule override those their structure reads exactly and faster;
    SupRule falls back on them where a subset fills no box.
    """

    split: Optional[int] = None  # coordinates owned by a product's left factor
    is_ultrametric = False

    def checked_coords(self, labels) -> np.ndarray:
        """The (n, k) array of the label rows given for a space, once this
        rule's precondition holds: here rows of one width, in their own
        numeric dtype (_label_array)."""
        return _label_array(labels, None, "point labels differ in width")

    def kernel_coords(self, coords: np.ndarray) -> np.ndarray:
        """Kernel rows as the pair pass of oscillation hands them to dists."""
        return coords

    def label_lists(self, coords: np.ndarray) -> list[list]:
        """The labels of label rows, as lists of Python numbers."""
        return coords.tolist()

    def fills_box(self, coords: np.ndarray) -> bool:
        """Whether the rule's coordinate key paths are exact on these rows;
        always here, where no key path is taken."""
        return True

    def chain(self, space: "FiniteSpace", subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Single-linkage chain of the induced subspace on ascending
        distinct indices: an order of the subset positions, and gap[k] the
        height at which order[k - 1] and order[k] merge (gap[0] = inf).
        Every eps-component, at every eps, is one contiguous run of the
        order, cut where gap > eps, and the cophenetic distance of order[i]
        and order[j], i < j, is max(gap[i + 1:j + 1]) (Gower & Ross, 1969).

        Here the order is the one in which Prim's algorithm (Prim, 1957)
        takes the points, one distance row per point in linear memory, and
        each point's gap is its reach: its least distance to the points
        taken before it. That is exact, ties included. When the first point
        of an eps-component C is taken, its reach is above eps, and every
        other component is fully taken or untouched: a point within eps of
        the points taken would have been taken first. Until the rest of C is
        taken, some point of C is within eps of them, and every point
        outside C is farther, so C is one run, and gap > eps only at its
        start. It reads all n(n - 1)/2 distances, so it is refused above
        DENSE_LIMIT points."""
        n = len(subset)
        if n > DENSE_LIMIT:
            raise BudgetError(f"a spanning tree of {n} points reads {n * (n - 1) // 2} distances, "
                              f"over the {DENSE_LIMIT * (DENSE_LIMIT - 1) // 2} of {DENSE_LIMIT}")
        # the first n - t entries of rest are the points not yet taken, and
        # reach their least distances to those taken; the point taken swaps
        # with the last
        rest, reach = np.arange(n), np.full(n, math.inf)
        order, gap = np.empty(n, dtype=np.int64), np.empty(n)
        for t in range(n):
            m, last = int(np.argmin(reach[:n - t])), n - t - 1
            order[t], gap[t] = rest[m], reach[m]
            rest[m], reach[m] = rest[last], reach[last]
            np.minimum(reach[:last], space.dists_block(subset[order[t]], subset[rest[:last]]),
                       out=reach[:last])
        return order, gap

    def components(self, space: "FiniteSpace", eps: float) -> np.ndarray:
        """Component label of each point in the graph with edges d <= eps:
        rows in blocks, each block's edges joined to a star forest of the
        components so far, so memory stays near one block of rows."""
        n = len(space)
        labels = np.arange(n)
        for blk in row_blocks(n):
            bi, bj = np.nonzero(space.dists_block(blk, slice(None)) <= eps)
            # each point's label is the least index of its component so
            # far, a point of it: joining the two keeps those components
            ii = np.concatenate([bi + blk.start, np.arange(n)])
            labels = _connected_labels(n, ii, np.concatenate([bj, labels]))
        return labels

    def sup_rows(self, space: "FiniteSpace", idx) -> Optional[tuple]:
        """The rows of the points idx (repeats allowed), with the order and
        level of each column, where the distance of two rows is the largest
        over the columns of |x - y| on a free one (order 0) and the level
        on a cyclic one in which they differ; None here."""
        return None

    def step_candidates(self, radius: float, ball_chain) -> list[float]:
        """Scales step estimation tests, up to the radius: the finite gaps
        of ball_chain(), the chain of the basepoint ball of that radius."""
        gap = ball_chain()[1]
        return sorted({0.0} | set(gap[np.isfinite(gap)].tolist()))

    def quotient_parts(self, space: "FiniteSpace", eps: float) -> Optional[list[int]]:
        """Coordinates of the tower the eps-quotient is, or None when the
        space has no structural quotient at eps, which quotient_with_projection
        then refuses; none here."""
        return None

    def ball_neighbourhood(self, space: "FiniteSpace", k: int, eps: float) -> Optional[int]:
        """Points within eps of the basepoint's k-ball, when the distances
        from the basepoint alone give them; None here."""
        return None


@dataclass(frozen=True)
class SupRule(MetricRule):
    """Sup metric over label coordinates. A free coordinate (order 0, level
    1) contributes |x - y|; a cyclic coordinate of order o >= 2 at level L
    >= 1 contributes L * [x != y]. Other fields are refused, as they make no
    metric or a rule unequal to its constructor's at equal distances.

    ``layout`` records how the constructors assembled the coordinates:
    "tower", "group-ball", or (split, left, right) for a product whose left
    factor owns the first ``split`` coordinates. Distances never read it;
    the descriptor that space_id hashes, the product split and the Foelner
    ball count do. The paths below that read coordinate structure across
    points need rows that fill a box (fills_box): the whole space for
    components and quotients (a structural space), the subset for chains.
    """

    orders: tuple[int, ...]
    levels: tuple[int, ...]
    layout: Layout

    def __post_init__(self):
        if len(self.orders) != len(self.levels):
            raise ValueError("orders and levels must have equal length")
        if any(o < 2 and o != 0 for o in self.orders):
            raise ValueError("cyclic orders must be >= 2")
        if any(lvl != 1 for o, lvl in zip(self.orders, self.levels) if o == 0):
            raise ValueError("free coordinates must be at level 1")
        if any(lvl < 1 for lvl in self.levels):
            raise ValueError("levels must be >= 1")

    @staticmethod
    def tower(orders: Sequence[int], levels: Sequence[int]) -> "SupRule":
        """Ultrametric on a product of cyclic groups: the distance between
        distinct points is the level of the highest differing coordinate."""
        if 0 in orders:
            raise ValueError("cyclic orders must be >= 2")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        return SupRule(tuple(orders), tuple(levels), "tower")

    @staticmethod
    def group_ball(
        free_rank: int, cyclic_orders: Sequence[int] = (), cyclic_levels: Sequence[int] = ()
    ) -> "SupRule":
        """Exhaustion metric on Z^r x (cyclic part): free generators at
        level 1, cyclic levels strictly increasing and >= 2."""
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if any(lvl < 2 for lvl in cyclic_levels):
            raise ValueError("cyclic levels must be >= 2")
        if any(b <= a for a, b in zip(cyclic_levels, cyclic_levels[1:])):
            raise ValueError("cyclic levels must be strictly increasing")
        return SupRule(
            (0,) * free_rank + tuple(cyclic_orders),
            (1,) * free_rank + tuple(cyclic_levels),
            "group-ball",
        )

    @staticmethod
    def product(left: MetricRule, right: MetricRule) -> "SupRule":
        """Sup metric on concatenated labels; both factors must be sup rules."""
        if not (isinstance(left, SupRule) and isinstance(right, SupRule)):
            raise ValueError("products need sup-metric factors")
        layout = (len(left.orders), left.layout, right.layout)
        return SupRule(left.orders + right.orders, left.levels + right.levels, layout)

    @property
    def split(self) -> Optional[int]:
        """Coordinates owned by the left factor of a product, else None."""
        return self.layout[0] if isinstance(self.layout, tuple) else None

    @property
    def is_ultrametric(self) -> bool:
        return 0 not in self.orders

    def dists(self, rows: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Distances from one row (k,) or a block of rows (b, k) to every
        point of coords (n, k): shape (n,) or (b, n), in the dtype of
        coords. Integer coords must be wide enough for every difference and
        every level, or the arithmetic overflows."""
        # one column at a time into one scratch buffer: an (n, k) temporary
        # reduced with max(axis=1) is slower on the narrow labels the
        # constructors build, and fresh temporaries per column cost page
        # faults. The result and the scratch share one allocation: freed as
        # two, they let malloc hand the pages of each row block back to the
        # system, and the next block faults them in again
        d, tmp = np.empty((2,) + rows.shape[:-1] + (len(coords),), dtype=coords.dtype)
        d.fill(0)
        for c, (o, lvl) in enumerate(zip(self.orders, self.levels)):
            col, x = coords[:, c], rows[..., c, None]
            if o == 0:
                np.abs(np.subtract(col, x, out=tmp), out=tmp)
            else:
                np.multiply(np.not_equal(col, x, out=tmp), lvl, out=tmp)
            np.maximum(d, tmp, out=d)
        return d

    def checked_coords(self, labels) -> np.ndarray:
        """Integer coordinates of magnitude at most 2^53, which float64
        holds exactly, each cyclic one in range(order), as the column-major
        float64 array the row kernels read (one coordinate at a time)."""
        rows = _label_array(labels, len(self.orders),
                            "label width differs from the rule's coordinate count")
        if rows.dtype.kind == "f":
            whole = np.all((np.abs(rows) <= 2.0**53) & (rows == np.trunc(rows)))
        else:  # exact bounds on integers of any width
            whole = not rows.size or -(2**53) <= int(rows.min()) and int(rows.max()) <= 2**53
        if not whole:
            raise ValueError("coordinates must be integers")
        coords = np.asfortranarray(rows, dtype=float)
        for col, o in zip(coords.T, self.orders):
            if o and not np.all((col >= 0) & (col < o)):
                raise ValueError(f"cyclic label value outside [0, {o})")
        return coords

    def label_lists(self, coords: np.ndarray) -> list[list]:
        """The labels of rows of coordinates, as lists of Python ints."""
        return coords.astype(np.int64).tolist()

    def kernel_coords(self, coords: np.ndarray) -> np.ndarray:
        """The coordinates in the narrowest integer dtype that holds every
        value, every difference of two values and every level, so that the
        kernel's differences and level products cannot wrap. Coordinates
        that need more than 64 bits stay float64."""
        # the width of the range of the values and 0 bounds every value and
        # every difference in absolute value, spread or not
        width = max([float(coords.max(initial=0)) - float(coords.min(initial=0)), *self.levels])
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            if width <= np.iinfo(dtype).max:
                return np.asfortranarray(coords.astype(dtype))
        return coords

    def fills_box(self, coords: np.ndarray) -> bool:
        """Whether the rows are a box of free values times a set of cyclic
        tuples (any rows of an ultrametric are): there unit steps cross the
        box and keys drop only cyclic coordinates. Distinct rows inside box
        x cyclic set fill it when they are as many; a full cyclic group
        needs no sort."""
        free = np.asarray(self.orders) == 0
        if not free.any():
            return True
        cols = coords[:, free]
        box = math.prod(int(hi) - int(lo) + 1
                        for hi, lo in zip(cols.max(axis=0).tolist(), cols.min(axis=0).tolist()))
        n, full = len(coords), math.prod(np.asarray(self.orders)[~free].tolist())
        return n == box * full or n == box * len(np.unique(_row_groups(coords[:, ~free])))

    def components(self, space: "FiniteSpace", eps: float) -> np.ndarray:
        """Coordinate keys on a structural space: points of a full box that
        agree above eps are chained by steps of at most eps."""
        if space.structural:
            return _row_groups(space.coords[:, np.asarray(self.levels) > eps])
        return super().components(space, eps)

    def sup_rows(self, space, idx):
        return space.coords[idx], self.orders, self.levels

    def chain(self, space: "FiniteSpace", subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the subset's rows fill a box (fills_box; a ball of a
        structural space does): the rows sorted by coordinates of
        descending level, each gap the level of the first coordinate in
        which two neighbours differ (level_chain; 1 when only free ones
        do), as the coordinate keys of components classify them. Elsewhere
        from the minimum spanning tree (MetricRule.chain)."""
        coords = space.coords[subset]
        if len(coords) <= 1:  # distinct labels of width 0 are one point
            return np.arange(len(coords)), np.full(len(coords), math.inf)
        if not self.fills_box(coords):
            return super().chain(space, subset)
        return level_chain(coords, np.asarray(self.levels, dtype=float))

    def step_candidates(self, radius: float, ball_chain) -> list[float]:
        """The distance values the rule can realize: the cyclic levels, and
        every integer up to the radius when a coordinate is free."""
        vals = {0.0} | {float(lvl) for o, lvl in zip(self.orders, self.levels) if o}
        if 0 in self.orders:
            vals |= {float(k) for k in range(1, int(radius) + 1)}
        return sorted(v for v in vals if v <= radius)

    def quotient_parts(self, space: "FiniteSpace", eps: float) -> Optional[list[int]]:
        """On a structural space, the positions of the cyclic coordinates
        above eps, by ascending level, which factorization_witness reads
        too. None when eps is below a free coordinate's scale, or two kept
        levels coincide (across product factors)."""
        if not space.structural or (eps < 1 and 0 in self.orders):
            return None
        kept = sorted((c for c, (o, lvl) in enumerate(zip(self.orders, self.levels))
                       if o and lvl > eps), key=lambda c: self.levels[c])
        levels = [self.levels[c] for c in kept]
        return kept if len(set(levels)) == len(levels) else None

    def ball_neighbourhood(self, space: "FiniteSpace", k: int, eps: float) -> Optional[int]:
        """On a structural free group ball a box fattened by eps is again a
        box, so a ball count around the basepoint is the exact count."""
        if space.structural and self.layout == "group-ball" and not any(self.orders):
            return int(np.sum(space.base_dists <= k + eps))
        return None

    def descriptor(self) -> dict:
        if self.layout == "tower":
            return {"kind": "tower", "orders": list(self.orders), "levels": list(self.levels)}
        if self.layout == "group-ball":
            r = self.orders.count(0)
            return {
                "kind": "group-ball",
                "free_rank": r,
                "cyclic_orders": list(self.orders[r:]),
                "cyclic_levels": list(self.levels[r:]),
            }
        s, left, right = self.layout
        return {
            "kind": "product",
            "split": s,
            "left": SupRule(self.orders[:s], self.levels[:s], left).descriptor(),
            "right": SupRule(self.orders[s:], self.levels[s:], right).descriptor(),
        }


@dataclass(frozen=True)
class PlaneRule(MetricRule):
    """Euclidean plane distance rounded to 1e-9; labels are (x, y) floats."""

    def checked_coords(self, labels) -> np.ndarray:
        """Finite (x, y) rows, as a column-major float64 array."""
        coords = np.asfortranarray(
            _label_array(labels, 2, "plane labels must be (x, y) pairs"), dtype=float)
        if not np.all(np.isfinite(coords)):
            raise ValueError("plane coordinates must be finite")
        return coords

    def dists(self, rows: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Distances from one row (2,) or a block of rows (b, 2) to every
        point of coords (n, 2): shape (n,) or (b, n)."""
        dx = coords[:, 0] - rows[..., 0, None]
        dy = coords[:, 1] - rows[..., 1, None]
        return np.round(np.hypot(dx, dy), PLANE_DECIMALS)

    def chain(self, space: "FiniteSpace", subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cut from the chain of the whole space, which one Kruskal pass
        reads with its tree (plane_chain). The subset's points in whole-chain
        order are stably sorted by their component under the whole tree's
        edges inside the subset (the seeds). Each such component is a
        subtree of the whole tree, so two of its points merge in the subset
        at their height in the whole space: the largest whole-chain gap
        between them (_range_max), and each component starts at inf. The
        chain of a component is a path with the same heights as its
        subtree. When the seeds leave m > 1 components, Kruskal joins the
        paths and the bands' candidate pairs between them (_band_edges,
        steps 7 and 8). It takes every path edge lighter than the lightest
        candidate first, and on a path those merge contiguous runs, so the
        paths are cut into runs at every gap at least that candidate, and
        Kruskal runs over the runs alone: the path edges between
        consecutive runs, at their cut gaps, and the candidates. The bands
        read the grid the whole space's bands built and cached with its
        chain (_plane_grid): its t0, fine cells and Morton order, the
        order filtered to the subset (_grid_subset). A window sorts and
        scales nothing, and the reach bound of that grid holds for any
        subset of its points (_band_edges, step 1)."""
        n = len(subset)
        if n == len(space):
            return plane_chain(space)
        order, gap = plane_chain(space)
        pos = np.full(len(space), -1, dtype=np.int64)
        pos[subset] = np.arange(n)
        ii, jj, _ = plane_edges(space)
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
        # the runs start at every cut at least the lightest candidate;
        # each finite one is a path edge from the run before it
        ja, jb, jw = _band_edges(space.coords[subset], labels, _grid_subset(space._tree[2], pos))
        cut = cuts >= jw.min()
        starts, run = np.flatnonzero(cut), np.cumsum(cut) - 1
        inner = starts[np.isfinite(cuts[starts])]
        where = np.empty(n, dtype=np.int64)
        where[sub] = run
        runs, joins, _ = _kruskal_chain(len(starts), np.concatenate([run[inner] - 1, where[ja]]),
                                        np.concatenate([run[inner], where[jb]]),
                                        np.concatenate([cuts[inner], jw]))
        # the runs in Kruskal's order, each with its gap at its start
        cuts[starts[runs]] = joins
        rank = np.empty(len(runs), dtype=np.int64)
        rank[runs] = np.arange(len(runs))
        k = np.argsort(rank[run], kind="stable")
        return sub[k], cuts[k]

    def components(self, space: "FiniteSpace", eps: float) -> np.ndarray:
        """From a grid of cells, without triangulating (_plane_components)."""
        return _plane_components(space.coords, eps)

    def descriptor(self) -> dict:
        return {"kind": "plane"}


# ---------------------------------------------------------------------------
# the space itself


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of range(n), each of about BLOCK_ENTRIES entries
    when a row has n of them."""
    step = max(1, BLOCK_ENTRIES // max(1, n))
    return [slice(start, min(n, start + step)) for start in range(0, n, step)]


class FiniteSpace:
    """Finite pointed metric space with a faithfulness radius.

    inner_radius is the distance up to which every ambient point near the
    basepoint is present with exact distances.

    The points are the rows of one (n, k) array, ``coords``: integers
    under a sup rule and finite (x, y) pairs under a plane rule, which the
    rule's kernel reads. The labels, given as an array or a sequence of
    rows, become that array at once. Every route, subspaces and quotients
    included, checks the same things: the rule's width and values
    (MetricRule.checked_coords), distinct rows, and a basepoint in range.
    Label tuples are made only when something reads them
    (MetricRule.label_lists). ``ultrametric`` and ``structural`` are read
    from the rule and the points, never given.
    """

    def __init__(
        self,
        labels: Union[np.ndarray, Sequence[Label]],
        rule: MetricRule,
        basepoint: int,
        inner_radius: Num,
    ):
        self.coords = rule.checked_coords(labels)
        if _has_equal_rows(self.coords):
            raise ValueError("duplicate point labels")
        if not 0 <= basepoint < len(self.coords):
            raise ValueError("basepoint index out of range")
        self._labels: Optional[tuple[Label, ...]] = None
        self.rule = rule
        self.basepoint = basepoint
        self.inner_radius = inner_radius
        self._structural: Optional[bool] = None
        self._base_dists: Optional[np.ndarray] = None
        self._dmat: Optional[np.ndarray] = None
        # (plane_chain, plane_edges, _plane_grid): a plane space's chain,
        # tree and the grid of its bands
        self._tree: Optional[tuple[tuple, tuple, Optional[tuple]]] = None

    def with_inner_radius(self, inner_radius: Num) -> "FiniteSpace":
        """The same points, rule and basepoint, faithful up to another
        radius. Shares this space's rows, labels and caches."""
        space = copy.copy(self)
        space.inner_radius = inner_radius
        return space

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        kind = self.rule.descriptor()["kind"]
        return f"FiniteSpace({len(self)} points, {kind}, R={self.inner_radius})"

    def __eq__(self, other: object) -> bool:
        """Same rule, basepoint and points, compared as label rows."""
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        if self is other:
            return True
        if self.rule != other.rule or self.basepoint != other.basepoint:
            return False
        return np.array_equal(self.coords, other.coords)

    @property
    def ultrametric(self) -> bool:
        return self.rule.is_ultrametric

    @property
    def structural(self) -> bool:
        """Whether the rule's coordinate key paths are exact on these
        points (MetricRule.fills_box), read on first use."""
        if self._structural is None:
            self._structural = self.rule.fills_box(self.coords)
        return self._structural

    @property
    def labels(self) -> tuple[Label, ...]:
        """Point labels in index order, made on first read."""
        if self._labels is None:
            self._labels = tuple(map(tuple, self.label_lists()))
        return self._labels

    def label_lists(self, idx: Optional[Sequence[int]] = None) -> list[list]:
        """[list(self.labels[i]) for i in idx], every point when idx is
        None, read from the rows."""
        rows = self.coords if idx is None else self.coords[np.asarray(idx, dtype=np.int64)]
        return self.rule.label_lists(rows)

    @property
    def base_dists(self) -> np.ndarray:
        """Distances from the basepoint, computed on first read. Read-only:
        every reader shares the one array."""
        if self._base_dists is None:
            d = self.dists_from(self.basepoint)
            d.setflags(write=False)
            self._base_dists = d
        return self._base_dists

    def dists_from(self, i: int) -> np.ndarray:
        return self.dists_block(i, slice(None))

    def dists_block(self, rows, cols) -> np.ndarray:
        """Distances d[rows][..., cols], computed from the rule; rows is an
        index, an index array or a slice, cols an index array or a slice."""
        return self.rule.dists(self.coords[rows], self.coords[cols])

    def dmat(self) -> np.ndarray:
        """Dense distance matrix; refuses above DENSE_LIMIT points."""
        if self._dmat is None:
            n = len(self)
            if n > DENSE_LIMIT:
                raise BudgetError(f"dense matrix of {n} points exceeds {DENSE_LIMIT}")
            m = np.empty((n, n))
            for blk in row_blocks(n):
                m[blk] = self.dists_block(blk, slice(None))
            self._dmat = m
        return self._dmat

def _label_array(labels, width: Optional[int], width_error: str) -> np.ndarray:
    """The (n, k) array of label rows given as an array or a sequence of
    rows, in their own dtype, which must be numeric: every row must have
    the width, or one width when it is None. Widths are read before numpy
    sees the rows, so ragged rows raise width_error, not a shape error."""
    if isinstance(labels, np.ndarray):
        if labels.ndim != 2:
            raise ValueError("coordinates must be an (n, k) array")
        widths = {labels.shape[1]}
    else:
        labels = list(labels)
        widths = set(map(len, labels))
    if len(widths) > 1 or (width is not None and widths - {width}):
        raise ValueError(width_error)
    if not len(labels):
        return np.empty((0, width or 0))
    rows = np.asarray(labels)
    if rows.dtype.kind == "O":  # integers beyond 64 bits, or not numbers at all
        try:
            rows = rows.astype(float)
        except (TypeError, ValueError):
            raise ValueError("point labels must be numbers") from None
    if rows.dtype.kind not in "iuf":
        raise ValueError("point labels must be numbers")
    if rows.ndim != 2:
        raise ValueError("coordinates must be an (n, k) array")
    return rows


def _ascends(coords: np.ndarray) -> bool:
    """Whether the rows of an (n, k) array, k >= 1, strictly ascend in
    lexicographic order: one pass per column, from the last."""
    later = np.zeros(max(0, len(coords) - 1), dtype=bool)
    for col in coords.T[::-1]:
        a, b = col[:-1], col[1:]
        later = (b > a) | ((b == a) & later)
    return bool(later.all())


def _has_equal_rows(coords: np.ndarray) -> bool:
    """Whether two rows of an (n, k) array are equal. Rows that already
    ascend, as the constructors lay them out, are distinct; others are
    put in lexicographic order by a lexsort and neighbours compared, so no
    packed key can overflow."""
    if coords.shape[1] == 0:
        return len(coords) > 1
    return not _ascends(coords) and not _ascends(coords[np.lexsort(coords.T[::-1])])


# ---------------------------------------------------------------------------
# constructors


def _check_budget(count: int, point_budget: Optional[int]) -> None:
    budget = DEFAULT_POINT_BUDGET if point_budget is None else point_budget
    if count > budget:
        raise BudgetError(f"{count} points exceed the budget of {budget}")


def make_schedule(g: GroupDescription, radius: int) -> list[tuple[Union[str, int], int]]:
    """Default exhaustion schedule: free generators at level 1, cyclic copies
    at doubling levels 2, 4, 8, ... round-robin across the summand types up
    to the radius. A Call^t tail, one summand type per prime outside the
    listed orders, cannot be exhausted so and is refused."""
    schedule: list[tuple[Union[str, int], int]] = []
    if g.free_rank_part.is_infinite:
        raise ValueError("infinite free rank has no finite truncation")
    if g.tail is not None:
        raise ValueError(f"a Call^{g.tail} tail has no finite truncation")
    schedule.extend(("Z", 1) for _ in range(g.free_rank_part.finite_value()))
    pool: list[tuple[int, ExtNat]] = [(o, m) for o, m in g.summands]
    remaining = {o: m for o, m in pool}
    level = 2
    while level <= radius and pool:
        for order, _ in list(pool):
            if level > radius:
                break
            m = remaining[order]
            if m == 0:
                pool = [(o, k) for o, k in pool if o != order]
                continue
            schedule.append((order, level))
            if m.is_finite:
                remaining[order] = ExtNat(m.finite_value() - 1)
            level *= 2
    return schedule


def build_truncation(
    g: GroupDescription, radius: int = 8, point_budget: Optional[int] = None
) -> FiniteSpace:
    """Ball of the given radius around the identity in the exhaustion metric
    of make_schedule(g, radius); SupRule.group_ball checks its orders and
    levels."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cyclic = [(o, level) for o, level in make_schedule(g, radius) if o != "Z"]
    free_rank = g.free_rank_part.finite_value()
    _check_budget((2 * radius + 1) ** free_rank * math.prod(o for o, _ in cyclic), point_budget)
    rule = SupRule.group_ball(free_rank, [o for o, _ in cyclic], [l for _, l in cyclic])
    ranges = [range(-radius, radius + 1)] * free_rank + [range(o) for o, _ in cyclic]
    return _box_space(ranges, rule, radius)


def _box_space(ranges: Sequence[range], rule: SupRule, inner_radius: Num) -> FiniteSpace:
    """The integer box of the ranges, pointed at its all-zero label. Points
    run in itertools.product order, the last coordinate fastest, so the
    coordinates and the basepoint's index come from the ranges by
    arithmetic."""
    sizes = [len(r) for r in ranges]
    basepoint = 0
    for r in ranges:
        basepoint = basepoint * len(r) + r.index(0)
    coords = np.empty((math.prod(sizes), len(ranges)), order="F")
    for c, r in enumerate(ranges):
        column = np.repeat(np.arange(r.start, r.stop, dtype=float), math.prod(sizes[c + 1 :]))
        coords[:, c] = np.tile(column, math.prod(sizes[:c]))
    return FiniteSpace(coords, rule, basepoint, inner_radius)


def zball(radius: int, rank: int = 1, point_budget: Optional[int] = None) -> FiniteSpace:
    """Sup-metric ball of Z^rank."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    _check_budget((2 * radius + 1) ** rank, point_budget)
    return _box_space([range(-radius, radius + 1)] * rank, SupRule.group_ball(rank), radius)


def tower_space(
    orders: Sequence[int],
    levels: Optional[Sequence[int]] = None,
    point_budget: Optional[int] = None,
) -> FiniteSpace:
    """Product of cyclic groups with the level ultrametric. Default levels
    are 2, 3, ..., matching the canonical enumeration."""
    orders = tuple(int(o) for o in orders)
    if levels is None:
        levels = tuple(range(2, len(orders) + 2))
    levels = tuple(int(l) for l in levels)
    _check_budget(math.prod(orders), point_budget)
    rule = SupRule.tower(orders, levels)
    return _box_space([range(o) for o in orders], rule, levels[-1] if levels else 0)


def enumerate_summands(phi: FactorFunction, depth: int, prime_bound: int = 97) -> list[int]:
    """First `depth` cyclic summand orders of the group determined by phi.

    Stage s emits one copy of prime p_i when i + (copies already emitted
    for p_i) == s, primes ascending. Every prime with infinite multiplicity
    recurs infinitely often, and a positive default walks through all primes
    up to the bound. The walk stops early when it has spent every prime.
    """
    primes = _walked_primes(phi, depth, prime_bound)
    values = [phi.get(p) for p in primes]
    cap = depth
    if all(v.is_finite for v in values):
        cap = min(depth, sum(v.finite_value() for v in values))
    out: list[int] = []
    stage = 0
    while len(out) < cap:
        stage += 1
        if stage > 10**6:
            raise ValueError("summand enumeration stalled")
        for i, p in enumerate(primes, start=1):
            if i > stage:
                break
            copy = stage - i
            if phi.get(p) > copy:
                out.append(p)
                if len(out) == cap:
                    break
    return out


def _walked_primes(phi: FactorFunction, depth: int, prime_bound: int) -> list[int]:
    """The primes up to the bound that enumerate_summands walks, ascending:
    the support when the default is 0. Otherwise the first depth primes
    plus one per explicit entry: each prime of value >= 1 emits by the
    stage of its index, only an explicit entry can be 0, so the first
    depth summands come from these, and no sieve is sized from the bound."""
    if phi.default == 0:
        return [p for p in phi.support_primes if p <= prime_bound]
    return [p for p in first_primes(depth + len(phi.entries)) if p <= prime_bound]


def canonical_ultrametric(
    phi: FactorFunction,
    depth: int,
    prime_bound: int = 97,
    point_budget: Optional[int] = None,
) -> FiniteSpace:
    """Truncation of the canonical ultrametric group for phi: the product of
    its first `depth` cyclic summands up to the prime bound, summand i at
    level i + 1.

    The inner radius is inf when the summands are the whole finite
    profile. Otherwise it is the level just below the first summand where
    they part from the enumeration without a bound: len(orders) + 1 when
    the bound drops nothing, lower where a prime above it would have come
    first."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    orders = enumerate_summands(phi, depth, prime_bound)
    space = tower_space(orders, point_budget=point_budget)
    full = enumerate_summands(phi, len(orders) + 1, math.inf)
    if orders == full:
        return space.with_inner_radius(math.inf)
    first = next((i for i, (a, b) in enumerate(zip(orders, full)) if a != b), len(orders))
    return space.with_inner_radius(first + 1)


def k_point_space(k: int) -> FiniteSpace:
    """{0..k-1} with the 2-valued metric (distinct points at distance 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sp = tower_space([k], levels=[1]) if k > 1 else tower_space([])
    return sp.with_inner_radius(math.inf)


def subspace(space: FiniteSpace, indices: Sequence[int], basepoint: Optional[int] = None) -> FiniteSpace:
    """Induced metric on a subset of points. The basepoint defaults to the
    ambient one and must belong to the subset."""
    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    base = space.basepoint if basepoint is None else basepoint
    where = np.flatnonzero(idx == base)
    if not len(where):
        raise ValueError("basepoint must belong to the subset")
    return FiniteSpace(space.coords[idx], space.rule, int(where[0]), space.inner_radius)


def product_space(
    x: FiniteSpace, y: FiniteSpace, point_budget: Optional[int] = None
) -> FiniteSpace:
    """Cartesian product with the sup metric, built from the factors'
    coordinates, which must be integers; both rules must be sup rules."""
    rule = SupRule.product(x.rule, y.rule)
    _check_budget(len(x) * len(y), point_budget)
    inner = min(x.inner_radius, y.inner_radius)
    # the points run over x's in the outer loop, y's in the inner one, and
    # each one's label is the x label followed by the y label
    width = len(x.rule.orders)
    coords = np.empty((len(x) * len(y), width + len(y.rule.orders)), order="F")
    coords[:, :width] = np.repeat(x.coords, len(y), axis=0)
    coords[:, width:] = np.tile(y.coords, (len(x), 1))
    return FiniteSpace(coords, rule, x.basepoint * len(y) + y.basepoint, inner)


def example31_fixture(
    branches: int,
    grid_step: float,
    clamp: float,
    point_budget: Optional[int] = None,
) -> FiniteSpace:
    """Grid sample of the plane curve (x + 2 pi n, (-1)^n tan x) for
    n = 0..branches, x on the grid {k * grid_step} with |tan x| <= clamp.
    tan runs once per grid x, by math.tan (numpy's may differ in the last
    place), and its rounding and the branches as arrays (_round_decimals),
    every label bit-identical to rounding it alone."""
    if branches < 1:
        raise ValueError("branches must be >= 1")
    if grid_step <= 0 or clamp <= 0:
        raise ValueError("grid_step and clamp must be positive")
    # |tan x| <= clamp holds only for |x| <= atan(clamp) (the factor covers
    # the rounding of atan and tan), so the grid stops there: its arrays
    # grow with the points kept, not with the grid up to pi / 2
    kmax = int(math.floor(min(math.pi / 2, math.atan(clamp) * (1 + 2.0**-40)) / grid_step))
    x = np.arange(-kmax, kmax + 1) * grid_step
    x = x[np.abs(x) < math.pi / 2]
    tan = np.fromiter(map(math.tan, x.tolist()), dtype=float, count=len(x))
    keep = np.abs(tan) <= clamp
    # round is odd, so the odd branches negate the rounded value
    xs, ys = x[keep], _round_decimals(tan[keep], PLANE_DECIMALS)
    _check_budget((branches + 1) * len(xs), point_budget)
    n = np.arange(branches + 1)
    px = _round_decimals((xs + (2 * math.pi * n)[:, None]).ravel(), PLANE_DECIMALS)
    py = (np.where(n % 2, -1.0, 1.0)[:, None] * ys).ravel()
    coords = np.stack([px, py], axis=1)
    # the branches hold disjoint x ranges and x ascends in each, so the rows
    # ascend already unless rounding gave two of them one x (a grid step
    # below 1e-9 can)
    if not _ascends(coords):
        coords = coords[np.lexsort((py, px))]
    base = int(np.flatnonzero((coords[:, 0] == 0) & (coords[:, 1] == 0))[0])
    space = FiniteSpace(coords, PlaneRule(), base, 0)
    # the whole sample is the known region; faithfulness ends at its extent
    space.inner_radius = float(np.max(space.base_dists))
    return space


def _round_decimals(values: np.ndarray, decimals: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# components and quotients


@dataclass(frozen=True, eq=False)
class ComponentPartition:
    """Epsilon-chain components. Blocks are ordered by representative, and
    each representative is the lexicographically minimal point (equivalently
    minimal index) of its block. point_block[i] is the block of point i,
    and the program reads no other form of the blocks. Partitions compare
    by identity."""

    epsilon: Num
    representatives: tuple[int, ...]
    point_block: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.representatives)


def _partition_from_keys(epsilon: Num, keys: np.ndarray) -> ComponentPartition:
    """Partition grouping points by an array of keys: one block per value."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # blocks numbered by their first point
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    return ComponentPartition(epsilon, tuple(first[by_first].tolist()), rank[inverse])


def level_chain(rows: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain (order, gap) of at least one row, as MetricRule.chain states
    it, where two rows are the largest level of a column in which they
    differ apart: one lexsort of the columns by descending level, each gap
    the level of the first column in which two neighbours differ, 0 when
    none does. The columns above any delta come first, so the rows within
    delta of each other, those that agree there, are a run cut where
    gap > delta, and equal rows are never cut."""
    desc = np.argsort(-levels, kind="stable")
    keys = rows[:, desc]
    order = np.lexsort(keys.T[::-1]) if len(desc) else np.arange(len(rows))
    ranked = keys[order]
    # a last column of level 0 in which every two rows differ
    differ = np.column_stack((ranked[1:] != ranked[:-1], np.ones(len(rows) - 1, dtype=bool)))
    return order, np.concatenate(([math.inf], np.append(levels[desc], 0.0)[differ.argmax(axis=1)]))


def _row_groups(rows: np.ndarray) -> np.ndarray:
    """Group id of each row of an (n, k) array, equal rows sharing one:
    one lexsort, then a comparison of neighbours."""
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    opens = np.ones(len(rows), dtype=np.int64)
    opens[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(opens)
    return ids


def _plane_pair_dists(pts: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """PlaneRule distances of the point pairs (ii[k], jj[k])."""
    return np.round(np.hypot(pts[ii, 0] - pts[jj, 0], pts[ii, 1] - pts[jj, 1]), PLANE_DECIMALS)


def plane_edges(space: FiniteSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A minimum spanning tree (i, j, weight) of a plane space, i < j, in
    ascending (i, j) order: the edges the Kruskal pass of plane_chain
    joins. Its edges inside a step window are the seeds that cut the
    window's chain (PlaneRule.chain). Components need none."""
    plane_chain(space)
    return space._tree[1]


def plane_chain(space: FiniteSpace) -> tuple[np.ndarray, np.ndarray]:
    """The chain of a whole plane space, from one Kruskal pass over the
    candidate pairs of its bands (_band_edges). The pass's joins are its
    tree (plane_edges). Both are cached on the space, with the grid of the
    bands (_plane_grid), which its windows reuse (PlaneRule.chain)."""
    if space._tree is None:
        n = len(space)
        grid = _plane_grid(space.coords) if n > 1 else None
        ii, jj, ww = _band_edges(space.coords, np.arange(n), grid)
        order, gap, joined = _kruskal_chain(n, ii, jj, ww)
        lo, hi = np.minimum(ii[joined], jj[joined]), np.maximum(ii[joined], jj[joined])
        by = np.argsort(lo * n + hi)
        space._tree = (order, gap), (lo[by], hi[by], ww[joined][by]), grid
    return space._tree[0]


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
    spanning tree of plane points under PlaneRule distances: Kruskal over
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
    """Bounds (lower, upper) on the PlaneRule distance of every pair of
    points of two boxes, given as columns (x0, x1, y0, y1): the Euclidean
    distance lies between the gap of the boxes and the distance of their
    farthest corners, each off by at most a relative 2^-52 in floats, and
    PlaneRule rounds it within PLANE_HALF_UNIT + PLANE_REL * (d + h)."""
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
    """The lightest pair (i, j, weight) at PlaneRule distance <= t between
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


def _kruskal_chain(n: int, ii: np.ndarray, jj: np.ndarray, ww: np.ndarray):
    """Chain (order, gap) of the graph on n nodes with edges (ii, jj, ww),
    and the positions of the edges joined, in joining order: the edges
    sorted by weight are joined by union-find, an edge whose ends are
    already joined skipped, and each cluster is kept as a linked list; a
    merge at height w appends one list to the other with w at the
    junction. Nodes the edges leave apart are joined at height inf."""
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
    above 3, and the range stays below 4 * len(cells)."""
    vals, where = np.unique(cells, return_inverse=True)
    return np.concatenate(([0], np.cumsum(np.minimum(np.diff(vals), 4))))[where]


def _grid_scale(extent: float, eps: float, reach: int = 3) -> tuple[float, bool]:
    """Cells per unit length of a grid on which points at PlaneRule
    distance <= eps lie at most reach cells apart per axis, for
    coordinates of absolute value at most extent, and whether points one
    cell apart may be joined untested: _plane_components reads reach 3
    (see there for the bounds), the bands reach 1 (_band_edges), where
    the join bound is never met."""
    h, rel, e = PLANE_HALF_UNIT, PLANE_REL, 2.0**-8
    slack = h * (1 + rel)
    # the factors (1 - rel) and (1 + rel)^2 beyond the bounds stated in
    # _plane_components cover the rounding of computing them
    inv = (reach - e) / ((eps + slack) / (1 - rel)) * (1 - rel)
    if extent > 0:
        inv = min(inv, 2.0**44 / extent * (1 - rel))
    if eps > slack:
        inv_join = math.sqrt(2) * (2 + e) * (1 + rel) ** 3 / (eps - slack)
        if inv_join <= inv:
            return inv_join, True
    return inv, False


def _plane_components(pts: np.ndarray, eps: float) -> np.ndarray:
    """Component labels of the graph joining plane points at PlaneRule
    distance <= eps, read from a grid of square cells; no triangulation.

    Exactness. For points at Euclidean distance d, PlaneRule reads r with
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

    Below eps of about 36 h no side meets both bounds on inv (at eps = 0
    none meets the join bound): the cells then honour the reach alone,
    nothing joins untested, and every pair up to 3 cells apart, one cell
    included, is read. _squeeze renumbers the grid, so cell keys stay far
    below 2^63 at any scale of coordinates or eps.

    Cell pairs come from key ranges (_cell_pairs). Point pairs are
    expanded in chunks of at most BLOCK_ENTRIES (_slot_chunks), a cell
    pair larger than that split across chunks, so memory stays bounded,
    but the number read is quadratic in the points per cell: a cloud that
    packs many points into a few cells around components that stay apart
    at eps costs up to O(n^2) distance reads.
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
    _plane_components reads reach 3, the bands reach 1.

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


def _check_epsilon(epsilon: Num) -> float:
    eps = float(epsilon)
    if not eps >= 0:  # NaN included
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return eps


def epsilon_components(space: FiniteSpace, epsilon: Num) -> ComponentPartition:
    """Partition into epsilon-chain components, grouped by the component
    labels the rule reads (MetricRule.components). Epsilon may be inf; NaN
    or a negative value raises ValueError."""
    eps = _check_epsilon(epsilon)
    return _partition_from_keys(epsilon, space.rule.components(space, eps))


def quotient_with_projection(
    space: FiniteSpace, epsilon: Num
) -> tuple[FiniteSpace, ComponentPartition]:
    """Quotient ultrametric space together with the defining partition,
    on a structural tower or group ball (MetricRule.quotient_parts): the
    blocks are keyed by the cyclic coordinates above epsilon, and the
    quotient is the tower of those coordinates. d(A, B), the least realized
    delta >= epsilon at which A and B fall in one delta-component, is then
    the level of the highest retained coordinate in which they differ. A
    NaN or negative epsilon raises ValueError, and so does every other
    space or scale: plane fixtures, subsets that fill no box, epsilon below
    a free coordinate's scale, and retained levels that coincide.
    """
    eps = _check_epsilon(epsilon)
    parts = space.rule.quotient_parts(space, eps)
    if parts is None:
        raise ValueError(f"{space!r} needs a structural quotient at epsilon {epsilon}: a "
                         "tower or group ball, epsilon >= 1 where a coordinate is free, "
                         "and distinct retained levels")
    partition = epsilon_components(space, epsilon)
    coords = space.coords[list(partition.representatives)][:, parts]
    rule = SupRule.tower([space.rule.orders[c] for c in parts],
                         [space.rule.levels[c] for c in parts])
    q = FiniteSpace(coords, rule, int(partition.point_block[space.basepoint]), space.inner_radius)
    return q, partition
