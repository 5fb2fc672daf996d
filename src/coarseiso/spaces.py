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
alignment (tests/test_rules.py counts them), and each method has one
route: SupRule (group balls, towers, products) reads coordinate keys and
refuses the chains and components of points that fill no box, and
PlaneRule (the example-3.1 curve) reads cell grids and bands, each path one
function of coarseiso.plane, which imports numpy alone. MetricRule holds
only the defaults they share. Quotients exist only where the structure
gives them: the epsilon-quotient of a structural tower or group ball is
the tower of its cyclic coordinates above epsilon, and every other
quotient is refused. No module imports scipy.
"""

from __future__ import annotations

import copy
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import plane
from .factorfn import FactorFunction
from .groups import GroupDescription
from .primes import first_primes

DEFAULT_POINT_BUDGET = 10**6
DENSE_LIMIT = 6500

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
    (``dists``); every distance the program reads comes from it. Each rule
    checks its own labels (``checked_coords``) and reads its structure in
    its own ``components(space, eps)``, the component label of each point in
    the graph with edges d <= eps, and ``chain(space, subset)``, the
    single-linkage chain of the induced subspace on ascending distinct
    indices: an order of the subset positions, and gap[k] the height at
    which order[k - 1] and order[k] merge (gap[0] = inf). Every
    eps-component, at every eps, is one contiguous run of the order, cut
    where gap > eps, and the cophenetic distance of order[i] and order[j],
    i < j, is max(gap[i + 1:j + 1]) (Gower & Ross, 1969). The methods here
    are the defaults the rules share. PlaneRule and the tests' DenseRule
    take four of them as they stand: the pair pass of oscillation reads
    kernel_coords and sup_rows on plane and table spaces, the quotient
    refusal (quotient_with_projection) reads quotient_parts, and
    FiniteSpace.structural reads fills_box, as the benchmark's tracer does
    on plane components.
    """

    split: Optional[int] = None  # coordinates owned by a product's left factor
    is_ultrametric = False

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

    def sup_rows(self, space: "FiniteSpace", idx) -> Optional[tuple]:
        """The rows of the points idx (repeats allowed), with the order and
        level of each column, where the distance of two rows is the largest
        over the columns of |x - y| on a free one (order 0) and the level
        on a cyclic one in which they differ; None here."""
        return None

    def step_candidates(self, radius: float, gap: np.ndarray) -> list[float]:
        """Scales step estimation tests, up to the radius: 0 and the finite
        gaps of the chain of the basepoint ball of that radius."""
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


def _no_box(space: "FiniteSpace", n: int) -> ValueError:
    """The refusal of a sup rule's coordinate keys on n points of the space
    that fill no box."""
    return ValueError(f"{n} points of {space!r} fill no box: a sup rule reads chains and "
                      "components only on boxes")


@dataclass(frozen=True)
class SupRule(MetricRule):
    """Sup metric over label coordinates. A free coordinate (order 0, level
    1) contributes |x - y|; a cyclic coordinate of order o >= 2 at level L
    >= 1 contributes L * [x != y]. Other fields are refused, as they make no
    metric or a rule unequal to its constructor's at equal distances.

    ``layout`` records how the constructors assembled the coordinates:
    "tower", "group-ball", or (split, left, right) for a product whose left
    factor owns the first ``split`` coordinates. Distances never read it;
    the descriptor that space_id hashes and the product split do. The
    paths below that read coordinate structure across points need rows
    that fill a box (fills_box): the whole space for components and
    quotients (a structural space), the subset for chains. They refuse
    any other rows: every space the program builds fills a box, and only
    hand-given rows or a subspace of chosen points can fill none.
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
        agree above eps are chained by steps of at most eps. Any other
        space is refused (_no_box)."""
        if not space.structural:
            raise _no_box(space, len(space))
        return _row_groups(space.coords[:, np.asarray(self.levels) > eps])

    def sup_rows(self, space, idx):
        return space.coords[idx], self.orders, self.levels

    def chain(self, space: "FiniteSpace", subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """On a subset whose rows fill a box (fills_box; a ball of a
        structural space does): the rows sorted by coordinates of
        descending level, each gap the level of the first coordinate in
        which two neighbours differ (level_chain; 1 when only free ones
        do), as the coordinate keys of components classify them. Any other
        subset is refused (_no_box)."""
        coords = space.coords[subset]
        if len(coords) <= 1:  # distinct labels of width 0 are one point
            return np.arange(len(coords)), np.full(len(coords), math.inf)
        if not self.fills_box(coords):
            raise _no_box(space, len(coords))
        return level_chain(coords, np.asarray(self.levels, dtype=float))

    def step_candidates(self, radius: float, gap: np.ndarray) -> list[float]:
        """The distance values the rule can realize up to the radius: 0,
        the cyclic levels, and every integer when a coordinate is free; the
        ball chain's gaps are among them and are not read."""
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
        """On a structural space of free coordinates, a box holding the
        basepoint p, q is within eps of the k-ball iff d(q, p) <= k + eps
        (move q toward p by at most k an axis): a ball count is exact."""
        if space.structural and not any(self.orders):
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
        point of coords (n, 2): shape (n,) or (b, n) (plane.dists)."""
        return plane.dists(coords[:, 0] - rows[..., 0, None], coords[:, 1] - rows[..., 1, None])

    def chain(self, space: "FiniteSpace", subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The whole space's chain, read once with its tree and the grid
        of its bands (plane.tree) and cached on the space, or a subset's,
        cut from it (plane.window_chain)."""
        if space._tree is None:
            space._tree = plane.tree(space.coords)
        if len(subset) == len(space):
            return space._tree[0]
        return plane.window_chain(space.coords, subset, space._tree)

    def components(self, space: "FiniteSpace", eps: float) -> np.ndarray:
        """From a grid of cells, without triangulating (plane.components)."""
        return plane.components(space.coords, eps)

    def descriptor(self) -> dict:
        return {"kind": "plane"}


# ---------------------------------------------------------------------------
# the space itself


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of range(n), each of about plane.BLOCK_ENTRIES
    entries when a row has n of them."""
    step = max(1, plane.BLOCK_ENTRIES // max(1, n))
    return [slice(start, min(n, start + step)) for start in range(0, n, step)]


class FiniteSpace:
    """Finite pointed metric space with a faithfulness radius.

    inner_radius is the distance up to which every ambient point near the
    basepoint is present with exact distances.

    The points are the rows of one (n, k) array, ``coords``: integers
    under a sup rule and finite (x, y) pairs under a plane rule, which the
    rule's kernel reads. Labels from outside, given to this constructor as
    an array or a sequence of rows, are checked once here, at the
    boundary: the rule's width and values (the rule's checked_coords),
    distinct rows, and a basepoint in range. They then become that array,
    column-major float64. The builders of this module (_box_space, so the
    balls, towers and truncations; product_space, quotient_with_projection
    and example31_fixture) make rows that pass every check by
    construction, already in that layout, and store them as given
    (_built); subspace takes its indices from its caller and so stays on
    the checked route. Label tuples are made only when something reads them
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
        coords = rule.checked_coords(labels)
        if _has_equal_rows(coords):
            raise ValueError("duplicate point labels")
        if not 0 <= basepoint < len(coords):
            raise ValueError("basepoint index out of range")
        self._store(coords, rule, basepoint, inner_radius)

    def _store(self, coords: np.ndarray, rule: MetricRule, basepoint: int,
               inner_radius: Num) -> "FiniteSpace":
        """Store rows as given and return the space: every space passes
        through here, the builders' through _built."""
        self.coords = coords
        self._labels: Optional[tuple[Label, ...]] = None
        self.rule = rule
        self.basepoint = basepoint
        self.inner_radius = inner_radius
        self._structural: Optional[bool] = None
        self._base_dists: Optional[np.ndarray] = None
        self._tree: Optional[tuple] = None  # a plane space's chain, tree and grid (plane.tree)
        return self

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
        """Dense distance matrix, built anew each call; refuses above DENSE_LIMIT points."""
        n = len(self)
        if n > DENSE_LIMIT:
            raise BudgetError(f"dense matrix of {n} points exceeds {DENSE_LIMIT}")
        m = np.empty((n, n))
        for blk in row_blocks(n):
            m[blk] = self.dists_block(blk, slice(None))
        return m


def _built(coords: np.ndarray, rule: MetricRule, basepoint: int,
           inner_radius: Num) -> FiniteSpace:
    """A space on rows its builder made: rows that pass every check of the
    public constructor, as the column-major float64 array checked_coords
    returns, stored as given (FiniteSpace._store)."""
    return FiniteSpace.__new__(FiniteSpace)._store(coords, rule, basepoint, inner_radius)


def _label_array(labels, width: int, width_error: str) -> np.ndarray:
    """The (n, width) array of label rows given as an array or a sequence
    of rows, in their own dtype, which must be numeric. Widths are read
    before numpy sees the rows, so ragged rows raise width_error, not a
    shape error."""
    if isinstance(labels, np.ndarray):
        if labels.ndim != 2:
            raise ValueError("coordinates must be an (n, k) array")
        widths = {labels.shape[1]}
    else:
        labels = list(labels)
        widths = set(map(len, labels))
    if widths - {width}:
        raise ValueError(width_error)
    if not len(labels):
        return np.empty((0, width))
    rows = np.asarray(labels)
    if rows.dtype.kind == "O":  # integers beyond 64 bits, or not numbers at all
        # astype would read None as NaN and text as the number it spells
        if not all(isinstance(v, numbers.Real) for v in rows.flat):
            raise ValueError("point labels must be numbers")
        rows = np.vectorize(_as_float, otypes=[float])(rows)
    if rows.dtype.kind not in "iuf":
        raise ValueError("point labels must be numbers")
    if rows.ndim != 2:
        raise ValueError("coordinates must be an (n, k) array")
    return rows


def _as_float(v: numbers.Real) -> float:
    """v as a float64; infinite where v is an integer past float64's range,
    which every rule refuses as it refuses infinite coordinates."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


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
    ascend are distinct; others are put in lexicographic order by a lexsort
    and neighbours compared, so no packed key can overflow."""
    if coords.shape[1] == 0:
        return len(coords) > 1
    return not _ascends(coords) and not _ascends(coords[np.lexsort(coords.T[::-1])])


# ---------------------------------------------------------------------------
# constructors


def _count_text(count: int) -> str:
    """The count's digits, or past 30 the largest power of 10 below it (ints print 4,300 at most)."""
    p = int(count.bit_length() * math.log10(2))  # the power is p, p - 1 or p - 2
    p -= (10**p >= count) + (10**(p - 1) >= count)
    return str(count) if p < 30 else f"more than 10^{p}"


def _check_budget(count: int, budget: int) -> None:
    """Refuse a count of points above the budget with a BudgetError that
    words both numbers (_count_text)."""
    if count > budget:
        raise BudgetError(f"{_count_text(count)} points exceed the budget of {_count_text(budget)}")


def make_schedule(g: GroupDescription, radius: int) -> list[tuple[Union[str, int], int]]:
    """Default exhaustion schedule: free generators at level 1, cyclic copies
    at doubling levels 2, 4, 8, ... round-robin across the summand types up
    to the radius, each type until its copies are spent (its multiplicity,
    an int or math.inf). A Call^t tail, one summand type per prime outside the
    listed orders, cannot be exhausted so and is refused."""
    schedule: list[tuple[Union[str, int], int]] = []
    if g.free_rank_part == math.inf:
        raise ValueError("infinite free rank has no finite truncation")
    if g.tail is not None:
        raise ValueError(f"a Call^{g.tail} tail has no finite truncation")
    schedule.extend(("Z", 1) for _ in range(g.free_rank_part))
    left = dict(g.summands)
    level = 2
    while level <= radius and left:
        for order in list(left):
            if level > radius:
                break
            schedule.append((order, level))
            left[order] -= 1
            if not left[order]:
                del left[order]
            level *= 2
    return schedule


def build_truncation(
    g: GroupDescription, radius: int, point_budget: int = DEFAULT_POINT_BUDGET
) -> FiniteSpace:
    """Ball of the given radius around the identity in the exhaustion metric
    of make_schedule(g, radius); SupRule.group_ball checks its orders and
    levels."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cyclic = [(o, level) for o, level in make_schedule(g, radius) if o != "Z"]
    free_rank = g.free_rank_part
    _check_budget((2 * radius + 1) ** free_rank * math.prod(o for o, _ in cyclic), point_budget)
    rule = SupRule.group_ball(free_rank, [o for o, _ in cyclic], [l for _, l in cyclic])
    ranges = [range(-radius, radius + 1)] * free_rank + [range(o) for o, _ in cyclic]
    return _box_space(ranges, rule, radius)


def _box_space(ranges: Sequence[range], rule: SupRule, inner_radius: Num) -> FiniteSpace:
    """The integer box of the ranges, pointed at its all-zero label. Points
    run in itertools.product order, the last coordinate fastest, so the
    coordinates and the basepoint's index come from the ranges by
    arithmetic, and the rows ascend and are distinct. Every range must
    hold 0, and a cyclic coordinate's range must be range(order)."""
    sizes = [len(r) for r in ranges]
    basepoint = 0
    for r in ranges:
        basepoint = basepoint * len(r) + r.index(0)
    coords = np.empty((math.prod(sizes), len(ranges)), order="F")
    for c, r in enumerate(ranges):
        column = np.repeat(np.arange(r.start, r.stop, dtype=float), math.prod(sizes[c + 1 :]))
        coords[:, c] = np.tile(column, math.prod(sizes[:c]))
    return _built(coords, rule, basepoint, inner_radius)


def zball(radius: int, rank: int = 1, point_budget: int = DEFAULT_POINT_BUDGET) -> FiniteSpace:
    """Sup-metric ball of Z^rank."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    _check_budget((2 * radius + 1) ** rank, point_budget)
    return _box_space([range(-radius, radius + 1)] * rank, SupRule.group_ball(rank), radius)


def tower_space(
    orders: Sequence[int],
    levels: Optional[Sequence[int]] = None,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> FiniteSpace:
    """Product of cyclic groups with the level ultrametric. Default levels
    are 2, 3, ..., matching the canonical enumeration."""
    # one power per distinct order (a product over the orders one at a time
    # is quadratic in their count), counted before any per-level tuple is
    # built, so that a refused tower builds none
    _check_budget(math.prod(int(o) ** c for o, c in Counter(orders).items()), point_budget)
    orders = tuple(int(o) for o in orders)
    if levels is None:
        levels = tuple(range(2, len(orders) + 2))
    levels = tuple(int(l) for l in levels)
    rule = SupRule.tower(orders, levels)
    return _box_space([range(o) for o in orders], rule, levels[-1] if levels else 0)


def enumerate_summands(phi: FactorFunction, depth: int, prime_bound: int) -> list[int]:
    """First `depth` cyclic summand orders of the group determined by phi.

    Stage s emits one copy of prime p_i when i + (copies already emitted
    for p_i) == s, primes ascending: p_i emits once a stage from stage i
    until its phi(p_i) copies are spent. Every prime with infinite
    multiplicity recurs infinitely often, and a positive default walks
    through all primes up to the bound. The walk stops early when it has
    spent every prime. A prime joins the active list at its own stage and
    leaves it when spent, so a stage visits only the primes that emit, and
    the list is rebuilt only at a stage where one joins or leaves.
    """
    primes = _walked_primes(phi, depth, prime_bound)
    # copies per walked prime, an int or math.inf: the j-th (from 0) emits
    # once a stage at the stages j + 1 to j + copies[j]
    copies = list(map(phi.get, primes))
    cap = min(depth, sum(copies))
    out: list[int] = []
    active: list[int] = []
    emit: list[int] = []  # the primes of the active indices
    stage, spent = 0, math.inf  # spent: the first stage an active prime misses
    while len(out) < cap:
        stage += 1
        if stage > 10**6:  # each stage emitted a summand of order >= 2, bar explicit zeros
            raise BudgetError(f"depth {depth} asks for a tower beyond any point budget")
        if stage <= len(primes):
            active.append(stage - 1)
        if stage <= len(primes) or stage == spent:
            active = [j for j in active if stage <= j + copies[j]]
            emit = [primes[j] for j in active]
            spent = min([j + copies[j] + 1 for j in active], default=math.inf)
        out += emit
    return out[:cap]


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
    prime_bound: int,
    point_budget: int = DEFAULT_POINT_BUDGET,
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


def subspace(space: FiniteSpace, indices: Sequence[int]) -> FiniteSpace:
    """Induced metric on a subset of points, in index order, pointed at the
    ambient basepoint, which must belong to the subset. An index outside
    range(len(space)) is a ValueError that names it, not a wrap-around."""
    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= len(space))]
    if len(bad):
        raise ValueError(f"subset index {bad[0]} is not one of the space's {len(space)} points")
    where = np.flatnonzero(idx == space.basepoint)
    if not len(where):
        raise ValueError("basepoint must belong to the subset")
    return FiniteSpace(space.coords[idx], space.rule, int(where[0]), space.inner_radius)


def product_space(
    x: FiniteSpace, y: FiniteSpace, point_budget: int = DEFAULT_POINT_BUDGET
) -> FiniteSpace:
    """Cartesian product with the sup metric, built from the factors'
    coordinates; both rules must be sup rules. Distinct rows of each factor
    give distinct rows of the product, pointed at the pair of the factors'
    basepoints."""
    rule = SupRule.product(x.rule, y.rule)
    _check_budget(len(x) * len(y), point_budget)
    inner = min(x.inner_radius, y.inner_radius)
    # the points run over x's in the outer loop, y's in the inner one, and
    # each one's label is the x label followed by the y label
    width = len(x.rule.orders)
    coords = np.empty((len(x) * len(y), width + len(y.rule.orders)), order="F")
    coords[:, :width] = np.repeat(x.coords, len(y), axis=0)
    coords[:, width:] = np.tile(y.coords, (len(x), 1))
    return _built(coords, rule, x.basepoint * len(y) + y.basepoint, inner)


def example31_fixture(
    branches: int,
    grid_step: float,
    clamp: float,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> FiniteSpace:
    """Grid sample of the plane curve (x + 2 pi n, (-1)^n tan x) for
    n = 0..branches, x on the grid {k * grid_step} with |tan x| <= clamp.
    The kept x are counted by a bisection on k, and a count above
    point_budget is a BudgetError before any array is built. tan runs once
    per kept x, by math.tan (numpy's may differ in the last place), and its
    rounding and the branches as arrays (plane.round_decimals), every label
    bit-identical to rounding it alone. The step must be finite; the count
    is exact for any positive one, so a subnormal step is refused by the
    budget with its true count. An infinite clamp keeps every x below pi/2."""
    if branches < 1:
        raise ValueError("branches must be >= 1")
    if not (grid_step > 0 and clamp > 0):  # NaN included
        raise ValueError("grid_step and clamp must be positive")
    if grid_step == math.inf:
        raise ValueError("grid_step must be finite")
    # |tan x| <= clamp holds only for |x| <= atan(clamp) (the factor covers
    # the rounding of atan and tan), so no kept k passes kmax, a quotient of
    # Fractions, which a subnormal step cannot overflow. tan is odd and
    # increasing on (-pi/2, pi/2), so the kept x are k * grid_step for
    # |k| <= K, and a bisection on k finds K
    kmax = Fraction(min(math.pi / 2, math.atan(clamp) * (1 + 2.0**-40))) // Fraction(grid_step)
    lo, hi = 0, kmax
    while lo < hi:
        mid = (lo + hi + 1) // 2
        # float(mid) * grid_step rounded once, as the array below computes
        # it; both factors scaled by 2^64, exactly, so that float(mid)
        # cannot overflow when the step is subnormal
        x = mid / 2**64 * (grid_step * 2**64)
        if x < math.pi / 2 and abs(math.tan(x)) <= clamp:
            lo = mid
        else:
            hi = mid - 1
    _check_budget((branches + 1) * (2 * lo + 1), point_budget)
    xs = np.arange(-lo, lo + 1) * grid_step
    tan = np.fromiter(map(math.tan, xs.tolist()), dtype=float, count=len(xs))
    # round is odd, so the odd branches negate the rounded value
    ys = plane.round_decimals(tan, plane.PLANE_DECIMALS)
    n = np.arange(branches + 1)
    px = plane.round_decimals((xs + (2 * math.pi * n)[:, None]).ravel(), plane.PLANE_DECIMALS)
    py = (np.where(n % 2, -1.0, 1.0)[:, None] * ys).ravel()
    coords = np.empty((len(px), 2), order="F")
    coords[:, 0], coords[:, 1] = px, py
    # the branches hold disjoint x ranges and x ascends in each, so the rows
    # ascend already unless rounding gave two of them one x (a grid step
    # below 1e-9 can); sorted rows that still fail to ascend hold one label
    # twice. Rows that ascend are distinct, so the space stores them as given
    if not _ascends(coords):
        coords = np.asfortranarray(coords[np.lexsort((py, px))])
        if not _ascends(coords):
            raise ValueError(f"grid_step {grid_step!r} is below the label resolution "
                             f"1e-{plane.PLANE_DECIMALS}: two kept points round to one label")
    base = int(np.flatnonzero((coords[:, 0] == 0) & (coords[:, 1] == 0))[0])
    space = _built(coords, PlaneRule(), base, 0)
    # the whole sample is the known region; faithfulness ends at its extent
    space.inner_radius = float(np.max(space.base_dists))
    return space


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
    # the blocks are keyed by the retained coordinates, so their
    # representatives' retained rows are distinct cyclic values
    coords = np.asfortranarray(space.coords[list(partition.representatives)][:, parts])
    rule = SupRule.tower([space.rule.orders[c] for c in parts],
                         [space.rule.levels[c] for c in parts])
    q = _built(coords, rule, int(partition.point_block[space.basepoint]), space.inner_radius)
    return q, partition
