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
"""

from __future__ import annotations

import itertools
import json
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

Num = Union[int, float, Fraction]
Label = tuple


class BudgetError(ValueError):
    """Requested truncation exceeds the point budget."""


# ---------------------------------------------------------------------------
# metric rules


Layout = Union[str, tuple]


@dataclass(frozen=True)
class SupRule:
    """Sup metric over label coordinates. A free coordinate (order 0, level
    1) contributes |x - y|; a cyclic coordinate of order o >= 2 at level L
    contributes L * [x != y].

    ``layout`` records how the constructors assembled the coordinates:
    "tower", "group-ball", or (split, left, right) for a product whose left
    factor owns the first ``split`` coordinates. Distances never read it;
    the serialized descriptor and the product split do.
    """

    orders: tuple[int, ...]
    levels: tuple[int, ...]
    layout: Layout

    @staticmethod
    def tower(orders: Sequence[int], levels: Sequence[int]) -> "SupRule":
        """Ultrametric on a product of cyclic groups: the distance between
        distinct points is the level of the highest differing coordinate."""
        if len(orders) != len(levels):
            raise ValueError("orders and levels must have equal length")
        if any(o < 2 for o in orders):
            raise ValueError("cyclic orders must be >= 2")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if levels and levels[0] < 1:
            raise ValueError("levels must be >= 1")
        return SupRule(tuple(orders), tuple(levels), "tower")

    @staticmethod
    def group_ball(
        free_rank: int, cyclic_orders: Sequence[int] = (), cyclic_levels: Sequence[int] = ()
    ) -> "SupRule":
        """Exhaustion metric on Z^r x (cyclic part): free generators at
        level 1, cyclic levels strictly increasing and >= 2."""
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if len(cyclic_orders) != len(cyclic_levels):
            raise ValueError("orders and levels must have equal length")
        if any(o < 2 for o in cyclic_orders):
            raise ValueError("cyclic orders must be >= 2")
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
    def product(left: "SupRule", right: "SupRule") -> "SupRule":
        """Sup metric on concatenated labels."""
        layout = (len(left.orders), left.layout, right.layout)
        return SupRule(left.orders + right.orders, left.levels + right.levels, layout)

    @property
    def split(self) -> Optional[int]:
        """Coordinates owned by the left factor of a product, else None."""
        return self.layout[0] if isinstance(self.layout, tuple) else None

    @property
    def is_ultrametric(self) -> bool:
        return 0 not in self.orders

    def distance(self, a: Label, b: Label) -> int:
        d = 0
        for x, y, o, lvl in zip(a, b, self.orders, self.levels):
            if o == 0:
                d = max(d, abs(x - y))
            elif x != y:
                d = max(d, lvl)
        return d

    def dists(self, row: np.ndarray, coords: np.ndarray) -> np.ndarray:
        # one column at a time: an (n, k) temporary reduced with max(axis=1)
        # is slower on the narrow labels the constructors build
        d = np.zeros(len(coords))
        for c, (o, lvl) in enumerate(zip(self.orders, self.levels)):
            col = coords[:, c]
            if o == 0:
                np.maximum(d, np.abs(col - row[c]), out=d)
            else:
                np.maximum(d, (col != row[c]) * lvl, out=d)
        return d

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
class PlaneRule:
    """Euclidean plane distance rounded to 1e-9; labels are (x, y) floats."""

    @property
    def is_ultrametric(self) -> bool:
        return False

    def distance(self, a: Label, b: Label) -> float:
        return round(math.hypot(a[0] - b[0], a[1] - b[1]), PLANE_DECIMALS)

    def dists(self, row: np.ndarray, coords: np.ndarray) -> np.ndarray:
        return np.round(
            np.hypot(coords[:, 0] - row[0], coords[:, 1] - row[1]), PLANE_DECIMALS
        )

    def descriptor(self) -> dict:
        return {"kind": "plane"}


class TableRule:
    """Dense distance table indexed by point position."""

    def __init__(self, matrix: np.ndarray, ultrametric: bool):
        self.matrix = np.asarray(matrix, dtype=float)
        self._ultrametric = ultrametric
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("distance table must be square")

    @property
    def is_ultrametric(self) -> bool:
        return self._ultrametric

    def descriptor(self) -> dict:
        return {"kind": "table", "matrix": self.matrix.tolist()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TableRule) and np.array_equal(
            self.matrix, other.matrix
        )


MetricRule = Union[SupRule, PlaneRule, TableRule]


# ---------------------------------------------------------------------------
# the space itself


class FiniteSpace:
    """Finite pointed metric space with a faithfulness radius.

    inner_radius is the distance up to which every ambient point near the
    basepoint is present with exact distances.
    """

    def __init__(
        self,
        labels: Sequence[Label],
        rule: MetricRule,
        basepoint: int,
        inner_radius: Num,
        ultrametric: Optional[bool] = None,
        structural: bool = True,
    ):
        self.labels: tuple[Label, ...] = tuple(tuple(l) for l in labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate point labels")
        if not 0 <= basepoint < len(self.labels):
            raise ValueError("basepoint index out of range")
        if isinstance(rule, SupRule) and any(len(l) != len(rule.orders) for l in self.labels):
            raise ValueError("label width differs from the rule's coordinate count")
        if isinstance(rule, TableRule) and len(rule.matrix) != len(self.labels):
            raise ValueError("distance table size differs from the point count")
        self.rule = rule
        self.basepoint = basepoint
        self.inner_radius = inner_radius
        self.ultrametric = rule.is_ultrametric if ultrametric is None else ultrametric
        # chain components may use coordinate shortcuts only when the label
        # set is a full product box; arbitrary subsets break contiguity
        self.structural = structural
        self.index: dict[Label, int] = {l: i for i, l in enumerate(self.labels)}
        self._coords: Optional[np.ndarray] = None
        self._dmat: Optional[np.ndarray] = None
        self._edges: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        kind = self.rule.descriptor()["kind"]
        return f"FiniteSpace({len(self)} points, {kind}, R={self.inner_radius})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.basepoint == other.basepoint
            and self.rule == other.rule
        )

    @property
    def coords(self) -> np.ndarray:
        if self._coords is None:
            if isinstance(self.rule, TableRule):
                self._coords = np.arange(len(self))[:, None]
            else:
                # column-major: the row kernels read one coordinate at a time
                self._coords = np.asfortranarray(np.asarray(self.labels, dtype=float))
        return self._coords

    def d(self, i: int, j: int) -> Num:
        if isinstance(self.rule, TableRule):
            return self.rule.matrix[i, j]
        return self.rule.distance(self.labels[i], self.labels[j])

    def dists_from(self, i: int) -> np.ndarray:
        if isinstance(self.rule, TableRule):
            return self.rule.matrix[i]
        return self.rule.dists(self.coords[i], self.coords)

    def dmat(self) -> np.ndarray:
        """Dense distance matrix; refuses above DENSE_LIMIT points."""
        if self._dmat is None:
            if isinstance(self.rule, TableRule):
                self._dmat = self.rule.matrix
            else:
                n = len(self)
                if n > DENSE_LIMIT:
                    raise BudgetError(f"dense matrix of {n} points exceeds {DENSE_LIMIT}")
                m = np.zeros((n, n))
                for i in range(n):
                    m[i] = self.dists_from(i)
                self._dmat = m
        return self._dmat

    def ball(self, i: int, radius: Num) -> np.ndarray:
        """Indices of the closed ball around point i."""
        return np.flatnonzero(self.dists_from(i) <= float(radius))

    def to_json(self) -> str:
        r = self.inner_radius
        payload = {
            "version": 1,
            "basepoint": self.basepoint,
            "inner_radius": "inf" if r == math.inf else r,
            "ultrametric": self.ultrametric,
            "structural": self.structural,
            "labels": [list(l) for l in self.labels],
            "rule": self.rule.descriptor(),
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "FiniteSpace":
        payload = json.loads(text)
        if payload.get("version") != 1:
            raise ValueError("unsupported serialization version")
        r = payload["inner_radius"]
        desc = payload["rule"]
        if desc["kind"] == "table":
            # a table descriptor carries no flag of its own; the space's holds
            rule: MetricRule = TableRule(np.asarray(desc["matrix"]), payload["ultrametric"])
        else:
            rule = _rule_from_descriptor(desc)
        return FiniteSpace(
            [tuple(l) for l in payload["labels"]],
            rule,
            payload["basepoint"],
            math.inf if r == "inf" else r,
            payload["ultrametric"],
            payload.get("structural", True),
        )


def _rule_from_descriptor(desc: dict) -> MetricRule:
    kind = desc["kind"]
    if kind == "tower":
        return SupRule.tower(desc["orders"], desc["levels"])
    if kind == "group-ball":
        return SupRule.group_ball(desc["free_rank"], desc["cyclic_orders"], desc["cyclic_levels"])
    if kind == "product":
        left = _rule_from_descriptor(desc["left"])
        right = _rule_from_descriptor(desc["right"])
        if not (isinstance(left, SupRule) and isinstance(right, SupRule)):
            raise ValueError("product factors must be sup-metric rules")
        if desc["split"] != len(left.orders):
            raise ValueError("product split differs from the width of its left factor")
        return SupRule.product(left, right)
    if kind == "plane":
        return PlaneRule()
    raise ValueError(f"unknown rule kind {kind!r}")


# ---------------------------------------------------------------------------
# constructors


def _check_budget(count: int, point_budget: Optional[int]) -> None:
    budget = DEFAULT_POINT_BUDGET if point_budget is None else point_budget
    if count > budget:
        raise BudgetError(f"{count} points exceed the budget of {budget}")


Schedule = Sequence[tuple[Union[str, int], int]]


def make_schedule(g: GroupDescription, radius: int) -> list[tuple[Union[str, int], int]]:
    """Default exhaustion schedule: free generators at level 1, cyclic copies
    at doubling levels 2, 4, 8, ... round-robin across the summand types up
    to the radius."""
    schedule: list[tuple[Union[str, int], int]] = []
    if g.free_rank_part.is_infinite:
        raise ValueError("infinite free rank has no finite truncation")
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
    g: GroupDescription,
    schedule: Optional[Schedule] = None,
    radius: int = 8,
    point_budget: Optional[int] = None,
) -> FiniteSpace:
    """Ball of the given radius around the identity in the exhaustion metric
    described by the schedule."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if schedule is None:
        schedule = make_schedule(g, radius)
    free_rank = 0
    orders: list[int] = []
    levels: list[int] = []
    for gen, level in schedule:
        if gen == "Z":
            if level != 1:
                raise ValueError("free generators must sit at level 1")
            free_rank += 1
        else:
            order = int(gen)
            if order < 2:
                raise ValueError(f"cyclic order must be >= 2, got {order}")
            if level < 2:
                raise ValueError("cyclic levels must be >= 2")
            if levels and level <= levels[-1]:
                raise ValueError("cyclic levels must be strictly increasing")
            orders.append(order)
            levels.append(level)
    if g.free_rank_part != free_rank:
        raise ValueError("schedule free generators disagree with the description")

    kept = [(o, l) for o, l in zip(orders, levels) if l <= radius]
    count = (2 * radius + 1) ** free_rank
    for o, _ in kept:
        count *= o
    _check_budget(count, point_budget)

    rule = SupRule.group_ball(free_rank, [o for o, _ in kept], [l for _, l in kept])
    ranges = [range(-radius, radius + 1)] * free_rank + [range(o) for o, _ in kept]
    labels = [tuple(p) for p in itertools.product(*ranges)]
    basepoint = labels.index((0,) * (free_rank + len(kept)))
    return FiniteSpace(labels, rule, basepoint, radius)


def zball(radius: int, rank: int = 1, point_budget: Optional[int] = None) -> FiniteSpace:
    """Sup-metric ball of Z^rank."""
    _check_budget((2 * radius + 1) ** rank, point_budget)
    rule = SupRule.group_ball(rank)
    labels = [tuple(p) for p in itertools.product(range(-radius, radius + 1), repeat=rank)]
    return FiniteSpace(labels, rule, labels.index((0,) * rank), radius)


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
    count = 1
    for o in orders:
        count *= o
    _check_budget(count, point_budget)
    rule = SupRule.tower(orders, levels)
    labels = [tuple(p) for p in itertools.product(*[range(o) for o in orders])]
    inner = levels[-1] if levels else 0
    return FiniteSpace(labels, rule, labels.index((0,) * len(orders)), inner)


def enumerate_summands(phi: FactorFunction, depth: int, prime_bound: int = 97) -> list[int]:
    """First `depth` cyclic summand orders of the group determined by phi.

    Stage s emits one copy of prime p_i when i + (copies already emitted
    for p_i) == s, primes ascending. Every prime with infinite multiplicity
    recurs infinitely often, and a positive default walks through all primes
    below the bound.
    """
    primes = [p for p in first_primes(64) if p <= prime_bound]
    if phi.default == 0:
        primes = [p for p in primes if phi.get(p) != 0]
    cap = depth
    supply = _enumerable_mass(phi, primes)
    if supply is not None:
        cap = min(depth, supply)
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


def _enumerable_mass(phi: FactorFunction, primes: Sequence[int]) -> Optional[int]:
    """Total summand count reachable below the prime bound, None if infinite."""
    if phi.default != 0:
        return None
    total = 0
    for p in primes:
        e = phi.get(p)
        if not e.is_finite:
            return None
        total += e.finite_value()
    return total


def canonical_ultrametric(
    phi: FactorFunction,
    depth: int,
    prime_bound: int = 97,
    point_budget: Optional[int] = None,
) -> FiniteSpace:
    """Truncation of the canonical ultrametric group for phi: the product of
    its first `depth` cyclic summands, summand i at level i + 1."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    orders = enumerate_summands(phi, depth, prime_bound)
    space = tower_space(orders, point_budget=point_budget)
    primes = [p for p in first_primes(64) if p <= prime_bound]
    supply = _enumerable_mass(phi, primes)
    # a fully enumerated profile is the whole group, faithful at every scale
    inner: Num = math.inf if supply is not None and len(orders) == supply else depth + 1
    return FiniteSpace(space.labels, space.rule, space.basepoint, inner)


def k_point_space(k: int) -> FiniteSpace:
    """{0..k-1} with the 2-valued metric (distinct points at distance 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return FiniteSpace([()], SupRule.tower((), ()), 0, math.inf)
    sp = tower_space([k], levels=[1])
    return FiniteSpace(sp.labels, sp.rule, sp.basepoint, math.inf)


def cantor_cube_truncation(depth: int, point_budget: Optional[int] = None) -> FiniteSpace:
    """Binary strings on coordinates 1..depth with d = max over differing
    coordinates of 2^n."""
    if depth > 20:
        raise ValueError("depth must be <= 20")
    sp = tower_space([2] * depth, levels=[2**i for i in range(1, depth + 1)],
                     point_budget=point_budget)
    return FiniteSpace(sp.labels, sp.rule, sp.basepoint, 2**depth if depth else 0)


def subspace(space: FiniteSpace, indices: Sequence[int], basepoint: Optional[int] = None) -> FiniteSpace:
    """Induced metric on a subset of points. The basepoint defaults to the
    ambient one and must belong to the subset."""
    idx = np.asarray(sorted(int(i) for i in indices))
    labels = [space.labels[int(i)] for i in idx]
    if isinstance(space.rule, TableRule):
        rule: MetricRule = TableRule(space.rule.matrix[np.ix_(idx, idx)], space.ultrametric)
    else:
        rule = space.rule
    base = space.basepoint if basepoint is None else basepoint
    where = np.flatnonzero(idx == base)
    if not len(where):
        raise ValueError("basepoint must belong to the subset")
    # ultrametric rules classify chains pointwise, so subsets keep their
    # shortcuts; sup-metric boxes lose contiguity and must go exhaustive
    structural = space.structural and (space.ultrametric or len(idx) == len(space))
    return FiniteSpace(labels, rule, int(where[0]), space.inner_radius,
                       space.ultrametric, structural)


def product_space(
    x: FiniteSpace, y: FiniteSpace, point_budget: Optional[int] = None
) -> FiniteSpace:
    """Cartesian product with the sup metric."""
    if not (isinstance(x.rule, SupRule) and isinstance(y.rule, SupRule)):
        raise ValueError("products need sup-metric factors")
    _check_budget(len(x) * len(y), point_budget)
    rule = SupRule.product(x.rule, y.rule)
    labels = [a + b for a in x.labels for b in y.labels]
    base = x.labels[x.basepoint] + y.labels[y.basepoint]
    inner = min(x.inner_radius, y.inner_radius)
    return FiniteSpace(labels, rule, labels.index(base), inner,
                       structural=x.structural and y.structural)


def example31_fixture(
    branches: int,
    grid_step: float,
    clamp: float,
    point_budget: Optional[int] = None,
) -> FiniteSpace:
    """Grid sample of the plane curve (x + 2 pi n, (-1)^n tan x) for
    n = 0..branches, x on the grid {k * grid_step} with |tan x| <= clamp."""
    if branches < 1:
        raise ValueError("branches must be >= 1")
    if grid_step <= 0 or clamp <= 0:
        raise ValueError("grid_step and clamp must be positive")
    kmax = int(math.floor((math.pi / 2) / grid_step))
    xs = []
    for k in range(-kmax, kmax + 1):
        x = k * grid_step
        if abs(x) < math.pi / 2 and abs(math.tan(x)) <= clamp:
            xs.append(x)
    _check_budget((branches + 1) * len(xs), point_budget)
    labels = []
    for n in range(branches + 1):
        sign = -1.0 if n % 2 else 1.0
        for x in xs:
            labels.append(
                (round(x + 2 * math.pi * n, PLANE_DECIMALS),
                 round(sign * math.tan(x), PLANE_DECIMALS))
            )
    labels.sort()
    space = FiniteSpace(labels, PlaneRule(), labels.index((0.0, 0.0)), 0)
    # the whole sample is the known region; faithfulness ends at its extent
    space.inner_radius = float(np.max(space.dists_from(space.basepoint)))
    return space


# ---------------------------------------------------------------------------
# components and quotients


@dataclass(frozen=True)
class ComponentPartition:
    """Epsilon-chain components. Blocks are ordered by representative, and
    each representative is the lexicographically minimal point (equivalently
    minimal index) of its block."""

    epsilon: Num
    blocks: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    point_block: np.ndarray = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.blocks)


def _partition_from_keys(epsilon: Num, keys: Sequence) -> ComponentPartition:
    """Partition grouping points by key: structural coordinate keys or
    connected-component labels."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    blocks = sorted(groups.values(), key=lambda blk: blk[0])
    point_block = np.empty(len(keys), dtype=np.int64)
    for b, blk in enumerate(blocks):
        point_block[blk] = b
    return ComponentPartition(
        epsilon,
        tuple(tuple(blk) for blk in blocks),
        tuple(blk[0] for blk in blocks),
        point_block,
    )


def _component_keys(labels: Sequence[Label], rule: SupRule, eps: float) -> list[tuple]:
    """Structural component keys: the coordinates above eps. Points of a
    full box that agree there are chained by steps of at most eps."""
    kept = [c for c, lvl in enumerate(rule.levels) if lvl > eps]
    return [tuple(l[c] for c in kept) for l in labels]


def delaunay_edges(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delaunay edge list (i, j, weight) of planar points, each edge once
    with i < j and its PlaneRule distance. The Delaunay graph contains the
    Euclidean MST, so thresholding it yields the same connected components,
    and the same single-linkage heights, as the full distance graph."""
    from scipy.spatial import Delaunay

    s = np.sort(Delaunay(pts).simplices, axis=1)
    pairs = np.unique(np.concatenate([s[:, [0, 1]], s[:, [0, 2]], s[:, [1, 2]]]), axis=0)
    ii, jj = pairs[:, 0], pairs[:, 1]
    ww = np.round(np.hypot(pts[ii, 0] - pts[jj, 0], pts[ii, 1] - pts[jj, 1]), PLANE_DECIMALS)
    return ii, jj, ww


def plane_edges(space: FiniteSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delaunay edges of a plane fixture, cached on the space."""
    if space._edges is None:
        space._edges = delaunay_edges(np.asarray(space.labels, dtype=float))
    return space._edges


def _connected_labels(n: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n nodes under the edges (ii, jj)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    # unit weights: coo_matrix sums duplicate pairs, and a sum stays nonzero
    graph = coo_matrix((np.ones(len(ii)), (ii, jj)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _spanning_tree(n: int, ii: np.ndarray, jj: np.ndarray, ww: np.ndarray):
    """Minimum spanning tree (rows, cols, weights) of the graph on n nodes
    with edges (ii, jj, ww). Each pair must appear once with a positive
    weight: coo_matrix sums duplicates and csgraph reads a zero as no edge."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    tree = minimum_spanning_tree(coo_matrix((ww, (ii, jj)), shape=(n, n))).tocoo()
    return tree.row, tree.col, tree.data


def _graph_components(space: FiniteSpace, eps: float) -> np.ndarray:
    """Component labels of the graph with edges d <= eps."""
    n = len(space)
    if isinstance(space.rule, PlaneRule):
        ii, jj, ww = plane_edges(space)
        keep = ww <= eps
        return _connected_labels(n, ii[keep], jj[keep])
    # rows in blocks, each block's edges joined to a star forest of the
    # components so far, so memory stays near one block of rows
    labels = np.arange(n)
    step = max(1, 2**20 // n)
    for start in range(0, n, step):
        rows = np.asarray([space.dists_from(i) for i in range(start, min(n, start + step))])
        bi, bj = np.nonzero(rows <= eps)
        roots = np.unique(labels, return_index=True)[1][labels]
        ii = np.concatenate([bi + start, np.arange(n)])
        labels = _connected_labels(n, ii, np.concatenate([bj, roots]))
    return labels


def epsilon_components(space: FiniteSpace, epsilon: Num) -> ComponentPartition:
    """Partition into epsilon-chain components."""
    eps = float(epsilon)
    if eps < 0:
        raise ValueError("epsilon must be >= 0")
    if space.structural and isinstance(space.rule, SupRule):
        keys = _component_keys(space.labels, space.rule, eps)
    else:
        keys = _graph_components(space, eps)
    return _partition_from_keys(epsilon, keys)


def _quotient_tower_parts(rule: SupRule, eps: float) -> Optional[list[int]]:
    """Positions of the cyclic coordinates above eps, by ascending level:
    the tower of the structural quotient. None when the rule needs the
    generic path: eps below a free coordinate's scale, or two kept levels
    coincide (across product factors)."""
    if eps < 1 and 0 in rule.orders:
        return None
    kept = sorted((c for c, (o, lvl) in enumerate(zip(rule.orders, rule.levels))
                   if o and lvl > eps), key=lambda c: rule.levels[c])
    levels = [rule.levels[c] for c in kept]
    if len(set(levels)) != len(levels):
        return None
    return kept


def quotient_with_projection(
    space: FiniteSpace, epsilon: Num
) -> tuple[FiniteSpace, ComponentPartition]:
    """Quotient ultrametric space together with the defining partition.

    d(A, B) = least realized delta >= epsilon at which A and B fall in one
    delta-component; on towers and group balls this is the level of the
    highest differing retained coordinate, computed directly.
    """
    eps = float(epsilon)
    parts = None
    if space.structural and isinstance(space.rule, SupRule):
        parts = _quotient_tower_parts(space.rule, eps)
    partition = epsilon_components(space, epsilon)

    if parts is not None:
        labels = [tuple(space.labels[rep][c] for c in parts)
                  for rep in partition.representatives]
        rule = SupRule.tower([space.rule.orders[c] for c in parts],
                             [space.rule.levels[c] for c in parts])
        base_block = int(partition.point_block[space.basepoint])
        q = FiniteSpace(labels, rule, base_block, space.inner_radius)
        return q, partition

    # generic path: single-linkage merge heights of the blocks, read off the
    # minimum spanning tree of the block graph (lightest edge per block pair)
    reps = partition.representatives
    b = len(reps)
    if b > DENSE_LIMIT:
        raise BudgetError(f"quotient with {b} blocks exceeds the dense limit")
    if isinstance(space.rule, PlaneRule):
        ii, jj, ww = plane_edges(space)
    else:
        ii, jj = np.triu_indices(len(space), k=1)
        ww = space.dmat()[ii, jj]
    bi, bj = partition.point_block[ii], partition.point_block[jj]
    # cross-block weights exceed eps >= 0, so none reads as a missing edge
    cross = bi != bj
    key = np.minimum(bi, bj)[cross] * b + np.maximum(bi, bj)[cross]
    ww = ww[cross]
    order = np.argsort(ww, kind="stable")
    key, first = np.unique(key[order], return_index=True)
    ti, tj, tw = _spanning_tree(b, key // b, key % b, ww[order][first])
    qd = np.zeros((b, b))
    cluster = np.arange(b)
    for k in np.argsort(tw, kind="stable"):
        left = cluster == cluster[ti[k]]
        right = cluster == cluster[tj[k]]
        qd[np.ix_(left, right)] = qd[np.ix_(right, left)] = tw[k]
        cluster[right] = cluster[ti[k]]
    base_block = int(partition.point_block[space.basepoint])
    base_spread = float(np.max(space.dists_from(space.basepoint)[list(partition.blocks[base_block])]))
    inner = max(0.0, float(space.inner_radius) - base_spread)
    labels = [space.labels[rep] for rep in reps]
    q = FiniteSpace(labels, TableRule(qd, ultrametric=True), base_block, inner, True)
    _verify_ultrametric(q)
    return q, partition


def quotient_space(space: FiniteSpace, epsilon: Num) -> FiniteSpace:
    return quotient_with_projection(space, epsilon)[0]


def _verify_ultrametric(space: FiniteSpace, sample: int = 512) -> None:
    n = len(space)
    m = space.dmat() if n <= sample else None
    if m is not None:
        for k in range(n):
            lhs = m
            rhs = np.maximum(m[:, k][:, None], m[k][None, :])
            if np.any(lhs > rhs + 1e-12):
                raise ValueError("strong triangle inequality violated")
        return
    rng = np.random.default_rng(0)
    idx = rng.integers(0, n, size=(2000, 3))
    for a, b, c in idx:
        if space.d(a, b) > max(space.d(a, c), space.d(c, b)) + 1e-12:
            raise ValueError("strong triangle inequality violated")


def validate_metric(space: FiniteSpace, exhaustive_limit: int = 512) -> None:
    """Metric axioms; exhaustive up to the limit, randomized spot checks above."""
    n = len(space)
    if n <= exhaustive_limit:
        m = space.dmat()
        if np.any(np.abs(np.diag(m)) > 0):
            raise ValueError("nonzero self-distance")
        if np.any(np.abs(m - m.T) > 1e-12):
            raise ValueError("asymmetric distance")
        offdiag = m + np.eye(n)
        if np.any(offdiag <= 0):
            raise ValueError("distinct points at distance 0")
        for k in range(n):
            if np.any(m > m[:, k][:, None] + m[k][None, :] + 1e-9):
                raise ValueError("triangle inequality violated")
        if space.ultrametric:
            _verify_ultrametric(space)
        return
    rng = np.random.default_rng(1)
    for a, b, c in rng.integers(0, n, size=(4000, 3)):
        dab, dac, dcb = space.d(a, b), space.d(a, c), space.d(c, b)
        if dab != space.d(b, a):
            raise ValueError("asymmetric distance")
        bound = max(dac, dcb) if space.ultrametric else dac + dcb
        if dab > bound + 1e-9:
            raise ValueError("triangle inequality violated")
