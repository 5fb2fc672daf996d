"""Oracles the tests compare the package against and the program never
reads: the scalar distance of two points, the metric axioms of a space
read on every triple, the chain and components of any space read from its
distance rows alone, the heights of a minimum spanning tree of plane
points, the equality of two witness maps, and the addition and text form
of factor functions; two lookups the program reads in other forms, a
label's position and a partition's blocks; and the summand walk and the
exhaustion schedule as loops over ExtNat counts."""

from __future__ import annotations

import math

import numpy as np

from coarseiso.extnat import INF, ExtNat
from coarseiso.factorfn import FactorFunction
from coarseiso.spaces import (
    PLANE_DECIMALS,
    BudgetError,
    PlaneRule,
    SupRule,
    _connected_labels,
    _walked_primes,
    row_blocks,
)


def distance(space, i: int, j: int):
    """The distance of points i and j, read from their two labels alone:
    the scalar oracle of the rules' row kernels. Under a sup rule the max
    over coordinates of |x - y| (free) or level * [x != y] (cyclic); under
    the plane rule the Euclidean distance rounded to PLANE_DECIMALS; any
    other rule is a dense table (tests/dense_rule.py), read at the labels."""
    rule, a, b = space.rule, space.labels[i], space.labels[j]
    if isinstance(rule, PlaneRule):
        return round(math.hypot(a[0] - b[0], a[1] - b[1]), PLANE_DECIMALS)
    if not isinstance(rule, SupRule):
        return rule.matrix[a[0], b[0]]
    d = 0
    for x, y, o, lvl in zip(a, b, rule.orders, rule.levels):
        if o == 0:
            d = max(d, abs(x - y))
        elif x != y:
            d = max(d, lvl)
    return d


def index(space) -> dict:
    """The position of each label of a space."""
    return {label: i for i, label in enumerate(space.labels)}


def blocks(partition) -> tuple[tuple[int, ...], ...]:
    """The members of each block of a partition in ascending order, blocks
    in the partition's order, read from its point_block."""
    members = np.argsort(partition.point_block, kind="stable").tolist()
    ends = np.cumsum(np.bincount(partition.point_block)).tolist()
    return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))


# validate_metric reads every triple of points, so it takes no more than this
EXHAUSTIVE_LIMIT = 512


def validate_metric(space) -> None:
    """The metric axioms, and the strong triangle inequality on an
    ultrametric, checked on every triple; a space of more than
    EXHAUSTIVE_LIMIT points is refused, not sampled."""
    n = len(space)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{n} points exceed the {EXHAUSTIVE_LIMIT} whose triples are all read")
    m = space.dmat()
    if np.any(np.abs(np.diag(m)) > 0):
        raise ValueError("nonzero self-distance")
    if np.any(np.abs(m - m.T) > 1e-12):
        raise ValueError("asymmetric distance")
    if np.any(m + np.eye(n) <= 0):
        raise ValueError("distinct points at distance 0")
    for k in range(n):
        if np.any(m > m[:, k][:, None] + m[k][None, :] + 1e-9):
            raise ValueError("triangle inequality violated")
        if space.ultrametric and np.any(m > np.maximum(m[:, k][:, None], m[k][None, :]) + 1e-12):
            raise ValueError("strong triangle inequality violated")


def prim_chain(space, subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The single-linkage chain of the subset (MetricRule) in the order in
    which Prim's algorithm (Prim, 1957) takes its points, one distance row
    per point in linear memory, each point's gap its reach: its least
    distance to the points taken before it. That is exact, ties included.
    When the first point of an eps-component C is taken, its reach is
    above eps, and every other component is fully taken or untouched: a
    point within eps of the points taken would have been taken first.
    Until the rest of C is taken, some point of C is within eps of them,
    and every point outside C is farther, so C is one run, and gap > eps
    only at its start."""
    n = len(subset)
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


def graph_components(space, eps: float) -> np.ndarray:
    """Component label of each point in the graph with edges d <= eps:
    rows in blocks, each block's edges joined to a star forest of the
    components so far, so memory stays near one block of rows."""
    n = len(space)
    labels = np.arange(n)
    for blk in row_blocks(n):
        bi, bj = np.nonzero(space.dists_block(blk, slice(None)) <= eps)
        # each point's label is the least index of its component so far, a
        # point of it: joining the two keeps those components
        ii = np.concatenate([bi + blk.start, np.arange(n)])
        labels = _connected_labels(n, ii, np.concatenate([bj, labels]))
    return labels


def prim_heights(pts) -> list[float]:
    """The weights of a minimum spanning tree of plane points under
    PlaneRule distances, ascending: Prim's algorithm, one distance row at a
    time, so memory stays linear. They are the single-linkage heights of
    all pairs, each as often."""
    if len(pts) == 0:
        return []
    rule = PlaneRule()
    best = rule.dists(pts[0], pts)
    left = np.ones(len(pts), dtype=bool)
    left[0] = False
    heights = []
    for _ in range(len(pts) - 1):
        k = int(np.argmin(np.where(left, best, np.inf)))
        heights.append(float(best[k]))
        left[k] = False
        np.minimum(best, rule.dists(pts[k], pts), out=best)
    return sorted(heights)


def single_linkage_heights(pts) -> list[float]:
    """scipy's single-linkage heights of plane points on all PlaneRule
    distances, ascending."""
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    if len(pts) < 2:
        return []
    d = PlaneRule().dists(pts, pts)
    return sorted(linkage(squareform(d, checks=False), "single")[:, 2].tolist())


def same_witness(a, b) -> bool:
    """Whether two witness maps hold equal spaces, tables, moduli, validity
    radii and claims; the maps themselves compare by identity."""
    return (a.source == b.source and a.target == b.target
            and np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
            and a.forward_moduli == b.forward_moduli
            and a.backward_moduli == b.backward_moduli
            and a.validity_radius == b.validity_radius and a.claims == b.claims)


def ff_add(f: FactorFunction, g: FactorFunction) -> FactorFunction:
    """Pointwise sum."""
    primes = sorted(set(f.support_primes) | set(g.support_primes))
    return FactorFunction.from_dict({p: f.get(p) + g.get(p) for p in primes},
                                    f.default + g.default)


def parse_extnat(text: str) -> ExtNat:
    """An extended natural from its text: digits, or inf, infinity or oo."""
    text = text.strip()
    return INF if text in ("inf", "infinity", "oo") else ExtNat(int(text))


def ff_parse(text: str) -> FactorFunction:
    """The factor function of comma-separated 'prime:exponent' clauses and
    at most one 'default:exponent' clause; the inverse of ff_render."""
    text = text.strip()
    if not text:
        return FactorFunction()
    default = ExtNat(0)
    values: dict[int, ExtNat] = {}
    saw_default = False
    for chunk in text.split(","):
        key, sep, raw = chunk.partition(":")
        if not sep:
            raise ValueError(f"malformed clause {chunk!r}, expected 'prime:exponent'")
        key = key.strip()
        value = parse_extnat(raw)
        if key == "default":
            if saw_default:
                raise ValueError("repeated default clause")
            saw_default = True
            default = value
            continue
        p = int(key)
        if p in values:
            raise ValueError(f"repeated prime {p}")
        values[p] = value
    return FactorFunction.from_dict(values, default)


def stage_summands(phi: FactorFunction, depth: int, prime_bound) -> list[int]:
    """enumerate_summands as a loop over every walked prime at every stage,
    reading phi(p) as an ExtNat each time: stage s emits p_i when
    phi(p_i) > s - i, primes ascending."""
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
            raise BudgetError(f"depth {depth} asks for a tower beyond any point budget")
        for i, p in enumerate(primes, start=1):
            if i > stage:
                break
            if phi.get(p) > stage - i:
                out.append(p)
                if len(out) == cap:
                    break
    return out


def extnat_schedule(g, radius: int) -> list:
    """make_schedule's cyclic part with ExtNat counts: a pool of summand
    types, each emitted round-robin at doubling levels from 2 up to the
    radius, and dropped from the pool when its count reaches 0."""
    schedule = [("Z", 1)] * g.free_rank_part.finite_value()
    pool = list(g.summands)
    remaining = dict(pool)
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
