"""Oracles the tests compare the package against and the program never
reads: the scalar distance of two points, the metric axioms of a space
read on every triple, the heights of a minimum spanning tree of plane
points, and the addition and text form of factor functions; and two
lookups the program reads in other forms, a label's position and a
partition's blocks."""

from __future__ import annotations

import math

import numpy as np

from coarseiso.extnat import INF, ExtNat
from coarseiso.factorfn import FactorFunction
from coarseiso.spaces import PLANE_DECIMALS, PlaneRule, SupRule

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
