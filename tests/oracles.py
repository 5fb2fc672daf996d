"""Oracles the tests compare the package against and the program never
reads: the scalar distance of two points, the metric axioms of a space
read on every triple, the chain and components of any space read from its
distance rows alone, the heights of a minimum spanning tree of plane
points, the cophenetic matrix a chain states and scipy's single-linkage
one, the equality of two witness maps, and the addition and text form
of factor functions; two lookups the program reads in other forms, a
label's position and a partition's blocks; and ExtNat, the reference
count with its infinity conventions written out case by case, with the
factor-function operations, the symbolic phi, the multipliers, the summand
walk and the exhaustion schedule read through it."""

from __future__ import annotations

import functools
import math

import numpy as np

from coarseiso.factorfn import FactorFunction
from coarseiso.primes import factorize
from coarseiso.plane import PLANE_DECIMALS, _connected_labels
from coarseiso.spaces import BudgetError, PlaneRule, SupRule, _walked_primes, row_blocks


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


def chain_cophenet(order, gap):
    """Cophenetic matrix a chain states, in subset positions: the largest
    gap between two points along the order."""
    m = np.zeros((len(order), len(order)))
    for i in range(len(order)):
        m[order[i], order[i + 1:]] = np.maximum.accumulate(gap[i + 1:])
    return np.maximum(m, m.T)


def single_linkage_cophenet(sp, subset):
    """scipy's single-linkage cophenetic matrix of the subset of a space,
    on all its distances, in subset positions."""
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    if len(subset) < 2:
        return np.zeros((len(subset), len(subset)))
    d = sp.dmat()[np.ix_(subset, subset)]
    return squareform(cophenet(linkage(squareform(d, checks=False), "single")))


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


def ff_parse(text: str) -> FactorFunction:
    """The factor function of comma-separated 'prime:exponent' clauses and
    at most one 'default:exponent' clause, an exponent being digits or inf,
    infinity or oo; the inverse of ff_render."""
    text = text.strip()
    if not text:
        return FactorFunction()
    default = 0
    values: dict = {}
    saw_default = False
    for chunk in text.split(","):
        key, sep, raw = chunk.partition(":")
        if not sep:
            raise ValueError(f"malformed clause {chunk!r}, expected 'prime:exponent'")
        key = key.strip()
        raw = raw.strip()
        value = math.inf if raw in ("inf", "infinity", "oo") else int(raw)
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


@functools.total_ordering
class ExtNat:
    """A natural number or infinity, which it holds as None. It is built
    from a count (an int >= 0 or math.inf) and gives one back by count().
    Its arithmetic keeps the conventions case by case: inf + k = inf,
    inf - inf = 0 and inf - k = inf, |inf - inf| = 0 and |inf - k| = inf,
    and 0 * inf = 0."""

    def __init__(self, value=0):
        if isinstance(value, ExtNat):
            value = value._value
        elif value == math.inf:
            value = None
        elif value is not None and (not isinstance(value, int) or isinstance(value, bool)
                                    or value < 0):
            raise ValueError(f"not an extended natural: {value!r}")
        self._value = value

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    def finite_value(self) -> int:
        if self._value is None:
            raise ValueError("infinite ExtNat has no finite value")
        return self._value

    def count(self):
        return math.inf if self._value is None else self._value

    def __eq__(self, other) -> bool:
        return self._value == ExtNat(other)._value

    def __lt__(self, other) -> bool:
        other = ExtNat(other)
        if self._value is None:
            return False
        return other._value is None or self._value < other._value

    def __add__(self, other) -> "ExtNat":
        other = ExtNat(other)
        if self._value is None or other._value is None:
            return INF
        return ExtNat(self._value + other._value)

    def __mul__(self, other) -> "ExtNat":
        other = ExtNat(other)
        if self._value == 0 or other._value == 0:
            return ExtNat(0)
        if self._value is None or other._value is None:
            return INF
        return ExtNat(self._value * other._value)

    def minus(self, other) -> "ExtNat":
        """Truncated difference; other <= self unless self is infinite."""
        other = ExtNat(other)
        if self._value is None:
            return ExtNat(0) if other._value is None else INF
        if other._value is None or other._value > self._value:
            raise ValueError(f"cannot subtract {other} from {self}")
        return ExtNat(self._value - other._value)

    def absdiff(self, other) -> "ExtNat":
        other = ExtNat(other)
        if self._value is None and other._value is None:
            return ExtNat(0)
        if self._value is None or other._value is None:
            return INF
        return ExtNat(abs(self._value - other._value))

    def __repr__(self) -> str:
        return f"ExtNat({self})"

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)


INF = ExtNat(None)


def _both_primes(f: FactorFunction, g: FactorFunction) -> list[int]:
    return sorted(set(f.support_primes) | set(g.support_primes))


def extnat_almost_equal(f: FactorFunction, g: FactorFunction) -> bool:
    """ff_almost_equal by ExtNat.absdiff: the defaults agree and every
    explicit prime's |f(p) - g(p)| is finite."""
    return ExtNat(f.default) == ExtNat(g.default) and all(
        ExtNat(f.get(p)).absdiff(g.get(p)).is_finite for p in _both_primes(f, g))


def extnat_le(f: FactorFunction, g: FactorFunction) -> bool:
    """ff_le by ExtNat's order."""
    return ExtNat(f.default) <= ExtNat(g.default) and all(
        ExtNat(f.get(p)) <= ExtNat(g.get(p)) for p in _both_primes(f, g))


def extnat_sub(f: FactorFunction, g: FactorFunction):
    """ff_sub by ExtNat.minus, as a factor function, or None where a
    value of f - g would be negative."""
    try:
        default = ExtNat(f.default).minus(g.default)
        values = {p: ExtNat(f.get(p)).minus(g.get(p)) for p in _both_primes(f, g)}
    except ValueError:
        return None
    return FactorFunction.from_dict({p: v.count() for p, v in values.items()}, default.count())


def extnat_total_mass(f: FactorFunction) -> ExtNat:
    """The sum of f over all primes by ExtNat addition."""
    if ExtNat(f.default) != 0:
        return INF
    total = ExtNat(0)
    for _, v in f.entries:
        total = total + ExtNat(v)
    return total


def extnat_multipliers(fx: FactorFunction, fy: FactorFunction):
    """find_multipliers on two profiles by ExtNat: None when the defaults
    differ or a prime is infinite on one side only, else the products of
    p^(x(p) - y(p)) over the primes where x is larger, and where y is."""
    if ExtNat(fx.default) != ExtNat(fy.default):
        return None
    n = m = 1
    for p in _both_primes(fx, fy):
        a, b = ExtNat(fx.get(p)), ExtNat(fy.get(p))
        if not a.is_finite and not b.is_finite:
            continue
        if not a.is_finite or not b.is_finite:
            return None
        diff = a.finite_value() - b.finite_value()
        n, m = (n * p**diff, m) if diff > 0 else (n, m * p**-diff)
    return (n, m)


def extnat_phi(g) -> FactorFunction:
    """factorizing_function_symbolic by ExtNat: each summand's
    multiplicity times its order's p-exponents (0 * inf = 0), summed, and
    the tail, or 0, off the summands' primes."""
    values: dict = {}
    for order, mult in g.summands:
        for p, exp in factorize(order).items():
            values[p] = values.get(p, ExtNat(0)) + ExtNat(mult) * exp
    return FactorFunction.from_dict({p: v.count() for p, v in values.items()},
                                    0 if g.tail is None else g.tail)


def stage_summands(phi: FactorFunction, depth: int, prime_bound) -> list[int]:
    """enumerate_summands as a loop over every walked prime at every stage,
    reading phi(p) as an ExtNat each time: stage s emits p_i when
    phi(p_i) > s - i, primes ascending."""
    primes = _walked_primes(phi, depth, prime_bound)
    values = [ExtNat(phi.get(p)) for p in primes]
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
            if ExtNat(phi.get(p)) > stage - i:
                out.append(p)
                if len(out) == cap:
                    break
    return out


def extnat_schedule(g, radius: int) -> list:
    """make_schedule's cyclic part with ExtNat counts: a pool of summand
    types, each emitted round-robin at doubling levels from 2 up to the
    radius, and dropped from the pool when its count reaches 0."""
    schedule = [("Z", 1)] * ExtNat(g.free_rank_part).finite_value()
    pool = list(g.summands)
    remaining = {order: ExtNat(m) for order, m in pool}
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
