"""Explicit witnesses for coarse equivalences between built spaces.

A witness is a finite lookup table between two spaces, together with the
oscillation moduli measured from that table and the structural claims the
construction guarantees. Verification trusts nothing: it re-measures the
moduli, re-checks bijectivity and totality, and tests every claim point by
point. Combinators (compose, product, invert) always re-measure; moduli are
never propagated arithmetically.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .analysis import oscillation
from .factorfn import ff_sub, phi_of_nat
from .groups import GroupDescription, coarse_isomorphic
from .spaces import (
    FiniteSpace,
    SupRule,
    _partition_from_keys,
    _row_groups,
    canonical_ultrametric,
    epsilon_components,
    k_point_space,
    product_space,
    quotient_with_projection,
    row_blocks,
    subspace,
    tower_space,
    zball,
)

STANDARD_DELTAS = (1.0, 2.0, 4.0, 8.0)
_TOL = 1e-9


# ---------------------------------------------------------------------------
# the witness record


@dataclass(init=False, eq=False)
class WitnessMap:
    """Table-backed map between two built spaces.

    The table maps source index ``src[k]`` to target index ``dst[k]``; both
    are read-only int64 arrays. The map must cover every source point
    within ``validity_radius`` of the source basepoint and be injective
    there; ``forward_moduli`` and ``backward_moduli`` are the oscillation
    values measured over that region at the declared scales.

    A ``table`` of (source, target) pairs may be given in place of the
    arrays, and replaces them: ``dataclasses.replace(w, table=...)`` swaps
    the table. An index that is not a whole number naming a point of its
    side's space is a ValueError naming the side.
    """

    source: FiniteSpace
    target: FiniteSpace
    src: np.ndarray
    dst: np.ndarray
    forward_moduli: Dict[float, float]
    backward_moduli: Dict[float, float]
    validity_radius: float
    claims: Tuple[dict, ...] = ()

    def __init__(
        self,
        source: FiniteSpace,
        target: FiniteSpace,
        table: Optional[Sequence[Tuple[int, int]]] = None,
        forward_moduli: Optional[Dict[float, float]] = None,
        backward_moduli: Optional[Dict[float, float]] = None,
        validity_radius: Optional[float] = None,
        claims: Tuple[dict, ...] = (),
        *,
        src: Optional[Sequence[int]] = None,
        dst: Optional[Sequence[int]] = None,
    ):
        if table is not None:
            src, dst = np.asarray(table).reshape(-1, 2).T
        if src is None or dst is None or validity_radius is None:
            raise TypeError("a witness needs its table and validity radius")
        src, dst = np.asarray(src), np.asarray(dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("mismatched map table")
        for side, space, idx in (("source", source, src), ("target", target, dst)):
            if len(idx) and not (np.issubdtype(idx.dtype, np.integer)
                                 and 0 <= idx.min() and idx.max() < len(space)):
                bad = idx[(idx < 0) | (idx >= len(space)) | (idx != np.floor(idx))]
                if len(bad):
                    raise ValueError(f"{side} index {bad[0]} is not one of the {side}'s "
                                     f"{len(space)} points")
        self.src, self.dst = src.astype(np.int64), dst.astype(np.int64)
        self.src.setflags(write=False)
        self.dst.setflags(write=False)
        self.source, self.target = source, target
        self.forward_moduli = {} if forward_moduli is None else forward_moduli
        self.backward_moduli = {} if backward_moduli is None else backward_moduli
        self.validity_radius = validity_radius
        self.claims = claims
        self._table: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def table(self) -> Tuple[Tuple[int, int], ...]:
        """(source index, target index) pairs as Python ints, in table
        order; built on first read."""
        if self._table is None:
            self._table = tuple(zip(self.src.tolist(), self.dst.tolist()))
        return self._table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WitnessMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and self.forward_moduli == other.forward_moduli
            and self.backward_moduli == other.backward_moduli
            and self.validity_radius == other.validity_radius
            and self.claims == other.claims
        )

    def __len__(self) -> int:
        return len(self.src)

    def to_json(self) -> dict:
        validity = (
            self.validity_radius if math.isfinite(self.validity_radius) else "inf"
        )
        return {
            "source_id": space_id(self.source),
            "target_id": space_id(self.target),
            "validity_radius": validity,
            "pairs": np.stack((self.src, self.dst), axis=1).tolist(),
            "moduli": {
                "forward": {str(d): v for d, v in sorted(self.forward_moduli.items())},
                "backward": {str(d): v for d, v in sorted(self.backward_moduli.items())},
            },
            "claims": [dict(c) for c in self.claims],
        }


def space_id(space: FiniteSpace) -> str:
    """Content hash naming a built space in serialized witnesses:
    "{kind}-{n}-" and the first 12 hex digits of the SHA-1 of the UTF-8
    text json.dumps([descriptor, basepoint], sort_keys=True, default=str)
    followed by the rows' bytes, C-ordered little-endian float64 of
    coords + 0.0 (so -0.0 hashes as 0.0). Equal spaces get equal ids; the
    inner radius is not hashed, as equality does not read it."""
    descriptor = space.rule.descriptor()
    head = json.dumps([descriptor, space.basepoint], sort_keys=True, default=str)
    sha = hashlib.sha1(head.encode())
    sha.update((np.asarray(space.coords, dtype="<f8") + 0.0).tobytes())
    return f"{descriptor['kind']}-{len(space)}-{sha.hexdigest()[:12]}"


def _check_deltas(deltas: Iterable[float]) -> List[float]:
    """Scales as floats; a NaN or negative scale is a ValueError."""
    out = [float(x) for x in deltas]
    for x in out:
        if not x >= 0:  # NaN included
            raise ValueError(f"delta must be >= 0, got {x}")
    return out


def _inside(space: FiniteSpace, idx: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the points idx within radius of the basepoint."""
    return space.base_dists[idx] <= radius + _TOL


def _finish(
    source: FiniteSpace,
    target: FiniteSpace,
    src: Sequence[int],
    dst: Sequence[int],
    claims: Tuple[dict, ...],
    extra_deltas: Sequence[float] = (),
    validity_cap: Optional[float] = None,
    context: str = "witness",
) -> WitnessMap:
    """Normalize the table given as source and target index arrays, derive
    the validity radius and measure moduli.

    Every constructor and combinator routes through here, so recorded moduli
    are measured values by construction: one oscillation call for every
    scale and both directions. The table is kept sorted by source. The
    validity radius is the largest realized distance from the source
    basepoint whose closed ball the table covers entirely.
    """
    extra = _check_deltas(extra_deltas)
    si = np.asarray(src, dtype=np.int64)
    ti = np.asarray(dst, dtype=np.int64)
    # a table that passes has distinct sources, so ordering by source alone
    # gives the (source, target) order
    order = np.argsort(si, kind="stable")
    si, ti = si[order], ti[order]
    if np.any(si[1:] == si[:-1]):
        raise ValueError(f"{context}: table maps a source point twice")
    d = source.base_dists
    have = np.zeros(len(source), dtype=bool)
    have[si] = True
    if have.all():
        validity = float(source.inner_radius)
    else:
        below = d[d < d[~have].min() - _TOL]
        validity = float(below.max()) if len(below) else -1.0
    if validity_cap is not None:
        validity = min(validity, float(validity_cap))
    if validity < 0:
        raise ValueError(f"{context}: empty validity region")
    deltas = sorted({x for x in (*STANDARD_DELTAS, *extra) if x <= validity + _TOL})
    if not deltas:
        deltas = [validity]
    keep = _inside(source, si, validity)
    measured = oscillation(source, target, si[keep], ti[keep], deltas)
    fwd, bwd = (dict(zip(deltas, v)) for v in measured)
    return WitnessMap(source, target, None, fwd, bwd, validity, claims, src=si, dst=ti)


# ---------------------------------------------------------------------------
# verification


@dataclass
class WitnessReport:
    ok: bool
    violations: Tuple[str, ...]
    forward: Dict[float, float]
    backward: Dict[float, float]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "measured": {
                "forward": {str(d): v for d, v in sorted(self.forward.items())},
                "backward": {str(d): v for d, v in sorted(self.backward.items())},
            },
        }


def _check_isometry_claim(
    w: WitnessMap, claim: dict, si: np.ndarray, ti: np.ndarray, out: List[str]
) -> None:
    split = w.source.rule.split
    if split is None:
        out.append("per-component-isometry claim on a non-product source")
        return
    eps = float(claim.get("epsilon", 0))
    part = epsilon_components(w.target, eps)
    sizes = np.bincount(part.point_block)
    # each source point's slice, by its right-factor coordinates. The table
    # stops at the validity radius, so only a slice that lies inside the
    # validity region is held to cover its whole target component. In a
    # factorization source a slice is one source eps-component: the fiber
    # is one, and quotient points lie more than eps apart
    keys = _row_groups(w.source.coords[:, split:])
    inside = _inside(w.source, np.arange(len(w.source)), w.validity_radius)
    whole = np.bincount(keys[inside], minlength=int(keys.max()) + 1) == np.bincount(keys)
    # the slices of the table, in order of first appearance, each as its
    # ascending table positions, cut from one stable argsort; distances
    # are read in row blocks, and no dense matrix is built
    slices = _partition_from_keys(eps, keys[si]).point_block
    members = np.argsort(slices, kind="stable")
    ends = np.cumsum(np.bincount(slices)).tolist()
    for lo, hi in zip([0] + ends, ends):
        pos = members[lo:hi]
        for blk in row_blocks(len(pos)):
            ds = w.source.dists_block(si[pos[blk]], si[pos])
            dt = w.target.dists_block(ti[pos[blk]], ti[pos])
            # the pairs i < j of this block of rows that break the isometry;
            # argmax finds the first in row-major order, as a pairwise scan would
            bad = np.abs(ds - dt) > _TOL
            bad &= np.arange(blk.start, blk.stop)[:, None] < np.arange(len(pos))
            if bad.any():
                i, j = np.unravel_index(np.argmax(bad), bad.shape)
                a, b = pos[blk.start + i], pos[j]
                out.append(
                    f"slice {w.source.labels[si[pos[0]]][split:]}: images of "
                    f"{w.source.labels[si[a]]} and {w.source.labels[si[b]]} are at "
                    f"distance {dt[i, j]}, not {ds[i, j]}"
                )
                break
        hit = np.unique(part.point_block[ti[pos]])
        if len(hit) > 1:
            out.append(f"slice {w.source.labels[si[pos[0]]][split:]}: image spans "
                       f"{len(hit)} target components")
        elif len(pos) != sizes[hit[0]] and whole[keys[si[pos[0]]]]:
            out.append(
                f"slice {w.source.labels[si[pos[0]]][split:]}: image covers {len(pos)} "
                f"of {sizes[hit[0]]} points of its target component"
            )


def _check_ball_claim(
    w: WitnessMap, claim: dict, si: np.ndarray, ti: np.ndarray, out: List[str]
) -> None:
    """Each claimed pair (ru, rv): every source ball at scale ru that the
    table maps whole has an image that is a union of target balls at scale
    rv. The (source ball, target ball) pairs of the table are counted in
    one pass and compared with the target ball sizes; the first source ball
    that breaks the claim, by representative, is reported."""
    # a source mapped twice keeps its last image, as a lookup table would
    last = len(si) - 1 - np.unique(si[::-1], return_index=True)[1]
    si, ti = si[last], ti[last]
    for ru, rv in claim.get("pairs", ()):
        psrc = epsilon_components(w.source, float(ru))
        tb = epsilon_components(w.target, float(rv)).point_block
        sb, ntb = psrc.point_block, int(tb.max()) + 1
        whole = np.bincount(sb[si], minlength=psrc.count) == np.bincount(sb)
        pairs, counts = np.unique(sb[si] * ntb + tb[ti], return_counts=True)
        bad = pairs[counts != np.bincount(tb)[pairs % ntb]] // ntb
        bad = bad[whole[bad]]
        if len(bad):
            out.append(
                f"ball at {w.source.labels[psrc.representatives[bad.min()]]} (scale {ru}): "
                f"image is not a union of target balls at scale {rv}"
            )


def verify_witness(w: WitnessMap, deltas: Optional[Sequence[float]] = None) -> WitnessReport:
    """Re-measure a witness from its table alone.

    Checks totality and injectivity on the validity region, exact agreement
    of the recorded moduli with oscillation values re-measured in one call
    and cached nowhere, and every structural claim. The scales checked are
    every scale recorded in either direction, plus the given deltas, each up
    to the validity radius; a given scale with no recorded modulus is a
    violation, and so is a recorded scale above the validity radius, as
    _finish never records one. Claims are checked on index and coordinate
    arrays, and labels only word a violation, which is content, not an
    exception.
    """
    violations: List[str] = []
    si, ti = w.src, w.dst
    keep = _inside(w.source, si, w.validity_radius)
    si, ti = si[keep], ti[keep]

    if len(np.unique(si)) != len(si):
        violations.append("table maps a source point twice")
    if len(np.unique(ti)) != len(ti):
        violations.append("table is not injective on the validity region")

    d = w.source.base_dists
    uncovered = d <= w.validity_radius + _TOL
    uncovered[si] = False
    for i in np.flatnonzero(uncovered)[:3]:
        violations.append(
            f"source point {w.source.labels[i]} at distance {d[i]} has no entry"
        )

    recorded = sorted(set(w.forward_moduli) | set(w.backward_moduli))
    for delta in recorded:
        if delta > w.validity_radius + _TOL:
            violations.append(
                f"modulus recorded at delta={delta}, above the validity radius "
                f"{w.validity_radius}"
            )
    # given scales add to the recorded ones, never replace them
    check = sorted(set(recorded).union(_check_deltas(() if deltas is None else deltas)))
    check = [delta for delta in check if delta <= w.validity_radius + _TOL]
    fwd, bwd = (dict(zip(check, v)) for v in oscillation(w.source, w.target, si, ti, check))
    for delta in check:
        mf, mb = fwd[delta], bwd[delta]
        rf, rb = w.forward_moduli.get(delta), w.backward_moduli.get(delta)
        if rf is None:
            violations.append(f"no recorded forward modulus at delta={delta}")
        elif abs(rf - mf) > _TOL:
            violations.append(
                f"forward modulus at delta={delta}: recorded {rf}, measured {mf}"
            )
        if rb is None:
            violations.append(f"no recorded backward modulus at delta={delta}")
        elif abs(rb - mb) > _TOL:
            violations.append(
                f"backward modulus at delta={delta}: recorded {rb}, measured {mb}"
            )

    for claim in w.claims:
        kind = claim.get("kind")
        if kind == "per-component-isometry":
            _check_isometry_claim(w, claim, si, ti, violations)
        elif kind == "ball-respecting":
            _check_ball_claim(w, claim, si, ti, violations)
        else:
            violations.append(f"unknown claim kind {kind!r}")

    return WitnessReport(not violations, tuple(violations), fwd, bwd)


# ---------------------------------------------------------------------------
# constructors


def factorization_witness(space: FiniteSpace, epsilon: float) -> WitnessMap:
    """Witness for splitting a space into (component of the basepoint) x
    (component quotient) at the given scale.

    On a structural space the split is a move of coordinates: the cyclic
    coordinates above epsilon key the components and are the quotient's
    coordinates. So the source point (fiber point y, quotient point z) maps
    to y with those coordinates replaced by z's, wherever that point exists.
    Any other space or scale, and a NaN or negative epsilon, is the
    ValueError of quotient_with_projection.
    """
    eps = float(epsilon)
    quotient, part = quotient_with_projection(space, eps)
    kept = space.rule.quotient_parts(space, eps)
    fiber = subspace(space, np.flatnonzero(part.point_block == part.point_block[space.basepoint]))
    source = product_space(fiber, quotient)

    width = fiber.coords.shape[1]
    rows = source.coords[:, :width].copy()
    rows[:, kept] = source.coords[:, width:]
    ti = _match_rows(rows, space.coords)
    si = np.flatnonzero(ti >= 0)
    claims = ({"kind": "per-component-isometry", "epsilon": eps},)
    return _finish(source, space, si, ti[si], claims, context="factorization")


@dataclass
class TowerAlignment:
    """Interleaving of two tower exhaustions with exact divisibility.

    ``pairs`` holds (a, b) prefix lengths with ball orders u_a | v_b, chained
    so each v_b also divides the next u_a. ``modulus(delta)`` is the coarse
    bound the interleaving yields for the rank bijection at scale delta.
    """

    u_orders: Tuple[int, ...]
    u_levels: Tuple[int, ...]
    v_orders: Tuple[int, ...]
    v_levels: Tuple[int, ...]
    pairs: Tuple[Tuple[int, int], ...]
    witness: WitnessMap

    def modulus(self, delta: float) -> float:
        i = sum(1 for lvl in self.u_levels if lvl <= delta + _TOL)
        ua = math.prod(self.u_orders[:i])
        for b, v in enumerate(_prefix_products(self.v_orders)):
            if v % ua == 0:
                return float(self.v_levels[b - 1]) if b else 0.0
        raise ValueError("tower does not absorb the requested ball")


def _prime_multiset(*orders: int) -> List[int]:
    return sorted(p for o in orders for p, e in phi_of_nat(int(o)).entries
                  for _ in range(e.finite_value()))


def _prefix_products(orders: Sequence[int]) -> List[int]:
    out = [1]
    for o in orders:
        out.append(out[-1] * int(o))
    return out


def tower_alignment_witness(
    u_space: FiniteSpace, v_space: FiniteSpace, deltas: Sequence[float] = ()
) -> TowerAlignment:
    """Align two tower truncations with the same factor content: the same
    prime multiset of their orders, so the same total order.

    The bijection sends a point to its little-endian mixed-radix rank in the
    first tower and decodes that rank in the second, as arrays matched to
    the second tower's rows as relabel_witness matches. The greedy
    interleaving (smallest admissible index each time) records the
    divisibility chain the moduli bounds come from; the recorded claims are
    the exact aligned-ball statements the bijection satisfies.
    """
    if not all(isinstance(sp.rule, SupRule) and sp.rule.layout == "tower"
               for sp in (u_space, v_space)):
        raise ValueError("alignment needs tower-built spaces")
    uo, ul = u_space.rule.orders, u_space.rule.levels
    vo, vl = v_space.rule.orders, v_space.rule.levels
    if _prime_multiset(*uo) != _prime_multiset(*vo):
        raise ValueError("factor functions of the towers differ")
    uprod, vprod = _prefix_products(uo), _prefix_products(vo)

    pairs: List[Tuple[int, int]] = []
    a_len, b_len = len(uo), len(vo)
    a, b_floor = 1, 1
    while a_len and a <= a_len:
        b = next(b for b in range(b_floor, b_len + 1) if vprod[b] % uprod[a] == 0)
        pairs.append((a, b))
        b_floor = b
        if a == a_len:
            break
        a = next(a2 for a2 in range(a + 1, a_len + 1) if uprod[a2] % vprod[b] == 0)

    rank = u_space.coords.astype(np.int64) @ np.asarray(uprod[:-1], dtype=np.int64)
    digits = np.empty((len(u_space), len(vo)))
    for c, o in enumerate(vo):
        rank, digits[:, c] = np.divmod(rank, o)
    ti = _match_rows(digits, v_space.coords)
    if np.any(ti < 0):
        raise ValueError("alignment: a rank has no point in the second tower")

    claim_pairs = []
    for a, _ in pairs:
        b2 = max(b for b in range(b_len + 1) if uprod[a] % vprod[b] == 0)
        ru = float(ul[a - 1])
        rv = float(vl[b2 - 1]) if b2 else 0.0
        if [ru, rv] not in claim_pairs:
            claim_pairs.append([ru, rv])
    claims = ({"kind": "ball-respecting", "pairs": claim_pairs},) if claim_pairs else ()

    witness = _finish(
        u_space, v_space, np.arange(len(u_space)), ti, claims, extra_deltas=deltas,
        context="alignment",
    )
    return TowerAlignment(tuple(uo), tuple(ul), tuple(vo), tuple(vl), tuple(pairs), witness)


def absorption_witness(
    k: int, radius: int, deltas: Sequence[float] = (), point_budget: Optional[int] = None
) -> WitnessMap:
    """Witness for folding a line ball into (shorter line ball) x (k points),
    by digit split n -> (n div k, n mod k) with floor division toward minus
    infinity."""
    k = int(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    source = zball(int(radius), point_budget=point_budget)
    short = math.ceil(radius / k)
    target = product_space(zball(short, point_budget=point_budget), k_point_space(k),
                           point_budget)
    q, r = np.divmod(np.arange(-int(radius), int(radius) + 1), k)
    # (q, r) sits at (q + short) * k + r: q runs from -short, r from 0
    ti = (q + short) * k + r
    return _finish(source, target, np.arange(len(source)), ti, (), extra_deltas=deltas,
                   context="absorption")


def _match_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of each row of rows among the distinct rows of table, -1 where
    none is equal: the rows of both grouped by one lexsort."""
    if rows.shape[1] != table.shape[1]:
        return np.full(len(rows), -1, dtype=np.int64)
    if np.array_equal(rows, table):
        return np.arange(len(rows))
    group = _row_groups(np.concatenate([table, rows]))
    where = np.full(len(group) + 1, -1, dtype=np.int64)
    where[group[: len(table)]] = np.arange(len(table))
    return where[group[len(table):]]


class _Stage(NamedTuple):
    """A table the combinators read as they read a WitnessMap's, with no
    moduli: the identity on a space, or a relabel that is composed away."""

    source: FiniteSpace
    target: FiniteSpace
    src: np.ndarray
    dst: np.ndarray
    validity_radius: float


def _relabel_stage(
    source: FiniteSpace, target: FiniteSpace, columns: Optional[Sequence[int]] = None
) -> _Stage:
    """The table of the bijection matching labels, optionally after
    reordering the source's coordinates: target coordinate c is source
    coordinate columns[c]. It is valid where _finish would find it valid:
    it covers the source, so to the source's inner radius. Labels are
    matched by a sort of both coordinate arrays, not one lookup per label;
    a source label without a target is a ValueError that names it."""
    rows = source.coords
    if columns is not None:
        rows = rows[:, list(columns)]
    ti = _match_rows(rows, target.coords)
    missing = np.flatnonzero(ti < 0)
    if len(missing):
        raise ValueError(f"relabel: no target point for label {source.labels[missing[0]]}")
    return _Stage(source, target, np.arange(len(source)), ti, float(source.inner_radius))


def relabel_witness(source: FiniteSpace, target: FiniteSpace) -> WitnessMap:
    """Bijection matching labels (_relabel_stage). Covers regroupings of
    iterated products, which leave all sup-metric distances unchanged."""
    r = _relabel_stage(source, target)
    return _finish(source, target, r.src, r.dst, (), context="relabel")


# ---------------------------------------------------------------------------
# combinators


def compose_witness(
    f: Union[WitnessMap, _Stage], g: Union[WitnessMap, _Stage], deltas: Sequence[float] = ()
) -> WitnessMap:
    """Compose two witnesses sharing their middle space; either stage may be
    a bare relabel table. Entries are kept only where the first stage stays
    within the second stage's validity; the moduli of the result are
    re-measured, never multiplied through."""
    if not (f.target == g.source):
        raise ValueError("compose: stages do not share a space")
    fs, fm, gs, gt = f.src, f.dst, g.src, g.dst
    image = np.full(len(g.source), -1, dtype=np.int64)
    image[gs] = gt
    keep = _inside(f.source, fs, f.validity_radius) & _inside(g.source, fm, g.validity_radius)
    keep &= image[fm] >= 0
    return _finish(f.source, g.target, fs[keep], image[fm[keep]], (), extra_deltas=deltas,
                   context="compose")


def product_witness(
    f: Union[WitnessMap, FiniteSpace],
    g: Union[WitnessMap, FiniteSpace],
    point_budget: Optional[int] = None,
) -> WitnessMap:
    """Coordinatewise product of two witnesses under the sup metric; a space
    as either factor is the identity on it, as relabel_witness(space, space)
    would record it."""
    f, g = (_relabel_stage(x, x) if isinstance(x, FiniteSpace) else x for x in (f, g))
    source = product_space(f.source, g.source, point_budget)
    target = product_space(f.target, g.target, point_budget)
    fs, ft, gs, gt = f.src, f.dst, g.src, g.dst
    # product_space puts the pair (a, b) at a * |second factor| + b
    si = (fs[:, None] * len(g.source) + gs).ravel()
    ti = (ft[:, None] * len(g.target) + gt).ravel()
    cap = min(f.validity_radius, g.validity_radius)
    return _finish(source, target, si, ti, (), validity_cap=cap, context="product")


def invert_witness(f: WitnessMap) -> WitnessMap:
    """Reverse the table; validity is re-derived on the target side."""
    fs, ft = f.src, f.dst
    if len(np.unique(ft)) != len(ft):
        raise ValueError("invert: table is not injective")
    return _finish(f.target, f.source, ft, fs, (), context="invert")


# ---------------------------------------------------------------------------
# derived checks and the end-to-end chain


def component_multiplicity(w: WitnessMap, epsilon: float) -> int:
    """Number of right-factor slices of the source meeting each component of
    the target at the given scale; raises when the count is not constant."""
    split = w.source.rule.split
    if split is None:
        raise ValueError("source of the witness is not a product")
    keep = _inside(w.source, w.src, w.validity_radius)
    si, ti = w.src[keep], w.dst[keep]
    if not len(si):
        raise ValueError("no table entries inside the validity region")
    part = epsilon_components(w.target, float(epsilon))
    slices = _row_groups(w.source.coords[si][:, split:])
    # the distinct (target component, slice) pairs, counted per component
    m = int(slices.max()) + 1
    blocks, counts = np.unique(np.unique(part.point_block[ti] * m + slices) // m,
                               return_counts=True)
    values = np.unique(counts)
    if len(values) == 1:
        return int(values[0])
    lo, hi = blocks[counts == values[0]].min(), blocks[counts == values[-1]].min()
    raise ValueError(
        f"component at {w.target.labels[part.representatives[lo]]} meets "
        f"{values[0]} slices but component at "
        f"{w.target.labels[part.representatives[hi]]} meets {values[-1]}"
    )


def iso_witness_chain(
    g1: GroupDescription,
    g2: GroupDescription,
    radius: int = 24,
    depth: int = 4,
    prime_bound: int = 97,
    deltas: Sequence[float] = (),
    point_budget: Optional[int] = None,
) -> WitnessMap:
    """End-to-end witness between truncations of two coarsely isomorphic
    groups of equal finite rank.

    Mirrors the classification: each side splits its torsion tower into the
    multiplier's part and the common remainder, folds the multiplier part
    into the first line coordinate, and lands on the shared middle space.
    The composite is the first chain followed by the inverse of the second.
    The remainder is canonical_ultrametric of phi1 - phi(n), and every
    tower of the chain is faithful as far as it is. At rank 0, n = m = 1
    and the profiles are equal, so the witness aligns the one canonical
    tower with itself.

    A side with multiplier k >= 2 starts from (ball, tower) and runs three
    stages: w1, the ball times the tower alignment to (k points,
    remainder); the column shuffle to (shorter line, k points, behind);
    and w3, the inverted absorption of (shorter line, k points) into the
    line, times what lies behind the line. Identity and relabel steps are
    not witnesses of their own: the ball and what lies behind enter the
    products as spaces, and the shuffle is a bare relabel table composed
    into w1. A side with k = 1 starts from (line ball, remainder), which at
    rank 1 is the middle space itself and at higher rank the same points
    grouped apart; that relabel, and its inverse on the right, is a bare
    table composed into the end. So the witnesses measured are the
    alignment, w1, the absorption and its inverse, w3 and the two
    compositions of each side with k >= 2, the inverse of such a right
    side, and the end.
    Every space built on the way is held to point_budget (None: the default
    budget); a larger one is a BudgetError. A witness valid to less than 1
    is refused with a ValueError that names its line ball's radius and the
    remainder tower's inner radius: a small radius leaves the stages little
    room (`Z^2 ~ Z^2 + C4` at radius 8), and where the prime bound drops a
    summand of the remainder, the tower is faithful only below it
    (`Z + C2 + C101 ~ Z + C101` at bound 97 is valid to 0).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pb = point_budget
    verdict = coarse_isomorphic(g1, g2)
    if not verdict.result:
        raise ValueError(f"groups are not coarsely isomorphic ({verdict.case_label})")
    c1 = verdict.invariants[0]
    if c1.r.is_infinite:
        raise ValueError("infinite rank carries no table-backed witness here")
    rank = c1.r.finite_value()
    n, m = verdict.multipliers if verdict.multipliers else (1, 1)

    rest = canonical_ultrametric(ff_sub(c1.phi, phi_of_nat(n)), depth, prime_bound, pb)
    if rank == 0:
        # n = m = 1 and the two profiles are equal: one tower, aligned
        # with itself
        return tower_alignment_witness(rest, rest, deltas=deltas).witness

    rest_orders = list(rest.rule.orders)
    base_r = max(2, int(radius) // max(n * m, 1))
    common_r = n * m * base_r

    # the middle space is the line, then behind it the ball's other rank - 1
    # free coordinates and the common remainder
    line = zball(common_r, point_budget=pb)
    ball_tail = zball(common_r, rank - 1, pb) if rank > 1 else None
    behind = rest if rank == 1 else product_space(ball_tail, rest, pb)
    middle = product_space(line, behind, pb)

    def side(k_abs: int) -> WitnessMap:
        """The chain of a side with multiplier k_abs >= 2 into the middle
        space."""
        first_r = common_r // k_abs
        first = zball(first_r, point_budget=pb)
        zpart = first if rank == 1 else product_space(first, ball_tail, pb)
        u = tower_space(rest_orders + _prime_multiset(k_abs), point_budget=pb)
        mixed = tower_space(
            [k_abs] + rest_orders,
            levels=[1] + list(range(2, len(rest_orders) + 2)),
            point_budget=pb,
        )
        # both towers hold the remainder's summands, faithful as far as it is
        u, mixed = (sp.with_inner_radius(rest.inner_radius) for sp in (u, mixed))
        w1 = product_witness(zpart, tower_alignment_witness(u, mixed).witness, point_budget=pb)
        unfold = invert_witness(absorption_witness(k_abs, common_r, point_budget=pb))
        # w3 starts from (shorter line, k points, behind)
        w3 = product_witness(unfold, behind, point_budget=pb)
        # (line, rest of the ball, k points, tower) -> (line, k points, rest,
        # tower); at rank 1 there is no rest of the ball and the columns stay
        tail = rank - 1
        width = len(w1.target.rule.orders)
        shuffle = [0, 1 + tail, *range(1, 1 + tail), *range(2 + tail, width)]
        w2 = _relabel_stage(w1.target, w3.source, shuffle)
        return compose_witness(compose_witness(w1, w2), w3)

    # the start space (line ball, remainder) of a side with k = 1 is the
    # middle space at rank 1; at higher rank the ball is grouped apart from
    # the remainder, and only the layout differs. It holds as many points
    # as the middle space, so building it before the sides moves no
    # BudgetError
    start = middle
    if rank > 1 and min(n, m) == 1:
        start = product_space(product_space(line, ball_tail, pb), rest, pb)
    left = side(n) if n > 1 else _relabel_stage(start, middle)
    back = invert_witness(side(m)) if m > 1 else _relabel_stage(middle, start)
    w = compose_witness(left, back, deltas=deltas)
    if w.validity_radius < 1:
        raise ValueError(
            f"the witness is valid only to {w.validity_radius:g}: its line ball has radius "
            f"{common_r} (--radius {radius}), and its remainder tower is faithful to "
            f"{rest.inner_radius} under prime bound {prime_bound} (--prime-bound)"
        )
    return w
