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
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import dist_rows, oscillation
from .factorfn import FactorFunction, ff_add, ff_equal, ff_sub, phi_of_nat
from .groups import GroupDescription, coarse_isomorphic
from .spaces import (
    FiniteSpace,
    GroupBallRule,
    PlaneRule,
    ProductRule,
    TableRule,
    TowerRule,
    enumerate_summands,
    epsilon_components,
    k_point_space,
    product_space,
    quotient_with_projection,
    subspace,
    tower_space,
    zball,
)

STANDARD_DELTAS = (1.0, 2.0, 4.0, 8.0)
_TOL = 1e-9


# ---------------------------------------------------------------------------
# the witness record


@dataclass
class WitnessMap:
    """Table-backed map between two built spaces.

    ``table`` holds (source index, target index) pairs. The map must cover
    every source point within ``validity_radius`` of the source basepoint and
    be injective there; ``forward_moduli`` and ``backward_moduli`` are the
    oscillation values measured over that region at the declared scales.
    """

    source: FiniteSpace
    target: FiniteSpace
    table: Tuple[Tuple[int, int], ...]
    forward_moduli: Dict[float, float]
    backward_moduli: Dict[float, float]
    validity_radius: float
    claims: Tuple[dict, ...] = ()

    def __len__(self) -> int:
        return len(self.table)

    def as_dict(self) -> Dict[int, int]:
        return {s: t for s, t in self.table}

    def to_json(self) -> dict:
        validity = (
            self.validity_radius if math.isfinite(self.validity_radius) else "inf"
        )
        return {
            "source_id": space_id(self.source),
            "target_id": space_id(self.target),
            "validity_radius": validity,
            "pairs": [[s, t] for s, t in self.table],
            "moduli": {
                "forward": {str(d): v for d, v in sorted(self.forward_moduli.items())},
                "backward": {str(d): v for d, v in sorted(self.backward_moduli.items())},
            },
            "claims": [dict(c) for c in self.claims],
        }


def space_id(space: FiniteSpace) -> str:
    """Content hash naming a built space in serialized witnesses."""
    payload = json.dumps(
        [space.rule.descriptor(), space.basepoint, [list(l) for l in space.labels]],
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha1(payload.encode()).hexdigest()[:12]
    kind = space.rule.descriptor()["kind"]
    return f"{kind}-{len(space)}-{digest}"


def _validity_from_pairs(source: FiniteSpace, pairs: Sequence[Tuple[int, int]]) -> float:
    """Largest realized radius around the source basepoint whose ball is
    entirely covered by the table."""
    have = np.zeros(len(source), dtype=bool)
    for s, _ in pairs:
        have[s] = True
    d = source.dists_from(source.basepoint)
    if have.all():
        return float(source.inner_radius)
    lim = float(d[~have].min())
    below = d[d < lim - _TOL]
    if not len(below):
        return -1.0
    return float(below.max())


def _restrict_to_validity(
    source: FiniteSpace, pairs: Sequence[Tuple[int, int]], validity: float
) -> tuple[np.ndarray, np.ndarray]:
    d = source.dists_from(source.basepoint)
    kept = [(s, t) for s, t in pairs if d[s] <= validity + _TOL]
    si = np.asarray([s for s, _ in kept], dtype=int)
    ti = np.asarray([t for _, t in kept], dtype=int)
    return si, ti


def _finish(
    source: FiniteSpace,
    target: FiniteSpace,
    pairs: Iterable[Tuple[int, int]],
    claims: Tuple[dict, ...],
    extra_deltas: Sequence[float] = (),
    validity_cap: Optional[float] = None,
    context: str = "witness",
) -> WitnessMap:
    """Normalize the table, derive the validity radius and measure moduli.

    Every constructor and combinator routes through here, so recorded moduli
    are measured values by construction.
    """
    table = tuple(sorted((int(s), int(t)) for s, t in pairs))
    if len({s for s, _ in table}) != len(table):
        raise ValueError(f"{context}: table maps a source point twice")
    validity = _validity_from_pairs(source, table)
    if validity_cap is not None:
        validity = min(validity, float(validity_cap))
    if validity < 0:
        raise ValueError(f"{context}: empty validity region")
    deltas = sorted(
        {float(x) for x in (*STANDARD_DELTAS, *extra_deltas) if 0 <= float(x) <= validity + _TOL}
    )
    if not deltas:
        deltas = [validity]
    si, ti = _restrict_to_validity(source, table, validity)
    fwd = {d: float(oscillation(source, target, si, ti, d)) for d in deltas}
    bwd = {d: float(oscillation(target, source, ti, si, d)) for d in deltas}
    return WitnessMap(source, target, table, fwd, bwd, float(validity), claims)


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
    rule = w.source.rule
    if not isinstance(rule, ProductRule):
        out.append("per-component-isometry claim on a non-product source")
        return
    split = rule.split
    eps = float(claim.get("epsilon", 0))
    groups: Dict[tuple, List[int]] = {}
    for k in range(len(si)):
        groups.setdefault(w.source.labels[si[k]][split:], []).append(k)
    part = epsilon_components(w.target, eps)
    sizes = [len(b) for b in part.blocks]
    srow, trow = dist_rows(w.source), dist_rows(w.target)
    for key, members in groups.items():
        bad = 0
        for i in range(len(members)):
            a = members[i]
            drow_s = srow(si[a])
            drow_t = trow(ti[a])
            for j in range(i + 1, len(members)):
                b = members[j]
                if abs(float(drow_s[si[b]]) - float(drow_t[ti[b]])) > _TOL:
                    out.append(
                        f"slice {key}: images of {w.source.labels[si[a]]} and "
                        f"{w.source.labels[si[b]]} are at distance {drow_t[ti[b]]}, "
                        f"not {drow_s[si[b]]}"
                    )
                    bad += 1
                    break
            if bad:
                break
        blocks_hit = {int(part.point_block[ti[k]]) for k in members}
        if len(blocks_hit) > 1:
            out.append(f"slice {key}: image spans {len(blocks_hit)} target components")
        elif len(members) != sizes[next(iter(blocks_hit))]:
            out.append(
                f"slice {key}: image covers {len(members)} of "
                f"{sizes[next(iter(blocks_hit))]} points of its target component"
            )


def _check_ball_claim(
    w: WitnessMap, claim: dict, si: np.ndarray, ti: np.ndarray, out: List[str]
) -> None:
    img_of = dict(zip(si.tolist(), ti.tolist()))
    for ru, rv in claim.get("pairs", ()):
        psrc = epsilon_components(w.source, float(ru))
        ptgt = epsilon_components(w.target, float(rv))
        tgt_sizes = [len(b) for b in ptgt.blocks]
        for block in psrc.blocks:
            img = [img_of[i] for i in block if i in img_of]
            if not img:
                continue
            per_tgt: Dict[int, int] = {}
            for t in img:
                tb = int(ptgt.point_block[t])
                per_tgt[tb] = per_tgt.get(tb, 0) + 1
            partial = [tb for tb, c in per_tgt.items() if c != tgt_sizes[tb]]
            if partial and len(img) == len(block):
                out.append(
                    f"ball at {w.source.labels[block[0]]} (scale {ru}): image is "
                    f"not a union of target balls at scale {rv}"
                )
                break


def verify_witness(w: WitnessMap, deltas: Optional[Sequence[float]] = None) -> WitnessReport:
    """Re-measure a witness from its table alone.

    Checks totality and injectivity on the validity region, exact agreement
    of the recorded moduli with re-measured oscillation values, and every
    structural claim. Violations are the report's content, not exceptions.
    """
    violations: List[str] = []
    si, ti = _restrict_to_validity(w.source, w.table, w.validity_radius)

    if len(set(si.tolist())) != len(si):
        violations.append("table maps a source point twice")
    if len(set(ti.tolist())) != len(ti):
        violations.append("table is not injective on the validity region")

    d = w.source.dists_from(w.source.basepoint)
    covered = set(si.tolist())
    missing = [
        i
        for i in range(len(w.source))
        if d[i] <= w.validity_radius + _TOL and i not in covered
    ]
    for i in missing[:3]:
        violations.append(
            f"source point {w.source.labels[i]} at distance {d[i]} has no entry"
        )

    check = sorted(w.forward_moduli) if deltas is None else sorted(float(x) for x in deltas)
    fwd: Dict[float, float] = {}
    bwd: Dict[float, float] = {}
    for delta in check:
        if delta > w.validity_radius + _TOL:
            continue
        mf = float(oscillation(w.source, w.target, si, ti, delta))
        mb = float(oscillation(w.target, w.source, ti, si, delta))
        fwd[delta], bwd[delta] = mf, mb
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


def _label_add(rule, a: tuple, b: tuple) -> tuple:
    """Group addition on labels; the shift isometries of the builders."""
    if isinstance(rule, TowerRule):
        return tuple((x + y) % o for x, y, o in zip(a, b, rule.orders))
    if isinstance(rule, GroupBallRule):
        r = rule.free_rank
        free = tuple(x + y for x, y in zip(a[:r], b[:r]))
        cyc = tuple((x + y) % o for x, y, o in zip(a[r:], b[r:], rule.cyclic_orders))
        return free + cyc
    if isinstance(rule, ProductRule):
        s = rule.split
        return _label_add(rule.left, a[:s], b[:s]) + _label_add(rule.right, a[s:], b[s:])
    raise ValueError("labels of this space carry no group structure")


def factorization_witness(
    space: FiniteSpace, epsilon: float, deltas: Sequence[float] = ()
) -> WitnessMap:
    """Witness for splitting a space into (component of the basepoint) x
    (component quotient) at the given scale.

    Works stage by stage: at each scale step the newly connected components
    are translated copies of already-mapped ones, so the table extends by
    composing with the shift that moves the basepoint onto the component's
    representative. Representatives are the nearest points to the basepoint
    (ties by label), which keeps the translated copies inside the truncation.
    """
    eps = float(epsilon)
    if eps < 0:
        raise ValueError("epsilon must be >= 0")
    if isinstance(space.rule, (PlaneRule, TableRule)):
        raise ValueError("factorization needs a group-structured space")
    quotient, part = quotient_with_projection(space, eps)
    if isinstance(quotient.rule, TableRule):
        raise ValueError("factorization needs a structural quotient at this scale")

    base = space.basepoint
    labels = space.labels
    base_block = int(part.point_block[base])
    fiber_idx = sorted(part.blocks[base_block])
    fiber = subspace(space, fiber_idx)
    source = product_space(fiber, quotient)

    mapping: Dict[Tuple[int, int], int] = {(y, base_block): y for y in fiber_idx}
    covered = set(fiber_idx)

    radius = float(space.inner_radius)
    if not math.isfinite(radius):
        radius = float(np.max(space.dists_from(base))) if len(space) > 1 else eps
    scales = [eps + k for k in range(1, int(math.floor(radius - eps + _TOL)) + 1)]
    if not scales or scales[-1] < radius - _TOL:
        scales.append(radius)

    dbase = space.dists_from(base)
    prev_scale = eps
    for scale in scales:
        if len(covered) == len(space):
            break
        cur = epsilon_components(space, scale)
        component = cur.blocks[int(cur.point_block[base])]
        fresh = [i for i in component if i not in covered]
        if fresh:
            prev = epsilon_components(space, prev_scale)
            group_ids = sorted({int(prev.point_block[i]) for i in fresh})
            base_label = labels[base]

            def rep_key(i: int) -> tuple:
                # ties by coordinatewise deviation keep the shift inside the box
                dev = tuple(abs(x - y) for x, y in zip(labels[i], base_label))
                return (float(dbase[i]), dev, labels[i])

            reps = []
            for gid in group_ids:
                block = prev.blocks[gid]
                x = min(block, key=rep_key)
                reps.append((float(dbase[x]), labels[x], x))
            snapshot = list(mapping.items())
            for _, _, x in sorted(reps):
                xl = labels[x]
                for (y, zb), w in snapshot:
                    wl = _label_add(space.rule, labels[w], xl)
                    wi = space.index.get(wl)
                    if wi is None:
                        continue
                    key = (y, int(part.point_block[wi]))
                    if key not in mapping:
                        mapping[key] = wi
                        covered.add(wi)
        covered.update(component)
        prev_scale = scale

    qlabels = quotient.labels
    pairs = [
        (source.index[labels[y] + qlabels[zb]], w) for (y, zb), w in mapping.items()
    ]
    claims = ({"kind": "per-component-isometry", "epsilon": eps},)
    return _finish(source, space, pairs, claims, extra_deltas=deltas, context="factorization")


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
        ua = 1
        for o in self.u_orders[:i]:
            ua *= o
        v = 1
        for b, o in enumerate(self.v_orders, start=1):
            if v % ua == 0:
                return 0.0 if b == 1 else float(self.v_levels[b - 2])
            v *= o
        if v % ua == 0:
            return float(self.v_levels[-1]) if self.v_levels else 0.0
        raise ValueError("tower does not absorb the requested ball")

    def to_json(self) -> dict:
        return {
            "pairs": [[a, b] for a, b in self.pairs],
            "u_levels": list(self.u_levels),
            "v_levels": list(self.v_levels),
            "witness": self.witness.to_json(),
        }


def _tower_phi(orders: Sequence[int]) -> FactorFunction:
    phi = FactorFunction()
    for o in orders:
        phi = ff_add(phi, phi_of_nat(int(o)))
    return phi


def _prefix_products(orders: Sequence[int]) -> List[int]:
    out = [1]
    for o in orders:
        out.append(out[-1] * int(o))
    return out


def tower_alignment_witness(
    u_space: FiniteSpace, v_space: FiniteSpace, deltas: Sequence[float] = ()
) -> TowerAlignment:
    """Align two tower truncations with the same factor content.

    The bijection sends a point to its little-endian mixed-radix rank in the
    first tower and decodes that rank in the second. The greedy interleaving
    (smallest admissible index each time) records the divisibility chain the
    moduli bounds come from; the recorded claims are the exact aligned-ball
    statements the bijection satisfies.
    """
    if not isinstance(u_space.rule, TowerRule) or not isinstance(v_space.rule, TowerRule):
        raise ValueError("alignment needs tower-built spaces")
    uo, ul = u_space.rule.orders, u_space.rule.levels
    vo, vl = v_space.rule.orders, v_space.rule.levels
    if not ff_equal(_tower_phi(uo), _tower_phi(vo)):
        raise ValueError("factor functions of the towers differ")
    uprod, vprod = _prefix_products(uo), _prefix_products(vo)
    if uprod[-1] != vprod[-1]:
        raise ValueError("tower truncations have different total order")

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

    table = []
    for i, lab in enumerate(u_space.labels):
        rank = sum(x * uprod[k] for k, x in enumerate(lab))
        digits = []
        for o in vo:
            rank, r = divmod(rank, o)
            digits.append(r)
        table.append((i, v_space.index[tuple(digits)]))

    claim_pairs = []
    for a, _ in pairs:
        b2 = max(b for b in range(b_len + 1) if uprod[a] % vprod[b] == 0)
        ru = float(ul[a - 1])
        rv = float(vl[b2 - 1]) if b2 else 0.0
        if [ru, rv] not in claim_pairs:
            claim_pairs.append([ru, rv])
    claims = ({"kind": "ball-respecting", "pairs": claim_pairs},) if claim_pairs else ()

    witness = _finish(
        u_space, v_space, table, claims, extra_deltas=deltas, context="alignment"
    )
    return TowerAlignment(tuple(uo), tuple(ul), tuple(vo), tuple(vl), tuple(pairs), witness)


def absorption_witness(k: int, radius: int, deltas: Sequence[float] = ()) -> WitnessMap:
    """Witness for folding a line ball into (shorter line ball) x (k points),
    by digit split n -> (n div k, n mod k) with floor division toward minus
    infinity."""
    k = int(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    source = zball(int(radius))
    target = product_space(zball(math.ceil(radius / k)), k_point_space(k))
    pairs = []
    for i, (n,) in enumerate(source.labels):
        q, r = divmod(n, k)
        pairs.append((i, target.index[(q, r)]))
    return _finish(source, target, pairs, (), extra_deltas=deltas, context="absorption")


def relabel_witness(
    source: FiniteSpace,
    target: FiniteSpace,
    translate: Optional[Callable[[tuple], tuple]] = None,
    deltas: Sequence[float] = (),
) -> WitnessMap:
    """Bijection matching labels, optionally through a coordinate shuffle.

    Covers regroupings of iterated products and factor reorderings, which
    leave all sup-metric distances unchanged."""
    tr = translate or (lambda lab: lab)
    pairs = []
    for i, lab in enumerate(source.labels):
        j = target.index.get(tr(lab))
        if j is None:
            raise ValueError(f"relabel: no target point for label {lab}")
        pairs.append((i, j))
    return _finish(source, target, pairs, (), extra_deltas=deltas, context="relabel")


# ---------------------------------------------------------------------------
# combinators


def compose_witness(f: WitnessMap, g: WitnessMap, deltas: Sequence[float] = ()) -> WitnessMap:
    """Compose two witnesses sharing their middle space. Entries are kept
    only where the first stage stays within the second stage's validity;
    the moduli of the result are re-measured, never multiplied through."""
    if not (f.target == g.source):
        raise ValueError("compose: stages do not share a space")
    dmid = g.source.dists_from(g.source.basepoint)
    dsrc = f.source.dists_from(f.source.basepoint)
    gmap = g.as_dict()
    pairs = []
    for s, mid in f.table:
        if dsrc[s] > f.validity_radius + _TOL:
            continue
        if dmid[mid] > g.validity_radius + _TOL:
            continue
        t = gmap.get(mid)
        if t is not None:
            pairs.append((s, t))
    return _finish(f.source, g.target, pairs, (), extra_deltas=deltas, context="compose")


def product_witness(
    f: WitnessMap,
    g: WitnessMap,
    deltas: Sequence[float] = (),
    point_budget: Optional[int] = None,
) -> WitnessMap:
    """Coordinatewise product of two witnesses under the sup metric."""
    source = product_space(f.source, g.source, point_budget)
    target = product_space(f.target, g.target, point_budget)
    pairs = []
    for s1, t1 in f.table:
        ls, lt = f.source.labels[s1], f.target.labels[t1]
        for s2, t2 in g.table:
            s = source.index[ls + g.source.labels[s2]]
            t = target.index[lt + g.target.labels[t2]]
            pairs.append((s, t))
    cap = min(f.validity_radius, g.validity_radius)
    return _finish(
        source, target, pairs, (), extra_deltas=deltas, validity_cap=cap, context="product"
    )


def invert_witness(f: WitnessMap, deltas: Sequence[float] = ()) -> WitnessMap:
    """Reverse the table; validity is re-derived on the target side."""
    targets = [t for _, t in f.table]
    if len(set(targets)) != len(targets):
        raise ValueError("invert: table is not injective")
    pairs = [(t, s) for s, t in f.table]
    return _finish(f.target, f.source, pairs, (), extra_deltas=deltas, context="invert")


# ---------------------------------------------------------------------------
# derived checks and the end-to-end chain


def component_multiplicity(w: WitnessMap, epsilon: float) -> int:
    """Number of right-factor slices of the source meeting each component of
    the target at the given scale; raises when the count is not constant."""
    rule = w.source.rule
    if not isinstance(rule, ProductRule):
        raise ValueError("source of the witness is not a product")
    split = rule.split
    d = w.source.dists_from(w.source.basepoint)
    part = epsilon_components(w.target, float(epsilon))
    slices: Dict[int, set] = {}
    for s, t in w.table:
        if d[s] > w.validity_radius + _TOL:
            continue
        slices.setdefault(int(part.point_block[t]), set()).add(w.source.labels[s][split:])
    if not slices:
        raise ValueError("no table entries inside the validity region")
    counts = {b: len(v) for b, v in slices.items()}
    values = sorted(set(counts.values()))
    if len(values) == 1:
        return values[0]
    lo = min(b for b, c in counts.items() if c == values[0])
    hi = min(b for b, c in counts.items() if c == values[-1])
    raise ValueError(
        f"component at {w.target.labels[part.representatives[lo]]} meets "
        f"{values[0]} slices but component at "
        f"{w.target.labels[part.representatives[hi]]} meets {values[-1]}"
    )


def _capped_enum(phi: FactorFunction, depth: int, prime_bound: int) -> List[int]:
    mass = phi.total_mass
    if mass.is_finite:
        depth = min(depth, mass.finite_value())
    if depth <= 0:
        return []
    return enumerate_summands(phi, depth, prime_bound)


def _torsion_tower(orders: Sequence[int], complete: bool) -> FiniteSpace:
    """Tower truncation; a fully enumerated finite torsion part is the whole
    group, so its metric is trusted at every radius."""
    sp = tower_space(orders)
    if complete:
        return FiniteSpace(sp.labels, sp.rule, sp.basepoint, math.inf)
    return sp


def _prime_multiset(n: int) -> List[int]:
    out: List[int] = []
    for p, e in phi_of_nat(n).entries:
        out.extend([p] * e.finite_value())
    return sorted(out)


def iso_witness_chain(
    g1: GroupDescription,
    g2: GroupDescription,
    radius: int = 24,
    depth: int = 4,
    prime_bound: int = 97,
    deltas: Sequence[float] = (),
) -> WitnessMap:
    """End-to-end witness between truncations of two coarsely isomorphic
    groups of equal finite rank.

    Mirrors the classification: each side splits its torsion tower into the
    multiplier's part and the common remainder, folds the multiplier part
    into the first line coordinate, and lands on the shared middle space.
    The composite is the first chain followed by the inverse of the second.
    """
    verdict = coarse_isomorphic(g1, g2)
    if not verdict.result:
        raise ValueError(f"groups are not coarsely isomorphic ({verdict.case_label})")
    c1, c2 = verdict.invariants
    if c1.r.is_infinite:
        raise ValueError("infinite rank carries no table-backed witness here")
    rank = c1.r.finite_value()
    n, m = verdict.multipliers if verdict.multipliers else (1, 1)

    diff = ff_sub(c1.phi, phi_of_nat(n))
    rest_orders = _capped_enum(diff, depth, prime_bound)
    full = diff.total_mass.is_finite and len(rest_orders) == diff.total_mass.finite_value()
    rest = _torsion_tower(rest_orders, full)

    if rank == 0:
        orders1 = _capped_enum(c1.phi, depth, prime_bound)
        orders2 = _capped_enum(c2.phi, depth, prime_bound)
        mass = c1.phi.total_mass
        full1 = mass.is_finite and len(orders1) == mass.finite_value()
        u1 = _torsion_tower(orders1, full1)
        u2 = _torsion_tower(orders2, full1)
        return tower_alignment_witness(u1, u2, deltas=deltas).witness

    base_r = max(2, int(radius) // max(n * m, 1))
    common_r = n * m * base_r

    if rank == 1:
        middle = product_space(zball(common_r), rest)
    else:
        middle = product_space(
            zball(common_r), product_space(zball(common_r, rank - 1), rest)
        )

    def side(k_abs: int, first_r: int) -> WitnessMap:
        primes = _prime_multiset(k_abs)
        u = _torsion_tower(list(rest_orders) + primes, full)
        first = zball(first_r)
        if rank == 1:
            zpart = first
        else:
            zpart = product_space(first, zball(common_r, rank - 1))
        start = product_space(zpart, u)
        if k_abs == 1:
            return relabel_witness(start, middle)
        mixed = tower_space(
            [k_abs] + list(rest_orders),
            levels=[1] + list(range(2, len(rest_orders) + 2)),
        )
        if full:
            mixed = FiniteSpace(mixed.labels, mixed.rule, mixed.basepoint, math.inf)
        w1 = product_witness(
            relabel_witness(zpart, zpart), tower_alignment_witness(u, mixed).witness
        )
        if rank == 1:
            folded = product_space(product_space(first, k_point_space(k_abs)), rest)
            w2 = relabel_witness(w1.target, folded)
        else:
            tail = rank - 1

            def shuffle(lab: tuple) -> tuple:
                return (lab[0], lab[1 + tail]) + lab[1 : 1 + tail] + lab[2 + tail :]

            folded = product_space(
                product_space(first, k_point_space(k_abs)),
                product_space(zball(common_r, tail), rest),
            )
            w2 = relabel_witness(w1.target, folded, translate=shuffle)
        unfold = invert_witness(absorption_witness(k_abs, k_abs * first_r))
        if rank == 1:
            w3 = product_witness(unfold, relabel_witness(rest, rest))
        else:
            keep = product_space(zball(common_r, rank - 1), rest)
            w3 = product_witness(unfold, relabel_witness(keep, keep))
        return compose_witness(compose_witness(w1, w2), w3)

    left = side(n, m * base_r)
    right = side(m, n * base_r)
    return compose_witness(left, invert_witness(right), deltas=deltas)
