"""Group descriptions, their coarse invariants, and classification verdicts.

A description denotes a countable direct sum

    Z^r  +  C(o1)^k1 + C(o2)^k2 + ...  +  Call^t

where ``C o^k`` is a direct sum of ``k`` cyclic groups of order ``o`` and
``Call^t`` contributes ``t`` copies of Z_p for every prime outside the listed
cyclic orders. ``F n^k`` admits ``k`` arbitrary finite groups of order
``n``; their coarse type depends only on cardinality, so it normalizes to
``C n^k``. Ranks and multiplicities are counts: an ``int`` or ``math.inf``.

The classification invariants are the free rank r and the factorizing
function phi, with phi(p) the total p-exponent available among the torsion
summands. Two descriptions are coarsely equivalent iff their ranks agree and
they are both finitely generated or both not; they are coarsely isomorphic
iff one of three cases holds: both ranks infinite, both ranks zero with phi
equal, or equal finite positive ranks with phi almost equal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .factorfn import (
    Count,
    FactorFunction,
    checked_count,
    ff_almost_equal,
    ff_equal,
    ff_render,
)
from .primes import factorize

MAX_RANK = 10**6
MAX_MULTIPLICITY = 10**6
MAX_ORDER = 10**9

_TERM_Z = re.compile(r"^Z(?:\^(\d+|inf))?$")
_TERM_CF = re.compile(r"^([CF])(\d+)(?:\^(\d+|inf))?$")
_TERM_CALL = re.compile(r"^Call\^(\d+|inf)$")


@dataclass(frozen=True)
class GroupDescription:
    """Normalized direct-sum description.

    summands are (order, multiplicity) pairs, orders distinct and ascending,
    multiplicities nonzero. tail is the per-prime multiplicity applied to
    primes not dividing any summand order, or None.
    """

    free_rank_part: Count = 0
    summands: tuple[tuple[int, Count], ...] = ()
    tail: Optional[Count] = None

    def __post_init__(self) -> None:
        merged: dict[int, Count] = {}
        for order, mult in self.summands:
            if not isinstance(order, int) or isinstance(order, bool):
                raise TypeError(f"a cyclic order must be an int, got {order!r}")
            if order < 2:
                raise ValueError(f"cyclic order must be >= 2, got {order}")
            if order > MAX_ORDER:
                raise ValueError(f"order {order} exceeds limit {MAX_ORDER}")
            mult = checked_count(mult)
            if mult == 0:
                continue
            merged[order] = merged.get(order, 0) + mult
        # bounded after summing, as the free rank is: equal orders merge
        for order, mult in merged.items():
            if MAX_MULTIPLICITY < mult < math.inf:
                raise ValueError(f"multiplicity overflow at order {order}")
        rank = checked_count(self.free_rank_part)
        if MAX_RANK < rank < math.inf:
            raise ValueError("free rank overflow")
        tail = None if self.tail is None else (checked_count(self.tail) or None)
        object.__setattr__(self, "free_rank_part", rank)
        object.__setattr__(self, "summands", tuple(sorted(merged.items())))
        object.__setattr__(self, "tail", tail)

    def __str__(self) -> str:
        return render_group(self)


@dataclass(frozen=True)
class CanonicalForm:
    """Free rank r and factorizing function phi of the model Z^r x Z_phi."""

    r: Count
    phi: FactorFunction


@dataclass(frozen=True)
class Verdict:
    result: bool
    relation: str  # "equivalence" or "isomorphism"
    case_label: str
    invariants: tuple[CanonicalForm, CanonicalForm]
    multipliers: Optional[tuple[int, int]] = None

    def to_json(self) -> dict:
        c1, c2 = self.invariants
        payload: dict = {
            "result": self.result,
            "relation": self.relation,
            "case": self.case_label,
            "invariants": {
                "r1": str(c1.r),
                "phi1": ff_render(c1.phi),
                "r2": str(c2.r),
                "phi2": ff_render(c2.phi),
            },
        }
        if self.multipliers is not None:
            payload["multipliers"] = {
                "n": self.multipliers[0],
                "m": self.multipliers[1],
            }
        return payload


def _parse_exponent(raw: str | None, position: int) -> Count:
    """The count after a term's ^, or 1 where it has none."""
    value = math.inf if raw == "inf" else int(raw or 1)
    if MAX_MULTIPLICITY < value < math.inf:
        raise ValueError(f"exponent overflow at position {position}")
    return value


def parse_group(text: str) -> GroupDescription:
    """Parse the direct-sum grammar; raises ValueError with the position of
    the first offending term."""
    rank: Count = 0
    summands: list[tuple[int, Count]] = []
    tail: Optional[Count] = None

    offset = 0
    segments = text.split("+")
    if not text.strip():
        raise ValueError("syntax error at position 0: empty description")
    for segment in segments:
        stripped = segment.strip()
        position = offset + (len(segment) - len(segment.lstrip()))
        offset += len(segment) + 1
        if not stripped:
            raise ValueError(f"syntax error at position {position}: empty term")
        term = "".join(stripped.split())

        if m := _TERM_CALL.match(term):
            k = _parse_exponent(m.group(1), position)
            tail = k if tail is None else tail + k
            continue
        if m := _TERM_Z.match(term):
            rank = rank + _parse_exponent(m.group(1), position)
            continue
        if m := _TERM_CF.match(term):
            order = int(m.group(2))
            if order < 2:
                reason = (f"cyclic order must be >= 2, got {order}" if m.group(1) == "C"
                          else "finite-group order must be >= 2 (F1 is trivial, write Z^0)")
                raise ValueError(f"syntax error at position {position}: {reason}")
            summands.append((order, _parse_exponent(m.group(3), position)))
            continue
        raise ValueError(f"syntax error at position {position}: {stripped!r}")

    return GroupDescription(rank, tuple(summands), tail)


def render_group(g: GroupDescription) -> str:
    parts: list[str] = []
    r = g.free_rank_part
    if r == 1:
        parts.append("Z")
    elif r != 0:
        parts.append(f"Z^{r}")
    for order, mult in g.summands:
        parts.append(f"C{order}" if mult == 1 else f"C{order}^{mult}")
    if g.tail is not None:
        parts.append(f"Call^{g.tail}")
    if not parts:
        return "Z^0"
    return " + ".join(parts)


def free_rank(g: GroupDescription) -> Count:
    return g.free_rank_part


def factorizing_function_symbolic(g: GroupDescription) -> FactorFunction:
    """phi(p) = sum over summands of multiplicity * v_p(order), with the tail
    multiplicity for primes outside every summand order."""
    values: dict[int, Count] = {}
    for order, mult in g.summands:
        for p, exp in factorize(order).items():
            # 0 * inf, nan in floats, would be 0; it cannot arise, as
            # GroupDescription drops zero multiplicities and factorize
            # gives exponents >= 1
            values[p] = values.get(p, 0) + mult * exp
    return FactorFunction.from_dict(values, g.tail or 0)


def canonical_form(g: GroupDescription) -> CanonicalForm:
    return CanonicalForm(free_rank(g), factorizing_function_symbolic(g))


def is_finitely_generated(g: GroupDescription) -> bool:
    counts = (g.free_rank_part, *(mult for _, mult in g.summands))
    return g.tail is None and math.inf not in counts


def coarse_equivalent(g1: GroupDescription, g2: GroupDescription) -> Verdict:
    """Ranks must coincide and both sides must share finite-generation."""
    inv = (canonical_form(g1), canonical_form(g2))
    if free_rank(g1) != free_rank(g2):
        return Verdict(False, "equivalence", "rank-mismatch", inv)
    if is_finitely_generated(g1) != is_finitely_generated(g2):
        return Verdict(False, "equivalence", "generation-mismatch", inv)
    return Verdict(True, "equivalence", "matched", inv)


def coarse_isomorphic(g1: GroupDescription, g2: GroupDescription) -> Verdict:
    c1, c2 = canonical_form(g1), canonical_form(g2)
    inv = (c1, c2)
    r1, r2 = c1.r, c2.r
    if r1 == r2 == math.inf:
        return Verdict(True, "isomorphism", "case-1-both-ranks-infinite", inv)
    if r1 != r2:
        return Verdict(False, "isomorphism", "rank-mismatch", inv)
    if r1 == 0:
        if ff_equal(c1.phi, c2.phi):
            mults = find_multipliers(c1, c2)
            return Verdict(
                True, "isomorphism", "case-2-zero-rank-phi-equal", inv, mults
            )
        return Verdict(False, "isomorphism", "case-2-phi-mismatch", inv)
    if ff_almost_equal(c1.phi, c2.phi):
        mults = find_multipliers(c1, c2)
        return Verdict(
            True, "isomorphism", "case-3-finite-rank-phi-almost-equal", inv, mults
        )
    return Verdict(False, "isomorphism", "case-3-phi-not-almost-equal", inv)


def find_multipliers(
    x: CanonicalForm, y: CanonicalForm
) -> Optional[tuple[int, int]]:
    """Minimal (n, m) with phi_n <= phi_X, phi_m <= phi_Y and
    phi_X - phi_n = phi_Y - phi_m, or None when no pair exists."""
    fx, fy = x.phi, y.phi
    if fx.default != fy.default:
        return None
    n = m = 1
    for p in sorted(set(fx.support_primes) | set(fy.support_primes)):
        a, b = fx.get(p), fy.get(p)
        if a == b == math.inf:  # inf - inf = 0
            continue
        if math.inf in (a, b):
            return None
        diff = a - b
        if diff > 0:
            n *= p**diff
        elif diff < 0:
            m *= p ** (-diff)
    return (n, m)
