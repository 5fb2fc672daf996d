"""The witness chain on pairs drawn from the description grammar.

A seeded generator writes pairs of group descriptions: free ranks 0 to 3
(now and then Z^inf), cyclic orders with multiplicities 1, 2, 3 or inf,
now and then a finite group or a Call^1 tail, and a second description
that is mostly the first with finite summands added or dropped, so that
about half the verdicts are true. Each draw also picks the chain's
radius, depth and extra scales. The prime bound is the CLI's 97, which
drops no summand of a drawn tower: the old chain reads a tower that the
bound cuts short as faithful to its top level, where the chain now stops
below the first summand the bound drops. On every draw:

- a true verdict of finite rank gives a witness that verifies, or a
  BudgetError, or a ValueError that names the cap that binds it;
- a false verdict is refused with its case label;
- no exception other than a ValueError escapes;
- the chain gives the same witness JSON, or the same refusal text, as
  `old_iso_witness_chain`, the chain that measured every step.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from coarseiso.groups import coarse_isomorphic, parse_group
from coarseiso.spaces import BudgetError
from coarseiso.witness import iso_witness_chain, verify_witness

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_witness_arrays import old_iso_witness_chain  # noqa: E402

ORDERS = (2, 3, 4, 5, 6, 8, 9, 12, 16, 27)
COUNTS = ("", "", "^2", "^3", "^inf")
# the refusal that names the caps a witness is valid within, the shortest
# line ball and the remainder tower. A multiplier past the factorization
# limit asks for a line past the drawn point budget, so its refusal is a
# BudgetError here
CAPS = ("its shortest line ball has radius",)


def draw_torsion(rng: random.Random) -> list[str]:
    terms = [f"C{rng.choice(ORDERS)}{rng.choice(COUNTS)}" for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.05:
        terms.append(f"F{rng.choice(ORDERS[4:])}")
    if rng.random() < 0.05:
        terms.append("Call^1")
    return terms


def draw_pair(rng: random.Random) -> tuple[str, str]:
    """Two descriptions: the second keeps the first's rank and torsion with
    finite summands added or dropped, or is drawn afresh."""
    rank = "inf" if rng.random() < 0.03 else rng.randint(0, 3)
    torsion = draw_torsion(rng)
    if rng.random() < 0.75:
        other_rank = rank
        other = [t for t in torsion if not t.endswith("^inf") or rng.random() < 0.9]
        other = [t for t in other if "^inf" in t or rng.random() < 0.7]
        other += [f"C{rng.choice(ORDERS)}" for _ in range(rng.randint(0, 2))]
    else:
        other_rank, other = rng.randint(0, 3), draw_torsion(rng)
    return (" + ".join([f"Z^{rank}", *torsion]), " + ".join([f"Z^{other_rank}", *other]))


def draws(seed: int, count: int):
    """count draws of (g1, g2, chain arguments) from one seeded generator."""
    rng = random.Random(seed)
    for _ in range(count):
        g1, g2 = draw_pair(rng)
        args = dict(radius=rng.randint(4, 24), depth=rng.randint(2, 6),
                    prime_bound=97,
                    deltas=rng.choice([(), (), (0.5,), (3.0, 100.0)]),
                    point_budget=20_000)
        yield g1, g2, args


def outcome(fn, *args, **kwargs):
    """A witness, or the refusal's exception; any other exception escapes."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return exc


def test_drawn_pairs_get_a_witness_or_a_refusal_that_names_its_cap():
    kinds = {"witness": 0, "budget": 0, "cap": 0, "false": 0, "infinite rank": 0}
    for g1, g2, args in draws(seed=52, count=160):
        where = f"{g1} ~ {g2}, {args}"
        p1, p2 = parse_group(g1), parse_group(g2)
        verdict = coarse_isomorphic(p1, p2)
        new = outcome(iso_witness_chain, verdict, **args)
        old = outcome(old_iso_witness_chain, p1, p2, **args)
        if isinstance(new, ValueError):
            assert type(new) is type(old) and str(new) == str(old), where
        else:
            assert new.to_json() == old.to_json(), where
        text = str(new)
        if not verdict.result:
            assert text == f"groups are not coarsely isomorphic ({verdict.case_label})", where
            kinds["false"] += 1
        elif verdict.invariants[0].r == float("inf"):
            assert text == "infinite rank carries no table-backed witness here", where
            kinds["infinite rank"] += 1
        elif isinstance(new, BudgetError):
            kinds["budget"] += 1
        elif isinstance(new, ValueError):
            assert any(cap in text for cap in CAPS), where
            kinds["cap"] += 1
        else:
            assert verify_witness(new).ok, where
            kinds["witness"] += 1
    # the draws reach every kind of outcome
    assert all(kinds.values()), kinds
