"""Command-line front end.

Subcommands mirror the library surface: symbolic invariants and verdicts,
then space-level reports (components, step estimate, Foelner sets, covers)
and witness construction. Verdict commands use exit code 0 for a true
relation, 1 for false, 2 for errors; everything else uses 0/2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .analysis import (
    asdim_cover,
    empirical_phi,
    estimate_factorizing_step,
    foelner_search,
)
from .factorfn import ff_render
from .groups import (
    canonical_form,
    coarse_equivalent,
    coarse_isomorphic,
    is_finitely_generated,
    parse_group,
    render_group,
)
from .spaces import (
    FiniteSpace,
    build_truncation,
    epsilon_components,
    example31_fixture,
)
from .witness import iso_witness_chain, verify_witness

_FIXTURE_PREFIX = "example31"


def _build_space(desc: str, args: argparse.Namespace) -> FiniteSpace:
    """Positional space argument: a group description, or the plane fixture
    as example31[:branches[:step[:clamp]]]."""
    if desc.startswith(_FIXTURE_PREFIX):
        parts = desc.split(":")
        branches = int(parts[1]) if len(parts) > 1 else 50
        step = float(parts[2]) if len(parts) > 2 else 0.01
        clamp = float(parts[3]) if len(parts) > 3 else 1000.0
        return example31_fixture(branches, step, clamp)
    g = parse_group(desc)
    return build_truncation(g, radius=args.radius, point_budget=args.point_budget)


def _emit(payload: dict, args: argparse.Namespace) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.format == "table":
        for key, value in payload.items():
            print(f"{key}: {json.dumps(value, default=str)}")
    else:
        print(text)


def _cmd_invariants(args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    c = canonical_form(g)
    payload = {
        "group": render_group(g),
        "free_rank": str(c.r),
        "phi": ff_render(c.phi),
        "finitely_generated": is_finitely_generated(g),
        "canonical": f"Z^{c.r} + Z_phi[{ff_render(c.phi)}]",
    }
    _emit(payload, args)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    g1, g2 = parse_group(args.g1), parse_group(args.g2)
    check = coarse_equivalent if args.relation == "equiv" else coarse_isomorphic
    verdict = check(g1, g2)
    payload = json.loads(verdict.to_json())
    _emit(payload, args)
    return 0 if verdict.result else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    g1, g2 = parse_group(args.g1), parse_group(args.g2)
    verdict = coarse_isomorphic(g1, g2)
    if not verdict.result:
        print(f"error: groups are not coarsely isomorphic ({verdict.case_label})", file=sys.stderr)
        return 2
    deltas = _parse_deltas(args.deltas)
    w = iso_witness_chain(
        g1, g2, radius=args.radius, depth=args.depth,
        prime_bound=args.prime_bound, deltas=deltas or (),
    )
    report = verify_witness(w, deltas)
    payload = {
        "verdict": json.loads(verdict.to_json()),
        "witness": w.to_json(),
        "verification": report.to_json(),
    }
    _emit(payload, args)
    return 0 if report.ok else 1


def _cmd_components(args: argparse.Namespace) -> int:
    space = _build_space(args.space, args)
    part = epsilon_components(space, args.epsilon)
    sizes = sorted((len(b) for b in part.blocks), reverse=True)
    payload = {
        "points": len(space),
        "epsilon": args.epsilon,
        "blocks": len(part.blocks),
        "sizes": sizes[:32],
        "representatives": [
            list(space.labels[r]) for r in part.representatives[:16]
        ],
    }
    _emit(payload, args)
    return 0


def _cmd_step(args: argparse.Namespace) -> int:
    space = _build_space(args.space, args)
    est = estimate_factorizing_step(space)
    payload = est.to_json()
    payload["points"] = len(space)
    if space.ultrametric:
        payload["empirical_phi"] = ff_render(empirical_phi(space, args.prime_bound))
    _emit(payload, args)
    return 0


def _cmd_foelner(args: argparse.Namespace) -> int:
    space = _build_space(args.space, args)
    f = foelner_search(space, args.c, args.epsilon)
    if f is None:
        print(
            f"error: no box with |O_{args.epsilon}(F)| <= {args.c}|F| fits in "
            f"radius {args.radius}; enlarge --radius",
            file=sys.stderr,
        )
        return 2
    payload = {
        "k": f.k,
        "size": f.size,
        "neighborhood_size": f.neighborhood_size,
        "ratio": f.ratio,
        "c": args.c,
        "epsilon": args.epsilon,
        "satisfied": f.ratio <= args.c,
    }
    _emit(payload, args)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    rank = g.free_rank_part
    if rank.is_infinite or rank.finite_value() > 3:
        print("error: cover construction handles free rank 0..3", file=sys.stderr)
        return 2
    cover = asdim_cover(rank.finite_value(), args.epsilon, args.radius)
    payload = {
        "rank": cover.rank,
        "epsilon": cover.epsilon,
        "radius": cover.radius,
        "mesh": cover.mesh,
        "multiplicity": cover.multiplicity,
        "blocks": len(cover.blocks),
        "block_sizes": sorted((len(b) for b in cover.blocks), reverse=True)[:32],
        "bound": cover.rank + 1,
    }
    _emit(payload, args)
    return 0


def _parse_deltas(raw: Optional[str]) -> Optional[list[float]]:
    if raw is None:
        return None
    out = [float(x) for x in raw.split(",") if x.strip()]
    return out or None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prime-bound", type=int, default=97)
    sub.add_argument("--radius", type=int, default=24)
    sub.add_argument("--depth", type=int, default=4)
    sub.add_argument("--epsilon", type=float, default=1.0)
    sub.add_argument("--c", type=float, default=1.1)
    sub.add_argument("--deltas", type=str, default=None, help="comma-separated scales")
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.add_argument("--point-budget", type=int, default=None)
    sub.add_argument("--out", type=str, default=None, help="also write the JSON payload here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarseiso",
        description="Coarse classification of locally finite-by-abelian groups",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("invariants", help="free rank, phi and canonical form")
    p.add_argument("group")
    _add_common(p)
    p.set_defaults(fn=_cmd_invariants)

    p = commands.add_parser("classify", help="decide a coarse relation between two groups")
    p.add_argument("relation", choices=("equiv", "iso"))
    p.add_argument("g1")
    p.add_argument("g2")
    _add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = commands.add_parser("witness", help="build and verify an isomorphism witness chain")
    p.add_argument("g1")
    p.add_argument("g2")
    _add_common(p)
    p.set_defaults(fn=_cmd_witness)

    p = commands.add_parser("components", help="epsilon-component partition of a built space")
    p.add_argument("space", help="group description or example31[:branches[:step[:clamp]]]")
    _add_common(p)
    p.set_defaults(fn=_cmd_components)

    p = commands.add_parser("step", help="estimate the factorizing step of a built space")
    p.add_argument("space", help="group description or example31[:branches[:step[:clamp]]]")
    _add_common(p)
    p.set_defaults(fn=_cmd_step)

    p = commands.add_parser("foelner", help="search a Foelner box in a built space")
    p.add_argument("space")
    _add_common(p)
    p.set_defaults(fn=_cmd_foelner)

    p = commands.add_parser("cover", help="uniformly bounded cover of a free-abelian ball")
    p.add_argument("group")
    _add_common(p)
    p.set_defaults(fn=_cmd_cover)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
