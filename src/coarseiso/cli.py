"""Command-line front end.

Subcommands mirror the library surface: symbolic invariants and verdicts,
then space-level reports (components, step estimate, Foelner sets, covers)
and witness construction. Verdict commands use exit code 0 for a true
relation, 1 for false, 2 for errors; everything else uses 0/2.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Optional

import numpy as np

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
from .witness import _check_deltas, iso_witness_chain, verify_witness

_FIXTURE_PREFIX = "example31"
DEFAULT_RADIUS = 24


def _radius(args: argparse.Namespace) -> int:
    """--radius, or DEFAULT_RADIUS when it is not given."""
    return DEFAULT_RADIUS if args.radius is None else args.radius


def _build_space(desc: str, args: argparse.Namespace) -> FiniteSpace:
    """Positional space argument: a group description, built to --radius,
    or the plane fixture as example31[:branches[:step[:clamp]]], which sets
    its own extent, so an explicit --radius with it is a ValueError."""
    if desc.startswith(_FIXTURE_PREFIX):
        if args.radius is not None:
            raise ValueError(f"{_FIXTURE_PREFIX} sets its own extent; drop --radius")
        parts = desc.split(":")
        branches = int(parts[1]) if len(parts) > 1 else 50
        step = float(parts[2]) if len(parts) > 2 else 0.01
        clamp = float(parts[3]) if len(parts) > 3 else 1000.0
        return example31_fixture(branches, step, clamp, args.point_budget)
    g = parse_group(desc)
    return build_truncation(g, radius=_radius(args), point_budget=args.point_budget)


def _scale(value: float):
    """A scale as the JSON payload holds it: "inf" for an infinite one, as
    WitnessMap.to_json writes an infinite validity radius."""
    return "inf" if value == math.inf else value


def _int_rows(rows, indent: str) -> Optional[str]:
    """The items of a list of rows of Python ints, all of one width k >= 1
    (a witness table), as json.dumps(indent=2) writes them at this indent,
    by one format of the flat ints into a template of the rows; None for
    any other list."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return None
    flat = tuple(itertools.chain.from_iterable(rows))
    if not flat or set(map(type, flat)) != {int}:
        return None
    inner = indent + "  "
    row = "[\n" + inner + (",\n" + inner).join(["%d"] * len(rows[0])) + "\n" + indent + "]"
    return (",\n" + indent).join([row] * len(rows)) % flat


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, default=str), with a witness's table
    of int pairs written by _int_rows. indent selects json's pure-Python
    encoder, which wrote the radius-100 table (9,604 pairs) in 40.9 ms
    against 4.8 ms through _int_rows, and a witness job of the free-chain
    and tower-align rounds in 3.1 ms against 0.55 ms (2-vCPU VM). So the
    table is dumped as a placeholder holding NUL, which no command-line
    argument and so no payload can hold, and the rows replace its text at
    the indent json gives a witness field."""
    witness = payload.get("witness", {})
    rows = _int_rows(witness.get("pairs", ()), " " * 6)
    if rows is None:
        return json.dumps(payload, indent=2, default=str)
    marker = "\0pairs\0"
    text = json.dumps({**payload, "witness": {**witness, "pairs": marker}}, indent=2, default=str)
    head, tail = text.split(json.dumps(marker))
    return f"{head}[\n      {rows}\n    ]{tail}"


def _emit(payload: dict, args: argparse.Namespace) -> None:
    text = _json_text(payload)
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
    _emit(verdict.to_json(), args)
    return 0 if verdict.result else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    g1, g2 = parse_group(args.g1), parse_group(args.g2)
    verdict = coarse_isomorphic(g1, g2)
    if not verdict.result:
        print(f"error: groups are not coarsely isomorphic ({verdict.case_label})", file=sys.stderr)
        return 2
    deltas = _parse_deltas(args.deltas)
    w = iso_witness_chain(
        g1, g2, radius=_radius(args), depth=args.depth,
        prime_bound=args.prime_bound, deltas=deltas or (),
        point_budget=args.point_budget,
    )
    report = verify_witness(w, deltas)
    payload = {
        "verdict": verdict.to_json(),
        "witness": w.to_json(),
        "verification": report.to_json(),
    }
    _emit(payload, args)
    return 0 if report.ok else 1


def _cmd_components(args: argparse.Namespace) -> int:
    space = _build_space(args.space, args)
    part = epsilon_components(space, args.epsilon)
    sizes = np.sort(np.bincount(part.point_block))[::-1][:32]
    payload = {
        "points": len(space),
        "epsilon": _scale(args.epsilon),
        "blocks": part.count,
        "sizes": sizes.tolist(),
        "representatives": space.label_lists(part.representatives[:16]),
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
        # the fixture's extent is its own, so --radius cannot enlarge it
        room = (
            f"the fixture's extent, radius {space.inner_radius}"
            if args.space.startswith(_FIXTURE_PREFIX)
            else f"radius {_radius(args)}; enlarge --radius"
        )
        print(f"error: no box with |O_{args.epsilon}(F)| <= {args.c}|F| fits in {room}",
              file=sys.stderr)
        return 2
    payload = {**f.to_json(), "c": args.c, "epsilon": _scale(args.epsilon),
               "satisfied": f.ratio <= args.c}
    _emit(payload, args)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    rank = g.free_rank_part
    if rank.is_infinite or rank.finite_value() > 3:
        print("error: cover construction handles free rank 0..3", file=sys.stderr)
        return 2
    cover = asdim_cover(rank.finite_value(), args.epsilon, _radius(args))
    sizes = sorted((len(b) for b in cover.blocks), reverse=True)[:32]
    payload = {**cover.to_json(), "epsilon": _scale(cover.epsilon), "block_sizes": sizes,
               "bound": cover.rank + 1}
    _emit(payload, args)
    return 0


def _parse_deltas(raw: Optional[str]) -> Optional[list[float]]:
    if raw is None:
        return None
    out = _check_deltas(x for x in raw.split(",") if x.strip())
    return out or None


# every flag, in usage order; each command takes --format, --out and the
# flags its _cmd_* reads, so a flag it would ignore is a parse error
_FLAGS = {
    "--prime-bound": dict(type=int, default=97),
    "--radius": dict(type=int, default=None),  # _radius reads it
    "--depth": dict(type=int, default=4),
    "--epsilon": dict(type=float, default=1.0),
    "--c": dict(type=float, default=1.1),
    "--deltas": dict(type=str, default=None, help="comma-separated scales"),
    "--format": dict(choices=("json", "table"), default="json"),
    "--point-budget": dict(type=int, default=None),
    "--out": dict(type=str, default=None, help="also write the JSON payload here"),
}


def _add_flags(sub: argparse.ArgumentParser, *reads: str) -> None:
    for flag, spec in _FLAGS.items():
        if flag in reads or flag in ("--format", "--out"):
            sub.add_argument(flag, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarseiso",
        description="Coarse classification of locally finite-by-abelian groups",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("invariants", help="free rank, phi and canonical form")
    p.add_argument("group")
    _add_flags(p)
    p.set_defaults(fn=_cmd_invariants)

    p = commands.add_parser("classify", help="decide a coarse relation between two groups")
    p.add_argument("relation", choices=("equiv", "iso"))
    p.add_argument("g1")
    p.add_argument("g2")
    _add_flags(p)
    p.set_defaults(fn=_cmd_classify)

    p = commands.add_parser("witness", help="build and verify an isomorphism witness chain")
    p.add_argument("g1")
    p.add_argument("g2")
    _add_flags(p, "--radius", "--depth", "--prime-bound", "--deltas", "--point-budget")
    p.set_defaults(fn=_cmd_witness)

    p = commands.add_parser("components", help="epsilon-component partition of a built space")
    p.add_argument("space", help="group description or example31[:branches[:step[:clamp]]]")
    _add_flags(p, "--radius", "--point-budget", "--epsilon")
    p.set_defaults(fn=_cmd_components)

    p = commands.add_parser("step", help="estimate the factorizing step of a built space")
    p.add_argument("space", help="group description or example31[:branches[:step[:clamp]]]")
    _add_flags(p, "--radius", "--point-budget", "--prime-bound")
    p.set_defaults(fn=_cmd_step)

    p = commands.add_parser("foelner", help="search a Foelner box in a built space")
    p.add_argument("space")
    _add_flags(p, "--radius", "--point-budget", "--c", "--epsilon")
    p.set_defaults(fn=_cmd_foelner)

    p = commands.add_parser("cover", help="uniformly bounded cover of a free-abelian ball")
    p.add_argument("group")
    _add_flags(p, "--radius", "--epsilon")
    p.set_defaults(fn=_cmd_cover)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: building it costs about as much
    as a small command, and parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
