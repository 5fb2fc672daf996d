"""The witness combinators on index arrays against the tuple-and-dict code
they replaced.

The oracle below is that code, kept verbatim under `old_` names: tables as
sorted (source, target) tuples, labels looked up through `index(space)`,
validity and restriction from per-pair loops. Every case must give the same
table, validity radius, moduli and error message. The staged factorization
and the claim checks that grouped points by label tuples are kept the same
way, against the coordinate relabel and the array checks. `old_alignment`,
`old_absorption` and `old_fold` are written in the same style for the
chain's alignment, absorption and fold tables, which had no tuple code of
their own, and `old_side` composes them, through the mixed tower of the k
points and the remainder, as the chain's side stage once did.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from coarseiso import witness as witness_mod
from coarseiso.analysis import oscillation
from coarseiso.cli import main
from coarseiso.factorfn import FactorFunction
from coarseiso.groups import coarse_isomorphic, parse_group
from coarseiso.spaces import (
    DEFAULT_POINT_BUDGET,
    FiniteSpace,
    SupRule,
    _check_budget,
    build_truncation,
    canonical_ultrametric,
    enumerate_summands,
    epsilon_components,
    example31_fixture,
    k_point_space,
    product_space,
    quotient_with_projection,
    subspace,
    tower_space,
    zball,
)
from coarseiso.witness import (
    STANDARD_DELTAS,
    WitnessMap,
    compose_witness,
    invert_witness,
    product_witness,
    relabel_witness,
    verify_witness,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import blocks, distance, fold_stage, index, same_witness  # noqa: E402
from test_cli import GOLDEN_WITNESSES  # noqa: E402
from test_witness import cli_chain, iso_verdict  # noqa: E402

_TOL = 1e-9


# ---------------------------------------------------------------------------
# the oracle: label tuples, dict lookups and per-pair loops


def old_validity_from_pairs(source, pairs):
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


def old_restrict_to_validity(source, pairs, validity):
    d = source.dists_from(source.basepoint)
    kept = [(s, t) for s, t in pairs if d[s] <= validity + _TOL]
    si = np.asarray([s for s, _ in kept], dtype=int)
    ti = np.asarray([t for _, t in kept], dtype=int)
    return si, ti


def old_finish(source, target, pairs, claims, extra_deltas=(), validity_cap=None,
               context="witness"):
    table = tuple(sorted((int(s), int(t)) for s, t in pairs))
    if len({s for s, _ in table}) != len(table):
        raise ValueError(f"{context}: table maps a source point twice")
    validity = old_validity_from_pairs(source, table)
    if validity_cap is not None:
        validity = min(validity, float(validity_cap))
    if validity < 0:
        raise ValueError(f"{context}: empty validity region")
    deltas = sorted(
        {float(x) for x in (*STANDARD_DELTAS, *extra_deltas) if 0 <= float(x) <= validity + _TOL}
    )
    if not deltas:
        deltas = [validity]
    si, ti = old_restrict_to_validity(source, table, validity)
    # each direction from its own call, the other value of each call as a check
    fwd, bwd_check = oscillation(source, target, si, ti, deltas)
    bwd, fwd_check = oscillation(target, source, ti, si, deltas)
    assert (fwd, bwd) == (fwd_check, bwd_check)
    fwd, bwd = dict(zip(deltas, fwd)), dict(zip(deltas, bwd))
    return WitnessMap(source, target, fwd, bwd, float(validity), claims, table=table)


def old_relabel(source, target, columns=None):
    # the column order as the label translation the dict code took
    tr = (lambda lab: lab) if columns is None else (lambda lab: tuple(lab[c] for c in columns))
    pairs, at = [], index(target)
    for i, lab in enumerate(source.labels):
        j = at.get(tr(lab))
        if j is None:
            raise ValueError(f"relabel: no target point for label {lab}")
        pairs.append((i, j))
    return old_finish(source, target, pairs, (), context="relabel")


def old_fold(source, target, k, validity_cap):
    """The fold of a side of the chain, label by label: (q, tail, d, rest)
    -> (q k + d, tail, rest), looked up in the target, where d is the
    first coordinate of order k; a label with no target point is left
    out."""
    digit = source.rule.orders.index(k)
    pairs, at = [], index(target)
    for i, lab in enumerate(source.labels):
        j = at.get((lab[0] * k + lab[digit], *lab[1:digit], *lab[digit + 1:]))
        if j is not None:
            pairs.append((i, j))
    return old_finish(source, target, pairs, (), validity_cap=validity_cap, context="fold")


def mixed_tower(rest, k):
    """The tower a side aligned its tower onto before its stage became
    index arithmetic: the k points at level 1, then the remainder's
    summands at their levels, faithful as far as the remainder is."""
    mixed = tower_space([k, *rest.rule.orders], levels=[1, *rest.rule.levels])
    return mixed.with_inner_radius(rest.inner_radius)


def behind_cap(zpart, rest, middle):
    """The cap the chain once passed a side stage, and the oracles still
    apply: the inner radius of what lies behind the line in the middle
    space, the remainder at rank 1, and above it the ball's tail, of the
    line's radius, and the remainder."""
    rank = zpart.rule.orders.count(0)
    return rest.inner_radius if rank == 1 else min(int(middle.coords[-1, 0]), rest.inner_radius)


def old_side(zpart, u, rest, middle, k, validity_cap, point_budget):
    """A side of the chain as the tuple code's steps: the ball's identity
    times the alignment onto the mixed tower (w1), composed with the fold
    under the cap; handed back as the stage the chain measures."""
    w1 = old_product(old_relabel(zpart, zpart), old_alignment(u, mixed_tower(rest, k)),
                     point_budget)
    w = old_compose(w1, old_fold(w1.target, middle, k, validity_cap))
    return witness_mod._Stage(w.source, w.target, w.src, w.dst, w.validity_radius)


def old_compose(f, g, deltas=()):
    if not (f.target == g.source):
        raise ValueError("compose: stages do not share a space")
    dmid = g.source.dists_from(g.source.basepoint)
    dsrc = f.source.dists_from(f.source.basepoint)
    gmap = dict(g.table)
    pairs = []
    for s, mid in f.table:
        if dsrc[s] > f.validity_radius + _TOL:
            continue
        if dmid[mid] > g.validity_radius + _TOL:
            continue
        t = gmap.get(mid)
        if t is not None:
            pairs.append((s, t))
    return old_finish(f.source, g.target, pairs, (), extra_deltas=deltas, context="compose")


def old_product(f, g, point_budget=DEFAULT_POINT_BUDGET):
    source = product_space(f.source, g.source, point_budget)
    target = product_space(f.target, g.target, point_budget)
    pairs, source_at, target_at = [], index(source), index(target)
    for s1, t1 in f.table:
        ls, lt = f.source.labels[s1], f.target.labels[t1]
        for s2, t2 in g.table:
            s = source_at[ls + g.source.labels[s2]]
            t = target_at[lt + g.target.labels[t2]]
            pairs.append((s, t))
    cap = min(f.validity_radius, g.validity_radius)
    return old_finish(source, target, pairs, (), validity_cap=cap, context="product")


def old_alignment(u, v):
    """The rank bijection between two towers, label by label: a point's
    little-endian mixed-radix rank in u, decoded digit by digit in v."""
    pairs, at = [], index(v)
    for i, lab in enumerate(u.labels):
        rank, weight = 0, 1
        for digit, order in zip(lab, u.rule.orders):
            rank, weight = rank + digit * weight, weight * order
        digits = []
        for order in v.rule.orders:
            rank, digit = divmod(rank, order)
            digits.append(digit)
        pairs.append((i, at[tuple(digits)]))
    return old_finish(u, v, pairs, (), context="alignment")


def old_absorption(k, line, short, point_budget):
    """The digit split n -> (n div k, n mod k) of each line label, looked up
    in (short) x (k points)."""
    target = product_space(short, k_point_space(k), point_budget)
    at = index(target)
    pairs = [(i, at[(n // k, n % k)]) for i, (n,) in enumerate(line.labels)]
    return old_finish(line, target, pairs, (), context="absorption")


def old_invert(f):
    targets = [t for _, t in f.table]
    if len(set(targets)) != len(targets):
        raise ValueError("invert: table is not injective")
    pairs = [(t, s) for s, t in f.table]
    return old_finish(f.target, f.source, pairs, (), context="invert")


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same(new, old):
    """Equal witnesses, or the same error text from both. Returns the kind
    of outcome, for the hypothesis statistics."""
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return old.split(":")[-1].strip()
    assert new.table == old.table
    assert all(type(x) is int for pair in new.table for x in pair)
    assert new.validity_radius == old.validity_radius
    assert type(new.validity_radius) is float
    assert new.forward_moduli == old.forward_moduli
    assert new.backward_moduli == old.backward_moduli
    assert new.claims == old.claims
    assert new.source == old.source and new.target == old.target
    return "witness"


# ---------------------------------------------------------------------------
# strategies


@st.composite
def factors(draw):
    kind = draw(st.sampled_from(["zball", "tower", "points"]))
    if kind == "zball":
        return zball(draw(st.integers(0, 3)), draw(st.integers(1, 2)))
    if kind == "tower":
        orders = draw(st.lists(st.integers(2, 3), max_size=2))
        return tower_space(orders)
    # level-1 cyclic coordinate, or no coordinate at all for k = 1
    return k_point_space(draw(st.integers(1, 3)))


@st.composite
def sup_products(draw, max_points=150):
    space = draw(factors())
    for _ in range(draw(st.integers(0, 2))):
        other = draw(factors())
        if len(space) * len(other) > max_points:
            break
        space = product_space(space, other) if draw(st.booleans()) else product_space(other, space)
    return space


@st.composite
def index_tables(draw, source, target, twice=True):
    """A shuffled table from source indices to target indices: total or
    partial, mostly holding the basepoint, injective or not, and now and
    then (when twice) with a source mapped twice."""
    n, m = len(source), len(target)
    dropped = draw(st.one_of(st.just(0), st.integers(0, 2), st.integers(0, n)))
    src = draw(st.permutations(range(n)))[: n - dropped]
    if src and source.basepoint not in src and draw(st.integers(0, 3)):
        src[0] = source.basepoint
    if len(src) <= m and draw(st.integers(0, 3)):
        dst = draw(st.permutations(range(m)))[: len(src)]
    else:
        dst = draw(st.lists(st.integers(0, m - 1), min_size=len(src), max_size=len(src)))
    if twice and src and draw(st.integers(0, 9)) == 9:
        src, dst = src + [src[0]], dst + [draw(st.integers(0, m - 1))]
    return src, dst


caps = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, math.inf]))
extra_scales = st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 100.0]), max_size=2)


@st.composite
def witnesses(draw, source=None, target=None):
    """A witness made by the oracle from a random table, or None when the
    table has no validity region or maps a source point twice."""
    source = draw(sup_products()) if source is None else source
    target = draw(sup_products()) if target is None else target
    src, dst = draw(index_tables(source, target, twice=False))
    w = outcome(old_finish, source, target, list(zip(src, dst)), (),
                validity_cap=draw(caps))
    return None if isinstance(w, str) else w


# ---------------------------------------------------------------------------
# the differential tests


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_finish_matches_the_tuple_code(data):
    source, target = data.draw(sup_products()), data.draw(sup_products())
    src, dst = data.draw(index_tables(source, target))
    cap, extra = data.draw(caps), data.draw(extra_scales)
    given = {} if cap is None else {"validity_cap": cap}  # None: the stage's default, no cap
    new = outcome(lambda: witness_mod._finish(
        witness_mod._stage(source, target, src, dst, "probe", **given), (), extra))
    old = outcome(old_finish, source, target, list(zip(src, dst)), (),
                  extra_deltas=extra, validity_cap=cap, context="probe")
    event(assert_same(new, old))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_matches_the_tuple_code(data):
    middle = data.draw(sup_products())
    f = data.draw(witnesses(target=middle))
    g = data.draw(witnesses(source=middle))
    if f is None or g is None:
        return
    extra = data.draw(extra_scales)
    event(assert_same(outcome(compose_witness, f, g, extra), outcome(old_compose, f, g, extra)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_matches_the_tuple_code(data):
    f = data.draw(witnesses(source=data.draw(sup_products(40)), target=data.draw(sup_products(40))))
    g = data.draw(witnesses(source=data.draw(sup_products(12)), target=data.draw(sup_products(12))))
    if f is None or g is None:
        return
    event(assert_same(outcome(product_witness, f, g), outcome(old_product, f, g)))


@settings(max_examples=100, deadline=None)
@given(witnesses())
def test_invert_matches_the_tuple_code(f):
    if f is None:
        return
    event(assert_same(outcome(invert_witness, f), outcome(old_invert, f)))


@st.composite
def relabel_cases(draw):
    """A source box and a target box whose free part is padded or cut and
    which may hold the factors in the other order."""
    r, rank, pad = draw(st.integers(0, 3)), draw(st.integers(1, 2)), draw(st.integers(-1, 2))
    other = draw(st.sampled_from(
        [k_point_space(1), k_point_space(2), tower_space([3]), tower_space([2, 3])]
    ))
    source = product_space(zball(r, rank), other)
    big = zball(max(0, r + pad), rank)
    target = product_space(other, big) if draw(st.booleans()) else product_space(big, other)
    return source, target


@settings(max_examples=80, deadline=None)
@given(relabel_cases())
def test_relabel_matches_the_tuple_code(case):
    new = outcome(relabel_witness, *case)
    old = outcome(old_relabel, *case)
    # a missing target names the same first missing source label
    event(assert_same(new, old).split(" for label")[0])


@pytest.mark.parametrize("g1,g2", [
    ("Z^2 + C4", "Z^2"), ("Z^2", "Z^2 + C4"), ("Z + C2", "Z + C3"), ("Z", "Z"),
])
def test_chain_combinators_match_the_tuple_code(monkeypatch, g1, g2):
    """A whole chain run through the oracle combinators, stage by stage,
    against the array ones. The chain hands its composition bare tables;
    the oracle builds each identity, side and inverse table as the tuple
    code's witness, a side as the product and composition it replaced."""
    verdict = iso_verdict(g1, g2)
    new = cli_chain(verdict, radius=12, deltas=(3.0,))
    calls = {}

    def oracle(name, fn):
        def run(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(witness_mod, name, run)

    def old_identity(f):
        # a bare stage reaching the composition is the identity of a side
        # with k = 1 on the middle space, rebuilt as the tuple code's relabel
        if not isinstance(f, witness_mod._Stage):
            return f
        assert f.source is f.target and np.array_equal(f.src, f.dst)
        assert np.array_equal(f.src, np.arange(len(f.source)))
        calls["identity"] = calls.get("identity", 0) + 1
        return old_relabel(f.source, f.target)

    oracle("compose_witness", lambda f, g, deltas: old_compose(
        old_identity(f), old_identity(g), deltas))
    oracle("invert_witness", old_invert)
    oracle("relabel_witness", old_relabel)
    oracle("_side_stage", lambda zpart, u, rest, middle, k, pb: old_side(
        zpart, u, rest, middle, k, behind_cap(zpart, rest, middle), pb))
    oracle("_invert_stage", old_invert)
    assert_same(new, cli_chain(verdict, radius=12, deltas=(3.0,)))
    # every table of the chain came from an oracle: a side with a
    # multiplier of 1 is the identity, any other is a side stage, and only
    # the right side is inverted
    n, m = verdict.multipliers or (1, 1)
    reached = {"compose_witness"}
    if min(n, m) == 1:
        reached.add("identity")
    if max(n, m) > 1:
        reached.add("_side_stage")
    if m > 1:
        reached.add("_invert_stage")
    assert set(calls) == reached


def replaced_side(zpart, u, rest, middle, k, validity_cap, point_budget):
    """What a side stage replaced: the ball's identity times the alignment
    onto the mixed tower, composed with the fold as its own stage under the
    cap. The product held its spaces to the point budget."""
    _check_budget(len(zpart) * len(u), point_budget)
    w1 = product_witness(relabel_witness(zpart, zpart),
                         witness_mod._alignment_stage(u, mixed_tower(rest, k)))
    return compose_witness(w1, fold_stage(w1.target, middle, k, validity_cap), ())


@st.composite
def side_chains(draw):
    """A chain whose left side has a multiplier k from 2 to 16: Z^rank + Ck
    + rest ~ Z^rank + rest, with a prime bound that drops C7 from rest, so
    that its tower is faithful only below the first summand dropped."""
    k, rank = draw(st.integers(2, 16)), draw(st.integers(1, 3))
    rest = draw(st.lists(st.sampled_from(["C2", "C3", "C4", "C5", "C9"]), max_size=2)) + ["C7"]
    groups = [" + ".join([f"Z^{rank}", f"C{k}", *rest]), " + ".join([f"Z^{rank}", *rest])]
    args = dict(radius=draw(st.integers(4, 40)), depth=draw(st.integers(2, 5)),
                prime_bound=draw(st.sampled_from([2, 3, 5])))
    return groups, args


@settings(max_examples=60, deadline=None)
@given(side_chains())
def test_side_stage_is_the_composition_it_replaces(case):
    """On the spaces the chain hands each side, the side stage has the
    table, validity and spaces of the product and composition it
    replaced, or refuses with the same text. The stage applies no cap and
    the composition the one the chain once passed, so the cap never
    binds."""
    (g1, g2), args = case
    seen, side = [], witness_mod._side_stage
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness_mod, "_side_stage", lambda *a: seen.append(a) or side(*a))
        outcome(cli_chain, iso_verdict(g1, g2), point_budget=20_000, **args)
    if not seen:
        event("refused before a side")
    for zpart, u, rest, middle, k, pb in seen:
        cap = behind_cap(zpart, rest, middle)
        new = outcome(side, zpart, u, rest, middle, k, pb)
        old = outcome(replaced_side, zpart, u, rest, middle, k, cap, pb)
        if isinstance(new, str) or isinstance(old, str):
            assert new == old
            event(old)
            continue
        assert isinstance(new, witness_mod._Stage)
        assert np.array_equal(new.src, old.src) and np.array_equal(new.dst, old.dst)
        assert new.validity_radius == old.validity_radius
        assert type(new.validity_radius) is float
        assert new.source == old.source and new.target == old.target
        short = int(zpart.coords[:, 0].max())
        event(f"k = {k}")
        event("the cap is below the short radius less one" if cap < short - 1
              else "the cap is at or above the short radius less one")


@pytest.mark.parametrize("rank, k, line_r", [(1, 2, 5), (2, 3, 8), (1, 3, 4), (2, 3, 4)],
                         ids=["line-past-k-short", "line-past-k-short-rank-2",
                              "line-below-2k", "line-below-2k-rank-2"])
def test_side_stage_off_the_chains_spaces(rank, k, line_r):
    """Where the chain never goes, the side stage still has the table,
    validity and spaces of the composition it replaced. On the chain's
    spaces the line's radius is k times a short radius of at least 2, so
    the line's ends and the digit's level 1 decide no entry. Here they do:
    a line that k does not divide ends where the last digit lands, and a
    line of radius below 2k - 1 leaves out a point (1, d) at distance 1,
    so the fold is valid to 0 and only the digit's level 1 leaves out the
    points (0, d) with d >= 1."""
    rest = tower_space([2, 3])
    u = tower_space([2, 3, *witness_mod._prime_multiset(k)]).with_inner_radius(rest.inner_radius)
    tail = zball(line_r, rank - 1)
    zpart = product_space(zball(2), tail) if rank > 1 else zball(2)
    middle = product_space(product_space(zball(line_r), tail) if rank > 1 else zball(line_r), rest)
    args = (zpart, u, rest, middle, k)
    new = witness_mod._side_stage(*args, DEFAULT_POINT_BUDGET)
    old = replaced_side(*args, math.inf, DEFAULT_POINT_BUDGET)
    assert np.array_equal(new.src, old.src) and np.array_equal(new.dst, old.dst)
    assert new.validity_radius == old.validity_radius
    assert new.source == old.source and new.target == old.target


# the chains of TestChain in test_witness.py, by their arguments
TEST_CHAIN_CASES = [
    ("Z + C2", "Z", {}), ("C2^inf", "C2^inf + C4", {}), ("Z + C2^inf", "Z + C2^inf + C3", {}),
    ("Z^2 + C6", "Z^2 + C6", {"radius": 6}), ("Z + C2", "Z", {"radius": 24}),
    ("Z + C2", "Z", {"radius": 60}),
]


def stage_and_witness(name, args):
    """What a private stage of the chain gives on args, and what its public
    witness gives on the same spaces."""
    stage = getattr(witness_mod, name)(*args)
    if name == "_alignment_stage":
        w = witness_mod.tower_alignment_witness(*args).witness
    else:
        (f,) = args
        w = invert_witness(witness_mod._finish(f) if isinstance(f, witness_mod._Stage) else f)
    return stage, w


def test_each_stage_is_its_witness_without_the_moduli(monkeypatch, capsys):
    """On the spaces every TestChain chain and every pinned witness call
    hands the alignment and inversion stages, each stage has
    the table, validity and spaces of its public witness, and refuses what
    the witness refuses with the same text."""
    seen = []
    for name in ("_alignment_stage", "_invert_stage"):
        fn = getattr(witness_mod, name)
        monkeypatch.setattr(witness_mod, name,
                            lambda *a, fn=fn, name=name: seen.append((name, a)) or fn(*a))
    for g1, g2, kwargs in TEST_CHAIN_CASES:
        cli_chain(iso_verdict(g1, g2), **kwargs)
    for argv, *_ in GOLDEN_WITNESSES:
        assert main(list(argv)) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert {name for name, _ in seen} == {"_alignment_stage", "_invert_stage"}
    for name, args in seen:
        stage, w = stage_and_witness(name, args)
        assert isinstance(stage, witness_mod._Stage)
        assert np.array_equal(stage.src, w.src) and np.array_equal(stage.dst, w.dst)
        assert stage.validity_radius == w.validity_radius
        assert type(stage.validity_radius) is float
        assert stage.source == w.source and stage.target == w.target
        if name == "_alignment_stage":
            # towers of another factor content, and a space that is no tower
            u, v = args
            for other, message in ((tower_space([*v.rule.orders, 2]),
                                    "factor functions of the towers differ"),
                                   (zball(2), "alignment needs tower-built spaces")):
                refusals = {outcome(witness_mod._alignment_stage, u, other),
                            outcome(witness_mod.tower_alignment_witness, u, other)}
                assert refusals == {f"ValueError: {message}"}
        elif name == "_invert_stage":
            # the same table with two sources sent to one target
            (f,) = args
            dst = f.dst.copy()
            dst[1] = dst[0]
            tampered = witness_mod._Stage(f.source, f.target, f.src, dst, f.validity_radius)
            refusals = {outcome(witness_mod._invert_stage, tampered),
                        outcome(invert_witness, tampered)}
            assert refusals == {"ValueError: invert: table is not injective"}


# ---------------------------------------------------------------------------
# the chain as it measured every identity and relabel step


def old_capped_enum(phi, depth, prime_bound):
    """The chain's summands before its towers came from
    canonical_ultrametric."""
    depth = min(depth, phi.total_mass)
    if depth <= 0:
        return []
    return enumerate_summands(phi, depth, prime_bound)


def old_torsion_tower(orders, complete, point_budget=DEFAULT_POINT_BUDGET):
    """Tower truncation; a fully enumerated finite torsion part is the whole
    group, so its metric is trusted at every radius."""
    sp = tower_space(orders, point_budget=point_budget)
    return sp.with_inner_radius(math.inf) if complete else sp


def old_iso_witness_chain(g1, g2, radius=24, depth=4, prime_bound=97, deltas=(),
                          point_budget=DEFAULT_POINT_BUDGET):
    """The chain before identity factors entered products as spaces and
    relabels were composed as bare tables: 10 measured witnesses for a side
    with k >= 2, a relabel for a side with k = 1, then an inverse and the
    end. Its combinators are the tuple code above."""
    w = witness_mod
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pb = point_budget
    verdict = coarse_isomorphic(g1, g2)
    if not verdict.result:
        raise ValueError(f"groups are not coarsely isomorphic ({verdict.case_label})")
    c1, c2 = verdict.invariants
    rank = c1.r
    if rank == math.inf:
        raise ValueError("infinite rank carries no table-backed witness here")
    n, m = verdict.multipliers if verdict.multipliers else (1, 1)

    diff = w.ff_sub(c1.phi, w.phi_of_nat(n))
    rest_orders = old_capped_enum(diff, depth, prime_bound)
    full = len(rest_orders) == diff.total_mass
    rest = old_torsion_tower(rest_orders, full, pb)

    if rank == 0:
        orders1 = old_capped_enum(c1.phi, depth, prime_bound)
        orders2 = old_capped_enum(c2.phi, depth, prime_bound)
        mass = c1.phi.total_mass
        full1 = len(orders1) == mass
        u1 = old_torsion_tower(orders1, full1, pb)
        u2 = old_torsion_tower(orders2, full1, pb)
        return w.tower_alignment_witness(u1, u2, deltas=deltas).witness

    base_r = max(2, int(radius) // max(n * m, 1))
    common_r = n * m * base_r
    line = zball(common_r, point_budget=pb)
    behind = rest if rank == 1 else product_space(zball(common_r, rank - 1, pb), rest, pb)
    middle = product_space(line, behind, pb)

    def side(k_abs, first_r):
        primes = w._prime_multiset(k_abs)
        # u is faithful only as far as the remainder is, as in the chain:
        # the multiplier's primes stacked on top of the remainder are not
        # the next summands of a canonical tower
        u = old_torsion_tower(list(rest_orders) + primes, full, pb)
        u = u.with_inner_radius(rest.inner_radius)
        first = zball(first_r, point_budget=pb)
        zpart = first if rank == 1 else product_space(first, zball(common_r, rank - 1, pb), pb)
        start = product_space(zpart, u, pb)
        if k_abs == 1:
            return old_relabel(start, middle)
        mixed = tower_space(
            [k_abs] + list(rest_orders),
            levels=[1] + list(range(2, len(rest_orders) + 2)),
            point_budget=pb,
        )
        if full:
            mixed = mixed.with_inner_radius(math.inf)
        w1 = old_product(
            old_relabel(zpart, zpart), w.tower_alignment_witness(u, mixed).witness,
            point_budget=pb,
        )
        tail = rank - 1
        width = len(w1.target.rule.orders)
        shuffle = [0, 1 + tail, *range(1, 1 + tail), *range(2 + tail, width)]
        folded = product_space(product_space(first, k_point_space(k_abs), pb), behind, pb)
        w2 = old_relabel(w1.target, folded, columns=shuffle)
        folded_line = zball(k_abs * first_r, point_budget=pb)
        unfold = old_invert(old_absorption(k_abs, folded_line, first, pb))
        w3 = old_product(unfold, old_relabel(behind, behind), point_budget=pb)
        return old_compose(old_compose(w1, w2), w3)

    left = side(n, m * base_r)
    right = side(m, n * base_r)
    end = old_compose(left, old_invert(right), deltas=deltas)
    # the chain's refusal of a witness valid to less than 1, naming the
    # shortest line ball, which the side of the larger multiplier folds onto
    if end.validity_radius < 1:
        raise ValueError(
            f"the witness is valid only to {end.validity_radius:g}: its shortest line ball has "
            f"radius {common_r // max(n, m)} (the line's {common_r} over the multiplier "
            f"{max(n, m)}; --radius {radius}), and its remainder tower is faithful to "
            f"{rest.inner_radius} under prime bound {prime_bound} (--prime-bound)"
        )
    return end


# each free-chain slot of the benchmark at its two base radii, both ways
# round, and the pairs whose multipliers are both 1 or whose rank is 3
CHAIN_CASES = [
    *[(a, b, radius) for g1, g2, radii in [
        ("Z + C12", "Z + C3", (64, 80)),
        ("Z + C2", "Z", (96, 192)),
        ("Z + C2^inf", "Z + C2^inf + C3", (12, 18)),
        ("Z^2 + C4", "Z^2", (12, 16)),
        ("Z^2 + C2", "Z^2 + C4", (6, 10)),
    ] for radius in radii for a, b in [(g1, g2), (g2, g1)]],
    ("Z", "Z", 12), ("Z^2", "Z^2", 6), ("Z^2 + C2^inf", "Z^2 + C4^inf", 6),
    ("Z^3 + C2", "Z^3", 4), ("Z^3", "Z^3 + C2", 4),
]


@pytest.mark.parametrize("g1,g2,radius", CHAIN_CASES)
def test_chain_matches_the_chain_that_measured_every_step(g1, g2, radius):
    g1, g2 = parse_group(g1), parse_group(g2)
    new = cli_chain(coarse_isomorphic(g1, g2), radius=radius)
    old = old_iso_witness_chain(g1, g2, radius=radius)
    assert_same(new, old)
    assert new.source.inner_radius == old.source.inner_radius
    assert new.target.inner_radius == old.target.inner_radius
    assert new.to_json() == old.to_json()


@pytest.mark.parametrize("g1,g2,radius", [
    ("Z + C2", "Z", 16), ("Z", "Z + C2", 16), ("Z + C2", "Z + C3", 24),
    ("Z^2 + C4", "Z^2", 8), ("Z^2", "Z^2 + C4", 8), ("Z", "Z", 8),
])
def test_chain_with_extra_scales_matches_the_old_chain(g1, g2, radius):
    g1, g2 = parse_group(g1), parse_group(g2)
    verdict = coarse_isomorphic(g1, g2)
    for deltas in [(0.5,), (3,), (100,), (0.5, 3, 100)]:
        assert_same(outcome(cli_chain, verdict, radius=radius, deltas=deltas),
                    outcome(old_iso_witness_chain, g1, g2, radius=radius, deltas=deltas))


@pytest.mark.parametrize("g1,g2,radius", [
    ("Z + C2", "Z", 16), ("Z", "Z + C2", 16), ("Z + C2", "Z + C3", 24),
    ("Z^2 + C4", "Z^2", 8), ("Z^2", "Z^2 + C4", 8), ("Z^3 + C2", "Z^3", 4), ("Z", "Z", 8),
    ("Z^2", "Z^2", 6),
])
def test_chain_one_point_over_budget_fails_as_the_old_chain(monkeypatch, g1, g2, radius):
    g1, g2 = parse_group(g1), parse_group(g2)
    sizes = []
    store = FiniteSpace._store

    def recording(self, coords, *args, **kwargs):
        sizes.append(len(coords))
        return store(self, coords, *args, **kwargs)

    monkeypatch.setattr(FiniteSpace, "_store", recording)
    outcome(old_iso_witness_chain, g1, g2, radius=radius)
    monkeypatch.setattr(FiniteSpace, "_store", store)
    largest = max(sizes)
    verdict = coarse_isomorphic(g1, g2)
    new = outcome(cli_chain, verdict, radius=radius, point_budget=largest - 1)
    assert new == f"BudgetError: {largest} points exceed the budget of {largest - 1}"
    assert new == outcome(old_iso_witness_chain, g1, g2, radius=radius,
                          point_budget=largest - 1)
    assert_same(outcome(cli_chain, verdict, radius=radius,
                        point_budget=largest),
                outcome(old_iso_witness_chain, g1, g2, radius=radius, point_budget=largest))


# ---------------------------------------------------------------------------
# coordinates built from arrays


def parsed(space):
    """Coordinates and basepoint as they were read from the labels."""
    coords = np.asfortranarray(np.asarray(space.labels, dtype=float))
    zero = space.labels.index((0,) * len(space.labels[0]))
    return coords, zero


@settings(max_examples=60, deadline=None)
@given(sup_products(300))
def test_product_coordinates_match_the_labels(space):
    coords, _ = parsed(space)
    assert space.coords.dtype == np.float64 and space.coords.flags.f_contiguous
    assert space.coords.shape == coords.shape
    assert np.array_equal(space.coords, coords)
    # every factor is pointed at its all-zero label, so the product is too
    assert space.basepoint == parsed(space)[1]
    assert np.array_equal(space.base_dists, space.dists_from(space.basepoint))
    assert not space.base_dists.flags.writeable
    assert space.base_dists is space.base_dists


@pytest.mark.parametrize("space", [
    zball(0), zball(3), zball(2, 2), zball(1, 3), zball(2, 0), tower_space([]),
    tower_space([2, 3, 2]), tower_space([5], levels=[1]), k_point_space(1),
    build_truncation(parse_group("Z^2 + C3 + C2"), radius=4),
    build_truncation(parse_group("C2^inf"), radius=9),
], ids=lambda sp: repr(sp))
def test_box_coordinates_match_the_labels(space):
    coords, zero = parsed(space)
    assert space.coords.dtype == np.float64 and space.coords.flags.f_contiguous
    assert space.coords.shape == coords.shape
    assert np.array_equal(space.coords, coords)
    assert space.basepoint == zero


# ---------------------------------------------------------------------------
# the table held as index arrays


def test_table_is_read_from_the_index_arrays():
    sp = tower_space([2, 3])
    w = relabel_witness(sp, sp)
    for a in (w.src, w.dst):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert w._table is None
    assert w.table == tuple((i, i) for i in range(6)) and w.table is w.table
    assert all(type(x) is int for pair in w.table for x in pair)
    assert w.to_json()["pairs"] == [[i, i] for i in range(6)] and len(w) == 6
    # a table given in place of the arrays replaces them
    swapped = dataclasses.replace(w, table=((0, 1), (1, 0)))
    assert swapped.src.tolist() == [0, 1] and swapped.dst.tolist() == [1, 0]
    assert swapped.table == ((0, 1), (1, 0)) and not same_witness(swapped, w)
    assert same_witness(dataclasses.replace(w, forward_moduli=dict(w.forward_moduli)), w)
    assert same_witness(WitnessMap(sp, sp, w.forward_moduli, w.backward_moduli,
                                   w.validity_radius, (), table=w.table), w)
    # maps compare by identity, as nothing in the package compares them
    assert WitnessMap.__eq__ is object.__eq__ and WitnessMap.__hash__ is object.__hash__
    with pytest.raises(TypeError, match="needs its table"):
        WitnessMap(sp, sp, {}, {}, 1.0, ())
    with pytest.raises(ValueError, match="mismatched"):
        WitnessMap(sp, sp, {}, {}, 1.0, (), src=[0, 1], dst=[0])


@pytest.mark.parametrize("pair, side, index", [
    ((-1, 4), "source", -1), ((4, -1), "target", -1),
    ((5, 4), "source", 5), ((4, 5), "target", 5),
])
def test_a_table_index_that_is_no_point_is_refused(pair, side, index):
    # -1 would read as the last point and 5 past the end of zball(2); the
    # table form, as dataclasses.replace passes it, and the array form
    # meet the same check
    w = relabel_witness(zball(2), zball(2))
    table = (pair,) + w.table[1:]
    message = f"{side} index {index} is not one of the {side}'s 5 points"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(w, table=table)
    src, dst = zip(*table)
    with pytest.raises(ValueError, match=message):
        WitnessMap(w.source, w.target, {}, {}, 1.0, (), src=src, dst=dst)


def test_table_indices_are_whole_numbers_within_both_spaces():
    w = relabel_witness(zball(2), zball(3))
    # the ends of both ranges are points
    ends = dataclasses.replace(w, table=((0, 0), (4, 6)))
    assert ends.table == ((0, 0), (4, 6))
    # a float index is read by its value, never truncated: a whole one
    # names its point, any other is refused on its own side
    assert dataclasses.replace(w, table=((0.0, 1), (1, 2))).src.tolist() == [0, 1]
    for table, side, index in ((((0.5, 1), (1, 2)), "source", "0.5"),
                               (((0, 1), (1, 2.5)), "target", "2.5"),
                               (((0, math.nan), (1, 2)), "target", "nan")):
        with pytest.raises(ValueError, match=f"{side} index {index} is not one of"):
            dataclasses.replace(w, table=table)
    with pytest.raises(ValueError, match="source index inf is not one of"):
        WitnessMap(w.source, w.target, {}, {}, 1.0, (), src=[0, math.inf], dst=[1, 2])
    # an empty table is no index at all
    for empty in (dataclasses.replace(w, table=()),
                  WitnessMap(w.source, w.target, {}, {}, 1.0, (), src=[], dst=[])):
        assert len(empty) == 0 and empty.src.dtype == empty.dst.dtype == np.int64
    # swapping two images, as the benchmark's tamper check does, still builds
    swapped = list(w.table)
    swapped[0], swapped[1] = (0, swapped[1][1]), (1, swapped[0][1])
    assert not verify_witness(dataclasses.replace(w, table=tuple(swapped))).ok


def test_chain_builds_no_label_tuple_of_its_end_spaces():
    """Building, verifying and serializing a rank-2 chain reads the end
    spaces' coordinates only."""
    w = cli_chain(iso_verdict("Z^2 + C4", "Z^2"), radius=16)
    assert verify_witness(w).ok
    payload = w.to_json()
    assert w.source._labels is None and w.target._labels is None
    assert w._table is None
    assert payload["pairs"] == [list(pair) for pair in w.table]


@pytest.mark.parametrize("g1,g2,size", [
    ("Z + C12", "Z + C3", {"radius": 70}),
    ("C4^inf", "C2^inf", {"depth": 6}),
])
def test_tower_chains_build_no_label_tuple(g1, g2, size, monkeypatch):
    """Oscillation between towers and their ball claims group points by
    coordinate keys, so building, verifying and serializing these chains
    makes no label tuple of any space."""
    built = []
    labels = FiniteSpace.labels

    def traced(space):
        if space._labels is None:
            built.append(len(space))
        return labels.fget(space)

    monkeypatch.setattr(FiniteSpace, "labels", property(traced))
    w = cli_chain(iso_verdict(g1, g2), **size)
    assert verify_witness(w).ok
    w.to_json()
    assert built == []


# ---------------------------------------------------------------------------
# factorization and the claim checks against the label-tuple code


def old_label_add(rule, a, b):
    return tuple((x + y) % o if o else x + y for x, y, o in zip(a, b, rule.orders))


def old_factorization(space, epsilon):
    """The staged factorization: each newly connected component is a
    translate of mapped ones, found by adding label tuples."""
    eps = float(epsilon)
    if eps < 0:
        raise ValueError("epsilon must be >= 0")
    if not isinstance(space.rule, SupRule):
        raise ValueError("factorization needs a group-structured space")
    quotient, part = quotient_with_projection(space, eps)
    if not isinstance(quotient.rule, SupRule):
        raise ValueError("factorization needs a structural quotient at this scale")
    base = space.basepoint
    labels, at = space.labels, index(space)
    base_block = int(part.point_block[base])
    fiber_idx = sorted(blocks(part)[base_block])
    source = product_space(subspace(space, fiber_idx), quotient)
    mapping = {(y, base_block): y for y in fiber_idx}
    covered = set(fiber_idx)
    radius = float(space.inner_radius)
    if not math.isfinite(radius):
        radius = float(np.max(space.base_dists)) if len(space) > 1 else eps
    scales = [eps + k for k in range(1, int(math.floor(radius - eps + _TOL)) + 1)]
    if not scales or scales[-1] < radius - _TOL:
        scales.append(radius)
    dbase = space.base_dists
    prev_scale = eps
    for scale in scales:
        if len(covered) == len(space):
            break
        cur = epsilon_components(space, scale)
        component = blocks(cur)[int(cur.point_block[base])]
        fresh = [i for i in component if i not in covered]
        if fresh:
            prev = epsilon_components(space, prev_scale)
            group_ids = sorted({int(prev.point_block[i]) for i in fresh})

            def rep_key(i):
                dev = tuple(abs(x - y) for x, y in zip(labels[i], labels[base]))
                return (float(dbase[i]), dev, labels[i])

            reps, prev_blocks = [], blocks(prev)
            for gid in group_ids:
                x = min(prev_blocks[gid], key=rep_key)
                reps.append((float(dbase[x]), labels[x], x))
            snapshot = list(mapping.items())
            for _, _, x in sorted(reps):
                for (y, zb), w in snapshot:
                    wi = at.get(old_label_add(space.rule, labels[w], labels[x]))
                    if wi is None:
                        continue
                    key = (y, int(part.point_block[wi]))
                    if key not in mapping:
                        mapping[key] = wi
                        covered.add(wi)
        covered.update(component)
        prev_scale = scale
    ys, zbs = np.asarray(list(mapping), dtype=np.int64).T
    si = np.searchsorted(fiber_idx, ys) * len(quotient) + zbs
    pairs = list(zip(si.tolist(), mapping.values()))
    claims = ({"kind": "per-component-isometry", "epsilon": eps},)
    return old_finish(source, space, pairs, claims, context="factorization")


def old_isometry_claim(w, claim, si, ti, out):
    split = w.source.rule.split
    if split is None:
        out.append("per-component-isometry claim on a non-product source")
        return
    eps = float(claim.get("epsilon", 0))
    part = epsilon_components(w.target, eps)
    # source components held to cover their target components: those
    # with every point inside the validity region
    inside = {i for i in range(len(w.source))
              if distance(w.source, w.source.basepoint, i) <= w.validity_radius + _TOL}
    src_part = epsilon_components(w.source, eps)
    whole = [set(blk) <= inside for blk in blocks(src_part)]
    part_blocks = blocks(part)
    groups = {}
    for k in range(len(si)):
        groups.setdefault(w.source.labels[si[k]][split:], []).append(k)
    for key, members in groups.items():
        pairs = ((a, b) for i, a in enumerate(members) for b in members[i + 1:])
        for a, b in pairs:
            ds, dt = distance(w.source, si[a], si[b]), distance(w.target, ti[a], ti[b])
            if abs(ds - dt) > _TOL:
                out.append(f"slice {key}: images of {w.source.labels[si[a]]} and "
                           f"{w.source.labels[si[b]]} are at distance {float(dt)}, "
                           f"not {float(ds)}")
                break
        hit = {int(part.point_block[ti[k]]) for k in members}
        size = len(part_blocks[next(iter(hit))])
        if len(hit) > 1:
            out.append(f"slice {key}: image spans {len(hit)} target components")
        elif len(members) != size and all(whole[src_part.point_block[si[k]]] for k in members):
            out.append(f"slice {key}: image covers {len(members)} of {size} points of "
                       f"its target component")


def old_ball_claim(w, claim, si, ti, out):
    img_of = dict(zip(si.tolist(), ti.tolist()))
    for ru, rv in claim.get("pairs", ()):
        psrc = epsilon_components(w.source, float(ru))
        ptgt = epsilon_components(w.target, float(rv))
        tgt_sizes = [len(b) for b in blocks(ptgt)]
        for block in blocks(psrc):
            img = [img_of[i] for i in block if i in img_of]
            if not img:
                continue
            per_tgt = {}
            for t in img:
                tb = int(ptgt.point_block[t])
                per_tgt[tb] = per_tgt.get(tb, 0) + 1
            partial = [tb for tb, c in per_tgt.items() if c != tgt_sizes[tb]]
            if partial and len(img) == len(block):
                out.append(f"ball at {w.source.labels[block[0]]} (scale {ru}): image is "
                           f"not a union of target balls at scale {rv}")
                break


def old_multiplicity(w, epsilon):
    split = w.source.rule.split
    if split is None:
        raise ValueError("source of the witness is not a product")
    d = w.source.base_dists
    part = epsilon_components(w.target, float(epsilon))
    slices = {}
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


FACTORED = [
    *(build_truncation(parse_group(g), radius=r)
      for g in ["Z + C2", "Z + C3", "Z^2 + C2", "C2^inf", "C3^inf", "Z + C6", "Z + C2^inf",
                "Z + C2 + C3", "C4^inf", "Z", "C6 + C2^inf"] for r in (2, 5)),
    tower_space([2, 3]), tower_space([2, 2, 2]), tower_space([3, 2], levels=[1, 3]),
    canonical_ultrametric(FactorFunction.from_dict({2: 2, 3: 1}), 3, 97),
    product_space(zball(3), tower_space([2], levels=[5])),
    product_space(tower_space([2]), build_truncation(parse_group("Z + C3"), radius=3)),
    product_space(zball(2), tower_space([2, 3])),
]


@pytest.mark.parametrize("space", FACTORED, ids=repr)
@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0])
def test_factorization_matches_the_staged_code(space, eps):
    """The relabel gives the staged table wherever the staged loop covers
    the space; where it stopped short (at the inner radius), the relabel
    maps a superset with the same validity radius and moduli."""
    new = outcome(witness_mod.factorization_witness, space, eps)
    old = outcome(old_factorization, space, eps)
    if isinstance(old, str) or len(old) == len(space):
        assert_same(new, old)
    else:
        assert set(old.table) < set(new.table)
        assert new.validity_radius == old.validity_radius
        assert new.forward_moduli == old.forward_moduli
        assert new.backward_moduli == old.backward_moduli
        assert new.source == old.source and new.claims == old.claims
    if not isinstance(new, str):
        assert verify_witness(new).violations == verify_witness(old).violations


def test_factorization_maps_more_than_the_staged_code_past_the_inner_radius():
    space = product_space(zball(3), tower_space([2], levels=[5]))
    for eps in (1.0, 4.0):
        new, old = witness_mod.factorization_witness(space, eps), old_factorization(space, eps)
        assert (len(new), len(old), new.validity_radius) == (14, 7, 3.0)


def test_factorization_of_the_plane_needs_a_structural_quotient():
    with pytest.raises(ValueError, match="structural quotient"):
        witness_mod.factorization_witness(example31_fixture(1, 0.5, 3), 1.0)


def perturbed(rnd, w):
    """The table of w with images swapped, entries dropped and now and then
    a source mapped twice, as (si, ti)."""
    si, ti = w.src.copy(), w.dst.copy()
    for _ in range(rnd.randint(0, 3)):
        a, b = rnd.randrange(len(ti)), rnd.randrange(len(ti))
        ti[[a, b]] = ti[[b, a]]
    keep = np.asarray([rnd.random() > 0.2 for _ in si]) if rnd.randint(0, 1) else np.ones(
        len(si), dtype=bool)
    si, ti = si[keep], ti[keep]
    if len(si) and rnd.randint(0, 4) == 0:
        si = np.append(si, si[rnd.randrange(len(si))])
        ti = np.append(ti, rnd.randrange(len(w.target)))
    return si, ti


ALIGNED = [((2, 2, 2), (8,), None), ((2, 3, 2, 3), (6, 6), None), ((2, 2, 3), (3, 4), None),
           ((4, 4), (2, 2, 2, 2), None), ((2,) * 6, (4,) * 3, None), ((2, 3), (6,), (1,))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALIGNED), st.randoms(use_true_random=False))
def test_ball_claim_matches_the_dict_loop(case, rnd):
    uo, vo, vl = case
    w = witness_mod.tower_alignment_witness(tower_space(uo), tower_space(vo, levels=vl)).witness
    claim = w.claims[0]
    si, ti = perturbed(rnd, w)
    new, old = [], []
    witness_mod._check_ball_claim(w, claim, si, ti, new)
    old_ball_claim(w, claim, si, ti, old)
    event("violation" if old else "clean")
    assert new == old


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FACTORED[:12] + FACTORED[-1:]), st.sampled_from([1.0, 2.0, 3.0]),
       st.randoms(use_true_random=False))
def test_isometry_claim_matches_the_dict_loop(space, eps, rnd):
    w = outcome(witness_mod.factorization_witness, space, eps)
    if isinstance(w, str):
        return
    si, ti = perturbed(rnd, w)
    new, old = [], []
    witness_mod._check_isometry_claim(w, w.claims[0], si, ti, new)
    old_isometry_claim(w, w.claims[0], si, ti, old)
    event("violation" if old else "clean")
    assert new == old


def multiplicity_cases():
    al = witness_mod.tower_alignment_witness(tower_space([2, 2, 2]), tower_space([8], levels=[2]))
    inv = witness_mod.invert_witness(witness_mod.absorption_witness(3, 30))
    yield product_witness(al.witness, relabel_witness(k_point_space(1), k_point_space(1)))
    yield inv
    yield witness_mod.factorization_witness(build_truncation(parse_group("Z + C3"), radius=5), 1)
    yield witness_mod.factorization_witness(tower_space([2, 3, 2]), 2)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        dst = inv.dst.copy()
        picks = rng.choice(len(dst), size=3, replace=False)
        dst[picks] = dst[picks[::-1]]
        yield dataclasses.replace(inv, table=tuple(zip(inv.src.tolist(), dst.tolist())))


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 3.0])
def test_component_multiplicity_matches_the_dict_loop(eps):
    for w in multiplicity_cases():
        assert outcome(witness_mod.component_multiplicity, w, eps) == outcome(
            old_multiplicity, w, eps)


def test_tower_alignment_verifies_without_label_tuples(monkeypatch):
    """The ball claim and the moduli of a tower alignment are checked on
    index and coordinate arrays: verification makes no label tuple and no
    tuple table."""
    u, v = tower_space([2] * 8), tower_space([4] * 4)
    w = witness_mod.tower_alignment_witness(u, v).witness
    built = []
    labels = FiniteSpace.labels
    monkeypatch.setattr(FiniteSpace, "labels", property(
        lambda space: built.append("labels") or labels.fget(space)))
    assert verify_witness(w).ok
    assert built == [] and w._table is None


def test_factorization_and_plane_jobs_make_no_label_tuples(monkeypatch, capsys):
    """Subspaces of coordinate-built spaces, and plane fixtures, are built
    from coordinate rows: a factorization witness on Z + C2^inf (2,080
    points) and its verification, and a plane step and components job,
    make no label tuple."""
    built = []
    prop = FiniteSpace.labels
    monkeypatch.setattr(FiniteSpace, "labels", property(
        lambda space: built.append(len(space)) or prop.fget(space)))
    sp = build_truncation(parse_group("Z + C2^inf"), radius=32)
    w = witness_mod.factorization_witness(sp, 1.0)
    assert len(sp) == 2080 and verify_witness(w).ok
    assert main(["step", "example31:6:0.05"]) == 0
    assert main(["components", "example31:6:0.05", "--epsilon", "1.0"]) == 0
    assert '"representatives": [' in capsys.readouterr().out
    assert built == []

