"""The metric-rule protocol: every path a rule chooses, checked against a
brute-force oracle built from the scalar distance of tests/oracles.py, on the
package's rules and on a dense table that takes the oracles' paths, a count
of the places in the package that still test a rule's type, checks that
points have one store and that removed rule methods stay gone, and the
derived `structural` property against a brute-force box test."""

from __future__ import annotations

import ast
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiso.analysis import oscillation
from coarseiso.groups import parse_group
from coarseiso.spaces import (
    FiniteSpace,
    MetricRule,
    SupRule,
    build_truncation,
    epsilon_components,
    example31_fixture,
    k_point_space,
    product_space,
    quotient_with_projection,
    subspace,
    tower_space,
    zball,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from dense_rule import as_dense  # noqa: E402
from oracles import distance, graph_components, prim_chain  # noqa: E402

# the three kinds of space the rules hold, a structural quotient, dense
# tables of a plane sample and of the sup subset, and each package rule's
# space rebuilt by the constructor from its label tuples. The sup subset
# fills no box, so its rule refuses its chains and components (NO_BOX), and
# its table serves them
SPACES = {
    "sup-box": lambda: product_space(build_truncation(parse_group("Z + C3"), radius=3),
                                     tower_space([2], levels=[5])),
    "sup-subset": lambda: subspace(zball(4, 2), [i for i in range(81) if i % 7 not in (2, 3)]),
    "plane": lambda: example31_fixture(2, 0.2, 3),
    "sup-quotient": lambda: quotient_with_projection(
        product_space(zball(2), tower_space([2, 3, 2, 3, 2])), 2)[0],
    "dense": lambda: as_dense(example31_fixture(2, 0.2, 3)),
    "dense-sup": lambda: as_dense(SPACES["sup-subset"]()),
}


def rebuilt(sp: FiniteSpace) -> FiniteSpace:
    """The space made again from its label tuples, rule, basepoint and
    radius: the sequence-of-rows route of the constructor."""
    return FiniteSpace(sp.labels, sp.rule, sp.basepoint, sp.inner_radius)


REBUILT = {f"{kind}-labels": kind for kind in ("sup-subset", "plane", "sup-quotient")}
SPACES.update({name: lambda kind=kind: rebuilt(SPACES[kind]())
               for name, kind in REBUILT.items()})


@pytest.fixture(scope="module", params=list(SPACES))
def case(request):
    sp = SPACES[request.param]()
    n = len(sp)
    d = np.array([[float(distance(sp, i, j)) for j in range(n)] for i in range(n)])
    return request.param, sp, d


def test_the_four_kinds_are_what_they_say(case):
    name, sp, _ = case
    kind = REBUILT.get(name, name)
    assert type(sp.rule).__name__ == {"sup-box": "SupRule", "sup-subset": "SupRule",
                                      "sup-quotient": "SupRule", "plane": "PlaneRule",
                                      "dense": "DenseRule", "dense-sup": "DenseRule"}[kind]
    if kind.startswith("sup"):
        assert sp.structural == (kind != "sup-subset")
    assert len(sp) >= 30
    if name in REBUILT:
        built = SPACES[kind]()
        assert sp == built and sp.labels == built.labels
        assert np.array_equal(sp.coords, built.coords) and sp.coords.dtype == built.coords.dtype


def test_distance_blocks_match_the_scalar_distance(case):
    _, sp, d = case
    rng = np.random.default_rng(1)
    assert np.array_equal(sp.dists_block(slice(None), slice(None)), d)
    assert np.array_equal(sp.dmat(), d)
    for i in (0, sp.basepoint, len(sp) - 1):
        assert np.array_equal(sp.dists_from(i), d[i])
    rows, cols = rng.choice(len(sp), 7), rng.choice(len(sp), 11)
    assert np.array_equal(sp.dists_block(rows, cols), d[np.ix_(rows, cols)])
    assert np.array_equal(sp.dists_block(slice(3, 9), cols), d[3:9][:, cols])


def test_oscillation_from_one_point_is_the_image_diameter(case):
    # every source point is the one point, so the forward value is the
    # largest distance between images
    _, sp, d = case
    rng = np.random.default_rng(2)
    subsets = [np.arange(len(sp)), np.array([sp.basepoint]), np.zeros(0, dtype=np.int64)]
    subsets += [np.sort(rng.choice(len(sp), size, replace=False)) for size in (2, 5, 17)]
    for idx in subsets:
        want = float(d[np.ix_(idx, idx)].max()) if len(idx) > 1 else 0.0
        point = np.zeros(len(idx), dtype=np.int64)
        assert oscillation(k_point_space(1), sp, point, idx, [0.0]) == ([want], [0.0])


def cophenetic(d: np.ndarray) -> np.ndarray:
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    if len(d) < 2:
        return np.zeros_like(d)
    return squareform(cophenet(linkage(squareform(d, checks=False), "single")))


NO_BOX = r"^\d+ points of FiniteSpace\(.*\) fill no box: a sup rule reads chains and"


def refused(sp, subset) -> bool:
    """Whether a sup rule refuses the subset's chain, as it fills no box."""
    if not isinstance(sp.rule, SupRule) or sp.rule.fills_box(sp.coords[subset]):
        return False
    with pytest.raises(ValueError, match=NO_BOX):
        sp.rule.chain(sp, subset)
    return True


def test_chain_gives_the_single_linkage_heights(case):
    # basepoint balls, which the structural sup chain needs, and the whole space
    _, sp, d = case
    for radius in sorted(set(d[sp.basepoint].tolist()))[::3] + [math.inf]:
        subset = np.flatnonzero(d[sp.basepoint] <= radius)
        if refused(sp, subset):
            continue
        order, gap = sp.rule.chain(sp, subset)
        assert sorted(order.tolist()) == list(range(len(subset))) and gap[0] == math.inf
        coph = np.zeros((len(subset), len(subset)))
        for a in range(len(order)):
            coph[order[a], order[a + 1:]] = np.maximum.accumulate(gap[a + 1:])
        assert np.array_equal(np.maximum(coph, coph.T), cophenetic(d[np.ix_(subset, subset)]))


def test_chain_of_no_points_is_empty(case):
    # sup spaces, tables (the generic chain) and plane samples (the band
    # tree) alike: no order and no gap
    _, sp, _ = case
    order, gap = sp.rule.chain(sp, np.zeros(0, dtype=np.int64))
    assert order.shape == gap.shape == (0,)


def test_components_are_those_of_the_threshold_graph(case):
    from scipy.sparse.csgraph import connected_components

    _, sp, d = case
    values = sorted(set(d.ravel().tolist()))
    if isinstance(sp.rule, SupRule) and not sp.structural:
        with pytest.raises(ValueError, match=NO_BOX):
            epsilon_components(sp, 1)
        return
    for eps in [0.0, *values[1::4], values[-1], math.inf]:
        labels = connected_components(d <= eps, directed=False)[1]
        blocks = epsilon_components(sp, eps).point_block
        assert np.array_equal(blocks[:, None] == blocks, labels[:, None] == labels)


# ---------------------------------------------------------------------------
# rule-type tests in the package

RULE_CLASSES = {"SupRule", "PlaneRule"}
# the most places outside the rule classes that may test a rule's type:
# the input precondition of tower alignment
TYPE_TEST_LIMIT = 1


def _mentions(node: ast.AST, names: set) -> bool:
    return any((isinstance(n, ast.Name) and n.id in names)
               or (isinstance(n, ast.Attribute) and n.attr in names) for n in ast.walk(node))


def _on_rule(node: ast.AST) -> bool:
    """Whether an expression names a rule: `rule`, `x.rule`, `left_rule`."""
    return (isinstance(node, ast.Name) and node.id.endswith("rule")) or (
        isinstance(node, ast.Attribute) and node.attr.endswith("rule"))


def _kind_read(node: ast.AST) -> bool:
    return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) \
        and node.slice.value == "kind"


def rule_type_tests(source: str) -> list[int]:
    """Lines outside the bodies of the rule classes that test a rule's
    type, in any spelling: isinstance or issubclass against a rule class,
    type(...), __class__ or __name__, a comparison with a rule class name,
    a comparison of a descriptor's "kind", a hasattr or getattr probe, or a
    tag attribute read off a rule (kind, layout, tag, is_*)."""
    lines: set[int] = set()

    def probe(node: ast.AST, kinds: set) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name in ("isinstance", "issubclass") and len(node.args) == 2:
                return _mentions(node.args[1], RULE_CLASSES | {"MetricRule"})
            return name in ("hasattr", "getattr") or (name == "type" and len(node.args) == 1)
        if isinstance(node, ast.Attribute):
            if node.attr in ("__class__", "__name__", "__qualname__"):
                return True
            tag = node.attr in ("kind", "layout", "tag") or (
                node.attr.startswith("is_") and node.attr != "is_ultrametric")
            return tag and _on_rule(node.value)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            return any((isinstance(o, ast.Constant) and o.value in RULE_CLASSES)
                       or _kind_read(o) or (isinstance(o, ast.Name) and o.id in kinds)
                       for o in operands)
        return False

    def visit(node: ast.AST, kinds: set) -> None:
        if isinstance(node, ast.ClassDef) and node.name in RULE_CLASSES:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # names bound to a descriptor's kind inside this function
            kinds = {
                t.id for n in ast.walk(node) if isinstance(n, ast.Assign) and _kind_read(n.value)
                for t in n.targets if isinstance(t, ast.Name)}
        if probe(node, kinds):
            lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, kinds)

    visit(ast.parse(source), set())
    return sorted(lines)


@pytest.mark.parametrize("snippet", [
    "isinstance(space.rule, PlaneRule)",
    "isinstance(r, (SupRule, PlaneRule))",
    "issubclass(cls, spaces.MetricRule)",
    "type(space.rule) is PlaneRule",
    "space.rule.__class__",
    "type(rule).__name__",
    "name == 'PlaneRule'",
    "space.rule.descriptor()['kind'] != 'plane'",
    "def f(space):\n    k = space.rule.descriptor()['kind']\n    return k == 'table'",
    "def _rule_from_descriptor(desc):\n    return desc['kind'] == 'tower'",
    "hasattr(space.rule, 'matrix')",
    "getattr(space.rule, 'orders', None)",
    "space.rule.layout == 'tower'",
    "space.rule.kind",
    "rule.is_table",
])
def test_every_spelling_of_a_type_test_is_counted(snippet):
    assert len(rule_type_tests(snippet)) == 1


def test_rule_methods_and_other_reads_are_not_counted():
    source = ("space.rule.is_ultrametric\nargs.format == 'table'\nkind = claim.get('kind')\n"
              "kind == 'ball-respecting'\nspace.rule.chain(space, idx)\n"
              "class SupRule:\n    def split(self):\n        return isinstance(self, SupRule)\n")
    assert rule_type_tests(source) == []


def test_rule_classes_are_the_package_s_rules():
    # the rule classes the scanner skips are every MetricRule of the
    # package; the dense rule of the tests is none of them
    package = {c.__name__ for c in MetricRule.__subclasses__()
               if c.__module__.startswith("coarseiso.")}
    assert RULE_CLASSES == package


def test_few_places_test_a_rule_type():
    package = Path(__file__).resolve().parent.parent / "src" / "coarseiso"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in rule_type_tests(path.read_text())]
    assert len(found) <= TYPE_TEST_LIMIT, found


# ---------------------------------------------------------------------------
# one store of points

# label paths a space no longer has: its points are the rows of one array
REMOVED_LABEL_PATHS = {"check_labels", "coords_of", "label_rows"}


def label_store_reads(source: str) -> list[int]:
    """Lines that define a removed label path (a function or an assigned
    name), or read the label-tuple cache `_labels` outside FiniteSpace."""
    lines: set[int] = set()

    def visit(node: ast.AST, in_space: bool) -> None:
        in_space = in_space or (isinstance(node, ast.ClassDef) and node.name == "FiniteSpace")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in REMOVED_LABEL_PATHS:
            lines.add(node.lineno)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_mentions(t, REMOVED_LABEL_PATHS) for t in targets):
                lines.add(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr == "_labels" and not in_space:
            lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_space)

    visit(ast.parse(source), False)
    return sorted(lines)


@pytest.mark.parametrize("snippet", [
    "class PlaneRule:\n    def label_rows(self, space):\n        return space.coords",
    "def coords_of(labels):\n    return labels",
    "class SupRule:\n    check_labels = None",
    "rule.coords_of = len",
    "if space._labels is None:\n    pass",
    "class Other:\n    def f(self, space):\n        return space._labels",
])
def test_every_label_path_is_counted(snippet):
    assert len(label_store_reads(snippet)) == 1


def test_reads_inside_the_space_are_not_counted():
    source = ("class FiniteSpace:\n    def labels(self):\n        return self._labels\n"
              "space.labels\nspace.label_lists()\nrule.checked_coords(rows)\n")
    assert label_store_reads(source) == []


def test_no_module_keeps_a_second_label_store():
    package = Path(__file__).resolve().parent.parent / "src" / "coarseiso"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in label_store_reads(path.read_text())]
    assert found == []


# ---------------------------------------------------------------------------
# rule methods that are gone

# oscillation's keyed and window routes read sup_rows, which replaced
# level_rows, and take no diameter; dists_block and subspace read the rows
# and the rule of the space, with no kernel_rows or restrict hook; the
# scalar distance is an oracle of tests/oracles.py
REMOVED_RULE_METHODS = {"diameter", "delta_blocks", "level_rows", "kernel_rows", "restrict",
                        "distance"}


def removed_method_uses(source: str) -> list[int]:
    """Lines that define a removed rule method (a function or an assigned
    name) or read one off a rule."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in REMOVED_RULE_METHODS:
            lines.add(node.lineno)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_mentions(t, REMOVED_RULE_METHODS) for t in targets):
                lines.add(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr in REMOVED_RULE_METHODS \
                and _on_rule(node.value):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("snippet", [
    "class SupRule:\n    def diameter(self, space, idx):\n        return 0.0",
    "class MetricRule:\n    delta_blocks = None",
    "fwd = max(target.rule.diameter(target, idx) for idx in blocks)",
    "keys = source.rule.delta_blocks",
    "rows = space.rule.level_rows(space, idx)",
    "rows = space.rule.kernel_rows(space, idx)",
    "class MetricRule:\n    def restrict(self, space, idx):\n        return self",
    "class PlaneRule:\n    def distance(self, space, i, j):\n        return 0.0",
    "return space.rule.distance(space, i, j)",
])
def test_every_removed_rule_method_is_counted(snippet):
    assert len(removed_method_uses(snippet)) == 1


def test_other_diameters_are_not_counted():
    source = ("cover.mesh\nspace.rule.sup_rows(space, idx)\n"
              "def chain(self, space, subset):\n    return self.diameter_of(subset)\n")
    assert removed_method_uses(source) == []


def test_no_module_keeps_a_removed_rule_method():
    package = Path(__file__).resolve().parent.parent / "src" / "coarseiso"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in removed_method_uses(path.read_text())]
    assert found == []


# ---------------------------------------------------------------------------
# the structural property, derived from the rule and the points


def box_by_enumeration(sp) -> bool:
    """Whether the labels are exactly every free value in its coordinate's
    range combined with every cyclic tuple that occurs, built with
    itertools.product; True under every other rule."""
    if not isinstance(sp.rule, SupRule):
        return True
    free = [c for c, o in enumerate(sp.rule.orders) if o == 0]
    cyclic = [c for c, o in enumerate(sp.rule.orders) if o]
    labels = set(sp.labels)
    ranges = [range(min(l[c] for l in labels), max(l[c] for l in labels) + 1) for c in free]
    tuples = {tuple(l[c] for c in cyclic) for l in labels}
    filled = set()
    for values, rest in itertools.product(itertools.product(*ranges), tuples):
        row = [0] * len(sp.rule.orders)
        for c, v in zip(free + cyclic, values + rest):
            row[c] = v
        filled.add(tuple(row))
    return filled == labels


def chain_runs(order, gap, eps):
    """Run of each subset position when the chain is cut where gap > eps."""
    runs = np.empty(len(order), dtype=np.int64)
    runs[order] = np.cumsum(gap > eps)
    return runs


def same_partition(a, b) -> bool:
    return np.array_equal(a[:, None] == a, b[:, None] == b)


def assert_keys_match_the_oracles(sp):
    """On a structural space the rule's components equal the threshold
    graph's, and its chain of each basepoint ball (of any subset on an
    ultrametric) has the runs of Prim's chain at every gap."""
    assert sp.structural
    base = sp.dists_from(sp.basepoint)
    subsets = [np.flatnonzero(base <= r) for r in sorted(set(base.tolist()))]
    if sp.ultrametric:
        subsets.append(np.arange(0, len(sp), 2))
    values = sorted(set(sp.dmat().ravel().tolist()))
    for eps in [*values, 0.5, math.inf]:
        assert same_partition(sp.rule.components(sp, eps), graph_components(sp, eps))
    for subset in subsets:
        keyed, generic = sp.rule.chain(sp, subset), prim_chain(sp, subset)
        for eps in sorted(set(keyed[1].tolist()) | set(generic[1].tolist()) | {0.0}):
            assert same_partition(chain_runs(*keyed, eps), chain_runs(*generic, eps))


def test_structural_is_the_box_test(case):
    _, sp, _ = case
    assert sp.structural == box_by_enumeration(sp)
    if sp.structural and isinstance(sp.rule, SupRule):
        assert_keys_match_the_oracles(sp)


SUP_PARENTS = [
    zball(3, 2),
    build_truncation(parse_group("Z + C3 + C2"), radius=2),
    product_space(zball(2), tower_space([2, 3])),
    tower_space([2, 3, 2]),
    # products whose levels coincide across their factors
    product_space(tower_space([2], levels=[2]), tower_space([3], levels=[2])),
    product_space(zball(2), k_point_space(3)),
    product_space(tower_space([2, 2], levels=[1, 3]), zball(2)),
]


@st.composite
def sup_subsets(draw):
    """A sub-box of a parent (an interval of each free coordinate times a
    set of its cyclic tuples), or any subset of one."""
    sp = draw(st.sampled_from(SUP_PARENTS))
    coords = sp.coords
    if draw(st.booleans()):
        keep = np.ones(len(sp), dtype=bool)
        cyclic = [c for c, o in enumerate(sp.rule.orders) if o]
        for c, o in enumerate(sp.rule.orders):
            if o == 0:
                lo, hi = sorted(draw(st.lists(st.sampled_from(sorted(set(coords[:, c]))),
                                              min_size=2, max_size=2)))
                keep &= (lo <= coords[:, c]) & (coords[:, c] <= hi)
        tuples = sorted({tuple(row) for row in coords[:, cyclic].tolist()})
        chosen = draw(st.sets(st.sampled_from(tuples), min_size=1)) if tuples else set()
        keep &= np.array([tuple(row) in chosen for row in coords[:, cyclic].tolist()]) \
            if tuples else True
        picked = np.flatnonzero(keep).tolist()
    else:
        picked = sorted(draw(st.sets(st.integers(0, len(sp) - 1), min_size=1)))
    base = draw(st.integers(0, len(picked) - 1))
    return FiniteSpace(sp.coords[picked], sp.rule, base, sp.inner_radius)


@settings(max_examples=80, deadline=None)
@given(sup_subsets())
def test_structural_subsets_are_the_boxes(sub):
    assert sub.structural == box_by_enumeration(sub)
    if sub.structural:
        assert_keys_match_the_oracles(sub)


# ---------------------------------------------------------------------------
# flags a space no longer takes

REMOVED_FLAGS = {"ultrametric", "structural", "coords"}


def declared_flags(source: str) -> list[int]:
    """Lines that pass FiniteSpace an ultrametric=, structural= or coords= keyword
    or more than its four positional arguments, or that define
    check_loaded (a function or an assigned name)."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _mentions(node.func, {"FiniteSpace"}) and (
                len(node.args) > 4 or any(kw.arg in REMOVED_FLAGS for kw in node.keywords)):
            lines.add(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "check_loaded":
            lines.add(node.lineno)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_mentions(t, {"check_loaded"}) for t in targets):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("snippet", [
    "FiniteSpace(labels, rule, 0, 1, ultrametric=True)",
    "spaces.FiniteSpace(labels, rule, 0, 1, structural=False)",
    "FiniteSpace(labels, rule, 0, 1, None, False)",
    "FiniteSpace(None, rule, 0, 1, coords=rows)",
    "class SupRule:\n    def check_loaded(self, space):\n        pass",
    "rule.check_loaded = len",
])
def test_every_declared_flag_is_counted(snippet):
    assert len(declared_flags(snippet)) == 1


def test_derived_flags_and_table_flags_are_not_counted():
    source = ("PlaneRule(ultrametric=True)\nFiniteSpace(rows, rule, 0, 1)\n"
              "space.structural\nspace.ultrametric\nrule.fills_box(coords)\n")
    assert declared_flags(source) == []


def test_no_module_declares_a_derived_flag():
    package = Path(__file__).resolve().parent.parent / "src" / "coarseiso"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in declared_flags(path.read_text())]
    assert found == []
