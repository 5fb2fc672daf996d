"""The corpus of scripts/same_bytes.py, cheaply: every argv parses, and the
corpus holds every argv that tests/test_cli.py pins at module level, its
refusals and fixture edge cases (EDGE_CASES), the script's components
calls (PLANE_EDGES), every README call and the witness call of every
drawn pair (tests/test_drawn_pairs.py). Running the corpus at a
parent and at a change takes minutes, so tier-1 only checks what it would
run."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_cli  # noqa: E402
import test_drawn_pairs  # noqa: E402
from coarseiso.cli import _parser  # noqa: E402

spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "scripts" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bytes)
CORPUS = same_bytes.corpus()


def module_level_argvs(source: str, commands) -> list[tuple[str, ...]]:
    """Each tuple or list of string constants that starts with a command
    name inside a module-level assignment of the source: the argv tables
    a test module pins."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, (ast.Tuple, ast.List)) and sub.elts and all(
                        isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in sub.elts) and sub.elts[0].value in commands:
                    found.append(tuple(e.value for e in sub.elts))
    return found


def test_module_level_argvs_are_found():
    source = ("A = [(('witness', 'Z', 'Z'), 'digest'), ('step', 'Z')]\n"
              "B = {'classify': ('iso', 'Z', 'Z')}\n"
              "@pytest.mark.parametrize('argv', [('cover', 'Z')])\n"
              "def test_f(argv):\n    run(('invariants', 'Z'))\n")
    assert sorted(module_level_argvs(source, test_cli.COMMAND_FLAGS)) == [
        ("step", "Z"), ("witness", "Z", "Z")]


def test_the_corpus_holds_every_pinned_argv_and_readme_call():
    pinned = module_level_argvs((ROOT / "tests" / "test_cli.py").read_text(),
                                test_cli.COMMAND_FLAGS)
    assert len(pinned) >= 28
    assert set(pinned) | set(map(tuple, test_cli.README_CALLS)) <= set(CORPUS)
    assert len(CORPUS) == len(set(CORPUS))


def test_the_corpus_holds_every_edge_case_and_plane_edge():
    table = [argv for rows in test_cli.EDGE_CASES.values() for _, argv, _ in rows]
    assert len(table) >= 30
    assert set(table) | set(same_bytes.PLANE_EDGES) <= set(CORPUS)


def test_the_corpus_holds_every_drawn_pair():
    # the script draws at the seed and count of the drawn pairs' test
    test = ast.parse((ROOT / "tests" / "test_drawn_pairs.py").read_text())
    (call,) = [node for node in ast.walk(test) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "draws"]
    assert tuple(kw.value.value for kw in call.keywords) == same_bytes.DRAWN
    drawn = same_bytes.drawn_pair_calls(test_drawn_pairs)
    assert len(drawn) == same_bytes.DRAWN[1] and set(drawn) <= set(CORPUS)
    args = next(test_drawn_pairs.draws(*same_bytes.DRAWN))[2]
    assert drawn[0][3:] == ("--radius", str(args["radius"]), "--depth", str(args["depth"]),
                            "--prime-bound", "97", "--deltas", ",".join(map(str, args["deltas"])),
                            "--point-budget", "20000")


def test_every_corpus_argv_parses():
    # argparse exits on an argv it refuses, which fails the test
    assert len(CORPUS) > 60
    assert [_parser().parse_args(list(argv)).command for argv in CORPUS] == [
        argv[0] for argv in CORPUS]
