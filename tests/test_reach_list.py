"""The reach allow-list, scripts/reach_allow.json: the lines of
src/coarseiso that scripts/reach.py finds unrun by the CLI tests, the
acceptance criteria and one round of each benchmark workload, each with
its class and the test that runs it. Here, cheaply, every listed line
still stands in its function as often as it is listed, and names a class
and a test that exist; reach.py itself traces too slowly for tier-1."""

from __future__ import annotations

import ast
import collections
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coarseiso"
ENTRIES = json.loads((ROOT / "scripts" / "reach_allow.json").read_text())
# a refusal of outside input; a violation report of a tampered witness or
# a broken cover; the table a witness may be given in place of its arrays;
# a default of MetricRule that only the tests' dense rule or a plane space
# outside the program's paths reads; a branch of a program path that only
# other inputs take; and a dunder that only the interpreter calls
CLASSES = {"refusal", "violation", "table", "default", "branch", "dunder"}


def function_lines(path: Path) -> dict[str, list[str]]:
    """The stripped lines of each function of a module, decorators
    included, by qualified name."""
    source = path.read_text()
    lines = source.splitlines()
    out: dict[str, list[str]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[prefix + child.name] = [line.strip() for line in
                                            lines[start - 1:child.end_lineno]]
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                      else prefix)

    visit(ast.parse(source), "")
    return out


def test_each_listed_line_stands_in_its_function():
    functions = {path.name: function_lines(path) for path in PACKAGE.glob("*.py")}
    listed = collections.Counter((e["file"], e["function"], e["text"]) for e in ENTRIES)
    missing = [key for key, count in listed.items()
               if functions[key[0]].get(key[1], []).count(key[2]) < count]
    assert missing == []


def test_each_entry_names_a_class_and_a_test_that_exist():
    wrong = []
    for entry in ENTRIES:
        path, _, name = (entry["reached_by"] or "").partition("::")
        name = name.split("[")[0].split("::")[-1]
        if not (entry["class"] in CLASSES and name
                and f"def {name}(" in (ROOT / path).read_text()):
            wrong.append(entry)
    assert wrong == []
