"""No module of the package imports a name it never reads. The check uses
only the standard library's ast: a name counts as read where the module
loads it, attributes and string annotations included. ``__init__.py`` is
left out, as its imports are the package's public names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coarseiso"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = _loaded(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _loaded(ast.parse(node.value, mode="eval"))
    return [name for name, _ in sorted(imported, key=lambda x: x[1]) if name not in read]


@pytest.mark.parametrize("snippet, unused", [
    ("from dataclasses import dataclass, field\n@dataclass\nclass A:\n    x: int = 0\n",
     ["field"]),
    ("import os\n", ["os"]),
    ("import os.path\n", ["os"]),
    ("import numpy as np\nnp = 1\n", ["np"]),
    ("from .spaces import zball as ball\n", ["ball"]),
    ("from typing import List\n'''List of things'''\n", ["List"]),
])
def test_every_unused_import_is_counted(snippet, unused):
    assert unused_imports(snippet) == unused


@pytest.mark.parametrize("snippet", [
    "import os.path\nos.path.join('a')\n",
    "from typing import Optional\ndef f(x: Optional[int]) -> None: ...\n",
    "from .spaces import FiniteSpace\ndef f(x: 'FiniteSpace') -> 'list[FiniteSpace]': ...\n",
    "from typing import Dict\nclass A:\n    x: 'Dict[str, int]'\n",
    "from __future__ import annotations\n",
    "import math\nprint(math.pi)\n",
])
def test_reads_are_not_counted(snippet):
    assert unused_imports(snippet) == []


def test_no_module_imports_a_name_it_never_reads():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert found and {name: names for name, names in found.items() if names} == {}
