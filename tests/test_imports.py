"""No module of the package imports a name it never reads, no module
defines a name or a method that the program never reads, and no module
imports scipy, nor does a generic chain load it. The checks use only the
standard library's ast: a name counts as read where a module loads it,
attributes and string annotations included.
``__init__.py`` may import names it does not read, as its imports are the
package's public names; they are the names of ``__all__``, and importing a
name there is no read of it.

Methods and properties are read by attribute name, as Python finds them:
a name shared across classes, or with other objects (``to_json`` of every
report, ``index`` of a list, ``blocks`` of a cover), counts as read for all
of them. Dunders are exempt, as the interpreter calls them."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coarseiso"
# module-level names the interpreter and packaging read, not the program
EXEMPT = {"__all__", "__version__"}


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


def _annotation_reads(tree: ast.AST) -> set:
    """The names loaded inside string annotations."""
    read = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _loaded(ast.parse(node.value, mode="eval"))
    return read


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = _loaded(tree) | _annotation_reads(tree)
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


def defined_names(source: str) -> list[str]:
    """The module-level function, class and assigned names of the source,
    each once, in order of first definition."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return list(dict.fromkeys(names))


def read_names(source: str) -> set:
    """The names the source reads: names it loads (string annotations
    included), attribute names, and the names a from-import takes."""
    tree = ast.parse(source)
    read = _loaded(tree) | _annotation_reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


def unread_names(package: dict, outside: list = ()) -> list[str]:
    """module.name for each name a package module (name: source) defines
    that neither the package's other modules than __init__ nor an outside
    source reads, in module order."""
    readers = [source for module, source in package.items() if module != "__init__"]
    read = set().union(*map(read_names, [*readers, *outside])) | EXEMPT
    return [f"{module}.{name}" for module, source in package.items()
            for name in defined_names(source) if name not in read]


@pytest.mark.parametrize("snippet, unread", [
    ("def f():\n    return 1\n", ["m.f"]),
    ("def f():\n    return f()\n", []),  # a function may read itself
    ("class A:\n    pass\nA.x = 1\n", []),
    ("X = 1\nX = 2\nX += 1\n", ["m.X"]),  # stores and updates read nothing
    ("a, (b, c) = 1, (2, 3)\nprint(a, c)\n", ["m.b"]),
    ("X: int = 1\nY: 'X'\n", ["m.Y"]),  # a string annotation reads its names
    ("def f(x: 'A') -> None: ...\nclass A: ...\nf\n", []),
    ("__all__ = []\n__version__ = '1'\n", []),
    ("class A:\n    def g(self): ...\n", ["m.A"]),  # methods are not module names
    ("import os\nos.X = 1\nX = 2\n", []),  # an attribute name counts
    ("'X'\nX = 1\n", ["m.X"]),  # text is no read
    # a re-export is no read: __init__ imports f, and nothing reads it
    ({"m": "def f(): ...\n", "__init__": "from .m import f\n__all__ = ['f']\n"}, ["m.f"]),
])
def test_what_counts_as_a_read(snippet, unread):
    package = {"m": snippet} if isinstance(snippet, str) else snippet
    assert unread_names(package) == unread


def test_a_name_read_by_another_module_is_read():
    package = {"m": "def f(): ...\ndef g(): ...\nH = 1\nJ = 2\n",
               "n": "from .m import f\n", "__init__": "from .m import g, J\n"}
    assert unread_names(package, ["import m\nm.H\n"]) == ["m.g", "m.J"]


def test_every_defined_name_is_read():
    # the program reads the package's names: its other modules than
    # __init__, the benchmark harness and the acceptance criteria; the unit
    # tests, which may call anything, do not count
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")]
    outside.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unread_names(package, outside) == []


def defined_methods(source: str) -> list[str]:
    """Class.name for each function (method, property or static method)
    that a module-level class of the source defines, dunders excepted, in
    order of definition."""
    return [f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def attribute_reads(source: str) -> set:
    """The attribute names the source reads: a bare name is a variable,
    not a method."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def unread_methods(package: dict, outside: list = ()) -> list[str]:
    """module.Class.name for each method a package module defines whose
    name neither the package's other modules than __init__, nor the module
    itself, nor an outside source reads as an attribute, in module order."""
    readers = [source for module, source in package.items() if module != "__init__"]
    read = set().union(*map(attribute_reads, [*readers, *outside]))
    return [f"{module}.{method}" for module, source in package.items()
            for method in defined_methods(source) if method.split(".")[1] not in read]


@pytest.mark.parametrize("snippet, unread", [
    ("class A:\n    def f(self): ...\n", ["m.A.f"]),
    ("class A:\n    def f(self): ...\nA().f()\n", []),
    ("class A:\n    @property\n    def p(self): ...\n", ["m.A.p"]),
    ("class A:\n    @staticmethod\n    def s(): ...\nA.s\n", []),
    ("class A:\n    def __eq__(self, other): ...\n    def __hash__(self): ...\n", []),
    # a name shared across classes, or with another object, is read for all
    ("class A:\n    def to_json(self): ...\nclass B:\n    def to_json(self): ...\n"
     "B().to_json()\n", []),
    ("class A:\n    def index(self): ...\n[1].index(1)\n", []),
    ("class A:\n    def f(self): ...\n'f'\n", ["m.A.f"]),  # text is no read
    ("class A:\n    def d(self): ...\nd = 1\nprint(d)\n", ["m.A.d"]),  # a variable is no read
    ("def f():\n    class A:\n        def g(self): ...\n", []),  # nested classes are not scanned
    # __init__ reads nothing; another module's read counts
    ({"m": "class A:\n    def f(self): ...\n", "__init__": "from .m import A\nA.f\n"},
     ["m.A.f"]),
    ({"m": "class A:\n    def f(self): ...\n", "n": "def g(a):\n    return a.f()\n"}, []),
])
def test_what_counts_as_a_method_read(snippet, unread):
    package = {"m": snippet} if isinstance(snippet, str) else snippet
    assert unread_methods(package) == unread


def test_every_method_is_read():
    # the same readers as test_every_defined_name_is_read
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")]
    outside.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unread_methods(package, outside) == []


def init_imports(source: str) -> list[str]:
    """The names the source's from-imports take, in order."""
    return [a.asname or a.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def test_all_lists_the_names_init_imports():
    import coarseiso

    names = init_imports((PACKAGE / "__init__.py").read_text())
    assert len(set(coarseiso.__all__)) == len(coarseiso.__all__)
    assert len(set(names)) == len(names)
    assert set(coarseiso.__all__) == set(names)


def scipy_imports(source: str) -> list[str]:
    """Each scipy module the source imports, at any depth, breadth first;
    a from-import of scipy itself names the submodule it takes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.extend(f"scipy.{a.name}" if node.module == "scipy" else node.module
                         for a in node.names)
    return found


@pytest.mark.parametrize("snippet, imports", [
    ("import scipy.spatial\n", ["scipy.spatial"]),
    ("import numpy\nimport scipy as sp\n", ["scipy"]),
    ("from scipy import sparse, spatial\n", ["scipy.sparse", "scipy.spatial"]),
    ("def f():\n    from scipy.sparse.csgraph import minimum_spanning_tree\n",
     ["scipy.sparse.csgraph"]),
    ("class A:\n    import scipy.linalg\n    def g(self):\n        import scipy.sparse\n",
     ["scipy.linalg", "scipy.sparse"]),
    ("from .spaces import scipy\nimport scipyx\n", []),
])
def test_what_counts_as_a_scipy_import(snippet, imports):
    assert scipy_imports(snippet) == imports


def test_no_module_imports_scipy():
    # components, plane chains and the generic chain (Prim on distance
    # rows) all run on numpy alone
    found = {path.name: scipy_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_generic_chain_leaves_scipy_unloaded():
    # a sup subset that fills no box takes MetricRule's chain, in a fresh
    # interpreter, so nothing the tests imported counts
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from coarseiso.spaces import zball\n"
        "sp, subset = zball(5, 2), np.array([0, 2, 30])\n"
        "assert not sp.rule.fills_box(sp.coords[subset])\n"
        "order, gap = sp.rule.chain(sp, subset)\n"
        "assert sorted(order.tolist()) == [0, 1, 2]\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
