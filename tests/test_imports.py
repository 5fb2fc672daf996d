"""No module of the package imports a name it never reads, no module
defines a name or a method that the program never reads, a defaulted
parameter that the program never sets, or a default that every program
call overrides, and no module imports scipy
(tests/test_cli.py checks that witness chains and plane components leave
it unloaded). The checks use only the standard library's ast: a name
counts as read where a module loads it, attributes and string annotations
included.
``__init__.py`` is held to the same checks: the package root exports
nothing, and a fresh ``import coarseiso`` loads no submodule, while the
symbolic layer (``groups``, ``factorfn``, ``primes``) runs without numpy.

Methods and properties are read by attribute name, as Python finds them:
a name shared across classes, or with other objects (``to_json`` of every
report, ``index`` of a list, ``blocks`` of a cover), counts as read for all
of them. Dunders are exempt, as the interpreter calls them.

A defaulted parameter is set where a call by its function's name (``f(...)``
or ``x.f(...)``) passes it, by keyword or by position, and likewise across
every function of that name; a call that unpacks ``*args`` or ``**kwargs``
may set any. A call by a class's name (``A(...)``) is a call of its
``__init__``; other dunders are exempt here too. A default is read where
such a call leaves its parameter out; a call that unpacks arguments
forwards what its own caller passed, so it counts neither way there."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coarseiso"


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
    read = set().union(*map(read_names, [*readers, *outside]))
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
    ("__all__ = []\n__version__ = '1'\n", ["m.__all__", "m.__version__"]),  # no name is exempt
    ("class A:\n    def g(self): ...\n", ["m.A"]),  # methods are not module names
    ("import os\nos.X = 1\nX = 2\n", []),  # an attribute name counts
    ("'X'\nX = 1\n", ["m.X"]),  # text is no read
    # a re-export is no read: __init__ imports f, and nothing reads it
    ({"m": "def f(): ...\n", "__init__": "from .m import f\n__all__ = ['f']\n"},
     ["m.f", "__init__.__all__"]),
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


def defaulted_parameters(source: str) -> list[tuple[str, str, str, Optional[int]]]:
    """(owner, name, parameter, position) for each parameter with a default
    of each module-level function and each method of a module-level class,
    dunders but ``__init__`` excepted, in order of definition. owner is ""
    for a function and the class for a method; position is the parameter's
    index among the positional arguments a call passes (self and cls not
    counted), and None for a keyword-only parameter."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            functions = [(node.name, item) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = [("", node)]
        else:
            continue
        for owner, fn in functions:
            if fn.name.startswith("__") and fn.name.endswith("__") and fn.name != "__init__":
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            a = fn.args
            positional = [*a.posonlyargs, *a.args][1 if owner and not static else 0:]
            first = len(positional) - len(a.defaults)
            found += [(owner, fn.name, arg.arg, k) for k, arg in enumerate(positional) if k >= first]
            found += [(owner, fn.name, arg.arg, None)
                      for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    return found


def calls(source: str) -> list[tuple[str, set]]:
    """(name, keys) for each call of the source of a function by name
    (f(...) or x.f(...)): keys holds each keyword it passes, each position
    below its count of positional arguments, "*" when it unpacks positional
    arguments and "**" when it unpacks keywords."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
        keys = set(range(starred[0] if starred else len(node.args)))
        if starred:
            keys.add("*")
        keys |= {"**" if kw.arg is None else kw.arg for kw in node.keywords}
        found.append((name, keys))
    return found


def unset_parameters(package: dict, outside: list = ()) -> list[str]:
    """module.[Class.]function.parameter for each defaulted parameter a
    package module defines that no call in the package's other modules than
    __init__, the module itself or an outside source passes, by keyword or
    by position, in module order."""
    readers = [source for module, source in package.items() if module != "__init__"]
    passed = {(name, key) for source in [*readers, *outside]
              for name, keys in calls(source) for key in keys}
    unset = []
    for module, source in package.items():
        for owner, name, param, position in defaulted_parameters(source):
            keys = {param, "**"} if position is None else {param, position, "*", "**"}
            called = owner if name == "__init__" else name
            if not any((called, key) in passed for key in keys):
                unset.append(".".join(filter(None, (module, owner, name, param))))
    return unset


@pytest.mark.parametrize("snippet, unset", [
    ("def f(x, y=1): ...\n", ["m.f.y"]),
    ("def f(x, y=1): ...\nf(1, 2)\n", []),  # by position
    ("def f(x, y=1): ...\nf(1, y=2)\n", []),  # by keyword
    ("def f(x, y=1): ...\nf(1)\nf(x=1)\n", ["m.f.y"]),
    ("def f(x, y=1, z=2): ...\nf(1, 2)\n", ["m.f.z"]),
    ("def f(x=1, *, y=2): ...\nf(1, 2, 3)\n", ["m.f.y"]),  # positions set no keyword-only one
    ("def f(x=1, *, y=2): ...\nf(y=1, x=2)\n", []),
    ("def f(x=1): ...\nf(*args)\n", []),  # unpacked arguments may set anything
    ("def f(x=1): ...\nf(**kwargs)\n", []),
    ("def f(x=1): ...\nf(0, *args)\n", []),
    ("def f(x, y=1): ...\nf(*args, x=1)\n", []),
    ("def f(x=1): ...\n'f(1)'\n", ["m.f.x"]),  # text is no call
    ("def f(x=1): ...\ng = f\ng(1)\n", ["m.f.x"]),  # a call by another name sets nothing
    # self and cls are no positions of a call; a static method has neither
    ("class A:\n    def f(self, x=1): ...\nA().f(1)\n", []),
    ("class A:\n    def f(self, x, y=1): ...\nA().f(1)\n", ["m.A.f.y"]),
    ("class A:\n    @classmethod\n    def f(cls, x=1): ...\nA.f(1)\n", []),
    ("class A:\n    @staticmethod\n    def f(x, y=1): ...\nA.f(1)\n", ["m.A.f.y"]),
    ("class A:\n    @staticmethod\n    def f(x, y=1): ...\nA.f(1, 2)\n", []),
    # a call by the class's name calls __init__; other dunders are exempt
    ("class A:\n    def __init__(self, x=1): ...\nA()\n", ["m.A.__init__.x"]),
    ("class A:\n    def __init__(self, x=1): ...\nA(2)\n", []),
    ("class A:\n    def __init__(self, *, x=1): ...\nA(x=2)\n", []),
    ("class A:\n    def __call__(self, x=1): ...\nA()()\n", []),
    # a call by a shared name sets it for every function of that name
    ("def f(x=1): ...\nclass A:\n    def f(self, x=1): ...\nf(x=2)\n", []),
    ("def get(a, b=None): ...\n{}.get(1, 2)\n", []),
    ("def f():\n    def g(x=1): ...\n", []),  # nested functions are not scanned
    ({"m": "def f(x=1): ...\n", "__init__": "from .m import f\nf(2)\n"}, ["m.f.x"]),
    ({"m": "def f(x=1): ...\n", "n": "from .m import f\nf(2)\n"}, []),
])
def test_what_counts_as_a_set_parameter(snippet, unset):
    package = {"m": snippet} if isinstance(snippet, str) else snippet
    assert unset_parameters(package) == unset


def test_every_parameter_is_set():
    # the same readers as test_every_defined_name_is_read: a default that
    # only unit tests override is a knob the program never turns
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")]
    outside.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unset_parameters(package, outside) == [
        # a table of pairs in place of the arrays: only the benchmark's
        # self-check passes one, through dataclasses.replace (ROADMAP item 1)
        "witness.WitnessMap.__init__.table",
    ]


def unread_defaults(package: dict, outside: list = ()) -> list[str]:
    """module.[Class.]function.parameter for each defaulted parameter a
    package module defines whose function some call by its name in the
    package's other modules than __init__, the module itself or an outside
    source makes, and every such call passes it, by keyword or by
    position, in module order. A call that unpacks arguments forwards what
    its own caller passed (perfbench's wrapper of the chain does), so it
    counts neither way."""
    readers = [source for module, source in package.items() if module != "__init__"]
    made = [call for source in [*readers, *outside] for call in calls(source)]
    unread = []
    for module, source in package.items():
        for owner, name, param, position in defaulted_parameters(source):
            passed = {param} if position is None else {param, position}
            called = owner if name == "__init__" else name
            keys = [k for n, k in made if n == called and not {"*", "**"} & k]
            if keys and all(passed & k for k in keys):
                unread.append(".".join(filter(None, (module, owner, name, param))))
    return unread


@pytest.mark.parametrize("snippet, unread", [
    ("def f(x, y=1): ...\nf(1, 2)\n", ["m.f.y"]),  # by position
    ("def f(x, y=1): ...\nf(1, y=2)\nf(x=1, y=2)\n", ["m.f.y"]),  # by keyword
    ("def f(x, y=1): ...\nf(1, 2)\nf(1)\n", []),  # one call that leaves it out reads it
    ("def f(x, y=1): ...\n", []),  # no call: test_every_parameter_is_set's concern
    ("def f(x=1, *, y=2): ...\nf(1, 2, 3)\n", ["m.f.x"]),  # positions set no keyword-only one
    ("def f(x=1, *, y=2): ...\nf(y=1, x=2)\n", ["m.f.x", "m.f.y"]),
    # an unpacking call forwards its caller's arguments and counts neither way
    ("def f(x=1): ...\nf(1)\nf(*args)\n", ["m.f.x"]),
    ("def f(x=1): ...\nf()\nf(**kwargs)\n", []),
    ("def f(x=1): ...\nf(0, *args)\n", []),
    ("def f(x=1): ...\nf(1)\n'f()'\n", ["m.f.x"]),  # text is no call
    ("def f(x=1): ...\nf(1)\ng = f\ng()\n", ["m.f.x"]),  # a call by another name is not seen
    # self and cls are no positions of a call; a static method has neither
    ("class A:\n    def f(self, x=1): ...\nA().f(1)\n", ["m.A.f.x"]),
    ("class A:\n    @classmethod\n    def f(cls, x=1): ...\nA.f()\n", []),
    ("class A:\n    @staticmethod\n    def f(x, y=1): ...\nA.f(1, 2)\n", ["m.A.f.y"]),
    # a call by the class's name calls __init__
    ("class A:\n    def __init__(self, x=1): ...\nA(2)\n", ["m.A.__init__.x"]),
    ("class A:\n    def __init__(self, x=1): ...\nA(2)\nA()\n", []),
    # a call by a shared name calls every function of that name
    ("def get(a, b=None): ...\nget(1, 2)\n{}.get(1)\n", []),
    ("def f():\n    def g(x=1): ...\n    g(1)\n", []),  # nested functions are not scanned
    # __init__ reads nothing; another module's call counts
    ({"m": "def f(x=1): ...\n", "__init__": "from .m import f\nf()\n",
      "n": "from .m import f\nf(2)\n"}, ["m.f.x"]),
    ({"m": "def f(x=1): ...\nf(1)\n", "n": "from .m import f\nf()\n"}, []),
])
def test_what_counts_as_a_read_default(snippet, unread):
    package = {"m": snippet} if isinstance(snippet, str) else snippet
    assert unread_defaults(package) == unread


def test_every_default_is_read():
    # the same readers as test_every_parameter_is_set: a default that every
    # call of the program overrides is a second home for a value the caller
    # already holds (the CLI's flags hold the radius, depth, prime bound and
    # point budget)
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")]
    outside.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unread_defaults(package, outside) == [
        # a witness takes src and dst or a table in their place: only the
        # benchmark's self-check passes a table, through dataclasses.replace
        # (ROADMAP item 1)
        "witness.WitnessMap.__init__.src",
        "witness.WitnessMap.__init__.dst",
    ]


def printed_fresh(code: str) -> list[str]:
    """The lines code prints in a fresh interpreter that imports coarseiso
    from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()


def test_the_root_loads_nothing_and_the_symbolic_layer_no_numpy():
    code = (
        "import json, sys\n"
        "import coarseiso\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "from coarseiso import groups\n"
        "g, h = groups.parse_group('Z + C2^inf'), groups.parse_group('Z + C2^inf + C3')\n"
        "assert groups.canonical_form(h).r == 1\n"
        "assert groups.coarse_isomorphic(g, h).result\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    root, symbolic = map(json.loads, printed_fresh(code))
    assert [m for m in root if m.startswith("coarseiso.")] == []
    assert [m for m in symbolic if m.startswith("coarseiso.")] == [
        "coarseiso.factorfn", "coarseiso.groups", "coarseiso.primes"]
    assert "numpy" not in symbolic


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
    # sup keys, plane chains and plane components all run on numpy alone
    found = {path.name: scipy_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def extnat_imports(source: str) -> list[str]:
    """Each name the source takes from the extnat module, at any depth, and
    the module itself when it is imported whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(a.name for a in node.names if a.name.split(".")[-1] == "extnat")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "extnat":
                found.extend(a.name for a in node.names)
            else:
                found.extend(a.name for a in node.names if a.name == "extnat")
    return found


@pytest.mark.parametrize("snippet, imports", [
    ("from .extnat import ExtNat\n", ["ExtNat"]),
    ("from coarseiso.extnat import INF, ExtNat\n", ["INF", "ExtNat"]),
    ("def f():\n    from . import extnat\n", ["extnat"]),
    ("import coarseiso.extnat\n", ["coarseiso.extnat"]),
    ("from .factorfn import FactorFunction\nimport math\n", []),
])
def test_what_counts_as_an_extnat_import(snippet, imports):
    assert extnat_imports(snippet) == imports


def test_no_module_imports_extnat():
    # every rank, multiplicity and exponent is an int or math.inf; the
    # ExtNat reference lives in tests/oracles.py
    found = {path.name: extnat_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
