"""No library module imports a name it never uses, and no private helper or its input is left unused.

The scan reads each module's syntax tree: every name bound by an import
statement (at any depth) must be read somewhere in the module, as a plain
name, the base of an attribute, a quoted annotation, or an entry of
``__all__``.  ``from __future__`` imports bind no name and are skipped.

A module-level private function or class (``_name``) must be referenced
somewhere in the package outside its own definition: as a name, an
attribute or an imported name.  Every parameter of such a function must
be read as a plain name somewhere in its body (nested functions included).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opercalc"
MODULES = sorted(SRC.glob("*.py"))


def _quoted_annotations(tree):
    """Names read inside string annotations such as ``other: "Density"``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            notes += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield from _names(ast.parse(note.value, mode="eval"))


def _names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return set()


def unused_imports(source: str):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = _names(tree) | set(_quoted_annotations(tree)) | _exported(tree)
    return sorted((line, name) for line, name in bound if name not in read)


def _references(tree):
    """Counter of the names read anywhere in tree: names, attributes, imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def unused_private(sources):
    """(module, name) of every module-level _name def or class referenced only inside itself."""
    defined, read = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        read.update(_references(tree))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((module, node.name, _references(node)[node.name]))
    return sorted((module, name) for module, name, inside in defined if read[name] == inside)


def unused_params(source: str):
    """(function, parameter) of every parameter a module-level private function never reads."""
    out = []
    for node in ast.parse(source).body:
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.name, p) for p in params if p not in read]
    return sorted(out)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "serialize.py", "series.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unused_private_helper():
    assert unused_private({p.name: p.read_text(encoding="utf-8") for p in MODULES}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_parameter(path):
    assert unused_params(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("sources,expected", [
    ({"a.py": "def _f(): pass\n"}, [("a.py", "_f")]),
    ({"a.py": "def _f(n):\n    return _f(n - 1)\n"}, [("a.py", "_f")]),
    ({"a.py": "class _C: pass\nx = _C()\n"}, []),
    ({"a.py": "def _f(): pass\n", "b.py": "from .a import _f\n"}, []),
    ({"a.py": "def _f(): pass\n", "b.py": "from . import a\na._f()\n"}, []),
    ({"a.py": "class C:\n    def _m(self): pass\n"}, []),
    ({"a.py": "def __getattr__(name): pass\n"}, []),
])
def test_private_scanner(sources, expected):
    assert unused_private(sources) == expected


@pytest.mark.parametrize("source,expected", [
    ("def _f(a, b):\n    return a\n", [("_f", "b")]),
    ("def _f(a, *rest, key=1, **kw):\n    return a\n",
     [("_f", "key"), ("_f", "kw"), ("_f", "rest")]),
    ("def _f(a, /, b):\n    return a + b\n", []),
    ("def _f(a):\n    def g():\n        return a\n    return g\n", []),
    ("def _f(a):\n    return lambda: a\n", []),
    ("def _f(a):\n    a = 1\n    return 2\n", [("_f", "a")]),
    ("def _f(a, b=None):\n    return b\n", [("_f", "a")]),
    ("def f(a):\n    return 1\n", []),
    ("class C:\n    def _m(self, a):\n        return 1\n", []),
    ("def __getattr__(name):\n    raise AttributeError\n", []),
])
def test_parameter_scanner(source, expected):
    assert unused_params(source) == expected


@pytest.mark.parametrize("source,expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from typing import Dict, List\nx: List[int] = []\n", [(1, "Dict")]),
    ("def f():\n    from math import gcd\n    return 1\n", [(2, "gcd")]),
    ("from .series import Density\ndef f(d: 'Density'): pass\n", []),
    ("from . import serialize as ser\n", [(1, "ser")]),
    ("from .x import y\n__all__ = ['y']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_scanner(source, expected):
    assert unused_imports(source) == expected
