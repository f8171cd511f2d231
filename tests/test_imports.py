"""Every `src/headcount` module imports only names that it uses, no module
imports another's private (`_`-prefixed) name, and every function or class
that a module defines is named somewhere else in the project.

No linter is a dependency, so this stdlib `ast` pass is what catches an import
left behind by a cut, or a helper whose last caller was folded away.
`__init__.py` is skipped: its imports are the public API, so a re-export there
is not a use.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "headcount"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
SEARCHED = ("src", "tests", "demos", "perfbench")


def unused_imports(source):
    """Names bound by `import` or `from ... import` that no expression reads.

    A quoted annotation (`"TrackedObject"`) counts as a read of the names in it.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [arg.annotation for arg in every if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def private_imports(source):
    """(line, name) of each `_name` taken from a sibling module by a relative import."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def dead_names(defined, searched):
    """Functions and classes defined in the `defined` sources whose name is no word of the
    `searched` texts except at their own definitions. Dunder methods are Python's to call."""
    names = Counter(
        node.name
        for source in defined
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("__")
    )
    words = Counter(word for text in searched for word in re.findall(r"\w+", text))
    return sorted(name for name, definitions in names.items() if words[name] <= definitions)


def test_modules_found():
    assert len(MODULES) >= 6, MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_finds_a_stray_import_and_reads_quoted_annotations():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from bisect import bisect_left as find\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .tracker import TrackedObject\n"
        "def f(track: 'TrackedObject') -> None:\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == [(2, "itertools"), (4, "find")]


def test_finds_a_private_import_from_a_sibling_module():
    source = (
        "from collections import _chain\n"
        "from .ingest import _CLASSES, DetectionClass\n"
        "from . import _helpers\n"
        "from .counter import quote as _quote\n"
    )
    assert private_imports(source) == [(2, "_CLASSES"), (3, "_helpers")]


def test_every_defined_name_is_used_somewhere():
    texts = [
        path.read_text(encoding="utf-8")
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != SRC / "__init__.py"
    ]
    assert dead_names([path.read_text(encoding="utf-8") for path in MODULES], texts) == []


def test_finds_a_name_only_its_definition_holds():
    source = (
        "class Kept:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def spare(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Kept()\n"
    )
    assert dead_names([source], [source, "from pkg import helper, spares\n"]) == ["spare"]
