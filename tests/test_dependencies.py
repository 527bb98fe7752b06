"""The package imports nothing beyond the standard library and numpy,
and uses every name it imports.

``hypothesis``, ``scipy`` and ``pytest`` may be installed next to it, but
they are not runtime dependencies, so no module under ``src/gaugephase``
may import them.  An imported name that nothing reads is dead weight: a
re-export counts as a use only when ``__all__`` lists it.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaugephase"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}


def _outside_imports(source: str) -> list[str]:
    """Absolute imports whose top-level package is neither stdlib nor numpy."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name for name in names if name.split(".")[0] not in ALLOWED})


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads (nor lists in __all__)."""
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted(bound - used)


MODULES = sorted(PACKAGE.rglob("*.py"))


def test_the_scan_sees_every_module_and_every_import_form():
    assert {"__init__.py", "core.py", "curves.py", "cli.py"} <= {p.name for p in MODULES}
    source = ("import os, scipy.linalg\nfrom hypothesis import given\n"
              "from . import core\nfrom numpy.linalg import eigh\n"
              "def f():\n    import pytest\n")
    assert _outside_imports(source) == ["hypothesis", "pytest", "scipy.linalg"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_imports_only_stdlib_numpy_or_the_package(path):
    assert _outside_imports(path.read_text(encoding="utf-8")) == []


def test_the_unused_import_scan_counts_reads_and_all_entries():
    source = ("from __future__ import annotations\nimport os.path, sys as system\n"
              "from .core import a, b as bee, c\n__all__ = ['c']\n"
              "def f(x: a) -> None:\n    os.sep\n")
    assert _unused_imports(source) == ["bee", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
