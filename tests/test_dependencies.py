"""The package imports nothing beyond the standard library and numpy.

``hypothesis``, ``scipy`` and ``pytest`` may be installed next to it, but
they are not runtime dependencies, so no module under ``src/gaugephase``
may import them.
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
