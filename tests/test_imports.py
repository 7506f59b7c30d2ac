"""No module imports a name it never reads.

A stdlib `ast` scan of the package (but for the re-exports of its
`__init__.py`), the tests and the demos: each name that a top-level import
binds must be read somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for pattern in ("src/dime/*.py", "tests/*.py", "demos/*.py")
                 for path in ROOT.glob(pattern) if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports in `source` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import inf, pi\n\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: inf"]
