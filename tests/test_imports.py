"""Source hygiene tests.

Core claims:
    - every module of the package except ``__init__.py``, which
      re-exports, uses each name it imports
"""

import ast
from pathlib import Path

import pytest

import spdesc

MODULES = sorted(
    path for path in Path(spdesc.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports (``__future__`` features
    aside) that no name expression of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from .bits import R, R_CHAIN_BIT\nimport os.path\n\ndef f():\n    return R\n"
    assert unused_imports(source) == ["R_CHAIN_BIT", "os"]
