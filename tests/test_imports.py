"""Source hygiene tests.

Core claims:
    - every module of the package except ``__init__.py``, which
      re-exports, uses each name it imports
    - no module binds a name to an empty ``{}``, ``dict()`` or
      ``set()`` but the two intern tables, so memo tables go through
      ``functools.cache`` and can be read and cleared
    - no public name of a module is a ``functools`` cache wrapper, which
      the benchmark's tracer, wrapping plain functions only, would skip
"""

import ast
import functools
import importlib
import types
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


# The identity tables behind ``t is EMPTY``: clearing them would make
# equal terms or ideals distinct objects, so they are not memo caches.
INTERN_TABLES = {"terms.py": ["_INTERN"], "ideals.py": ["_INTERN"]}


def empty_tables(source: str) -> list[str]:
    """Names the module's top level binds to an empty ``{}``, ``dict()``
    or ``set()``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        empty = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set")
            and not value.args
            and not value.keywords
        )
        if empty:
            found.extend(t.id for t in targets if isinstance(t, ast.Name))
    return found


@pytest.mark.parametrize(
    "path", sorted(Path(spdesc.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_module_level_tables_but_the_intern_tables(path):
    assert empty_tables(path.read_text(encoding="utf-8")) == INTERN_TABLES.get(path.name, [])


def test_empty_table_is_found():
    source = (
        "_SUB_CACHE: dict = {}\n_SEEN = set()\n_BY_KEY = dict()\n"
        "NAMES = {'a': 1}\n\ndef f():\n    memo = {}\n"
    )
    assert empty_tables(source) == ["_SUB_CACHE", "_SEEN", "_BY_KEY"]


def public_cache_wrappers(module) -> list[str]:
    """Public names of the module bound to a ``functools`` cache wrapper."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and hasattr(obj, "cache_clear")
    )


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "__main__.py"], ids=lambda path: path.name
)
def test_no_public_cache_wrappers(path):
    assert public_cache_wrappers(importlib.import_module(f"spdesc.{path.stem}")) == []


def test_public_cache_wrapper_is_found():
    module = types.ModuleType("layer")
    module.members = functools.cache(lambda n: n)
    module._members = functools.cache(lambda n: n)
    assert public_cache_wrappers(module) == ["members"]
