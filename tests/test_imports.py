"""Source hygiene tests.

Core claims:
    - every module of the package except ``__init__.py``, which
      re-exports, and every module of the test tree uses each name it
      imports
    - no module binds a name to an empty ``{}``, ``dict()`` or
      ``set()`` but the three intern tables, so memo tables go through
      ``functools.cache`` and can be read and cleared
    - every dataclass of the package is declared with ``slots=True``:
      the entry memo keeps every ``Bit`` and ``Entry`` for the life of
      the process
    - no public name of a module is a ``functools`` cache wrapper, which
      the benchmark's tracer, wrapping plain functions only, would skip
    - the README's Library example runs on the package's exports and
      gives the results its comments state
"""

import ast
import functools
import importlib
import types
from pathlib import Path

import pytest

import spdesc

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = sorted(
    path for path in Path(spdesc.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from .bits import R, chain_bit\nimport os.path\n\ndef f():\n    return R\n"
    assert unused_imports(source) == ["chain_bit", "os"]


# The identity tables behind ``is`` on terms and ideals: clearing them
# would make equal terms or ideals distinct objects, so they are not memo
# caches.  Terms have one table per kind of sum.
INTERN_TABLES = {"terms.py": ["_CHAINS", "_ANTICHAINS"], "ideals.py": ["_INTERN"]}


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


def unslotted_dataclasses(source: str) -> list[str]:
    """Classes of the module decorated with ``dataclass`` without
    ``slots=True``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            name = call.func if call else deco
            if getattr(name, "id", getattr(name, "attr", None)) != "dataclass":
                continue
            slotted = call is not None and any(
                kw.arg == "slots" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in call.keywords
            )
            if not slotted:
                found.append(node.name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_dataclasses_are_slotted(path):
    assert unslotted_dataclasses(path.read_text(encoding="utf-8")) == []


def test_unslotted_dataclass_is_found():
    source = (
        "@dataclass\nclass A:\n    x: int\n\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n\n"
        "@dataclasses.dataclass(slots=False)\nclass C:\n    x: int\n\n"
        "@dataclass(frozen=True, slots=True)\nclass D:\n    x: int\n\n"
        "@functools.total_ordering\nclass E:\n    pass\n"
    )
    assert unslotted_dataclasses(source) == ["A", "B", "C"]


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


def readme_library_block() -> str:
    """The ``python`` code block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def stated_result(comment: str):
    """The Python literal that a comment is, or that its first word is:
    the result of the line it ends.  ``None`` for a comment that only
    describes the line."""
    for text in (comment, *comment.split()[:1]):
        try:
            return ast.literal_eval(text.strip())
        except (ValueError, SyntaxError):
            pass
    return None


def test_readme_library_example():
    source = readme_library_block()
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    checked = []
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        expected = stated_result(comment)
        if expected is not None:
            got = eval(code, namespace)
            assert type(got) is type(expected) and got == expected, line
            checked.append(expected)
    assert checked == [[], True, "equal up to size 9"]
