import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import spotplan

MODULES = ["catalog", "cli", "planner", "saturation", "scaling", "simulator"]
# The library modules, in the order spotplan looks a name up in them.
LIBRARY = ["scaling", "catalog", "saturation", "planner", "simulator"]
SOURCES = sorted(pathlib.Path(spotplan.__file__).parent.glob("*.py"))


def _all(module):
    return importlib.import_module(f"spotplan.{module}").__all__


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"spotplan.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_every_library_name():
    # Every public name of the library modules resolves, on first access, to
    # its module's object.
    owners = {name: m for m in MODULES if m != "cli" for name in importlib.import_module(f"spotplan.{m}").__all__}
    assert sorted(spotplan.__all__) == sorted(owners)
    for name, module in owners.items():
        assert getattr(spotplan, name) is getattr(importlib.import_module(f"spotplan.{module}"), name), name


def test_package_all_joins_the_library_modules_in_order():
    assert spotplan.__all__ == [name for module in LIBRARY for name in _all(module)]


def test_no_name_is_public_in_two_library_modules():
    names = [name for module in LIBRARY for name in _all(module)]
    assert sorted({name for name in names if names.count(name) > 1}) == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from spotplan import *", namespace)
    assert [name for name in spotplan.__all__ if namespace.get(name) is not getattr(spotplan, name)] == []


def test_dir_lists_every_export():
    assert set(spotplan.__all__) <= set(dir(spotplan))
    assert "__version__" in dir(spotplan)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'spotplan' has no attribute 'nope'"):
        spotplan.nope
    with pytest.raises(ImportError):
        from spotplan import nope  # noqa: F401


def test_private_names_of_the_modules_are_not_exported():
    for name in ("_read_json", "_EXPORTS", "_plan"):
        with pytest.raises(AttributeError, match=f"module 'spotplan' has no attribute '{name}'"):
            getattr(spotplan, name)


def _loaded_after(code):
    """The spotplan.* modules a fresh interpreter holds after running code."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spotplan.__file__))}
    code += "\nimport sys\nprint(*sorted(m[9:] for m in sys.modules if m.startswith('spotplan.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("module", LIBRARY)
def test_reading_a_modules_names_loads_what_the_module_loads(module):
    names = _all(module)
    read = _loaded_after(f"import spotplan\nfor name in {names!r}:\n    getattr(spotplan, name)")
    assert read == _loaded_after(f"import spotplan.{module}")
    assert module in read


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("from spotplan import scaling", ["scaling"]),
        ("from spotplan import simulator", ["catalog", "planner", "saturation", "scaling", "simulator"]),
        ("from spotplan import cli", ["cli"]),
        ("import spotplan\nassert not hasattr(spotplan, '__wrapped__')", []),
        ("import spotplan\nassert not hasattr(spotplan, '_read_json')", []),
    ],
)
def test_submodules_and_private_names_load_only_what_they_name(code, loaded):
    assert _loaded_after(code) == loaded


def _strings(node):
    return [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)]


def _unused_imports(source):
    """The names bound by module-level imports of source that nothing in it
    uses; a name in __all__ or in a string annotation counts as used."""
    tree = ast.parse(source)
    imports, stack = set(), list(tree.body)
    while stack:  # module level: the body and any if/try blocks in it, not defs or classes
        node = stack.pop()
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imports.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            stack += [*node.body, *node.orelse, *getattr(node, "finalbody", ())]
            stack += [child for handler in getattr(node, "handlers", ()) for child in handler.body]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(_strings(node.value))
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)  # args, AnnAssign, defs
        for text in _strings(annotation) if annotation else ():
            used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return sorted(imports - used)


def test_unused_import_check_sees_string_annotations_and_all():
    source = (
        "from __future__ import annotations\nimport os\nimport sys\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from pathlib import Path, PurePath\nfrom json import dumps as d, loads\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Path', y: 'list[PurePath]' = None) -> None:\n    import heapq\n    return sys.argv\n"
    )
    assert _unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_level_import_is_unused(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unreferenced_private_names(sources):
    """(module, name) of each private module-level function, class or
    constant (dunder names aside) of sources, {module: source}, that no name
    or attribute in any of them reads outside the name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = [(node, getattr(node, "id", None) or getattr(node, "attr", None))
            for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]  # Assign, AnnAssign
            names = [node.name] if hasattr(node, "name") else [t.id for t in targets if isinstance(t, ast.Name)]
            inside = set(map(id, ast.walk(node)))
            unused += [(module, name) for name in names if name[:1] == "_" and name[:2] != "__"
                       and not any(used == name and id(at) not in inside for at, used in uses)]
    return sorted(unused)


def test_unreferenced_private_name_check_sees_other_modules_and_self_reference():
    sources = {
        "a": "__all__ = []\n_A = 1\n_B: int = 2\ndef _f(n):\n    return _f(n - 1)\nclass _K:\n    pass\n",
        "b": "from .a import _A\nimport a\nx = _A + a._B\n",
    }
    assert _unreferenced_private_names(sources) == [("a", "_K"), ("a", "_f")]


def test_no_private_module_level_name_is_unreferenced():
    # A simplification that inlines a helper must delete it too.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert _unreferenced_private_names(sources) == []
