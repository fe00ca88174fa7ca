import importlib

import pytest

import spotplan

MODULES = ["catalog", "cli", "planner", "saturation", "scaling", "simulator"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"spotplan.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_every_library_name():
    # Every public name of the library modules but sum_squared_residuals (imported
    # from spotplan.scaling) resolves, on first access, to its module's object.
    owners = {name: m for m in MODULES if m != "cli" for name in importlib.import_module(f"spotplan.{m}").__all__}
    del owners["sum_squared_residuals"]
    assert sorted(spotplan.__all__) == sorted(owners)
    for name, module in owners.items():
        assert getattr(spotplan, name) is getattr(importlib.import_module(f"spotplan.{module}"), name), name


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
