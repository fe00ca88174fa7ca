import importlib

import pytest

MODULES = ["baselines", "catalog", "cli", "planner", "saturation", "scaling", "simulator"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"spotplan.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

