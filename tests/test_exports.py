import importlib
import pkgutil

import pytest

import kerrsplit

# every submodule but __main__, which runs the CLI when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(kerrsplit.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kerrsplit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []
