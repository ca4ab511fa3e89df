import importlib
import pkgutil

import pytest

import ternion

MODULES = ["ternion"] + [f"ternion.{m.name}" for m in pkgutil.iter_modules(ternion.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
