import importlib
import pkgutil

import pytest

import macrosize

MODULES = ["macrosize"] + sorted(
    info.name for info in pkgutil.iter_modules(macrosize.__path__, "macrosize.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    # A deleted function must take its __all__ entry with it.
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
