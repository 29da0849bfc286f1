import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_benchmark_tracer_targets_resolve():
    # perfbench/run.py --trace wraps each (module, name) in TRACED; a deleted
    # or renamed function would break it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, name)
        for module, name in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
