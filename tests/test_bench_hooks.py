"""The benchmark's tracing hooks still find every attribute they wrap.

``perfbench/tracing.py`` replaces functions at module attributes by name,
so a renamed or deleted attribute would only surface in a benchmark run.
This installs and removes the hooks, and star-imports every module so a
stale ``__all__`` entry fails here too.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import fusionkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(fusionkit.__path__))


def test_tracing_hooks_install_and_uninstall(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    restore = tracing.install(tracing.Tracer())
    tracing.uninstall(restore)
    assert all(getattr(owner, attr) is original
               for owner, attr, original in restore)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module) -> None:
    # raises AttributeError when __all__ names a missing attribute
    exec(f"from fusionkit.{module} import *", {})
