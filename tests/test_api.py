"""Every exported name resolves, so a stale export fails the suite."""

import importlib
import pkgutil

import pytest

import quatpca

# __main__ runs the CLI when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(quatpca.__path__) if m.name != "__main__")


def test_package_exports_resolve():
    missing = [name for name in quatpca.__all__ if not hasattr(quatpca, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"quatpca.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
