"""Every exported name resolves, so a stale export fails the suite; numpy is the only dependency."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_runtime_imports_are_numpy_or_stdlib():
    foreign = []
    for path in sorted(Path(quatpca.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] != "numpy"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
