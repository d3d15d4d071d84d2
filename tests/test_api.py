"""Every exported name resolves, so a stale export fails the suite; numpy is the only
dependency, and the package's own imports point down."""

import ast
import graphlib
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


def relative_imports():
    """The package's relative imports: {(module, imported)} at module level, and
    {(module.function, imported)} inside functions."""
    top, inner = set(), set()
    for path in sorted(Path(quatpca.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, f"{path.stem}.{fn.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node in owner:
                    inner.add((owner[node], node.module))
                else:
                    top.add((path.stem, node.module))
    return top, inner


def test_imports_point_down():
    top, inner = relative_imports()
    graph = {}
    for module, imported in top:
        graph.setdefault(module, set()).add(imported)
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert inner == {("weighting.score_weightings", "recognition")}


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes(call):
    """Whether ``call`` can write a file.

    That is pathlib's ``write_bytes`` and ``write_text``, numpy's ``tofile``,
    ``os.write``, ``os.ftruncate`` and ``os.truncate``, ``os.open`` with a
    flag that opens for writing, and ``open`` (built-in, ``io.open`` or
    ``Path.open``) in a mode that writes or one that is not a literal.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        name, owner = func.attr, getattr(func.value, "id", None)
    else:
        name, owner = getattr(func, "id", None), None
    if name in ("write_bytes", "write_text", "tofile"):
        return True
    if owner == "os" and name in ("write", "ftruncate", "truncate"):
        return True
    if owner == "os" and name == "open":
        flags = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "flags"]
        return any(getattr(node, "attr", getattr(node, "id", None)) in _WRITE_FLAGS
                   for flag in flags for node in ast.walk(flag))
    if name != "open":
        return False
    at = 0 if isinstance(func, ast.Attribute) and owner != "io" else 1  # Path.open(mode)
    modes = call.args[at:at + 1] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(not isinstance(mode, ast.Constant) or set(mode.value) & set("wax+")
               for mode in modes)


def test_every_file_is_written_by_the_one_writer():
    # dataset._write_file rewrites a file in place and cuts it to length;
    # a write_bytes, write_text or open(..., "w") elsewhere would bring
    # back the truncate-and-rewrite it replaces.
    writers = set()
    for path in sorted(Path(quatpca.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, f"{path.stem}.{fn.name}")
        writers |= {owner.get(node, path.stem) for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and _writes(node)}
    assert writers == {"dataset._write_file"}
