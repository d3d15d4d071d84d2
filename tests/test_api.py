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


def test_package_republishes_each_module_name_once():
    # quatpca star-imports every module but the CLI, so a name in two
    # modules' __all__ would be shadowed without an error.
    declared = [name for module in MODULES if module != "cli"
                for name in importlib.import_module(f"quatpca.{module}").__all__]
    assert sorted({name for name in declared if declared.count(name) > 1}) == []
    assert sorted(quatpca.__all__) == sorted(declared + ["__version__"])


def test_version_is_declared_once():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "quatpca.__version__"}


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


def owned_nodes():
    """(owner, node) for every AST node of the package: the owner is
    "module.function" for a node inside a function and "module" otherwise."""
    for path in sorted(Path(quatpca.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, f"{path.stem}.{fn.name}")
        for node in ast.walk(tree):
            yield owner.get(node, path.stem), node


def relative_imports():
    """The package's relative imports: {(module, imported)} at module level, and
    {(module.function, imported)} inside functions."""
    top, inner = set(), set()
    for owner, node in owned_nodes():
        if isinstance(node, ast.ImportFrom) and node.level:
            (inner if "." in owner else top).add((owner, node.module))
    return top, inner


def test_imports_point_down():
    top, inner = relative_imports()
    graph = {}
    for module, imported in top:
        graph.setdefault(module, set()).add(imported)
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert inner == set()


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _callee(call):
    """(name, the name it is an attribute of or None) of the function ``call`` calls."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr, getattr(func.value, "id", None)
    return getattr(func, "id", None), None


def _os_open_flags(call):
    """The names in the flags argument of ``os.open``."""
    flags = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "flags"]
    return {getattr(node, "attr", getattr(node, "id", None))
            for flag in flags for node in ast.walk(flag)}


def _open_modes(call):
    """The modes given to ``open`` (built-in, ``io.open`` or ``Path.open``)."""
    path_open = isinstance(call.func, ast.Attribute) and _callee(call)[1] != "io"
    at = 0 if path_open else 1  # Path.open(mode) against open(file, mode)
    return call.args[at:at + 1] + [kw.value for kw in call.keywords if kw.arg == "mode"]


def _writes(call):
    """Whether ``call`` can write a file.

    That is pathlib's ``write_bytes`` and ``write_text``, numpy's ``tofile``,
    ``os.write``, ``os.ftruncate`` and ``os.truncate``, ``os.open`` with a
    flag that opens for writing, and ``open`` in a mode that writes or one
    that is not a literal.
    """
    name, owner = _callee(call)
    if name in ("write_bytes", "write_text", "tofile"):
        return True
    if owner == "os" and name in ("write", "ftruncate", "truncate"):
        return True
    if owner == "os" and name == "open":
        return bool(_os_open_flags(call) & _WRITE_FLAGS)
    return name == "open" and any(not isinstance(mode, ast.Constant)
                                  or set(mode.value) & set("wax+")
                                  for mode in _open_modes(call))


def _reads(call):
    """Whether ``call`` can read a file.

    That is pathlib's ``read_bytes`` and ``read_text``, numpy's
    ``fromfile``, ``os.read``, ``os.open`` without O_WRONLY, and ``open``
    with no mode, a mode that reads or one that is not a literal.
    """
    name, owner = _callee(call)
    if name in ("read_bytes", "read_text") or (owner, name) in {("os", "read"),
                                                                ("np", "fromfile")}:
        return True
    if owner == "os" and name == "open":
        return "O_WRONLY" not in _os_open_flags(call)
    if name != "open":
        return False
    modes = _open_modes(call)
    return not modes or any(not isinstance(mode, ast.Constant) or set(mode.value) & set("r+")
                            for mode in modes)


def _callers(predicate):
    """The owners of every call in the package for which ``predicate`` holds."""
    return {owner for owner, node in owned_nodes()
            if isinstance(node, ast.Call) and predicate(node)}


def test_every_file_is_written_by_the_one_writer():
    # dataset._write_file rewrites a file in place and cuts it to length;
    # a write_bytes, write_text or open(..., "w") elsewhere would bring
    # back the truncate-and-rewrite it replaces.
    assert _callers(_writes) == {"dataset._write_file"}


def test_every_file_is_read_by_the_one_reader():
    # dataset._read_file turns an OSError into an IoError naming the path;
    # a read elsewhere would need its own translation, or crash the CLI.
    assert _callers(_reads) == {"dataset._read_file"}


def test_only_dataset_sees_a_sample_set_as_per_image_records():
    # A set is one (N, 4, m, n) stack and an index of its rows; the
    # per-image Sample records of ``.samples`` are for outside callers, so
    # in-package code that built or read them would step off the stack.
    users = {owner for owner, node in owned_nodes()
             if isinstance(node, ast.Attribute) and node.attr in ("samples", "Sample")
             or isinstance(node, ast.Name) and node.id == "Sample"}
    assert {owner.split(".")[0] for owner in users} == {"dataset"}


def test_only_dataset_reads_a_sample_sets_stack_and_rows():
    # Other modules take a set's rows through its _gather and _read, so the
    # layout of its stack and row index can change inside dataset.py alone.
    users = {owner for owner, node in owned_nodes()
             if isinstance(node, ast.Attribute) and node.attr in ("stack", "rows")
             and not (isinstance(node.value, ast.Name) and node.value.id == "np")}
    assert {owner.split(".")[0] for owner in users} == {"dataset"}
