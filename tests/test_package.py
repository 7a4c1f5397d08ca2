import ast
from pathlib import Path

import hilbsam

_FORKING_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def test_every_exported_name_resolves():
    # a stale entry in __all__ fails here instead of at a user's import
    missing = [name for name in hilbsam.__all__ if not hasattr(hilbsam, name)]
    assert missing == []
    assert len(set(hilbsam.__all__)) == len(hilbsam.__all__)
    namespace: dict = {}
    exec("from hilbsam import *", namespace)
    assert set(hilbsam.__all__) <= set(namespace)


def _forks(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        if node.module == "os":
            return any(alias.name == "fork" for alias in node.names)
        modules = [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Attribute):
        return node.attr == "fork" and isinstance(node.value, ast.Name) and node.value.id == "os"
    else:
        return False
    return any(m == f or m.startswith(f + ".") or f.startswith(m + ".")
               for m in modules for f in _FORKING_MODULES)


def test_the_package_never_forks():
    # every task runs in one process: no module imports a process pool,
    # multiprocessing or subprocess, or calls os.fork
    sources = sorted(Path(hilbsam.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if _forks(node)]
    assert found == []
