import ast
import importlib
import importlib.util
import inspect
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


def test_the_benchmark_hooks_resolve():
    # every name the benchmark's tracer wraps, and every name its pass
    # runner reads or rebinds, exists: deleting one fails here, not only in
    # the benchmark's own tests (the tracer imports only the standard library)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def module(name):
        return importlib.import_module(f"hilbsam.{name}")

    missing = [f"{m}.{attr}" for m, attr, *_ in tracer.FUNCTION_SPANS if not hasattr(module(m), attr)]
    missing += [f"{m}.{cls}.{attr}" for m, cls, attr, *_ in tracer.METHOD_SPANS
                if not hasattr(getattr(module(m), cls, None), attr)]
    rebound = ("colength_at_cutoff", "colon_ideal", "truncation_colength_oracle", "_GB_MEMO")
    missing += [f"groebner.{attr}" for attr in rebound if not hasattr(module("groebner"), attr)]
    assert missing == []
    # the colength hook reads the certifying cutoff, None on the global path
    groebner = module("groebner")
    R = module("polyring").RingSpec(("x", "y"), module("exactalg").GF32003)
    assert groebner.local_colength_info(groebner.ideal(R, ["x^2", "y"])).window is None
    assert groebner.local_colength_info(groebner.ideal(R, ["x^2 - x", "y"])).window == 1
    assert callable(module("problem").TaskRunner.run_task)
    assert "threads" in inspect.signature(module("problem").load_problem).parameters
