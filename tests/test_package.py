import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import hilbsam
from hilbsam import groebner
from hilbsam.suite import run_paper_suite

_FORKING_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")
# the seed-0 suite runs over primes no other test uses, one per test: no
# earlier test in the process has computed anything of them
_FRESH_FIELDS = ("fp:10007", "fp:10009")


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


def _module_level(kind) -> dict:
    """{name: value} of every module-level value of the package of the
    given kind (dunder names aside)."""
    return {f"{name}.{attr}": value for name, module in list(sys.modules.items())
            if name == "hilbsam" or name.startswith("hilbsam.")
            for attr, value in vars(module).items() if not attr.startswith("__") and isinstance(value, kind)}


def test_no_module_level_container_grows_while_the_suite_runs():
    # every basis, colon and chain lives on the ideal, quotient or
    # parameter ideal that owns it, and goes with it: a module-level dict,
    # list or set that grows is a process-wide cache.  The only
    # process-wide caches are the packings per (number of variables,
    # order) and the field operations per field, both lru-cached.
    before = {name: len(value) for name, value in _module_level((dict, list, set)).items()}
    assert run_paper_suite(field=_FRESH_FIELDS[0], seed=0).ok
    grown = {name: (before[name], len(value)) for name, value in _module_level((dict, list, set)).items()
             if len(value) > before.get(name, len(value))}
    assert grown == {}
    cached = {f"{f.__module__}.{f.__qualname__}" for f in _module_level(object).values() if hasattr(f, "cache_info")}
    assert cached == {"hilbsam.exactalg.field_ops", "hilbsam.groebner._packing"}


def test_the_suite_makes_the_same_engine_runs_every_time(monkeypatch):
    # a second run in the same process computes everything again: nothing
    # of the first outlives its problem
    runs = []
    real = groebner._engine
    monkeypatch.setattr(groebner, "_engine", lambda *a, **k: runs.append(1) or real(*a, **k))
    counts = []
    for _ in range(2):
        assert run_paper_suite(field=_FRESH_FIELDS[1], seed=0).ok
        counts.append(len(runs))
        runs.clear()
    assert counts[0] == counts[1] > 0


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
