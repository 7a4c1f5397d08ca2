"""Benchmark workloads: the problem document each pass solves, and the
checks every task result must pass.

BENCHMARK.json measures two workloads (see README.md for why):

  suite_fp      the built-in reproduction suite over F_32003
  local_kernel  the kernel_wide and local_checks tasks in one document

The others can be run by name but are not in BENCHMARK.json:

  suite_qq      the same suite over QQ
  kernel_wide   kernel-method tasks on wide Artinian algebras
  local_checks  slice, saturation, unmixed, d-sequence, superficiality and
                colength tasks on the two-plane rings A_n, n = 2..4
  smoke         a tiny mix used by the benchmark's own tests

The workload seed reaches only the sampled reductions of the suites; the
other workloads ignore it.
"""

from __future__ import annotations

WORKLOADS = ("suite_fp", "local_kernel", "suite_qq", "kernel_wide", "local_checks")
SUITE_FIELDS = {"suite_fp": "fp:32003", "suite_qq": "qq"}
# the field of the once-per-run field-independence pass
CROSS_FIELD = {"suite_fp": "qq", "suite_qq": "fp:32003"}

# kernel_wide: C = R/(X^l, Y^l, Z, W) with a = X - Z, b = Y - W; (l, window end)
KERNEL_CASES = ((6, 12), (7, 12), (8, 12))

LOCAL_NS = (2, 3, 4)

# local_checks primaries, frozen from the program at the commit that added
# the benchmark.  Every task name of the local_checks document is a key.
LOCAL_EXPECTED = {
    "n2.slice": -2,
    "n2.satq": 4,
    "n2.unmixed": 2,
    "n2.dseq": False,
    "n2.superficial": True,
    "n2.colength": 3,
    "n2.colength_off": 4,
    "n3.slice": -3,
    "n3.satq": 9,
    "n3.unmixed": 3,
    "n3.dseq": False,
    "n3.superficial": True,
    "n3.colength": 4,
    "n3.colength_off": 9,
    "n4.slice": -4,
    "n4.satq": 16,
    "n4.unmixed": 4,
    "n4.dseq": False,
    "n4.superficial": True,
    "n4.colength": 5,
    "n4.colength_off": 16,
}

_RING = {"variables": ["X", "Y", "Z", "W"], "field": "fp:32003"}


def seed_used(workload: str) -> bool:
    return workload in SUITE_FIELDS


def document(workload: str) -> tuple[dict, str | None]:
    """(problem document, field override) for a workload."""
    if workload in SUITE_FIELDS:
        from hilbsam.suite import paper_suite_doc

        return paper_suite_doc(), SUITE_FIELDS[workload]
    if workload == "kernel_wide":
        return _kernel_doc(KERNEL_CASES), None
    if workload == "local_checks":
        return _local_doc(LOCAL_NS), None
    if workload == "local_kernel":
        return _merged_doc(_local_doc(LOCAL_NS), _kernel_doc(KERNEL_CASES)), None
    if workload == "smoke":
        return _smoke_doc(), None
    raise ValueError(f"unknown workload {workload!r}")


def _kernel_task(l: int, window_end: int) -> dict:
    return {
        "name": f"K.l{l}.w{window_end}",
        "command": "kernel-e1",
        "artinian": f"C{l}",
        "a": "X-Z",
        "b": "Y-W",
        "e0": l * l + 1,
        "window": [0, window_end],
        # closed form for the two-plane family: (e1, e2) = (-l, -l(l-1)/2)
        "expect": [-l, -(l * (l - 1)) // 2],
    }


def _kernel_doc(cases) -> dict:
    return {
        "ring": dict(_RING),
        "artinian": {f"C{l}": {"ideal": [f"X^{l}", f"Y^{l}", "Z", "W"]} for l, _ in cases},
        "tasks": [_kernel_task(l, w) for l, w in cases],
    }


def _local_doc(ns) -> dict:
    ideals: dict = {"zw": ["Z", "W"]}
    quotients: dict = {}
    parameters: dict = {}
    tasks: list[dict] = []
    for n in ns:
        A = f"A{n}"
        ideals[f"pp{n}"] = [f"X^{n}", f"Y^{n}"]
        ideals[f"def{n}"] = {"intersect": [f"pp{n}", "zw"]}
        quotients[A] = {"defining": f"def{n}", "dim": 2}
        parameters[f"Q{n}"] = {"quotient": A, "lifts": ["X-Z", "Y-W"]}
        tasks += [
            {"name": f"n{n}.slice", "command": "slice-e1", "quotient": A,
             "params": f"Q{n}", "a": "X-Z"},
            {"name": f"n{n}.satq", "command": "sat-quotient-length", "quotient": A,
             "ideal": [f"X^{n}-Z"]},
            {"name": f"n{n}.unmixed", "command": "unmixed", "quotient": A,
             "a": "X-Z", "b": "Y-W"},
            {"name": f"n{n}.dseq", "command": "dseq", "quotient": A,
             "elems": ["X-Z", "Y-W"], "all_orders": True},
            {"name": f"n{n}.superficial", "command": "superficial", "quotient": A,
             "params": f"Q{n}", "a": "X-Z"},
            {"name": f"n{n}.colength", "command": "colength", "quotient": A,
             "ideal": ["X-Z", "Y-W", "Z*(Z-1)"]},
            # a second point at X = 1, so the global path refuses and the
            # truncation ladder runs
            {"name": f"n{n}.colength_off", "command": "colength",
             "ideal": [f"X^{n}*(X-1)", f"Y^{n}", "Z", "W"]},
        ]
    for t in tasks:
        t["expect"] = LOCAL_EXPECTED[t["name"]]
    return {
        "ring": dict(_RING),
        "ideals": ideals,
        "quotients": quotients,
        "parameters": parameters,
        "tasks": tasks,
    }


def _merged_doc(local: dict, kernel: dict) -> dict:
    """The local tasks followed by the kernel tasks, over the same ring."""
    return {**local, "artinian": kernel["artinian"], "tasks": local["tasks"] + kernel["tasks"]}


def _smoke_doc() -> dict:
    doc = _merged_doc(_local_doc((2,)), _kernel_doc(((3, 8),)))
    doc["tasks"].append(
        {"name": "fit", "command": "coeffs", "quotient": "A2", "params": "Q2",
         "nmax": 5, "expect": [5, -2, -1]})
    return doc


def check(task: dict, result) -> list[str]:
    """Reasons a task result is wrong (empty when it is right).  ``result``
    is the TaskResult of a one-task report."""
    reasons = []
    if result.passed is not True:
        reasons.append(f"expectation failed: {result.expectations}")
    if task["command"] == "kernel-e1":
        r = result.result
        if "e0" in task and r["e0"] != int(task["e0"]):
            reasons.append(f"e0 {r['e0']} != {task['e0']}")
        if not -r["algebra_length"] <= r["e1"] <= -r["annihilator_bound"]:
            reasons.append(f"kernel bracket violated: {r}")
    return reasons
