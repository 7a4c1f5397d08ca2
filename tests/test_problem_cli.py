import json

import pytest

from helpers import spy_lazard_runs
from hilbsam import groebner
from hilbsam.cli import main
from hilbsam.errors import InputError
from hilbsam.problem import load_problem, parse_field, parse_order, run_problem

EXAMPLE_DOC = {
    "ring": {"variables": ["X", "Y", "Z", "W"], "field": "fp:32003"},
    "ideals": {
        "zw": ["Z", "W"],
        "pp2": ["X^2", "Y^2"],
        "two_planes": {"intersect": ["pp2", "zw"]},
        "c": ["X^2", "Y^2", "Z", "W"],
        "bigI": {"sum": [{"power": [["X", "Y", "Z", "W"], 2]}, "zw"]},
    },
    "quotients": {"A": {"defining": "two_planes", "dim": 2}},
    "parameters": {
        "Q": {"quotient": "A", "lifts": ["X^2-Z", "Y^2-W"]},
        "Qdiag": {"quotient": "A", "lifts": ["X-Z", "Y-W"]},
    },
    "artinian": {"C": {"ideal": "c"}},
    "tasks": [],
}


def _doc(*tasks):
    doc = json.loads(json.dumps(EXAMPLE_DOC))
    doc["tasks"] = list(tasks)
    return doc


def test_parse_field_and_order():
    assert parse_field("qq").kind == "rationals"
    assert parse_field("fp:101").characteristic == 101
    with pytest.raises(InputError):
        parse_field("fp:32004")
    with pytest.raises(InputError):
        parse_field("f2")
    assert parse_order("degrevlex").kind == "degrevlex"
    assert parse_order("elim:2").block == 2
    with pytest.raises(InputError):
        parse_order("weird")


def test_run_problem_pass_and_fail():
    report = run_problem(load_problem(_doc(
        {"name": "fit", "command": "coeffs", "quotient": "A", "params": "Qdiag",
         "nmax": 5, "expect": [5, -2, -1]},
        {"name": "kern", "command": "kernel-e1", "artinian": "C", "a": "X-Z",
         "b": "Y-W", "e0": 5, "expect": [-2, -1]},
    )))
    assert report.ok and report.checked == 2
    bad = run_problem(load_problem(_doc(
        {"name": "fit", "command": "coeffs", "quotient": "A", "params": "Qdiag",
         "nmax": 5, "expect": [5, -2, 0]},
    )))
    assert not bad.ok and bad.failed == 1


def test_unknown_names_are_input_errors():
    with pytest.raises(InputError):
        load_problem(_doc({"command": "coeffs", "quotient": "missing", "params": "Q"}))
    with pytest.raises(InputError):
        load_problem(_doc({"command": "coeffs", "quotient": "A", "params": "nope"}))
    with pytest.raises(InputError):
        load_problem(_doc({"command": "frobnicate"}))
    with pytest.raises(InputError):
        load_problem({"ring": {"variables": ["X"], "field": "fp:32003"},
                      "ideals": {"I": {"frobnicate": ["a"]}}, "tasks": []})


def test_report_json_round_trips():
    report = run_problem(load_problem(_doc(
        {"name": "len", "command": "colength", "ideal": "c", "quotient": "A", "expect": 4},
    )))
    payload = report.to_json()
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert payload["summary"]["ok"] is True
    assert "seconds" not in payload["tasks"][0]
    with_timing = report.to_json(timings=True)
    assert "seconds" in with_timing["tasks"][0]


def test_report_deterministic_for_fixed_seed():
    def render():
        report = run_problem(load_problem(_doc(
            {"name": "s", "command": "sample-reductions", "quotient": "A",
             "ideal": "bigI", "count": 2},
        ), seed=11))
        return json.dumps(report.to_json(), sort_keys=True)

    assert render() == render()


def test_field_override_changes_field_only():
    problem = load_problem(_doc(
        {"name": "len", "command": "colength", "ideal": "c", "quotient": "A", "expect": 4},
    ), field_override="qq")
    report = run_problem(problem)
    assert report.ok and report.field_name == "QQ"


def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc(
        {"name": "fit", "command": "coeffs", "quotient": "A", "params": "Qdiag",
         "nmax": 5, "expect": [5, -2, -1]},
    )))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out

    assert main(["run", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["ok"] is True

    path.write_text(json.dumps(_doc(
        {"name": "fit", "command": "coeffs", "quotient": "A", "params": "Qdiag",
         "nmax": 5, "expect": [5, -2, 99]},
    )))
    assert main(["run", str(path)]) == 1

    path.write_text(json.dumps(_doc({"command": "coeffs", "quotient": "nope", "params": "Q"})))
    assert main(["run", str(path)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2


def test_threads_below_one_is_an_input_error():
    with pytest.raises(InputError):
        load_problem(_doc(), threads=0)


def test_cli_not_locally_finite_is_exit_3(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "ring": {"variables": ["x", "y"], "field": "fp:32003"},
        "ideals": {"line": ["x"]},
        "tasks": [{"command": "colength", "ideal": "line"}],
    }))
    assert main(["run", str(path)]) == 3
    assert "NotLocallyFinite" in capsys.readouterr().err


def test_cli_single_operation(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc()))
    assert main(["colength", "--file", str(path), "--ideal", "c", "--quotient", "A",
                 "--expect", "4"]) == 0
    assert main(["dseq", "--file", str(path), "--quotient", "A",
                 "--elems", "X-Z", "Y-W"]) == 0
    out = capsys.readouterr().out
    assert "False" in out
    assert main(["gb", "--file", str(path), "--ideal", "two_planes", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tasks"][0]["result"]["size"] == 4


def test_cli_suite_smoke(capsys):
    # keep it cheap: the dedicated acceptance module runs the suite in full
    assert main(["suite", "paper", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["ok"] is True
    assert payload["summary"]["checked"] == payload["summary"]["total"]


def test_suite_passes_the_cutoff_to_every_quotient(monkeypatch, capsys):
    from hilbsam import suite

    caps = []

    def record(problem):
        caps.append({A.cap for A in problem.quotients.values()})
        return run_problem(load_problem(_doc()))

    monkeypatch.setattr(suite, "run_problem", record)
    assert main(["suite", "paper", "--cutoff", "7", "--json"]) == 0
    assert main(["suite", "paper", "--json"]) == 0
    assert caps == [{7}, {64}]


def test_nmax_is_refused_outside_single_operations(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc(
        {"name": "fit", "command": "hilb", "quotient": "A", "params": "Qdiag", "nmax": 5},
    )))
    for argv in (["suite", "paper", "--nmax", "8"], ["run", str(path), "--nmax", "8"]):
        assert main(argv) == 2
        assert "--nmax applies to single-operation commands" in capsys.readouterr().err
    # a single operation still takes it
    assert main(["hilb", "--file", str(path), "--quotient", "A", "--params", "Qdiag",
                 "--nmax", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["tasks"][0]["result"]["samples"]) == 4


def test_negative_ncap_is_an_input_error(tmp_path, capsys):
    # Q = (X - Z, Y - W) is a reduction of m with certificate 2
    doc = _doc({"name": "r", "command": "reduction", "quotient": "A", "params": "Qdiag",
                "ideal": "m", "ncap": 2})
    doc["ideals"]["m"] = ["X", "Y", "Z", "W"]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["result"] == {
        "certificate": 2, "is_reduction": True}
    doc["tasks"][0]["ncap"] = -1
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "'ncap' must be a non-negative integer" in capsys.readouterr().err


def test_negative_count_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc({"name": "s", "command": "sample-reductions", "quotient": "A",
                                     "ideal": "bigI", "count": -2})))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'count' must be a non-negative integer" in err
    assert "sampled" not in err


def test_unreadable_problem_files_are_input_errors(tmp_path, capsys):
    # a directory, or a document that is no JSON object, ends in exit 2
    # with a message, never a traceback
    assert main(["run", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert main(["colength", "--file", str(tmp_path), "--ideal", "c"]) == 2
    assert "cannot read" in capsys.readouterr().err
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["colength", "--file", str(listed), "--ideal", "c"]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_sampled_coeffs_builds_one_local_basis_per_candidate(monkeypatch):
    # parameter_ideal builds each candidate's local standard basis in one
    # Lazard run, kept on the chart's defining ideal; hs_function walks that
    # one and runs no other
    from hilbsam import hilbert

    problem = load_problem(_doc(
        {"name": "s", "command": "sampled-coeffs", "quotient": "A", "ideal": "bigI",
         "count": 3, "seed": 0, "nmax": 5},
    ))
    candidates = []
    real = hilbert.parameter_ideal
    monkeypatch.setattr(hilbert, "parameter_ideal", lambda *a: candidates.append(a) or real(*a))
    runs = spy_lazard_runs(monkeypatch)
    report = run_problem(problem)
    assert report.ok and len(report.tasks[0].result["coeffs"]) == 3
    assert len(runs) == len(candidates) >= 3


_OFF_ORIGIN_DOC = {
    # (x^2 - x^3, y^5) has a second point at x = 1: its colength at the
    # origin, 10, comes from the weight-0 local standard basis, whose
    # staircase has top degree 5
    "ring": {"variables": ["x", "y"], "field": "fp:32003"},
    "ideals": {"J": ["x^2 - x^3", "y^5"]},
    "artinian": {"C": {"ideal": "J"}},
}


@pytest.mark.parametrize("task, value", [
    ({"command": "colength", "ideal": "J"}, 10),
    ({"command": "ann-length", "artinian": "C", "f": "x"}, 5),
], ids=["colength", "ann-length"])
def test_run_cutoff_caps_every_colength(tmp_path, capsys, task, value):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_OFF_ORIGIN_DOC, "tasks": [task]}))
    assert main(["run", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
    assert result["value"] == value
    assert result.get("algebra_length", 10) == 10
    # a cap of 3 certifies no value
    assert main(["run", str(path), "--cutoff", "3"]) == 3
    assert "NotLocallyFinite" in capsys.readouterr().err


def test_the_cap_must_reach_two_past_the_local_staircase(tmp_path, capsys):
    # the staircase's top degree t = 5 needs t + 2 <= cap
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_OFF_ORIGIN_DOC, "tasks": [{"command": "colength", "ideal": "J"}]}))
    assert main(["run", str(path), "--cutoff", "6"]) == 3
    assert "NotLocallyFinite" in capsys.readouterr().err
    assert main(["run", str(path), "--cutoff", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["result"] == {"value": 10}


@pytest.mark.parametrize("cutoff", [0, -1])
def test_cutoffs_below_one_are_input_errors(tmp_path, capsys, cutoff):
    # a cap below 1 is refused as --cutoff and as a task's cutoff alike,
    # neither read as the default cap nor run into a budget failure
    path = tmp_path / "problem.json"
    task = {"command": "colength", "ideal": "J"}
    for argv, tasks in ([["--cutoff", str(cutoff)], [task]], [[], [{**task, "cutoff": cutoff}]]):
        path.write_text(json.dumps({**_OFF_ORIGIN_DOC, "tasks": tasks}))
        assert main(["run", str(path), *argv]) == 2
        assert f"'cutoff' must be a positive integer, got {cutoff}" in capsys.readouterr().err


def test_every_subcommand_is_a_task_command():
    import argparse

    from hilbsam.cli import build_parser
    from hilbsam.problem import TaskRunner

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    operations = set(sub.choices) - {"run", "suite"}
    for command in operations:
        load_problem(_doc({"command": command}))  # accepted
    commands = {name[4:].replace("_", "-") for name in vars(TaskRunner) if name.startswith("cmd_")}
    assert commands == operations
    for command in ("run", "suite"):
        with pytest.raises(InputError, match="unknown command"):
            load_problem(_doc({"command": command}))


def _task_shape(**task):
    return _doc({"name": "t", **task})


def _doc_shape(edit):
    doc = _doc()
    edit(doc)
    return doc


_MALFORMED = {
    # task values the task-key table cannot read
    "window": (_task_shape(command="superficial", quotient="A", params="Qdiag", a="X-Z", window=5),
               "'window'"),
    "nmax": (_task_shape(command="hilb", quotient="A", params="Qdiag", nmax=[3]), "'nmax'"),
    "named": (_task_shape(command="lambda", quotient="A", ideal="c", named=5), "'named'"),
    "elems": (_task_shape(command="dseq", quotient="A", elems=5), "'elems'"),
    "elems-entry": (_task_shape(command="dseq", quotient="A", elems=[5]), "'elems'"),
    "ideal-object": (_task_shape(command="gb", ideal={"x": 1}), "'ideal'"),
    "ideal-entry": (_task_shape(command="gb", ideal=[5]), "'ideal'"),
    "order": (_task_shape(command="gb", ideal="c", order=5), "'order'"),
    "window-length": (_task_shape(command="superficial", window=[0, 7, 1]), "'window' must be"),
    "flag": (_task_shape(command="sampled-coeffs", check_dseq=1), "'check_dseq' must be"),
    "integer-text": (_task_shape(command="hilb", nmax="5"), "'nmax' must be"),
    "named-entry": (_task_shape(command="lambda", named=["Q", "nope"]), "'named' must be"),
    "polynomial-syntax": (_task_shape(command="slice-e1", a="X+"), "'a' must be a polynomial"),
    # a slice element outside the maximal ideal
    "slice-zero": (_task_shape(command="slice-e1", quotient="A", a="0"), "not a nonzero element"),
    "slice-unit": (_task_shape(command="slice-e1", quotient="A", a="1"), "not a nonzero element"),
    "slice-unit-plus": (_task_shape(command="slice-e1", quotient="A", a="1+X"), "not a nonzero element"),
    "window-reversed": (_task_shape(command="superficial", quotient="A", params="Qdiag", a="X-Z",
                                    window=[5, 2]), "'window' must be"),
    "window-negative": (_task_shape(command="superficial", quotient="A", params="Qdiag", a="X-Z",
                                    window=[-3, 0]), "holds no n >= 0"),
    "nmax-negative": (_task_shape(command="ideal-hilb", quotient="A", ideal="bigI", nmax=-2),
                      "'nmax' must be a non-negative integer"),
    "expect-min-distinct": (_task_shape(command="gb", ideal="c", expect_min_distinct="x"),
                            "'expect_min_distinct' must be"),
    # document-level values
    "ring-variables": (_doc_shape(lambda d: d["ring"].update(variables=5)), "variables"),
    "ring-field": (_doc_shape(lambda d: d["ring"].update(field=5)), "field"),
    "ring-order": (_doc_shape(lambda d: d["ring"].update(order=5)), "order"),
    "quotients": (_doc_shape(lambda d: d.update(quotients=[1])), "'quotients'"),
    # a dimension that is not an integer, which int() would read as 1
    **{f"dim-{kind}": (_doc_shape(lambda d, v=value: d["quotients"]["A"].update(dim=v)),
                       "quotient 'A': 'dim' must be an integer")
       for kind, value in (("float", 1.9), ("bool", True), ("text", "1"))},
    "artinian": (_doc_shape(lambda d: d.update(artinian=["x"])), "'artinian'"),
    "intersect": (_doc_shape(lambda d: d["ideals"].update(bad={"intersect": 5})), "intersect"),
    "lifts": (_doc_shape(lambda d: d["parameters"]["Q"].update(lifts=5)), "'lifts'"),
    "seed": (_doc_shape(lambda d: d.update(seed="x")), "'seed'"),
    "params-quotient": (_doc_shape(lambda d: (
        d["quotients"].update(A2={"defining": "two_planes", "dim": 2}),
        d["tasks"].append({"command": "coeffs", "quotient": "A2", "params": "Q"}))),
        "'Q' is declared over 'A', not 'A2'"),
    "named-quotient": (_doc_shape(lambda d: (
        d["quotients"].update(A2={"defining": "two_planes", "dim": 2}),
        d["tasks"].append({"command": "lambda", "quotient": "A2", "ideal": "c", "named": ["Q"]}))),
        "'Q' is declared over 'A', not 'A2'"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_documents_exit_2(tmp_path, capsys, name):
    doc, mention = _MALFORMED[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert mention in err


_HEAD_OPERATION_FLAGS = {
    "-h", "--help", "--file", "--field", "--seed", "--nmax", "--cutoff", "--json",
    "--timings", "--expect", "--ideal", "--quotient", "--params", "--artinian", "--a", "--b", "--f",
    "--order", "--e0", "--count", "--ncap", "--elems", "--named", "--all-orders", "--check-dseq",
    "--window",
}


def _operation_parsers():
    import argparse

    from hilbsam.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: p for name, p in sub.choices.items() if name not in ("run", "suite")}


def test_operation_flags_are_unchanged():
    parsers = _operation_parsers()
    assert len(parsers) == 20
    for name, parser in parsers.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == _HEAD_OPERATION_FLAGS, name


def test_task_values_are_read_only_through_the_task_key_table():
    # a command method takes only a reader of the task-key table, and every
    # key of the table is a flag of every single-operation subcommand
    import inspect

    from hilbsam.cli import _COMMON_KEYS
    from hilbsam.problem import TASK_KEYS, TaskRunner

    for name, method in vars(TaskRunner).items():
        if name.startswith("cmd_"):
            assert list(inspect.signature(method).parameters) == ["self", "read"], name
            source = inspect.getsource(method)
            assert "task[" not in source and "task.get(" not in source, name
    table_flags = {"--" + key.replace("_", "-") for key in TASK_KEYS}
    for name, parser in _operation_parsers().items():
        assert table_flags <= {s for a in parser._actions for s in a.option_strings}, name
    assert set(_COMMON_KEYS) <= set(TASK_KEYS)


def test_missing_task_keys_fail_when_the_command_reads_them(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc({"command": "hilb", "params": "Qdiag"})))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: task needs 'quotient'\n"
    assert main(["superficial", "--file", str(path), "--quotient", "A", "--params", "Qdiag",
                 "--a", "X-Z", "--window", "2", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["result"]["window"] == [2, 4]


def test_kernel_windows_below_zero(tmp_path, capsys):
    # H(n) = l(A/Q^{n+1}) is 0 for n < 0: a window reaching below 0 fits the
    # same tail, and a window with no n >= 0 is an input error naming it
    from hilbsam.suite import paper_suite_doc

    path = tmp_path / "paper.json"
    path.write_text(json.dumps(paper_suite_doc()))
    args = ["kernel-e1", "--file", str(path), "--artinian", "C_pp2", "--a", "X-Z", "--b", "Y-W",
            "--e0", "5", "--json", "--window"]
    results = []
    for window in (["0", "8"], ["-3", "8"]):
        assert main(args + window) == 0
        results.append(json.loads(capsys.readouterr().out)["tasks"][0]["result"])
    assert results[0]["e1"] == results[1]["e1"] == -2 and results[0]["e2"] == results[1]["e2"] == -1
    assert main(args + ["-8", "-1"]) == 2
    assert capsys.readouterr().err == "error: task 'kernel-e1': the kernel window [-8, -1) holds no n >= 0\n"


def test_a_task_that_raises_is_named_on_stderr(tmp_path, capsys):
    # the error line of a run names the task that raised, and keeps the
    # exit code and the exception class: 3 for a product past the packed
    # range, 2 for a missing key
    doc = {
        "ring": {"variables": ["x", "y"], "field": "fp:32003"},
        "ideals": {"a": ["y^2"], "I": ["x^20000 + x^2", "y"], "m": ["x", "y"]},
        "quotients": {"A": {"defining": "a", "dim": 1}},
        "parameters": {"Q": {"quotient": "A", "lifts": ["x"]}},
        "tasks": [{"name": "ok", "command": "colength", "ideal": "m"},
                  {"name": "big", "command": "ideal-hilb", "quotient": "A", "ideal": "I"}],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: task 'big': PackedRangeExceeded: monomial degree 40000 leaves the packed range (< 32768)\n")
    doc["tasks"][1] = {"name": "bare", "command": "hilb", "params": "Q"}
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: task 'bare': task needs 'quotient'\n"


def test_ideal_hilb_nmax_zero_is_one_sample(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc({"command": "ideal-hilb", "quotient": "A", "ideal": "bigI", "nmax": 0})))
    assert main(["run", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["result"]["samples"] == [3]


def test_local_commands_run_through_the_cli(tmp_path, capsys):
    # two_planes(2) with the values the benchmark's local workload freezes
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc(
        {"name": "slice", "command": "slice-e1", "quotient": "A", "params": "Qdiag", "a": "X-Z",
         "expect": -2},
        {"name": "bare-slice", "command": "slice-e1", "quotient": "A", "a": "X-Z", "expect": -2},
        {"name": "satq", "command": "sat-quotient-length", "quotient": "A", "ideal": ["X^2-Z"],
         "expect": 4},
        {"name": "unmixed", "command": "unmixed", "quotient": "A", "a": "X-Z", "b": "Y-W",
         "expect": 2},
    )))
    assert main(["run", str(path), "--json"]) == 0
    tasks = json.loads(capsys.readouterr().out)["tasks"]
    assert [(t["primary"], t["pass"]) for t in tasks] == [(-2, True), (-2, True), (4, True), (2, True)]
    assert tasks[3]["result"]["generators"] == ["X - Z", "Z^2", "Y^2*W", "Y^2*Z"]


def test_slice_then_unmixed_saturate_by_m_once(monkeypatch):
    # both tasks read a + (a) from the one handle A keeps, so the slice's
    # J : m^inf is the unmixed task's quotient length too; its parts by X
    # and Z are the unit ideal and join no intersection, so the parts by Y
    # and W take one; the saturation by Y - W is by elimination, which
    # intersects nothing
    problem = load_problem(_doc(
        {"name": "slice", "command": "slice-e1", "quotient": "A", "a": "X-Z"},
        {"name": "unmixed", "command": "unmixed", "quotient": "A", "a": "X-Z", "b": "Y-W"},
    ))
    calls = []
    real = groebner.intersect
    monkeypatch.setattr(groebner, "intersect", lambda I, J: calls.append(1) or real(I, J))
    report = run_problem(problem)
    assert [t.primary for t in report.tasks] == [-2, 2]
    assert len(calls) == 1


@pytest.mark.parametrize("a", ["1+X", "0", "-3"])
def test_kernel_e1_refuses_a_parameter_image_outside_the_maximal_ideal(tmp_path, capsys, a):
    # a unit or zero image would give e1 = 0 or -l(C) on C = R/(X^3, Y^3, Z, W)
    doc = _doc({"name": "k", "command": "kernel-e1", "artinian": "C3", "a": a, "b": "Y-W", "e0": 10})
    doc["ideals"]["c3"] = ["X^3", "Y^3", "Z", "W"]
    doc["artinian"]["C3"] = {"ideal": "c3"}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "parameter image a" in capsys.readouterr().err
    doc["tasks"][0]["a"] = "X-Z"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["primary"] == [-3, -3]


def test_sally_nmax_zero_is_an_input_error(tmp_path, capsys):
    # Sally lengths are reported for n = 1..nmax, so nmax 0 would check nothing
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc(
        {"command": "sally", "quotient": "A", "ideal": "c", "params": "Q", "nmax": 0})))
    assert main(["run", str(path)]) == 2
    assert "n_max 0 checks nothing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sampled-coeffs", "lambda"])
def test_sampling_commands_read_ncap(tmp_path, capsys, command):
    # every reduction of m in two_planes(4) has least reduction number 6
    doc = _doc({"name": "s", "command": command, "quotient": "A4", "ideal": "m", "count": 1,
                "seed": 0, "ncap": 5})
    doc["ideals"] |= {"m": ["X", "Y", "Z", "W"], "pp4": ["X^4", "Y^4"],
                      "two_planes4": {"intersect": ["pp4", "zw"]}}
    doc["quotients"]["A4"] = {"defining": "two_planes4", "dim": 2}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 3
    assert "found 0/1 reductions in 10 attempts" in capsys.readouterr().err
    doc["tasks"][0]["ncap"] = 6
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
    if command == "lambda":
        assert result["entries"]["sample0"] == {"certificate": 6, "coeffs": [17, -4, -6]}
    else:
        assert result["coeffs"] == [[17, -4, -6]]
