"""Problem files and task execution.

A problem file is a single JSON document declaring a ring, named ideals
(possibly via ideal operations), named quotient rings, parameter ideals
and Artinian presentations, followed by task blocks with optional integer
or integer-tuple expectations.  Tasks run in order; the report carries
results and warnings (warnings are data, never stdout-only prose).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple

from .errors import HilbsamError, InputError, PolySyntaxError, UnknownVariable
from .exactalg import FieldConfig, QQ, prime_field
from .groebner import (
    IdealHandle,
    colon_ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    local_colength,
    saturate,
    sat_quotient_length,
)
from .hilbert import (
    CERTIFICATE_CAP,
    ParameterIdealSpec,
    QuotientRingSpec,
    hs_function,
    hilbert_report,
    ideal_hilbert_report,
    is_reduction,
    lambda_map,
    parameter_ideal,
    sample_reductions,
)
from .polyring import DEGREVLEX, LEX, MonomialOrder, Polynomial, RingSpec, elimination_order, parse_poly
from .secmethods import (
    action_pair,
    annihilator_length,
    artin_algebra,
    e1_e2_via_kernel,
    e1_via_slice,
    is_d_sequence,
    is_superficial,
    k_plus_j_analysis,
    sally_lengths,
    sally_rank,
    unmixed_component,
)


def parse_field(text: str) -> FieldConfig:
    if text == "qq":
        return QQ
    if isinstance(text, str) and text.startswith("fp:"):
        try:
            return prime_field(int(text[3:]))
        except ValueError as exc:
            raise InputError(f"bad field spec {text!r}: {exc}") from exc
    raise InputError(f"unknown field spec {text!r} (use 'qq' or 'fp:P')")


def parse_order(text: str) -> MonomialOrder:
    if text == "degrevlex":
        return DEGREVLEX
    if text == "lex":
        return LEX
    if isinstance(text, str) and text.startswith("elim:"):
        return elimination_order(int(text[5:]))
    raise InputError(f"unknown order {text!r}")


_REQUIRED = object()


@dataclass
class Problem:
    """Resolved problem file: named objects plus the task list."""

    ring: RingSpec
    ideals: dict[str, IdealHandle]
    quotients: dict[str, QuotientRingSpec]
    parameters: dict[str, tuple[str, ParameterIdealSpec]]  # name -> (quotient name, spec)
    artinian: dict[str, IdealHandle]
    tasks: list[dict]
    seed: int = 0
    default_order: MonomialOrder = DEGREVLEX
    cap: int = 64  # every colength's cutoff cap

    def read(self, task: dict, key: str, default: Any = _REQUIRED) -> Any:
        """task[key] read by its TASK_KEYS kind, or default when the key is
        absent (an InputError when there is no default).  A value that
        cannot be read is an InputError naming the key."""
        if key not in task:
            _require(default is not _REQUIRED, f"task needs {key!r}")
            return default
        kind, value = TASK_KEYS[key], task[key]
        try:
            return kind.read(self, value)
        except (InputError, TypeError, ValueError, KeyError) as exc:
            detail = f" ({exc})" if isinstance(exc, (PolySyntaxError, UnknownVariable)) else ""
            raise InputError(f"{key!r} must be {kind.what}, got {value!r}{detail}") from exc


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _checked(ok: bool, value: Any) -> Any:
    if not ok:
        raise TypeError(value)
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _polynomials(ring: RingSpec, texts: Any) -> list[Polynomial]:
    _require(isinstance(texts, (list, tuple)) and all(isinstance(s, str) for s in texts),
             f"expected a list of polynomial strings, got {texts!r}")
    return [parse_poly(ring, s) for s in texts]


def _parameters(p: Problem, name: Any) -> ParameterIdealSpec:
    return p.parameters[name][1]  # KeyError, or TypeError when unhashable


class TaskKey(NamedTuple):
    """How a task key is read: what its value must be, the reader from
    (problem, value) to what the commands take, and the argparse keywords
    of its per-operation CLI flag."""

    what: str
    read: Callable[[Problem, Any], Any]
    flag: dict


_TEXT, _NUMBER = {"type": str}, {"type": int}
_POLYNOMIAL = TaskKey("a polynomial", lambda p, v: _polynomials(p.ring, [v])[0], _TEXT)
_INTEGER = TaskKey("an integer", lambda p, v: _checked(_is_int(v), v), _NUMBER)
_COUNT = TaskKey("a non-negative integer", lambda p, v: _checked(_is_int(v) and v >= 0, v), _NUMBER)
_POSITIVE = TaskKey("a positive integer", lambda p, v: _checked(_is_int(v) and v > 0, v), _NUMBER)
_FLAG = TaskKey("true or false", lambda p, v: _checked(isinstance(v, bool), v), {"action": "store_true"})

# every key a task block may carry besides its command, name and expectations
TASK_KEYS: dict[str, TaskKey] = {
    "quotient": TaskKey("a quotient name", lambda p, v: p.quotients[v], _TEXT),
    "params": TaskKey("a parameter ideal name", _parameters, _TEXT),
    "artinian": TaskKey("an Artinian presentation name", lambda p, v: p.artinian[v], _TEXT),
    "ideal": TaskKey("an ideal name or a list of polynomials",
                     lambda p, v: p.ideals[v] if isinstance(v, str)
                     else IdealHandle(p.ring, _polynomials(p.ring, v)), _TEXT),
    "a": _POLYNOMIAL,
    "b": _POLYNOMIAL,
    "f": _POLYNOMIAL,
    "elems": TaskKey("a list of polynomials", lambda p, v: _polynomials(p.ring, v), {"nargs": "*"}),
    "named": TaskKey("a list of parameter ideal names",
                     lambda p, v: [(n, _parameters(p, n)) for n in _checked(isinstance(v, (list, tuple)), v)],
                     {"nargs": "*"}),
    "order": TaskKey("degrevlex, lex or elim:b", lambda p, v: parse_order(v), _TEXT),
    "e0": _INTEGER,
    "nmax": _COUNT,
    "cutoff": _POSITIVE,
    "seed": _INTEGER,
    "count": _COUNT,
    "ncap": _COUNT,
    "window": TaskKey("[start, stop], two integers with start < stop",
                      lambda p, v: range(*_checked(isinstance(v, (list, tuple)) and len(v) == 2
                                                   and all(map(_is_int, v)) and v[0] < v[1], v)),
                      {"type": int, "nargs": 2}),
    "all_orders": _FLAG,
    "check_dseq": _FLAG,
}


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key) or {}
    _require(isinstance(value, dict), f"{key!r} must be an object, got {value!r}")
    return value


def load_problem(doc: dict, field_override: str | None = None, seed: int | None = None,
                 cutoff: int | None = None, threads: int = 1) -> Problem:
    """Validate and resolve a problem document.  Every task key in
    TASK_KEYS is read once here, so a malformed task fails before any task
    runs.  Every task runs in this process: threads is accepted (at least 1)
    for callers that still pass it, and nothing reads it."""
    _require(threads >= 1, f"threads must be at least 1, got {threads}")
    _require(isinstance(doc, dict), "problem document must be a JSON object")
    ring_doc = doc.get("ring")
    _require(isinstance(ring_doc, dict), "missing 'ring' object")
    variables = ring_doc.get("variables", [])
    _require(isinstance(variables, list), f"ring 'variables' must be a list of names, got {variables!r}")
    _require(1 <= len(variables) <= 16, f"bad ring spec: need between 1 and 16 variables, got {len(variables)}")
    field_text = field_override or ring_doc.get("field", "fp:32003")
    try:
        ring = RingSpec(tuple(variables), parse_field(field_text))
    except (TypeError, ValueError, InputError) as exc:
        raise InputError(f"bad ring spec: {exc}") from exc
    tasks = doc.get("tasks") or []
    _require(isinstance(tasks, list), "'tasks' must be a list")
    problem = Problem(ring, {}, {}, {}, {}, tasks,
                      default_order=parse_order(ring_doc.get("order", "degrevlex")))
    problem.cap = problem.read({} if cutoff is None else {"cutoff": cutoff}, "cutoff", 64)
    problem.seed = problem.read(doc, "seed", 0) if seed is None else seed
    ideals = problem.ideals

    def resolve_ideal(value: Any) -> IdealHandle:
        if isinstance(value, str):
            _require(value in ideals, f"unknown ideal name {value!r}")
            return ideals[value]
        if isinstance(value, list):
            return IdealHandle(ring, _polynomials(ring, value))
        if isinstance(value, dict) and len(value) == 1:
            op, args = next(iter(value.items()))
            _require(isinstance(args, list), f"{op} takes a list, got {args!r}")
            if op == "power":
                _require(len(args) == 2 and _is_int(args[1]), "power takes [ideal, n]")
                return ideal_power(resolve_ideal(args[0]), args[1])
            parts = [resolve_ideal(a) for a in args]
            _require(len(parts) >= 2, f"{op} takes at least two ideals")
            out = parts[0]
            for nxt in parts[1:]:
                if op == "intersect":
                    out = intersect(out, nxt)
                elif op == "sum":
                    out = ideal_sum(out, nxt)
                elif op == "product":
                    out = ideal_product(out, nxt)
                elif op == "saturate":
                    out = saturate(out, nxt)
                elif op == "colon":
                    out = colon_ideal(out, nxt)
                else:
                    raise InputError(f"unknown ideal operation {op!r}")
            return out
        raise InputError(f"cannot interpret ideal value {value!r}")

    for name, value in _section(doc, "ideals").items():
        ideals[name] = resolve_ideal(value)

    for name, q in _section(doc, "quotients").items():
        _require(isinstance(q, dict) and "defining" in q and "dim" in q,
                 f"quotient {name!r} needs 'defining' and 'dim'")
        _require(_is_int(q["dim"]), f"quotient {name!r}: 'dim' must be an integer, got {q['dim']!r}")
        try:
            problem.quotients[name] = QuotientRingSpec(
                ring, resolve_ideal(q["defining"]), q["dim"], problem.cap
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad quotient {name!r}: {exc}") from exc

    for name, p in _section(doc, "parameters").items():
        _require(isinstance(p, dict) and "quotient" in p and isinstance(p.get("lifts"), list),
                 f"parameter ideal {name!r} needs 'quotient' and a list 'lifts'")
        qname = p["quotient"]
        _require(isinstance(qname, str) and qname in problem.quotients, f"unknown quotient {qname!r}")
        problem.parameters[name] = (
            qname, parameter_ideal(problem.quotients[qname], _polynomials(ring, p["lifts"])))

    for name, a in _section(doc, "artinian").items():
        _require(isinstance(a, dict) and "ideal" in a, f"artinian {name!r} needs 'ideal'")
        problem.artinian[name] = resolve_ideal(a["ideal"])

    for i, task in enumerate(tasks):
        _require(isinstance(task, dict), f"task {i} must be an object")
        command = task.get("command")
        _require(isinstance(command, str) and hasattr(TaskRunner, "cmd_" + command.replace("-", "_")),
                 f"task {i}: unknown command {command!r}")
        try:
            for key in task:
                if key in TASK_KEYS:
                    problem.read(task, key)
            qname = task.get("quotient")
            for pname in ([task["params"]] if "params" in task else []) + list(task.get("named", [])):
                over = problem.parameters[pname][0]
                _require(qname in (None, over),
                         f"parameter ideal {pname!r} is declared over {over!r}, not {qname!r}")
            least = task.get("expect_min_distinct", 0)
            _require(_is_int(least) and least >= 0,
                     f"'expect_min_distinct' must be {_COUNT.what}, got {least!r}")
        except InputError as exc:
            raise InputError(f"task {i}: {exc}") from exc
    return problem


# ---------------------------------------------------------------------------
# task execution

@dataclass
class TaskResult:
    name: str
    command: str
    result: dict
    primary: Any
    expectations: list[tuple[str, Any, Any, bool]]  # (kind, expected, got, ok)
    warnings: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool | None:
        if not self.expectations:
            return None
        return all(ok for (_, _, _, ok) in self.expectations)


@dataclass
class Report:
    field_name: str
    seed: int
    tasks: list[TaskResult]

    @property
    def checked(self) -> int:
        return sum(1 for t in self.tasks if t.passed is not None)

    @property
    def failed(self) -> int:
        return sum(1 for t in self.tasks if t.passed is False)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self, timings: bool = False) -> dict:
        tasks = []
        for t in self.tasks:
            entry = {
                "name": t.name,
                "command": t.command,
                "result": t.result,
                "primary": t.primary,
                "warnings": sorted(t.warnings),
                "pass": t.passed,
                "expectations": [
                    {"check": kind, "expected": exp, "got": got, "pass": ok}
                    for (kind, exp, got, ok) in t.expectations
                ],
            }
            if timings:
                entry["seconds"] = round(t.seconds, 3)
            tasks.append(entry)
        return {
            "field": self.field_name,
            "seed": self.seed,
            "tasks": tasks,
            "summary": {
                "total": len(self.tasks),
                "checked": self.checked,
                "failed": self.failed,
                "ok": self.ok,
            },
        }

    def render_table(self) -> str:
        rows = [("task", "command", "primary", "expected", "status", "time")]
        for t in self.tasks:
            expected = "; ".join(
                (f"{kind}={e}" if kind != "primary" else str(e))
                for (kind, e, _, _) in t.expectations
            ) or "-"
            status = "pass" if t.passed else ("FAIL" if t.passed is False else "-")
            rows.append(
                (t.name, t.command, _short(t.primary), _short(expected), status, f"{t.seconds:.2f}s")
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        warn = [w for t in self.tasks for w in t.warnings]
        if warn:
            lines.append("")
            lines.extend(f"warning[{i}]: {w}" for i, w in enumerate(sorted(set(warn))))
        return "\n".join(lines)


def _short(value: Any, limit: int = 48) -> str:
    text = str(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _as_tuple(value: Any):
    if isinstance(value, (list, tuple)):
        return tuple(_as_tuple(v) for v in value)
    return value


class TaskRunner:
    """Dispatches one task block to the library; results are plain data.
    A command method takes read(key[, default]), which reads the task's
    value of key through Problem.read."""

    def __init__(self, problem: Problem):
        self.p = problem

    def _artin(self, read):
        return artin_algebra(self.p.ring, read("artinian"), read("cutoff", self.p.cap))

    def _in_quotient(self, read) -> IdealHandle:
        J, A = read("ideal"), read("quotient", None)
        return J if A is None else A.plus(J)

    def run_task(self, task: dict) -> tuple[dict, Any, list[str]]:
        return getattr(self, "cmd_" + task["command"].replace("-", "_"))(partial(self.p.read, task))

    # -- command implementations ------------------------------------------
    def cmd_gb(self, read):
        gb = read("ideal").groebner(read("order", self.p.default_order))
        elements = [str(g) for g in gb.elements]
        return {"elements": elements, "size": len(elements)}, len(elements), []

    def cmd_colength(self, read):
        value = local_colength(self._in_quotient(read), read("cutoff", self.p.cap))
        return {"value": value}, value, []

    def cmd_sat_quotient_length(self, read):
        value = sat_quotient_length(self._in_quotient(read))
        return {"value": value}, value, []

    def cmd_hilb(self, read):
        H = hs_function(read("quotient"), read("params"), read("nmax", None))
        values = [H[n] for n in sorted(H)]
        return {"samples": values, "from": 0}, values, []

    def cmd_coeffs(self, read):
        rep = hilbert_report(read("quotient"), read("params"), read("nmax", None))
        result = {
            "coeffs": list(rep.coeffs),
            "samples": [rep.samples[n] for n in sorted(rep.samples)],
            "window": list(rep.window),
            "polynomial_from": rep.polynomial_from,
        }
        return result, list(rep.coeffs), []

    def cmd_ideal_hilb(self, read):
        A = read("quotient")
        chain = A.chain(read("ideal"))
        values = [chain.colength(n + 1) for n in range(read("nmax", A.dim + 6) + 1)]
        return {"samples": values, "from": 0}, values, []

    def cmd_ideal_coeffs(self, read):
        rep = ideal_hilbert_report(read("quotient"), read("ideal"), read("nmax", None))
        result = {
            "coeffs": list(rep.coeffs),
            "samples": [rep.samples[n] for n in sorted(rep.samples)],
            "polynomial_from": rep.polynomial_from,
        }
        return result, list(rep.coeffs), []

    def cmd_kernel_e1(self, read):
        C = self._artin(read)
        act = action_pair(C, read("a"), read("b"))
        e0 = read("e0", None)
        if e0 is None:
            rep0 = hilbert_report(read("quotient"), read("params"), read("nmax", None))
            e0 = rep0.coeffs[0]
        rep = e1_e2_via_kernel(C, act, e0, read("window", range(0, 7)))
        result = {
            "e0": e0,
            "e1": rep.e1,
            "e2": rep.e2,
            "algebra_length": rep.algebra_length,
            "annihilator_bound": rep.annihilator_bound,
        }
        return result, [rep.e1, rep.e2], []

    def cmd_ann_length(self, read):
        C = self._artin(read)
        value = annihilator_length(C, read("f"))
        return {"value": value, "algebra_length": C.dim}, value, []

    def cmd_slice_e1(self, read):
        value = e1_via_slice(read("quotient"), read("a"))
        return {"value": value}, value, ["conditional on superficiality of the slice element"]

    def cmd_dseq(self, read):
        elems = read("elems", None) or list(read("params").lifts)
        value = is_d_sequence(read("quotient"), elems, read("all_orders", False))
        return {"value": value}, value, []

    def cmd_superficial(self, read):
        window = read("window", range(2, 7))
        value = is_superficial(read("quotient"), read("params"), read("a"), window)
        warnings = [] if not value else ["windowed superficiality: True is heuristic evidence"]
        return {"value": value, "window": [window.start, window.stop]}, value, warnings

    def cmd_unmixed(self, read):
        A, a = read("quotient"), read("a")
        U = unmixed_component(A, a, read("b"))
        qlen = sat_quotient_length(A.plus(IdealHandle(self.p.ring, [a])))
        return (
            {"generators": [str(g) for g in U.generators], "quotient_length": qlen},
            qlen,
            [],
        )

    def cmd_reduction(self, read):
        cert = is_reduction(read("quotient"), read("params"), read("ideal"), read("ncap", CERTIFICATE_CAP))
        return {"certificate": cert, "is_reduction": cert is not None}, cert, []

    def _sampled(self, read):
        A = read("quotient")
        found, warnings = sample_reductions(
            A, read("ideal"), read("count", 5), read("seed", self.p.seed), read("ncap", CERTIFICATE_CAP))
        return A, [q for q, _ in found], warnings

    def cmd_sample_reductions(self, read):
        _, reductions, warnings = self._sampled(read)
        lifts = [[str(f) for f in q.lifts] for q in reductions]
        return {"count": len(reductions), "lifts": lifts}, len(reductions), warnings

    def cmd_sampled_coeffs(self, read):
        """Coefficient tuples of seeded sampled reductions (one per sample)."""
        A, reductions, warnings = self._sampled(read)
        reports = [hilbert_report(A, q, read("nmax", None)) for q in reductions]
        result = {"coeffs": [list(r.coeffs) for r in reports]}
        if read("check_dseq", False):
            result["d_sequence"] = [is_d_sequence(A, list(q.lifts)) for q in reductions]
        primary = sorted({r.coeffs[1] for r in reports})
        return result, primary, warnings

    def cmd_lambda(self, read):
        rep = lambda_map(
            read("quotient"),
            read("ideal"),
            read("count", 5),
            read("seed", self.p.seed),
            read("nmax", None),
            named=read("named", []),
            n_cap=read("ncap", CERTIFICATE_CAP),
        )
        entries = {
            e.name: {"coeffs": list(e.coeffs), "certificate": e.certificate} for e in rep.entries
        }
        return {"values": rep.values, "entries": entries}, rep.values, rep.warnings

    def cmd_sally(self, read):
        lengths = sally_lengths(read("quotient"), read("ideal"), read("params"), read("nmax", 4))
        values = [lengths[n] for n in sorted(lengths)]
        return {"degree_lengths": values, "degrees": sorted(lengths)}, values, []

    def cmd_sally_rank(self, read):
        r = sally_rank(read("quotient"), read("ideal"), read("params"), read("nmax", None))
        result = {
            "rank": r.rank,
            "e0_i": r.e0_i,
            "e1_i": r.e1_i,
            "e1_q": r.e1_q,
            "colength_i": r.colength_i,
        }
        return result, r.rank, []

    def cmd_kplusj(self, read):
        rep = k_plus_j_analysis(read("quotient"), read("ideal"), read("named", []), read("nmax", None))
        entries = {e.name: {"rank": e.rank, "e1": e.e1_derived} for e in rep.entries}
        result = {
            "coeffs": list(rep.coeffs),
            "identity_value": rep.identity_value,
            "entries": entries,
            "samples": [rep.report.samples[n] for n in sorted(rep.report.samples)],
        }
        return result, list(rep.coeffs), []


_EXPECT_KEYS = {
    "expect": "primary",
    "expect_identity": "identity_value",
    "expect_ranks": "ranks",
    "expect_e1s": "e1s",
    "expect_min_distinct": "min_distinct",
    "expect_includes": "includes",
    "expect_all": "all_equal",
}


def _check_expectations(task: dict, result: dict, primary) -> list[tuple[str, Any, Any, bool]]:
    checks = []
    prim = _as_tuple(primary)
    for key, kind in _EXPECT_KEYS.items():
        if key not in task:
            continue
        expected = _as_tuple(task[key])
        if kind == "primary":
            got = prim
            ok = got == expected
        elif kind == "identity_value":
            got = result.get("identity_value")
            ok = got == expected
        elif kind == "ranks":
            got = tuple(e["rank"] for e in result.get("entries", {}).values())
            ok = got == expected
        elif kind == "e1s":
            got = tuple(e["e1"] for e in result.get("entries", {}).values())
            ok = got == expected
        elif kind == "min_distinct":
            got = len(prim) if isinstance(prim, tuple) else 1
            ok = got >= expected
        elif kind == "includes":
            got = prim
            seq = expected if isinstance(expected, tuple) else (expected,)
            ok = isinstance(prim, tuple) and all(v in prim for v in seq)
        elif kind == "all_equal":
            rows = result.get("coeffs") or []
            got = _as_tuple(rows)
            ok = all(_as_tuple(row) == expected for row in rows) and bool(rows)
            if "d_sequence" in result:
                ok = ok and all(result["d_sequence"])
        checks.append((kind, expected, got, ok))
    return checks


def run_problem(problem: Problem) -> Report:
    runner = TaskRunner(problem)
    results = []
    for i, task in enumerate(problem.tasks):
        name = str(task.get("name", f"task{i}"))
        start = time.perf_counter()
        try:
            result, primary, warnings = runner.run_task(task)
        except (HilbsamError, ValueError) as exc:
            if "name" in task:
                exc.task = name  # cli.main names the task on stderr
            raise
        seconds = time.perf_counter() - start
        checks = _check_expectations(task, result, primary)
        results.append(
            TaskResult(name, str(task.get("command")), result, _as_tuple(primary), checks,
                       warnings, seconds)
        )
    return Report(str(problem.ring.field), problem.seed, results)


def read_problem(path: str) -> dict:
    """The problem document in a JSON file; InputError when the file cannot
    be read (missing, a directory, no permission) or holds no JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), f"{path}: problem document must be a JSON object")
    return doc
