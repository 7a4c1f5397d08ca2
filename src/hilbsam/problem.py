"""Problem files and task execution.

A problem file is a single JSON document declaring a ring, named ideals
(possibly via ideal operations), named quotient rings, parameter ideals
and Artinian presentations, followed by task blocks with optional integer
or integer-tuple expectations.  Tasks run in order; the report carries
results, stabilization data and warnings (warnings are data, never
stdout-only prose).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from .errors import InputError
from .exactalg import FieldConfig, QQ, prime_field
from .groebner import (
    IdealHandle,
    colon_ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    local_colength_info,
    saturate,
    sat_quotient_length,
)
from .hilbert import (
    ParameterIdealSpec,
    QuotientRingSpec,
    hs_function,
    hilbert_report,
    ideal_hilbert_report,
    is_reduction,
    lambda_map,
    parameter_ideal,
    power_colengths,
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
    if text.startswith("fp:"):
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
    if text.startswith("elim:"):
        return elimination_order(int(text[5:]))
    raise InputError(f"unknown order {text!r}")


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
    threads: int = 1
    default_order: MonomialOrder = DEGREVLEX
    cutoffs: tuple[int, int] = (4, 64)  # (start, cap) of every colength's truncation ladder


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def load_problem(doc: dict, field_override: str | None = None, seed: int | None = None,
                 cutoff: int | None = None, threads: int = 1) -> Problem:
    """Validate and resolve a problem document."""
    _require(threads >= 1, f"threads must be at least 1, got {threads}")
    _require(isinstance(doc, dict), "problem document must be a JSON object")
    ring_doc = doc.get("ring")
    _require(isinstance(ring_doc, dict), "missing 'ring' object")
    field_text = field_override or ring_doc.get("field", "fp:32003")
    try:
        ring = RingSpec(tuple(ring_doc.get("variables", ())), parse_field(field_text))
    except (ValueError, InputError) as exc:
        raise InputError(f"bad ring spec: {exc}") from exc
    default_order = parse_order(ring_doc.get("order", "degrevlex"))

    def poly(text: Any) -> Polynomial:
        _require(isinstance(text, str), f"expected polynomial string, got {text!r}")
        return parse_poly(ring, text)

    ideals: dict[str, IdealHandle] = {}

    def resolve_ideal(value: Any) -> IdealHandle:
        if isinstance(value, str):
            _require(value in ideals, f"unknown ideal name {value!r}")
            return ideals[value]
        if isinstance(value, list):
            return IdealHandle(ring, [poly(p) for p in value])
        if isinstance(value, dict) and len(value) == 1:
            op, args = next(iter(value.items()))
            if op == "power":
                _require(isinstance(args, list) and len(args) == 2, "power takes [ideal, n]")
                return ideal_power(resolve_ideal(args[0]), int(args[1]))
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

    for name, value in (doc.get("ideals") or {}).items():
        ideals[name] = resolve_ideal(value)

    cutoffs = (4, cutoff) if cutoff else (4, 64)
    quotients: dict[str, QuotientRingSpec] = {}
    for name, q in (doc.get("quotients") or {}).items():
        _require(isinstance(q, dict) and "defining" in q and "dim" in q,
                 f"quotient {name!r} needs 'defining' and 'dim'")
        try:
            quotients[name] = QuotientRingSpec(
                ring, resolve_ideal(q["defining"]), int(q["dim"]), cutoffs
            )
        except ValueError as exc:
            raise InputError(f"bad quotient {name!r}: {exc}") from exc

    parameters: dict[str, tuple[str, ParameterIdealSpec]] = {}
    for name, p in (doc.get("parameters") or {}).items():
        _require(isinstance(p, dict) and "quotient" in p and "lifts" in p,
                 f"parameter ideal {name!r} needs 'quotient' and 'lifts'")
        qname = p["quotient"]
        _require(qname in quotients, f"unknown quotient {qname!r}")
        parameters[name] = (qname, parameter_ideal(quotients[qname], [poly(s) for s in p["lifts"]]))

    artinian: dict[str, IdealHandle] = {}
    for name, a in (doc.get("artinian") or {}).items():
        _require(isinstance(a, dict) and "ideal" in a, f"artinian {name!r} needs 'ideal'")
        artinian[name] = resolve_ideal(a["ideal"])

    tasks = doc.get("tasks") or []
    _require(isinstance(tasks, list), "'tasks' must be a list")
    for i, task in enumerate(tasks):
        _require(isinstance(task, dict), f"task {i} must be an object")
        command = str(task.get("command"))
        _require(
            hasattr(TaskRunner, "cmd_" + command.replace("-", "_")),
            f"task {i}: unknown command {command!r}",
        )
        for key, table in (("quotient", quotients), ("params", parameters),
                           ("artinian", artinian)):
            name = task.get(key)
            if name is not None:
                _require(name in table, f"task {i}: unknown {key} {name!r}")
        iname = task.get("ideal")
        if isinstance(iname, str):
            _require(iname in ideals, f"task {i}: unknown ideal {iname!r}")
        for name in task.get("named", []):
            _require(name in parameters, f"task {i}: unknown parameter ideal {name!r}")
        for key in ("ncap", "count"):
            if key in task:
                try:
                    value = int(task[key])
                except (TypeError, ValueError):
                    value = -1
                _require(value >= 0, f"task {i}: {key!r} must be a non-negative integer, got {task[key]!r}")
    return Problem(
        ring,
        ideals,
        quotients,
        parameters,
        artinian,
        tasks,
        seed=doc.get("seed", 0) if seed is None else seed,
        threads=threads,
        default_order=default_order,
        cutoffs=cutoffs,
    )


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
    """Dispatches one task block to the library; results are plain data."""

    def __init__(self, problem: Problem):
        self.p = problem

    # -- argument accessors ----------------------------------------------
    def _quotient(self, task: dict) -> QuotientRingSpec:
        name = task.get("quotient")
        _require(name in self.p.quotients, f"unknown quotient {name!r}")
        return self.p.quotients[name]

    def _ideal(self, task: dict, key: str = "ideal") -> IdealHandle:
        name = task.get(key)
        if isinstance(name, list):
            return IdealHandle(self.p.ring, [parse_poly(self.p.ring, s) for s in name])
        _require(name in self.p.ideals, f"unknown ideal {name!r}")
        return self.p.ideals[name]

    def _params(self, task: dict, key: str = "params") -> ParameterIdealSpec:
        name = task.get(key)
        _require(name in self.p.parameters, f"unknown parameter ideal {name!r}")
        return self.p.parameters[name][1]

    def _artin(self, task: dict):
        name = task.get("artinian")
        _require(name in self.p.artinian, f"unknown artinian presentation {name!r}")
        return artin_algebra(self.p.ring, self.p.artinian[name], self._cutoffs(task))

    def _poly(self, task: dict, key: str) -> Polynomial:
        text = task.get(key)
        _require(isinstance(text, str), f"task needs polynomial string {key!r}")
        return parse_poly(self.p.ring, text)

    def _named_params(self, task: dict) -> list[tuple[str, ParameterIdealSpec]]:
        out = []
        for name in task.get("named", []):
            _require(name in self.p.parameters, f"unknown parameter ideal {name!r}")
            out.append((name, self.p.parameters[name][1]))
        return out

    def _seed(self, task: dict) -> int:
        return int(task.get("seed", self.p.seed))

    def _nmax(self, task: dict) -> int | None:
        return int(task["nmax"]) if "nmax" in task else None

    # -- command implementations ------------------------------------------
    def run_task(self, task: dict) -> tuple[dict, Any, list[str]]:
        command = task.get("command")
        handler = getattr(self, "cmd_" + str(command).replace("-", "_"), None)
        _require(handler is not None, f"unknown command {command!r}")
        return handler(task)

    def cmd_gb(self, task):
        order = parse_order(task["order"]) if "order" in task else self.p.default_order
        gb = self._ideal(task).groebner(order)
        elements = [str(g) for g in gb.elements]
        return {"elements": elements, "size": len(elements)}, len(elements), []

    def cmd_colength(self, task):
        J = self._ideal(task)
        if "quotient" in task:
            J = self._quotient(task).plus(J)
        info = local_colength_info(J, self._cutoffs(task))
        result = {"value": info.value}
        if info.window is not None:
            result["stabilization_window"] = list(info.window)
        return result, info.value, []

    def _cutoffs(self, task) -> tuple[int, int]:
        if "cutoff" in task:
            return (4, int(task["cutoff"]))
        return self.p.cutoffs

    def cmd_sat_quotient_length(self, task):
        J = self._ideal(task)
        if "quotient" in task:
            J = self._quotient(task).plus(J)
        value = sat_quotient_length(J)
        return {"value": value}, value, []

    def cmd_hilb(self, task):
        A = self._quotient(task)
        H = hs_function(A, self._params(task), self._nmax(task))
        values = [H[n] for n in sorted(H)]
        return {"samples": values, "from": 0}, values, []

    def cmd_coeffs(self, task):
        A = self._quotient(task)
        rep = hilbert_report(A, self._params(task), self._nmax(task))
        result = {
            "coeffs": list(rep.coeffs),
            "samples": [rep.samples[n] for n in sorted(rep.samples)],
            "window": list(rep.window),
            "polynomial_from": rep.polynomial_from,
        }
        return result, list(rep.coeffs), rep.warnings

    def cmd_ideal_hilb(self, task):
        A = self._quotient(task)
        I = self._ideal(task)
        n_max = self._nmax(task) or A.dim + 6
        H = power_colengths(A, I, n_max)
        values = [H[n] for n in sorted(H)]
        return {"samples": values, "from": 0}, values, []

    def cmd_ideal_coeffs(self, task):
        A = self._quotient(task)
        rep = ideal_hilbert_report(A, self._ideal(task), self._nmax(task))
        result = {
            "coeffs": list(rep.coeffs),
            "samples": [rep.samples[n] for n in sorted(rep.samples)],
            "polynomial_from": rep.polynomial_from,
        }
        return result, list(rep.coeffs), rep.warnings

    def cmd_kernel_e1(self, task):
        C = self._artin(task)
        act = action_pair(C, self._poly(task, "a"), self._poly(task, "b"))
        if "e0" in task:
            e0 = int(task["e0"])
        else:
            rep0 = hilbert_report(self._quotient(task), self._params(task), self._nmax(task))
            e0 = rep0.coeffs[0]
        window = range(*task.get("window", (0, 7)))
        rep = e1_e2_via_kernel(C, act, e0, window)
        result = {
            "e0": e0,
            "e1": rep.e1,
            "e2": rep.e2,
            "algebra_length": rep.algebra_length,
            "annihilator_bound": rep.annihilator_bound,
        }
        return result, [rep.e1, rep.e2], []

    def cmd_ann_length(self, task):
        C = self._artin(task)
        value = annihilator_length(C, self._poly(task, "f"))
        return {"value": value, "algebra_length": C.dim}, value, []

    def cmd_slice_e1(self, task):
        A = self._quotient(task)
        value = e1_via_slice(A, self._params(task), self._poly(task, "a"))
        return {"value": value}, value, ["conditional on superficiality of the slice element"]

    def cmd_dseq(self, task):
        A = self._quotient(task)
        elems = [parse_poly(self.p.ring, s) for s in task.get("elems", [])]
        if not elems:
            elems = list(self._params(task).lifts)
        value = is_d_sequence(A, elems, bool(task.get("all_orders", False)))
        return {"value": value}, value, []

    def cmd_superficial(self, task):
        A = self._quotient(task)
        window = range(*task.get("window", (2, 7)))
        value = is_superficial(A, self._params(task), self._poly(task, "a"), window)
        warnings = [] if not value else ["windowed superficiality: True is heuristic evidence"]
        return {"value": value, "window": [window.start, window.stop]}, value, warnings

    def cmd_unmixed(self, task):
        A = self._quotient(task)
        a = self._poly(task, "a")
        U = unmixed_component(A, a, self._poly(task, "b"))
        qlen = sat_quotient_length(ideal_sum(A.defining, IdealHandle(self.p.ring, [a])))
        return (
            {"generators": [str(g) for g in U.generators], "quotient_length": qlen},
            qlen,
            [],
        )

    def cmd_reduction(self, task):
        A = self._quotient(task)
        cert = is_reduction(A, self._params(task), self._ideal(task), int(task.get("ncap", 8)))
        return {"certificate": cert, "is_reduction": cert is not None}, cert, []

    def cmd_sample_reductions(self, task):
        A = self._quotient(task)
        count = int(task.get("count", 5))
        reductions, warnings = sample_reductions(A, self._ideal(task), count, self._seed(task))
        lifts = [[str(f) for f in q.lifts] for q in reductions]
        return {"count": len(reductions), "lifts": lifts}, len(reductions), warnings

    def cmd_sampled_coeffs(self, task):
        """Coefficient tuples of seeded sampled reductions (one per sample)."""
        A = self._quotient(task)
        count = int(task.get("count", 5))
        reductions, warnings = sample_reductions(A, self._ideal(task), count, self._seed(task))
        reports = [hilbert_report(A, q, self._nmax(task)) for q in reductions]
        tuples = [list(r.coeffs) for r in reports]
        dseq = None
        if task.get("check_dseq"):
            dseq = [is_d_sequence(A, list(q.lifts)) for q in reductions]
        result = {"coeffs": tuples}
        if dseq is not None:
            result["d_sequence"] = dseq
        primary = sorted({r.coeffs[1] for r in reports})
        return result, primary, warnings

    def cmd_lambda(self, task):
        A = self._quotient(task)
        rep = lambda_map(
            A,
            self._ideal(task),
            int(task.get("count", 5)),
            self._seed(task),
            self._nmax(task),
            named=self._named_params(task),
            threads=self.p.threads,
        )
        entries = {
            e.name: {"coeffs": list(e.coeffs), "certificate": e.certificate} for e in rep.entries
        }
        return {"values": rep.values, "entries": entries}, rep.values, rep.warnings

    def cmd_sally(self, task):
        A = self._quotient(task)
        lengths = sally_lengths(A, self._ideal(task), self._params(task), int(task.get("nmax", 4)))
        values = [lengths[n] for n in sorted(lengths)]
        return {"degree_lengths": values, "degrees": sorted(lengths)}, values, []

    def cmd_sally_rank(self, task):
        A = self._quotient(task)
        r = sally_rank(A, self._ideal(task), self._params(task), self._nmax(task))
        result = {
            "rank": r.rank,
            "e0_i": r.e0_i,
            "e1_i": r.e1_i,
            "e1_q": r.e1_q,
            "colength_i": r.colength_i,
        }
        return result, r.rank, []

    def cmd_kplusj(self, task):
        B = self._quotient(task)
        rep = k_plus_j_analysis(B, self._ideal(task), self._named_params(task), self._nmax(task))
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
        _require(isinstance(task, dict), f"task {i} must be an object")
        name = str(task.get("name", f"task{i}"))
        start = time.perf_counter()
        result, primary, warnings = runner.run_task(task)
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
