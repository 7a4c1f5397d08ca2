"""One cold benchmark pass, run by run.py in a fresh interpreter.

Reads a JSON config on standard input and prints one JSON line.  Modes:

  setup   import hilbsam and load the workload's problem (set-up only)
  pass    set up, solve every task (the timed interval), then check every
          result outside the timed interval
  oracle  recompute truncated colengths with truncation_colength_oracle

A pass solves its tasks one at a time through ``run_problem``, so a task
that raises counts as one failure and the pass goes on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import resource
import sys
import time

import workloads
from tracer import Tracer, install, rebind

ACCEPT_RE = re.compile(r"sampled (\d+) reductions in (\d+) attempts")


def _terms(f) -> list:
    return sorted([list(m), str(c)] for m, c in f.terms.items())


class LadderLog:
    """Every truncated colength of the pass (each call of
    colength_at_cutoff, i.e. each truncation-ladder step), with the task it
    ran for."""

    def __init__(self):
        self.task = None
        self.records: list[tuple] = []  # (task, ideal, cutoff, value)

    def install(self, groebner) -> None:
        original = groebner.colength_at_cutoff

        def logged(J, cutoff):
            value = original(J, cutoff)
            self.records.append((self.task, J, cutoff, value))
            return value

        rebind(original, logged)

    def keyed(self) -> tuple[list, dict]:
        """([(task, job key, value)], {job key: oracle job}), where a job is
        the ideal's terms and the cutoff."""
        records, jobs = [], {}
        for task, J, cutoff, value in self.records:
            job = {
                "field": str(J.ring.field),
                "variables": list(J.ring.variables),
                "generators": [_terms(g) for g in J.generators],
                "cutoff": cutoff,
            }
            key = hashlib.sha256(json.dumps(job, sort_keys=True).encode()).hexdigest()
            jobs[key] = job
            records.append((task, key, value))
        return records, jobs


def _import_hilbsam():
    """Import every module a pass uses, before any wrapping."""
    import hilbsam  # noqa: F401
    from hilbsam import groebner, problem, suite  # noqa: F401

    return groebner, problem


def run_pass(cfg: dict) -> dict:
    fresh = not any(m == "hilbsam" or m.startswith("hilbsam.") for m in sys.modules)
    out = {
        "pid": os.getpid(),
        "fresh_process": fresh,
        "gb_cache_env_unset": "HILBSAM_GB_CACHE" not in os.environ,
        "traced": bool(cfg.get("trace")),
    }
    start = time.perf_counter()
    groebner, problem = _import_hilbsam()
    out["memo_empty_at_import"] = not groebner._GB_MEMO
    tracer = Tracer(cfg["pass_id"]) if out["traced"] else None
    if tracer is not None:
        install(tracer)
    ladder = LadderLog()
    ladder.install(groebner)
    doc, field = workloads.document(cfg["workload"])
    prob = problem.load_problem(doc, field_override=cfg.get("field") or field,
                                seed=cfg["seed"], threads=1)
    out["setup_s"] = time.perf_counter() - start
    out["tasks"] = len(prob.tasks)
    if cfg["mode"] == "setup":
        return out

    outcomes = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for task in prob.tasks:
        ladder.task = task["name"]
        try:
            outcome = problem.run_problem(dataclasses.replace(prob, tasks=[task])).tasks[0]
        except Exception as exc:  # noqa: BLE001 -- a raising task is a failed task
            outcome = exc
        outcomes.append((task, outcome))
    out["solve_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # everything below is outside the timed interval
    failures: dict[str, list[str]] = {}
    answers: dict[str, str] = {}
    accepted = attempts = 0
    for task, outcome in outcomes:
        name = task["name"]
        if isinstance(outcome, Exception):
            failures[name] = [f"raised {type(outcome).__name__}: {outcome}"]
            continue
        reasons = workloads.check(task, outcome)
        if reasons:
            failures[name] = reasons
        answers[name] = json.dumps([outcome.primary, outcome.result], sort_keys=True, default=str)
        for warning in outcome.warnings:
            m = ACCEPT_RE.search(warning)
            if m:
                accepted += int(m.group(1))
                attempts += int(m.group(2))
    records, jobs = ladder.keyed()
    out.update(failures=failures, answers=answers, ladder=records, ladder_jobs=jobs)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(len(records), accepted, attempts)
        if cfg.get("spans_path"):
            tracer.write_spans(cfg["spans_path"])
    return out


def run_oracle(cfg: dict) -> dict:
    """Oracle colength for each job: {key: value}."""
    groebner, _ = _import_hilbsam()
    from fractions import Fraction

    from hilbsam.polyring import Polynomial, RingSpec
    from hilbsam.problem import parse_field

    values = {}
    for key, job in cfg["jobs"].items():
        field = parse_field("qq" if job["field"] == "QQ" else f"fp:{job['field'][1:]}")
        ring = RingSpec(tuple(job["variables"]), field)
        coeff = Fraction if field.kind == "rationals" else int
        gens = [Polynomial(ring, {tuple(m): coeff(c) for m, c in terms})
                for terms in job["generators"]]
        J = groebner.IdealHandle(ring, gens)
        values[key] = groebner.truncation_colength_oracle(J, job["cutoff"])
    return {"oracle": values}


def main() -> None:
    cfg = json.load(sys.stdin)
    result = run_oracle(cfg) if cfg["mode"] == "oracle" else run_pass(cfg)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
