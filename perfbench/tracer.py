"""Span tracer for one benchmark pass, applied from outside the package.

Each traced function is replaced by a wrapper that records a span: its
name, start, end, the span that called it, and the pass.  Spans stay in
memory until the pass ends.  Call counts, self time (span time minus the
time of child spans) and a few work counts are kept as the spans close.

The package imports functions by name across modules (``autoreduce`` is
bound in groebner, hilbert and secmethods, for example), so ``install``
rebinds every alias of a wrapped function in every ``hilbsam.*`` module;
otherwise calls through an alias would escape their span.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# command kinds of every workload's tasks; one problem.task.<command> span each
TASK_COMMANDS = (
    "coeffs", "colength", "dseq", "hilb", "ideal-hilb", "kernel-e1", "kplusj",
    "lambda", "sally", "sally-rank", "sampled-coeffs", "sat-quotient-length",
    "slice-e1", "superficial", "unmixed",
)


def _rank_cells(counts, args, result):
    m = args[0]
    counts["exactalg.rank.cells"] += len(m.data) * m.cols


def _mul_terms(counts, args, result):
    counts["polyring.mul.terms_out"] += len(result.terms)


def _basis_elems(counts, args, result):
    counts["groebner.basis.elems_out"] += len(result.elements)


def _autoreduce_gens(counts, args, result):
    counts["groebner.autoreduce.gens_in"] += len(args[1])
    counts["groebner.autoreduce.gens_out"] += len(result)


def _colength_path(counts, args, result):
    counts["groebner.colength.ladder"] += result.window is not None


def _chart_hit(counts, args, result):
    counts["transform.parameter_chart.hits"] += result is not None


# (module, attribute, span name, counter hook) for module-level functions
FUNCTION_SPANS = (
    ("exactalg", "rank", "exactalg.rank", _rank_cells),
    ("groebner", "autoreduce", "groebner.autoreduce", _autoreduce_gens),
    ("groebner", "ideal_power", "groebner.ideal_power", None),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("groebner", "local_colength_info", "groebner.colength", _colength_path),
    ("groebner", "intersect", "groebner.intersect", None),
    ("groebner", "colon", "groebner.colon", None),
    ("groebner", "saturate", "groebner.saturate", None),
    ("hilbert", "hs_function", "hilbert.hs_function", None),
    ("hilbert", "ideal_hilbert_report", "hilbert.ideal_hilbert_report", None),
    ("hilbert", "is_reduction", "hilbert.is_reduction", None),
    ("transform", "parameter_chart", "transform.parameter_chart", _chart_hit),
    ("secmethods", "tn_length", "secmethods.tn_length", None),
    ("secmethods", "artin_algebra", "secmethods.artin_algebra", None),
    ("secmethods", "sally_rank", "secmethods.sally_rank", None),
    ("secmethods", "k_plus_j_analysis", "secmethods.k_plus_j_analysis", None),
    ("secmethods", "e1_via_slice", "secmethods.e1_via_slice", None),
    ("secmethods", "is_d_sequence", "secmethods.is_d_sequence", None),
    ("secmethods", "is_superficial", "secmethods.is_superficial", None),
    ("secmethods", "unmixed_component", "secmethods.unmixed_component", None),
    ("problem", "load_problem", "problem.load_problem", None),
)

# (module, class, method, span name, counter hook)
METHOD_SPANS = (
    ("polyring", "Polynomial", "__mul__", "polyring.mul", _mul_terms),
    ("polyring", "Polynomial", "substitute", "polyring.substitute", None),
    ("groebner", "IdealHandle", "groebner", "groebner.basis", _basis_elems),
    ("groebner", "IdealHandle", "truncated_groebner", "groebner.basis", _basis_elems),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [s[2] for s in FUNCTION_SPANS] + [s[3] for s in METHOD_SPANS]
    + [f"problem.task.{c}" for c in TASK_COMMANDS]
))


class Tracer:
    """Spans and per-name totals of one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._ids = itertools.count()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None

    def wrap(self, fn, name, hook=None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's positional arguments."""
        stack, spans, calls, self_s, counts, ids = (
            self._stack, self.spans, self.calls, self.self_s, self.counts, self._ids)

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = [next(ids), label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[label] += 1
                self_s[label] += took - frame[2]
                if stack:
                    stack[-1][2] += took
                    parent = stack[-1][0]
                else:
                    parent = -1
                spans.append((frame[0], label, start, end, parent))
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": self.pass_id}) + "\n")

    def layer_metrics(self, ladder_steps: int, accepted: int, attempts: int) -> dict:
        """Per-layer metrics of the pass, by the names BENCHMARK.json lists."""
        c = self.counts
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for key in ("exactalg.rank.cells", "polyring.mul.terms_out", "groebner.basis.elems_out",
                    "groebner.autoreduce.gens_in", "groebner.autoreduce.gens_out",
                    "groebner.saturate.rounds"):
            out[key] = c[key]
        out["groebner.autoreduce.keep_ratio"] = _ratio(
            c["groebner.autoreduce.gens_out"], c["groebner.autoreduce.gens_in"])
        out["groebner.colength.ladder_frac"] = _ratio(
            c["groebner.colength.ladder"], self.calls["groebner.colength"])
        out["groebner.ladder_steps"] = ladder_steps
        out["hilbert.sample_reductions.accept_ratio"] = _ratio(accepted, attempts)
        out["transform.parameter_chart.hit_ratio"] = _ratio(
            c["transform.parameter_chart.hits"], self.calls["transform.parameter_chart"])
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def rebind(original, replacement) -> None:
    """Point every ``hilbsam.*`` module attribute bound to ``original`` at
    ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname == "hilbsam" or modname.startswith("hilbsam."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported hilbsam package."""
    mods = sys.modules
    for module, attr, name, hook in FUNCTION_SPANS:
        original = getattr(mods[f"hilbsam.{module}"], attr)
        rebind(original, tracer.wrap(original, name, hook))
    for module, cls_name, attr, name, hook in METHOD_SPANS:
        cls = getattr(mods[f"hilbsam.{module}"], cls_name)
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, hook))

    runner = mods["hilbsam.problem"].TaskRunner
    runner.run_task = tracer.wrap(
        runner.run_task, lambda args: f"problem.task.{args[1].get('command')}")

    groebner = mods["hilbsam.groebner"]
    colon_ideal = groebner.colon_ideal

    def counted_colon_ideal(*args, **kwargs):
        # one saturation round is one colon_ideal call made by saturate itself
        if tracer.current() == "groebner.saturate":
            tracer.counts["groebner.saturate.rounds"] += 1
        return colon_ideal(*args, **kwargs)

    rebind(colon_ideal, counted_colon_ideal)
