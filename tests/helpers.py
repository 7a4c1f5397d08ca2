"""Shared ring constructions for the test suite."""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

from hilbsam import groebner
from hilbsam.exactalg import GF32003, ExactMatrix, FieldConfig, field_ops
from hilbsam.groebner import IdealHandle, ideal, ideal_power, ideal_sum, intersect, poly_exact_div
from hilbsam.hilbert import PowerChain, QuotientRingSpec
from hilbsam.polyring import Monomial, Polynomial, RingSpec, elimination_order, lazard_order

XYZW = ("X", "Y", "Z", "W")


def ring4(field: FieldConfig = GF32003) -> RingSpec:
    return RingSpec(XYZW, field)


def two_planes(l: int, field: FieldConfig = GF32003) -> QuotientRingSpec:
    """A = R/[(X^l, Y^l) cap (Z, W)]."""
    R = ring4(field)
    defining = intersect(ideal(R, [f"X^{l}", f"Y^{l}"]), ideal(R, ["Z", "W"]))
    return QuotientRingSpec(R, defining, 2)


def fat_point(l: int, field: FieldConfig = GF32003) -> QuotientRingSpec:
    """A = R/[(X, Y)^l cap (Z, W)]."""
    R = ring4(field)
    defining = intersect(ideal_power(ideal(R, ["X", "Y"]), l), ideal(R, ["Z", "W"]))
    return QuotientRingSpec(R, defining, 2)


def staged(n: int, field: FieldConfig = GF32003) -> QuotientRingSpec:
    """A = R/[(X^n, Y) cap (Z, W)]."""
    R = ring4(field)
    defining = intersect(ideal(R, [f"X^{n}", "Y"]), ideal(R, ["Z", "W"]))
    return QuotientRingSpec(R, defining, 2)


def big_i(A: QuotientRingSpec, n: int) -> IdealHandle:
    """m^n + (Z, W) as an ideal of R."""
    R = A.ring
    return ideal_sum(ideal_power(ideal(R, list(XYZW)), n), ideal(R, ["Z", "W"]))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exact division a / b of exponent tuples; b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def regular2(field: FieldConfig = GF32003) -> QuotientRingSpec:
    R = RingSpec(("x", "y"), field)
    return QuotientRingSpec(R, IdealHandle(R, []), 2)


def spy_power_chains(monkeypatch) -> list:
    """Every PowerChain built from now on, in the order built."""
    chains = []
    real = PowerChain.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        chains.append(self)

    monkeypatch.setattr(PowerChain, "__init__", init)
    return chains


def spy_lazard_runs(monkeypatch) -> list:
    """The packing of every engine run under a lazard_order from now on:
    one per local standard basis built."""
    runs = []
    real = groebner._engine

    def engine(pk, *args, **kwargs):
        if "_lazard_keys" in pk.key.__qualname__:
            runs.append(pk)
        return real(pk, *args, **kwargs)

    monkeypatch.setattr(groebner, "_engine", engine)
    return runs


# ---------------------------------------------------------------------------
# Lazard's homogenization on Polynomials: the reference for local bases

def lazard_reference(J: IdealHandle, weights) -> tuple[list[Polynomial], list[Monomial]]:
    """A local standard basis of J with its leading monomials: J's
    generators homogenized with a new last variable, the reduced
    lazard_order basis of their ideal in R[h], and h set to 1."""
    ring = J.ring
    name = "h"
    while name in ring.variables:
        name += "_"
    ring_h = RingSpec(ring.variables + (name,), ring.field)
    gens = [Polynomial(ring_h, {m + (f.degree() - sum(m),): c for m, c in f.terms.items()}) for f in J.generators]
    gb = IdealHandle(ring_h, gens).groebner(lazard_order(weights))
    elements = [Polynomial(ring, {m[:-1]: c for m, c in f.terms.items()}) for f in gb.elements]
    return elements, [lt[:-1] for lt in gb.leading_monomials]


# ---------------------------------------------------------------------------
# elimination references for colons and saturations

def _eliminated(ring: RingSpec, gens2) -> IdealHandle:
    """(gens2) ∩ R for gens2 in R[t], t the first variable: the t-free
    elements of the elimination basis, R's reduced degrevlex basis."""
    ring2 = gens2[0].ring
    gb = IdealHandle(ring2, gens2).groebner(elimination_order(1))
    return IdealHandle(ring, [
        Polynomial(ring, {m[1:]: c for m, c in f.terms.items()})
        for f in gb.elements if all(m[0] == 0 for m in f.terms)
    ])


def _with_t(ring: RingSpec):
    """R[t] with t first, and the map of R's polynomials into it."""
    ring2 = RingSpec(("t_ref",) + ring.variables, ring.field)
    return ring2, lambda f: Polynomial(ring2, {(0,) + m: c for m, c in f.terms.items()})


def colon_by_elimination(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """I : f as the generators of I ∩ (f) divided by f, with I ∩ (f) from
    eliminating t out of t·I + (1 - t)·(f)."""
    ring2, lift = _with_t(I.ring)
    t = ring2.variable(0)
    gens2 = [t * lift(g) for g in I.generators] + [(ring2.one() - t) * lift(f)]
    return IdealHandle(I.ring, [poly_exact_div(g, f) for g in _eliminated(I.ring, gens2).generators])


def saturation_by_elimination(I: IdealHandle, g: Polynomial) -> IdealHandle:
    """I : g^inf = (I + (1 - t·g)) ∩ R."""
    ring2, lift = _with_t(I.ring)
    t = ring2.variable(0)
    return _eliminated(I.ring, [lift(f) for f in I.generators] + [ring2.one() - t * lift(g)])


# ---------------------------------------------------------------------------
# dense elimination: the reference for exactalg.rank

def rref(m: ExactMatrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (monic pivots, first nonzero entry in column
    order); returns (rows, pivot column indices).  Deterministic."""
    _add, sub, mul, _neg, inv, one = field_ops(m.field)
    rows = [list(r) for r in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = inv(rows[r][c])
        if scale != one:
            rows[r] = [mul(scale, x) for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(m: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {v : Mv = 0} as column vectors (reduced echelon
    representatives: one basis vector per free column, unit at the free
    position)."""
    F = m.field
    neg = field_ops(F)[3]
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [F.zero] * m.cols
        vec[free] = F.one
        for r, pc in enumerate(pivots):
            coeff = rows[r][free]
            if coeff:
                vec[pc] = neg(coeff)
        basis.append(ExactMatrix(F, [[x] for x in vec], 1))
    return basis


def dense_row_operations(tree: ast.Module) -> list[int]:
    """The lines of the comprehensions of the tree that subtract a multiple
    of one dense row from another element by element: over zip(...), a
    product inside a difference (by operators, or by field_ops' sub and
    mul)."""

    def calls(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    def by(node, op, name):
        return isinstance(node, ast.BinOp) and isinstance(node.op, op) or calls(node, name)

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.ListComp, ast.GeneratorExp))
            and any(calls(g.iter, "zip") for g in node.generators)
            and any(by(d, ast.Sub, "sub") and any(by(m, ast.Mult, "mul") for m in ast.walk(d))
                    for d in ast.walk(node.elt))]


@functools.cache
def _dense_functions(filename: str) -> frozenset[tuple[str, int]]:
    """(name, first line) of each function of the file whose own body (its
    nested functions aside) holds a dense row operation."""
    try:
        tree = ast.parse(Path(filename).read_text(), filename)
    except (OSError, SyntaxError, ValueError):
        return frozenset()
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = set()
    for line in dense_row_operations(tree):
        around = [f for f in functions if f.lineno <= line <= f.end_lineno]
        if around:
            f = max(around, key=lambda f: f.lineno)
            found.add((f.name, min([f.lineno] + [d.lineno for d in f.decorator_list])))
    return frozenset(found)


def dense_eliminations_run(fn, *args, **kwargs):
    """(fn(*args, **kwargs), names): names lists, as module.function, each
    Python function the call ran whose own body holds a dense row operation."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(old)
    names = sorted(f"{Path(c.co_filename).stem}.{c.co_name}" for c in codes
                   if (c.co_name, c.co_firstlineno) in _dense_functions(c.co_filename))
    return result, names
