"""Shared ring constructions for the test suite."""

from __future__ import annotations

from hilbsam.exactalg import GF32003, FieldConfig
from hilbsam.groebner import IdealHandle, ideal, ideal_power, ideal_sum, intersect, poly_exact_div
from hilbsam.hilbert import PowerChain, QuotientRingSpec
from hilbsam.polyring import Monomial, Polynomial, RingSpec, elimination_order

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
