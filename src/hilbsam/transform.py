"""Exact coordinate normalization for parameter lifts.

When every lift of a parameter ideal carries an isolated linear variable
(one whose only occurrence across all lifts is a single degree-1 term of
that lift, possibly after recombining the lifts linearly), the triangular
substitution v -> v - h is a ring automorphism fixing the maximal ideal
that maps the lift to the coordinate v.  Powers of the transformed ideal
are then monomial, which makes Hilbert sampling, reduction certificates
and colon-based checks far cheaper.  Colengths and ideal equalities are
invariant under such automorphisms, so results are unchanged.  A chart
is plain data: its pivot variables and that substitution.
"""

from __future__ import annotations

from .exactalg import field_ops
from .polyring import Polynomial, RingSpec


def _linear_coefficient(f: Polynomial, var: int):
    exps = tuple(1 if i == var else 0 for i in range(f.ring.nvars))
    return f.terms.get(exps)


def _occurs_nonlinearly(f: Polynomial, var: int) -> bool:
    """True if var occurs in f outside the single degree-1 monomial."""
    for m in f.terms:
        if m[var] and (sum(m) != 1 or m[var] != 1):
            return True
    return False


def parameter_chart(ring: RingSpec, lifts) -> tuple[tuple[int, ...], dict[int, Polynomial]] | None:
    """The chart of the lifts as (pivots, substitution), or None when the
    shape does not apply: pivots[k] is the variable index the k-th
    (recombined) lift maps to, and the substitution sends old coordinates
    to their expressions in the new ones (Polynomial.substitute)."""
    lifts = list(lifts)
    d = len(lifts)
    inv = field_ops(ring.field)[4]
    # candidate pivots: variables occurring only linearly in every lift
    candidates = [
        v
        for v in range(ring.nvars)
        if not any(_occurs_nonlinearly(f, v) for f in lifts)
        and any(_linear_coefficient(f, v) is not None for f in lifts)
    ]
    if len(candidates) < d:
        return None
    # Gauss-Jordan on the candidate columns, applied to the full lifts;
    # recombining generators preserves the ideal.  Rightmost columns first
    # so later ring variables (the z,w-style ones) become the pivots.
    work = list(lifts)
    pivots: list[int] = []
    for k in range(d):
        pivot_var = None
        for v in reversed(candidates):
            if v in pivots:
                continue
            if _linear_coefficient(work[k], v) is not None:
                pivot_var = v
                break
        if pivot_var is None:
            return None
        c = _linear_coefficient(work[k], pivot_var)
        work[k] = work[k].scale(inv(c))
        for j in range(d):
            if j != k:
                cj = _linear_coefficient(work[j], pivot_var)
                if cj is not None:
                    work[j] = work[j] - work[k].scale(cj)
        pivots.append(pivot_var)
    # the substitution v_k -> v_k - h_k needs every h_k free of all pivots
    substitution = {}
    for k, v in enumerate(pivots):
        h = work[k] - ring.variable(v)
        if any(m[p] for m in h.terms for p in pivots):
            return None
        if h.constant_term():
            return None  # not a local automorphism
        substitution[v] = ring.variable(v) - h
    for k, v in enumerate(pivots):  # exactness check
        if work[k].substitute(substitution) != ring.variable(v):
            raise AssertionError("chart substitution failed verification")
    return tuple(pivots), substitution
