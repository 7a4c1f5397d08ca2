"""Hilbert-Samuel sampling in quotient rings A = R/a, binomial-basis
coefficient extraction, reduction certificates, seeded minimal-reduction
sampling and the empirical first-coefficient map.

Sign convention: with d = dim A, the eventual polynomial is

    H(n) = l(A/Q^{n+1}) = sum_i (-1)^i e_i binom(n + d - i, d - i),

so e_0 is the multiplicity and the report stores (e_0, ..., e_d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from math import comb, inf

from .errors import NoPolynomialTail, NotLocallyFinite, PackedRangeExceeded, SamplingExhausted
from . import groebner
from .groebner import (
    IdealHandle,
    autoreduce,
    autoreduced_product,
    ideal_sum,
    local_colength_info,
    local_standard_basis,
    normal_form,
    product_basis,
    product_equals,
    _staircase_counts,
)
from .polyring import Polynomial, RingSpec, parse_poly
from .transform import parameter_chart

SMALL_FIELD_BOUND = 1000  # warn below this: generic choices may misbehave
CERTIFICATE_CAP = 8  # default n_cap of a reduction certificate I^{n+1} = Q I^n


# ---------------------------------------------------------------------------
# seeded deterministic sampling

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64), stable across platforms."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def coefficient(self) -> int:
        """Small integer draw in [-50, 50], identical for every field."""
        return self.next_u64() % 101 - 50


# ---------------------------------------------------------------------------
# specs

@dataclass
class QuotientRingSpec:
    """A = R/defining with user-declared Krull dimension d > 0.

    The declared dimension is validated a posteriori: coefficient
    extraction fails unless the (d+1)-st finite differences of the sampled
    Hilbert function vanish on the stabilization window.  A keeps, for
    its life, one handle of defining + I per generators of I (_sums: see
    plus), one PowerChain per (I, start) (_chains: see chain) and one
    parameter chart per lifts (_charts: see chart).
    """

    ring: RingSpec
    defining: IdealHandle
    dim: int
    cap: int = 64  # every colength's cutoff cap
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _charts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("declared dimension must be positive")
        for g in self.defining.generators:
            if g.constant_term():
                raise ValueError("defining ideal has a generator with a unit constant term")

    def plus(self, I: IdealHandle) -> IdealHandle:
        """The handle of defining + I, one per generators of I (defining
        itself for none): every call reads the bases, colons and
        saturations of the calls before it."""
        if not I.generators:
            return self.defining
        if I.generators not in self._sums:
            self._sums[I.generators] = ideal_sum(self.defining, I)
        return self._sums[I.generators]

    def chain(self, I: IdealHandle, start: IdealHandle | None = None) -> PowerChain:
        """The PowerChain of (self, I, start), one per generators of I and
        of start for the life of this object: every call on this quotient
        reads the bases, colengths and known certificate of the calls
        before it."""
        key = (I.generators, None if start is None else start.generators)
        if key not in self._chains:
            self._chains[key] = PowerChain(self, I, start)
        return self._chains[key]

    def chart(self, lifts) -> tuple:
        """(A2, lifts2, move, weights), kept per lifts for the life of this
        object, so every check on them shares A2's bases, colons and local
        bases: A and the lifts rewritten through their parameter chart
        (pivots, substitution; colengths are invariant) when one applies,
        the lifts becoming the pivot variables; move, rewriting other
        polynomials alike (a picklable partial; list without a chart); the
        weights, 1 on the pivots, 0 elsewhere (None without a chart)."""
        key = tuple(lifts)
        if key not in self._charts:
            chart = parameter_chart(self.ring, key)
            if chart is None:
                self._charts[key] = self, key, list, None
            else:
                pivots, substitution = chart
                move = partial(_substituted, substitution)
                defining = IdealHandle(self.ring, move(self.defining.generators))
                self._charts[key] = (QuotientRingSpec(self.ring, defining, self.dim, self.cap),
                                     tuple(self.ring.variable(i) for i in pivots), move,
                                     tuple(int(i in pivots) for i in range(self.ring.nvars)))
        return self._charts[key]


@dataclass
class ParameterIdealSpec:
    """Parameter ideal given by d lifts to R; construct via parameter_ideal."""

    lifts: tuple[Polynomial, ...]


def parameter_ideal(A: QuotientRingSpec, lifts) -> ParameterIdealSpec:
    """Checked constructor: defining + (lifts) must have finite colength
    (NotLocallyFinite otherwise).  In a parameter chart that holds iff every
    variable of weight 0 has a pure power in L(a), read off the local
    standard basis hs_function samples from; without a chart, or past the
    packed range, the colength path decides.  With groebner.VERIFY set,
    both run and must agree."""
    polys = tuple(parse_poly(A.ring, f) if isinstance(f, str) else f for f in lifts)
    if len(polys) != A.dim:
        raise ValueError(f"expected {A.dim} lifts, got {len(polys)}")
    Q = ParameterIdealSpec(polys)
    A2, lifts, _, weights = A.chart(polys)
    try:
        verdict = _chart_colengths(A2.defining, weights, 0)  # None: no chart verdict
    except NotLocallyFinite as exc:
        verdict = exc
    if verdict is None or groebner.VERIFY:
        try:
            local_colength_info(A2.plus(IdealHandle(A.ring, lifts)), A2.cap)
            finite = True
        except NotLocallyFinite:
            if verdict is None:
                raise
            finite = False
        if verdict is not None and finite != isinstance(verdict, dict):
            raise AssertionError(f"the local basis finds a + Q finite: {not finite}, the colength path disagrees")
    if isinstance(verdict, NotLocallyFinite):
        raise verdict
    return Q


# ---------------------------------------------------------------------------
# coordinate normalization plumbing

def _substituted(substitution: dict[int, Polynomial], polys) -> list[Polynomial]:
    return [f.substitute(substitution) for f in polys]


# ---------------------------------------------------------------------------
# powers modulo the defining ideal

class PowerChain:
    """The ideals a + S * I^n of R, n = 0, 1, ..., with a the defining ideal
    and S = start (default: the unit ideal), each built once on demand with
    its reduced degrevlex basis and, when asked, its colength l_A(A/S * I^n).
    A.chain(I, start) keeps one chain per (A, I, start) for the life of A,
    and every caller that asks again on (A, I) reads that one (hs_function's
    and is_superficial's fallbacks ask their chart's A).  known is an n at
    which a candidate's certificate held, where the next certificate
    search starts.

    A step is a + S * I^{n+1} = a + I * (a + S * I^n): product_basis
    multiplies the previous basis (usually built by its colength) by the
    generators of I on packed monomials.  Past the packed range it multiplies
    the generators of S * I^n instead, as autoreduced products (the local
    colength trims past its cap); over the pair budget it raises."""

    def __init__(self, A: QuotientRingSpec, I: IdealHandle, start: IdealHandle | None = None):
        self.A, self.I = A, I
        self._gens = start.generators if start is not None else (A.ring.one(),)
        self._ideals = [A.plus(IdealHandle(A.ring, self._gens))]
        self._colengths: dict[int, int] = {}
        self.known: int | None = None

    def ideal(self, n: int) -> IdealHandle:
        while len(self._ideals) <= n:
            try:
                previous = self._ideals[-1].groebner()
                self._gens = previous.elements
                nxt = IdealHandle.of_basis(product_basis(self.A.defining, previous, self.I.generators))
            except PackedRangeExceeded:
                self._gens = autoreduced_product(self._gens, self.I)
                nxt = self.A.plus(IdealHandle(self.A.ring, self._gens))
            self._ideals.append(nxt)
        return self._ideals[n]

    def basis(self, n: int):
        return self.ideal(n).groebner()

    def colength(self, n: int) -> int:
        if n not in self._colengths:
            self._colengths[n] = local_colength_info(self.ideal(n), self.A.cap).value
        return self._colengths[n]


# ---------------------------------------------------------------------------
# Hilbert-Samuel sampling and coefficient extraction

def _chart_colengths(J: IdealHandle, weights: tuple[int, ...] | None, n_max: int) -> dict[int, int] | None:
    """l(R/(J + Q^{n+1})) at the origin for n = 0..n_max, Q the ideal of the
    pivots, from the leading monomials of J's local standard basis for a
    chart's weights; None without a chart (weights None) or past the packed
    range; NotLocallyFinite when a variable of weight 0 has no pure power in
    L(J).  L(J + Q^{n+1}) = L(J) + Q^{n+1}, so the length counts the
    standard monomials of J of weighted degree <= n."""
    if weights is None:
        return None
    try:
        lts = local_standard_basis(J, weights)
    except PackedRangeExceeded:
        return None
    counts = _staircase_counts(lts, len(weights), n_max + 1, weights)
    return dict(enumerate(accumulate(counts[n] for n in range(n_max + 1))))


def _colengths_mod_powers(chart: tuple, J: IdealHandle, n_max: int) -> dict[int, int]:
    """l(R/(J + Q^{n+1})) at the origin for n = 0..n_max, with chart =
    A.chart(Q.lifts) and J ⊇ a, A2's defining ideal: by _chart_colengths,
    or else (no chart, or past the packed range) from the colengths of the
    ideals of A2.chain(Q) (plus J unless J is a).  A pair-budget refusal
    propagates.  With groebner.VERIFY set, both run and must agree."""
    A2, lifts, _, weights = chart
    H = _chart_colengths(J, weights, n_max)
    if H is None or groebner.VERIFY:
        chain = A2.chain(IdealHandle(A2.ring, lifts))
        by_powers = {n: chain.colength(n + 1) if J is A2.defining else
                     local_colength_info(ideal_sum(chain.ideal(n + 1), J), A2.cap).value for n in range(n_max + 1)}
        if H is not None and H != by_powers:
            raise AssertionError(f"local standard basis gives {H}, the powers give {by_powers}")
        H = by_powers
    return H


def hs_function(A: QuotientRingSpec, Q: ParameterIdealSpec, n_max: int | None = None) -> dict[int, int]:
    """Sampled Hilbert-Samuel function n -> l_A(A/Q^{n+1}), n = 0..n_max:
    _colengths_mod_powers of the defining ideal in Q's chart."""
    if n_max is None:
        n_max = A.dim + 6
    if n_max < A.dim + 1:
        raise ValueError("n_max must be at least dim + 1")
    chart = A.chart(Q.lifts)
    H = _colengths_mod_powers(chart, chart[0].defining, n_max)
    if any(H[n] >= H[n + 1] for n in range(n_max)):
        raise AssertionError("Hilbert-Samuel function is not strictly increasing; engine bug")
    return H


@dataclass
class HilbertReport:
    """Sampled values with extracted coefficients (e_0, ..., e_d)."""

    samples: dict[int, int]
    coeffs: tuple[int, ...]
    window: tuple[int, int]
    polynomial_from: int


def hilbert_value(coeffs: tuple[int, ...], d: int, n: int) -> int:
    """Evaluate the binomial-basis polynomial at n."""
    return sum((-1) ** i * e * comb(n + d - i, d - i) for i, e in enumerate(coeffs))


def extract_coeffs(samples: dict[int, int], d: int) -> HilbertReport:
    """Fit the binomial basis to the polynomial tail of the samples.

    Finds the least n0 from which the (d+1)-st finite differences vanish
    and reads the coefficients off the difference table at n1 = hi - d:

        Delta^{d-k} H(n) = sum_{i <= k} (-1)^i e_i binom(n + d - i, k - i),

    so each e_k follows from e_0, ..., e_{k-1} in integers.  The fit is
    checked against every sample with n >= n0.  The polynomial holds from
    n0 on and not before: Delta^{d+1} H(n0 - 1) is nonzero.
    """
    ns = sorted(samples)
    if len(ns) < 2 * (d + 1):
        raise ValueError(f"need at least {2 * (d + 1)} consecutive samples")
    if ns != list(range(ns[0], ns[-1] + 1)):
        raise ValueError("samples must be consecutive")
    table = [[samples[n] for n in ns]]  # table[j][i] = Delta^j H(ns[0] + i)
    for _ in range(d + 1):
        table.append([b - a for a, b in zip(table[-1], table[-1][1:])])
    diffs = table[d + 1]
    idx0 = len(diffs)
    while idx0 > 0 and diffs[idx0 - 1] == 0:
        idx0 -= 1
    if idx0 == len(diffs):
        raise NoPolynomialTail("no vanishing finite-difference window; request more samples")
    n0 = ns[0] + idx0
    hi = ns[-1]
    if hi - n0 < d:
        raise NoPolynomialTail("polynomial tail shorter than the fit window; request more samples")
    n1 = hi - d
    coeffs: list[int] = []
    for k in range(d + 1):
        rest = table[d - k][n1 - ns[0]] - sum(
            (-1) ** i * e * comb(n1 + d - i, k - i) for i, e in enumerate(coeffs))
        coeffs.append((-1) ** k * rest)
    for n in range(n0, hi + 1):
        if hilbert_value(coeffs, d, n) != samples[n]:
            raise NoPolynomialTail("fitted polynomial misses a sample inside the window")
    if coeffs[0] < 1:
        raise ValueError(f"multiplicity {coeffs[0]} < 1: wrong declared dimension?")
    return HilbertReport(dict(samples), tuple(coeffs), (ns[0], hi), n0)


def hilbert_report(A: QuotientRingSpec, Q: ParameterIdealSpec, n_max: int | None = None) -> HilbertReport:
    """hs_function + extract_coeffs for a parameter ideal, checked against
    two theorems on parameter ideals: e_1(Q) <= 0 (Mandal, Singh and Verma,
    J. Algebra 325, 2011) and l(A/Q) >= e_0(Q) (Serre)."""
    rep = extract_coeffs(hs_function(A, Q, n_max), A.dim)
    if rep.coeffs[1] > 0:
        raise AssertionError(f"e_1(Q) = {rep.coeffs[1]} > 0 for a parameter ideal; engine bug")
    if rep.samples[0] < rep.coeffs[0]:
        raise AssertionError(f"l(A/Q) = {rep.samples[0]} < e_0(Q) = {rep.coeffs[0]}; engine bug")
    return rep


def ideal_hilbert_report(A: QuotientRingSpec, I: IdealHandle, n_max: int | None = None) -> HilbertReport:
    """Hilbert coefficients of an arbitrary m-primary ideal of A, from the
    colengths of A.chain(I)."""
    if n_max is None:
        n_max = A.dim + 6
    chain = A.chain(I)
    return extract_coeffs({n: chain.colength(n + 1) for n in range(n_max + 1)}, A.dim)


# ---------------------------------------------------------------------------
# reductions

def _top_degree(A: QuotientRingSpec, Q: ParameterIdealSpec, I: IdealHandle) -> float | None:
    """The top degree of A/QA (inf when A/QA is not Artinian) when a is
    homogeneous, I is generated by linear forms with the variables as its
    reduced basis (cached on I) and Q's lifts are linear forms; None
    otherwise.  Then A is standard graded, I = m and Q m^n = Q_1 A_{>=n}, so
    m^{n+1} = Q m^n iff [A/QA]_{n+1} = 0: the least certificate is the
    largest degree of a standard monomial of a + Q."""
    ring = A.ring

    def degrees(f: Polynomial) -> set[int]:
        return {sum(m) for m in f.terms}

    if any(len(degrees(g)) != 1 for g in A.defining.generators) or any(
        degrees(f) != {1} for f in (*Q.lifts, *I.generators)
    ):
        return None
    if set(I.groebner().elements) != {ring.variable(i) for i in range(ring.nvars)}:
        return None
    lts = A.plus(IdealHandle(ring, Q.lifts)).groebner().leading_monomials
    if not all(any(lt[i] == sum(lt) for lt in lts) for i in range(ring.nvars)):
        return inf
    return max(_staircase_counts(lts, ring.nvars, inf))


def is_reduction(
    A: QuotientRingSpec, Q: ParameterIdealSpec, I: IdealHandle, n_cap: int = CERTIFICATE_CAP, *,
    least: bool = True,
) -> int | None:
    """Least n <= n_cap with I^{n+1} = Q I^n in A (reduction certificate),
    or None; with least False, any such n.  Requires Q contained in
    I + defining.

    Where _top_degree applies (a homogeneous, I = m, Q generated by linear
    forms), the answer is the top degree of A/QA when it is at most n_cap,
    read off one basis of a + Q, for least True or False.  Otherwise the
    certificate is searched against chain = A.chain(I), the chain of
    a + I^n that every call on (A, I) shares: Q is in a + I, so a + Q G_n
    lies in a + I^{n+1}, so product_equals decides their equality against
    the known basis G_{n+1}.
    Equality at n gives it at n + 1, so the search starts at chain.known:
    if it holds there, it walks down while it holds (least) or stops;
    if not, it walks up.  With groebner.VERIFY set, the search runs on the
    graded inputs too and must agree, and the plain search up from 0 runs
    and must agree with the search from chain.known."""
    if n_cap < 0:
        return None
    top = _top_degree(A, Q, I)
    graded = top if top is not None and top <= n_cap else None
    if top is not None and not groebner.VERIFY:
        return graded
    chain = A.chain(I)
    if any(not normal_form(f, chain.basis(1)).is_zero() for f in Q.lifts):
        raise ValueError("Q is not contained in I (mod the defining ideal)")

    def holds(n: int) -> bool:
        return product_equals(A.defining, chain.basis(n), Q.lifts, chain.basis(n + 1))

    start = chain.known if chain.known is not None and chain.known <= n_cap else 0
    if holds(start):
        found = start
        while least and found > 0 and holds(found - 1):
            found -= 1
    else:
        found = next((n for n in range(start + 1, n_cap + 1) if holds(n)), None)
    if groebner.VERIFY:
        plain = next((n for n in range(n_cap + 1) if holds(n)), None)
        agree = found == plain if least else (found is None) == (plain is None)
        if not agree or (found is not None and not holds(found)):
            raise AssertionError(f"the certificate search from {start} gives {found}, from 0 {plain}")
    if found is not None:
        chain.known = found
    if top is None:
        return found
    if found != graded if least else (found is None) != (graded is None):
        raise AssertionError(f"the top degree of A/QA gives {graded}, the certificate search {found}")
    return graded


def sample_reductions(
    A: QuotientRingSpec, I: IdealHandle, count: int, seed: int, n_cap: int = CERTIFICATE_CAP, *,
    least: bool = False,
) -> tuple[list[tuple[ParameterIdealSpec, int]], list[str]]:
    """Seeded random minimal reductions of I: d-tuples of random linear
    combinations of I's generators, kept when the reduction certificate
    passes.  Deterministic for a fixed seed.  Returns ([(reduction,
    certificate)], warnings), every certificate taken by is_reduction with
    n_cap and least."""
    warnings: list[str] = []
    F = A.ring.field
    if F.kind == "prime" and F.characteristic < SMALL_FIELD_BOUND:
        warnings.append(
            f"field F_{F.characteristic} is small; generic reduction sampling may struggle"
        )
    gens = autoreduce(A.ring, list(I.generators))
    rng = SplitMix64(seed)
    found: list[tuple[ParameterIdealSpec, int]] = []
    attempts = 0
    max_attempts = 10 * count
    while len(found) < count and attempts < max_attempts:
        attempts += 1
        lifts = []
        for _ in range(A.dim):
            acc = A.ring.zero()
            for g in gens:
                c = rng.coefficient()
                if c:
                    acc = acc + g.scale(F.of_int(c))
            lifts.append(acc)
        if any(f.is_zero() for f in lifts):
            continue
        try:
            Q = parameter_ideal(A, lifts)
        except (NotLocallyFinite, ValueError):
            continue
        cert = is_reduction(A, Q, I, n_cap, least=least)
        if cert is not None:
            found.append((Q, cert))
    if len(found) < count:
        raise SamplingExhausted(
            f"found {len(found)}/{count} reductions in {attempts} attempts over {F}"
        )
    warnings.append(f"sampled {count} reductions in {attempts} attempts over {F}")
    return found, warnings


# ---------------------------------------------------------------------------
# the empirical first-coefficient map

@dataclass
class LambdaEntry:
    name: str
    lifts: tuple[str, ...]
    certificate: int
    coeffs: tuple[int, ...]


@dataclass
class LambdaReport:
    """Distinct observed e_1 values (an empirical subset, never claimed
    complete) plus the per-reduction entries."""

    values: list[int]
    entries: list[LambdaEntry]
    warnings: list[str] = field(default_factory=list)


def lambda_map(
    A: QuotientRingSpec,
    I: IdealHandle,
    count: int,
    seed: int,
    n_max: int | None = None,
    named: list[tuple[str, ParameterIdealSpec]] | None = None,
    n_cap: int = CERTIFICATE_CAP,
) -> LambdaReport:
    """e_1 over sampled (and named) minimal reductions of I, each with its
    least reduction number up to n_cap."""
    warnings: list[str] = []
    candidates: list[tuple[str, ParameterIdealSpec, int]] = []
    for name, q in named or []:
        cert = is_reduction(A, q, I, n_cap)
        if cert is None:
            warnings.append(f"named ideal {name}: no certificate I^{{n+1}} = Q I^n with n <= {n_cap}; skipped")
            continue
        candidates.append((name, q, cert))
    if count:
        sampled, w = sample_reductions(A, I, count, seed, n_cap, least=True)
        warnings.extend(w)
        candidates.extend((f"sample{i}", q, cert) for i, (q, cert) in enumerate(sampled))
    entries = [
        LambdaEntry(name, tuple(str(f) for f in q.lifts), cert, hilbert_report(A, q, n_max).coeffs)
        for name, q, cert in candidates
    ]
    values = sorted({e.coeffs[1] for e in entries})
    return LambdaReport(values, entries, warnings)
