"""Kernel method for (e_1, e_2) in dimension two, zeroth-local-cohomology
slice lengths, d-sequence and superficiality checkers, unmixed components,
and Sally-module bookkeeping.

The kernel method: with C = A/c a finite algebra (C is the user-supplied
presentation of the first local cohomology of A) and a, b the parameter
images acting on C, the block matrix with the action of a on the diagonal
and the action of b on the subdiagonal has kernel T_n, and

    l(A/Q^{n+1}) = e_0 * binom(n+2, 2) + l(T_n)   for all n >= 0,

so fitting the binomial basis to e_0 * binom(n+2,2) + l(T_n) recovers
(e_1, e_2) without sampling ideal powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, permutations
from math import comb, inf

from . import groebner
from .errors import BoundViolation
from .exactalg import ExactMatrix, echelon_insert, field_ops, rank
from .groebner import (
    GroebnerBasis,
    IdealHandle,
    colon,
    ideal_equal,
    local_colength_info,
    member,
    normal_form,
    sat_quotient_length,
    saturate,
    _standard_monomials,
)
from .hilbert import (
    CERTIFICATE_CAP,
    HilbertReport,
    ParameterIdealSpec,
    QuotientRingSpec,
    extract_coeffs,
    hilbert_report,
    ideal_hilbert_report,
    is_reduction,
    _colengths_mod_powers,
)
from .polyring import DEGREVLEX, Monomial, Polynomial, RingSpec, mono_divides, mono_mul


# ---------------------------------------------------------------------------
# finite-dimensional algebras C = R/c with exact multiplication matrices

@dataclass
class ArtinAlgebra:
    """C = R/c with its standard-monomial basis; action matrices hold the
    image of basis element j in column j."""

    ring: RingSpec
    ideal: IdealHandle
    basis: list[Monomial]
    gb: GroebnerBasis

    def __post_init__(self):
        self._index = {m: i for i, m in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, f: Polynomial) -> list:
        """Coordinates of the class of f in the standard monomial basis."""
        nf = normal_form(f, self.gb)
        vec = [self.ring.field.zero] * self.dim
        for m, c in nf.terms.items():
            vec[self._index[m]] = c
        return vec

    def action_matrix(self, f: Polynomial) -> ExactMatrix:
        """Exact matrix of multiplication by f on C: column j is
        sum_t c_t NF(t b_j) over the terms c_t t of f.  A standard t b_j is
        read off the basis index; one that a monomial element of the basis
        divides, or (truncated basis) of degree at least the cutoff, is 0;
        any other takes one normal_form per monomial per matrix.

        In verify mode, the matrix is checked against the columns
        coords(f * b_j) (AssertionError on a difference)."""
        field, dim, index, trunc = self.ring.field, self.dim, self._index, self.gb.trunc_degree
        add, _sub, mul, *_ = field_ops(field)
        zeros = [lt for lt, g in zip(self.gb.leading_monomials, self.gb.elements) if len(g.terms) == 1]
        normal_forms: dict = {}
        data = [[field.zero] * dim for _ in range(dim)]
        for j, b in enumerate(self.basis):
            for t, c in f.terms.items():
                m = mono_mul(t, b)
                if m in index:
                    i = index[m]
                    data[i][j] = add(data[i][j], c)
                elif not (trunc is not None and sum(m) >= trunc or any(mono_divides(z, m) for z in zeros)):
                    if m not in normal_forms:
                        normal_forms[m] = normal_form(self.ring.monomial(m), self.gb).terms
                    for m2, c2 in normal_forms[m].items():
                        i = index[m2]
                        data[i][j] = add(data[i][j], mul(c, c2))
        if groebner.VERIFY:
            cols = [self.coords(f * self.ring.monomial(b)) for b in self.basis]
            if data != [[cols[j][i] for j in range(dim)] for i in range(dim)]:
                raise AssertionError(f"the action matrix of {f} disagrees with its columns coords(f * b)")
        return ExactMatrix(field, data, dim)


def artin_algebra(ring: RingSpec, c: IdealHandle, cap: int = 64) -> ArtinAlgebra:
    """Build C = R/c (locally at the origin) with exact multiplication data:
    the standard monomials of the untruncated basis of a global-path
    colength, or of the truncated basis at a local-path colength's
    certifying cutoff (local_colength_info)."""
    info = local_colength_info(c, cap)  # raises if the colength is not finite
    gb = c.groebner() if info.window is None else c.truncated_groebner(info.window)
    basis = _standard_monomials(gb.leading_monomials, ring.nvars, gb.trunc_degree or inf)
    basis.sort(key=DEGREVLEX.key)
    return ArtinAlgebra(ring, c, basis, gb)


@dataclass
class ActionPair:
    """Actions of the two parameter images on C."""

    op_a: ExactMatrix
    op_b: ExactMatrix


def action_pair(C: ArtinAlgebra, a: Polynomial, b: Polynomial) -> ActionPair:
    """The actions of the parameter images a and b on C; each must be a
    nonzero element of the maximal ideal (ValueError otherwise)."""
    for name, f in (("a", a), ("b", b)):
        if f.is_zero() or f.constant_term():
            raise ValueError(f"parameter image {name} = {f} is not a nonzero element of the maximal ideal")
    return ActionPair(C.action_matrix(a), C.action_matrix(b))


# ---------------------------------------------------------------------------
# the kernel method

def _tn_lengths(act: ActionPair):
    """l(T_n) for n = 0, 1, 2, ...: the nullity of the (n+2)c x (n+1)c block
    matrix M_n with op_a on the diagonal blocks and op_b on the subdiagonal
    blocks.  Column block j of M_n holds op_a at row block j and op_b at row
    block j+1 whatever n is, so M_{n+1} is M_n with c more columns: one
    echelon basis of the column span grows by one block per n, and
    l(T_n) = (n+1)c - rank.  The block matrix is never built."""
    a, b = act.op_a, act.op_b
    c = a.cols
    # column k of a block as (row offset within the two row blocks, value)
    cols = [
        [(r, a.data[r][k]) for r in range(c) if a.data[r][k]]
        + [(c + r, b.data[r][k]) for r in range(c) if b.data[r][k]]
        for k in range(c)
    ]
    rows: dict = {}
    rank_n = 0
    for n in count():
        base = n * c
        for col in cols:
            rank_n += echelon_insert(rows, {base + i: x for i, x in col}, a.field)
        yield (n + 1) * c - rank_n


def tn_length(C: ArtinAlgebra, act: ActionPair, n: int) -> int:
    """Nullity of the (n+2)c x (n+1)c block matrix with op_a on the diagonal
    blocks and op_b on the subdiagonal blocks (0 for n < 0: no columns)."""
    return next(islice(_tn_lengths(act), n, None)) if n >= 0 else 0


@dataclass
class KernelReport:
    e1: int
    e2: int
    samples: dict[int, int]
    annihilator_bound: int  # l((0) :_C Q)
    algebra_length: int  # l(C)


def e1_e2_via_kernel(
    C: ArtinAlgebra, act: ActionPair, e0: int, window: range = range(0, 7)
) -> KernelReport:
    """Fit e_0*binom(n+2,2) + l(T_n) on the window and return (e_1, e_2);
    checks the proven bracket -l(C) <= e_1 <= -l((0):_C Q).  One pass of
    _tn_lengths gives every l(T_n) up to the window's end, and l(T_0).
    The sample H(n) = l(A/Q^{n+1}) is 0 for n < 0; a window with no n >= 0
    is a ValueError."""
    last = max(window, default=-1)
    if last < 0:
        raise ValueError(f"the kernel window [{window.start}, {window.stop}) holds no n >= 0")
    lengths = list(islice(_tn_lengths(act), last + 1))
    samples = {n: e0 * comb(n + 2, 2) + lengths[n] if n >= 0 else 0 for n in window}
    rep = extract_coeffs(samples, 2)
    if rep.coeffs[0] != e0:
        raise ValueError(f"fit changed the multiplicity: {rep.coeffs[0]} != {e0}")
    ann = lengths[0]
    if not (-C.dim <= rep.coeffs[1] <= -ann):
        raise BoundViolation(
            f"e1 = {rep.coeffs[1]} outside [-l(C), -l((0):Q)] = [{-C.dim}, {-ann}]"
        )
    return KernelReport(rep.coeffs[1], rep.coeffs[2], samples, ann, C.dim)


def annihilator_length(C: ArtinAlgebra, f: Polynomial) -> int:
    """l((0) :_C f) = nullity of the action of f = l(C/fC)."""
    m = C.action_matrix(f)
    return m.cols - rank(m)


# ---------------------------------------------------------------------------
# slice method for e_1 (d = 2, superficial nonzerodivisor slice)

def e1_via_slice(A: QuotientRingSpec, a: Polynomial) -> int:
    """-l(H^0_m(A/(a))): e_1 of a parameter ideal Q for d = 2 when a is a
    nonzerodivisor superficial for Q; the caller asserts (or pre-checks)
    superficiality.  The length is read in A: it does not depend on
    coordinates.  a must be a nonzero element of the maximal ideal."""
    if A.dim != 2:
        raise ValueError("slice method is for dimension 2")
    if a.is_zero() or a.constant_term():
        raise ValueError(f"slice element {a} is not a nonzero element of the maximal ideal")
    return -sat_quotient_length(A.plus(IdealHandle(A.ring, [a])))


# ---------------------------------------------------------------------------
# d-sequences, unmixed components, superficiality

def is_d_sequence(A: QuotientRingSpec, elems: list[Polynomial], all_orders: bool = False) -> bool:
    """Colon criterion ((e_1..e_{i-1}) : e_i e_j) = ((e_1..e_{i-1}) : e_j)
    for all i <= j (Huneke, The theory of d-sequences and powers of
    ideals, Adv. Math. 46, 1982), computed in R with the defining ideal
    added, with the left side as (P : e_j) : e_i for P = (e_1..e_{i-1}).
    In a chart the e_i are variables, and a regular e_i gives P : e_j's own
    basis (groebner._by_monomial), with no colon by the product.  With
    all_orders, every permutation of the given sequence is checked."""
    A2, elems, *_ = A.chart(elems)
    gb = A2.defining.groebner()
    if any(normal_form(e, gb).is_zero() for e in elems):
        raise ValueError("sequence member vanishes in A")
    orders = permutations(elems) if all_orders else [tuple(elems)]
    for seq in orders:
        for i in range(1, len(seq) + 1):
            prefix = A2.plus(IdealHandle(A.ring, seq[: i - 1]))
            for j in range(i, len(seq) + 1):
                rhs = colon(prefix, seq[j - 1])
                if not ideal_equal(colon(rhs, seq[i - 1]), rhs):
                    return False
    return True


def unmixed_component(A: QuotientRingSpec, a: Polynomial, b: Polynomial) -> IdealHandle:
    """U(a) = union of (a) : b^n, as the saturation of defining + (a) by b."""
    out = saturate(A.plus(IdealHandle(A.ring, [a])), IdealHandle(A.ring, [b]))
    gb = out.groebner()
    if not normal_form(a, gb).is_zero():
        raise AssertionError("U(a) does not contain (a); engine bug")
    return out


def is_superficial(
    A: QuotientRingSpec, Q: ParameterIdealSpec, a: Polynomial, window: range = range(2, 7)
) -> bool:
    """Windowed check of (Q^{n+1} : a) = Q^n + (0 : a) in A localized at
    the origin (in A itself wherever a + Q is supported at the origin
    alone).  A False is definitive (a witness n exists); a True is
    heuristic evidence.  As a lies in Q, the right side lies in the left,
    and multiplication by a gives l(A/(Q^{n+1} : a)) = l(A/Q^{n+1}) -
    l(A/(Q^{n+1} + aA)): they are equal iff that is l(A/(Q^n + (0 : a))),
    0 at n = 0 (Huneke & Swanson, Integral Closure of Ideals, Rings, and
    Modules, Ch. 8), each _colengths_mod_powers in Q's chart: H of the
    defining ideal, K of it plus (a), C of its colon by a (the lift of
    0 :_A a).  When every generator of that colon lies in the defining
    ideal, a is regular in A, 0 :_A a = 0 and C = H, with no local basis
    and no walk of the colon (for a pivot, the colon is the defining
    ideal's own basis, groebner._by_monomial); in verify mode C is walked
    anyway and must equal H.  A window with no n >= 0, or
    l(A/Q) != l(A/(Q, a)) (a not in Q), is a ValueError."""
    last = max(window, default=-1)
    if last < 0:
        raise ValueError(f"the superficiality window [{window.start}, {window.stop}) holds no n >= 0")
    chart = A.chart(Q.lifts)
    A2, _, move, _ = chart
    (b,) = move([a])
    if b:  # monic, as is_d_sequence's elements are: they share its colons and sums
        b = b.scale(field_ops(A.ring.field)[4](b.sorted_terms()[0][1]))
    zero_colon = colon(A2.defining, b)
    regular = all(member(g, A2.defining) for g in zero_colon.generators)
    H, K = (_colengths_mod_powers(chart, J, last) for J in (A2.defining, A2.plus(IdealHandle(A.ring, [b]))))
    if H[0] != K[0]:
        raise ValueError(f"{a} is not in Q: l(A/Q) = {H[0]}, l(A/(Q, a)) = {K[0]}")
    C = H if regular and not groebner.VERIFY else _colengths_mod_powers(chart, zero_colon, last)
    if regular and C != H:
        raise AssertionError(f"{a} is regular in A, but its colon's colengths {C} are not {H}")
    return all(H[n] - K[n] == (C[n - 1] if n else 0) for n in window if n >= 0)


# ---------------------------------------------------------------------------
# Sally modules

def sally_lengths(
    A: QuotientRingSpec, I: IdealHandle, Q: ParameterIdealSpec, n_max: int = 4
) -> dict[int, int]:
    """l(I^{n+1}/Q^n I) = l(A/Q^n I) - l(A/I^{n+1}) for n = 1..n_max, with
    n_max >= 1, from two chains of A: the chain of (A, I), after
    is_reduction certified that Q is a reduction of I, and the chain of Q
    started at I."""
    if n_max < 1:
        raise ValueError(f"Sally lengths start at n = 1; n_max {n_max} checks nothing")
    if is_reduction(A, Q, I, least=False) is None:
        raise ValueError(f"no certificate I^{{n+1}} = Q I^n with n <= {CERTIFICATE_CAP}")
    chain = A.chain(I)
    qn_i = A.chain(IdealHandle(A.ring, Q.lifts), start=I)
    out = {n: qn_i.colength(n) - chain.colength(n + 1) for n in range(1, n_max + 1)}
    if any(v < 0 for v in out.values()):
        raise AssertionError("negative Sally length; engine bug")
    return out


@dataclass
class SallyRankReport:
    rank: int
    e0_i: int
    e1_i: int
    e1_q: int
    colength_i: int


def sally_rank(
    A: QuotientRingSpec, I: IdealHandle, Q: ParameterIdealSpec, n_max: int | None = None
) -> SallyRankReport:
    """Localized Sally-module length through the bookkeeping identity
    rank = e1_I - e0_I - e1_Q + l(A/I); reports the inputs alongside.
    Q must be a reduction of I, certified by is_reduction; the report of I
    reads A.chain(I)."""
    if is_reduction(A, Q, I, least=False) is None:
        raise ValueError(f"no certificate I^{{n+1}} = Q I^n with n <= {CERTIFICATE_CAP}")
    rep_i = ideal_hilbert_report(A, I, n_max)
    rep_q = hilbert_report(A, Q, n_max)
    col_i = rep_i.samples[0]
    rank_value = rep_i.coeffs[1] - rep_i.coeffs[0] - rep_q.coeffs[1] + col_i
    return SallyRankReport(rank_value, rep_i.coeffs[0], rep_i.coeffs[1], rep_q.coeffs[1], col_i)


# ---------------------------------------------------------------------------
# the k + J analysis (subring with maximal ideal J inside B)

@dataclass
class KPlusJEntry:
    name: str
    rank: int
    e1_derived: int


@dataclass
class KPlusJReport:
    coeffs: tuple[int, ...]  # (e_0, e_1, e_2) of A = k + J
    identity_value: int  # e1_m - e0_m + 1 = e1_Q + rank for every reduction Q
    entries: list[KPlusJEntry]
    report: HilbertReport


def k_plus_j_analysis(
    B: QuotientRingSpec,
    J: IdealHandle,
    named: list[tuple[str, ParameterIdealSpec]],
    n_max: int | None = None,
) -> KPlusJReport:
    """Hilbert coefficients of A = k + J inside B plus, for each named
    reduction q of J, the localized Sally length (computed in B, where the
    Sally modules of J and of the maximal ideal of A agree) and the derived
    first coefficient e1 = (e1_m - e0_m + 1) - rank.  The maximal ideal of
    A is J and

        l_A(A/m_A^{n+1}) = l_B(B/J^{n+1}) - (l_B(B/J) - 1)   for n >= 1,

    with l_A(A/m_A) = 1; the coefficients come from the n >= 1 tail of the
    samples up to n_max (default dim + 7)."""
    d = B.dim
    samples_max = d + 7 if n_max is None else n_max
    if samples_max < 2 * (d + 1) + 1:
        raise ValueError("n_max too small to fit the n >= 1 tail")
    chain = B.chain(J)  # lengths[n] = l(B/J^{n+1}); also certifies each q
    lengths = [chain.colength(n + 1) for n in range(samples_max + 1)]
    samples = {0: 1} | {n: lengths[n] - lengths[0] + 1 for n in range(1, samples_max + 1)}
    rep = extract_coeffs(samples, d)
    identity = rep.coeffs[1] - rep.coeffs[0] + 1
    entries = []
    for name, q in named:
        try:
            r = sally_rank(B, J, q, n_max)
        except ValueError as exc:
            raise ValueError(f"named ideal {name!r}: {exc}") from exc
        entries.append(KPlusJEntry(name, r.rank, identity - r.rank))
    return KPlusJReport(rep.coeffs, identity, entries, rep)
