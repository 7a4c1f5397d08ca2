"""Buchberger engine and the ideal-arithmetic toolkit.

Provides reduced Groebner bases (with an optional degree-truncation mode
used for local colengths), normal forms, ideal sum/product/power,
intersection, colon, saturation, membership/equality, the truncated local
colength with its stabilization loop, and the saturation-quotient length.

Truncation mode: for a degree-compatible order and cutoff T, the engine
computes a basis of J + m^T where m is the irrelevant maximal ideal.  All
terms of degree >= T are dropped eagerly (reduction by the implicit
monomial block), and for every basis element g with an inhomogeneous low
tail the boundary S-polynomials u*g (deg(u * LT(g)) = T) are processed;
the remaining pairs against the monomial block reduce to zero by the
standard chain/coprime criteria.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    MixedRings,
    NotFinite,
    NotLocallyFinite,
    ResourceLimit,
    ZeroDivisor,
)
from .exactalg import ExactMatrix, FieldConfig, rank
from .polyring import (
    DEGREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    RingSpec,
    elimination_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_below_degree,
    monomials_of_degree,
    parse_poly,
)

PAIR_BUDGET = 200_000
SATURATION_CAP = 64

# test-mode knobs: extra stabilization steps to confirm, and the maximal
# truncated-monomial count for which every colength is cross-checked
# against the brute-force rank oracle.
VERIFY_EXTRA_STEPS = 0
VERIFY_ORACLE_LIMIT = 0

_GB_MEMO: dict = {}


def _field_ops(F: FieldConfig):
    """(add, sub, mul, neg, inv, one) closures for the hot loops."""
    if F.kind == "prime":
        p = F.characteristic

        def inv(a, _p=p):
            return pow(a, _p - 2, _p)

        return (
            lambda a, b: (a + b) % p,
            lambda a, b: (a - b) % p,
            lambda a, b: (a * b) % p,
            lambda a: (-a) % p,
            inv,
            1,
        )
    one = Fraction(1)
    return (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a: -a,
        lambda a: one / a,
        one,
    )


# ---------------------------------------------------------------------------
# raw polynomials: lists of (exps, coeff) pairs, strictly descending under
# the active order.  Reduction runs on a coefficient dict with a lazy
# max-heap of monomials (cached inverted sort keys, so heapq pops the
# order-largest monomial first).

def _heapkey_fn(order: MonomialOrder):
    """Monomial -> heap key, with smaller heap key = larger monomial."""
    cache: dict = {}
    kind, block = order.kind, order.block
    if kind == "degrevlex":

        def hk(m):
            k = cache.get(m)
            if k is None:
                k = (-sum(m), m[::-1])
                cache[m] = k
            return k

    elif kind == "lex":

        def hk(m):
            k = cache.get(m)
            if k is None:
                k = tuple(-e for e in m)
                cache[m] = k
            return k

    else:

        def hk(m):
            k = cache.get(m)
            if k is None:
                head, tail = m[:block], m[block:]
                k = (-sum(head), head[::-1], -sum(tail), tail[::-1])
                cache[m] = k
            return k

    return hk


def _pairs_from_terms(terms: dict, trunc) -> list:
    if trunc is None:
        return list(terms.items())
    return [(m, c) for m, c in terms.items() if sum(m) < trunc]


def _sort_pairs(pairs: list, keyf) -> list:
    pairs.sort(key=lambda t: keyf(t[0]), reverse=True)
    return pairs


# Short exponent vectors (Bachmann & Schoenemann, ISSAC 1998): each variable
# owns a field of _SEV_BITS bits, of which the low min(e_i, _SEV_BITS) are set.
# If a divides b then _sev(a) & ~_sev(b) == 0, so a nonzero result rejects a
# divisor candidate at once; a zero result is confirmed exponent by exponent.
_SEV_BITS = 8
_SEV_FIELD = tuple((1 << k) - 1 for k in range(_SEV_BITS + 1))


def _sev(m: Monomial) -> int:
    s = 0
    for e in m:
        s = (s << _SEV_BITS) | _SEV_FIELD[e if e < _SEV_BITS else _SEV_BITS]
    return s


class _Elem:
    __slots__ = ("lt", "deg", "sev", "terms", "boundary_done")

    def __init__(self, terms: list):
        self.terms = terms  # monic (m, c) pairs, sorted descending
        self.lt = terms[0][0]
        self.deg = sum(self.lt)
        self.sev = _sev(self.lt)
        self.boundary_done = False


def _find_reducer(m: Monomial, deg: int, elems: list[_Elem]):
    """The first element whose leading monomial divides m, or None."""
    not_m = ~_sev(m)
    for e in elems:
        if e.sev & not_m or e.deg > deg:
            continue
        for a, b in zip(e.lt, m):
            if a > b:
                break
        else:
            return e
    return None


def _reduce_pairs(pairs: list, elems: list[_Elem], hk, keyf, ops, trunc, full: bool) -> list:
    """Reduce unsorted (m, c) pairs against the basis; returns descending
    pairs: the full normal form, or (top mode) the irreducible-head
    remainder."""
    _add, sub, mul, neg, _inv, _one = ops
    coeffs: dict = {}
    for m, c in pairs:
        prev = coeffs.get(m)
        if prev is None:
            coeffs[m] = c
        else:
            s = _add(prev, c)
            if s:
                coeffs[m] = s
            else:
                del coeffs[m]
    heap = [(hk(m), m) for m in coeffs]
    heapq.heapify(heap)
    rem: list = []
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m, None)
        if c is None:
            continue
        deg = sum(m)
        e = _find_reducer(m, deg, elems)
        if e is None:
            if not full:
                out = [(m, c)] + list(coeffs.items())
                return _sort_pairs(out, keyf)
            rem.append((m, c))
            continue
        elt = e.lt
        u = tuple(a - b for a, b in zip(m, elt))
        terms = e.terms
        for i in range(1, len(terms)):
            mt, ct = terms[i]
            m2 = tuple(a + b for a, b in zip(mt, u))
            if trunc is not None and sum(m2) >= trunc:
                continue
            prev = coeffs.get(m2)
            if prev is None:
                coeffs[m2] = neg(mul(c, ct))
                heapq.heappush(heap, (hk(m2), m2))
            else:
                s = sub(prev, mul(c, ct))
                if s:
                    coeffs[m2] = s
                else:
                    del coeffs[m2]
    return rem if full else []


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller pair pruning

def _gm_update(elems: list[_Elem], pairs: dict, new_idx: int, order: MonomialOrder) -> list:
    """Gebauer-Moeller update of the pair set (pair key -> (lcm, its sev))
    after appending elems[new_idx]; returns the freshly added pair keys."""
    f_lt, f_sev = elems[new_idx].lt, elems[new_idx].sev
    for (i, j), (L, L_sev) in list(pairs.items()):
        if (
            not f_sev & ~L_sev
            and mono_divides(f_lt, L)
            and mono_lcm(elems[i].lt, f_lt) != L
            and mono_lcm(elems[j].lt, f_lt) != L
        ):
            del pairs[(i, j)]
    groups: dict = {}
    for i in range(new_idx):
        groups.setdefault(mono_lcm(elems[i].lt, f_lt), []).append(i)
    added = []
    minimal: list[tuple[Monomial, int]] = []
    for L in sorted(groups, key=order.key):
        L_sev = _sev(L)
        if any(not s & ~L_sev and mono_divides(Lm, L) for Lm, s in minimal):
            continue
        minimal.append((L, L_sev))
        if any(mono_mul(elems[i].lt, f_lt) == L for i in groups[L]):
            continue  # coprime leading terms: S-polynomial reduces to zero
        pair = (min(groups[L]), new_idx)
        pairs[pair] = (L, L_sev)
        added.append(pair)
    return added


def _engine(
    ring: RingSpec,
    order: MonomialOrder,
    polys: Sequence[Polynomial],
    trunc: int | None = None,
    pair_budget: int | None = None,
    reduce_tails: bool = True,
) -> list[_Elem]:
    """Run Buchberger; returns the minimal interreduced elements."""
    if trunc is not None and not order.degree_compatible:
        raise ValueError("truncated bases need a degree-compatible order")
    budget = PAIR_BUDGET if pair_budget is None else pair_budget
    keyf = order.key
    hk = _heapkey_fn(order)
    ops = _field_ops(ring.field)
    _add, _sub, mul, neg, inv, one = ops
    nvars = ring.nvars

    raw_gens = []
    for f in polys:
        pr = _sort_pairs(_pairs_from_terms(f.terms, trunc), keyf)
        if pr:
            raw_gens.append(pr)
    raw_gens.sort(key=lambda pr: [keyf(t[0]) for t in pr])

    elems: list[_Elem] = []
    pairs: dict = {}
    heap: list = []
    counter = 0

    def insert(pr: list) -> None:
        nonlocal counter
        lc = pr[0][1]
        if lc != one:
            c = inv(lc)
            pr = [(m, mul(c, v)) for (m, v) in pr]
        elems.append(_Elem(pr))
        for (i, j) in _gm_update(elems, pairs, len(elems) - 1, order):
            L = pairs[(i, j)][0]
            counter += 1
            heapq.heappush(heap, (sum(L), keyf(L), i, j, counter))

    for pr in raw_gens:
        pr = _reduce_pairs(pr, elems, hk, keyf, ops, trunc, full=False) if elems else pr
        if pr:
            insert(pr)

    processed = 0

    def spend(n: int = 1) -> None:
        nonlocal processed
        processed += n
        if processed > budget:
            raise ResourceLimit(f"pair budget {budget} exhausted")

    while True:
        while heap:
            _, _, i, j, _ = heapq.heappop(heap)
            if (i, j) not in pairs:
                continue
            L, _ = pairs.pop((i, j))
            spend()
            ei, ej = elems[i], elems[j]
            ui = mono_div(L, ei.lt)
            uj = mono_div(L, ej.lt)
            s = [(mono_mul(m, ui), c) for (m, c) in ei.terms]
            s += [(mono_mul(m, uj), neg(c)) for (m, c) in ej.terms]
            r = _reduce_pairs(s, elems, hk, keyf, ops, trunc, full=False)
            if r:
                insert(r)
        if trunc is None:
            break
        todo = [e for e in elems if not e.boundary_done]
        if not todo:
            break
        for e in todo:
            e.boundary_done = True
            not_e = ~e.sev
            if any(o is not e and not o.sev & not_e and mono_divides(o.lt, e.lt) for o in elems):
                continue  # covered by the dominating element's boundary
            lowtail = [t for t in e.terms[1:] if sum(t[0]) < e.deg]
            if not lowtail:
                continue
            for u in monomials_of_degree(nvars, trunc - e.deg):
                spend()
                cand = [(mono_mul(m, u), c) for (m, c) in lowtail]
                r = _reduce_pairs(cand, elems, hk, keyf, ops, trunc, full=False)
                if r:
                    insert(r)
        if not heap and all(e.boundary_done for e in elems):
            break

    by_lt: dict = {}
    for e in elems:  # keep the first element per leading monomial
        by_lt.setdefault(e.lt, e)
    cands = list(by_lt.values())
    minimal = [
        e
        for e in cands
        if not any(
            not o.sev & ~e.sev and o.lt != e.lt and mono_divides(o.lt, e.lt) for o in cands
        )
    ]
    minimal.sort(key=lambda e: keyf(e.lt))
    if reduce_tails:
        for idx, e in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1 :]
            if not others:
                continue
            tail = _reduce_pairs(e.terms[1:], others, hk, keyf, ops, trunc, full=True)
            minimal[idx] = _Elem([e.terms[0]] + tail)
            minimal[idx].boundary_done = e.boundary_done
    return minimal


# ---------------------------------------------------------------------------
# public basis / ideal objects

@dataclass
class GroebnerBasis:
    """Reduced Groebner basis; with trunc_degree set, a basis of J + m^T."""

    ring: RingSpec
    order: MonomialOrder
    elements: list[Polynomial]
    trunc_degree: int | None = None

    def __post_init__(self):
        self._raw = None

    @property
    def leading_monomials(self) -> list[Monomial]:
        key = self.order.key
        return [max(f.terms, key=key) for f in self.elements]

    def _raw_elems(self):
        if self._raw is None:
            keyf = self.order.key
            self._raw = [
                _Elem(_sort_pairs(list(f.terms.items()), keyf)) for f in self.elements
            ]
        return self._raw

    def contains_one(self) -> bool:
        zero = (0,) * self.ring.nvars
        return any(lt == zero for lt in self.leading_monomials)

    def standard_monomials(self) -> list[Monomial]:
        """Monomials outside the staircase (finite in truncation mode),
        sorted ascending under the basis order."""
        if self.trunc_degree is None:
            raise ValueError("standard monomial enumeration needs a truncated basis")
        out = _standard_monomials(self.leading_monomials, self.ring.nvars, self.trunc_degree)
        out.sort(key=self.order.key)
        return out


def _standard_monomials(lts: list[Monomial], nvars: int, bound: int) -> list[Monomial]:
    """Monomials of degree < bound divisible by no lt, breadth first from 1.

    The walk tests m + e_i only for standard m.  No lt divides m, so an lt
    dividing m + e_i exceeds m in variable i alone: its i-th exponent is
    m_i + 1.  The lts are bucketed by (i, lt_i) and only that bucket is
    tested."""
    origin = (0,) * nvars
    if any(sum(lt) == 0 for lt in lts):
        return []
    buckets: dict = {}
    for lt in lts:
        for i, e in enumerate(lt):
            if e:
                buckets.setdefault((i, e), []).append(lt)
    seen = {origin}
    queue = [origin]
    for m in queue:
        if sum(m) + 1 >= bound:
            continue
        for i in range(nvars):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if m2 in seen:
                continue
            seen.add(m2)
            for lt in buckets.get((i, m2[i]), ()):
                for a, b in zip(lt, m2):
                    if a > b:
                        break
                else:
                    break  # lt divides m2
            else:
                queue.append(m2)
    return queue


class IdealHandle:
    """Generator list plus cached reduced Groebner bases per order."""

    __slots__ = ("ring", "generators", "_cache")

    def __init__(self, ring: RingSpec, generators: Iterable[Polynomial]):
        self.ring = ring
        gens = []
        for g in generators:
            if g.ring != ring:
                raise MixedRings("generator from a different ring")
            if g:
                gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    def __repr__(self):
        return f"IdealHandle({', '.join(str(g) for g in self.generators) or '0'})"

    def groebner(self, order: MonomialOrder = DEGREVLEX, pair_budget: int | None = None) -> GroebnerBasis:
        key = (order.kind, order.block, None)
        gb = self._cache.get(key)
        if gb is None:
            gb = _compute_basis(self.ring, order, self.generators, None, pair_budget, True)
            self._cache[key] = gb
        return gb

    def truncated_groebner(self, trunc: int, pair_budget: int | None = None) -> GroebnerBasis:
        key = ("degrevlex", 0, trunc)
        gb = self._cache.get(key)
        if gb is None:
            gb = _compute_basis(self.ring, DEGREVLEX, self.generators, trunc, pair_budget, False)
            self._cache[key] = gb
        return gb


def _memo_key(ring, order, gens, trunc):
    gen_sig = tuple(
        tuple(sorted((m, str(c)) for m, c in g.terms.items())) for g in gens
    )
    return (str(ring.field), ring.variables, order.kind, order.block, trunc, gen_sig)


def _compute_basis(ring, order, gens, trunc, pair_budget, reduce_tails) -> GroebnerBasis:
    memo_key = _memo_key(ring, order, gens, trunc)
    hit = _GB_MEMO.get(memo_key)
    if hit is not None:
        return hit
    cached = _disk_cache_load(memo_key, ring, order, trunc)
    if cached is not None:
        _GB_MEMO[memo_key] = cached
        return cached
    minimal = _engine(ring, order, gens, trunc, pair_budget, reduce_tails)
    elements = [
        Polynomial(ring, dict(e.terms), _canonical=True) for e in minimal
    ]
    gb = GroebnerBasis(ring, order, elements, trunc)
    _GB_MEMO[memo_key] = gb
    _disk_cache_store(memo_key, gb)
    return gb


# optional on-disk basis cache, enabled by HILBSAM_GB_CACHE (documented; off
# by default).  Stores element term lists as JSON keyed by a content hash of
# the memo key salted with the format version; bump the version whenever the
# engine's bases or the entry format change, so older entries are never served.
_DISK_CACHE_VERSION = "hilbsam-gb-2"


def _disk_cache_path(memo_key):
    root = os.environ.get("HILBSAM_GB_CACHE")
    if not root:
        return None
    digest = hashlib.sha256(repr((_DISK_CACHE_VERSION, memo_key)).encode()).hexdigest()
    return os.path.join(root, digest + ".json")


def _disk_cache_load(memo_key, ring, order, trunc):
    path = _disk_cache_path(memo_key)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        elements = []
        for terms in payload["elements"]:
            d = {}
            for entry in terms:
                exps = tuple(entry[0])
                c = entry[1]
                d[exps] = Fraction(c) if ring.field.kind == "rationals" else int(c)
            elements.append(Polynomial(ring, d))
        return GroebnerBasis(ring, order, elements, trunc)
    except (OSError, ValueError, KeyError):
        return None


def _disk_cache_store(memo_key, gb: GroebnerBasis) -> None:
    """Write the entry to a temporary file beside it, then rename it into
    place: pool workers share the directory, so no reader may see a torn
    entry."""
    path = _disk_cache_path(memo_key)
    if path is None:
        return
    payload = {
        "elements": [
            [[list(m), str(c)] for m, c in f.sorted_terms(gb.order)] for f in gb.elements
        ]
    }
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# normal form, membership, equality

def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Complete multivariate division remainder; idempotent and k-linear."""
    if f.ring != gb.ring:
        raise MixedRings("polynomial from a different ring")
    keyf = gb.order.key
    ops = _field_ops(f.ring.field)
    hk = _heapkey_fn(gb.order)
    pr = _pairs_from_terms(f.terms, gb.trunc_degree)
    rem = _reduce_pairs(pr, gb._raw_elems(), hk, keyf, ops, gb.trunc_degree, full=True)
    return Polynomial(f.ring, dict(rem), _canonical=True)


def member(f: Polynomial, I: IdealHandle) -> bool:
    return normal_form(f, I.groebner()).is_zero()


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
    """Equality through uniqueness of the reduced degrevlex basis."""
    if I.ring != J.ring:
        raise MixedRings("ideals from different rings")
    return I.groebner().elements == J.groebner().elements


def ideal_contains(I: IdealHandle, J: IdealHandle) -> bool:
    gb = I.groebner()
    return all(normal_form(g, gb).is_zero() for g in J.generators)


# ---------------------------------------------------------------------------
# ideal arithmetic

def ideal(ring: RingSpec, gens: Iterable) -> IdealHandle:
    """IdealHandle from polynomials or polynomial strings."""
    polys = [parse_poly(ring, g) if isinstance(g, str) else g for g in gens]
    return IdealHandle(ring, polys)


def maximal_ideal(ring: RingSpec) -> IdealHandle:
    return IdealHandle(ring, [ring.variable(i) for i in range(ring.nvars)])


def ideal_sum(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    if I.ring != J.ring:
        raise MixedRings("ideals from different rings")
    return IdealHandle(I.ring, I.generators + J.generators)


def ideal_product(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    if I.ring != J.ring:
        raise MixedRings("ideals from different rings")
    gens = [f * g for f in I.generators for g in J.generators]
    return IdealHandle(I.ring, _dedupe(gens))


def ideal_power(I: IdealHandle, n: int) -> IdealHandle:
    """I^n with generator interreduction at each step to control blowup."""
    if n < 0:
        raise ValueError("negative ideal power")
    if n == 0:
        return IdealHandle(I.ring, [I.ring.one()])
    result = I
    for _ in range(n - 1):
        result = IdealHandle(I.ring, autoreduced_product(result.generators, I))
    return result


def autoreduced_product(gens: Sequence[Polynomial], I: IdealHandle) -> list[Polynomial]:
    """Autoreduced generators of (gens) * I: the step of every power builder."""
    return autoreduce(I.ring, _dedupe([f * g for f in gens for g in I.generators]))


def _dedupe(gens: list[Polynomial]) -> list[Polynomial]:
    seen = set()
    out = []
    for g in gens:
        if g and g not in seen:
            seen.add(g)
            out.append(g)
    return out


def autoreduce(ring: RingSpec, gens: list[Polynomial], order: MonomialOrder = DEGREVLEX) -> list[Polynomial]:
    """Drop generators lying in the ideal of the others (division-based):
    each generator is replaced by its division remainder against the kept
    list; zero remainders are dropped.  Deterministic."""
    keyf = order.key
    ops = _field_ops(ring.field)
    hk = _heapkey_fn(order)
    _add, _sub, mul, _neg, inv, one = ops
    raws = [_sort_pairs(list(g.terms.items()), keyf) for g in gens if g]
    raws.sort(key=lambda pr: [keyf(t[0]) for t in pr])
    kept: list[_Elem] = []
    for pr in raws:
        rem = _reduce_pairs(pr, kept, hk, keyf, ops, None, full=True) if kept else pr
        if rem:
            lc = rem[0][1]
            if lc != one:  # reducers must be monic
                c = inv(lc)
                rem = [(m, mul(c, v)) for (m, v) in rem]
            kept.append(_Elem(rem))
    return [Polynomial(ring, dict(e.terms), _canonical=True) for e in kept]


def _aux_ring(ring: RingSpec) -> tuple[RingSpec, MonomialOrder]:
    name = "t_aux"
    while name in ring.variables:
        name += "_"
    return RingSpec((name,) + ring.variables, ring.field), elimination_order(1)


def _lift(f: Polynomial, ring2: RingSpec, tdeg: int = 0) -> Polynomial:
    return Polynomial(ring2, {(tdeg,) + m: c for m, c in f.terms.items()}, _canonical=True)


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I ∩ J by eliminating t from t*I + (1-t)*J in R[t]."""
    if I.ring != J.ring:
        raise MixedRings("ideals from different rings")
    ring = I.ring
    if not I.generators or not J.generators:
        return IdealHandle(ring, [])
    ring2, order = _aux_ring(ring)
    t = ring2.variable(0)
    one_minus_t = ring2.one() - t
    gens2 = [t * _lift(g, ring2) for g in I.generators]
    gens2 += [one_minus_t * _lift(g, ring2) for g in J.generators]
    gb = IdealHandle(ring2, gens2).groebner(order)
    out = []
    for f in gb.elements:
        if all(m[0] == 0 for m in f.terms):
            out.append(Polynomial(ring, {m[1:]: c for m, c in f.terms.items()}, _canonical=True))
    return IdealHandle(ring, out)


def poly_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g for f in (g); raises if the division leaves a remainder."""
    ring = f.ring
    keyf = DEGREVLEX.key
    ops = _field_ops(ring.field)
    add, _sub, mul, neg, inv, _one = ops
    work = _sort_pairs(list(f.terms.items()), keyf)
    graw = _sort_pairs(list(g.terms.items()), keyf)
    glt, glc = graw[0]
    glc_inv = inv(glc)
    quot: dict = {}
    hk = _heapkey_fn(DEGREVLEX)
    while work:
        m, c = work[0]
        if not mono_divides(glt, m):
            raise ValueError("not an exact multiple")
        u = mono_div(m, glt)
        q = mul(c, glc_inv)
        quot[u] = q
        shifted = [(mono_mul(mt, u), neg(mul(q, ct))) for (mt, ct) in graw]
        merged: dict = dict(work)
        for m2, c2 in shifted:
            prev = merged.get(m2)
            s = add(prev, c2) if prev is not None else c2
            if s:
                merged[m2] = s
            else:
                merged.pop(m2, None)
        work = _sort_pairs(list(merged.items()), keyf)
    return Polynomial(ring, quot, _canonical=True)


def colon(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """(I : f) via generators of I ∩ (f) divided exactly by f."""
    if f.is_zero():
        raise ZeroDivisor("colon by zero")
    K = intersect(I, IdealHandle(I.ring, [f]))
    return IdealHandle(I.ring, [poly_exact_div(g, f) for g in K.generators])


def colon_ideal(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """(I : J) as the intersection of the colons by J's generators."""
    gens = autoreduce(I.ring, list(J.generators))
    if not gens:
        raise ZeroDivisor("colon by the zero ideal")
    result = colon(I, gens[0])
    for g in gens[1:]:
        result = intersect(result, colon(I, g))
    return result


def saturate(I: IdealHandle, J: IdealHandle, cap: int = SATURATION_CAP) -> IdealHandle:
    """(I : J^inf): iterate colons until the reduced basis is stable."""
    current = I
    for _ in range(cap):
        nxt = colon_ideal(current, J)
        if ideal_equal(nxt, current):
            return current
        current = nxt
    raise ResourceLimit(f"saturation did not stabilize within {cap} iterations")


# ---------------------------------------------------------------------------
# local colength by m-adic truncation

@dataclass
class ColengthInfo:
    value: int
    window: tuple[int, int] | None  # (N, M): D(N) = D(M) certified the value;
    # None when the global zero-dimensional path applied (no truncation)
    samples: dict = field(default_factory=dict)  # N -> D(N) evaluated


def colength_at_cutoff(J: IdealHandle, cutoff: int) -> int:
    """dim_k R/(J + m^cutoff) as the number of standard monomials of the
    truncated degrevlex basis."""
    gb = J.truncated_groebner(cutoff)
    if gb.contains_one():
        return 0
    n = len(_standard_monomials(gb.leading_monomials, J.ring.nvars, cutoff))
    if VERIFY_ORACLE_LIMIT:
        _oracle_check(J, cutoff, n)
    return n


def _ladder(n0: int, nmax: int):
    n = n0
    while True:
        yield min(n, nmax)
        if n >= nmax:
            return
        n = max(n + 2, (3 * n) // 2)


def _global_zero_dim_colength(J: IdealHandle) -> int | None:
    """Colength at the origin through the untruncated basis: applies when
    the staircase is finite and every variable is nilpotent mod J (support
    is the origin alone, so the global and local colengths agree).  Returns
    None when the path does not apply.  An infinite staircase decides
    finiteness exactly: R/J has finite length at the origin iff
    (J : m^inf) is not inside m; NotLocallyFinite is raised otherwise."""
    try:
        gb = J.groebner()
    except ResourceLimit:
        return None
    if gb.contains_one():
        return 0
    nv = J.ring.nvars
    lts = gb.leading_monomials
    power_bound = 0
    for i in range(nv):
        pure = [lt[i] for lt in lts if sum(lt) == lt[i]]
        if not pure:
            try:
                sat = saturate(J, maximal_ideal(J.ring))
            except ResourceLimit:
                return None  # left to the truncation ladder
            if not any(g.constant_term() for g in sat.generators):
                raise NotLocallyFinite("a positive-dimensional component passes through the origin")
            return None  # the infinite part misses the origin: truncate
        power_bound += min(pure)
    count = len(_standard_monomials(lts, nv, power_bound + 1))
    for i in range(nv):
        xi = J.ring.variable(i)
        vec = normal_form(xi, gb)
        steps = 1
        while vec and steps <= count + 1:
            vec = normal_form(xi * vec, gb)
            steps += 1
        if vec:
            return None  # a variable is not nilpotent: support off the origin
    return count


def local_colength_info(J: IdealHandle, cutoffs: tuple[int, int] = (4, 64)) -> ColengthInfo:
    fast = _global_zero_dim_colength(J)
    if fast is not None:
        if VERIFY_EXTRA_STEPS:
            ladder_value = _ladder_colength_info(J, cutoffs).value
            if ladder_value != fast:
                raise AssertionError(
                    f"global path {fast} disagrees with truncation ladder {ladder_value}"
                )
        return ColengthInfo(fast, None)
    return _ladder_colength_info(J, cutoffs)


def _ladder_colength_info(J: IdealHandle, cutoffs: tuple[int, int]) -> ColengthInfo:
    n0, nmax = cutoffs
    samples: dict[int, int] = {}
    prev = None
    for n in _ladder(max(2, n0), nmax):
        d = colength_at_cutoff(J, n)
        samples[n] = d
        if prev is not None:
            pn, pd = prev
            if pd > d:
                raise AssertionError("truncated colength decreased; engine bug")
            if pd == d:
                for extra in range(1, VERIFY_EXTRA_STEPS + 1):
                    if colength_at_cutoff(J, n + extra) != d:
                        raise AssertionError("stabilized colength moved; engine bug")
                return ColengthInfo(d, (pn, n), samples)
        prev = (n, d)
    raise NotLocallyFinite(
        f"no stabilization up to cutoff {nmax}: ideal not m-primary locally, or cap too small"
    )


def local_colength(J: IdealHandle, cutoffs: tuple[int, int] = (4, 64)) -> int:
    """Stabilized value of D(N) = dim_k R/(J + m^N); equals the colength of
    J in the local ring at the origin when finite."""
    return local_colength_info(J, cutoffs).value


def truncation_colength_oracle(J: IdealHandle, cutoff: int) -> int:
    """Brute-force oracle for dim_k R/(J + m^cutoff): codimension of the span
    of all degree-truncated monomial multiples of the generators, computed
    with exact Gaussian elimination (independent of the Groebner path)."""
    ring = J.ring
    monos = list(monomials_below_degree(ring.nvars, cutoff))
    index = {m: i for i, m in enumerate(monos)}
    zero = ring.field.zero
    rows = []
    seen = set()
    for g in J.generators:
        if g.is_zero():
            continue
        mindeg = min(sum(m) for m in g.terms)
        for u in monomials_below_degree(ring.nvars, max(cutoff - mindeg, 0)):
            row = [zero] * len(monos)
            nonzero = False
            for m, c in g.terms.items():
                mu = mono_mul(m, u)
                if sum(mu) < cutoff:
                    row[index[mu]] = c
                    nonzero = True
            if nonzero:
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
    if not rows:
        return len(monos)
    return len(monos) - rank(ExactMatrix(ring.field, rows, len(monos)))


def _oracle_check(J: IdealHandle, cutoff: int, value: int) -> None:
    from math import comb

    if comb(cutoff + J.ring.nvars - 1, J.ring.nvars) > VERIFY_ORACLE_LIMIT:
        return
    got = truncation_colength_oracle(J, cutoff)
    if got != value:
        raise AssertionError(
            f"oracle disagrees with truncated basis at cutoff {cutoff}: {got} != {value}"
        )


def sat_quotient_length(J: IdealHandle, cutoffs: tuple[int, int] = (4, 64)) -> int:
    """Length of (J : m^inf)/J (the zeroth local cohomology of R/J at the
    origin), by the stabilized difference of truncated colengths."""
    sat = saturate(J, maximal_ideal(J.ring))
    if ideal_equal(sat, J):
        return 0
    n0, nmax = cutoffs
    prev = None
    for n in _ladder(max(2, n0), nmax):
        d = colength_at_cutoff(J, n) - colength_at_cutoff(sat, n)
        if prev is not None and prev == d:
            return d
        prev = d
    raise NotFinite(f"saturation quotient length did not stabilize up to cutoff {nmax}")
