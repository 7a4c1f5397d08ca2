"""Buchberger engine and the ideal-arithmetic toolkit.

Provides reduced Groebner bases (with an optional degree-truncation mode
used for local colengths), bases of a + (F)(H) from packed products and
their equality with a known larger ideal (a run stopped once that is
decided), normal forms, ideal sum/product/power, intersection, colon and
saturation (by monomials from degrevlex bases of the homogenization,
otherwise by elimination), membership/equality, the local colength (the
global zero-dimensional count, else the weight-0 local standard basis
certified by one truncated colength), and the saturation-quotient length.

Truncation mode: for a degree-compatible order and cutoff T, the engine
computes a basis of J + m^T where m is the irrelevant maximal ideal.  All
terms of degree >= T are dropped eagerly (reduction by the implicit
monomial block), and for every basis element g with an inhomogeneous low
tail the boundary S-polynomials u*g (deg(u * LT(g)) = T) are processed;
the remaining pairs against the monomial block reduce to zero by the
standard chain/coprime criteria.
"""

from __future__ import annotations

import heapq
import math
import struct
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Iterable, Sequence

from .errors import (
    MixedRings,
    NotLocallyFinite,
    PackedRangeExceeded,
    ResourceLimit,
    ZeroDivisor,
)
from .exactalg import ExactMatrix, FieldConfig, field_ops, rank
from .polyring import (
    DEGREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    RingSpec,
    elimination_order,
    lazard_order,
    mono_divides,
    mono_mul,
    monomials_below_degree,
    monomials_of_degree,
    parse_poly,
)

PAIR_BUDGET = 200_000

# verify mode: every hook checks its value against an independent path
# (AssertionError on a difference).  In it, each truncated colength over at
# most _ORACLE_LIMIT monomials is checked against the rank oracle.
VERIFY = False
_ORACLE_LIMIT = 400

_GB_MEMO: dict = {}  # stores nothing: the benchmark's pass runner still reads this name


# ---------------------------------------------------------------------------
# packed monomials
#
# Inside the engine a monomial is one int.  Variable i owns the 16-bit field
# at bit 16*i, the top bit of each field is a guard bit kept clear, and the
# total degree sits above all fields.  Every monomial the engine makes has
# degree below _DEG_LIMIT (checked wherever a degree can grow; ResourceLimit
# otherwise), so no exponent reaches its guard bit and, with G the guard bits
# and LOW the 15 exponent bits of every field:
#   - the product is a + b and the exact quotient is a - b;
#   - a | b iff ((b | G) - a) & G == G: each field borrows only from its own
#     guard bit, and keeps it iff a_i <= b_i;
#   - the lcm takes the same guard borrow as a field-by-field max;
#   - the degree is m >> shift, so deg(m) < T iff m < T << shift;
#   - the degrevlex key is m ^ LOW: the degree first, then the exponents
#     negated, the last variable most significant;
#   - the lazard key (h the last variable, 0/1 weights on the others) puts
#     0xFFFF - w between the degree and the fields, with w the field sum of
#     m & WMASK, and flips every field but h's: the degree, then the smaller
#     weighted degree, then the larger h exponent, then revlex.
#   - the elimination key of elim(b) is the head degree (the field sum of
#     the first b fields), the head fields flipped, the tail degree, then the
#     tail fields flipped: degrevlex on the head block, then on the rest.  A
#     block >= nvars has an empty tail and is degrevlex.
#   - the lex key is the fields in big-endian order, the first variable
#     most significant, with no degree.

_FIELD_BITS = 16
_DEG_LIMIT = 1 << (_FIELD_BITS - 1)


def _out_of_range(degree: int) -> PackedRangeExceeded:
    return PackedRangeExceeded(f"monomial degree {degree} leaves the packed range (< {_DEG_LIMIT})")


class _Packing:
    """Packed monomials of an nvars-variable ring under one monomial order.

    key(m) is an int that grows with the order, computed from the packed
    int for every order; heap(m) = ~key(m), so heapq pops the order-largest
    monomial first, and unheap inverts heap.  One packing per (nvars,
    order) is shared (_packing)."""

    __slots__ = ("nvars", "shift", "guard", "low", "limit", "key", "heap", "unheap", "_struct")

    def __init__(self, nvars: int, order: MonomialOrder):
        self.nvars = nvars
        self.shift = _FIELD_BITS * nvars
        self.guard = sum(1 << (_FIELD_BITS * i + _FIELD_BITS - 1) for i in range(nvars))
        self.low = self.guard - (self.guard >> (_FIELD_BITS - 1))
        self.limit = _DEG_LIMIT << self.shift  # every packed monomial lies below
        self._struct = struct.Struct(f"<{nvars}H")
        if order.kind == "degrevlex" or order.kind == "elim" and order.block >= nvars:
            self.key = self.low.__xor__
            self.heap = self.unheap = (~self.low).__xor__
            return
        if order.kind == "elim":
            self._elim_keys(order.block)
            return
        if order.kind == "lazard":
            self._lazard_keys(order.weights)
            return
        self._lex_keys()

    def _lex_keys(self) -> None:
        # swapping the two bytes of every field, then reading the
        # little-endian bytes as big-endian, puts the fields in big-endian
        # order with variable 0 most significant (the degree is masked off)
        shift, nbytes = self.shift, 2 * self.nvars
        low_bytes = sum(0xFF << (_FIELD_BITS * i) for i in range(self.nvars))

        def key(m):
            swapped = (m & low_bytes) << 8 | (m >> 8) & low_bytes
            return int.from_bytes(swapped.to_bytes(nbytes, "little"), "big")

        def heap(m):
            return ~key(m)

        def unheap(k):
            swapped = int.from_bytes((~k).to_bytes(nbytes, "big"), "little")
            m = (swapped & low_bytes) << 8 | (swapped >> 8) & low_bytes
            # x % 0xFFFF sums the 16-bit fields of x; deg(m) < 0xFFFF, lcms
            # of pairs included, so no range check (pack would refuse them)
            return (m % 0xFFFF) << shift | m

        self.key, self.heap, self.unheap = key, heap, unheap

    def _elim_keys(self, block: int) -> None:
        shift, head_bits = self.shift, _FIELD_BITS * block
        tail_bits = shift - head_bits
        head_mask, tail_mask = (1 << head_bits) - 1, (1 << tail_bits) - 1
        head_flip, tail_flip = self.low & head_mask, self.low >> head_bits
        head_at = tail_bits + _FIELD_BITS  # above the tail fields and the tail degree's 16 bits

        def key(m):
            head = m & head_mask
            # x % 0xFFFF sums the 16-bit fields of x; the head degree is at
            # most deg(m) < 0xFFFF, lcms of pairs included
            head_deg = head % 0xFFFF
            return (
                (head_deg << head_bits | head ^ head_flip) << _FIELD_BITS | (m >> shift) - head_deg
            ) << tail_bits | (m >> head_bits & tail_mask) ^ tail_flip

        def heap(m):
            return ~key(m)

        def unheap(k):
            k = ~k
            head_deg = k >> head_at + head_bits
            deg = head_deg + (k >> tail_bits & 0xFFFF)
            head = (k >> head_at & head_mask) ^ head_flip
            return deg << shift | ((k & tail_mask) ^ tail_flip) << head_bits | head

        self.key, self.heap, self.unheap = key, heap, unheap

    def _lazard_keys(self, weights: tuple[int, ...]) -> None:
        shift, top = self.shift, self.shift + _FIELD_BITS
        fields = (1 << shift) - 1
        exps = 0x7FFF  # the exponent bits of one field
        flip = self.low & ~(exps << shift - _FIELD_BITS)  # every field but h's
        wmask = sum(exps << _FIELD_BITS * i for i, w in enumerate(weights) if w)

        def key(m):
            # x % 0xFFFF sums the 16-bit fields of x; w <= deg(m) < 0xFFFF,
            # lcms of pairs included
            return (m >> shift << _FIELD_BITS | 0xFFFF - (m & wmask) % 0xFFFF) << shift | (m & fields) ^ flip

        def heap(m):
            return ~key(m)

        def unheap(k):
            k = ~k
            return k >> top << shift | (k & fields) ^ flip

        self.key, self.heap, self.unheap = key, heap, unheap

    def pack(self, exps: Monomial) -> int:
        d = sum(exps)
        if d >= _DEG_LIMIT:
            raise _out_of_range(d)
        return int.from_bytes(self._struct.pack(*exps), "little") | d << self.shift

    def unpack(self, m: int) -> Monomial:
        return self._struct.unpack((m & ~(-1 << self.shift)).to_bytes(2 * self.nvars, "little"))

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        d = (a | self.guard) - b
        h = d & self.guard  # guard kept iff a_i >= b_i
        up = d & (h - (h >> (_FIELD_BITS - 1)))  # a_i - b_i there, 0 elsewhere
        # x % 0xFFFF sums the 16-bit fields of x; deg(up) <= deg(a) < 0xFFFF
        return b + up + ((up % 0xFFFF) << self.shift)

    def descending(self, pairs: Iterable) -> list:
        """Packed (m, c) pairs with distinct m, sorted strictly descending."""
        return sorted(pairs, key=lambda t: self.key(t[0]), reverse=True)

    def sorted_terms(self, terms: dict, trunc: int | None = None) -> list:
        """A polynomial's terms as packed (m, c) pairs, strictly descending;
        terms of degree >= trunc are dropped."""
        if trunc is not None:
            terms = {m: c for m, c in terms.items() if sum(m) < trunc}
        pack = self.pack
        packed = {pack(m): c for m, c in terms.items()}
        return [(m, packed[m]) for m in sorted(packed, key=self.key, reverse=True)]

    def polynomials(self, ring: RingSpec, term_lists: list) -> list[Polynomial]:
        """Packed term lists as polynomials; a monomial in several of them
        is held by one exponent tuple."""
        unpack = self.unpack
        tuples = {m: unpack(m) for m in {m for pairs in term_lists for m, _ in pairs}}
        return [
            Polynomial(ring, {tuples[m]: c for m, c in pairs}, _canonical=True) for pairs in term_lists
        ]


@lru_cache(maxsize=64)
def _packing(nvars: int, order: MonomialOrder) -> _Packing:
    """The shared packing of (nvars, order)."""
    return _Packing(nvars, order)


# ---------------------------------------------------------------------------
# raw polynomials: lists of packed (m, c) pairs, strictly descending under the
# active order.  Reduction runs on a coefficient dict with a lazy heap of
# inverted keys, so heapq pops the order-largest monomial first.

class _Elem:
    __slots__ = ("lt", "terms", "boundary_done")

    def __init__(self, terms: list):
        self.terms = terms  # monic (m, c) pairs, sorted descending
        self.lt = terms[0][0]
        self.boundary_done = False


def _find_reducer(m: int, elems: list[_Elem], guard: int):
    """The first element whose leading monomial divides m, or None."""
    mg = m | guard
    for e in elems:
        if (mg - e.lt) & guard == guard:
            return e
    return None


def _reduce_pairs(pairs: list, elems: list[_Elem], pk: _Packing, ops, trunc, full: bool) -> list:
    """Reduce unsorted (m, c) pairs against the basis; returns descending
    pairs: the full normal form, or (top mode) the irreducible-head
    remainder."""
    _add, sub, mul, neg, _inv, _one = ops
    heap_key, unheap, guard, limit = pk.heap, pk.unheap, pk.guard, pk.limit
    cap = limit if trunc is None else trunc << pk.shift
    coeffs: dict = {}
    for m, c in pairs:
        if m >= limit:
            raise _out_of_range(m >> pk.shift)
        prev = coeffs.get(m)
        if prev is None:
            coeffs[m] = c
        else:
            s = _add(prev, c)
            if s:
                coeffs[m] = s
            else:
                del coeffs[m]
    heap = list(map(heap_key, coeffs))
    heapq.heapify(heap)
    rem: list = []
    while heap:
        m = unheap(heapq.heappop(heap))
        c = coeffs.pop(m, None)
        if c is None:
            continue
        e = _find_reducer(m, elems, guard)
        if e is None:
            if not full:
                rest = sorted(coeffs, key=pk.key, reverse=True)
                return [(m, c)] + [(r, coeffs[r]) for r in rest]
            rem.append((m, c))
            continue
        u = m - e.lt
        terms = e.terms
        for i in range(1, len(terms)):
            mt, ct = terms[i]
            m2 = mt + u
            if m2 >= cap:
                if trunc is None:
                    raise _out_of_range(m2 >> pk.shift)
                continue
            prev = coeffs.get(m2)
            if prev is None:
                coeffs[m2] = neg(mul(c, ct))
                heapq.heappush(heap, heap_key(m2))
            else:
                s = sub(prev, mul(c, ct))
                if s:
                    coeffs[m2] = s
                else:
                    del coeffs[m2]
    return rem if full else []


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller pair pruning

def _gm_update(elems: list[_Elem], pairs: dict, new_idx: int, pk: _Packing) -> list:
    """Gebauer-Moeller update of the pair set (pair key -> lcm) after
    appending elems[new_idx]; returns the freshly added pair keys."""
    f_lt, guard, lcm = elems[new_idx].lt, pk.guard, pk.lcm
    for (i, j), L in list(pairs.items()):
        if (
            ((L | guard) - f_lt) & guard == guard
            and lcm(elems[i].lt, f_lt) != L
            and lcm(elems[j].lt, f_lt) != L
        ):
            del pairs[(i, j)]
    groups: dict = {}
    for i in range(new_idx):
        groups.setdefault(lcm(elems[i].lt, f_lt), []).append(i)
    added = []
    minimal: list[int] = []
    for L in sorted(groups, key=pk.key):
        Lg = L | guard
        if any((Lg - Lm) & guard == guard for Lm in minimal):
            continue
        minimal.append(L)
        if any(elems[i].lt + f_lt == L for i in groups[L]):
            continue  # coprime leading terms: S-polynomial reduces to zero
        pair = (min(groups[L]), new_idx)
        pairs[pair] = L
        added.append(pair)
    return added


def _engine(
    pk: _Packing,
    field: FieldConfig,
    raw_gens: list,
    trunc: int | None = None,
    reduce_tails: bool = True,
    cover: list[int] | None = None,
) -> list[_Elem]:
    """Run Buchberger on packed term lists (each strictly descending);
    returns the minimal interreduced elements.  When every list is one
    term, these are the minimal monomials, found with no pair set.

    cover: packed monomials.  The run stops as soon as each of them is
    divisible by a leading monomial of the partial basis, and returns the
    minimal elements of that partial basis.  The generators are reduced and
    appended first; only a run they leave undecided builds its pair set,
    by the same Gebauer-Moeller updates in insertion order."""
    if trunc is not None and trunc > _DEG_LIMIT:
        raise PackedRangeExceeded(f"truncation cutoff {trunc} leaves the packed range (<= {_DEG_LIMIT})")
    keyf, shift, guard = pk.key, pk.shift, pk.guard
    ops = field_ops(field)
    _add, _sub, mul, neg, inv, one = ops

    raw_gens = [pr for pr in raw_gens if pr]
    if all(len(pr) == 1 for pr in raw_gens):
        # a monomial ideal: every S-polynomial is zero, so its minimal
        # generators are its reduced basis (no pair set, no budget spent)
        return _minimal([_Elem([(pr[0][0], one)]) for pr in raw_gens], pk)
    raw_gens.sort(key=lambda pr: [keyf(t[0]) for t in pr])

    elems: list[_Elem] = []
    pairs: dict = {}
    heap: list = []
    counter = 0
    uncovered = cover  # cover's monomials no leading monomial divides yet (None: no cover)

    def append(pr: list) -> None:
        nonlocal uncovered
        lc = pr[0][1]
        if lc != one:
            c = inv(lc)
            pr = [(m, mul(c, v)) for (m, v) in pr]
        elems.append(_Elem(pr))
        if uncovered:
            lt = pr[0][0]
            uncovered = [t for t in uncovered if ((t | guard) - lt) & guard != guard]

    def update(new_idx: int) -> None:
        nonlocal counter
        for (i, j) in _gm_update(elems, pairs, new_idx, pk):
            L = pairs[(i, j)]
            counter += 1
            heapq.heappush(heap, (L >> shift, keyf(L), i, j, counter))

    def insert(pr: list) -> None:
        append(pr)
        update(len(elems) - 1)

    for pr in raw_gens:
        if uncovered == []:
            break
        pr = _reduce_pairs(pr, elems, pk, ops, trunc, full=False) if elems else pr
        if pr:
            append(pr)
    if uncovered != []:
        for idx in range(len(elems)):
            update(idx)

    processed = 0

    def spend(n: int = 1) -> None:
        nonlocal processed
        processed += n
        if processed > PAIR_BUDGET:
            raise ResourceLimit(f"pair budget {PAIR_BUDGET} exhausted")

    while uncovered != []:
        while heap and uncovered != []:
            _, _, i, j, _ = heapq.heappop(heap)
            if (i, j) not in pairs:
                continue
            L = pairs.pop((i, j))
            spend()
            ei, ej = elems[i], elems[j]
            ui = L - ei.lt
            uj = L - ej.lt
            s = [(m + ui, c) for (m, c) in ei.terms]
            s += [(m + uj, neg(c)) for (m, c) in ej.terms]
            r = _reduce_pairs(s, elems, pk, ops, trunc, full=False)
            if r:
                insert(r)
        if trunc is None:
            break
        todo = [e for e in elems if not e.boundary_done]
        if not todo:
            break
        for e in todo:
            e.boundary_done = True
            eg = e.lt | guard
            if any(o is not e and (eg - o.lt) & guard == guard for o in elems):
                continue  # covered by the dominating element's boundary
            deg = e.lt >> shift
            below = deg << shift
            lowtail = [t for t in e.terms[1:] if t[0] < below]
            if not lowtail:
                continue
            for u in monomials_of_degree(pk.nvars, trunc - deg):
                spend()
                u = pk.pack(u)
                cand = [(m + u, c) for (m, c) in lowtail]
                r = _reduce_pairs(cand, elems, pk, ops, trunc, full=False)
                if r:
                    insert(r)
        if not heap and all(e.boundary_done for e in elems):
            break

    minimal = _minimal(elems, pk)
    if reduce_tails:
        for idx, e in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1 :]
            if not others:
                continue
            tail = _reduce_pairs(e.terms[1:], others, pk, ops, trunc, full=True)
            minimal[idx] = _Elem([e.terms[0]] + tail)
            minimal[idx].boundary_done = e.boundary_done
    return minimal


def _minimal(elems: list[_Elem], pk: _Packing) -> list[_Elem]:
    """The elements whose leading monomial no other one divides (the first
    of equal ones), ascending by key: a divisor never has a larger key."""
    guard = pk.guard
    minimal: list[_Elem] = []
    for e in sorted(elems, key=lambda e: pk.key(e.lt)):
        eg = e.lt | guard
        if not any((eg - o.lt) & guard == guard for o in minimal):
            minimal.append(e)
    return minimal


# ---------------------------------------------------------------------------
# public basis / ideal objects

@dataclass
class GroebnerBasis:
    """Reduced Groebner basis; with trunc_degree set, a basis of J + m^T.
    The terms of each element run descending in the order."""

    ring: RingSpec
    order: MonomialOrder
    elements: list[Polynomial]
    trunc_degree: int | None = None

    def __post_init__(self):
        self._raw = None
        self._lts = [next(iter(f.terms)) for f in self.elements]

    @property
    def leading_monomials(self) -> list[Monomial]:
        return list(self._lts)

    def _raw_elems(self, pk: _Packing) -> list[_Elem]:
        """The elements as packed reducers (built once; pk packs this
        basis's ring under its order)."""
        if self._raw is None:
            self._raw = [_Elem(pk.sorted_terms(f.terms)) for f in self.elements]
        return self._raw

    def contains_one(self) -> bool:
        zero = (0,) * self.ring.nvars
        return any(lt == zero for lt in self.leading_monomials)


def _staircase(
    lts: list[Monomial], nvars: int, bound: float, weights: tuple[int, ...] | None = None, starts=None
) -> tuple[_Packing, list[int]]:
    """The monomials of degree < bound divisible by no lt, breadth first
    from 1 (or from starts, monomials no lt divides); with 0/1 weights, of
    weighted degree < bound; a bound <= 0 walks nothing.  Packed, with the
    (weighted) degree in the degree field, which the guard-bit divisor test
    does not read.

    The walk tests m + e_i only for standard m.  No lt divides m, so an lt
    dividing m + e_i exceeds m in variable i alone: its i-th exponent is
    m_i + 1.  So only the lts with that i-th field are tested.  A weighted
    walk is finite iff every variable of weight 0 has a pure power among
    the lts; NotLocallyFinite is raised before walking otherwise.  A finite
    bound past the packed range raises PackedRangeExceeded."""
    pk = _packing(nvars, DEGREVLEX)
    if bound <= 0 or any(sum(lt) == 0 for lt in lts):
        return pk, []
    if weights is None:
        weights = (1,) * nvars
    elif not all(w or any(lt[i] == sum(lt) for lt in lts) for i, w in enumerate(weights)):
        raise NotLocallyFinite("a variable of weight 0 has no pure power among the leading monomials")
    if math.inf > bound > _DEG_LIMIT:
        raise _out_of_range(bound - 1)
    shift, guard = pk.shift, pk.guard
    fields = (1 << shift) - 1
    masks = [0x7FFF << _FIELD_BITS * i for i in range(nvars)]
    moves = [(1 << _FIELD_BITS * i | w << shift, masks[i]) for i, w in enumerate(weights)]
    free = [move for move, w in zip(moves, weights) if not w]  # weight-0 steps keep w
    buckets: dict = {}
    for lt in lts:
        p = pk.pack(lt)
        for mask in masks:
            if p & mask:
                buckets.setdefault(p & mask, []).append(p)
    if starts is None:
        queue = [0]
    else:
        queue = [pk.pack(m) & fields | sum(e for e, w in zip(m, weights) if w) << shift for m in starts]
    limit = (bound - 1) << shift if bound < math.inf else math.inf
    seen = set(queue)
    for m in queue:
        for step, mask in moves if m < limit else free:
            m2 = m + step
            if m2 in seen:
                continue
            seen.add(m2)
            mg = m2 | guard
            for lt in buckets.get(m2 & mask, ()):
                if (mg - lt) & guard == guard:
                    break  # lt divides m2
            else:
                queue.append(m2)
    return pk, queue


def _staircase_counts(
    lts: list[Monomial], nvars: int, bound: float, weights: tuple[int, ...] | None = None, starts=None
) -> Counter:
    """(Weighted) degree -> number of the monomials _staircase walks."""
    pk, walk = _staircase(lts, nvars, bound, weights, starts)
    return Counter(m >> pk.shift for m in walk)


def _standard_monomials(
    lts: list[Monomial], nvars: int, bound: float, weights: tuple[int, ...] | None = None, starts=None
) -> list[Monomial]:
    """The monomials _staircase walks, as exponent tuples in walk order."""
    pk, walk = _staircase(lts, nvars, bound, weights, starts)
    return [pk.unpack(m) for m in walk]


class IdealHandle:
    """Generator list plus what is computed from it, kept for the life of
    the handle in _cache: reduced Groebner bases per (order, truncation),
    each holding the engine's packed elements; the colon and saturation
    parts per monomial u of a divisor c·u, or per non-monomial divisor
    (_part), a part equal to I sharing this _cache; the colons and
    saturations per divisor generators (_by_generators); and per 0/1
    weights the leading monomials of the local standard basis
    (local_standard_basis)."""

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

    @classmethod
    def of_basis(cls, gb: GroebnerBasis) -> IdealHandle:
        """The ideal generated by a reduced basis, which it keeps cached."""
        J = cls(gb.ring, gb.elements)
        J._cache[(gb.order, gb.trunc_degree)] = gb
        return J

    def groebner(self, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
        key = (order, None)
        gb = self._cache.get(key)
        if gb is None:
            gb = _compute_basis(self.ring, order, self.generators, None, True)
            self._cache[key] = gb
        return gb

    def truncated_groebner(self, trunc: int) -> GroebnerBasis:
        key = (DEGREVLEX, trunc)
        gb = self._cache.get(key)
        if gb is None:
            gb = _compute_basis(self.ring, DEGREVLEX, self.generators, trunc, False)
            self._cache[key] = gb
        return gb


def _basis(ring, order, pk: _Packing, minimal: list[_Elem], trunc) -> GroebnerBasis:
    """The engine's minimal elements as a basis, which keeps them as its
    packed reducers."""
    gb = GroebnerBasis(ring, order, pk.polynomials(ring, [e.terms for e in minimal]), trunc)
    gb._raw = minimal
    return gb


def _compute_basis(ring, order, gens, trunc, reduce_tails) -> GroebnerBasis:
    pk = _packing(ring.nvars, order)
    raw = [pk.sorted_terms(f.terms, trunc) for f in gens]
    minimal = _engine(pk, ring.field, raw, trunc, reduce_tails)
    return _basis(ring, order, pk, minimal, trunc)


# ---------------------------------------------------------------------------
# bases of a + (F)·(H) from packed products

def _product_gens(pk: _Packing, a: IdealHandle, F: GroebnerBasis, H: Sequence[Polynomial]) -> list:
    """Packed term lists, each strictly descending, of a's generators and
    of the products f·h, with f the packed elements F holds.  Under
    degrevlex lt(f·h) = lt(f)·lt(h) has the largest degree, so that degree
    alone is checked against the packed range."""
    add, _sub, mul, *_ = field_ops(a.ring.field)
    limit, key = pk.limit, pk.key
    out = [pk.sorted_terms(g.terms) for g in a.generators]
    Hs = [pk.sorted_terms(h.terms) for h in H if h]
    for f in (e.terms for e in F._raw_elems(pk)):
        for h in Hs:
            lead = f[0][0] + h[0][0]
            if lead >= limit:
                raise _out_of_range(lead >> pk.shift)
            acc: dict = {}
            for m1, c1 in f:
                for m2, c2 in h:
                    m, c = m1 + m2, mul(c1, c2)
                    prev = acc.get(m)
                    acc[m] = c if prev is None else add(prev, c)
            out.append([(m, acc[m]) for m in sorted(acc, key=key, reverse=True) if acc[m]])
    return out


def _autoreduced_product_basis(a: IdealHandle, F: GroebnerBasis, H: Sequence[Polynomial]) -> GroebnerBasis:
    """The basis of a + (F)·(H) from autoreduced Polynomial products: the
    reference the product entries are checked against in verify mode."""
    return ideal_sum(a, IdealHandle(a.ring, autoreduced_product(F.elements, IdealHandle(a.ring, H)))).groebner()


def product_basis(a: IdealHandle, F: GroebnerBasis, H: Sequence[Polynomial]) -> GroebnerBasis:
    """The reduced degrevlex basis of a + (F)·(H).

    F is a reduced degrevlex basis, whose packed elements are multiplied as
    it holds them.  The products are formed on packed monomials and go to
    the engine as they are: no Polynomial is made and nothing is
    autoreduced before the run.  The basis keeps the engine's packed
    elements, so it can be the next call's F.

    In verify mode, the basis is checked against _autoreduced_product_basis
    (AssertionError on a difference)."""
    ring = a.ring
    pk = _packing(ring.nvars, DEGREVLEX)
    minimal = _engine(pk, ring.field, _product_gens(pk, a, F, H))
    gb = _basis(ring, DEGREVLEX, pk, minimal, None)
    if VERIFY and gb.elements != _autoreduced_product_basis(a, F, H).elements:
        raise AssertionError("the product basis disagrees with the basis of the autoreduced products")
    return gb


def product_equals(a: IdealHandle, F: GroebnerBasis, H: Sequence[Polynomial], K: GroebnerBasis) -> bool:
    """Whether a + (F)·(H) = K, for F and K reduced degrevlex bases and K
    known to contain a + (F)·(H).

    Buchberger on the packed products (as in product_basis) stops as soon
    as the partial leading monomials cover L(K): J ⊆ K and L(J) ⊇ L(K) give
    J = K.  A run that ends without covering L(K) has found L(J), so J ≠ K.

    In verify mode, the verdict is checked against reducing K's elements
    modulo _autoreduced_product_basis (AssertionError on a difference)."""
    pk = _packing(a.ring.nvars, DEGREVLEX)
    lts = [e.lt for e in K._raw_elems(pk)]
    minimal = _engine(pk, a.ring.field, _product_gens(pk, a, F, H), reduce_tails=False, cover=lts)
    equal = all(any(pk.divides(e.lt, t) for e in minimal) for t in lts)
    if VERIFY:
        full = _autoreduced_product_basis(a, F, H)
        if equal != all(normal_form(g, full).is_zero() for g in K.elements):
            raise AssertionError("the product equality disagrees with the basis of the autoreduced products")
    return equal


# ---------------------------------------------------------------------------
# local standard bases by Lazard's homogenization

def local_standard_basis(J: IdealHandle, weights: tuple[int, ...]) -> list[Monomial]:
    """The leading monomials of a standard basis of J in the local ring at
    the origin, for the local order "smaller weighted degree first (0/1
    weights), then smaller degree, then revlex", kept on J per weights.

    Lazard's homogenization (Greuel & Pfister, A Singular Introduction to
    Commutative Algebra, 1.7): a Groebner basis under lazard_order of the
    homogenized generators of J (_homogenized, h last) has homogeneous
    elements, and setting h = 1 in them gives a standard basis with their
    leading monomials, h dropped.  So one engine run on packed terms, with
    no tail reduction, gives them.  Raises ResourceLimit when the run
    exceeds the pair budget or the packed range; a refusal is not kept."""
    key = ("local", weights)
    if key not in J._cache:
        n = J.ring.nvars
        pack, pk_h = _packing(n, DEGREVLEX).pack, _packing(n + 1, lazard_order(weights))
        gens = [pk_h.descending(_homogenized(pk_h, [(pack(m), c) for m, c in f.terms.items()]))
                for f in J.generators]
        J._cache[key] = [pk_h.unpack(e.lt)[:-1] for e in _engine(pk_h, J.ring.field, gens, reduce_tails=False)]
    return J._cache[key]


def _homogenized(pk_h: _Packing, terms: list) -> list:
    """The homogenization of f in R[h], from f's packed (m, c) pairs in R,
    as unsorted pairs packed by pk_h with h last: a term m gets
    h^(deg f - deg m)."""
    at_h = pk_h.shift - _FIELD_BITS  # h's field in R[h], the degree in R
    fields = (1 << at_h) - 1  # R's variables' fields
    d = max(m for m, _ in terms) >> at_h  # deg f
    return [(m & fields | d - (m >> at_h) << at_h | d << pk_h.shift, c) for m, c in terms]


# ---------------------------------------------------------------------------
# normal form, membership, equality

def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Complete multivariate division remainder; idempotent and k-linear."""
    if f.ring != gb.ring:
        raise MixedRings("polynomial from a different ring")
    pk = _packing(f.ring.nvars, gb.order)
    trunc = gb.trunc_degree
    pr = pk.sorted_terms(f.terms, trunc)
    rem = _reduce_pairs(pr, gb._raw_elems(pk), pk, field_ops(f.ring.field), trunc, full=True)
    return pk.polynomials(f.ring, [rem])[0]


def member(f: Polynomial, I: IdealHandle) -> bool:
    return normal_form(f, I.groebner()).is_zero()


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
    """Equality through uniqueness of the reduced degrevlex basis."""
    if I.ring != J.ring:
        raise MixedRings("ideals from different rings")
    return I.groebner().elements == J.groebner().elements


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
    pk = _packing(ring.nvars, order)
    keyf = pk.key
    ops = field_ops(ring.field)
    _add, _sub, mul, _neg, inv, one = ops
    raws = [pk.sorted_terms(g.terms) for g in gens if g]
    raws.sort(key=lambda pr: [keyf(t[0]) for t in pr])
    kept: list[_Elem] = []
    for pr in raws:
        rem = _reduce_pairs(pr, kept, pk, ops, None, full=True) if kept else pr
        if rem:
            lc = rem[0][1]
            if lc != one:  # reducers must be monic
                c = inv(lc)
                rem = [(m, mul(c, v)) for (m, v) in rem]
            kept.append(_Elem(rem))
    return pk.polynomials(ring, [e.terms for e in kept])


def _aux_ring(ring: RingSpec) -> RingSpec:
    """R[t], with the auxiliary variable t first."""
    name = "t_aux"
    while name in ring.variables:
        name += "_"
    return RingSpec((name,) + ring.variables, ring.field)


def _lift(f: Polynomial, ring2: RingSpec) -> Polynomial:
    return Polynomial(ring2, {(0,) + m: c for m, c in f.terms.items()}, _canonical=True)


def _eliminate(ring: RingSpec, ring2: RingSpec, gens2: list[Polynomial]) -> IdealHandle:
    """(gens2) ∩ R for gens2 in ring2 = R[t], keeping its reduced degrevlex
    basis: the t-free elements of the elimination_order(1) basis, in the
    order a degrevlex run returns (verify mode checks them against one)."""
    gb = IdealHandle(ring2, gens2).groebner(elimination_order(1))
    out = [Polynomial(ring, {m[1:]: c for m, c in f.terms.items()}, _canonical=True)
           for f in gb.elements if all(m[0] == 0 for m in f.terms)]
    if VERIFY and out != _compute_basis(ring, DEGREVLEX, out, None, True).elements:
        raise AssertionError("the elimination's t-free elements are not the reduced degrevlex basis")
    return IdealHandle.of_basis(GroebnerBasis(ring, DEGREVLEX, out))


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I ∩ J by eliminating t from t*I + (1-t)*J in R[t]."""
    if I.ring != J.ring:
        raise MixedRings("ideals from different rings")
    ring = I.ring
    if not I.generators or not J.generators:
        return IdealHandle(ring, [])
    ring2 = _aux_ring(ring)
    t = ring2.variable(0)
    one_minus_t = ring2.one() - t
    gens2 = [t * _lift(g, ring2) for g in I.generators]
    gens2 += [one_minus_t * _lift(g, ring2) for g in J.generators]
    return _eliminate(ring, ring2, gens2)


def poly_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g for f in (g); raises if the division leaves a remainder."""
    ring = f.ring
    pk = _packing(ring.nvars, DEGREVLEX)
    _add, sub, mul, neg, inv, _one = field_ops(ring.field)
    graw = pk.sorted_terms(g.terms)
    glt, glc = graw[0]
    glc_inv = inv(glc)
    work = dict(pk.sorted_terms(f.terms))
    heap = list(map(pk.heap, work))
    heapq.heapify(heap)
    quot: list = []
    while heap:  # under degrevlex deg(m2) <= deg(m): no range check needed
        m = pk.unheap(heapq.heappop(heap))
        c = work.pop(m, None)
        if c is None:
            continue
        if not pk.divides(glt, m):
            raise ValueError("not an exact multiple")
        u = m - glt
        q = mul(c, glc_inv)
        quot.append((u, q))
        for mt, ct in graw[1:]:
            m2 = mt + u
            prev = work.get(m2)
            if prev is None:
                work[m2] = neg(mul(q, ct))
                heapq.heappush(heap, pk.heap(m2))
            else:
                s = sub(prev, mul(q, ct))
                if s:
                    work[m2] = s
                else:
                    del work[m2]
    return pk.polynomials(ring, [quot])[0]


def colon(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """(I : f), by _part: for f = c·u with u a monomial (a constant
    included), the ideal generated by the reduced degrevlex basis of I : u,
    with no elimination; otherwise the generators of I ∩ (f) divided
    exactly by f."""
    if f.is_zero():
        raise ZeroDivisor("colon by zero")
    return _part(I, f, saturate=False)


def _part(I: IdealHandle, f: Polynomial, saturate: bool) -> IdealHandle:
    """I : f, or with saturate I : f^inf, kept on I: for f = c·u with u a
    monomial, per u, by _by_monomial and generated by its reduced degrevlex
    basis: (1) when a divided element is a constant, I's own basis when
    u's variables are regular mod I (no run at h = 1), the part then
    sharing all that I keeps, as the two are the same ideal; otherwise per
    f, by _colon_by_intersection or by
    _saturation_by_elimination.

    In verify mode, a monomial part, either verdict included, is checked
    against the other way (AssertionError on a difference)."""
    what = "saturation" if saturate else "colon"
    monomial = len(f.terms) == 1
    key = (what, next(iter(f.terms)) if monomial else f)
    if key in I._cache:
        return I._cache[key]
    other = _saturation_by_elimination if saturate else _colon_by_intersection
    if not monomial:
        part = other(I, f)
    else:
        gb = _by_monomial(I, key[1], saturate)
        part = IdealHandle.of_basis(gb)
        if gb is I.groebner():  # I : x^u = I
            part._cache = I._cache
        if VERIFY and list(part.generators) != list(other(I, f).groebner().elements):
            raise AssertionError(f"the {what} by a monomial disagrees with {other.__name__}")
    I._cache[key] = part
    return part


def _colon_by_intersection(I: IdealHandle, f: Polynomial) -> IdealHandle:
    K = intersect(I, IdealHandle(I.ring, [f]))
    return IdealHandle(I.ring, [poly_exact_div(g, f) for g in K.generators])


def _by_monomial(I: IdealHandle, u: Monomial, saturate: bool) -> GroebnerBasis:
    """The reduced degrevlex basis of I : x^u, or with saturate of
    I : (x^u)^inf, from degrevlex bases alone (Bayer & Stillman, A criterion
    for detecting m-regularity, Invent. Math. 87, 1987; Eisenbud,
    Commutative Algebra, 15.12).  For u = 1 it is I's own basis.

    The homogenized reduced degrevlex basis of I generates I^h, and
    (I : x_i)^h = I^h : x_i.  Under degrevlex with x_i the last variable, a
    homogeneous polynomial is divisible by x_i exactly as often as its
    leading monomial, so a basis of I^h with each element divided by x_i
    (by its largest power of x_i, to saturate) is a basis of I^h : x_i
    (of I^h : x_i^inf).  The variables of u are taken in turn, x_i^e
    dividing at most e times, and h = 1 ends it.

    Two verdicts are read off the basis with x_i last, L(I^h : x_i) being
    L(I^h) : x_i.  When no leading monomial is divisible by x_i, x_i is
    regular mod I and I : x_i^e = I: while the ideal is still I such a
    variable divides nothing, and when every variable of u is regular the
    result is I's own basis, with no run at h = 1.  When a divided element
    is a constant (the basis held x_i^k, k <= e, or k at all to saturate),
    the result is the unit ideal, again with no run at h = 1.

    All of it runs on the engine's packed term lists: I's basis is read as
    its packed elements and homogenized into R[h]'s packing (h last;
    _homogenized), x_i and h trade fields before each run and back after
    it, x_i^k is divided out by subtracting a packed monomial, and h = 1
    masks off h's field.  The order stays degrevlex, so only the term lists
    are re-sorted.  No basis of I^h is kept: each call runs the engine
    once per variable of u, and only the final basis in R becomes
    Polynomials; the part it generates is kept on I (_part)."""
    gb = I.groebner()
    ring, n = I.ring, I.ring.nvars
    pk, pk_h = _packing(n, DEGREVLEX), _packing(n + 1, DEGREVLEX)
    at_h = _FIELD_BITS * n  # h's field in R[h], the degree in R
    fields = (1 << at_h) - 1  # R's variables' fields
    exps = 0x7FFF  # the exponent bits of one field

    def swap(m: int, i: int) -> int:  # trade the fields of x_i and h
        x = (m >> _FIELD_BITS * i ^ m >> at_h) & exps
        return m ^ (x << _FIELD_BITS * i | x << at_h)

    gens = [_homogenized(pk_h, g.terms) for g in gb._raw_elems(pk)]  # I^h, h last
    divided = False  # whether gens generate a colon other than I^h
    for i, e in ((i, e) for i, e in enumerate(u) if e):
        elems = _engine(pk_h, ring.field, [pk_h.descending((swap(m, i), c) for m, c in f) for f in gens])
        gens = []
        for el in elems:
            k = el.lt >> at_h & exps  # x_i's exponent in lt, the least in el
            if not saturate:
                k = min(k, e)
            divided = divided or k > 0
            q = k << at_h | k << pk_h.shift
            gens.append([(swap(m - q, i), c) for m, c in el.terms])
    if not divided:  # every variable of u is regular mod I
        return gb
    if any(f[0][0] == 0 for f in gens):  # a constant: I : x^u = (1)
        return _basis(ring, DEGREVLEX, pk, [_Elem([(0, ring.field.one)])], None)
    # h = 1: f is homogeneous, so no two of its terms merge
    minimal = _engine(pk, ring.field, [
        pk.descending((m & fields | (m >> pk_h.shift) - (m >> at_h & exps) << at_h, c) for m, c in f) for f in gens
    ])
    return _basis(ring, DEGREVLEX, pk, minimal, None)


def _by_generators(I: IdealHandle, J: IdealHandle, what: str, part) -> IdealHandle:
    """∩_g part(g) over the autoreduced generators g of J, intersected in
    turn and kept on I per generators of J; raises ZeroDivisor when J is
    zero.  A part holding a constant is the unit ideal and joins no
    intersection; when every part is, the result is that part, (1).

    In verify mode, a result that left a part out is checked against the
    intersection of all parts (AssertionError on a difference)."""
    if I.ring != J.ring:
        raise MixedRings("ideals from different rings")
    if (what, J.generators) not in I._cache:
        gens = autoreduce(I.ring, list(J.generators))
        if not gens:
            raise ZeroDivisor(f"{what} by the zero ideal")
        parts = [part(g) for g in gens]
        proper = [p for p in parts if not any(g.degree() == 0 for g in p.generators)]
        out = reduce(intersect, proper or parts[:1])
        if VERIFY and len(proper) < len(parts) and not ideal_equal(out, reduce(intersect, parts)):
            raise AssertionError(f"the {what} without its unit parts disagrees with the intersection of all")
        I._cache[what, J.generators] = out
    return I._cache[what, J.generators]


def colon_ideal(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """(I : J) as the intersection of the colons by J's generators."""
    return _by_generators(I, J, "colon", partial(colon, I))


def saturate(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """(I : J^inf) = ∩_g (I : g^inf) over the autoreduced generators g of J,
    each part by _part, the unit parts left out (_by_generators): a
    monomial g's part is (1) when I's basis with g's variable last holds a
    power of it (_by_monomial).  Returns the saturation generated by its
    reduced degrevlex basis.  The pair budget bounds each basis (ResourceLimit);
    raises ZeroDivisor when J is zero."""
    return _by_generators(I, J, "saturation", partial(_part, I, saturate=True))


def _saturation_by_elimination(I: IdealHandle, g: Polynomial) -> IdealHandle:
    """(I + (1 - t*g)) ∩ R (Rabinowitsch; Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, Ch. 4 §4): one elimination basis in R[t]."""
    ring = I.ring
    ring2 = _aux_ring(ring)
    t = ring2.variable(0)
    lifted = [_lift(f, ring2) for f in I.generators]
    return _eliminate(ring, ring2, lifted + [ring2.one() - t * _lift(g, ring2)])


# ---------------------------------------------------------------------------
# local colength: the global zero-dimensional count, else the weight-0 local
# standard basis certified by one truncated colength

@dataclass
class ColengthInfo:
    value: int
    window: int | None  # the cutoff t + 1 whose truncated colength certified
    # a local-path value; None when the global zero-dimensional path applied


def colength_at_cutoff(J: IdealHandle, cutoff: int) -> int:
    """dim_k R/(J + m^cutoff) as the number of standard monomials of the
    truncated degrevlex basis; in verify mode checked against the rank
    oracle when at most _ORACLE_LIMIT monomials lie below the cutoff."""
    gb = J.truncated_groebner(cutoff)
    if gb.contains_one():
        return 0
    nv = J.ring.nvars
    n = _staircase_counts(gb.leading_monomials, nv, cutoff).total()
    if VERIFY and math.comb(cutoff + nv - 1, nv) <= _ORACLE_LIMIT:
        got = truncation_colength_oracle(J, cutoff)
        if got != n:
            raise AssertionError(f"oracle disagrees with truncated basis at cutoff {cutoff}: {got} != {n}")
    return n


def _global_zero_dim_colength(J: IdealHandle) -> int | None:
    """Colength at the origin through the untruncated basis: applies when
    the staircase is finite and every variable is nilpotent mod J (support
    is the origin alone, so the global and local colengths agree).  Returns
    None when the path does not apply.  A variable whose power is a basis
    element is walked by no normal form.

    A refused basis raises; after PackedRangeExceeded callers try the local
    path, which drops the terms past its cap and may still certify J."""
    gb = J.groebner()
    if gb.contains_one():
        return 0
    nv = J.ring.nvars
    lts = gb.leading_monomials
    if not all(any(sum(lt) == lt[i] for lt in lts) for i in range(nv)):
        return None  # an infinite staircase
    count = _staircase_counts(lts, nv, math.inf).total()
    powers = [lt for lt, g in zip(lts, gb.elements) if len(g.terms) == 1]
    for i in range(nv):
        if any(sum(m) == m[i] for m in powers):
            continue  # a power of x_i is in J
        xi = J.ring.variable(i)
        vec = normal_form(xi, gb)
        steps = 1
        while vec and steps <= count + 1:
            vec = normal_form(xi * vec, gb)
            steps += 1
        if vec:
            return None  # a variable is not nilpotent: support off the origin
    return count


def local_colength_info(J: IdealHandle, cap: int = 64) -> ColengthInfo:
    """The colength of J at the origin with its certificate: by the global
    zero-dimensional path, else by _local_colength_info under the cutoff
    cap.  When the global path refused J for the packed range and the local
    path gives up too, that PackedRangeExceeded is raised.  In verify mode
    a global-path value is checked against _colength_reference
    (AssertionError on a difference)."""
    try:
        fast = _global_zero_dim_colength(J)
    except PackedRangeExceeded as refusal:
        try:
            return _local_colength_info(J, cap)
        except NotLocallyFinite:
            raise refusal from None
    if fast is None:
        return _local_colength_info(J, cap)
    if VERIFY and (reference := _colength_reference(J, fast)) != fast:
        raise AssertionError(f"colength {fast} disagrees with its reference {reference}")
    return ColengthInfo(fast, None)


def _local_colength_info(J: IdealHandle, cap: int) -> ColengthInfo:
    """The number of standard monomials of the weight-0 local standard
    basis (the local degree order) of J with its terms of degree >= cap
    dropped, which leaves J + m^cap unchanged.

    With t the top degree of that staircase, m^{t+1} lies in the trimmed
    ideal locally, so D(N) = dim_k R/(J + m^N) is the count for
    t + 1 <= N <= cap.  The value stands when t + 2 <= cap: then
    D(t + 1) = D(t + 2) gives m^{t+1} ⊆ J R_m (Nakayama), and the value is
    the colength of J.  It must also equal colength_at_cutoff(J, t + 1),
    a second engine's count (AssertionError otherwise); the window is
    t + 1.  An infinite staircase, or one past the cap, raises
    NotLocallyFinite."""
    nv = J.ring.nvars
    trimmed = IdealHandle(J.ring, [
        Polynomial(J.ring, {m: c for m, c in g.terms.items() if sum(m) < cap}, _canonical=True)
        for g in J.generators
    ])
    try:
        staircase = _standard_monomials(local_standard_basis(trimmed, (0,) * nv), nv, 1, (0,) * nv)
    except NotLocallyFinite:
        raise NotLocallyFinite(
            f"the local staircase below cutoff cap {cap} is infinite: a positive-dimensional component"
            " passes through the origin, or the cap is too small"
        ) from None
    t = max(map(sum, staircase), default=0)
    if t + 2 > cap:
        raise NotLocallyFinite(f"the local staircase reaches degree {t}: cutoff cap {cap} is too small")
    value = len(staircase)
    truncated = colength_at_cutoff(J, t + 1)
    if truncated != value:
        raise AssertionError(f"colength {value} disagrees with its truncated colength {truncated} at cutoff {t + 1}")
    return ColengthInfo(value, t + 1)


def _colength_reference(J: IdealHandle, value: int) -> int:
    """Verify mode's reference for a global-path value: the number of
    standard monomials of the weight-0 local standard basis of J (an
    infinite staircase is an AssertionError).  Where that basis cannot be
    built (the pair budget, the packed range), D(value) (D(1) for 0): a
    local Artinian ring of length v has m^v ⊆ J, so D(v) = v."""
    nv = J.ring.nvars
    try:
        lts = local_standard_basis(J, (0,) * nv)
    except ResourceLimit:
        return colength_at_cutoff(J, max(value, 1))
    try:
        return _staircase_counts(lts, nv, 1, (0,) * nv).total()
    except NotLocallyFinite as exc:
        raise AssertionError("the weight-0 local standard basis finds the colength infinite") from exc


def local_colength(J: IdealHandle, cap: int = 64) -> int:
    """The colength of J in the local ring at the origin (local_colength_info)."""
    return local_colength_info(J, cap).value


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


def sat_quotient_length(J: IdealHandle) -> int:
    """Length of (J : m^inf)/J (the zeroth local cohomology of R/J at the
    origin).  J ⊆ sat = J : m^inf and sat/J is killed by a power of m, so
    its length is its dimension, the number of monomials in L(sat) but not
    in L(J) under degrevlex.  They are counted by one walk up from the
    generators of L(sat) outside L(J), through monomials outside L(J).

    In verify mode, the count is checked against the same count over the
    weight-0 local standard bases (AssertionError on a difference)."""
    sat = saturate(J, maximal_ideal(J.ring))
    if ideal_equal(sat, J):
        return 0
    inner = J.groebner().leading_monomials
    starts = [g for g in sat.groebner().leading_monomials if not any(mono_divides(lt, g) for lt in inner)]
    count = _staircase_counts(inner, J.ring.nvars, math.inf, starts=starts).total()
    if VERIFY and (local := _local_sat_quotient_length(J, sat)) != count:
        raise AssertionError(f"saturation quotient length {count} disagrees with the local bases' {local}")
    return count


def _local_sat_quotient_length(J: IdealHandle, sat: IdealHandle) -> int:
    """#(L0(sat) \\ L0(J)) for the leading ideals L0 of the weight-0 local
    standard bases, walked by _standard_monomials up from the generators of
    L0(sat) outside L0(J).  sat/J is killed by a power of m, so it equals
    its localization, whose length that is."""
    nv, zero = J.ring.nvars, (0,) * J.ring.nvars
    inner = local_standard_basis(J, zero)
    starts = [g for g in local_standard_basis(sat, zero) if not any(mono_divides(lt, g) for lt in inner)]
    return len(_standard_monomials(inner, nv, math.inf, starts=starts))
