"""Multivariate polynomial arithmetic over an exact field with pluggable
monomial orders.

Monomials are exponent tuples (one entry per ring variable).  Polynomials
hold a canonical coefficient dict: no zero coefficients, no duplicate
monomials; the zero polynomial has an empty dict.  Descending term lists
under a given order are materialized on demand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MixedRings, PolySyntaxError, UnknownVariable
from .exactalg import Coeff, FieldConfig, field_ops

Monomial = tuple  # exponent tuple, one nonnegative int per variable

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# monomial helpers

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """Total monomial order refining divisibility.

    kinds: "lex", "degrevlex", "elim" (block order comparing the first
    `block` exponents by degrevlex, then the rest by degrevlex), "lazard"
    (on R[h] with h the last variable: total degree, then the smaller
    weighted degree of the other variables under the 0/1 `weights`, then
    the larger h exponent, then revlex on the other variables).
    """

    kind: str
    block: int = 0
    weights: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("lex", "degrevlex", "elim", "lazard"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "elim" and self.block < 1:
            raise ValueError("elimination block size must be >= 1")
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.kind != "lazard" and self.weights:
            raise ValueError("only the lazard order takes weights")
        if any(w not in (0, 1) for w in self.weights):
            raise ValueError("weights must be 0 or 1")

    def key(self, exps: Monomial):
        """Sort key: bigger key = bigger monomial."""
        if self.kind == "degrevlex":
            return (sum(exps), tuple(-e for e in reversed(exps)))
        if self.kind == "lex":
            return exps
        if self.kind == "lazard":
            w = sum(e for e, wi in zip(exps, self.weights) if wi)
            return (sum(exps), -w, exps[-1], tuple(-e for e in reversed(exps[:-1])))
        head, tail = exps[: self.block], exps[self.block :]
        return (
            sum(head),
            tuple(-e for e in reversed(head)),
            sum(tail),
            tuple(-e for e in reversed(tail)),
        )


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def elimination_order(block: int) -> MonomialOrder:
    return MonomialOrder("elim", block)


def lazard_order(weights) -> MonomialOrder:
    """The homogenized weighted order on R[h] for 0/1 weights on R's
    variables (h is the last variable of R[h])."""
    return MonomialOrder("lazard", weights=tuple(weights))


# ---------------------------------------------------------------------------
# rings and polynomials

@dataclass(frozen=True)
class RingSpec:
    """Polynomial ring: ordered variable names over an exact field."""

    variables: tuple[str, ...]
    field: FieldConfig

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("need at least one variable")
        seen = set()
        for name in self.variables:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable {name!r}")
            seen.add(name)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    # -- constructors ---------------------------------------------------
    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, n: int) -> Polynomial:
        c = self.field.of_int(n)
        return Polynomial(self, {(0,) * self.nvars: c} if c else {})

    def variable(self, name_or_index) -> Polynomial:
        i = name_or_index if isinstance(name_or_index, int) else self.var_index(name_or_index)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def monomial(self, exps: Iterable[int], coeff: int = 1) -> Polynomial:
        c = self.field.of_int(coeff)
        return Polynomial(self, {tuple(exps): c} if c else {})


class Polynomial:
    """Immutable multivariate polynomial in canonical form."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingSpec, terms: dict, _canonical: bool = False):
        self.ring = ring
        if _canonical:
            self.terms = terms
        else:
            self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    # -- basics ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.variables, frozenset(self.terms.items())))
        return self._hash

    def __reduce__(self):  # string hashes are per process: the cached hash is not pickled
        return Polynomial, (self.ring, self.terms, True)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX) -> list[tuple[Monomial, Coeff]]:
        """Terms strictly descending under the given order."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: Polynomial) -> None:
        if self.ring != other.ring:
            raise MixedRings("polynomials from different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        F = self.ring.field
        add, zero = field_ops(F)[0], F.zero
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = add(res.get(m, zero), c)
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res, _canonical=True)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + -other

    def __neg__(self) -> Polynomial:
        neg = field_ops(self.ring.field)[3]
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()}, _canonical=True)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        F = self.ring.field
        add, _sub, mul, *_ = field_ops(F)
        zero = F.zero
        res: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = add(res.get(m, zero), mul(c1, c2))
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Polynomial(self.ring, res, _canonical=True)

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return result

    def scale(self, c: Coeff) -> Polynomial:
        if not c:
            return self.ring.zero()
        mul = field_ops(self.ring.field)[2]
        return Polynomial(self.ring, {m: mul(c, v) for m, v in self.terms.items()}, _canonical=True)

    def substitute(self, images: dict[int, Polynomial]) -> Polynomial:
        """Evaluate with variable i replaced by images[i] (others fixed)."""
        ring = self.ring
        out = ring.zero()
        cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in cache:
                cache[key] = images[i] ** e
            return cache[key]

        for m, c in self.terms.items():
            rest = [0] * ring.nvars
            parts = []
            for i, e in enumerate(m):
                if e and i in images:
                    parts.append(power(i, e))
                else:
                    rest[i] = e
            term = ring.monomial(rest).scale(c)
            for p in parts:
                term = term * p
            out = out + term
        return out

    # -- display ---------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        *_, neg, _inv, one = field_ops(self.ring.field)
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == one:
                parts.append(body)
            elif c == neg(one):
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# parser
#
# grammar:  expr   := term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := atom ('^' integer)?
#           atom   := integer | variable | '(' expr ')' | '-' atom
# '^' binds tightest, then '*', then '+'/'-'; implicit multiplication is
# forbidden; coefficients are integer literals.

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_name(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        assert m
        self.pos = m.end()
        return m.group(0)

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_poly(ring: RingSpec, text: str) -> Polynomial:
    """Parse polynomial text into canonical form; total on the grammar."""
    toks = _Tokens(text)

    def parse_expr() -> Polynomial:
        node = parse_term()
        while True:
            c = toks.peek()
            if c == "+":
                toks.pos += 1
                node = node + parse_term()
            elif c == "-":
                toks.pos += 1
                node = node - parse_term()
            else:
                return node

    def parse_term() -> Polynomial:
        node = parse_factor()
        while toks.peek() == "*":
            toks.pos += 1
            node = node * parse_factor()
        return node

    def parse_factor() -> Polynomial:
        node = parse_atom()
        if toks.peek() == "^":
            toks.pos += 1
            if not toks.peek().isdigit():
                raise PolySyntaxError("expected nonnegative integer exponent", toks.pos)
            return node ** toks.take_int()
        return node

    def parse_atom() -> Polynomial:
        c = toks.peek()
        if c == "-":
            toks.pos += 1
            return -parse_atom()
        if c == "(":
            toks.pos += 1
            node = parse_expr()
            if toks.peek() != ")":
                raise PolySyntaxError("expected ')'", toks.pos)
            toks.pos += 1
            return node
        if c.isdigit():
            return ring.constant(toks.take_int())
        if _NAME_RE.match(c):
            name = toks.take_name()
            return ring.variable(name)  # raises UnknownVariable
        raise PolySyntaxError(f"unexpected character {c!r}" if c else "unexpected end of input", toks.pos)

    result = parse_expr()
    toks.skip_ws()
    if toks.pos != len(text):
        raise PolySyntaxError(f"trailing input {text[toks.pos:]!r}", toks.pos)
    return result


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree (lexicographic emission)."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def monomials_below_degree(nvars: int, bound: int) -> Iterator[Monomial]:
    for d in range(bound):
        yield from monomials_of_degree(nvars, d)
