"""Exact coefficient fields and sparse echelon rank.

Two fields are supported: the rationals (stdlib Fraction) and prime fields
F_p with 2 < p < 2**31 (plain ints reduced mod p).  Coefficient values are
Fractions or ints; field_ops is the one place their arithmetic is defined,
as plain functions built once per field.  Matrices are immutable; an
echelon basis grows in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Union

Coeff = Union[int, Fraction]


def is_prime(n: int) -> bool:
    """Trial division up to isqrt(n): at most 46,340 divisions below 2**31,
    the largest characteristic a FieldConfig admits."""
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class FieldConfig:
    """Exact coefficient field: the rationals or a prime field F_p."""

    kind: str  # "rationals" | "prime"
    characteristic: int = 0

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        elif self.kind == "prime":
            p = self.characteristic
            if not (2 < p < 2**31):
                raise ValueError(f"prime field characteristic out of range: {p}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        else:
            raise ValueError(f"unknown field kind: {self.kind!r}")

    @property
    def zero(self) -> Coeff:
        return 0 if self.kind == "prime" else Fraction(0)

    @property
    def one(self) -> Coeff:
        return 1 if self.kind == "prime" else Fraction(1)

    def of_int(self, n: int) -> Coeff:
        return n % self.characteristic if self.kind == "prime" else Fraction(n)

    def __str__(self):
        return "QQ" if self.kind == "rationals" else f"F{self.characteristic}"


QQ = FieldConfig("rationals")


def prime_field(p: int) -> FieldConfig:
    return FieldConfig("prime", p)


GF32003 = prime_field(32003)


@lru_cache(maxsize=None)
def field_ops(F: FieldConfig) -> tuple:
    """(add, sub, mul, neg, inv, one) of F as plain functions on raw values,
    built once per field for the hot loops (inv does not check for zero)."""
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


class ExactMatrix:
    """Dense matrix over an exact field; rows of raw coefficient values."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldConfig, data: list[list[Coeff]], cols: int | None = None):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(row) != self.cols for row in self.data):
                raise ValueError("ragged rows")
        else:
            self.cols = 0 if cols is None else cols

    def __getitem__(self, idx: tuple[int, int]) -> Coeff:
        return self.data[idx[0]][idx[1]]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)


def echelon_insert(
    rows: dict[int, dict[int, Coeff]], vec: dict[int, Coeff], F: FieldConfig
) -> bool:
    """Add a sparse vector to an echelon basis; True when it was independent.

    Vectors are {index: value} dicts without zero values.  rows maps each
    pivot to its row, which is monic at its largest index, the pivot.  vec
    is reduced only at its leading (largest) index: while that index is a
    pivot, the pivot's row is subtracted, which clears it and touches only
    smaller indices.  A remainder is made monic and stored under its
    leading index; vec itself is consumed."""
    _add, sub, mul, neg, inv, one = field_ops(F)
    while vec:
        p = max(vec)
        row = rows.get(p)
        if row is None:
            f = vec[p]
            if f != one:
                f = inv(f)
                for j, x in vec.items():
                    vec[j] = mul(f, x)
            rows[p] = vec
            return True
        f = vec[p]
        for j, y in row.items():  # j = p cancels, since row[p] is one
            x = vec.get(j)
            if x is None:
                vec[j] = neg(mul(f, y))
            else:
                x = sub(x, mul(f, y))
                if x:
                    vec[j] = x
                else:
                    del vec[j]
    return False


def rank(m: ExactMatrix) -> int:
    """Exact rank; rank + nullity = cols.  An echelon basis of the rows."""
    rows: dict = {}
    return sum(echelon_insert(rows, {j: x for j, x in enumerate(r) if x}, m.field) for r in m.data)
