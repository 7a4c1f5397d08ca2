from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matmul, nullspace, rref, zeros
from hilbsam.exactalg import (
    ExactMatrix,
    FieldConfig,
    GF32003,
    QQ,
    echelon_insert,
    field_ops,
    is_prime,
    prime_field,
    rank,
)


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig("prime", 32004)  # composite
    with pytest.raises(ValueError):
        FieldConfig("prime", 2)  # out of range
    with pytest.raises(ValueError):
        FieldConfig("prime", 2**31 + 11)
    assert prime_field(5).characteristic == 5


def test_is_prime_smalls():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(32003) and not is_prime(32001)


def test_is_prime_agrees_with_a_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("n", [561, 1105, 1729, 41041, 825265, 321197185])
def test_carmichael_numbers_are_composite(n):
    # each passes Fermat's test to every base prime to it
    assert all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7, 11, 13) if n % a)
    assert not is_prime(n)


def test_is_prime_near_the_field_cap():
    assert is_prime(2**31 - 1) and not is_prime(2**31 - 3)
    assert FieldConfig("prime", 2**31 - 1).characteristic == 2**31 - 1


def test_field_arith_examples():
    _add, sub, _mul, neg, inv, one = field_ops(prime_field(5))
    assert inv(2) == 3  # 2*3 = 6 = 1 mod 5
    assert (neg(2), sub(1, 3), one) == (3, 3, 1)
    assert field_ops(QQ)[0](Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    # 16001 * 2 = 32002 = -1 mod 32003
    assert field_ops(GF32003)[2](16001, 2) == 32002


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=60)
def test_rational_field_axioms(a, b, c, da, db, dc):
    add, sub, mul, neg, inv, one = field_ops(QQ)
    x, y, z = Fraction(a, da), Fraction(b, db), Fraction(c, dc)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(x, y) == mul(y, x)
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert sub(x, y) == add(x, neg(y))
    if x:
        assert mul(x, inv(x)) == one
    # canonical form: lowest terms, positive denominator
    assert add(x, y).denominator > 0


def _mat(field, rows):
    return ExactMatrix(field, [[field.of_int(v) for v in row] for row in rows])


def _identity(field, n):
    return _mat(field, [[int(i == j) for j in range(n)] for i in range(n)])


def test_rank_examples():
    assert rank(_identity(QQ, 3)) == 3
    assert rank(zeros(QQ, 3, 4)) == 0
    assert rank(_mat(QQ, [[1, 2], [2, 4]])) == 1  # proportional rows
    # reducing the second row creates an entry the first row's support adds
    assert rank(_mat(QQ, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])) == 3


def test_nullspace_examples():
    assert len(nullspace(zeros(GF32003, 2, 3))) == 3
    assert nullspace(_identity(GF32003, 4)) == []
    m = _mat(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = nullspace(m)
    assert len(basis) == 3 - rank(m)
    for v in basis:
        assert matmul(m, v).is_zero(), "M v must vanish exactly"


@st.composite
def _matrices(draw):
    """Matrices over F_32003 or QQ with up to 5 columns, dense or sparse;
    some rows zero, and up to two rows that combine two earlier ones, so the
    rank is often below the shape's."""
    field = draw(st.sampled_from([GF32003, QQ]))
    cols = draw(st.integers(1, 5))
    entry = draw(st.sampled_from([st.integers(-9, 9), st.sampled_from([0, 0, 0, 1, -1, 2, 9])]))
    row = st.lists(entry, min_size=cols, max_size=cols)
    rows = draw(st.lists(st.one_of(st.just([0] * cols), row), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        t = draw(st.integers(-2, 2))
        rows.append([x + t * y for x, y in zip(rows[i], rows[j])])
    return _mat(field, rows)


@given(_matrices())
@settings(max_examples=120, deadline=1000)
def test_rank_transpose_and_rank_nullity(m):
    # rank runs a sparse echelon basis, nullspace the reduced row echelon
    # form: two independent eliminations
    assert rank(m) == rank(ExactMatrix(m.field, list(zip(*m.data)), m.rows))
    assert rank(m) + len(nullspace(m)) == m.cols


@given(_matrices())
@settings(max_examples=120, deadline=1000)
def test_echelon_rows_span_the_row_space(m):
    rows: dict = {}
    for r in m.data:
        echelon_insert(rows, {j: x for j, x in enumerate(r) if x}, m.field)
    assert all(max(row) == p and row[p] == m.field.one for p, row in rows.items())
    stored = [[row.get(j, m.field.zero) for j in range(m.cols)] for row in rows.values()]
    # checked by the reduced row echelon form, which shares no code with rank
    both = ExactMatrix(m.field, m.data + stored, m.cols)
    assert len(rref(both)[1]) == len(rref(m)[1]) == len(rows)

