import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbsam.cli import main
from hilbsam.errors import MixedRings, PolySyntaxError, UnknownVariable
from hilbsam.exactalg import GF32003, QQ, prime_field
from hilbsam.polyring import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    RingSpec,
    elimination_order,
    mono_divides,
    parse_poly,
)

R2 = RingSpec(("x", "y"), GF32003)


def P(text, ring=R2):
    return parse_poly(ring, text)


def test_ring_spec_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        RingSpec((), GF32003)
    with pytest.raises(ValueError):
        RingSpec(("x", "x"), GF32003)
    with pytest.raises(ValueError):
        RingSpec(("2bad",), GF32003)
    # a problem file takes at most 16 variables; the engine's R[h] takes a
    # seventeenth internally
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"ring": {"variables": [f"v{i}" for i in range(17)]}, "tasks": []}))
    assert main(["run", str(path)]) == 2
    assert "need between 1 and 16 variables" in capsys.readouterr().err


def test_parse_examples():
    f = P("x^2*y - y")
    assert len(f.terms) == 2
    assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("x*y^1 - x*y").is_zero()  # cancellation
    assert P("-x + 3") == P("3 - x")
    assert P("x^0") == R2.one()


def test_parse_errors():
    with pytest.raises(UnknownVariable):
        P("x + z")
    with pytest.raises(PolySyntaxError) as err:
        P("x + ")
    assert err.value.position == 4
    with pytest.raises(PolySyntaxError):
        P("x^-2")  # exponents are nonnegative literals
    with pytest.raises(PolySyntaxError):
        P("2x")  # implicit multiplication forbidden
    with pytest.raises(PolySyntaxError):
        P("(x + y")


def test_poly_arith_examples():
    assert P("x - y") ** 0 == R2.one()
    assert P("x+y") * P("x-y") == P("x^2 - y^2")
    # binomial coefficients reduce mod p (characteristic 2 is outside the
    # allowed field range, so the smallest admissible prime stands in)
    ring_f3 = RingSpec(("x", "y"), prime_field(3))
    cube = parse_poly(ring_f3, "x+y") ** 3
    assert cube == parse_poly(ring_f3, "x^3 + y^3")
    with pytest.raises(MixedRings):
        P("x") + parse_poly(ring_f3, "x")


def _lm(f, order):
    return max(f.terms, key=order.key)


def test_leading_term_examples():
    f = P("x^2 + y^3")
    assert _lm(f, DEGREVLEX) == (0, 3)  # degree wins
    assert _lm(f, LEX) == (2, 0)  # x beats y in lex
    g = P("x*y + y^2")
    assert _lm(g, DEGREVLEX) == (1, 1)  # revlex tie-break at degree 2


def test_canonical_form_closure():
    f = P("x^2 - x^2 + y")
    assert f.terms == {(0, 1): 1}
    assert all(c for c in (P("x+y") * P("x-y")).terms.values())


_small_poly = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)),
    min_size=0,
    max_size=5,
).map(lambda triples: Polynomial(R2, {}) if not triples else sum(
    (R2.monomial((a, b), c) for a, b, c in triples), R2.zero()))


@given(_small_poly, _small_poly, _small_poly)
@settings(max_examples=40)
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * R2.one() == f
    assert f - f == R2.zero()
    assert f * g == g * f


@given(_small_poly, _small_poly)
@settings(max_examples=40)
def test_lt_multiplicative(f, g):
    if f.is_zero() or g.is_zero():
        return
    mf, mg, mfg = (_lm(p, DEGREVLEX) for p in (f, g, f * g))
    assert mfg == tuple(a + b for a, b in zip(mf, mg))


_integer = st.one_of(st.integers(-50, 50), st.sampled_from([32002, 32003, -32003, 64007]))


@st.composite
def _integer_poly_pairs(draw):
    """Two small-integer polynomials in 2 or 3 variables as {exponents:
    int}, an integer scalar and a small exponent; coefficients near
    multiples of 32003 make terms vanish mod p."""
    n = draw(st.integers(2, 3))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), _integer, max_size=5)
    return n, draw(poly), draw(poly), draw(_integer), draw(st.integers(0, 3))


@given(_integer_poly_pairs())
@settings(max_examples=80, deadline=None)
def test_prime_field_arithmetic_is_integer_arithmetic_mod_p(case):
    # Z -> F_p is a ring map: every operation over F_32003 equals the QQ
    # result, whose coefficients are integers, reduced mod 32003
    n, f, g, c, e = case
    rq, rp = (RingSpec(("x", "y", "z")[:n], F) for F in (QQ, GF32003))

    def lift(ring, terms):
        return Polynomial(ring, {m: ring.field.of_int(v) for m, v in terms.items()})

    fq, gq, fp, gp = lift(rq, f), lift(rq, g), lift(rp, f), lift(rp, g)
    cq, cp = QQ.of_int(c), GF32003.of_int(c)
    pairs = [(fq + gq, fp + gp), (fq - gq, fp - gp), (-fq, -fp), (fq * gq, fp * gp),
             (fq.scale(cq), fp.scale(cp)), (fq ** e, fp ** e)]
    for q, p in pairs:
        assert all(v.denominator == 1 for v in q.terms.values())
        assert lift(rp, {m: int(v) for m, v in q.terms.items()}) == p


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
@settings(max_examples=80)
def test_orders_refine_divisibility(m1, m2):
    for order in (DEGREVLEX, LEX, elimination_order(1), elimination_order(2)):
        k1, k2 = order.key(m1), order.key(m2)
        assert (k1 == k2) == (m1 == m2)
        if mono_divides(m1, m2) and m1 != m2:
            assert k1 < k2, f"{order.kind} must refine divisibility"


def test_substitute():
    R4 = RingSpec(("X", "Y", "Z", "W"), GF32003)
    f = parse_poly(R4, "X^2*Z - W")
    image = f.substitute({2: parse_poly(R4, "Z + X^2")})
    assert image == parse_poly(R4, "X^2*Z + X^4 - W")
