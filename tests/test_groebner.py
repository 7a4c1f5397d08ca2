import itertools
import json
import math
import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    colon_by_elimination,
    lazard_reference,
    mono_div,
    mono_lcm,
    ring4,
    saturation_by_elimination,
    spy_lazard_runs,
    staged,
    two_planes,
)
from hilbsam import groebner
from hilbsam.cli import main
from hilbsam.errors import NotLocallyFinite, PackedRangeExceeded, ResourceLimit, ZeroDivisor
from hilbsam.exactalg import GF32003, QQ
from hilbsam.groebner import (
    IdealHandle,
    autoreduce,
    colon,
    colon_ideal,
    colength_at_cutoff,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    local_colength,
    local_colength_info,
    maximal_ideal,
    member,
    normal_form,
    poly_exact_div,
    product_basis,
    product_equals,
    sat_quotient_length,
    saturate,
    truncation_colength_oracle,
)
from hilbsam.polyring import (
    DEGREVLEX,
    LEX,
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
from hilbsam.secmethods import artin_algebra

R2 = RingSpec(("x", "y"), GF32003)
R3 = RingSpec(("x", "y", "z"), GF32003)


def P(text, ring=R2):
    return parse_poly(ring, text)


def test_buchberger_monomial_ideal_unchanged():
    gb = ideal(R2, ["x^2", "y^3"]).groebner()
    assert [str(g) for g in gb.elements] == ["x^2", "y^3"]


def test_buchberger_spair_reduces_to_zero():
    gb = ideal(R2, ["x - y", "y^2"]).groebner(LEX)
    assert sorted(str(g) for g in gb.elements) == ["x - y", "y^2"]


def test_buchberger_lex_staircase():
    gb = ideal(R2, ["x^2 - y", "y^2 - 1"]).groebner(LEX)
    assert sorted(gb.leading_monomials) == [(0, 2), (2, 0)]
    assert any(g == P("y^2 - 1") for g in gb.elements)


def test_normal_form_examples():
    assert normal_form(P("x^2"), ideal(R2, ["x"]).groebner()).is_zero()
    assert normal_form(R2.one(), ideal(R2, ["x^2", "y"]).groebner()) == R2.one()
    gb = ideal(R2, ["x^2 - y", "y^2 - 1"]).groebner(LEX)
    nf = normal_form(P("x^2*y"), gb)
    staircase = gb.leading_monomials
    from hilbsam.polyring import mono_divides

    assert all(not any(mono_divides(lt, m) for lt in staircase) for m in nf.terms)
    assert normal_form(nf, gb) == nf  # idempotent


def test_normal_form_linear():
    gb = ideal(R2, ["x^2 - y", "y^2 - 1"]).groebner()
    f, g = P("x^2*y + x"), P("y^3 - x*y")
    assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


def test_ideal_sum_product_power():
    m = ideal(R2, ["x", "y"])
    sq = ideal_power(m, 2)
    assert ideal_equal(sq, ideal(R2, ["x^2", "x*y", "y^2"]))
    zero = IdealHandle(R2, [])
    assert ideal_product(m, zero).generators == ()
    assert ideal_equal(ideal_power(m, 0), ideal(R2, ["1"]))


def test_power_interreduction_stays_small():
    R = ring4()
    Q = ideal(R, ["X^2-Z", "Y^2-W"])
    cube = ideal_power(Q, 3)
    assert len(cube.generators) <= 4
    # colength in the two-planes quotient matches the closed form 8*6+4*3
    A = two_planes(2)
    assert local_colength(ideal_sum(A.defining, cube)) == 60


def test_intersect_examples():
    assert ideal_equal(intersect(ideal(R2, ["x"]), ideal(R2, ["y"])), ideal(R2, ["x*y"]))
    m = ideal(R2, ["x", "y"])
    assert ideal_equal(intersect(m, m), m)
    R = ring4()
    K = intersect(ideal(R, ["X^2", "Y^2"]), ideal(R, ["Z", "W"]))
    expected = ideal(R, ["X^2*Z", "X^2*W", "Y^2*Z", "Y^2*W"])
    # double inclusion
    assert all(member(g, expected) for g in K.generators)
    assert all(member(g, K) for g in expected.generators)
    assert ideal_equal(K, expected)


def test_colon_examples():
    assert ideal_equal(colon(ideal(R2, ["x*y"]), P("x")), ideal(R2, ["y"]))
    I = ideal(R2, ["x^2", "x*y + y^3"])
    assert ideal_equal(colon(I, R2.one()), I)
    with pytest.raises(ZeroDivisor):
        colon(I, R2.zero())
    # colon output satisfies the defining membership: f*(I:f) in I
    C = colon(ideal(R2, ["x^2*y - y"]), P("y"))
    for g in C.generators:
        assert member(g * P("y"), ideal(R2, ["x^2*y - y"]))


def test_colon_on_staged_ring():
    # with d = (X^2, Y) cap (Z, W), a1 = X^2 - Z, a2 = Y - W:
    # ((d + (a1)) : a2) = d + (a1, Z)
    R = ring4()
    d = intersect(ideal(R, ["X^2", "Y"]), ideal(R, ["Z", "W"]))
    lhs = colon(ideal_sum(d, ideal(R, ["X^2-Z"])), parse_poly(R, "Y-W"))
    rhs = ideal_sum(d, ideal(R, ["X^2-Z", "Z"]))
    assert ideal_equal(lhs, rhs)


def test_colon_ideal_is_intersection_of_colons():
    I = ideal(R2, ["x^2*y^2"])
    J = ideal(R2, ["x*y", "y^2"])
    expected = intersect(colon(I, P("x*y")), colon(I, P("y^2")))
    assert ideal_equal(colon_ideal(I, J), expected)


def test_saturate_examples():
    assert ideal_equal(saturate(ideal(R2, ["x^2*y"]), ideal(R2, ["x"])), ideal(R2, ["y"]))
    I = ideal(R2, ["x^2", "x*y^3"])
    assert ideal_equal(saturate(I, ideal(R2, ["1"])), I)  # colon by the unit ideal
    with pytest.raises(ZeroDivisor):
        saturate(I, ideal(R2, ["0"]))


def test_saturation_needs_no_round_cap():
    # (x^65*y) : x^inf needs 65 colon rounds; one elimination finds (y)
    S = saturate(ideal(R2, ["x^65*y"]), ideal(R2, ["x"]))
    assert [str(g) for g in S.generators] == ["y"]


def test_saturate_op_needs_no_round_cap(tmp_path, capsys):
    path = tmp_path / "saturate.json"
    path.write_text(json.dumps({
        "ring": {"variables": ["x", "y"], "field": "fp:32003"},
        "ideals": {"a": ["x^65*y"], "b": ["x"], "s": {"saturate": ["a", "b"]}},
        "tasks": [{"name": "sat", "command": "gb", "ideal": "s"}],
    }))
    assert main(["run", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tasks"][0]["result"]["elements"] == ["y"]


def test_member_and_equal():
    assert member(P("x^2"), ideal(R2, ["x"]))
    assert ideal_equal(ideal(R2, ["x", "y"]), ideal(R2, ["y", "x"]))
    # counterexample family, n = 2: x*y is integral over c but not in c
    A = two_planes(2)
    c = ideal_sum(A.defining, ideal(A.ring, ["X^2", "Y^2", "Z", "W"]))
    assert not member(parse_poly(A.ring, "X*Y"), c)


def test_local_colength_examples(verify_mode):
    R = ring4()
    assert local_colength(ideal(R, ["X", "Y", "Z", "W"])) == 1
    assert local_colength(ideal(R, ["X^2", "Y^2", "Z", "W"])) == 4
    for n in (2, 3):
        A = staged(n)
        c = ideal_sum(A.defining, ideal(R, [f"X^{n}", "Y", "Z", "W"]))
        assert local_colength(c) == n


def test_local_colength_not_finite():
    with pytest.raises(NotLocallyFinite):
        local_colength(ideal(R2, ["x"]))


def test_truncated_colength_monotone():
    J = ideal(R2, ["x^3", "x*y", "y^4 - x^2"])
    values = [colength_at_cutoff(J, n) for n in range(2, 10)]
    assert values == sorted(values)
    assert local_colength(J) == values[-1]


def test_oracle_matches_groebner_counts():
    J = ideal(R2, ["x^3", "x*y", "y^4 - x^2"])
    for n in range(9):
        assert truncation_colength_oracle(J, n) == colength_at_cutoff(J, n)


def test_local_colength_off_origin_component():
    # (x - 1) vanishes away from the origin only: locally the unit ideal
    assert local_colength(ideal(R2, ["x - 1", "y"])) == 0
    # a component at the origin plus one at x = 1: local part only
    J = ideal(R2, ["x^2 - x^3", "y"])  # x^2(1 - x)
    assert local_colength(J) == 2


def test_curve_through_origin_is_decided_without_the_ladder(monkeypatch):
    # a + Q for a sampled candidate on R/[(X^3, Y^3) cap (Z, W)]: the linear
    # parts of the lifts are proportional, so a curve through the origin
    # survives and the untruncated staircase is infinite; the weight-0 local
    # staircase is infinite too, which decides it with no truncated colength
    # and no saturation
    A = two_planes(3)
    lifts = [
        "40*X^3 - 44*X^2*Y + 50*X*Y^2 - 45*Y^3 + 22*Z + 11*W",
        "-34*X^3 - 18*X^2*Y - 27*X*Y^2 + 9*Y^3 - 40*Z - 20*W",
    ]

    def refuse(*args):
        raise AssertionError("a truncated colength or a saturation ran")

    monkeypatch.setattr(groebner, "colength_at_cutoff", refuse)
    monkeypatch.setattr(groebner, "saturate", refuse)
    with pytest.raises(NotLocallyFinite):
        local_colength(ideal_sum(A.defining, ideal(A.ring, lifts)))


def test_infinite_staircase_off_the_origin_uses_the_ladder():
    # the hypersurface Z = 1 misses the origin: locally the ideal is m, so
    # the local path counts one standard monomial of top degree 0, certified
    # by the truncated colength at cutoff 1
    R = ring4()
    info = local_colength_info(intersect(maximal_ideal(R), ideal(R, ["Z - 1"])))
    assert (info.value, info.window) == (1, 1)


def test_an_off_origin_colength_runs_one_truncated_colength(monkeypatch):
    # (x^2 - x^3, y^5): a second point at x = 1; the local staircase has top
    # degree 5, and one truncated colength, at cutoff 6, certifies 10
    cutoffs = []
    real = groebner.colength_at_cutoff
    monkeypatch.setattr(groebner, "colength_at_cutoff", lambda J, n: cutoffs.append(n) or real(J, n))
    info = local_colength_info(ideal(R2, ["x^2 - x^3", "y^5"]))
    assert (info.value, info.window) == (10, 6)
    assert cutoffs == [6]


def test_sixteen_variables_off_the_origin(verify_mode):
    # R[h] takes a seventeenth variable: (v0^3 (v0 - 1), v1^2, v2, ..., v15)
    # has a second point at v0 = 1 and colength 3 * 2 at the origin
    R = RingSpec(tuple(f"v{i}" for i in range(16)), GF32003)
    J = ideal(R, ["v0^3*(v0 - 1)", "v1^2"] + [f"v{i}" for i in range(2, 16)])
    assert groebner._global_zero_dim_colength(J) is None
    info = local_colength_info(J)
    assert (info.value, info.window) == (6, 4)


def test_reduced_basis_unique_under_permutation():
    R = ring4()
    gens = ["X^2*Z", "X^2*W - Z^3", "Y^2*Z", "Y^2*W", "X*Y*Z - W^3"]
    base = ideal(R, gens).groebner().elements
    rng = random.Random(5)
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert ideal(R, shuffled).groebner().elements == base
    assert ideal(R, gens).groebner().elements == base  # repeated run


def test_reduced_basis_invariants_on_random_ideals():
    # monic elements; no leading monomial divides another; no tail term
    # divisible by any leading monomial
    from hilbsam.polyring import mono_divides
    import random as _random

    rng = _random.Random(77)
    R = ring4()
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(2, 4)):
            f = R.zero()
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(4))
                c = rng.randint(-5, 5)
                if c and sum(exps):
                    f = f + R.monomial(exps, c)
            if f:
                gens.append(f)
        if not gens:
            continue
        gb = IdealHandle(R, gens).groebner()
        lts = gb.leading_monomials
        for f, lt in zip(gb.elements, lts):
            assert f.terms[lt] == R.field.one
            for other in lts:
                if other != lt:
                    assert not mono_divides(other, lt)
            for m in f.terms:
                if m != lt:
                    assert not any(mono_divides(l, m) for l in lts)


def test_autoreduce_preserves_ideal_with_nonmonic_generators():
    from hilbsam.groebner import autoreduce

    R = ring4()
    gens = [
        parse_poly(R, "7*X + 3*Y - 2*Z"),
        parse_poly(R, "5*Z^2 + 11*Z*W - W^2"),
        parse_poly(R, "3*Y*Z - 4*Y*W"),
    ]
    prods = [f * g for f in gens for g in gens]
    reduced = autoreduce(R, prods)
    assert ideal_equal(IdealHandle(R, prods), IdealHandle(R, reduced))


def test_poly_exact_div():
    f = P("x^2*y + x*y^2")
    g = P("x*y")
    assert poly_exact_div(f, g) == P("x + y")
    with pytest.raises(ValueError):
        poly_exact_div(P("x^2 + y"), g)


def test_sat_quotient_length_examples(verify_mode):
    # verify mode checks each truncated colength of J and of its saturation
    # against truncation_colength_oracle
    # already saturated
    assert sat_quotient_length(ideal(R2, ["y"])) == 0
    # sat((x^2 y, y)) = (y): quotient vanishes
    assert sat_quotient_length(ideal(R2, ["x^2*y", "y"])) == 0
    # torsion of length 2 at the origin: (x^2, xy) = (x) cap (x^2, y)
    assert sat_quotient_length(ideal(R2, ["x^3", "x*y"])) == 2
    # the two planes A_2 modulo X^2 - Z, in four variables
    A = two_planes(2)
    assert sat_quotient_length(ideal_sum(A.defining, ideal(A.ring, ["X^2-Z"]))) == 4
    # a second component at y = 1: (x^2, xy, y^2) at the origin, (x, y - 1) away
    assert sat_quotient_length(ideal(R2, ["x^2", "x*y", "y^2*(y-1)"])) == 3


def test_resource_limit(monkeypatch):
    R = ring4()
    gens = ["X^3*Y + Z*W^2", "Y^3*Z + X*W^2", "Z^3 - X*Y*W"]
    monkeypatch.setattr(groebner, "PAIR_BUDGET", 3)
    with pytest.raises(ResourceLimit):
        ideal(R, gens).groebner(LEX)


def test_rationals_agree_with_prime_field():
    for field in (GF32003, QQ):
        A = two_planes(2, field)
        c = ideal_sum(A.defining, ideal(A.ring, ["X^2", "Y^2", "Z", "W"]))
        assert local_colength(c) == 4


# ---------------------------------------------------------------------------
# the packed-monomial kernel and the scans built on it

LIMIT = groebner._DEG_LIMIT


def _exponents(nvars, high=12):
    return st.tuples(*[st.integers(0, high)] * nvars)


@st.composite
def _monomial_pairs(draw):
    """(nvars, a, b) inside the packed range, b often a multiple of a, and
    exponents up to the range's edge."""
    nvars = draw(st.integers(1, 16))
    high = draw(st.sampled_from([3, (LIMIT - 1) // nvars]))
    a = draw(_exponents(nvars, high))
    b = draw(_exponents(nvars, high))
    if draw(st.booleans()):
        b = mono_mul(a, draw(_exponents(nvars, min(high, 3))))
        if sum(b) >= LIMIT:
            b = a
    return nvars, a, b


@given(_monomial_pairs())
@settings(max_examples=200, deadline=1000)
def test_packed_arithmetic_matches_the_tuple_helpers(case):
    nvars, a, b = case
    pk = groebner._packing(nvars, DEGREVLEX)
    A, B = pk.pack(a), pk.pack(b)
    assert pk.unpack(A) == a and A >> pk.shift == sum(a)
    assert pk.divides(A, B) == mono_divides(a, b)
    assert pk.unpack(pk.lcm(A, B)) == mono_lcm(a, b)
    assert pk.lcm(A, B) == pk.pack(mono_lcm(a, b))
    if sum(a) + sum(b) < LIMIT:
        assert A + B == pk.pack(mono_mul(a, b))
        assert (A + B) - B == A and pk.unpack((A + B) - B) == mono_div(mono_mul(a, b), b)


@given(st.tuples(
    st.integers(1, 16), st.sampled_from([LIMIT - 1, LIMIT]) | st.integers(0, 2 * LIMIT)
))
@settings(max_examples=100, deadline=1000)
def test_packing_refuses_degrees_outside_its_range(case):
    nvars, d = case
    pk = groebner._packing(nvars, DEGREVLEX)
    exps = (d,) + (0,) * (nvars - 1)
    if d < LIMIT:
        assert pk.unpack(pk.pack(exps)) == exps
    else:
        with pytest.raises(ResourceLimit):
            pk.pack(exps)


@st.composite
def _order_cases(draw):
    """(nvars, elimination block, monomials): small exponents, or single
    exponents up to the range's edge, so that lcms can leave the range."""
    nvars = draw(st.integers(1, 5))
    spike = st.tuples(st.integers(0, nvars - 1), st.integers(0, LIMIT - 1)).map(
        lambda t: tuple(t[1] if i == t[0] else 0 for i in range(nvars))
    )
    monos = draw(st.lists(_exponents(nvars, 40) | spike, min_size=2, max_size=8))
    weights = draw(st.tuples(*[st.integers(0, 1)] * (nvars - 1)))
    return nvars, draw(st.integers(1, nvars + 1)), weights, monos


@given(_order_cases())
@settings(max_examples=150, deadline=1000)
def test_packed_keys_follow_the_monomial_order(case):
    # the engine also sorts and heaps the lcms of pairs, whose degree can
    # reach twice the range; the lazard order reads the last variable as h
    nvars, block, weights, monos = case
    orders = [DEGREVLEX, LEX, elimination_order(block)]  # a block >= nvars is degrevlex
    orders += [lazard_order(weights)] if nvars > 1 else []
    for order in orders:
        pk = groebner._packing(nvars, order)
        packed = [pk.pack(m) for m in monos]
        packed += [pk.lcm(a, b) for a, b in zip(packed, packed[1:])]
        expected = monos + [mono_lcm(a, b) for a, b in zip(monos, monos[1:])]
        assert [pk.unpack(m) for m in sorted(packed, key=pk.key)] == sorted(expected, key=order.key)
        assert [pk.unheap(pk.heap(m)) for m in packed] == packed
        assert sorted(packed, key=pk.heap) == sorted(packed, key=pk.key, reverse=True)


def test_elimination_runs_on_packed_keys(monkeypatch):
    # lex too: no engine path takes a key from MonomialOrder.key
    tuple_key = MonomialOrder.key

    def refuse_elim_and_lex(order, exps):
        if order.kind in ("elim", "lex"):
            raise AssertionError(f"{order.kind} key taken from the exponent tuple")
        return tuple_key(order, exps)

    monkeypatch.setattr(MonomialOrder, "key", refuse_elim_and_lex)
    I, J = ideal(R2, ["x^2", "x*y"]), ideal(R2, ["y^2"])
    assert ideal_equal(intersect(I, J), ideal(R2, ["x*y^2"]))
    assert ideal_equal(colon(ideal(R2, ["x^2*y - y"]), P("y")), ideal(R2, ["x^2 - 1"]))
    I = ideal(R2, ["x^3*y", "x^2*y^2"])
    assert ideal_equal(saturate(I, ideal(R2, ["x", "y"])), ideal(R2, ["x^2*y"]))
    assert ideal_equal(saturate(I, ideal(R2, ["x"])), ideal(R2, ["y"]))
    R = RingSpec(("t", "x", "y", "z"), GF32003)
    gb = ideal(R, ["t - x", "t^2 - y", "t^3 - z"]).groebner(LEX)  # the twisted cubic
    expected = ["t - x", "x^2 - y", "x*y - z", "x*z - y^2", "y^3 - z^2"]
    assert set(gb.elements) == {P(g, R) for g in expected}
    assert sorted(gb.leading_monomials) == [(0, 0, 3, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 2, 0, 0), (1, 0, 0, 0)]
    assert normal_form(P("t^5 + y*z", R), gb) == P("2*y*z", R)
    assert autoreduce(R, [P("x^2 - y", R), P("x^3 - x*y + z", R)], LEX) == [P("x^2 - y", R), P("z", R)]


@st.composite
def _divisor_cases(draw):
    """(nvars, leading monomials, m), with m often a multiple of one of them."""
    nvars = draw(st.integers(1, 4))
    lts = draw(st.lists(_exponents(nvars), max_size=8))
    m = draw(_exponents(nvars))
    if lts and draw(st.booleans()):
        m = mono_mul(draw(st.sampled_from(lts)), draw(_exponents(nvars, 3)))
    return nvars, lts, m


@given(_divisor_cases())
@settings(max_examples=300, deadline=1000)
def test_find_reducer_matches_a_linear_scan(case):
    nvars, lts, m = case
    pk = groebner._packing(nvars, DEGREVLEX)
    elems = [groebner._Elem([(pk.pack(lt), 1)]) for lt in lts]
    first = next((e for lt, e in zip(lts, elems) if mono_divides(lt, m)), None)
    assert groebner._find_reducer(pk.pack(m), elems, pk.guard) is first


def test_degrees_outside_the_packed_range_raise_resource_limit(tmp_path, capsys):
    big = ideal(R2, ["x^40000", "y"])
    with pytest.raises(ResourceLimit):
        big.groebner()
    with pytest.raises(ResourceLimit):
        local_colength(big)
    # lex reduction grows degrees past the range: x^2 -> x*y^20000 -> y^40000
    with pytest.raises(ResourceLimit):
        ideal(R2, ["x - y^20000", "x^2"]).groebner(LEX)
    # and so does a lex S-polynomial: y^13000 (x^2 - y^20000) - x (x*y^13000)
    with pytest.raises(ResourceLimit):
        ideal(R2, ["x^2 - y^20000", "x*y^13000"]).groebner(LEX)
    with pytest.raises(ResourceLimit):
        normal_form(P("x^2"), ideal(R2, ["x - y^20000"]).groebner(LEX))
    with pytest.raises(ResourceLimit):
        ideal_power(ideal(R2, ["x^20000 + y"]), 2)
    # a problem file ends in exit 3: the basis refuses the degree, and with
    # x^40000 dropped past the cap the local staircase of (y) is infinite
    for command in ("gb", "colength"):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({
            "ring": {"variables": ["x", "y"], "field": "fp:32003"},
            "ideals": {"big": ["x^40000", "y"]},
            "tasks": [{"command": command, "ideal": "big"}],
        }))
        assert main(["run", str(path)]) == 3
    assert "packed range" in capsys.readouterr().err


def test_packed_range_refusal_is_raised_when_the_ladder_fails(tmp_path, capsys):
    # the local path drops the terms past its cap, so it still certifies
    # this value (the local basis of (x^3, y), checked at cutoff 3)
    assert local_colength(ideal(R2, ["x^40000 + x^3", "y"])) == 3
    assert artin_algebra(R2, ideal(R2, ["x^40000 + x^3", "y"])).dim == 3
    # here the local staircase of (y) is infinite, and the caller sees the
    # refusal, not a finiteness verdict
    with pytest.raises(ResourceLimit, match="packed range") as refused:
        local_colength(ideal(R2, ["x^40000", "y"]))
    assert not isinstance(refused.value, NotLocallyFinite)
    path = tmp_path / "colength.json"
    path.write_text(json.dumps({
        "ring": {"variables": ["x", "y"], "field": "fp:32003"},
        "ideals": {"big": ["x^40000", "y"]},
        "tasks": [{"command": "colength", "ideal": "big"}],
    }))
    assert main(["run", str(path)]) == 3
    assert "packed range" in capsys.readouterr().err


def test_basis_and_autoreduce_share_exponent_tuples():
    R3 = RingSpec(("x", "y", "z"), GF32003)
    gens = [P(g, R3) for g in ("x^2 - y*z", "x*y - z^2", "y^2 - x*z", "x^2*y - z^3")]
    for out in (IdealHandle(R3, gens).groebner().elements, groebner.autoreduce(R3, gens)):
        seen = {}
        for f in out:
            for m in f.terms:
                assert seen.setdefault(m, m) is m  # one tuple per monomial


# ---------------------------------------------------------------------------
# differential properties: independent colength paths agree

@st.composite
def _small_ideals(draw, fields=(GF32003,), names=(("x", "y", "z"),)):
    """Ideals of F_32003[x, y, z] (up to three variables; or over one of
    fields, in one of the variable names) whose generators have degree <= 3
    and small coefficients; constants are allowed, so the support can leave
    the origin.  Half of them also get a pure power of each variable plus
    nonconstant lower terms, which makes finite colengths at the origin
    common."""
    nvars = draw(st.integers(1, 3))
    ring = RingSpec(draw(st.sampled_from(names))[:nvars], draw(st.sampled_from(fields)))
    monos = list(monomials_below_degree(nvars, 4))
    coeffs = st.integers(-5, 5).map(ring.field.of_int)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3))
        gens.append(Polynomial(ring, terms))
    if draw(st.booleans()):
        for i in range(nvars):
            k = draw(st.integers(1, 3))
            lower = [m for m in monos if 0 < sum(m) < k]
            terms = draw(st.dictionaries(st.sampled_from(lower), coeffs, max_size=2)) if lower else {}
            terms[tuple(k if j == i else 0 for j in range(nvars))] = ring.field.one
            gens.append(Polynomial(ring, terms))
    return IdealHandle(ring, gens)


@given(_small_ideals())
@settings(max_examples=60, deadline=5000)
def test_truncated_colengths_match_the_rank_oracle(J):
    for cutoff in range(6):
        assert colength_at_cutoff(J, cutoff) == truncation_colength_oracle(J, cutoff)


@given(_small_ideals())
@settings(max_examples=60, deadline=5000)
def test_global_path_matches_the_truncation_ladder(J):
    # a global-path value v is the local path's value, and D(v) = v: a local
    # Artinian ring of length v has m^v inside J
    fast = groebner._global_zero_dim_colength(J)
    if fast is not None:
        assert groebner._local_colength_info(J, 64).value == fast
        assert colength_at_cutoff(J, max(fast, 1)) == fast


def _saturate_by_colons(I, J):
    """The reference I : J^inf: colon_ideal repeated until the reduced basis
    is stable."""
    current = I
    while True:
        nxt = colon_ideal(current, J)
        if ideal_equal(nxt, current):
            return current
        current = nxt


@st.composite
def _saturation_cases(draw):
    """(I, J) in 2-3 variables over F_32003, or 2 over QQ: one to three
    generators for I and one or two for J, of degree <= 3 with up to three
    terms.  Three variables over QQ are left out: there the reference's
    colons can take minutes on a draw (coefficient growth)."""
    field = draw(st.sampled_from([GF32003, QQ]))
    nvars = draw(st.integers(2, 3 if field is GF32003 else 2))
    ring = RingSpec(("x", "y", "z")[:nvars], field)
    monos = [m for m in monomials_below_degree(nvars, 4) if sum(m)]
    coeffs = st.integers(-3, 3).filter(bool).map(ring.field.of_int)

    def gens(most):
        return [
            Polynomial(ring, draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3)))
            for _ in range(draw(st.integers(1, most)))
        ]

    return IdealHandle(ring, gens(3)), IdealHandle(ring, gens(2))


@given(_saturation_cases())
@settings(max_examples=60, deadline=10000, derandomize=True)
def test_saturate_matches_iterated_colons(case):
    I, J = case
    S = saturate(I, J)
    assert ideal_equal(S, _saturate_by_colons(I, J))
    assert all(member(f, S) for f in I.generators)  # I ⊆ I : J^inf
    assert ideal_equal(colon_ideal(S, J), S)  # and it is saturated
    assert S.generators == tuple(S.groebner().elements)  # given by its reduced basis


def test_monomial_colons_and_saturations_take_no_elimination(monkeypatch):
    I = ideal(R2, ["x^3 - y^2", "x^2*y^2 + x*y", "y^4"])
    expected_colon = colon_by_elimination(I, P("3*x*y")).groebner().elements
    expected_sat = saturation_by_elimination(I, P("x")).generators

    def refuse(*args):
        raise AssertionError("an elimination basis was built")

    monkeypatch.setattr(groebner, "_eliminate", refuse)
    assert colon(I, P("3*x*y")).generators == tuple(expected_colon)
    assert saturate(I, ideal(R2, ["x"])).generators == expected_sat


def test_sat_quotient_length_builds_no_truncated_basis(monkeypatch):
    A = two_planes(2)
    J = ideal_sum(A.defining, ideal(A.ring, ["X^2-Z"]))

    def refuse(*args, **kwargs):
        raise AssertionError("a truncated basis was built")

    monkeypatch.setattr(IdealHandle, "truncated_groebner", refuse)
    assert sat_quotient_length(J) == 4


def test_monomial_colons_are_checked_in_verify_mode(verify_mode, monkeypatch):
    I = ideal(R2, ["x^2*y - y", "x*y^2"])
    assert colon(I, P("-2*y")).generators == tuple(colon_by_elimination(I, P("-2*y")).groebner().elements)
    assert sat_quotient_length(ideal(R2, ["x^3", "x*y"])) == 2
    # a wrong answer from the homogenized path is caught (on a fresh handle:
    # I keeps its colon by y from the colon by -2*y)
    monkeypatch.setattr(groebner, "_by_monomial", lambda I, u, saturate: I.groebner())
    with pytest.raises(AssertionError, match="colon by a monomial"):
        colon(ideal(R2, ["x^2*y - y", "x*y^2"]), P("y"))
    with pytest.raises(AssertionError, match="saturation by a monomial"):
        saturate(I, ideal(R2, ["y"]))
    # and so is a count the weight-0 local bases do not reproduce
    monkeypatch.undo()
    real = groebner._staircase_counts

    def one_too_many(lts, nvars, bound, weights=None, starts=None):
        return real(lts, nvars, bound, weights, starts) + Counter({0: 1} if starts else {})

    monkeypatch.setattr(groebner, "_staircase_counts", one_too_many)
    with pytest.raises(AssertionError, match="the local bases"):
        sat_quotient_length(ideal(R2, ["x^3", "x*y"]))


def test_an_elimination_keeps_the_basis_it_finds(verify_mode, monkeypatch):
    # the t-free elements of the elimination basis are the reduced degrevlex
    # basis of the intersection, in the order a degrevlex run gives: an
    # intersection and a saturation by a non-monomial keep them, so their
    # groebner() runs no engine
    results = [intersect(ideal(R2, ["x^2", "x*y - y"]), ideal(R2, ["y^2 - x"])),
               saturate(ideal(R2, ["x^2*y - x*y", "x*y^2 - y^2"]), ideal(R2, ["x + y"]))]
    assert results[1].generators == (P("x*y - y"),)
    runs = []
    real = groebner._engine
    monkeypatch.setattr(groebner, "_engine", lambda *a, **k: runs.append(a) or real(*a, **k))
    bases = [K.groebner() for K in results]
    assert runs == []
    for K, gb in zip(results, bases):
        fresh = IdealHandle(R2, K.generators).groebner()
        assert (gb.elements, gb.leading_monomials) == (fresh.elements, fresh.leading_monomials)
    # in verify mode, t-free elements that are not that basis are caught
    monkeypatch.setattr(groebner, "elimination_order", lambda block: LEX)
    with pytest.raises(AssertionError, match="not the reduced degrevlex basis"):
        intersect(ideal(R2, ["x^2", "x*y - y"]), ideal(R2, ["y^2 - x"]))


@st.composite
def _monomial_colon_cases(draw):
    """(I, c·u): I in 2-3 variables over F_32003 or QQ, with one to three
    generators, homogeneous (of degree 1-3 each) or not (degree <= 3, up to
    three terms); u a monomial with exponents <= 2 (1 included) and c a
    nonzero coefficient."""
    field = draw(st.sampled_from([GF32003, QQ]))
    nvars = draw(st.integers(2, 3))
    ring = RingSpec(("x", "y", "z")[:nvars], field)
    coeffs = st.integers(-3, 3).filter(bool).map(ring.field.of_int)
    homogeneous = draw(st.booleans())
    mixed = [m for m in monomials_below_degree(nvars, 4) if sum(m)]

    def poly():
        monos = list(monomials_of_degree(nvars, draw(st.integers(1, 3)))) if homogeneous else mixed
        return Polynomial(ring, draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3)))

    I = IdealHandle(ring, [poly() for _ in range(draw(st.integers(1, 3)))])
    u = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
    return I, Polynomial(ring, {u: draw(coeffs)})


@given(_monomial_colon_cases())
@settings(max_examples=60, deadline=10000, derandomize=True)
def test_monomial_colon_matches_the_elimination(case):
    I, f = case
    # generated by its reduced basis, that of the reference
    assert colon(I, f).generators == tuple(colon_by_elimination(I, f).groebner().elements)


@given(_monomial_colon_cases())
@settings(max_examples=60, deadline=10000, derandomize=True)
def test_monomial_saturation_matches_the_elimination(case):
    I, f = case
    assert saturate(I, IdealHandle(I.ring, [f])).generators == saturation_by_elimination(I, f).generators


@pytest.mark.parametrize("field", [GF32003, QQ], ids=["fp", "qq"])
@pytest.mark.parametrize("gens, divisor", [
    (["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"], "3"),  # u = 1: I's own basis
    (["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"], "-2*y^3*z"),  # u in I: the unit ideal
    ([], "x*y"),  # the zero ideal
    (["x*y + 1", "x"], "x*z"),  # the unit ideal
    (["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"], "x^2*z"),  # y's exponent 0 between x and z
    (["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"], "x*y*z"),  # a product of variables
    (["x^3 - y*z", "x*y^2", "x^2*z^2 + y^3"], "x*y"),
], ids=["constant", "in-I", "zero", "unit", "gap", "product", "xy"])
def test_packed_colons_match_the_eliminations(field, gens, divisor):
    # the colon and the saturation by a monomial run on packed term lists;
    # each must be the reduced degrevlex basis the elimination paths give
    R = RingSpec(("x", "y", "z"), field)
    f = parse_poly(R, divisor)
    for saturate_, other in ((False, groebner._colon_by_intersection),
                             (True, groebner._saturation_by_elimination)):
        I = ideal(R, gens)
        part = groebner._part(I, f, saturate_)
        assert part.generators == tuple(other(ideal(R, gens), f).groebner().elements)
        assert part.groebner().elements == list(part.generators)
    I = ideal(R, gens)
    if divisor == "3":
        assert colon(I, f).generators == tuple(I.groebner().elements)
    if divisor.endswith("y^3*z"):
        assert colon(I, f).generators == (R.one(),)


def test_a_packed_colon_builds_no_polynomial_over_r_h(monkeypatch):
    # the work-counter gate: _by_monomial makes its Polynomials in R alone,
    # and as many engine runs as it takes variables of u plus one (h = 1)
    R = RingSpec(("x", "y", "z"), GF32003)
    I = ideal(R, ["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"])
    I.groebner()
    rings = []
    real_init = Polynomial.__init__

    def init(self, ring, terms, _canonical=False):
        rings.append(ring)
        real_init(self, ring, terms, _canonical)

    monkeypatch.setattr(Polynomial, "__init__", init)
    runs = []
    real = groebner._engine
    monkeypatch.setattr(groebner, "_engine", lambda *a, **k: runs.append(a[0].nvars) or real(*a, **k))
    colon(I, parse_poly(R, "x^2*z"))
    assert runs == [4, 4, 3] and set(rings) == {R}
    runs.clear()
    colon(I, parse_poly(R, "-x*y"))  # no basis of I^h is kept on I
    assert runs == [4, 4, 3]
    runs.clear()
    colon(I, parse_poly(R, "x*y"))  # and the part by x*y is kept per monomial
    assert runs == [] and set(rings) == {R}


def test_a_regular_variable_builds_no_colon(monkeypatch):
    # x is regular mod I: no leading monomial of I's basis with x last is
    # divisible by x, so I : x is I's own reduced basis after that one
    # basis, with no run at h = 1; so are I : x^2 and I : x^inf, each after
    # its own basis, and the part shares what I keeps, so a second colon by
    # x runs nothing.  A power of y in J makes J : y^inf the unit ideal,
    # again after one basis
    R = R3
    I = ideal(R, ["y^2 - x*z", "z^3 - x*y"])
    basis = tuple(I.groebner().elements)
    J = ideal(R, ["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"])
    J.groebner()
    runs = []
    real = groebner._engine
    monkeypatch.setattr(groebner, "_engine", lambda *a, **k: runs.append(a[0].nvars) or real(*a, **k))
    part = colon(I, P("x", R))
    assert part.generators == basis and runs == [4]
    assert colon(I, P("x", R)) is part and colon(I, P("-2*x^2", R)).generators == basis
    assert saturate(I, ideal(R, ["x"])).generators == basis and colon(part, P("x", R)).generators == basis
    assert runs == [4, 4, 4]
    assert saturate(J, ideal(R, ["y"])).generators == (R.one(),) and runs == [4, 4, 4, 4]
    monkeypatch.undo()
    assert colon_by_elimination(I, P("x", R)).groebner().elements == list(basis)
    assert saturation_by_elimination(J, P("y", R)).generators == (R.one(),)


def test_each_monomial_colon_builds_its_own_bases_of_i_h(monkeypatch):
    # I keeps no basis of I^h: I : x*y runs one basis per variable and
    # h = 1, and I : y after it runs its own basis with y last again; in
    # J : x*y, x divides, so the basis with y last is of J^h : x.  Every
    # result agrees with the elimination
    R = R3
    I = ideal(R, ["y^2 - x*z", "z^3 - x*y"])
    J = ideal(R, ["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"])
    I.groebner(), J.groebner()
    runs = []
    real = groebner._engine
    monkeypatch.setattr(groebner, "_engine", lambda *a, **k: runs.append(a[0].nvars) or real(*a, **k))
    results = [colon(I, P("x*y", R)), colon(I, P("y", R))]
    assert runs == [4, 4, 3, 4, 3]
    results += [colon(J, P("x*y", R)), colon(J, P("y", R)), saturate(J, ideal(R, ["y"]))]
    monkeypatch.undo()
    expected = [colon_by_elimination(K, P(u, R)).groebner().elements
                for K, u in ((I, "x*y"), (I, "y"), (J, "x*y"), (J, "y"))]
    expected.append(saturation_by_elimination(J, P("y", R)).generators)
    assert [list(K.generators) for K in results] == [list(e) for e in expected]


@given(_monomial_colon_cases())
@settings(max_examples=60, deadline=10000, derandomize=True)
@example((ideal(R3, ["x^2*y - z^3", "x*z^2 + y^2", "y^3*z"]), None))  # two unit parts
@example((ideal(R3, ["x^2", "y^3", "z"]), None))  # three: the result is (1)
def test_saturation_by_m_is_the_intersection_of_all_its_parts(case):
    # a part by a variable with a power in I is the unit ideal and joins no
    # intersection: the saturation is the one of the other parts
    I, _ = case
    m = maximal_ideal(I.ring)
    S = saturate(I, m)
    parts = [groebner._part(I, v, True) for v in m.generators]
    assert S.generators == tuple(reduce(intersect, parts).groebner().elements)


def test_a_dropped_unit_part_is_checked_in_verify_mode(verify_mode, monkeypatch):
    # (x^2*y, y^3) : m^inf drops its unit part by y and passes the check
    # against the intersection of all parts; (x^2*y) : m^inf has the parts
    # (y) and (x^2), and a verdict that takes every monomial for a constant
    # drops both, which that check catches
    assert saturate(ideal(R2, ["x^2*y", "y^3"]), maximal_ideal(R2)).generators == (P("y"),)
    assert saturate(ideal(R2, ["x^2*y"]), maximal_ideal(R2)).generators == (P("x^2*y"),)
    real = Polynomial.degree
    monkeypatch.setattr(Polynomial, "degree", lambda f: 0 if len(f.terms) == 1 else real(f))
    with pytest.raises(AssertionError, match="without its unit parts"):
        saturate(ideal(R2, ["x^2*y"]), maximal_ideal(R2))


def _length_by_degrees(sat, J):
    """#(L(sat) minus L(J)), degree by degree: a degree past sat's generators
    with no such monomial has none above it either."""
    nvars = J.ring.nvars
    outer, inner = sat.groebner().leading_monomials, J.groebner().leading_monomials
    top = max(sum(m) for m in outer)
    count, d = 0, 0
    while True:
        found = sum(
            1 for m in monomials_of_degree(nvars, d)
            if any(mono_divides(g, m) for g in outer) and not any(mono_divides(g, m) for g in inner)
        )
        count += found
        if not found and d >= top:
            return count
        d += 1


@st.composite
def _embedded_cases(draw):
    """J in 2-3 variables over F_32003 or QQ, often with an embedded
    component at the origin and, when inhomogeneous, components off it:
    generators with up to three terms, homogeneous (of degree 1-3 each) or
    not (degree <= 3), half of them times a monomial of degree 1-2."""
    field = draw(st.sampled_from([GF32003, QQ]))
    nvars = draw(st.integers(2, 3))
    ring = RingSpec(("x", "y", "z")[:nvars], field)
    coeffs = st.integers(-3, 3).filter(bool).map(ring.field.of_int)
    homogeneous = draw(st.booleans())
    mixed = list(monomials_below_degree(nvars, 4))
    shifts = [m for m in monomials_below_degree(nvars, 3) if sum(m)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = list(monomials_of_degree(nvars, draw(st.integers(1, 3)))) if homogeneous else mixed
        f = Polynomial(ring, draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3)))
        if draw(st.booleans()):
            f = f * ring.monomial(draw(st.sampled_from(shifts)))
        gens.append(f)
    return IdealHandle(ring, gens)


@given(_embedded_cases())
@settings(max_examples=60, deadline=10000, derandomize=True)
def test_sat_quotient_length_matches_the_elimination(J):
    parts = [saturation_by_elimination(J, J.ring.variable(i)) for i in range(J.ring.nvars)]
    sat = parts[0]
    for part in parts[1:]:
        sat = intersect(sat, part)
    assert sat_quotient_length(J) == _length_by_degrees(sat, J)


def _breadth_first(nvars, bound):
    """Every monomial of degree < bound, in the order the staircase walk visits them."""
    origin = (0,) * nvars
    seen, queue = {origin}, [origin]
    for m in queue:
        if sum(m) + 1 >= bound:
            continue
        for i in range(nvars):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if m2 not in seen:
                seen.add(m2)
                queue.append(m2)
    return queue


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_exponents(n, 6), max_size=6), st.integers(1, 8))
))
@settings(max_examples=200, deadline=2000)
def test_standard_monomials_match_a_brute_force_filter(case):
    nvars, lts, bound = case
    expected = [
        m for m in _breadth_first(nvars, bound) if not any(mono_divides(lt, m) for lt in lts)
    ]
    assert groebner._standard_monomials(lts, nvars, bound) == expected
    assert groebner._staircase_counts(lts, nvars, bound) == Counter(sum(m) for m in expected)
    # up from starts with no bound, pure powers of degree bound closing the staircase
    closed = lts + [tuple(bound * (j == i) for j in range(nvars)) for i in range(nvars)]
    starts = expected[-3:]
    reachable = [
        m for m in itertools.product(range(bound), repeat=nvars)
        if any(mono_divides(s, m) for s in starts) and not any(mono_divides(lt, m) for lt in closed)
    ]
    assert sorted(groebner._standard_monomials(closed, nvars, math.inf, starts=starts)) == reachable
    assert groebner._staircase_counts(closed, nvars, math.inf, starts=starts) == Counter(sum(m) for m in reachable)


def _weighted_brute_force(nvars, lts, bound, weights):
    """Every monomial of weighted degree < bound whose weight-0 exponents
    stay below the largest pure power, filtered by full divisibility."""
    caps = [bound if w else 1 + max(lt[i] for lt in lts if lt[i] == sum(lt)) for i, w in enumerate(weights)]
    boxes = [()]
    for cap in caps:
        boxes = [m + (e,) for m in boxes for e in range(cap)]
    return sorted(
        m for m in boxes
        if sum(e for e, w in zip(m, weights) if w) < bound and not any(mono_divides(lt, m) for lt in lts)
    )


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_exponents(n, 5), max_size=6), st.integers(1, 6), st.tuples(*[st.integers(0, 1)] * n)
)))
@settings(max_examples=200, deadline=2000)
def test_weighted_standard_monomials_match_a_brute_force_filter(case):
    nvars, lts, bound, weights = case
    finite = all(w or any(lt[i] == sum(lt) > 0 for lt in lts) for i, w in enumerate(weights))
    if any(sum(lt) == 0 for lt in lts):
        assert groebner._standard_monomials(lts, nvars, bound, weights) == []
        assert groebner._staircase_counts(lts, nvars, bound, weights) == Counter()
    elif not finite:
        with pytest.raises(NotLocallyFinite):
            groebner._standard_monomials(lts, nvars, bound, weights)
        with pytest.raises(NotLocallyFinite):
            groebner._staircase_counts(lts, nvars, bound, weights)
    else:
        got = groebner._standard_monomials(lts, nvars, bound, weights)
        assert len(set(got)) == len(got)
        expected = _weighted_brute_force(nvars, lts, bound, weights)
        assert sorted(got) == expected
        wdeg = Counter(sum(e for e, w in zip(m, weights) if w) for m in expected)
        assert groebner._staircase_counts(lts, nvars, bound, weights) == wdeg


@given(_small_ideals(fields=(GF32003, QQ), names=(("x", "y", "z"), ("h", "y", "z"))), st.data())
@settings(max_examples=60, deadline=5000)
def test_local_standard_basis_lies_in_the_ideal_and_leads_its_elements(J, data):
    # the packed Lazard run gives the leading monomials of the Polynomial
    # route's basis, whose elements lie in J and lead with them; in a ring
    # with a variable named h, the reference names its new variable h_
    weights = data.draw(st.tuples(*[st.integers(0, 1)] * J.ring.nvars))
    elements, lts = lazard_reference(J, weights)
    gb = J.groebner()
    order = lazard_order(weights)
    for f, lt in zip(elements, lts, strict=True):
        assert normal_form(f, gb).is_zero()
        # lt leads f under the local order: least weight, then least degree, then revlex
        assert lt == max(f.terms, key=lambda m: order.key(m + (-sum(m),)))
    assert groebner.local_standard_basis(J, weights) == lts
    with pytest.MonkeyPatch.context() as m:
        runs = spy_lazard_runs(m)
        assert groebner.local_standard_basis(J, weights) == lts
        assert runs == []  # kept on J per weights
    other = tuple(1 - w for w in weights)
    assert groebner.local_standard_basis(J, other) == lazard_reference(J, other)[1]
    # the leading monomials generate L(J): with all weights 0 and a finite
    # staircase, their standard monomials count the local colength
    if not any(weights):
        try:
            count = len(groebner._standard_monomials(lts, J.ring.nvars, 1, weights))
        except NotLocallyFinite:
            return
        assert count == local_colength(J)


# ---------------------------------------------------------------------------
# bases of a + (F)·(H) from packed products

@st.composite
def _product_cases(draw):
    """(a, F, H, E) in 2-3 variables over F_32003 or QQ: a with up to two
    generators, F and H with one to three, E with one or two, all of degree
    <= 2 with up to three terms.  In half of the cases a, F and H are
    homogeneous.  E feeds the nested ideal K = a + (F)(H) + (E): its
    elements are random, or multiples of products, which keeps K = J."""
    field = draw(st.sampled_from([GF32003, QQ]))
    nvars = draw(st.integers(2, 3))
    ring = RingSpec(("x", "y", "z")[:nvars], field)
    homogeneous = draw(st.booleans())
    coeffs = st.integers(-3, 3).filter(bool).map(ring.field.of_int)
    mixed = [m for m in monomials_below_degree(nvars, 3) if sum(m)]

    def poly(monos=None):
        if monos is None:
            monos = list(monomials_of_degree(nvars, draw(st.integers(1, 2)))) if homogeneous else mixed
        return Polynomial(ring, draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3)))

    def polys(least, most):
        return [poly() for _ in range(draw(st.integers(least, most)))]

    a, F, H = IdealHandle(ring, polys(0, 2)), polys(1, 3), polys(1, 3)
    if draw(st.booleans()):
        E = [poly(mixed) for _ in range(draw(st.integers(1, 2)))]
    else:
        E = [draw(st.sampled_from(F)) * draw(st.sampled_from(H)) * poly(mixed)]
    return a, F, H, E


def _generator_list_basis(a, F, H):
    ring = a.ring
    return ideal_sum(a, ideal_product(IdealHandle(ring, F), IdealHandle(ring, H))).groebner()


def _basis(ring, gens):
    return IdealHandle(ring, gens).groebner()


@given(_product_cases())
@settings(max_examples=60, deadline=10000, derandomize=True)
def test_product_basis_matches_the_generator_list_basis(case):
    a, F, H, _ = case
    expected = _generator_list_basis(a, F, H).elements
    gb = product_basis(a, _basis(a.ring, F), H)
    assert gb.elements == expected
    # the basis keeps its packed elements as the next product's factors
    assert product_basis(a, gb, H).elements == _generator_list_basis(a, expected, H).elements


@given(_product_cases())
@settings(max_examples=60, deadline=10000, derandomize=True)
def test_product_equals_agrees_with_ideal_equal(case):
    a, F, H, E = case
    J = IdealHandle(a.ring, _generator_list_basis(a, F, H).elements)
    K = ideal_sum(J, IdealHandle(a.ring, E))  # J ⊆ K
    Fb = _basis(a.ring, F)
    assert product_equals(a, Fb, H, K.groebner()) == ideal_equal(J, K)
    assert product_equals(a, Fb, H, J.groebner())


def test_product_entries_are_checked_in_verify_mode(verify_mode, monkeypatch):
    a, F, H = ideal(R2, ["x^3"]), _basis(R2, [P("x"), P("y")]), [P("x + y"), P("y^2")]
    K = ideal(R2, ["x", "y^2"]).groebner()
    assert product_basis(a, F, H).elements == _generator_list_basis(a, F.elements, H).elements
    assert product_equals(a, F, H, K) is False
    # a wrong answer from the packed run is caught
    monkeypatch.setattr(groebner, "_product_gens", lambda pk, a, F, H: [pk.sorted_terms(g.terms) for g in a.generators])
    with pytest.raises(AssertionError, match="product basis"):
        product_basis(a, F, H)
    with pytest.raises(AssertionError, match="product equality"):
        product_equals(a, F, H, _generator_list_basis(a, F.elements, H))


def test_product_equals_stops_once_the_target_is_covered(monkeypatch):
    # J = (x^2 - y) + (1)·(xy): the S-pair of the two gives y^2, after which
    # L(J) = (x^2, xy, y^2) is covered and no further pair is reduced
    a, one, H = ideal(R2, ["x^2 - y"]), _basis(R2, [R2.one()]), [P("x*y")]
    K = _generator_list_basis(a, [R2.one()], H)
    assert K.leading_monomials == [(0, 2), (1, 1), (2, 0)]
    calls = []
    real = groebner._reduce_pairs

    def top_reductions(*args, full):
        calls.append(full)  # full=True reduces a tail
        return real(*args, full=full)

    monkeypatch.setattr(groebner, "_reduce_pairs", top_reductions)
    assert product_equals(a, one, H, K)
    assert calls == [False, False]  # xy against x^2 - y, then one S-pair
    calls.clear()
    assert product_basis(a, one, H).elements == K.elements
    assert calls.count(False) > 2


def test_product_degrees_outside_the_packed_range_raise(tmp_path, capsys, monkeypatch):
    a = IdealHandle(R2, [])
    F = _basis(R2, [P("x^20000")])
    assert product_basis(a, F, [P("x^12767 + y")]).elements == [P("x^32767 + x^20000*y")]
    with pytest.raises(PackedRangeExceeded):
        product_basis(a, F, [P("x^12768 + y")])
    with pytest.raises(PackedRangeExceeded):
        product_equals(a, _basis(R2, [P("y + x^20000")]), [P("x^12768")], maximal_ideal(R2).groebner())
    # a reduction certificate whose power chain reaches x^32768 ends in exit 3
    path = tmp_path / "reduction.json"
    path.write_text(json.dumps({
        "ring": {"variables": ["x", "y"], "field": "fp:32003"},
        "ideals": {"a": ["y^2"], "I": ["x^16384", "y"]},
        "quotients": {"A": {"defining": "a", "dim": 1}},
        "parameters": {"Q": {"quotient": "A", "lifts": ["x^16384"]}},
        "tasks": [{"command": "reduction", "quotient": "A", "params": "Q", "ideal": "I"}],
    }))
    assert main(["run", str(path)]) == 3
    assert "packed range" in capsys.readouterr().err
    # so does an ideal-hilb whose second power step reaches x^40000 in a
    # product of I's own generators: the step's packed-range route packs
    # the same product, and its one autoreduce is refused too
    autoreduced = []
    real = groebner.autoreduce
    monkeypatch.setattr(groebner, "autoreduce", lambda *a: autoreduced.append(a) or real(*a))
    path.write_text(json.dumps({
        "ring": {"variables": ["x", "y"], "field": "fp:32003"},
        "ideals": {"a": ["y^2"], "I": ["x^20000 + x^2", "y"]},
        "quotients": {"A": {"defining": "a", "dim": 1}},
        "tasks": [{"command": "ideal-hilb", "quotient": "A", "ideal": "I"}],
    }))
    assert main(["run", str(path)]) == 3
    assert "packed range" in capsys.readouterr().err
    assert len(autoreduced) == 1


def test_product_equals_decided_by_its_generators_builds_no_pair_set(monkeypatch):
    # the products of (x, y) and (x + y, y) lead with x^2, xy and y^2, so the
    # run is decided before any pair: Gebauer-Moeller never runs
    F, H = _basis(R2, [P("x"), P("y")]), [P("x + y"), P("y")]
    K = ideal(R2, ["x^2", "x*y", "y^2"]).groebner()
    a, one, H2 = ideal(R2, ["x^2 - y"]), _basis(R2, [R2.one()]), [P("x*y")]
    K2 = _generator_list_basis(a, [R2.one()], H2)

    def refuse(*args):
        raise AssertionError("a pair set was built")

    monkeypatch.setattr(groebner, "_gm_update", refuse)
    assert product_equals(IdealHandle(R2, []), F, H, K)
    # a run its generators leave undecided still builds its pairs
    with pytest.raises(AssertionError, match="pair set"):
        product_equals(a, one, H2, K2)


def _refuse_pairs(*args):
    raise AssertionError("a pair set was built")


@st.composite
def _monomial_inputs(draw):
    """(ring, order, generators): one to six monomials of degree <= 12, each
    times a nonzero coefficient, in 2-4 variables over F_32003 or QQ, under
    degrevlex, lex or an elimination order."""
    field = draw(st.sampled_from([GF32003, QQ]))
    nvars = draw(st.integers(2, 4))
    ring = RingSpec(("x", "y", "z", "w")[:nvars], field)
    order = draw(st.sampled_from([DEGREVLEX, LEX, elimination_order(1), elimination_order(2)]))
    coeffs = st.integers(-3, 3).filter(bool).map(field.of_int)
    monos = draw(st.lists(_exponents(nvars, 3), min_size=1, max_size=6))
    return ring, order, [Polynomial(ring, {m: draw(coeffs)}) for m in monos]


def _minimal_monomials(ring, monos, order):
    """The monomials of monos no other one divides, monic and ascending."""
    distinct = set(monos)
    minimal = [m for m in distinct if not any(o != m and mono_divides(o, m) for o in distinct)]
    return [ring.monomial(m) for m in sorted(minimal, key=order.key)]


@given(_monomial_inputs())
@settings(max_examples=100, deadline=5000, derandomize=True)
def test_monomial_ideals_are_based_by_their_minimal_generators(case):
    ring, order, gens = case
    expected = _minimal_monomials(ring, [next(iter(g.terms)) for g in gens], order)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner, "_gm_update", _refuse_pairs)
        assert IdealHandle(ring, gens).groebner(order).elements == expected


def test_monomial_runs_build_no_pair_set(monkeypatch):
    monkeypatch.setattr(groebner, "_gm_update", _refuse_pairs)
    # truncated below 4, x*y + x^5 keeps one term and x^6 none
    J = ideal(R2, ["x*y + x^5", "y^3 - x^4", "x^6"])
    assert J.truncated_groebner(4).elements == _minimal_monomials(R2, [(1, 1), (0, 3)], DEGREVLEX)
    assert colength_at_cutoff(J, 4) == truncation_colength_oracle(J, 4) == 6
    # certificates whose products and K are monomials: J = (x^2, xy, y^3)
    a, F, H = ideal(R2, ["x^3"]), _basis(R2, [P("x"), P("y")]), [P("x"), P("y^2")]
    J = ideal_sum(a, ideal_product(IdealHandle(R2, F.elements), IdealHandle(R2, H)))
    Ks = [ideal(R2, ["x^2", "x*y", "y^2"]), ideal(R2, ["y^3", "x*y", "x^2"])]
    assert [product_equals(a, F, H, K.groebner()) for K in Ks] == [ideal_equal(J, K) for K in Ks] == [False, True]


def test_monomial_ideals_need_no_pair_budget(monkeypatch):
    # they spend no pairs, so a zero budget no longer refuses them (exit 3)
    monkeypatch.setattr(groebner, "PAIR_BUDGET", 0)
    gb = ideal(R2, ["y^3", "2*x^2*y", "x*y", "x^2"]).groebner()
    assert [str(g) for g in gb.elements] == ["x*y", "x^2", "y^3"]
    with pytest.raises(ResourceLimit):
        ideal(R2, ["x^2 - y", "x*y"]).groebner()
