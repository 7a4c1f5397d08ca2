import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ring4, staged, two_planes
from hilbsam import groebner
from hilbsam.errors import NotLocallyFinite, ResourceLimit, ZeroDivisor
from hilbsam.exactalg import GF32003, QQ
from hilbsam.groebner import (
    IdealHandle,
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
    sat_quotient_length,
    saturate,
    truncation_colength_oracle,
)
from hilbsam.polyring import DEGREVLEX, LEX, RingSpec, mono_divides, mono_mul, parse_poly

R2 = RingSpec(("x", "y"), GF32003)


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
    for n in range(2, 9):
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
    # survives and the untruncated staircase is infinite
    A = two_planes(3)
    lifts = [
        "40*X^3 - 44*X^2*Y + 50*X*Y^2 - 45*Y^3 + 22*Z + 11*W",
        "-34*X^3 - 18*X^2*Y - 27*X*Y^2 + 9*Y^3 - 40*Z - 20*W",
    ]

    def no_ladder(*args):
        raise AssertionError("the truncation ladder ran")

    monkeypatch.setattr(groebner, "_ladder_colength_info", no_ladder)
    with pytest.raises(NotLocallyFinite):
        local_colength(ideal_sum(A.defining, ideal(A.ring, lifts)))


def test_infinite_staircase_off_the_origin_uses_the_ladder():
    # the hypersurface Z = 1 misses the origin: locally the ideal is m
    R = ring4()
    info = local_colength_info(intersect(maximal_ideal(R), ideal(R, ["Z - 1"])))
    assert info.value == 1
    assert info.window is not None


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


def test_sat_quotient_length_examples():
    # already saturated
    assert sat_quotient_length(ideal(R2, ["y"])) == 0
    # sat((x^2 y, y)) = (y): quotient vanishes
    assert sat_quotient_length(ideal(R2, ["x^2*y", "y"])) == 0
    # torsion of length 2 at the origin: (x^2, xy) = (x) cap (x^2, y)
    assert sat_quotient_length(ideal(R2, ["x^3", "x*y"])) == 2


def test_resource_limit():
    R = ring4()
    gens = ["X^3*Y + Z*W^2", "Y^3*Z + X*W^2", "Z^3 - X*Y*W"]
    with pytest.raises(ResourceLimit):
        ideal(R, gens).groebner(LEX, pair_budget=3)


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    import hilbsam.groebner as G

    monkeypatch.setenv("HILBSAM_GB_CACHE", str(tmp_path))
    R = ring4()
    gens = ["X^2*Z - W^3", "Y^2*Z", "X*W - Y*Z"]
    base = ideal(R, gens).groebner().elements
    assert any(tmp_path.iterdir()), "cache directory must be populated"
    G._GB_MEMO.clear()  # force the reload to come from disk
    again = ideal(R, gens).groebner().elements
    assert again == base


def test_disk_cache_write_is_atomic(tmp_path, monkeypatch):
    import hilbsam.groebner as G

    monkeypatch.setenv("HILBSAM_GB_CACHE", str(tmp_path))
    monkeypatch.setattr(G, "_GB_MEMO", {})

    def torn_dump(payload, fh):
        fh.write('{"elements": [')
        raise OSError("no space left on device")

    monkeypatch.setattr(G.json, "dump", torn_dump)
    gb = ideal(ring4(), ["X^2*Z - W^3", "Y^2*Z", "X*W - Y*Z"]).groebner()
    assert gb.elements  # the failed store does not affect the result
    assert list(tmp_path.iterdir()) == []  # neither a torn entry nor its temporary file


def test_disk_cache_ignores_entries_of_another_format_version(tmp_path, monkeypatch):
    import hilbsam.groebner as G

    monkeypatch.setenv("HILBSAM_GB_CACHE", str(tmp_path))
    monkeypatch.setattr(G, "_GB_MEMO", {})
    R = ring4()
    gens = ideal(R, ["X^2*Z - W^3", "Y^2*Z", "X*W - Y*Z"]).generators
    key = G._memo_key(R, DEGREVLEX, gens, None)
    version = G._DISK_CACHE_VERSION
    monkeypatch.setattr(G, "_DISK_CACHE_VERSION", "an-older-engine")
    IdealHandle(R, gens).groebner()
    assert G._disk_cache_load(key, R, DEGREVLEX, None) is not None
    monkeypatch.setattr(G, "_DISK_CACHE_VERSION", version)
    assert G._disk_cache_load(key, R, DEGREVLEX, None) is None


def test_rationals_agree_with_prime_field():
    for field in (GF32003, QQ):
        A = two_planes(2, field)
        c = ideal_sum(A.defining, ideal(A.ring, ["X^2", "Y^2", "Z", "W"]))
        assert local_colength(c) == 4


# ---------------------------------------------------------------------------
# the short-exponent-vector divisor test and the scans built on it

def _exponents(nvars, high=12):
    return st.tuples(*[st.integers(0, high)] * nvars)


@st.composite
def _divisor_cases(draw):
    """(nvars, leading monomials, m), with m often a multiple of one of them."""
    nvars = draw(st.integers(1, 4))
    lts = draw(st.lists(_exponents(nvars), max_size=8))
    m = draw(_exponents(nvars))
    if lts and draw(st.booleans()):
        m = mono_mul(draw(st.sampled_from(lts)), draw(_exponents(nvars, 3)))
    return nvars, lts, m


def _mask_passes(a, b):
    return not groebner._sev(a) & ~groebner._sev(b)


@given(_divisor_cases())
@settings(max_examples=300, deadline=1000)
def test_sev_mask_never_rejects_a_divisor(case):
    _nvars, lts, m = case
    for a in lts:
        if mono_divides(a, m):
            assert _mask_passes(a, m)
        if max(a) <= groebner._SEV_BITS:  # exact below the field width
            assert _mask_passes(a, m) == mono_divides(a, m)


@given(_divisor_cases())
@settings(max_examples=300, deadline=1000)
def test_find_reducer_matches_a_linear_scan(case):
    _nvars, lts, m = case
    elems = [groebner._Elem([(lt, 1)]) for lt in lts]
    first = next((e for e in elems if mono_divides(e.lt, m)), None)
    assert groebner._find_reducer(m, sum(m), elems) is first


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
