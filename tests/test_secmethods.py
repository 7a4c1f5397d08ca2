import json
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    big_i, colon_by_elimination, dense_eliminations_run, fat_point, nullspace, regular2, ring4,
    spy_power_chains, staged, two_planes,
)
from hilbsam import groebner, hilbert, secmethods
from hilbsam.exactalg import GF32003, QQ, ExactMatrix, rank
from hilbsam.groebner import (
    IdealHandle,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    local_colength,
    maximal_ideal,
    member,
    normal_form,
)
from hilbsam.hilbert import (
    PowerChain,
    hilbert_report,
    is_reduction,
    parameter_ideal,
    sample_reductions,
)
from hilbsam.polyring import Polynomial, RingSpec, monomials_below_degree, parse_poly
from hilbsam.problem import load_problem, run_problem
from hilbsam.secmethods import (
    ActionPair,
    ArtinAlgebra,
    action_pair,
    annihilator_length,
    artin_algebra,
    e1_e2_via_kernel,
    e1_via_slice,
    is_d_sequence,
    is_superficial,
    k_plus_j_analysis,
    sally_lengths,
    sally_rank,
    tn_length,
    unmixed_component,
)


def test_artin_algebra_examples():
    R = ring4()
    C = artin_algebra(R, maximal_ideal(R))
    assert C.dim == 1
    assert all(C.action_matrix(R.variable(i)).is_zero() for i in range(4))
    C4 = artin_algebra(R, ideal(R, ["X^2", "Y^2", "Z", "W"]))
    assert C4.dim == 4
    assert C4.basis == [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)]
    # multiplication relations: x * (xy) = 0 and y * x = xy
    x, y = R.variable("X"), R.variable("Y")
    xy = R.monomial((1, 1, 0, 0))
    assert normal_form(x * xy, C4.gb).is_zero()
    assert normal_form(y * x, C4.gb) == xy


@pytest.mark.parametrize("gens, window, basis", [
    # m-primary: the untruncated basis
    (["X^2", "Y^3", "Z - X*Y", "W^2"], None,
     [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1),
      (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (0, 2, 0, 0), (0, 1, 1, 1), (0, 2, 0, 1)]),
    # a second point at X = 1: the truncated basis at the local path's
    # certifying cutoff, one past the staircase's top degree 2
    (["X^2*(X-1)", "Y^2", "Z", "W"], 3, [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)]),
], ids=["global", "ladder"])
def test_artin_algebra_takes_its_colength_from_the_colength_layer(monkeypatch, gens, window, basis):
    infos = []
    real = secmethods.local_colength_info
    monkeypatch.setattr(secmethods, "local_colength_info", lambda *a: infos.append(real(*a)) or infos[-1])
    R = ring4()
    C = artin_algebra(R, ideal(R, gens))
    assert [info.window for info in infos] == [window]
    assert C.basis == basis and C.dim == infos[0].value
    assert C.gb.trunc_degree == window


def test_mult_ops_commute_and_kill_relations():
    R = ring4()
    C = artin_algebra(R, ideal(R, ["X^2", "Y^3", "Z - X*Y", "W^2"]))
    mats = [C.action_matrix(R.variable(i)) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert mats[i].matmul(mats[j]) == mats[j].matmul(mats[i])
    for g in C.gb.elements:
        assert C.action_matrix(g).is_zero()


# non-monomial presentations with a monomial basis element: one on the
# global path, one (a second point at x = 1) on the truncated basis
_ALGEBRAS = {
    "global": ["x^2 - y*z", "y^2 + x*z", "z^3"],
    "truncated": ["x^3 - x^2 + y*z", "y^2 - x*z", "z^2"],
}


def _columns_reference(C, f):
    """The action matrix of f from one coords(f * b) per basis monomial b."""
    cols = [C.coords(f * C.ring.monomial(b)) for b in C.basis]
    return [[cols[j][i] for j in range(C.dim)] for i in range(C.dim)]


@given(st.sampled_from([GF32003, QQ]), st.sampled_from(sorted(_ALGEBRAS)), st.data())
@settings(max_examples=40, deadline=10000, derandomize=True)
def test_action_matrices_match_their_columns(field, kind, data):
    # column j of the action of f is read off the standard monomials, the
    # monomial basis elements and one normal form per other monomial; it
    # must be the class of f * b_j in the basis
    R = RingSpec(("x", "y", "z"), field)
    C = artin_algebra(R, ideal(R, _ALGEBRAS[kind]))
    assert (C.gb.trunc_degree is None) == (kind == "global")
    coeffs = st.integers(-3, 3).filter(bool).map(field.of_int)
    f = Polynomial(R, data.draw(st.dictionaries(
        st.sampled_from(list(monomials_below_degree(3, 4))), coeffs, min_size=1, max_size=4)))
    assert C.action_matrix(f).data == _columns_reference(C, f)


@pytest.mark.parametrize("kind", sorted(_ALGEBRAS))
def test_action_matrices_are_checked_in_verify_mode(verify_mode, monkeypatch, kind):
    R = RingSpec(("x", "y", "z"), QQ)
    C = artin_algebra(R, ideal(R, _ALGEBRAS[kind]))
    f = parse_poly(R, "x*y - 2*z + x^2")
    assert C.action_matrix(f).data == _columns_reference(C, f)
    # a reference that differs from the lookups is caught
    monkeypatch.setattr(ArtinAlgebra, "coords", lambda self, g: [R.field.one] * self.dim)
    with pytest.raises(AssertionError, match="disagrees with its columns"):
        C.action_matrix(f)


def test_a_monomial_algebra_takes_no_normal_form(monkeypatch):
    # the work-counter gate: on C = R/(X^l, Y^l, Z, W) every product t * b
    # is standard or in (X^l, Y^l, Z, W), and every variable has a power
    # among the basis elements, so kernel-e1 reduces nothing
    calls = []
    real = groebner.normal_form
    for module in (groebner, hilbert, secmethods):
        if getattr(module, "normal_form", None) is real:
            monkeypatch.setattr(module, "normal_form", lambda *a: calls.append(a) or real(*a))
    doc = {
        "ring": {"variables": ["X", "Y", "Z", "W"], "field": "fp:32003"},
        "ideals": {"c": ["X^4", "Y^4", "Z", "W"]},
        "artinian": {"C": {"ideal": "c"}},
        "tasks": [{"name": "k", "command": "kernel-e1", "artinian": "C", "a": "X-Z", "b": "Y-W",
                   "e0": 17, "expect": [-4, -6]}],
    }
    assert run_problem(load_problem(doc)).ok
    assert calls == []


def test_tn_length_degenerate_action():
    R = ring4()
    C = artin_algebra(R, ideal(R, ["X^2", "Y^2", "Z", "W"]))
    zero_pair = action_pair(C, R.zero() + parse_poly(R, "Z"), parse_poly(R, "W"))
    assert zero_pair.op_a.is_zero() and zero_pair.op_b.is_zero()
    for n in range(4):
        assert tn_length(C, zero_pair, n) == (n + 1) * C.dim


def test_tn_length_formula():
    # dim T_n = (n+1) l - l(l-1)/2 for the diagonal parameters
    R = ring4()
    for l, start in ((2, 1), (3, 4)):
        C = artin_algebra(R, ideal(R, [f"X^{l}", f"Y^{l}", "Z", "W"]))
        act = action_pair(C, parse_poly(R, "X-Z"), parse_poly(R, "Y-W"))
        for n in range(start, start + 3):
            assert tn_length(C, act, n) == (n + 1) * l - l * (l - 1) // 2


def _block_matrix(act: ActionPair, n: int) -> ExactMatrix:
    """The (n+2)c x (n+1)c block matrix built explicitly: op_a on the
    diagonal blocks, op_b on the subdiagonal blocks."""
    a, b = act.op_a, act.op_b
    c, F = a.cols, a.field
    data = [[F.zero] * ((n + 1) * c) for _ in range((n + 2) * c)]
    for j in range(n + 1):
        for r in range(c):
            for k in range(c):
                data[j * c + r][j * c + k] = a.data[r][k]
                data[(j + 1) * c + r][j * c + k] = b.data[r][k]
    return ExactMatrix(F, data, (n + 1) * c)


@st.composite
def _action_pairs(draw):
    """Random c x c action pairs, c <= 5, sparse small entries, over F_32003
    or QQ; the two actions need not commute."""
    field = draw(st.sampled_from([GF32003, QQ]))
    c = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 7])

    def op():
        rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=c, max_size=c))
        return ExactMatrix(field, [[field.of_int(x) for x in row] for row in rows], c)

    return ActionPair(op(), op())


@given(_action_pairs())
@settings(max_examples=40, deadline=2000)
def test_incremental_tn_lengths_match_the_dense_block_matrix(act):
    lengths = secmethods._tn_lengths(act)
    for n in range(6):
        assert next(lengths) == len(nullspace(_block_matrix(act, n))), n


def test_kernel_method_runs_no_dense_elimination():
    # one sparse echelon basis serves the whole window, and the binomial fit
    # reads the integer difference table: no dense elimination at all
    C = artin_algebra(ring4(), ideal(ring4(), ["X^3", "Y^3", "Z", "W"]))
    act = action_pair(C, parse_poly(C.ring, "X-Z"), parse_poly(C.ring, "Y-W"))
    rep, dense = dense_eliminations_run(e1_e2_via_kernel, C, act, 10, range(0, 12))
    assert dense == []
    assert (rep.e1, rep.e2) == (-3, -3)
    assert rep.annihilator_bound == tn_length(C, act, 0) == 1
    # the tracer sees the tests' reference, the one dense elimination left
    _, dense = dense_eliminations_run(nullspace, _block_matrix(act, 2))
    assert dense == ["helpers.rref"]


def test_the_suite_runs_no_dense_elimination():
    from hilbsam.suite import run_paper_suite

    report, dense = dense_eliminations_run(run_paper_suite, field="fp:32003", seed=0)
    assert report.ok
    assert dense == []


def test_kernel_e1_e2_examples():
    R = ring4()
    C = artin_algebra(R, ideal(R, ["X^2", "Y^2", "Z", "W"]))
    act = action_pair(C, parse_poly(R, "X-Z"), parse_poly(R, "Y-W"))
    rep = e1_e2_via_kernel(C, act, 5)
    assert (rep.e1, rep.e2) == (-2, -1)
    assert rep.algebra_length == 4 and rep.annihilator_bound == 1
    # annihilated module: e1 = -l(C), e2 = 0
    dead = action_pair(C, parse_poly(R, "X^2-Z"), parse_poly(R, "Y^2-W"))
    rep0 = e1_e2_via_kernel(C, dead, 8)
    assert (rep0.e1, rep0.e2) == (-4, 0)
    # one factor acts as zero: e1 = -l((0) : other), e2 = 0
    half = action_pair(C, parse_poly(R, "X^2+Y^2-W"), parse_poly(R, "X*Y-Z"))
    assert half.op_a.is_zero()
    rep1 = e1_e2_via_kernel(C, half, 8)
    assert (rep1.e1, rep1.e2) == (-3, 0)
    assert rep1.e1 == -annihilator_length(C, parse_poly(R, "X*Y-Z"))


def test_kernel_bounds_always_hold():
    R = ring4()
    for l in (1, 2, 3):
        C = artin_algebra(R, ideal(R, [f"X^{l}", f"Y^{l}", "Z", "W"]))
        act = action_pair(C, parse_poly(R, "X-Z"), parse_poly(R, "Y-W"))
        rep = e1_e2_via_kernel(C, act, l * l + 1)
        assert -rep.algebra_length <= rep.e1 <= -rep.annihilator_bound


def test_annihilator_length_examples():
    R = ring4()
    C = artin_algebra(R, ideal(R, ["X^2", "Y^2", "Z", "W"]))
    assert annihilator_length(C, R.zero()) == C.dim
    assert annihilator_length(C, parse_poly(R, "1 + X")) == 0  # unit acts invertibly
    assert annihilator_length(C, parse_poly(R, "X*Y-Z")) == 3
    # rank-nullity restated: l((0):f) = dim - rank = l(C/fC)
    f = parse_poly(R, "X + Y")
    m = C.action_matrix(f)
    assert annihilator_length(C, f) == C.dim - rank(m)


def test_e1_via_slice_examples():
    # staged ring with n = 2: a generic sampled reduction generator gives -1
    A = staged(2)
    ((q, _),), _ = sample_reductions(A, maximal_ideal(A.ring), 1, seed=4)
    assert e1_via_slice(A, q.lifts[0]) == -1
    # two-planes ring with n = 2: -2
    A2 = two_planes(2)
    ((q2, _),), _ = sample_reductions(A2, maximal_ideal(A2.ring), 1, seed=4)
    assert e1_via_slice(A2, q2.lifts[0]) == -2
    # Cohen-Macaulay: 0
    A3 = regular2()
    q3 = parameter_ideal(A3, ["x", "y"])
    assert e1_via_slice(A3, q3.lifts[0]) == 0


def test_slice_agrees_with_fit_on_samples():
    for A in (staged(2), two_planes(2), fat_point(2)):
        ((q, _),), _ = sample_reductions(A, maximal_ideal(A.ring), 1, seed=8)
        rep = hilbert_report(A, q, 5)
        assert e1_via_slice(A, q.lifts[0]) == rep.coeffs[1]


def test_is_d_sequence_examples(verify_mode):
    A = regular2()
    xy = [A.ring.variable("x"), A.ring.variable("y")]
    assert is_d_sequence(A, xy)
    assert is_d_sequence(A, xy, all_orders=True)
    # sampled reduction pairs of m on the fat-point ring are d-sequences
    Af = fat_point(2)
    found, _ = sample_reductions(Af, maximal_ideal(Af.ring), 2, seed=21)
    for q, _ in found:
        assert is_d_sequence(Af, list(q.lifts))
    # the diagonal parameters on the two-planes ring are not
    At = two_planes(2)
    diag = [parse_poly(At.ring, "X-Z"), parse_poly(At.ring, "Y-W")]
    assert not is_d_sequence(At, diag)


def test_unmixed_component_examples():
    # Cohen-Macaulay: U(a) = (a)
    A = regular2()
    x, y = A.ring.variable("x"), A.ring.variable("y")
    U = unmixed_component(A, x, y)
    assert ideal_equal(U, ideal(A.ring, ["x"]))
    # fat-point ring: l(U(a)/(a)) = 2 for reduction generators of m
    Af = fat_point(2)
    ((q, _),), _ = sample_reductions(Af, maximal_ideal(Af.ring), 1, seed=13)
    a, b = q.lifts
    U = unmixed_component(Af, a, b)
    assert member(a, U)
    from hilbsam.groebner import sat_quotient_length

    assert sat_quotient_length(ideal_sum(Af.defining, IdealHandle(Af.ring, [a]))) == 2
    # U(a) is integral over (a): (a) is a reduction of U(a) in A
    aI = IdealHandle(Af.ring, [a])
    power = IdealHandle(Af.ring, [Af.ring.one()])
    witnessed = False
    for n in range(8):
        from hilbsam.groebner import autoreduce

        nxt = IdealHandle(Af.ring, autoreduce(Af.ring, [f * g for f in power.generators for g in U.generators]))
        lhs = ideal_sum(Af.defining, nxt)
        rhs = ideal_sum(Af.defining, ideal_product(aI, power))
        if ideal_equal(lhs, rhs):
            witnessed = True
            break
        power = nxt
    assert witnessed, "U(a) must have (a) as a reduction"


def test_is_superficial_examples(verify_mode):
    A = regular2()
    Q = parameter_ideal(A, ["x", "y"])
    assert is_superficial(A, Q, A.ring.variable("x"))
    At = two_planes(2)
    Qp = parameter_ideal(At, ["X*Y-Z", "X^2+Y^2-W"])
    assert not is_superficial(At, Qp, parse_poly(At.ring, "X^2+Y^2-W"))
    Q2 = parameter_ideal(At, ["X^2-Z", "Y^2-W"])
    assert is_superficial(At, Q2, parse_poly(At.ring, "X^2-Z"))


def test_chart_checkers_take_no_elimination(monkeypatch):
    # in a chart every colon is by a variable or a product of two
    A = two_planes(2)
    Q = parameter_ideal(A, ["X-Z", "Y-W"])
    diag = list(Q.lifts)

    def refuse(*args):
        raise AssertionError("an elimination basis was built")

    monkeypatch.setattr(groebner, "_eliminate", refuse)
    assert not is_d_sequence(A, diag, all_orders=True)
    assert is_superficial(A, Q, diag[0])


def _d_sequence_by_elimination(A, elems):
    """The colon criterion of is_d_sequence, over every order, on the given
    elements with the elimination colon."""
    for seq in permutations(elems):
        for i in range(1, len(seq) + 1):
            prefix = ideal_sum(A.defining, IdealHandle(A.ring, seq[: i - 1]))
            for j in range(i, len(seq) + 1):
                lhs = colon_by_elimination(prefix, seq[i - 1] * seq[j - 1])
                if not ideal_equal(lhs, colon_by_elimination(prefix, seq[j - 1])):
                    return False
    return True


def _embedded(nvars: int, dim: int):
    """k[x, y(, z)]/(x^2, x*y): an embedded component at the origin."""
    R = RingSpec(("x", "y", "z")[:nvars], GF32003)
    return hilbert.QuotientRingSpec(R, ideal(R, ["x^2", "x*y"]), dim)


@pytest.mark.parametrize("A, elems, charted", [
    (two_planes(2), ["X-Z", "Y-W"], True),
    (two_planes(2), ["X^2-Z", "Y^2-W"], True),
    (staged(2), ["X^2-Z", "Y-W"], True),
    (fat_point(2), ["X-Z", "Y-W"], True),
    (_embedded(3, 2), ["y - x", "z"], True),
    (_embedded(2, 1), ["y"], True),  # a d-sequence and no regular sequence
    (regular2(), ["x^2 + y^2", "x*y"], False),
    (regular2(), ["x", "x*y"], False),
    (_embedded(3, 2), ["y^2", "z + x"], False),
], ids=["planes-diagonal", "planes-square", "staged", "fat-point", "embedded", "embedded-y",
        "forms", "x-xy", "embedded-forms"])
def test_d_sequence_verdicts_match_the_colon_by_the_product(A, elems, charted):
    # is_d_sequence compares (P : e_j) : e_i with P : e_j; the reference
    # compares P : e_i e_j with P : e_j, by eliminations on the raw
    # elements, charted or not
    from hilbsam.transform import parameter_chart

    elems = [parse_poly(A.ring, e) for e in elems]
    assert (parameter_chart(A.ring, elems) is not None) == charted
    assert is_d_sequence(A, elems, all_orders=True) == _d_sequence_by_elimination(A, elems)


def _superficial_by_elimination(A, Q, a, last):
    """The criterion of is_superficial at n = 0..last, one verdict per n,
    compared as ideals of R: on the raw lifts, with the elimination colon."""
    zero_colon = colon_by_elimination(A.defining, a)
    powers = PowerChain(A, IdealHandle(A.ring, Q.lifts)).ideal
    return [ideal_equal(colon_by_elimination(powers(n + 1), a), ideal_sum(powers(n), zero_colon))
            for n in range(last + 1)]


@pytest.mark.parametrize("A", [two_planes(2), two_planes(3), staged(2), staged(3)], ids=["A2", "A3", "staged2", "staged3"])
@pytest.mark.parametrize("lifts", [["X-Z", "Y-W"], ["X^2-Z", "Y-W"]], ids=["diagonal", "square"])
def test_chart_checkers_match_the_colon_criterion_on_the_raw_lifts(A, lifts):
    # a + Q is supported at the origin alone, so the lengths at the origin
    # decide what the ideals of R do; the elements are the lifts (also on
    # is_superficial's default window), their sum, X times a lift and the
    # product of the lifts (in Q^2: False from n = 1)
    from hilbsam.transform import parameter_chart

    Q = parameter_ideal(A, lifts)
    assert parameter_chart(A.ring, Q.lifts) is not None
    assert is_d_sequence(A, list(Q.lifts), all_orders=True) == _d_sequence_by_elimination(A, Q.lifts)
    f, g = Q.lifts
    answers = set()
    for a in (f, g, f + g, A.ring.variable("X") * f, f * g):
        windows = [range(0, 3), range(1, 4)] + [range(2, 7)] * (a in Q.lifts)
        verdicts = _superficial_by_elimination(A, Q, a, windows[-1].stop - 1)
        for window in windows:
            answer = is_superficial(A, Q, a, window)
            assert answer == all(verdicts[n] for n in window), (a, window)
            answers.add(answer)
    assert answers == {True, False}


def test_chartless_superficiality_matches_the_colon_criterion():
    # no chart: the lengths are colengths of the chain of a + Q^n plus (a)
    # or plus (a : a)
    from hilbsam.transform import parameter_chart

    A = regular2()
    Q = parameter_ideal(A, ["x^2 + y^2", "x*y"])
    assert parameter_chart(A.ring, Q.lifts) is None
    for a, last, expected in [(Q.lifts[0], 4, True), (parse_poly(A.ring, "x^3 + x*y^2"), 3, False)]:
        window = range(1, last + 1)
        assert is_superficial(A, Q, a, window) is expected
        assert all(_superficial_by_elimination(A, Q, a, last)[1:]) is expected


def test_an_element_outside_q_is_refused(tmp_path, capsys):
    A = two_planes(2)
    Q = parameter_ideal(A, ["X-Z", "Y-W"])
    for a in ("X", "X^2-Z"):  # X^2 - Z = X^2 - X modulo Q: a unit times X
        with pytest.raises(ValueError, match="is not in Q"):
            is_superficial(A, Q, parse_poly(A.ring, a))
    Ar = regular2()
    with pytest.raises(ValueError, match="is not in Q"):
        is_superficial(Ar, parameter_ideal(Ar, ["x^2", "y^2"]), parse_poly(Ar.ring, "x"))
    from hilbsam.cli import main

    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "ring": {"variables": ["X", "Y", "Z", "W"], "field": "fp:32003"},
        "ideals": {"planes": {"intersect": [["X^2", "Y^2"], ["Z", "W"]]}},
        "quotients": {"A": {"defining": "planes", "dim": 2}},
        "parameters": {"Q": {"quotient": "A", "lifts": ["X-Z", "Y-W"]}},
    }))
    assert main(["superficial", "--file", str(path), "--quotient", "A", "--params", "Q", "--a", "X"]) == 2
    assert "is not in Q" in capsys.readouterr().err


def test_superficiality_takes_both_sources_in_verify_mode(verify_mode, monkeypatch):
    # in a chart under verify mode the walks and the colengths of the chain
    # both run, and a disagreement is an AssertionError
    A = two_planes(2)
    Q = parameter_ideal(A, ["X-Z", "Y-W"])
    walks = _spy_calls(monkeypatch, hilbert, "_chart_colengths")
    colengths = _spy_calls(monkeypatch, hilbert, "local_colength_info")
    assert is_superficial(A, Q, Q.lifts[0])
    assert len(walks) == 3 and colengths
    assert not is_superficial(A, Q, A.ring.variable("X") * Q.lifts[0], range(0, 3))
    monkeypatch.setattr(hilbert, "_chart_colengths", lambda J, weights, n_max: dict.fromkeys(range(n_max + 1), 0))
    with pytest.raises(AssertionError, match="local standard basis gives"):
        is_superficial(A, Q, Q.lifts[1])


def test_a_regular_element_walks_no_colon(monkeypatch):
    # X - Z is regular on the two planes: its colon is the chart's defining
    # ideal, so C = H with two walks, not three; the zero divisor
    # X*(X - Z) walks its colon.  In verify mode the colon is walked anyway
    # and must give H, so a regularity verdict given to X*(X - Z) is caught
    A = two_planes(2)
    Q = parameter_ideal(A, ["X-Z", "Y-W"])
    walks = _spy_calls(monkeypatch, hilbert, "_chart_colengths")
    assert is_superficial(A, Q, Q.lifts[0]) and len(walks) == 2
    zero_divisor = A.ring.variable("X") * Q.lifts[0]
    assert not is_superficial(A, Q, zero_divisor, range(0, 3)) and len(walks) == 5
    monkeypatch.setattr(groebner, "VERIFY", True)
    monkeypatch.setattr(secmethods, "member", lambda f, I: True)
    with pytest.raises(AssertionError, match="is regular in A"):
        is_superficial(A, Q, zero_divisor, range(0, 3))


def test_a_charted_superficiality_check_takes_two_local_bases_and_a_colon(monkeypatch):
    # the work-counter gate: three walks in Q's chart, no power chain, and
    # at most five engine runs (the colon by a pivot's three and two local
    # standard bases)
    A = two_planes(2)
    Q = parameter_ideal(A, ["X-Z", "Y-W"])
    chains = spy_power_chains(monkeypatch)
    runs = _spy_calls(monkeypatch, groebner, "_engine")
    assert is_superficial(A, Q, parse_poly(A.ring, "X-Z"))
    assert chains == [] and len(runs) <= 5


def test_a_d_sequence_and_a_superficiality_check_share_the_chart(monkeypatch):
    # the quotient keeps one chart per lifts: the d-sequence check on Q's
    # lifts reads the chart parameter_ideal made, and the superficiality
    # check then finds the colon by the pivot on the chart's defining
    # ideal, which is that ideal itself (the pivot is regular), so only
    # a + (a) takes a local basis; a d-sequence check on loose elements
    # builds no local basis
    charts = _spy_calls(monkeypatch, hilbert, "parameter_chart")
    bases = _spy_calls(monkeypatch, hilbert, "local_standard_basis")
    A = two_planes(2)
    Q = parameter_ideal(A, ["X-Z", "Y-W"])
    assert len(bases) == 1
    assert not is_d_sequence(A, [parse_poly(A.ring, "X-Z"), parse_poly(A.ring, "Y-W")], all_orders=True)
    assert len(bases) == 1
    runs = _spy_calls(monkeypatch, groebner, "_engine")
    assert is_superficial(A, Q, parse_poly(A.ring, "X-Z"))
    assert len(charts) == 1 and len(runs) == 1  # the local basis of a + (a)
    built = len(bases)
    A = two_planes(2)
    assert not is_d_sequence(A, [parse_poly(A.ring, "X-Z"), parse_poly(A.ring, "Y-W")])
    assert len(charts) == 2 and len(bases) == built


def _spy_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_chartless_checkers_on_form_parameters():
    # no isolated linear variables: the checkers run untransformed
    from hilbsam.transform import parameter_chart

    A = regular2()
    lifts = [parse_poly(A.ring, "x^2 + y^2"), parse_poly(A.ring, "x*y")]
    assert parameter_chart(A.ring, lifts) is None
    Q = parameter_ideal(A, lifts)
    assert is_d_sequence(A, lifts)  # regular sequence in a regular ring
    assert is_superficial(A, Q, lifts[0], range(2, 5))
    assert e1_via_slice(A, lifts[0]) == 0
    assert sally_lengths(A, IdealHandle(A.ring, lifts), Q, 2) == {1: 0, 2: 0}


def test_sally_lengths_examples():
    A = two_planes(2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    # I = Q: the module vanishes
    assert sally_lengths(A, IdealHandle(A.ring, Q.lifts), Q, 3) == {1: 0, 2: 0, 3: 0}
    I = big_i(A, 2)
    assert sally_lengths(A, I, Q, 4) == {1: 2, 2: 3, 3: 4, 4: 5}
    Qp = parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"])
    assert sally_lengths(A, I, Qp, 4) == {1: 1, 2: 1, 3: 1, 4: 1}


def test_sally_lengths_accept_the_known_certificate(monkeypatch):
    # the lengths need Q to be a reduction, not its least certificate: once
    # the chain of (A, I) knows the certificate 2, a second Sally task
    # accepts it with one product_equals run instead of also trying n = 1
    A = two_planes(2)
    I = big_i(A, 2)
    assert sally_lengths(A, I, parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"]), 4) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert A.chain(I).known == 2
    runs = []
    real = hilbert.product_equals
    monkeypatch.setattr(hilbert, "product_equals", lambda *a: runs.append(a) or real(*a))
    assert sally_lengths(A, I, parameter_ideal(A, ["X^2-Z", "Y^2-W"]), 4) == {1: 2, 2: 3, 3: 4, 4: 5}
    assert len(runs) == 1


def test_sally_lengths_walk_the_support_once_per_chain(monkeypatch):
    # the first call walks each ideal of the chains of a + Q^n I and
    # a + I^{n+1}, n = 1..n_max, once; the chains keep their colengths, so
    # a second call on the same quotient object walks nothing
    walks = []
    real = groebner._global_zero_dim_colength
    monkeypatch.setattr(groebner, "_global_zero_dim_colength", lambda J: walks.append(J) or real(J))
    for lifts, n_max, lengths in [(["X^2-Z", "Y^2-W"], 4, {1: 2, 2: 3, 3: 4, 4: 5}),
                                  (["X*Y-Z", "X^2+Y^2-W"], 3, {1: 1, 2: 1, 3: 1})]:
        A = two_planes(2)
        I = big_i(A, 2)
        Q = parameter_ideal(A, lifts)
        walks.clear()
        assert sally_lengths(A, I, Q, n_max) == lengths
        assert len(walks) == len(set(map(id, walks))) == 2 * n_max
        walks.clear()
        assert sally_lengths(A, I, Q, n_max) == lengths
        assert walks == []


@pytest.mark.parametrize("n", [3, 4])
def test_sally_lengths_beyond_the_suite(n):
    # l(I^{k+1}/Q^k I) = C(n, 2)(k + 1) on the counterexample family, k = 1..2n;
    # at n = 3 each length is checked against raw products and powers
    A = two_planes(n)
    I = big_i(A, n)
    Q = parameter_ideal(A, [f"X^{n}-Z", f"Y^{n}-W"])
    lengths = sally_lengths(A, I, Q, 2 * n)
    assert lengths == {k: comb(n, 2) * (k + 1) for k in range(1, 2 * n + 1)}
    if n == 3:
        Qh = IdealHandle(A.ring, Q.lifts)
        for k, length in lengths.items():
            qk_i = local_colength(A.plus(ideal_product(ideal_power(Qh, k), I)))
            assert length == qk_i - local_colength(A.plus(ideal_power(I, k + 1))), k


def test_one_power_chain_per_call_in_the_coordinates_of_a(monkeypatch):
    # Sally lengths read two chains, both in A; the Sally rank and k + J
    # read the chain of (A, I) that the Sally lengths built, for the
    # certificates and the colengths; the slice substitutes into no chart
    A = two_planes(2)
    I = big_i(A, 2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    chains = spy_power_chains(monkeypatch)
    assert sally_lengths(A, I, Q, 3) == {1: 2, 2: 3, 3: 4}
    assert [c.A is A for c in chains] == [True, True]
    assert chains[0].I is I and chains[1].I.generators == Q.lifts
    assert list(A._chains.values()) == chains
    for run in (lambda: sally_rank(A, I, Q), lambda: k_plus_j_analysis(A, I, [("Q", Q)])):
        run()
        assert len(chains) == 2

    def refuse(*args):
        raise AssertionError("a polynomial was substituted into a chart")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    assert e1_via_slice(A, parse_poly(A.ring, "X^2-Z")) == -4


def test_charted_checkers_reuse_the_chart_of_the_spec(monkeypatch):
    # parameter_ideal charts Q once; the superficiality check reads that
    # chart for the same A instead of charting again, and the slice and
    # Sally methods chart nothing
    A = two_planes(2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    charts = []
    real = hilbert.parameter_chart
    monkeypatch.setattr(hilbert, "parameter_chart", lambda *a: charts.append(a) or real(*a))
    a = parse_poly(A.ring, "X^2-Z")
    assert e1_via_slice(A, a) == hilbert_report(A, Q, 5).coeffs[1] == -4
    assert is_superficial(A, Q, a)
    assert sally_lengths(A, big_i(A, 2), Q, 2) == {1: 2, 2: 3}
    assert charts == []


def test_sally_rank_examples():
    # I = Q: every term of the bookkeeping identity cancels (Cohen-Macaulay
    # setting, where l(A/Q) is the multiplicity)
    Acm = regular2()
    Qcm = parameter_ideal(Acm, ["x", "y"])
    assert sally_rank(Acm, IdealHandle(Acm.ring, Qcm.lifts), Qcm).rank == 0
    A = two_planes(2)
    I = big_i(A, 2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    Qp = parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"])
    r = sally_rank(A, I, Q)
    assert (r.rank, r.e0_i, r.e1_i, r.colength_i) == (1, 8, 2, 3)
    assert sally_rank(A, I, Qp).rank == 0


def test_sally_rank_difference_identity():
    # rank(Q) - rank(Q') = n - 1 on the counterexample family
    for n in (2, 3):
        A = two_planes(n)
        I = big_i(A, n)
        Q = parameter_ideal(A, [f"X^{n}-Z", f"Y^{n}-W"])
        Qp = parameter_ideal(A, [f"X*Y^{n-1}-Z", f"X^{n}+Y^{n}-W"])
        rq = sally_rank(A, I, Q, 6)
        rqp = sally_rank(A, I, Qp, 6)
        assert rq.rank == rqp.rank + (n - 1)


def test_k_plus_j_analysis(monkeypatch):
    B = two_planes(2)
    J = big_i(B, 2)
    Q = parameter_ideal(B, ["X^2-Z", "Y^2-W"])
    Qp = parameter_ideal(B, ["X*Y-Z", "X^2+Y^2-W"])
    chains = spy_power_chains(monkeypatch)
    rep = k_plus_j_analysis(B, J, [("Q", Q), ("Qp", Qp)])
    assert [c.I is J for c in chains] == [True]  # the lengths l(B/J^{n+1}) are sampled once
    assert rep.coeffs == (8, 2, -6)
    assert rep.identity_value == -5
    ranks = {e.name: e.rank for e in rep.entries}
    e1s = {e.name: e.e1_derived for e in rep.entries}
    assert ranks == {"Q": 1, "Qp": 0}
    assert e1s == {"Q": -6, "Qp": -5}
    for e in rep.entries:
        assert e1s[e.name] + ranks[e.name] == rep.identity_value
    with pytest.raises(ValueError, match=r"named ideal 'Q': no certificate I\^\{n\+1\} = Q I\^n with n <= 8"):
        k_plus_j_analysis(B, maximal_ideal(B.ring), [("Q", Q)])
