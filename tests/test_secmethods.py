from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    big_i, colon_by_elimination, fat_point, regular2, ring4, spy_power_chains, staged, two_planes,
)
from hilbsam import exactalg, groebner, hilbert, secmethods
from hilbsam.exactalg import GF32003, QQ, ExactMatrix, nullspace, rank
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
from hilbsam.polyring import Polynomial, parse_poly
from hilbsam.secmethods import (
    ActionPair,
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


def test_kernel_method_runs_no_dense_elimination(monkeypatch):
    # one sparse echelon basis serves the whole window, and the binomial fit
    # reads the integer difference table: no dense elimination at all
    C = artin_algebra(ring4(), ideal(ring4(), ["X^3", "Y^3", "Z", "W"]))
    act = action_pair(C, parse_poly(C.ring, "X-Z"), parse_poly(C.ring, "Y-W"))

    def refuse(m):
        raise AssertionError(f"dense elimination of a {m.rows} x {m.cols} matrix")

    monkeypatch.setattr(exactalg, "_rref", refuse)
    rep = e1_e2_via_kernel(C, act, 10, range(0, 12))
    assert (rep.e1, rep.e2) == (-3, -3)
    assert rep.annihilator_bound == tn_length(C, act, 0) == 1


def test_the_suite_runs_no_dense_elimination(monkeypatch):
    # _rref is left to nullspace, the tests' reference for rank
    from hilbsam.suite import run_paper_suite

    calls = []
    dense = exactalg._rref
    monkeypatch.setattr(exactalg, "_rref", lambda m: calls.append((m.rows, m.cols)) or dense(m))
    assert run_paper_suite(field="fp:32003", seed=0).ok
    assert calls == []


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


def _superficial_by_elimination(A, Q, a, window):
    """The windowed criterion of is_superficial on the raw lifts with the
    elimination colon."""
    zero_colon = colon_by_elimination(A.defining, a)
    powers = PowerChain(A, IdealHandle(A.ring, Q.lifts)).ideal
    for n in window:
        if not ideal_equal(colon_by_elimination(powers(n + 1), a), ideal_sum(powers(n), zero_colon)):
            return False
    return True


@pytest.mark.parametrize("A", [two_planes(2), two_planes(3), staged(2), staged(3)], ids=["A2", "A3", "staged2", "staged3"])
@pytest.mark.parametrize("lifts", [["X-Z", "Y-W"], ["X^2-Z", "Y-W"]], ids=["diagonal", "square"])
def test_chart_checkers_match_the_colon_criterion_on_the_raw_lifts(A, lifts):
    from hilbsam.transform import parameter_chart

    Q = parameter_ideal(A, lifts)
    assert parameter_chart(A.ring, Q.lifts) is not None
    window = range(2, 7)  # is_superficial's default
    assert is_d_sequence(A, list(Q.lifts), all_orders=True) == _d_sequence_by_elimination(A, Q.lifts)
    for a in Q.lifts:
        assert is_superficial(A, Q, a, window) == _superficial_by_elimination(A, Q, a, window)


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
    # a + Q^n I and a + I^{n+1} keep the radical of a + I: the two chains
    # are read in turn from n = 1, and once a chain's first ideal took the
    # global path, its later ones skip the nilpotency walk; a second call
    # on the same quotient object reads both chains of the first and walks
    # nothing
    walks = []
    real = groebner._global_zero_dim_colength
    monkeypatch.setattr(groebner, "_global_zero_dim_colength",
                        lambda J, support_at_origin=False: walks.append(support_at_origin) or real(J, support_at_origin))
    for lifts, n_max, lengths in [(["X^2-Z", "Y^2-W"], 4, {1: 2, 2: 3, 3: 4, 4: 5}),
                                  (["X*Y-Z", "X^2+Y^2-W"], 3, {1: 1, 2: 1, 3: 1})]:
        A = two_planes(2)
        I = big_i(A, 2)
        Q = parameter_ideal(A, lifts)
        walks.clear()
        assert sally_lengths(A, I, Q, n_max) == lengths
        assert walks == [False, False] + [True] * (2 * (n_max - 1))
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
