import sys
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import big_i, fat_point, regular2, spy_lazard_runs, spy_power_chains, staged, two_planes
from hilbsam import groebner, hilbert
from hilbsam.errors import NoPolynomialTail, NotLocallyFinite, PackedRangeExceeded, ResourceLimit, SamplingExhausted
from hilbsam.exactalg import GF32003, QQ
from hilbsam.groebner import (
    IdealHandle,
    ideal,
    ideal_power,
    ideal_sum,
    local_colength,
    local_colength_info,
    maximal_ideal,
    product_equals,
)
from hilbsam.hilbert import (
    ParameterIdealSpec,
    PowerChain,
    QuotientRingSpec,
    SplitMix64,
    extract_coeffs,
    hilbert_report,
    hilbert_value,
    hs_function,
    ideal_hilbert_report,
    is_reduction,
    lambda_map,
    parameter_ideal,
    sample_reductions,
)
from hilbsam.polyring import Polynomial, RingSpec, monomials_of_degree, parse_poly
from hilbsam.secmethods import k_plus_j_analysis
from hilbsam.transform import parameter_chart


def test_parameter_ideal_checks_primality():
    A = regular2()
    with pytest.raises(NotLocallyFinite):
        parameter_ideal(A, ["x", "x*y"])
    with pytest.raises(ValueError):
        parameter_ideal(A, ["x"])  # wrong lift count


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_parameter_ideal_charts_each_candidate_once(monkeypatch):
    # in a chart the local standard basis decides finiteness: the colength
    # path never runs, and hs_function reuses the chart for the same A
    checks = _spy(monkeypatch, hilbert, "local_colength_info")
    A = two_planes(2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    with pytest.raises(NotLocallyFinite):
        parameter_ideal(A, ["Z", "W"])  # a + Q = (Z, W)
    assert checks == []
    charts = _spy(monkeypatch, hilbert, "parameter_chart")
    expected = {l: 8 * comb(l + 2, 2) + 4 * (l + 1) for l in range(5)}
    assert hs_function(A, Q, 4) == expected
    assert charts == []
    # an equal quotient given as another object charts again
    assert hs_function(QuotientRingSpec(A.ring, A.defining, A.dim), Q, 4) == expected
    assert len(charts) == 1
    # the chart is no part of the spec's equality or repr
    assert Q == ParameterIdealSpec(Q.lifts)
    assert repr(Q) == f"ParameterIdealSpec(lifts={Q.lifts!r})"


def test_parameter_ideal_chart_verdict_is_checked_in_verify_mode(verify_mode, monkeypatch):
    A = two_planes(2)
    parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    with pytest.raises(NotLocallyFinite):
        parameter_ideal(A, ["Z", "W"])

    def not_finite(*args):
        raise NotLocallyFinite("no pure power")

    # a wrong chart verdict either way is caught
    monkeypatch.setattr(hilbert, "_chart_colengths", not_finite)
    with pytest.raises(AssertionError, match="colength path disagrees"):
        parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    monkeypatch.setattr(hilbert, "_chart_colengths", lambda J, weights, n_max: {0: 1})
    with pytest.raises(AssertionError, match="colength path disagrees"):
        parameter_ideal(A, ["Z", "W"])


def test_parameter_ideal_without_a_chart_verdict_takes_the_colength_path(monkeypatch):
    checks = _spy(monkeypatch, hilbert, "local_colength_info")
    A = regular2()
    parameter_ideal(A, ["x^2", "y^2"])  # no chart
    with pytest.raises(NotLocallyFinite, match="positive-dimensional"):
        parameter_ideal(A, ["x^2", "x*y"])
    assert len(checks) == 2


def test_parameter_ideal_over_the_pair_budget_raises(monkeypatch):
    # a chart's local standard basis over the pair budget ends the check,
    # whatever the verdict would be: the colength path is no second route
    checks = _spy(monkeypatch, hilbert, "local_colength_info")
    real = hilbert.local_standard_basis

    def tiny_budget(J, weights):
        with monkeypatch.context() as m:
            m.setattr(groebner, "PAIR_BUDGET", 1)
            return real(J, weights)

    monkeypatch.setattr(hilbert, "local_standard_basis", tiny_budget)
    A = two_planes(2)
    with pytest.raises(ResourceLimit, match="pair budget"):
        parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    with pytest.raises(ResourceLimit, match="pair budget"):
        parameter_ideal(A, ["Z-X*Y", "W"])  # meets Z = W = 0 in XY = 0
    assert checks == []


def test_a_defining_term_past_the_packed_range_takes_the_local_path():
    # a = (x^40000 + x^3): no basis of a fits the packed range, so the chart
    # gives no verdict and every chain step multiplies the generators of
    # Q^n alone; each colength drops x^40000 past its cutoff cap, where a is
    # (x^3), so l(A/Q^{n+1}) = 3(n+1)
    R = RingSpec(("x", "y"), GF32003)
    A = QuotientRingSpec(R, ideal(R, ["x^40000 + x^3"]), 1)
    with pytest.raises(PackedRangeExceeded):
        A.defining.groebner()
    Q = parameter_ideal(A, ["y"])
    expected = {n: 3 * (n + 1) for n in range(5)}
    assert hs_function(A, Q, 4) == expected
    chain = A.chain(ideal(R, ["y"]))
    assert {n: chain.colength(n + 1) for n in range(5)} == expected
    assert ideal_hilbert_report(A, ideal(R, ["y"])).coeffs == (3, 0)
    # trimmed, a + (x) is (x), whose local staircase is infinite: the
    # caller sees the refusal, not a finiteness verdict
    with pytest.raises(PackedRangeExceeded):
        parameter_ideal(A, ["x"])


def test_hs_regular_ring():
    A = regular2()
    Q = parameter_ideal(A, ["x", "y"])
    H = hs_function(A, Q, 3)
    assert H == {0: 1, 1: 3, 2: 6, 3: 10}


def test_hs_counterexample_closed_forms():
    for n in (2, 3):
        A = two_planes(n)
        Q = parameter_ideal(A, [f"X^{n}-Z", f"Y^{n}-W"])
        H = hs_function(A, Q, 5)
        assert H == {l: 2 * n * n * comb(l + 2, 2) + n * n * (l + 1) for l in range(6)}
        Qp = parameter_ideal(A, [f"X*Y^{n-1}-Z", f"X^{n}+Y^{n}-W"])
        Hp = hs_function(A, Qp, 5)
        expected = {l: 2 * n * n * comb(l + 2, 2) + (n * n - n + 1) * (l + 1) for l in range(6)}
        assert Hp == expected


def test_chart_and_direct_paths_agree():
    A = two_planes(2)
    lifts = [parse_poly(A.ring, "X^2-Z"), parse_poly(A.ring, "Y^2-W")]
    assert parameter_chart(A.ring, lifts) is not None
    Q = parameter_ideal(A, lifts)
    H_chart = hs_function(A, Q, 4)
    # compute directly from the un-transformed powers
    from hilbsam.groebner import ideal_power

    Qh = IdealHandle(A.ring, lifts)
    H_direct = {
        n: local_colength(ideal_sum(A.defining, ideal_power(Qh, n + 1))) for n in range(5)
    }
    assert H_chart == H_direct


def _assert_powers_match_raw(A, I, n_max):
    """Colengths of a + I^{n+1} from a PowerChain against a + ideal_power(I, n+1)."""
    chain = PowerChain(A, I)
    iterated = [local_colength(chain.ideal(n + 1)) for n in range(n_max + 1)]
    raw = [local_colength(A.plus(ideal_power(I, n + 1))) for n in range(n_max + 1)]
    assert iterated == raw


def test_power_bases_match_raw_powers_through_a_chart():
    A = two_planes(2)
    A2, lifts, _, weights = A.chart([parse_poly(A.ring, "X*Y-Z"), parse_poly(A.ring, "X^2+Y^2-W")])
    assert lifts == (A.ring.variable("Z"), A.ring.variable("W"))
    assert weights == (0, 0, 1, 1)
    _assert_powers_match_raw(A2, IdealHandle(A.ring, lifts), 3)


def test_power_bases_match_raw_powers_on_the_direct_path():
    A = two_planes(2)
    _assert_powers_match_raw(A, big_i(A, 2), 3)


def test_power_bases_match_raw_powers_over_qq():
    A = fat_point(2, QQ)
    _assert_powers_match_raw(A, maximal_ideal(A.ring), 3)


def test_power_bases_start_and_a_step_over_the_budget_raises(monkeypatch):
    A = two_planes(2)
    I = big_i(A, 2)
    assert PowerChain(A, I).ideal(0).groebner().contains_one()  # a + (1)
    # with no pair budget no basis of a non-monomial ideal can be built (a
    # monomial one needs no pair): the step raises, builds no ideal by a
    # second route, and the chain steps on once the budget is back
    I = ideal(A.ring, ["X*Y-Z", "X^2+Y^2-W"])
    chain = PowerChain(A, I, start=I)
    chain.basis(0)
    monkeypatch.setattr(groebner, "PAIR_BUDGET", 0)
    with pytest.raises(ResourceLimit, match="pair budget"):
        chain.ideal(1)
    monkeypatch.undo()
    handles = [chain.ideal(n) for n in range(3)]
    raw = [local_colength(A.plus(ideal_power(I, n + 1))) for n in range(3)]
    assert [local_colength(J) for J in handles] == raw


def test_a_keeps_one_handle_of_a_plus_i_per_generators():
    # what a + I computes (bases, colons, saturations) serves every later
    # call on A with the same generators; a + (0) is a itself
    A = two_planes(2)
    J = A.plus(ideal(A.ring, ["X-Z"]))
    assert A.plus(ideal(A.ring, ["X-Z"])) is J
    assert J.generators == A.defining.generators + (parse_poly(A.ring, "X-Z"),)
    assert A.plus(ideal(A.ring, ["Z-X"])) is not J
    assert A.plus(IdealHandle(A.ring, [])) is A.defining


def _power_colengths(A, I, n_max):
    """l(A/I^{n+1}) for n = 0..n_max from one PowerChain."""
    chain = PowerChain(A, I)
    return {n: chain.colength(n + 1) for n in range(n_max + 1)}


def _chain_against_raw(A, I, n_max):
    """PowerChain colengths against an independent local_colength_info of
    each a + I^{n+1}; returns the infos of the raw powers."""
    infos = [local_colength_info(A.plus(ideal_power(I, n + 1))) for n in range(n_max + 1)]
    assert _power_colengths(A, I, n_max) == {n: info.value for n, info in enumerate(infos)}
    return infos


def test_power_colengths_reuse_the_support_certificate(monkeypatch):
    # a + Q is supported at the origin alone: every power takes the global
    # path, and verify mode checks each against its reference.  The chain A
    # keeps for (A, Q) walks the support of each power on its first read,
    # and a second read of the same (A, Q) reads its colengths and walks
    # nothing
    monkeypatch.setattr(groebner, "VERIFY", True)
    A = two_planes(2)
    Q = ideal(A.ring, ["X-Z", "Y-W"])
    infos = _chain_against_raw(A, Q, 3)
    assert all(info.window is None for info in infos)
    calls = []
    real = groebner.normal_form
    monkeypatch.setattr(groebner, "normal_form", lambda f, gb: calls.append(1) or real(f, gb))
    colengths = [A.chain(Q).colength(n + 1) for n in range(4)]
    assert colengths == [info.value for info in infos] and calls
    calls.clear()
    assert [A.chain(Q).colength(n + 1) for n in range(4)] == colengths
    assert calls == []


def test_power_colengths_off_the_origin_keep_the_ladder():
    # a second point at x = 1: n = 0 takes the local path, and so do the
    # later powers; locally I^{n+1} is m^{n+1}, certified at cutoff n + 1
    A = regular2()
    I = ideal(A.ring, ["x^2 - x", "y"])
    infos = _chain_against_raw(A, I, 3)
    assert [(info.value, info.window) for info in infos] == [(1, 1), (3, 2), (6, 3), (10, 4)]


def test_extract_coeffs_examples():
    samples = {n: 5 * comb(n + 2, 2) + 2 * (n + 1) - 1 for n in range(8)}
    rep = extract_coeffs(samples, 2)
    assert rep.coeffs == (5, -2, -1)
    assert rep.polynomial_from == 0

    samples = {n: comb(n + 2, 2) for n in range(8)}
    assert extract_coeffs(samples, 2).coeffs == (1, 0, 0)

    # the subring case: polynomial only from n = 1
    samples = {0: 1}
    samples.update({n: 8 * comb(n + 2, 2) - 2 * (n + 1) - 6 for n in range(1, 9)})
    rep = extract_coeffs(samples, 2)
    assert rep.coeffs == (8, 2, -6)
    assert rep.polynomial_from == 1
    for n in range(1, 9):
        assert hilbert_value(rep.coeffs, 2, n) == samples[n]


def test_extract_coeffs_errors():
    with pytest.raises(ValueError):
        extract_coeffs({n: n for n in range(4)}, 2)  # too few samples
    with pytest.raises(NoPolynomialTail):
        extract_coeffs({n: 2**n for n in range(10)}, 2)
    with pytest.raises(ValueError):
        # quadratic data declared as dimension 3: top coefficient is 0
        extract_coeffs({n: comb(n + 2, 2) for n in range(10)}, 3)


@given(
    st.integers(1, 40),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(0, 2),
)
@settings(max_examples=100)
def test_extract_coeffs_round_trip(e0, e1, e2, d_extra):
    d = 2 if d_extra == 0 else d_extra
    coeffs = (e0, e1, e2)[: d + 1]
    samples = {n: hilbert_value(coeffs, d, n) for n in range(2 * (d + 1) + 2)}
    rep = extract_coeffs(samples, d)
    assert rep.coeffs == coeffs
    assert rep.polynomial_from == 0


def test_splitmix_determinism():
    a = [SplitMix64(9).next_u64() for _ in range(4)]
    b = [SplitMix64(9).next_u64() for _ in range(4)]
    assert a == b
    assert all(-50 <= SplitMix64(3).coefficient() <= 50 for _ in range(10))


def test_is_reduction_examples():
    A = two_planes(2)
    R = A.ring
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    # I = Q: certificate 0
    assert is_reduction(A, Q, IdealHandle(R, Q.lifts)) == 0
    # I = (x^2, y^2, z, w): certificate 1 (its square equals Q times it)
    c = ideal(R, ["X^2", "Y^2", "Z", "W"])
    assert is_reduction(A, Q, c) == 1
    # I = m^2 + (z,w) with the second named parameter ideal
    Qp = parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"])
    assert is_reduction(A, Qp, big_i(A, 2)) is not None
    # not a reduction: Q inside m but m needs more than powers of Q
    assert is_reduction(A, Q, maximal_ideal(R), n_cap=3) is None


def test_is_reduction_requires_containment():
    A = regular2()
    Q = parameter_ideal(A, ["x", "y"])
    with pytest.raises(ValueError):
        is_reduction(A, Q, ideal(A.ring, ["x"]))


def test_sample_reductions_regular():
    A = regular2()
    m = maximal_ideal(A.ring)
    found, warnings = sample_reductions(A, m, 3, seed=1)
    assert len(found) == 3
    for q, cert in found:
        assert cert == is_reduction(A, q, m) == 0  # two independent linear forms
    assert any("3 reductions" in w for w in warnings)


def test_sample_reductions_deterministic():
    A = fat_point(2)
    m = maximal_ideal(A.ring)
    first, _ = sample_reductions(A, m, 5, seed=7)
    second, _ = sample_reductions(A, m, 5, seed=7)
    assert [(q.lifts, cert) for q, cert in first] == [(q.lifts, cert) for q, cert in second]
    coeffs = {hilbert_report(A, q, 5).coeffs for q, _ in first}
    assert coeffs == {(4, -2, 0)}
    # reduction stability: every returned candidate re-verifies post hoc
    assert all(is_reduction(A, q, m, 8) is not None for q, _ in first)


def test_sample_reductions_of_composite_ideal(verify_mode):
    # verify mode checks every power step and certificate of the product
    # entry against the basis of the autoreduced products
    A = two_planes(2)
    I = big_i(A, 2)
    found, _ = sample_reductions(A, I, 5, seed=2)
    assert len(found) == 5
    assert all(is_reduction(A, q, I) is not None for q, _ in found)


def test_sample_reductions_exhaustion():
    A = regular2()
    with pytest.raises(SamplingExhausted):
        sample_reductions(A, ideal(A.ring, ["x"]), 2, seed=0)


def test_lambda_map_values():
    A = two_planes(2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    Qp = parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"])
    rep = lambda_map(A, big_i(A, 2), count=2, seed=3, n_max=5, named=[("Q", Q), ("Qp", Qp)])
    assert -4 in rep.values and -3 in rep.values
    assert all(v < 0 for v in rep.values)
    named_coeffs = {e.name: e.coeffs for e in rep.entries}
    assert named_coeffs["Q"] == (8, -4, 0)
    assert named_coeffs["Qp"] == (8, -3, 0)
    # certificates come from the named filter and the sampling itself
    I = big_i(A, 2)
    for e in rep.entries:
        assert e.certificate == is_reduction(A, parameter_ideal(A, list(e.lifts)), I)


def test_lambda_map_rejects_non_reduction():
    A = two_planes(2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    # Q is not a reduction of m, so a lambda run over m must skip it; the
    # warning says what was searched
    rep = lambda_map(A, maximal_ideal(A.ring), count=2, seed=3, n_max=5, named=[("Q", Q)], n_cap=3)
    assert all(e.name != "Q" for e in rep.entries)
    assert "named ideal Q: no certificate I^{n+1} = Q I^n with n <= 3; skipped" in rep.warnings
    assert rep.values == [-2]


def test_maximal_ideal_reductions_constant_e1():
    for n, expected in ((2, -2), (3, -3)):
        A = two_planes(n)
        found, _ = sample_reductions(A, maximal_ideal(A.ring), 3, seed=5)
        values = {hilbert_report(A, q, 5).coeffs[1] for q, _ in found}
        assert values == {expected}


def test_cohen_macaulay_reductions_are_flat():
    A = regular2()
    rng_seeds = [11, 12, 13]
    for seed in rng_seeds:
        ((q, _),), _ = sample_reductions(A, maximal_ideal(A.ring), 1, seed=seed)
        rep = hilbert_report(A, q, 5)
        assert rep.coeffs[1:] == (0, 0)
        assert rep.samples == {n: rep.coeffs[0] * comb(n + 2, 2) for n in range(6)}


def test_sequentially_cm_example():
    # A = k[[X,Y,Z]]/[(X) cap (Y,Z)]: e1 = -e0 of the image in the
    # one-dimensional factor, and e2 = 0, for any parameter pair
    R = RingSpec(("x", "y", "z"), GF32003)
    defining = ideal(R, ["x*y", "x*z"])
    A = QuotientRingSpec(R, defining, 2)
    rng = SplitMix64(17)
    found = 0
    while found < 3:
        lifts = []
        for _ in range(2):
            coeffs = [rng.coefficient() for _ in range(3)]
            text = f"{coeffs[0]}*x + {coeffs[1]}*y + {coeffs[2]}*z"
            lifts.append(parse_poly(R, text))
        try:
            Q = parameter_ideal(A, lifts)
        except NotLocallyFinite:
            continue
        found += 1
        rep = hilbert_report(A, Q, 5)
        dvr_image = local_colength(ideal_sum(ideal(R, ["y", "z"]), IdealHandle(R, [lifts[0], lifts[1]])))
        assert rep.coeffs[1] == -dvr_image
        assert rep.coeffs[2] == 0
    # a crafted pair with deeper image in the one-dimensional factor
    Q = parameter_ideal(A, ["x^2 + y", "y - z"])
    rep = hilbert_report(A, Q, 5)
    assert rep.coeffs[1:] == (-2, 0)


def test_k_plus_j_examples():
    # the subring construction over the n=2 two-planes ring
    B = two_planes(2)
    J = big_i(B, 2)
    rep = k_plus_j_analysis(B, J, [], 8).report
    assert rep.coeffs == (8, 2, -6)
    assert rep.samples[0] == 1
    assert rep.samples[1] == 14
    assert rep.polynomial_from == 1
    # J = m in a regular ring: the subring is the whole ring
    B2 = regular2()
    rep2 = k_plus_j_analysis(B2, maximal_ideal(B2.ring), [], 8).report
    assert rep2.coeffs == (1, 0, 0)
    assert rep2.samples == {n: comb(n + 2, 2) for n in range(9)}


def test_ideal_hilbert_report_polynomial_from():
    A = two_planes(2)
    rep = ideal_hilbert_report(A, big_i(A, 2), 6)
    assert rep.coeffs == (8, 2, -4)
    assert rep.polynomial_from == 1
    assert rep.samples[0] == 3  # l(A/I), off the polynomial


def test_direct_path_without_chart():
    # quadratic-form lifts carry no isolated linear variable, so every
    # computation runs on the untransformed presentation
    A = regular2()
    lifts = [parse_poly(A.ring, "x^2 + y^2"), parse_poly(A.ring, "x*y")]
    assert parameter_chart(A.ring, lifts) is None
    Q = parameter_ideal(A, lifts)
    H = hs_function(A, Q, 5)
    rep = extract_coeffs(H, 2)
    # parameter ideal in a regular ring: H(n) = l(A/Q) * binom(n+2, 2)
    assert rep.coeffs == (H[0], 0, 0)
    assert is_reduction(A, Q, IdealHandle(A.ring, lifts)) == 0
    # and the chartless reduction certificate against a larger ideal
    m2 = ideal(A.ring, ["x^2", "x*y", "y^2"])
    cert = is_reduction(A, Q, m2)
    assert cert is not None


def test_a_pickled_spec_keeps_its_chart(monkeypatch):
    # one pickled (A, Q, n_max) keeps A's chart of Q: the copy neither
    # charts Q nor builds its local basis again
    import pickle

    A = two_planes(2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    for f in A.chart(Q.lifts)[1]:
        hash(f)  # caches the hash on each of the chart's lifts
    assert all(f._hash is not None for f in A.chart(Q.lifts)[1])
    A2, Q2, n_max = pickle.loads(pickle.dumps((A, Q, 5)))
    assert list(A2._charts) == [Q2.lifts]
    assert all(f._hash is None for f in A2.chart(Q2.lifts)[1])  # string hashes are per process
    charts = _spy(monkeypatch, hilbert, "parameter_chart")
    runs = spy_lazard_runs(monkeypatch)
    assert hilbert_report(A2, Q2, n_max).coeffs == (8, -4, 0)
    assert charts == runs == []


# ---------------------------------------------------------------------------
# Hilbert-Samuel samples from one local standard basis


@st.composite
def _chart_systems(draw):
    """(A, lifts, n_max) in x, y, z over F_32003 or QQ: one or two random
    generators of degree 2..3 for the defining ideal, and one lift per
    dimension of the quotient (y - h(x) and z - h'(x) for one generator,
    z - h(x, y) for two), so the parameter chart always applies."""
    field = draw(st.sampled_from([GF32003, QQ]))
    R = RingSpec(("x", "y", "z"), field)
    coeffs = st.integers(-3, 3).filter(bool).map(field.of_int)

    def poly(degrees, variables):
        monos = [m for d in degrees for m in monomials_of_degree(3, d)
                 if all(m[i] == 0 or i in variables for i in range(3))]
        return Polynomial(R, draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3)))

    gens = [poly((2, 3), (0, 1, 2)) for _ in range(draw(st.integers(1, 2)))]
    if len(gens) == 1:
        lifts = [R.variable(1) - poly((1, 2), (0,)), R.variable(2) - poly((1, 2), (0,))]
    else:
        lifts = [R.variable(2) - poly((1, 2), (0, 1))]
    return QuotientRingSpec(R, IdealHandle(R, gens), len(lifts)), lifts, draw(st.integers(1, 2))


@given(_chart_systems())
@settings(max_examples=20, deadline=30000, derandomize=True)
def test_local_basis_samples_match_the_power_colengths(case):
    A, lifts, n_max = case
    A2, lifts2, _, weights = A.chart(lifts)
    assert weights is not None
    try:
        H = hilbert._chart_colengths(A2.defining, weights, n_max)
    except NotLocallyFinite:
        assume(False)  # a + Q is not finite at the origin: no samples to compare
    assert H == _power_colengths(A2, IdealHandle(A.ring, lifts2), n_max)


def test_local_basis_samples_are_cross_checked_in_verify_mode(verify_mode, monkeypatch):
    A = two_planes(2)
    Q = parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"])
    assert hs_function(A, Q, 4) == {l: 8 * comb(l + 2, 2) + 3 * (l + 1) for l in range(5)}
    monkeypatch.setattr(PowerChain, "colength", lambda self, n: 0)
    with pytest.raises(AssertionError, match="local standard basis"):
        hs_function(A, Q, 4)


def test_hs_function_on_a_chart_never_samples_the_powers(monkeypatch):
    def refuse(*args):
        raise AssertionError("a power chain was built")

    monkeypatch.setattr(PowerChain, "__init__", refuse)
    for n in (2, 3):
        A = two_planes(n)
        Q = parameter_ideal(A, [f"X^{n}-Z", f"Y^{n}-W"])
        assert hs_function(A, Q, 5) == {l: 2 * n * n * comb(l + 2, 2) + n * n * (l + 1) for l in range(6)}
    A = fat_point(2, QQ)
    Q = parameter_ideal(A, ["X^2-Z", "Y-W"])
    assert extract_coeffs(hs_function(A, Q, 5), 2).coeffs == (5, -2, 0)


def test_hs_function_falls_back_without_a_chart(monkeypatch):
    A = regular2()
    lifts = [parse_poly(A.ring, "x^2"), parse_poly(A.ring, "y^2")]
    assert A.chart(lifts)[3] is None
    assert hilbert._chart_colengths(A.defining, None, 3) is None
    calls = spy_power_chains(monkeypatch)
    assert hs_function(A, parameter_ideal(A, lifts), 3) == {n: 4 * comb(n + 2, 2) for n in range(4)}
    assert len(calls) == 1


def test_hs_function_takes_the_chart_at_sixteen_variables(monkeypatch):
    # h is a seventeenth variable, which the packing allows
    R = RingSpec(tuple(f"v{i}" for i in range(16)), GF32003)
    A = QuotientRingSpec(R, IdealHandle(R, [R.variable(i) for i in range(2, 16)]), 2)
    Q = parameter_ideal(A, ["v0", "v1"])
    A2, _, _, weights = A.chart(Q.lifts)
    assert hilbert._chart_colengths(A2.defining, weights, 0) is not None
    calls = spy_power_chains(monkeypatch)
    assert hs_function(A, Q, 3) == {n: comb(n + 2, 2) for n in range(4)}
    assert calls == []


def test_hs_function_over_the_pair_budget_raises(monkeypatch):
    A = two_planes(2)
    real = hilbert.local_standard_basis

    def tiny_budget(J, weights):
        with monkeypatch.context() as m:
            m.setattr(groebner, "PAIR_BUDGET", 1)
            return real(J, weights)

    monkeypatch.setattr(hilbert, "local_standard_basis", tiny_budget)
    # Q unchecked, as parameter_ideal would refuse it on the same basis:
    # the chart's local basis is refused, and no chain of powers is built
    Q = ParameterIdealSpec(tuple(parse_poly(A.ring, f) for f in ["X^2-Z", "Y^2-W"]))
    calls = spy_power_chains(monkeypatch)
    with pytest.raises(ResourceLimit, match="pair budget"):
        hs_function(A, Q, 4)
    assert calls == []
    monkeypatch.setattr(hilbert, "local_standard_basis", real)
    assert hs_function(A, Q, 4) == {l: 8 * comb(l + 2, 2) + 4 * (l + 1) for l in range(5)}


def test_lambda_map_builds_the_power_chain_once(monkeypatch):
    # every certificate, named and sampled, is taken against one chain of
    # a + I^n, not one chain per candidate
    chains = spy_power_chains(monkeypatch)
    A = two_planes(2)
    I = big_i(A, 2)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    Qp = parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"])
    rep = lambda_map(A, I, count=3, seed=3, n_max=5, named=[("Q", Q), ("Qp", Qp)])
    assert len(rep.entries) == 5
    assert [(c.A is A, c.I is I) for c in chains] == [(True, True)]


def test_power_step_from_a_basis_multiplies_packed_terms(monkeypatch):
    # with the previous basis at hand, a step neither multiplies polynomials
    # nor autoreduces a product list
    A = two_planes(2)
    I = big_i(A, 2)
    chain = PowerChain(A, I, start=I)
    handles = [chain.ideal(0)]
    handles[0].groebner()

    def refuse(*args, **kwargs):
        raise AssertionError("a power step left the packed products")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(groebner, "autoreduce", refuse)
    handles += [chain.ideal(1), chain.ideal(2)]
    monkeypatch.undo()
    raw = [local_colength(A.plus(ideal_power(I, n + 1))) for n in range(3)]
    assert [local_colength(J) for J in handles] == raw


def test_certificate_never_builds_the_basis_of_the_smaller_side(monkeypatch):
    # a + Q·G_n is decided by the product entry against G_{n+1}, so with the
    # chain built no basis is computed at all
    A = two_planes(2)
    I = big_i(A, 2)
    Q = parameter_ideal(A, ["X*Y-Z", "X^2+Y^2-W"])
    cert = is_reduction(A, Q, I)
    assert cert is not None
    A.chain(I).basis(cert + 1)

    def refuse(*args):
        raise AssertionError(f"a basis was built or a chain extended from {args}")

    def refuse_bases_and_steps():
        # a handle's cached basis is read without a call to _compute_basis;
        # a chain step goes through product_basis or autoreduced_product
        monkeypatch.setattr(groebner, "_compute_basis", refuse)
        monkeypatch.setattr(hilbert, "product_basis", refuse)
        monkeypatch.setattr(hilbert, "autoreduced_product", refuse)

    refuse_bases_and_steps()
    assert is_reduction(A, Q, I) == cert
    monkeypatch.undo()
    not_a_reduction = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    m = maximal_ideal(A.ring)
    for n in range(4):
        A.chain(m).basis(n)
    refuse_bases_and_steps()
    assert is_reduction(A, not_a_reduction, m, n_cap=2) is None


def _certificate_cases():
    # (A, I, Q, n_cap): certificates 2, 4, 2, 2, 1 and a non-reduction
    tp2, tp3 = two_planes(2), two_planes(3)
    return [
        (tp2, maximal_ideal(tp2.ring), ["X+Z", "Y+W"], 3),
        (tp3, maximal_ideal(tp3.ring), ["X+Z", "Y+W"], 5),
        (tp2, big_i(tp2, 2), ["X*Y-Z", "X^2+Y^2-W"], 3),
        (tp3, big_i(tp3, 2), ["X*Y-Z", "X^2+Y^2-W"], 3),
        (tp2, ideal(tp2.ring, ["X^2", "Y^2", "Z", "W"]), ["X^2-Z", "Y^2-W"], 3),
        (tp2, maximal_ideal(tp2.ring), ["X^2-Z", "Y^2-W"], 2),
    ]


def _search_only(monkeypatch) -> None:
    """Certify by the product_equals search on every input, the graded
    ones included (the cases of m with linear lifts)."""
    monkeypatch.setattr(hilbert, "_top_degree", lambda A, Q, I: None)


@pytest.mark.parametrize("case", range(6))
def test_certificate_search_from_any_known_n(case, monkeypatch):
    # the search from chain.known finds the least n (least mode) or some n
    # where equality holds (acceptance mode), exactly when the plain search
    # from 0 (the first search on a fresh quotient's chain) finds one
    _search_only(monkeypatch)
    A, I, lifts, n_cap = _certificate_cases()[case]
    Q = parameter_ideal(A, lifts)
    least = is_reduction(A, Q, I, n_cap)
    chain = A.chain(I)
    for known in [None, *range(n_cap + 2)]:
        chain.known = known
        assert is_reduction(A, Q, I, n_cap) == least, known
        chain.known = known
        n = is_reduction(A, Q, I, n_cap, least=False)
        assert (n is None) == (least is None), known
        if n is not None:
            assert n <= n_cap
            assert product_equals(A.defining, chain.basis(n), Q.lifts, chain.basis(n + 1))


def _count_product_equals(monkeypatch) -> list:
    runs = []
    real = hilbert.product_equals

    def counted(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(hilbert, "product_equals", counted)
    return runs


def test_certificates_after_the_first_start_at_the_known_n(monkeypatch):
    # every reduction of m in two_planes(2) has certificate 2: the first
    # candidate searches n = 0, 1, 2, each later one accepts at n = 2 with
    # one run, or checks n = 2 and n = 1 for its least certificate
    _search_only(monkeypatch)
    A = two_planes(2)
    m = maximal_ideal(A.ring)
    runs = _count_product_equals(monkeypatch)
    found, _ = sample_reductions(A, m, 5, seed=4)
    assert len(found) == 5
    assert len(runs) <= 3 + 4
    runs.clear()
    rep = lambda_map(A, m, count=5, seed=4, n_max=5)
    assert [e.certificate for e in rep.entries] == [2] * 5
    assert len(runs) <= 3 + 2 * 4


def test_certificate_with_a_negative_cap_makes_no_run(monkeypatch):
    A = two_planes(2)
    Q = parameter_ideal(A, ["X+Z", "Y+W"])
    runs = _count_product_equals(monkeypatch)
    engine_runs = []
    real = groebner._engine
    monkeypatch.setattr(groebner, "_engine", lambda *a, **k: engine_runs.append(1) or real(*a, **k))
    assert is_reduction(A, Q, maximal_ideal(A.ring), n_cap=-1) is None
    assert runs == [] and engine_runs == []


def test_lambda_map_certificates_in_verify_mode(verify_mode):
    # verify mode reruns each certificate search from 0 against the chain
    A = two_planes(2)
    rep = lambda_map(A, maximal_ideal(A.ring), count=3, seed=3, n_max=5)
    assert [e.certificate for e in rep.entries] == [2, 2, 2]
    assert rep.values == [-2]


def test_certificate_search_disagreement_is_caught_in_verify_mode(verify_mode, monkeypatch):
    # an equality that held at n = 0 and n = 2 but not at n = 1 would break
    # the walk down from a known n = 2; the plain search from 0 catches it
    _search_only(monkeypatch)
    A = two_planes(2)
    Q = parameter_ideal(A, ["X+Z", "Y+W"])
    m = maximal_ideal(A.ring)
    chain = A.chain(m)
    chain.known = 2
    monkeypatch.setattr(
        hilbert, "product_equals", lambda a, F, H, K: any(F is chain.basis(n) for n in (0, 2))
    )
    with pytest.raises(AssertionError, match="certificate search"):
        is_reduction(A, Q, m, 3)


def _rebind(monkeypatch, original, replacement):
    """Point every hilbsam module attribute bound to original at replacement,
    as the benchmark's tracer does."""
    for name, module in list(sys.modules.items()):
        if name == "hilbsam" or name.startswith("hilbsam."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_every_certificate_search_is_one_is_reduction_call(monkeypatch):
    # a counting wrapper on the module attribute sees one call per candidate
    # tried: each named ideal, then each sampled parameter ideal
    searched, tried = [], []
    real, real_parameter_ideal = hilbert.is_reduction, hilbert.parameter_ideal
    _rebind(monkeypatch, real, lambda A, Q, I, *a, **k: searched.append(Q) or real(A, Q, I, *a, **k))

    def tracked(A, lifts):
        tried.append(real_parameter_ideal(A, lifts))
        return tried[-1]

    A = two_planes(2)
    not_a_reduction = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    diagonal = parameter_ideal(A, ["X-Z", "Y-W"])
    _rebind(monkeypatch, real_parameter_ideal, tracked)
    rep = lambda_map(A, maximal_ideal(A.ring), count=3, seed=3, n_max=5,
                     named=[("Q", not_a_reduction), ("D", diagonal)])
    assert [e.name for e in rep.entries] == ["D", "sample0", "sample1", "sample2"]
    assert len(tried) >= 3
    assert list(map(id, searched)) == list(map(id, [not_a_reduction, diagonal, *tried]))
    searched.clear()
    B = two_planes(2)
    Q = real_parameter_ideal(B, ["X^2-Z", "Y^2-W"])
    Qp = real_parameter_ideal(B, ["X*Y-Z", "X^2+Y^2-W"])
    k_plus_j_analysis(B, big_i(B, 2), [("Q", Q), ("Qp", Qp)])
    assert list(map(id, searched)) == [id(Q), id(Qp)]


# ---------------------------------------------------------------------------
# certificates of reductions of m from the top degree of A/QA


def _suite_quotients(field):
    """The quotients of the paper suite, by name."""
    return {
        **{f"A_pp{l}": two_planes(l, field) for l in (1, 2, 3)},
        **{f"A_fat{l}": fat_point(l, field) for l in (2, 3)},
        **{f"A_stage{n}": staged(n, field) for n in (2, 3)},
    }


def _linear_candidates(A, count, seed):
    """Parameter ideals of A generated by seeded linear forms with
    coefficients in {-1, 0, 1, 2}, so that special forms (X + Z, Y, ...)
    come up as well as generic ones."""
    R, rng = A.ring, SplitMix64(seed)
    out = []
    while len(out) < count:
        lifts = [sum((R.variable(i).scale(R.field.of_int(rng.next_u64() % 4 - 1)) for i in range(R.nvars)),
                     R.zero()) for _ in range(A.dim)]
        try:
            out.append(parameter_ideal(A, lifts))
        except (NotLocallyFinite, ValueError):
            continue
    return out


@pytest.mark.parametrize("field", [GF32003, QQ], ids=["fp", "qq"])
def test_the_top_degree_of_a_mod_q_is_the_least_certificate(field, monkeypatch):
    # on every suite quotient, for seeded linear reductions of m, the graded
    # certificate equals the plain search up from 0 (known reset), also
    # where it exceeds n_cap; (X, Y) on A_pp2 leaves k[Z, W], so neither
    # finds one
    n_cap = 3
    graded, searched = [], []
    for seed, (name, A) in enumerate(sorted(_suite_quotients(field).items())):
        m = maximal_ideal(A.ring)
        for Q in _linear_candidates(A, 3, seed):
            assert hilbert._top_degree(A, Q, m) is not None, name
            graded.append((name, is_reduction(A, Q, m, n_cap)))
            with monkeypatch.context() as patch:
                _search_only(patch)
                A.chain(m).known = None
                searched.append((name, is_reduction(A, Q, m, n_cap)))
    assert graded == searched
    assert {cert for _, cert in graded} == {1, 2, 3, None}
    A = two_planes(2, field)
    m = maximal_ideal(A.ring)
    Q = ParameterIdealSpec(tuple(parse_poly(A.ring, f) for f in ("X", "Y")))
    assert hilbert._top_degree(A, Q, m) == float("inf")
    assert is_reduction(A, Q, m, n_cap) is None
    _search_only(monkeypatch)
    assert is_reduction(A, Q, m, n_cap) is None


def test_a_non_linear_reduction_candidate_of_m_takes_the_search(monkeypatch):
    A = two_planes(2)
    m = maximal_ideal(A.ring)
    Q = parameter_ideal(A, ["X^2-Z", "Y^2-W"])
    assert hilbert._top_degree(A, Q, m) is None
    runs = _count_product_equals(monkeypatch)
    assert is_reduction(A, Q, m, 3) is None
    assert len(runs) == 4 and not any(runs)


def test_the_graded_certificate_is_checked_in_verify_mode(verify_mode, monkeypatch):
    A = two_planes(2)
    m = maximal_ideal(A.ring)
    Q = parameter_ideal(A, ["X+Z", "Y+W"])
    assert is_reduction(A, Q, m, 3) == 2
    monkeypatch.setattr(hilbert, "_staircase_counts", lambda *args: {1: 1})
    with pytest.raises(AssertionError, match="top degree of A/QA gives 1"):
        is_reduction(A, Q, m, 3)


def test_the_seed0_suite_certifies_from_one_chain_per_quotient(monkeypatch):
    # the suite's reductions of m are certified by their top degree, and a
    # Sally task accepts any certificate: 28 product_equals runs over the
    # suite, 30 with least certificates for Sally lengths, 76 with a search
    # per reduction of m and a chain per call; the run builds one chain per
    # (A, I, start), and every chain is A.chain's one: the superficiality
    # checks take their lengths from walks in Q's chart and build none
    from hilbsam import problem
    from hilbsam.suite import run_paper_suite

    command = []
    real_run = problem.TaskRunner.run_task
    monkeypatch.setattr(problem.TaskRunner, "run_task",
                        lambda self, task: command.append(task["command"]) or real_run(self, task))
    runs = []
    real_product_equals = hilbert.product_equals
    monkeypatch.setattr(hilbert, "product_equals", lambda *a: runs.append(command[-1]) or real_product_equals(*a))
    built = []
    real_init = PowerChain.__init__
    monkeypatch.setattr(PowerChain, "__init__",
                        lambda self, *a: built.append((command[-1], self)) or real_init(self, *a))
    run_paper_suite(field="fp:32003", seed=0)
    assert len(runs) == 28
    assert "sampled-coeffs" not in runs
    keys = {(id(c.A), c.I.generators, c.ideal(0).generators) for _, c in built}
    assert len(keys) == len(built)
    kept = {id(k) for _, c in built for k in c.A._chains.values()}
    assert [cmd for cmd, c in built if id(c) not in kept] == []


@pytest.mark.parametrize("values, message", [
    # (2, 1, 0): H(n) = (n+1)^2 from n = 1 on, with l(A/Q) = 2
    ([2, 4, 9, 16, 25, 36, 49, 64, 81], r"e_1\(Q\) = 1 > 0"),
    # (4, -2, 0): H(n) = 4 binom(n+2, 2) + 2(n+1) from n = 1 on, with l(A/Q) = 3
    ([3, 16, 30, 48, 70, 96, 126, 160, 198], r"l\(A/Q\) = 3 < e_0\(Q\) = 4"),
], ids=["e1-positive", "colength-below-e0"])
def test_hilbert_reports_that_break_a_theorem_are_engine_bugs(monkeypatch, values, message):
    A = two_planes(2)
    Q = parameter_ideal(A, ["X-Z", "Y-W"])
    monkeypatch.setattr(hilbert, "hs_function", lambda A, Q, n_max=None: dict(enumerate(values)))
    with pytest.raises(AssertionError, match=message):
        hilbert_report(A, Q)
