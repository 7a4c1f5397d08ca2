"""Acceptance criteria, one test per criterion.

All values are reproduced exactly (integer equality; no tolerances).  Each
test prints one PASS line; criteria 1-8 check the built-in reproduction
suite's frozen expectations, criterion 9 runs the property suites.
"""

import json
import random
from math import comb
from pathlib import Path

import pytest

from helpers import fat_point, regular2, ring4, staged, two_planes
from hilbsam.exactalg import GF32003, QQ
from hilbsam.groebner import (
    IdealHandle,
    _standard_monomials,
    colength_at_cutoff,
    ideal,
    local_colength,
    local_standard_basis,
    maximal_ideal,
    truncation_colength_oracle,
)
from hilbsam.hilbert import (
    SplitMix64,
    extract_coeffs,
    hilbert_report,
    hilbert_value,
    hs_function,
    parameter_ideal,
)
from hilbsam.polyring import RingSpec, monomials_of_degree, parse_poly
from hilbsam.secmethods import action_pair, artin_algebra, e1_e2_via_kernel, tn_length
from hilbsam.suite import run_paper_suite


@pytest.fixture(scope="module")
def suite_fp():
    return run_paper_suite(field="fp:32003", seed=0)


@pytest.fixture(scope="module")
def suite_qq():
    return run_paper_suite(field="qq", seed=0)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("fixture, golden", [
    ("suite_fp", "suite_paper_fp_seed0.json"),
    ("suite_qq", "suite_paper_qq_seed0.json"),
])
def test_suite_report_matches_the_golden_json(fixture, golden, request):
    # the `hilbsam suite paper --json` text, byte for byte (see README)
    report = request.getfixturevalue(fixture)
    text = json.dumps(report.to_json(), sort_keys=True, indent=2)
    assert text + "\n" == (DATA / golden).read_text(encoding="utf-8")


def _check_cases(report, prefix, label):
    tasks = [t for t in report.tasks if t.name.startswith(prefix)]
    assert tasks, f"no suite tasks matched {prefix}"
    bad = [t.name for t in tasks if t.passed is not True]
    assert not bad, f"failed: {bad}"
    print(f"PASS {label} [{len(tasks)} checks]")


def test_criterion_1_diagonal_parameters_both_methods(suite_fp):
    # (e0, e1, e2) = (l^2+1, -l, -l(l-1)/2) for l = 1, 2, 3, via the Hilbert
    # fit and via the kernel method
    _check_cases(suite_fp, "S1.", "criterion 1: coefficient formulas by fit and kernel method")


def test_criterion_2_fat_point_family(suite_fp):
    # e1 = -(2l-n+1)n/2 and e2 = 0 for a = X^l - Z, b = Y^n - W, 0 < n <= l
    _check_cases(suite_fp, "S2.", "criterion 2: fat-point slope family")


def test_criterion_3_sampled_reductions_with_d_sequences(suite_fp):
    # five seeded reductions of m: (4, -2, 0) each, all d-sequences
    _check_cases(suite_fp, "S3.", "criterion 3: sampled reductions and d-sequences")


def test_criterion_4_staged_rings(suite_fp):
    # sampled reductions of m give e1 = -1; staged parameters give e1 = -l
    _check_cases(suite_fp, "S4.", "criterion 4: staged rings")


def test_criterion_5_counterexample_family(suite_fp):
    # multiplicities 2n^2; e1 splits as -n^2 vs -n^2+n-1; closed-form Hilbert
    # functions for 0 <= l <= 5; superficiality refutation; >= 2 lambda values
    _check_cases(suite_fp, "S5.", "criterion 5: two-valued counterexample family")
    for n in (2, 3):
        lam = next(t for t in suite_fp.tasks if t.name == f"S5.n{n}.lambda")
        values = lam.result["values"]
        assert len(set(values)) >= 2
        assert all(v < 0 for v in values)
        assert max(values) > -n * n


def test_criterion_6_maximal_ideal_reductions(suite_fp):
    # same rings, I = m, five samples: every e1 equals -n
    _check_cases(suite_fp, "S6.", "criterion 6: reductions of the maximal ideal")


def test_criterion_7_sally_data(suite_fp):
    # degreewise lengths (2,3,4,5) and (1,1,1,1); power colengths
    # 8*binom(n+2,2) - 2*binom(n+1,1) - 4 for n = 1..5; ranks 1 and 0
    _check_cases(suite_fp, "S7.", "criterion 7: Sally module lengths and ranks")


def test_criterion_8_subring_construction(suite_fp):
    # k + J: coefficients (8, 2, -6); derived e1 pair (-6, -5); ranks (1, 0);
    # identity e1_Q + rank = e1_m - e0_m + 1 = -5
    _check_cases(suite_fp, "S8.", "criterion 8: subring k + J identity")


# --------------------------------------------------------------------------
# criterion 9: property suites

def _kernel_cases():
    """(quotient, artinian ideal gens, parameter lifts) for every worked
    example with a finite-cohomology presentation."""
    cases = []
    for l in (1, 2, 3):
        cases.append((two_planes(l), [f"X^{l}", f"Y^{l}", "Z", "W"], ["X-Z", "Y-W"]))
    for n in (2, 3):
        cases.append((two_planes(n), [f"X^{n}", f"Y^{n}", "Z", "W"],
                      [f"X^{n}-Z", f"Y^{n}-W"]))
        cases.append((two_planes(n), [f"X^{n}", f"Y^{n}", "Z", "W"],
                      [f"X*Y^{n-1}-Z", f"X^{n}+Y^{n}-W"]))
        for l in range(1, n + 1):
            cases.append((staged(n), [f"X^{n}", "Y", "Z", "W"], [f"X^{l}-Z", "Y-W"]))
    for l in (2, 3):
        A = fat_point(l)
        c_gens = [A.ring.monomial(e + (0, 0)) for e in monomials_of_degree(2, l)]
        c_gens += [A.ring.variable("Z"), A.ring.variable("W")]
        for n in range(1, l + 1):
            cases.append((A, c_gens, [f"X^{l}-Z", f"Y^{n}-W"]))
    return cases


def test_criterion_9a_9b_kernel_identity_and_bounds():
    # (a) l(A/Q^{n+1}) = e0 binom(n+2,2) + l(T_n) exactly for n = 0..6 on
    # every example; (b) the bracket -l(C) <= e1 <= -l((0):Q) never fails
    checked = 0
    for A, c_gens, lifts in _kernel_cases():
        Q = parameter_ideal(A, lifts)
        H = hs_function(A, Q, 6)
        rep = extract_coeffs(H, 2)
        e0 = rep.coeffs[0]
        C = artin_algebra(A.ring, IdealHandle(A.ring, [
            parse_poly(A.ring, g) if isinstance(g, str) else g for g in c_gens
        ]))
        act = action_pair(C, parse_poly(A.ring, lifts[0]), parse_poly(A.ring, lifts[1]))
        for n in range(7):
            assert H[n] == e0 * comb(n + 2, 2) + tn_length(C, act, n), (lifts, n)
        kr = e1_e2_via_kernel(C, act, e0)  # raises BoundViolation on failure
        assert (kr.e1, kr.e2) == (rep.coeffs[1], rep.coeffs[2])
        assert -kr.algebra_length <= kr.e1 <= -kr.annihilator_bound
        checked += 1
    print(f"PASS criterion 9a/9b: kernel identity (n = 0..6) and coefficient bounds "
          f"[{checked} examples]")


def test_criterion_9c_cohen_macaulay_sanity():
    # zero defining ideal: random parameter pairs have e1 = e2 = 0 and a
    # binomial Hilbert function from the start
    A = regular2()
    rng = SplitMix64(99)
    degree_one = list(monomials_of_degree(2, 1))
    degree_two = list(monomials_of_degree(2, 2))
    found = 0
    while found < 6:
        lifts = []
        for k in range(2):
            monos = degree_one if rng.next_u64() % 2 else degree_two
            f = A.ring.zero()
            for m in monos:
                c = rng.coefficient()
                if c:
                    f = f + A.ring.monomial(m, c)
            lifts.append(f)
        if any(f.is_zero() for f in lifts):
            continue
        try:
            Q = parameter_ideal(A, lifts)
        except Exception:
            continue
        rep = hilbert_report(A, Q, 5)
        assert rep.coeffs[1:] == (0, 0)
        assert rep.samples == {n: rep.coeffs[0] * comb(n + 2, 2) for n in range(6)}
        found += 1
    print("PASS criterion 9c: Cohen-Macaulay sanity [6 random parameter pairs]")


def test_criterion_9d_oracle_equivalence():
    # 50 randomized m-primary monomial+binomial ideals in <= 4 variables:
    # with t the top degree of the weight-0 local staircase, m^{t+1} lies in
    # J locally, so the public value, the truncated-basis colength and the
    # brute-force rank oracle agree at the cutoffs t + 1 and t + 2
    rng = random.Random(2024)
    for trial in range(50):
        nv = rng.choice([2, 3, 4])
        R = RingSpec(tuple("abcd"[:nv]), GF32003)
        gens = []
        for i in range(nv):
            e = rng.randint(1, 3)
            gens.append(R.monomial(tuple(e if j == i else 0 for j in range(nv))))
        for _ in range(rng.randint(0, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(nv))
            if sum(exps):
                gens.append(R.monomial(exps))
        for _ in range(rng.randint(0, 2)):
            e1 = tuple(rng.randint(0, 2) for _ in range(nv))
            e2 = tuple(rng.randint(0, 2) for _ in range(nv))
            if sum(e1) and sum(e2) and e1 != e2:
                gens.append(R.monomial(e1) - R.monomial(e2).scale(R.field.of_int(rng.randint(1, 7))))
        J = IdealHandle(R, gens)
        zero = (0,) * nv
        t = max(map(sum, _standard_monomials(local_standard_basis(J, zero), nv, 1, zero)))
        value = local_colength(J)
        for cutoff in (t + 1, t + 2):
            assert colength_at_cutoff(J, cutoff) == truncation_colength_oracle(J, cutoff) == value, trial
    print("PASS criterion 9d: oracle equivalence [50 randomized ideals]")


def test_criterion_9e_round_trip():
    # coefficient extraction inverts sampling for 100 random integer tuples
    rng = random.Random(7)
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        coeffs = tuple([rng.randint(1, 60)] + [rng.randint(-40, 40) for _ in range(d)])
        samples = {n: hilbert_value(coeffs, d, n) for n in range(2 * (d + 1) + 1)}
        rep = extract_coeffs(samples, d)
        assert rep.coeffs == coeffs
    print("PASS criterion 9e: extraction round-trip [100 random tuples]")


def test_criterion_9f_reduced_basis_determinism():
    # permuting generators never changes the reduced basis of the suite ideals
    rng = random.Random(31)
    R = ring4()
    paper_ideals = [
        ["X^2*Z", "X^2*W", "Y^2*Z", "Y^2*W"],
        ["X^3*Z", "X^3*W", "Y^3*Z", "Y^3*W"],
        ["X^2-Z", "Y^2-W"],
        ["X*Y-Z", "X^2+Y^2-W"],
        ["X^2", "X*Y", "Y^2", "Z", "W"],
        ["X^2", "Y^2", "Z", "W"],
        ["X^2*Z", "X^2*W", "Y*Z", "Y*W"],
        ["X^2", "Y^2", "X*Y", "Z^2", "Z*W", "W^2", "X*Z", "Y*W"],
    ]
    for gens in paper_ideals:
        base = ideal(R, gens).groebner().elements
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert ideal(R, shuffled).groebner().elements == base, gens
    print("PASS criterion 9f: reduced-basis determinism [8 ideals x 3 permutations]")


def test_criterion_9g_field_independence(suite_fp, suite_qq):
    # the full suite gives identical integer results over F_32003 and QQ
    assert suite_fp.ok and suite_qq.ok
    fp_tasks = suite_fp.to_json()["tasks"]
    qq_tasks = suite_qq.to_json()["tasks"]
    assert len(fp_tasks) == len(qq_tasks)
    for a, b in zip(fp_tasks, qq_tasks):
        assert a["name"] == b["name"]
        assert a["primary"] == b["primary"], a["name"]
        assert a["result"] == b["result"], a["name"]
    print(f"PASS criterion 9g: field independence [{len(fp_tasks)} tasks]")
