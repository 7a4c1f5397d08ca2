"""Built-in reproduction suite.

Runs every numeric worked example the package targets, with frozen
expected values, through the same task pipeline as `run`.  Case keys are
neutral structural labels:

  S1  coefficients of the diagonal parameters on R/[(X^l,Y^l) cap (Z,W)],
      via both the Hilbert fit and the kernel method
  S2  the slope family on the fat-point rings R/[(X,Y)^l cap (Z,W)]
  S3  sampled reductions of the maximal ideal on the l=2 fat-point ring
      (coefficients and d-sequence property)
  S4  rings R/[(X^n,Y) cap (Z,W)]: sampled reductions of m give e1 = -1;
      staged parameters give e1 = -l
  S5  the two-coefficient counterexample family R/[(X^n,Y^n) cap (Z,W)]
      with its two named parameter ideals, closed-form Hilbert functions,
      a superficiality refutation, and the first-coefficient map
  S6  the same rings: sampled reductions of m give e1 = -n
  S7  Sally-module degreewise lengths and ranks for the n=2 family
  S8  the subring k + J construction and its rank/coefficient identity
"""

from __future__ import annotations

from math import comb

from .problem import Report, load_problem, run_problem


def _closed_form(e0: int, e1: int, upto: int) -> list[int]:
    return [e0 * comb(n + 2, 2) - e1 * comb(n + 1, 1) for n in range(upto + 1)]


def paper_suite_doc() -> dict:
    """The suite as a problem document (field/seed injected by the loader)."""
    ideals: dict = {"zw": ["Z", "W"], "m": ["X", "Y", "Z", "W"], "mxy": ["X", "Y"]}
    quotients: dict = {}
    parameters: dict = {}
    artinian: dict = {}
    tasks: list[dict] = []

    for l in (1, 2, 3):
        ideals[f"pp{l}"] = [f"X^{l}", f"Y^{l}"]
        ideals[f"def_pp{l}"] = {"intersect": [f"pp{l}", "zw"]}
        quotients[f"A_pp{l}"] = {"defining": f"def_pp{l}", "dim": 2}
        parameters[f"Qdiag{l}"] = {"quotient": f"A_pp{l}", "lifts": ["X-Z", "Y-W"]}
        artinian[f"C_pp{l}"] = {"ideal": [f"X^{l}", f"Y^{l}", "Z", "W"]}

    for l in (2, 3):
        ideals[f"fat{l}"] = {"power": ["mxy", l]}
        ideals[f"def_fat{l}"] = {"intersect": [f"fat{l}", "zw"]}
        quotients[f"A_fat{l}"] = {"defining": f"def_fat{l}", "dim": 2}

    for n in (2, 3):
        ideals[f"def_stage{n}"] = {"intersect": [[f"X^{n}", "Y"], "zw"]}
        quotients[f"A_stage{n}"] = {"defining": f"def_stage{n}", "dim": 2}
        ideals[f"bigI{n}"] = {"sum": [{"power": ["m", n]}, "zw"]}
        parameters[f"Q{n}"] = {
            "quotient": f"A_pp{n}",
            "lifts": [f"X^{n}-Z", f"Y^{n}-W"],
        }
        parameters[f"Qp{n}"] = {
            "quotient": f"A_pp{n}",
            "lifts": [f"X*Y^{n-1}-Z", f"X^{n}+Y^{n}-W"],
        }

    # S1: fit and kernel method agree with the closed coefficient formulas
    for l in (1, 2, 3):
        expect = [l * l + 1, -l, -(l * (l - 1)) // 2]
        tasks.append(
            {
                "name": f"S1.l{l}.fit",
                "command": "coeffs",
                "quotient": f"A_pp{l}",
                "params": f"Qdiag{l}",
                "nmax": 5,
                "expect": expect,
            }
        )
        tasks.append(
            {
                "name": f"S1.l{l}.kernel",
                "command": "kernel-e1",
                "artinian": f"C_pp{l}",
                "a": "X-Z",
                "b": "Y-W",
                "quotient": f"A_pp{l}",
                "params": f"Qdiag{l}",
                "nmax": 5,
                "window": [0, 8],
                "expect": expect[1:],
            }
        )

    # S2: e1 = -(2l - n + 1)n/2 and e2 = 0 on the fat-point family; the
    # multiplicity l(l+1)/2 + l*n follows from additivity over the two
    # minimal primes (plane pair with multiplicities l(l+1)/2 and 1).
    for l in (2, 3):
        for n in range(1, l + 1):
            parameters[f"Qfat{l}n{n}"] = {
                "quotient": f"A_fat{l}",
                "lifts": [f"X^{l}-Z", f"Y^{n}-W"],
            }
            tasks.append(
                {
                    "name": f"S2.l{l}.n{n}",
                    "command": "coeffs",
                    "quotient": f"A_fat{l}",
                    "params": f"Qfat{l}n{n}",
                    "nmax": 5,
                    "expect": [l * (l + 1) // 2 + l * n, -((2 * l - n + 1) * n) // 2, 0],
                }
            )

    # S3: five sampled minimal reductions of m, each with coefficients
    # (4, -2, 0) and each generating pair a d-sequence
    tasks.append(
        {
            "name": "S3.sampled",
            "command": "sampled-coeffs",
            "quotient": "A_fat2",
            "ideal": "m",
            "count": 5,
            "nmax": 5,
            "check_dseq": True,
            "expect_all": [4, -2, 0],
        }
    )

    # S4: staged rings; sampled reductions of m all give e1 = -1, and the
    # staged parameters (X^l - Z, Y - W) give e1 = -l for 1 <= l <= n
    for n in (2, 3):
        tasks.append(
            {
                "name": f"S4.n{n}.sampled",
                "command": "sampled-coeffs",
                "quotient": f"A_stage{n}",
                "ideal": "m",
                "count": 5,
                "nmax": 5,
                "expect": [-1],
            }
        )
        for l in range(1, n + 1):
            parameters[f"Qstage{n}l{l}"] = {
                "quotient": f"A_stage{n}",
                "lifts": [f"X^{l}-Z", "Y-W"],
            }
            tasks.append(
                {
                    "name": f"S4.n{n}.l{l}",
                    "command": "coeffs",
                    "quotient": f"A_stage{n}",
                    "params": f"Qstage{n}l{l}",
                    "nmax": 5,
                    "expect": [n + l, -l, 0],
                }
            )

    # S5: the counterexample family
    for n in (2, 3):
        e1q, e1qp = -n * n, -n * n + n - 1
        tasks.append(
            {
                "name": f"S5.n{n}.coeffs.Q",
                "command": "coeffs",
                "quotient": f"A_pp{n}",
                "params": f"Q{n}",
                "nmax": 5,
                "expect": [2 * n * n, e1q, 0],
            }
        )
        tasks.append(
            {
                "name": f"S5.n{n}.coeffs.Qp",
                "command": "coeffs",
                "quotient": f"A_pp{n}",
                "params": f"Qp{n}",
                "nmax": 5,
                "expect": [2 * n * n, e1qp, 0],
            }
        )
        tasks.append(
            {
                "name": f"S5.n{n}.hilb.Q",
                "command": "hilb",
                "quotient": f"A_pp{n}",
                "params": f"Q{n}",
                "nmax": 5,
                "expect": _closed_form(2 * n * n, e1q, 5),
            }
        )
        tasks.append(
            {
                "name": f"S5.n{n}.hilb.Qp",
                "command": "hilb",
                "quotient": f"A_pp{n}",
                "params": f"Qp{n}",
                "nmax": 5,
                "expect": _closed_form(2 * n * n, e1qp, 5),
            }
        )
        tasks.append(
            {
                "name": f"S5.n{n}.superficial",
                "command": "superficial",
                "quotient": f"A_pp{n}",
                "params": f"Qp{n}",
                "a": f"X^{n}+Y^{n}-W",
                "expect": False,
            }
        )
        tasks.append(
            {
                "name": f"S5.n{n}.lambda",
                "command": "lambda",
                "quotient": f"A_pp{n}",
                "ideal": f"bigI{n}",
                "named": [f"Q{n}", f"Qp{n}"],
                "count": 3,
                "nmax": 5,
                "expect_min_distinct": 2,
                "expect_includes": [e1q, e1qp],
            }
        )

    # S6: on the same rings the maximal ideal's sampled reductions give -n
    for n in (2, 3):
        tasks.append(
            {
                "name": f"S6.n{n}.sampled",
                "command": "sampled-coeffs",
                "quotient": f"A_pp{n}",
                "ideal": "m",
                "count": 5,
                "nmax": 5,
                "expect": [-n],
            }
        )

    # S7: Sally module data for the n=2 family with I = m^2 + (z,w);
    # l(A/I) = 3 by hand (basis 1, x, y), so the length list starts at 3.
    tasks.append(
        {
            "name": "S7.sally.Q",
            "command": "sally",
            "quotient": "A_pp2",
            "ideal": "bigI2",
            "params": "Q2",
            "nmax": 4,
            "expect": [2, 3, 4, 5],
        }
    )
    tasks.append(
        {
            "name": "S7.sally.Qp",
            "command": "sally",
            "quotient": "A_pp2",
            "ideal": "bigI2",
            "params": "Qp2",
            "nmax": 4,
            "expect": [1, 1, 1, 1],
        }
    )
    tasks.append(
        {
            "name": "S7.powers",
            "command": "ideal-hilb",
            "quotient": "A_pp2",
            "ideal": "bigI2",
            "nmax": 5,
            "expect": [3] + [8 * comb(n + 2, 2) - 2 * (n + 1) - 4 for n in range(1, 6)],
        }
    )
    tasks.append(
        {
            "name": "S7.rank.Q",
            "command": "sally-rank",
            "quotient": "A_pp2",
            "ideal": "bigI2",
            "params": "Q2",
            "expect": 1,
        }
    )
    tasks.append(
        {
            "name": "S7.rank.Qp",
            "command": "sally-rank",
            "quotient": "A_pp2",
            "ideal": "bigI2",
            "params": "Qp2",
            "expect": 0,
        }
    )

    # S8: the subring k + J: coefficients (8, 2, -6), bookkeeping identity
    # e1_Q + rank = e1_m - e0_m + 1 = -5, ranks (1, 0), derived e1 (-6, -5)
    tasks.append(
        {
            "name": "S8.kplusj",
            "command": "kplusj",
            "quotient": "A_pp2",
            "ideal": "bigI2",
            "named": ["Q2", "Qp2"],
            "expect": [8, 2, -6],
            "expect_identity": -5,
            "expect_ranks": [1, 0],
            "expect_e1s": [-6, -5],
        }
    )

    return {
        "ring": {"variables": ["X", "Y", "Z", "W"], "field": "fp:32003"},
        "ideals": ideals,
        "quotients": quotients,
        "parameters": parameters,
        "artinian": artinian,
        "tasks": tasks,
    }


def run_paper_suite(field: str = "fp:32003", seed: int = 0, cutoff: int | None = None) -> Report:
    problem = load_problem(paper_suite_doc(), field_override=field, seed=seed, cutoff=cutoff)
    return run_problem(problem)
