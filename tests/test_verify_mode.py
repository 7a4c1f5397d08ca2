"""Verify mode (groebner.VERIFY) over the whole seed-0 suite, and the
colength checks catching a wrong value from either colength path."""

import json
from pathlib import Path

import pytest

from hilbsam import groebner
from hilbsam.exactalg import GF32003
from hilbsam.groebner import ideal, local_colength_info
from hilbsam.polyring import RingSpec
from hilbsam.suite import run_paper_suite

DATA = Path(__file__).parent / "data"
R2 = RingSpec(("x", "y"), GF32003)


def test_the_seed0_suite_under_verify_mode_matches_the_golden_json(verify_mode):
    # no basis outlives its problem: every basis of the suite is built, and
    # checked, here
    text = json.dumps(run_paper_suite(field="fp:32003", seed=0).to_json(), sort_keys=True, indent=2)
    assert text + "\n" == (DATA / "suite_paper_fp_seed0.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", ["global", "ladder"])
def test_a_colength_off_by_one_is_caught_in_verify_mode(verify_mode, monkeypatch, path):
    # (x^3, x*y, y^2) is supported at the origin alone and takes the global
    # path, checked against its reference; (x^2 - x, y) has a second point at
    # x = 1 and takes the local path, whose certifying truncated colength
    # then disagrees with the local basis's count
    if path == "global":
        J, name = ideal(R2, ["x^3", "x*y", "y^2"]), "_global_zero_dim_colength"
    else:
        J, name = ideal(R2, ["x^2 - x", "y"]), "colength_at_cutoff"
    info = local_colength_info(J)
    assert (info.value, info.window is None) == ((4, True) if path == "global" else (1, False))
    real = getattr(groebner, name)
    monkeypatch.setattr(groebner, name, lambda J, *args: real(J, *args) + 1)
    with pytest.raises(AssertionError, match="disagrees with its (reference|truncated colength)"):
        local_colength_info(J)
