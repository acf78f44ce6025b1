"""The deep-Ext stress set's answers against closed forms."""
import json

import pytest

from stress_set import SCRIPTS, replay


def _result(name: str) -> dict:
    text, steps, _ = replay(SCRIPTS[name])
    (record,) = [json.loads(line) for line in text.splitlines()]
    assert record["status"] == "ok"
    assert record["budget"]["steps"] == steps
    return record["result"]


def test_the_veronese_cone_has_depth_and_dimension_3():
    # the Veronese cone is Cohen-Macaulay of dimension 3 but not Gorenstein,
    # so Ext^i(k, R) is nonzero from i = depth on
    assert _result("veronese-grade")["value"] == "3"
    cm = _result("veronese-cm")
    assert (cm["depth"], cm["dimension"], cm["cohen_macaulay"]) == (3, 3, True)
    assert _result("veronese-ext4")["vanishes_through"] == [True, True, True, False, False]


def test_the_rational_normal_quartic_cone_has_depth_2():
    assert _result("quartic-ext4")["vanishes_through"] == [True, True, False, False, False]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_integer_curve_grades(k, p):
    # p is a nonzerodivisor on R = ZZ[kX, X^2, X^3].  When p divides k, the
    # maximal ideal (p, a, b, c) kills the image of a = kX in R/pR, whose
    # depth is then 0: grade 1.  Otherwise R/pR is FF_p[X], a domain: grade 2
    assert _result(f"zz{k}-grade-p{p}")["value"] == ("1" if k % p == 0 else "2")
