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


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_integer_curve_grades_at_six(k):
    # (6, a, b, c) holds no prime, so the ZZ engine decides it.  By the
    # Chinese remainder theorem R/(6, a, b, c) = R/m_2 x R/m_3, so its Ext
    # is the sum of theirs and its grade is the smaller of the two
    assert _result(f"zz{k}-grade-n6")["value"] == ("1" if k % 2 == 0 or k % 3 == 0 else "2")


@pytest.mark.parametrize("k, profile", [
    # 2 and 3 do not divide 5: R/2R and R/3R are FF_p[X], so each Ext^i(R/m_p, R)
    # is nonzero at i = 2 alone
    (5, [True, True, False, True]),
    # 2 divides 6: R/2R has depth 0 and dimension 1, so it is not Gorenstein
    # and each Ext^i(R/m_2, R) with i >= 1 is nonzero (Roberts)
    (6, [True, False, False, False]),
])
def test_integer_curve_ext_at_six(k, profile):
    assert _result(f"zz{k}-ext3-n6")["vanishes_through"] == profile
