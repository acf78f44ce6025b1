"""Grade reports, semi-regular/GV tests, the bounded-dimension criterion,
fPD bounds, Cohen-Macaulay and DQ/DW detection."""
import pytest
from fpdlab import (ExtComputer, GradeValue, StructuralError,
                    UnsupportedDomainError, UnsupportedInputError, dq_dw_local,
                    fpd_bound, fpd_criterion_check, grade,
                    is_cohen_macaulay_graded, is_gv, is_semiregular,
                    koszul_grade)
from fpdlab.invariants import COUNTEREXAMPLE, EXACT, LOWER_BOUND, PASS
from helpers import FF, QQ, ZZ, presentation


def test_grade_of_regular_sequence_with_cross_check():
    P = presentation(QQ, ("x", "y"))
    rep = grade(P.ideal("x", "y"))
    assert rep.value == GradeValue.finite(2)
    assert rep.ext_profile == (True, True, False)
    assert rep.koszul_cross_check == GradeValue.finite(2)


def test_grade_zero_from_socle_hom():
    P = presentation(QQ, ("x", "y"), ["x^2", "x*y"])
    rep = grade(P.ideal("x", "y"))
    assert rep.value == GradeValue.finite(0)
    assert rep.ext_profile[0] is False


def test_grade_of_unit_ideal_is_flagged_infinite():
    P = presentation(QQ, ("x",))
    rep = grade(P.ideal("x", "x + 1"))
    assert rep.value.is_infinite
    assert any("convention" in n for n in rep.notes)


def test_grade_default_bound_always_determines_proper_ideals():
    # grade <= height <= generator count, so the search always ends in a value
    for gens in [("x",), ("x", "y"), ("x^2", "x*y", "y^3")]:
        P = presentation(QQ, ("x", "y"))
        rep = grade(P.ideal(*gens))
        assert rep.value.is_finite


def test_grade_over_integers():
    P = presentation(ZZ, ("x",))
    I = P.ideal("2", "x")
    rep = grade(I)
    assert rep.value == GradeValue.finite(2)
    assert rep.koszul_cross_check is None  # the cross-check runs over fields
    assert koszul_grade(I) == rep.value


@pytest.mark.parametrize("k", (2, 3, 4, 5, 6))
def test_zz_koszul_grade_agrees_with_ext_on_every_maximal_ideal(k):
    # ZZ[kX, X^2, X^3] = ZZ[a,b,c]/(a^2 - k^2 b, ab - kc, ac - kb^2, b^3 - c^2);
    # (p, a, b, c) has grade 1 when p | k and 2 otherwise
    P = presentation(ZZ, ("a", "b", "c"), [f"a^2 - {k * k}*b", f"a*b - {k}*c",
                                           f"a*c - {k}*b^2", "b^3 - c^2"])
    for p in (2, 3, 5):
        expected = GradeValue.finite(1 if k % p == 0 else 2)
        I = P.ideal(str(p), "a", "b", "c")
        assert (grade(I).value, koszul_grade(I)) == (expected, expected)


def test_semiregular_cases():
    assert is_semiregular(presentation(QQ, ("x",)).ideal("x"))
    assert not is_semiregular(presentation(QQ, ("x",), ["x^2"]).ideal("x"))
    assert is_semiregular(presentation(QQ, ("x", "y"), ["x*y"]).ideal("x", "y"))


def test_semiregular_agrees_with_ext0():
    cases = [
        presentation(QQ, ("x",)).ideal("x"),
        presentation(QQ, ("x",), ["x^2"]).ideal("x"),
        presentation(QQ, ("x", "y"), ["x*y"]).ideal("x", "y"),
        presentation(FF(3), ("x", "y"), ["x^2"]).ideal("y"),
    ]
    for I in cases:
        assert is_semiregular(I) == ExtComputer(I).ext_is_zero(0)


def test_gv_cases():
    P = presentation(QQ, ("x", "y"))
    assert is_gv(P.ideal("1"))
    assert is_gv(P.ideal("x", "y"))
    assert not is_gv(presentation(QQ, ("x",)).ideal("x"))  # Ext^1 != 0


def test_gv_implies_semiregular_on_samples():
    samples = [
        presentation(QQ, ("x", "y")).ideal("x", "y"),
        presentation(QQ, ("x", "y")).ideal("x"),
        presentation(QQ, ("x",), ["x^2"]).ideal("x"),
        presentation(QQ, ("x", "y"), ["x*y"]).ideal("x", "y"),
    ]
    for I in samples:
        if is_gv(I):
            assert is_semiregular(I)


def test_criterion_counterexample_for_low_bound():
    P = presentation(QQ, ("x", "y"))
    res = fpd_criterion_check(P.ideal("x", "y"), 1)
    assert res.verdict == COUNTEREXAMPLE
    assert res.profile == (True, True)


def test_criterion_pass_with_first_nonvanishing():
    P = presentation(QQ, ("x", "y"))
    res = fpd_criterion_check(P.ideal("x", "y"), 2)
    assert res.verdict == PASS
    assert res.first_nonvanishing == 2


def test_criterion_pass_on_socle():
    P = presentation(QQ, ("x",), ["x^2"])
    res = fpd_criterion_check(P.ideal("x"), 0)
    assert res.verdict == PASS
    assert res.first_nonvanishing == 0


def test_criterion_pass_with_unit_certificate():
    P = presentation(QQ, ("x",))
    res = fpd_criterion_check(P.ideal("x", "x + 1"), 5)
    assert res.verdict == PASS
    assert res.unit_cofactors is not None
    total = P.ambient.zero()
    for c, g in zip(res.unit_cofactors, (P.poly("x"), P.poly("x + 1"))):
        total = total + c * g
    assert total == P.ambient.one()


def test_criterion_matches_grade_threshold():
    P = presentation(QQ, ("x", "y"), ["x*y"])
    I = P.ideal("x", "y")
    g = grade(I).value.value
    for n in range(0, 3):
        res = fpd_criterion_check(I, n)
        assert (res.verdict == COUNTEREXAMPLE) == (g > n)


def test_fpd_bound_exact_for_graded_question():
    # grade 2 reaches K.dim 2, and fPD <= FPD = K.dim (Raynaud-Gruson)
    P = presentation(QQ, ("x", "y"))
    rep = fpd_bound(P, [P.ideal("x", "y")])
    assert (rep.bound, rep.dimension, rep.conclusion) == (2, 2, EXACT)


def test_fpd_bound_of_the_twisted_cubic_is_exact():
    P = presentation(QQ, ("a", "b", "c", "d"),
                     ["a*c - b^2", "b*d - c^2", "a*d - b*c"])
    rep = fpd_bound(P, [P.irrelevant_ideal])
    assert (rep.bound, rep.dimension, rep.conclusion) == (2, 2, EXACT)


def test_fpd_bound_below_the_dimension_is_a_lower_bound():
    # a line through a plane: depth 1 at the origin, but the plane's points
    # off the line have depth 2, so fPD = K.dim = 2
    P = presentation(FF(101), ("x", "y", "z"), ["x*y", "y*z"])
    rep = fpd_bound(P, [P.ideal("x", "y", "z")])
    assert (rep.bound, rep.dimension, rep.conclusion) == (1, 2, LOWER_BOUND)


def test_fpd_bound_of_a_field_is_zero():
    from fpdlab import PolynomialRing, RingPresentation
    K = RingPresentation(PolynomialRing(QQ, ()))
    rep = fpd_bound(K, [K.ideal()])
    assert (rep.bound, rep.dimension, rep.conclusion) == (0, 0, EXACT)


def test_fpd_bound_over_integers_is_lower_bound():
    # no Krull dimension over ZZ yet, so even a grade of 2 stays a lower bound
    P = presentation(ZZ, ("x",))
    rep = fpd_bound(P, [P.ideal("2", "x")])
    assert (rep.bound, rep.dimension, rep.conclusion) == (2, None, LOWER_BOUND)


def test_fpd_bound_input_validation():
    P = presentation(QQ, ("x", "y"))
    with pytest.raises(StructuralError):
        fpd_bound(P, [])
    with pytest.raises(StructuralError):
        fpd_bound(P, [P.ideal("1")])
    other = presentation(QQ, ("z",))
    with pytest.raises(StructuralError):
        fpd_bound(P, [other.ideal("z")])


def test_cohen_macaulay_reports():
    rep = is_cohen_macaulay_graded(presentation(QQ, ("x", "y")))
    assert rep.is_cm and (rep.depth, rep.dimension) == (2, 2)
    assert "K.dim" in rep.finitistic_identity and "2" in rep.finitistic_identity
    rep = is_cohen_macaulay_graded(presentation(QQ, ("x", "y"), ["x*y"]))
    assert rep.is_cm and (rep.depth, rep.dimension) == (1, 1)
    rep = is_cohen_macaulay_graded(presentation(QQ, ("x", "y"), ["x^2", "x*y"]))
    assert not rep.is_cm and (rep.depth, rep.dimension) == (0, 1)
    assert rep.finitistic_identity is None


def test_graded_local_input_validation():
    with pytest.raises(UnsupportedInputError):
        is_cohen_macaulay_graded(presentation(QQ, ("x",), ["x^2 - 1"]))
    with pytest.raises(UnsupportedDomainError):
        is_cohen_macaulay_graded(presentation(ZZ, ("x",)))
    with pytest.raises(StructuralError):
        dq_dw_local(presentation(QQ, ("x",), ["1"]))


def test_dq_dw_classification():
    rep = dq_dw_local(presentation(QQ, ("x", "y"), ["x^2", "x*y"]))
    assert rep.is_dq and rep.is_dw and rep.depth == 0
    rep = dq_dw_local(presentation(QQ, ("x", "y"), ["x*y"]))
    assert not rep.is_dq and rep.is_dw and rep.depth == 1
    rep = dq_dw_local(presentation(QQ, ("x", "y")))
    assert not rep.is_dq and not rep.is_dw and rep.depth == 2
    assert rep.gv_witness is not None
    assert is_gv(rep.gv_witness)
    assert rep.is_dq <= rep.is_dw  # DQ implies DW


def test_grade_monotone_under_inclusion_samples():
    P = presentation(QQ, ("x", "y"), ["x*y"])
    small = grade(P.ideal("x")).value
    big = grade(P.ideal("x", "y")).value
    assert small.value <= big.value
    P2 = presentation(QQ, ("x", "y"))
    assert grade(P2.ideal("x")).value.value <= grade(P2.ideal("x", "y")).value.value


def test_irrelevant_ideal_generators():
    P = presentation(FF(5), ("x", "y", "z"))
    m = P.irrelevant_ideal
    assert [str(g) for g in m.generators] == ["x", "y", "z"]


def _ideal_battery(P):
    """Proper ideals of bounded degree used to probe the DW property."""
    gens_lists = [("x",), ("y",), ("x", "y"), ("x + y",), ("x^2",),
                  ("x^2", "y"), ("x", "y^2"), ("x^2", "x*y", "y^2")]
    return [P.ideal(*gens) for gens in gens_lists]


def test_dw_verdict_matches_gv_battery():
    # DW holds exactly when no proper ideal in the battery is GV
    for rels, expect_dw in [ (["x*y"], True), (["x^2", "x*y"], True), ([], False) ]:
        P = presentation(QQ, ("x", "y"), rels)
        rep = dq_dw_local(P)
        assert rep.is_dw == expect_dw
        battery_gv = [I for I in _ideal_battery(P)
                      if is_gv(I) and not I.contains("1")]
        assert rep.is_dw == (not battery_gv), \
            f"GV battery {[str(i) for i in battery_gv]} contradicts DW={rep.is_dw}"
