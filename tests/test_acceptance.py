"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 1 note: the presented ring is ZZ[a,b,c] modulo the kernel of
a -> 2X, b -> X^2, c -> X^3, computed here by strong-basis elimination over
the integers as an independent oracle.  The Krull-dimension (= 2) and big
finitistic dimension claims for that ring are NOT mechanically reproduced:
dimension over integer coefficients is outside the engine's scope, and the
suite documents rather than checks them.
"""
import time

from fpdlab import (GradeValue, block_order, dq_dw_local, dual_koszul_cokernel,
                    fpd_bound, fpd_criterion_check, grade,
                    is_cohen_macaulay_graded, is_gv, is_semiregular,
                    koszul_grade)
from fpdlab.finite_rings import (FiniteRing, brute_hom_vanishes, brute_is_dq,
                                 brute_is_dw, brute_is_gv, enumerate_ideals,
                                 minimal_generators)
from fpdlab.groebner import groebner_basis_of_polys, normal_form_polys
from fpdlab.invariants import COUNTEREXAMPLE, PASS
from fpdlab.rings import GREVLEX, PolynomialRing, RingPresentation
from helpers import FF, QQ, ZZ, basis_polys, decoded_terms, poly_ring, presentation


class _Gate:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.started = time.monotonic()

    def finish(self, ok=True):
        elapsed = time.monotonic() - self.started
        status = "PASS" if ok and elapsed <= self.limit else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} "
              f"({elapsed:.1f}s / limit {self.limit}s) - {self.description}")
        assert ok, f"criterion {self.number} failed"
        assert elapsed <= self.limit, \
            f"criterion {self.number} exceeded its {self.limit}s budget ({elapsed:.1f}s)"


def _substitute_monomial_curve(p, target):
    """Map a polynomial in a, b, c to ZZ[X] through a->2X, b->X^2, c->X^3."""
    images = [target.poly("2*X"), target.poly("X^2"), target.poly("X^3")]
    out = target.zero()
    for mono, coeff in decoded_terms(p):
        term = target.constant(coeff)
        for img, e in zip(images, mono[-3:]):
            term = term * img ** e
        out = out + term
    return out


def test_criterion_1_integer_monomial_curve():
    gate = _Gate(1, "grade profile of ZZ[2X, X^2, X^3]: grade(m_2) = 1, "
                    "grade(m_3) = 2, bound 2 (K.dim and FPD claims documented, "
                    "not reproduced)", 60)
    # independent oracle: eliminate X by a strong basis over the integers
    E = PolynomialRing(ZZ, ("X", "a", "b", "c"), block_order(1, GREVLEX, GREVLEX))
    G = groebner_basis_of_polys(E, [E.poly("a - 2*X"), E.poly("b - X^2"),
                                    E.poly("c - X^3")])
    kernel_gens_ext = [p for p in basis_polys(G)
                       if all(m[0] == 0 for m, _ in decoded_terms(p))]
    assert kernel_gens_ext, "elimination produced no relations"

    # every eliminated relation maps to zero on the curve
    target = poly_ring(ZZ, "X")
    for p in kernel_gens_ext:
        assert _substitute_monomial_curve(p, target).is_zero

    A = poly_ring(ZZ, "a", "b", "c")
    kernel_gens = [A.from_dict({m[1:]: c for m, c in decoded_terms(p)})
                   for p in kernel_gens_ext]
    # the computed kernel equals the known presentation of the curve ideal
    expected = [A.poly(t) for t in
                ("a^2 - 4*b", "a*b - 2*c", "a*c - 2*b^2", "b^3 - c^2")]
    Gk = groebner_basis_of_polys(A, kernel_gens)
    Ge = groebner_basis_of_polys(A, expected)
    assert all(normal_form_polys(p, Gk).is_zero for p in expected)
    assert all(normal_form_polys(p, Ge).is_zero for p in kernel_gens)

    R = RingPresentation(A, kernel_gens)
    m2 = R.ideal("2", "a", "b", "c")
    m3 = R.ideal("3", "a", "b", "c")
    g2 = grade(m2)
    g3 = grade(m3)
    assert g2.value == GradeValue.finite(1), f"grade(m_2) = {g2.value}"
    assert g3.value == GradeValue.finite(2), f"grade(m_3) = {g3.value}"
    report = fpd_bound(R, [m2, m3])
    assert report.bound == 2
    gate.finish()


def test_criterion_2_regular_sequence_grades():
    gate = _Gate(2, "grade((x1..xn), QQ[x1..xn]) = n for n = 1..4 by the Ext "
                    "route and the Koszul route", 30)
    for n in range(1, 5):
        P = presentation(QQ, tuple(f"x{i}" for i in range(1, n + 1)))
        I = P.ideal(*P.variables)
        ext_route = grade(I, with_koszul=False).value
        koszul_route = koszul_grade(I)
        assert ext_route == GradeValue.finite(n), f"Ext route at n={n}: {ext_route}"
        assert koszul_route == GradeValue.finite(n), f"Koszul route at n={n}"
    gate.finish()


def test_criterion_3_cohen_macaulay_identity():
    gate = _Gate(3, "CM detection with depth = dim on QQ[x,y] (2,2) and "
                    "QQ[x,y]/(xy) (1,1); failure with (0,1) on QQ[x,y]/(x^2,xy)", 10)
    rep = is_cohen_macaulay_graded(presentation(QQ, ("x", "y")))
    assert rep.is_cm and (rep.depth, rep.dimension) == (2, 2)
    assert rep.finitistic_identity == "fPD(R) = FPD(R) = K.dim(R) = 2"
    rep = is_cohen_macaulay_graded(presentation(QQ, ("x", "y"), ["x*y"]))
    assert rep.is_cm and (rep.depth, rep.dimension) == (1, 1)
    assert rep.finitistic_identity == "fPD(R) = FPD(R) = K.dim(R) = 1"
    rep = is_cohen_macaulay_graded(presentation(QQ, ("x", "y"), ["x^2", "x*y"]))
    assert not rep.is_cm and (rep.depth, rep.dimension) == (0, 1)
    gate.finish()


def test_criterion_4_dq_dw_classification():
    gate = _Gate(4, "DQ/DW on graded-local rings with a GV witness where DW fails", 10)
    rep = dq_dw_local(presentation(QQ, ("x", "y"), ["x^2", "x*y"]))
    assert rep.is_dq and rep.is_dw
    rep = dq_dw_local(presentation(QQ, ("x", "y"), ["x*y"]))
    assert not rep.is_dq and rep.is_dw
    rep = dq_dw_local(presentation(QQ, ("x", "y")))
    assert not rep.is_dq and not rep.is_dw
    assert rep.gv_witness is not None
    assert [str(g) for g in rep.gv_witness.generators] == ["x", "y"]
    assert is_gv(rep.gv_witness)
    gate.finish()


def test_criterion_5_criterion_checker():
    gate = _Gate(5, "bounded-dimension criterion on (x,y) in QQ[x,y]: "
                    "counterexample at n=1, pass at n=2 with first "
                    "nonvanishing degree 2", 10)
    P = presentation(QQ, ("x", "y"))
    I = P.ideal("x", "y")
    res1 = fpd_criterion_check(I, 1)
    assert res1.verdict == COUNTEREXAMPLE
    assert res1.profile == (True, True)
    res2 = fpd_criterion_check(I, 2)
    assert res2.verdict == PASS
    assert res2.first_nonvanishing == 2
    gate.finish()


def test_criterion_6_dual_koszul_exactness():
    gate = _Gate(6, "dualized Koszul sequence of (x,y) exact at positions 0 "
                    "and 1; the top cokernel module is produced", 10)
    P = presentation(QQ, ("x", "y"))
    res = dual_koszul_cokernel(P.ideal("x", "y"), 1)
    assert res.exactness_verified
    assert res.index == 2
    assert res.presentation.target_rank == 1 and res.presentation.source_rank == 2
    assert res.projective_dimension_bound == 2
    gate.finish()


def test_criterion_7_oracle_equivalence():
    gate = _Gate(7, "Groebner-route semiregular/GV agree with brute enumeration "
                    "on FF_p[x]/(x^k); ZZ/n is DQ for n = 2..64; DQ implies DW "
                    "on every tested ring", 120)
    tested = []
    for p in (2, 3, 5):
        for k in (2, 3, 4):
            fin = FiniteRing.quotient(p, [0] * k + [1])
            tested.append(fin)
            P = presentation(FF(p), ("x",), [f"x^{k}"])
            A = P.ambient
            for ideal_set in enumerate_ideals(fin):
                gens_idx = minimal_generators(fin, ideal_set)
                gens = [A.from_dict({(e,): c for e, c in
                                     enumerate(fin.element_coeffs[i]) if c})
                        for i in gens_idx]
                I = P.ideal(*gens)
                assert is_semiregular(I) == brute_hom_vanishes(fin, ideal_set), \
                    f"semiregular mismatch in FF{p}[x]/(x^{k}) on {sorted(ideal_set)}"
                assert is_gv(I) == brute_is_gv(fin, ideal_set, size_cap=1024), \
                    f"GV mismatch in FF{p}[x]/(x^{k}) on {sorted(ideal_set)}"
    for n in range(2, 65):
        fin = FiniteRing.integers_mod(n)
        tested.append(fin)
        assert brute_is_dq(fin).holds, f"ZZ/{n} must be DQ"
    for fin in tested:
        dq = brute_is_dq(fin)
        dw = brute_is_dw(fin, size_cap=1024)
        assert (not dq.holds) or dw.holds, f"DQ without DW on {fin}"
        assert dw.holds, f"zero-dimensional ring {fin} must be DW"
    gate.finish()


def test_criterion_8_property_suites():
    gate = _Gate(8, "property suites, 200 random cases each: d.d = 0, "
                    "normal-form idempotence/membership, reduced-basis "
                    "uniqueness, grade monotonicity, grade generating-set "
                    "invariance, GV implies semi-regular", 600)
    import test_properties as props

    suites = [
        props.test_koszul_differentials_compose_to_zero,
        props.test_resolution_differentials_compose_to_zero,
        props.test_normal_form_idempotent_and_membership_sound,
        props.test_reduced_basis_unique_under_permutation,
        props.test_grade_monotone_under_inclusion,
        props.test_grade_invariant_under_generating_set_change,
        props.test_gv_implies_semiregular,
    ]
    for suite in suites:
        suite()  # hypothesis runs the full example budget per call
    gate.finish()
