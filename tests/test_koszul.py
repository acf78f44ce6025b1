"""Koszul complexes, Koszul-route grade, and the dual-top-cokernel module."""
from itertools import combinations

import pytest
from fpdlab import (Budget, FreeModuleMap, GradeValue, ResourceBudgetExceeded,
                    StructuralError, dual_koszul_cokernel, koszul_grade)
from fpdlab.complexes import ext_computer
from fpdlab.koszul import koszul_chain, koszul_homology_is_zero
from fpdlab.modules import is_zero_subquotient, kernel
from helpers import FF, QQ, ZZ, dualize, presentation


def test_single_generator_complex():
    P = presentation(QQ, ("x",))
    K = koszul_chain(P, ("x",))
    assert K.ranks == (1, 1)
    assert [[str(e) for e in row] for row in K.differential(1).matrix] == [["x"]]


def test_two_generator_complex_shape_and_signs():
    P = presentation(QQ, ("x", "y"))
    K = koszul_chain(P, ("x", "y"))
    assert K.ranks == (1, 2, 1)
    assert [[str(e) for e in row] for row in K.differential(1).matrix] == [["x", "y"]]
    assert [[str(e) for e in row] for row in K.differential(2).matrix] == [["-y"], ["x"]]


def test_koszul_entries_are_the_normal_forms_of_the_signed_generators():
    # over ZZ[x,y]/(2x) the normal form of -x is x, not -x: every entry is
    # the normal form the matrix constructor gives the signed generator
    P = presentation(ZZ, ("x", "y"), ["2*x"])
    gens = [P.poly(g) for g in ("x + y", "3*x + y^2", "-x", "5*x*y")]
    K = koszul_chain(P, gens)
    for i in range(1, 5):
        rows = list(combinations(range(4), i - 1))
        cols = list(combinations(range(4), i))
        matrix = [[P.ambient.zero()] * len(cols) for _ in rows]
        for c, S in enumerate(cols):
            for k, j in enumerate(S):
                matrix[rows.index(S[:k] + S[k + 1:])][c] = gens[j] * (-1) ** k
        assert K.differential(i).matrix == FreeModuleMap(P, len(cols), len(rows),
                                                         matrix).matrix


def test_three_generator_complex_composes_to_zero():
    P = presentation(QQ, ("x", "y", "z"))
    K = koszul_chain(P, ("x", "y", "z"))
    assert K.ranks == (1, 3, 3, 1)
    for i in range(1, 3):
        assert K.differential(i).compose(K.differential(i + 1)).is_zero()


def test_empty_generator_tuple_rejected():
    # an ideal with no generators has no Koszul complex and no dual cokernel
    P = presentation(QQ, ("x",))
    with pytest.raises(StructuralError, match="at least one generator"):
        koszul_grade(P.ideal())
    with pytest.raises(StructuralError, match="needs generators"):
        dual_koszul_cokernel(P.ideal(), 0)


def test_koszul_chain_on_no_generators_is_a_structural_error():
    # the chain itself refuses an empty tuple, so no homology decision is
    # asked of two zero maps
    P = presentation(QQ, ("x",))
    with pytest.raises(StructuralError, match="at least one generator"):
        koszul_chain(P, ())


def test_degree_zero_homology_presents_the_quotient():
    # coker d_1 and the ideal have mutually reducing generators
    P = presentation(QQ, ("x", "y"), ["y^2"])
    gens = ("x + y", "x*y")
    K = koszul_chain(P, gens)
    row = K.differential(1).matrix[0]
    I = P.ideal(*gens)
    for entry in row:
        assert I.contains(entry)
    row_ideal = P.ideal(*row)
    for g in gens:
        assert row_ideal.contains(g)


def test_koszul_grade_of_regular_sequence():
    P = presentation(QQ, ("x", "y"))
    I = P.ideal("x", "y")
    assert koszul_grade(I) == GradeValue.finite(2)
    # H_1 = H_2 = 0 and H_0 != 0, directly
    K = koszul_chain(P, I.generators)
    assert koszul_homology_is_zero(K, 1)
    assert koszul_homology_is_zero(K, 2)
    assert not koszul_homology_is_zero(K, 0)


def test_koszul_grade_detects_socle():
    P = presentation(QQ, ("x",), ["x^2"])
    assert koszul_grade(P.ideal("x")) == GradeValue.finite(0)
    K = koszul_chain(P, (P.poly("x"),))
    assert not koszul_homology_is_zero(K, 1)  # H_1 = Ann(x) != 0


def test_koszul_grade_of_unit_ideal_is_infinite():
    P = presentation(QQ, ("x",))
    assert koszul_grade(P.ideal("1")).is_infinite
    assert koszul_grade(P.ideal("x", "x + 1")).is_infinite


def test_koszul_grade_generator_permutation_invariant():
    P = presentation(QQ, ("x", "y"), ["x*y"])
    base = koszul_grade(P.ideal("x", "y"))
    assert koszul_grade(P.ideal("y", "x")) == base == GradeValue.finite(1)


def test_koszul_grade_extra_generator_invariant():
    P = presentation(QQ, ("x", "y"))
    base = koszul_grade(P.ideal("x", "y"))
    extra = koszul_grade(P.ideal("x", "y", "x + y"))
    assert extra == base == GradeValue.finite(2)


def test_koszul_grade_on_generators_all_zero_in_r_uses_the_given_tuple():
    # with no nonzero generator left modulo J, the Koszul chain is taken on
    # the generators as given, whose top homology is all of R
    P = presentation(QQ, ("x", "y"), ["x*y"])
    assert koszul_grade(P.ideal("0")) == GradeValue.finite(0)
    assert koszul_grade(P.ideal("x*y", "0")) == GradeValue.finite(0)


def test_koszul_grade_over_integers():
    P = presentation(ZZ, ("x",))
    assert koszul_grade(P.ideal("x")) == GradeValue.finite(1)
    assert koszul_grade(P.ideal("2", "x")) == GradeValue.finite(2)


def test_dual_cokernel_of_principal_ideal():
    P = presentation(QQ, ("x",))
    res = dual_koszul_cokernel(P.ideal("x"), 0)
    assert res.index == 1
    assert [[str(e) for e in row] for row in res.presentation.matrix] == [["x"]]
    assert res.profile == (True,)
    assert res.exactness_verified
    assert res.projective_dimension_bound == 1


def test_dual_cokernel_of_regular_pair():
    P = presentation(QQ, ("x", "y"))
    res = dual_koszul_cokernel(P.ideal("x", "y"), 1)
    assert res.index == 2
    assert (res.presentation.target_rank, res.presentation.source_rank) == (1, 2)
    assert [[str(e) for e in row] for row in res.presentation.matrix] == [["-y", "x"]]
    assert res.profile == (True, True)
    assert res.exactness_verified


def test_dual_cokernel_without_vanishing_makes_no_claim():
    P = presentation(QQ, ("x",), ["x^2"])
    res = dual_koszul_cokernel(P.ideal("x"), 1)
    assert res.profile[0] is False
    assert not res.exactness_verified
    assert res.projective_dimension_bound is None


def test_dual_cokernel_of_unit_ideal_split_exact():
    P = presentation(QQ, ("x", "y"))
    I = P.ideal("1", "x")
    res = dual_koszul_cokernel(I, 1)
    assert res.exactness_verified
    # S is presented by the transposed top differential with full expected ranks
    assert res.presentation.target_rank == 1  # C(2, 2)
    assert res.presentation.source_rank == 2  # C(2, 1)


def _dual_exact_through(I, n):
    """The direct check: the dual of the Koszul chain on I's m generators is
    exact at positions 0..min(n, m), kernel and image compared both ways.
    Position i of the dual is index m - i of `dualize`'s chain."""
    gens = I.generators
    m = len(gens)
    D = dualize(koszul_chain(I.ring, gens))
    for i in range(min(n, m) + 1):
        p = m - i
        d_in = D.differential(p + 1) if p < m else None
        if p > 0:
            Z = kernel(D.differential(p))
        else:  # nothing leaves the top: every element is a cycle
            Z = FreeModuleMap(I.ring, D.ranks[0], D.ranks[0],
                              [[1 if r == c else 0 for c in range(D.ranks[0])]
                               for r in range(D.ranks[0])])
        B = d_in if d_in is not None else FreeModuleMap(I.ring, 0, Z.target_rank,
                                                        [[]] * Z.target_rank)
        if not (is_zero_subquotient(Z, B, verify_containment=False)
                and is_zero_subquotient(B, Z, verify_containment=False)):
            return False
    return True


@pytest.mark.parametrize("domain, variables, relations, gens, n", [
    (QQ, ("x", "y"), [], ("x", "y"), 1),           # regular sequence
    (QQ, ("x", "y"), [], ("1", "x"), 1),           # unit ideal
    (QQ, ("x", "y"), [], ("1", "x"), 3),           # unit ideal, n >= m
    (QQ, ("x", "y"), [], ("x", "y"), 2),           # n >= m, H_0 = R/I != 0
    (QQ, ("x", "y"), ["x*y"], ("x", "y"), 1),      # profile (True, False)
    (QQ, ("x",), ["x^2"], ("x",), 0),              # profile (False,)
    (FF(7), ("x", "y", "z", "w"), ["x*w - y*z"], ("x", "y", "z", "w"), 2),
    (ZZ, ("x",), [], ("2", "x"), 1),               # ZZ, grade 2
    (ZZ, ("x",), [], ("2", "x"), 2),               # ZZ, n >= m
    (ZZ, ("x",), ["2*x"], ("2", "x"), 0),          # ZZ, profile (True,)
    (ZZ, ("x",), ["2*x"], ("x",), 0),              # ZZ, Ann(x) = (2)
])
def test_exactness_verified_agrees_with_the_dual_complex(domain, variables,
                                                         relations, gens, n):
    I = presentation(domain, variables, relations).ideal(*gens)
    assert dual_koszul_cokernel(I, n).exactness_verified == _dual_exact_through(I, n)


def test_a_koszul_grade_cut_short_keeps_its_decisions():
    def ideal():
        P = presentation(FF(7), ("x", "y", "z", "w"), ["x*w - y*z"])
        return P.ideal("x", "y", "z", "w")

    cold = Budget()
    assert koszul_grade(ideal(), budget=cold) == GradeValue.finite(3)
    # the steps that build the chain and decide the top module H_4
    top = Budget()
    I = ideal()
    koszul_homology_is_zero(koszul_chain(I.ring, I.generators, top), 4, top)
    I = ideal()
    with pytest.raises(ResourceBudgetExceeded):
        koszul_grade(I, budget=Budget(max_steps=top.steps))
    assert ext_computer(I).koszul == {4: True}
    resumed = Budget()
    assert koszul_grade(I, budget=resumed) == GradeValue.finite(3)
    assert resumed.steps < cold.steps
