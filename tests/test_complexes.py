"""Chain complexes, free resolutions, dualization, Ext vanishing decisions."""
import pytest
from fpdlab import (Budget, ChainComplex, ExtComputer, FreeModuleMap,
                    StructuralError, annihilator, ext_vanishing_profile)
from fpdlab.complexes import ResolutionCache, cyclic_presentation
from fpdlab.koszul import koszul_chain
from fpdlab.modules import is_zero_subquotient
from helpers import (FF, QQ, ZZ, dualize, free_resolution,
                     free_resolution_of_quotient, presentation)


def test_resolution_of_free_module_is_immediate():
    P = presentation(QQ, ("x",))
    pres = FreeModuleMap(P, 0, 1, [[]])
    C = free_resolution(pres, 0)
    assert C.ranks == (1,)


def test_resolution_of_maximal_ideal_is_koszul_shaped():
    P = presentation(QQ, ("x", "y"))
    I = P.ideal("x", "y")
    C = free_resolution_of_quotient(I, 2)
    assert C.ranks == (1, 2, 1)
    # mutual reduction against the Koszul differentials: equal images
    K = koszul_chain(P, I.generators, 2)
    for i in (1, 2):
        im_res, im_kos = C.differential(i), K.differential(i)
        assert is_zero_subquotient(im_res, im_kos, verify_containment=False)
        assert is_zero_subquotient(im_kos, im_res, verify_containment=False)


def test_resolution_over_dual_numbers_is_periodic():
    P = presentation(QQ, ("x",), ["x^2"])
    C = free_resolution_of_quotient(P.ideal("x"), 3)
    assert C.ranks == (1, 1, 1, 1)
    for d in C.diffs:
        assert [[str(e) for e in row] for row in d.matrix] == [["x"]]


def test_resolutions_over_integers_compose_to_zero():
    # the constructor checks d.d = 0; the ranks depend on pruning, so they
    # are not asserted
    Z = presentation(ZZ, ("a", "b", "c"),
                     ["a^2 - 4*b", "a*b - 2*c", "a*c - 2*b^2", "b^3 - c^2"])
    T = presentation(ZZ, ("x",), ["4", "x^2 + x"])
    for I in (Z.ideal("3", "a", "b", "c"), Z.ideal("2", "a", "b", "c"),
              T.ideal("2*x + 2")):
        C = free_resolution_of_quotient(I, 3)
        assert C.length == 3
        for i in range(1, 3):
            assert C.differential(i).compose(C.differential(i + 1)).is_zero()


def test_free_resolution_checks_each_composition_once():
    # the resolution cache checks d_i . d_(i+1) as it adds d_(i+1), and
    # free_resolution leaves that check to its ChainComplex: both spend the
    # same steps (fresh rings, so neither reuses the other's Groebner data)
    def flagship():
        return presentation(ZZ, ("a", "b", "c"),
                            ["a^2 - 4*b", "a*b - 2*c", "a*c - 2*b^2", "b^3 - c^2"])
    via_complex = Budget()
    free_resolution_of_quotient(flagship().ideal("3", "a", "b", "c"), 3, via_complex)
    via_cache = Budget()
    I = flagship().ideal("3", "a", "b", "c")
    ResolutionCache(cyclic_presentation(I, via_cache)).differential(3, via_cache)
    assert via_complex.steps == via_cache.steps > 0


def test_chain_complex_rejects_nonzero_composition():
    P = presentation(QQ, ("x",))
    d1 = FreeModuleMap(P, 1, 1, [["x"]])
    d2 = FreeModuleMap(P, 1, 1, [["1"]])
    with pytest.raises(StructuralError):
        ChainComplex(P, (1, 1, 1), (d1, d2))


def test_dualize_transposes_and_reverses():
    P = presentation(QQ, ("x",))
    d1 = FreeModuleMap(P, 1, 1, [["x"]])
    C = ChainComplex(P, (1, 1), (d1,))
    D = dualize(C)
    assert D.ranks == (1, 1)
    assert [[str(e) for e in row] for row in D.diffs[0].matrix] == [["x"]]


def test_dualize_koszul_first_step():
    P = presentation(QQ, ("x", "y"))
    K = koszul_chain(P, (P.poly("x"), P.poly("y")), 2)
    D = dualize(K)
    # the last dual differential is the column map R -> R^2 with entries x, y
    d_top = D.diffs[-1]
    assert (d_top.source_rank, d_top.target_rank) == (1, 2)
    assert [[str(e) for e in row] for row in d_top.matrix] == [["x"], ["y"]]


def test_dualize_is_an_involution_on_matrices():
    P = presentation(QQ, ("x", "y"))
    C = free_resolution_of_quotient(P.ideal("x", "y"), 2)
    DD = dualize(dualize(C))
    assert DD.ranks == C.ranks
    for a, b in zip(DD.diffs, C.diffs):
        assert a.matrix == b.matrix


def test_ext_profile_of_regular_sequence():
    P = presentation(QQ, ("x", "y"))
    I = P.ideal("x", "y")
    E = ExtComputer(I)
    assert E.ext_is_zero(0)
    assert E.ext_is_zero(1)
    assert not E.ext_is_zero(2)
    assert ext_vanishing_profile(I, 1) == (True, True)


def test_ext_of_unit_ideal_always_vanishes():
    P = presentation(QQ, ("x",))
    assert ext_vanishing_profile(P.ideal("1"), 3) == (True, True, True, True)


def test_ext_zero_detects_socle():
    P = presentation(QQ, ("x",), ["x^2"])
    assert not ExtComputer(P.ideal("x")).ext_is_zero(0)


def test_ext_profile_of_principal_ideal():
    P = presentation(QQ, ("x",))
    assert ext_vanishing_profile(P.ideal("x"), 1) == (True, False)


def test_profile_is_resolution_independent():
    P = presentation(FF(3), ("x", "y"))
    gens = ("x^2", "x*y", "y^2")
    I1 = P.ideal(*gens)
    I2 = P.ideal(*reversed(gens))
    I3 = P.ideal("x^2", "x*y", "y^2", "x^2 + x*y")  # redundant generator
    profiles = {ext_vanishing_profile(I, 2) for I in (I1, I2, I3)}
    assert len(profiles) == 1


def test_ext0_matches_annihilator_on_assorted_ideals():
    cases = [
        presentation(QQ, ("x", "y")).ideal("x"),
        presentation(QQ, ("x", "y"), ["x*y"]).ideal("x"),
        presentation(QQ, ("x",), ["x^3"]).ideal("x^2"),
        presentation(FF(2), ("x", "y"), ["x^2", "x*y"]).ideal("x", "y"),
    ]
    for I in cases:
        assert ExtComputer(I).ext_is_zero(0) == annihilator(I).is_zero()


def test_cyclic_presentation_drops_zero_generators():
    P = presentation(QQ, ("x",), ["x^2"])
    pres = cyclic_presentation(P.ideal("x", "x^2"))
    assert pres.source_rank == 1  # x^2 is zero in R


def test_regular_sequence_profile_boundary():
    # for I = (x1..xm) regular: Ext^i = 0 for i < m, nonzero at m
    for m in (1, 2, 3):
        P = presentation(QQ, tuple(f"x{i}" for i in range(m)))
        I = P.ideal(*P.variables)
        prof = ext_vanishing_profile(I, m)
        assert prof == tuple([True] * m + [False])
