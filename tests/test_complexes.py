"""Chain complexes, free resolutions, dualization, Ext vanishing decisions."""
import pytest
from fpdlab import (Budget, ChainComplex, ExtComputer, FreeModuleMap,
                    ResourceBudgetExceeded, StructuralError, annihilator,
                    ext_vanishing_profile)
from fpdlab.cli import CliConfig, run_command
from fpdlab.complexes import (ResolutionCache, cyclic_presentation, ext_computer,
                              homology_is_zero)
from fpdlab.koszul import koszul_chain
from fpdlab.modules import is_zero_subquotient
from fpdlab.script import parse
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
    K = koszul_chain(P, I.generators)
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
    K = koszul_chain(P, (P.poly("x"), P.poly("y")))
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


FLAGSHIP = ("ring R = ZZ[a,b,c]/(a^2 - 4*b, a*b - 2*c, a*c - 2*b^2, b^3 - c^2); "
            "ideal m = (3, a, b, c); ")


def test_the_flagship_maximal_ideal_is_decided_over_its_residue_field():
    # 3 is regular on ZZ[2X, X^2, X^3], a subring of ZZ[X]: Ext^0 = 0 and
    # Ext^(i+1) over ZZ is Ext^i of (a, b, c) over R/3R = FF3[X] (Rees)
    script = parse(FLAGSHIP + "criterion m 1; grade m;")
    records = [run_command(script, c, CliConfig()) for c in script.commands()]
    assert records[0]["result"]["profile"] == [True, True]
    assert records[1]["result"]["value"] == "2"
    computer = ext_computer(script.ideals["m"])
    low = computer.route()
    assert str(low.ideal.ring) == "FF3[a,b,c]/(a^2 + 2*b, a*b + c, b^2 + a*c, b^3 + 2*c^2)"
    assert low.resolution is not None and computer.resolution is None
    # Ann(m) lies in Ann(3) = 0, and 1 is not in m since it is not in m/3R:
    # neither the annihilator of m nor an image basis of m over ZZ is made
    assert computer.ann_zero is True and computer.has_one is False
    assert computer.presentation._gb is None and computer.presentation._left is None
    assert script.rings["R"].modulo(3) is low.ideal.ring


@pytest.mark.parametrize("relations, gens", [
    (["2*x"], ("2", "x", "y")),            # 2 is a zero divisor: 2*x = 0
    (["4", "x^2 + 2*x"], ("2", "x")),      # J meets ZZ in (4): 2*2 = 0
    ([], ("6", "x")),                      # 6 is not prime
    ([], ("x", "y")),                      # no constant generator
])
def test_the_route_declines_without_a_regular_prime(relations, gens):
    I = presentation(ZZ, ("x", "y"), relations).ideal(*gens)
    computer = ext_computer(I)
    profile = ext_vanishing_profile(I, 2)
    assert computer.route() is None and computer.resolution is not None
    # the profile is the one read off the resolution over ZZ
    J = presentation(ZZ, ("x", "y"), relations).ideal(*gens)
    res = ResolutionCache(cyclic_presentation(J))
    assert profile == tuple(homology_is_zero(res.dual(i + 1), res.dual(i) if i else None)
                            for i in range(3))


def test_a_unit_ideal_on_the_route_still_gets_its_cofactors():
    # 1 is in (2, 2x + 1) since it is in (0, 1) modulo 2
    I = presentation(ZZ, ("x",)).ideal("2", "2*x + 1")
    assert ext_vanishing_profile(I, 2) == (True, True, True)
    unit = ext_computer(I).unit_ideal(I)
    assert ext_computer(I).route() is not None
    assert [str(c) for c in unit.cofactors] == ["-x", "1"]


def test_a_route_cut_short_by_the_budget_stores_nothing():
    I = presentation(ZZ, ("a", "b", "c"),
                     ["a^2 - 4*b", "a*b - 2*c", "a*c - 2*b^2", "b^3 - c^2"]
                     ).ideal("3", "a", "b", "c")
    computer = ext_computer(I)
    with pytest.raises(ResourceBudgetExceeded):
        computer.ext_is_zero(1, Budget(max_steps=5))
    assert computer.low is None and computer.decided == {}
    assert computer.ext_is_zero(1) and computer.route() is not None
