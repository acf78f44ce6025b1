"""The Groebner engine over fields and ZZ, normal forms, ideal
operations, and the Krull dimension combinatorics."""
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from fpdlab import (GREVLEX, LEX, Budget, FreeModuleMap, RingPresentation,
                    StructuralError, UnsupportedDomainError, annihilator,
                    is_unit_ideal, krull_dimension, normal_form_polys)
from fpdlab import complexes, groebner, modules
from fpdlab.cli import EXIT_INTERNAL, CliConfig, execute_script
from fpdlab.complexes import cyclic_presentation
from fpdlab.finite_rings import FiniteRing, enumerate_ideals
from fpdlab.groebner import (VecBasis, _interreduce, completion,
                             groebner_basis_of_polys, poly_to_vec,
                             polys_to_vec, vec_groebner, vec_normal_form)
from fpdlab.modules import _relation_block, kernel
from fpdlab.script import parse
from helpers import (FF, QQ, ZZ, assert_is_vec_groebner, basis_polys,
                     decode_basis, decode_vec, encode_term, encode_vec, mono_divides,
                     monomials_up_to, poly_ring, presentation, reference_colon,
                     reference_interreduce, reference_intersection,
                     reference_normal_form, term_key)


def test_normal_form_single_division_step():
    A = poly_ring(QQ, "x", "y", order=LEX)
    G = groebner_basis_of_polys(A, [A.poly("x^2 - y")])
    assert normal_form_polys(A.poly("x^2"), G) == A.poly("y")


def test_normal_form_of_member_is_zero():
    A = poly_ring(QQ, "x", "y")
    gens = [A.poly("x^2 - y"), A.poly("x*y + 1")]
    G = groebner_basis_of_polys(A, gens)
    member = gens[0] * A.poly("y^2 - 3") + gens[1] * A.poly("x + y")
    assert normal_form_polys(member, G).is_zero


def test_normal_form_untouched_when_no_lead_divides():
    A = poly_ring(QQ, "x", "y")
    G = groebner_basis_of_polys(A, [A.poly("x")])
    assert normal_form_polys(A.poly("y"), G) == A.poly("y")


def test_normal_form_order_mismatch_raises():
    A = poly_ring(QQ, "x", "y")
    G = groebner_basis_of_polys(A, [A.poly("x")])
    with pytest.raises(StructuralError):
        normal_form_polys(poly_ring(QQ, "x", "y", order=LEX).poly("x"), G)


def test_reduced_basis_of_linear_span():
    A = poly_ring(QQ, "x", "y")
    G = groebner_basis_of_polys(A, [A.poly("x + y"), A.poly("x - y")])
    assert [str(p) for p in basis_polys(G)] == ["y", "x"]


def test_monomial_ideal_is_its_own_basis():
    A = poly_ring(QQ, "x", "y")
    G = groebner_basis_of_polys(A, [A.poly("x^2"), A.poly("x*y")])
    assert {str(p) for p in basis_polys(G)} == {"x^2", "x*y"}
    assert_is_vec_groebner(G)


def test_strong_integer_basis_gcd_combination():
    A = poly_ring(ZZ, "x")
    two_x, three_x = A.poly("2*x"), A.poly("3*x")
    G = groebner_basis_of_polys(A, [two_x, three_x])
    assert [str(p) for p in basis_polys(G)] == ["x"]
    # the gcd combination 1*x = (-1)(2x) + (1)(3x), and both inputs reduce to 0
    assert A.poly("x") == -1 * two_x + three_x
    assert normal_form_polys(two_x, G).is_zero
    assert normal_form_polys(three_x, G).is_zero
    assert_is_vec_groebner(G)


def test_strong_integer_basis_keeps_non_unit_content():
    A = poly_ring(ZZ, "x")
    G = groebner_basis_of_polys(A, [A.poly("2"), A.poly("x")])
    assert {str(p) for p in basis_polys(G)} == {"2", "x"}
    assert not normal_form_polys(A.poly("1"), G).is_zero
    assert normal_form_polys(A.poly("3*x + 4"), G).is_zero  # 3x + 4 = 3*x + 2*2
    assert normal_form_polys(A.poly("3*x + 5"), G) == A.poly("1")
    assert_is_vec_groebner(G)


def test_strong_integer_basis_on_mixed_generators():
    A = poly_ring(ZZ, "x", "y")
    G = groebner_basis_of_polys(A, [A.poly("2*x - y"), A.poly("3*y"), A.poly("x^2")])
    assert_is_vec_groebner(G)
    # determinism of repeated runs
    H = groebner_basis_of_polys(A, [A.poly("2*x - y"), A.poly("3*y"), A.poly("x^2")])
    assert [str(p) for p in basis_polys(G)] == [str(p) for p in basis_polys(H)]


def test_zz_product_criterion_needs_coprime_lead_coefficients():
    # x and y are coprime but 2 and 2 are not: y = y(2x + 1) - x(2y) is the
    # S-polynomial, and no G-pair is queued since 2 divides 2
    A = poly_ring(ZZ, "x", "y")
    G = groebner_basis_of_polys(A, [A.poly("2*x + 1"), A.poly("2*y")])
    assert [str(p) for p in basis_polys(G)] == ["y", "2*x + 1"]
    assert_is_vec_groebner(G)


def test_zz_g_pairs_join_generators_to_the_relation_block():
    # (3x, y) meets the marked block vector (2x, 0) in an S-pair, whose
    # S-vector 2*(3x, y) - 3*(2x, 0) = (0, 2y), and in a G-pair, whose
    # G-vector (3x, y) - (2x, 0) = (x, y) only it gives; (3x, y) goes in
    # unreduced, since a map's constructor would make it (x, y)
    R = presentation(ZZ, ("x", "y"), ["2*x", "x*y"])
    B = vec_groebner([encode_vec({(0, (1, 0)): 3, (1, (0, 1)): 1}, R.ambient)],
                     R.ambient, Budget(), block=_relation_block(R, 2, Budget()).vecs)
    assert {(0, (1, 0)): 1, (1, (0, 1)): 1} in decode_basis(B)[0]
    assert_is_vec_groebner(B)


def test_field_basis_unique_under_generator_permutation():
    A = poly_ring(QQ, "x", "y")
    gens = [A.poly("x^2 + y"), A.poly("x*y - 1"), A.poly("y^3 - x")]
    G1 = groebner_basis_of_polys(A, gens)
    G2 = groebner_basis_of_polys(A, list(reversed(gens)))
    assert [p.terms for p in basis_polys(G1)] == [p.terms for p in basis_polys(G2)]


def test_unit_ideal_with_certificate():
    P = presentation(QQ, ("x",))
    res = is_unit_ideal(P.ideal("x", "x + 1"))
    assert res.is_unit
    total = P.ambient.zero()
    for c, g in zip(res.cofactors, (P.poly("x"), P.poly("x + 1"))):
        total = total + c * g
    assert total == P.ambient.one()
    assert [str(c) for c in res.cofactors] == ["-1", "1"]


def test_unit_ideal_negative_cases():
    P = presentation(QQ, ("x", "y"))
    assert not is_unit_ideal(P.ideal("x", "y")).is_unit
    Z = presentation(ZZ, ("x",))
    assert not is_unit_ideal(Z.ideal("2", "x")).is_unit


def test_unit_ideal_decides_by_its_lift_basis_alone(monkeypatch):
    # one completion per call, the graph basis of `vec_lift`, for a unit
    # ideal and a proper one alike
    P = presentation(QQ, ("x", "y"))
    P.relations_groebner()
    calls = []
    complete = groebner.vec_groebner
    monkeypatch.setattr(groebner, "vec_groebner",
                        lambda *args, **kwargs: calls.append(1) or complete(*args, **kwargs))
    assert is_unit_ideal(P.ideal("x", "x + 1"))
    assert not is_unit_ideal(P.ideal("x", "y"))
    assert len(calls) == 2


def test_unit_ideal_without_a_lift_is_internal(monkeypatch):
    # the cyclic presentation says 1 is in I; a lift that fails is a
    # library defect, not a proper ideal
    monkeypatch.setattr(groebner, "vec_lift", lambda *args: None)
    records, code = execute_script(
        parse("ring R = QQ[x]; ideal u = (x, x + 1); criterion u 1;"), CliConfig())
    assert code == EXIT_INTERNAL
    assert records[0]["status"] == "internal"
    assert "unit ideal without a lift" in records[0]["error"]


def test_unit_ideal_through_relations():
    # 1 = x + (1 - x) where 1 - x lies in the relation ideal
    A = poly_ring(QQ, "x")
    P = RingPresentation(A, [A.poly("x - 1")])
    res = is_unit_ideal(P.ideal("x"))
    assert res.is_unit
    assert P.is_zero_element(res.cofactors[0] * A.poly("x") - A.one())


# One presentation per engine: (domain, variables, relations, ideal, element)
ENGINE_CASES = [
    (QQ, ("x", "y"), ["x^2", "x*y"], ["x", "y^2"], "y"),
    (FF(3), ("x", "y"), ["x^2*y", "y^2"], ["x*y", "y"], "x + y"),
    (ZZ, ("x",), ["4", "x^2 + x"], ["2*x + 2", "x"], "x + 1"),
]


def _same_ideal(A, B):
    return (all(B.contains(g) for g in A.generators)
            and all(A.contains(g) for g in B.generators))


def test_annihilator_socle_and_domain():
    Q = presentation(QQ, ("x",), ["x^2"])
    a = annihilator(Q.ideal("x"))
    assert [str(g) for g in a.generators] == ["x"]
    P = presentation(QQ, ("x",))
    assert annihilator(P.ideal("x")).is_zero()
    # on every engine: the syzygies of one generator f are Ann(f)
    for domain, variables, relations, gens, f in ENGINE_CASES:
        R = presentation(domain, variables, relations)
        I = R.ideal(*gens)
        phi = FreeModuleMap(R, len(gens), 1, [I.generators])
        for syz in kernel(phi).generators:
            assert R.is_zero_element(sum((a * s for a, s in zip(I.generators, syz)),
                                         R.ambient.zero()))
        principal = FreeModuleMap(R, 1, 1, [[f]])
        syz_ideal = R.ideal(*(s[0] for s in kernel(principal).generators))
        assert _same_ideal(annihilator(R.ideal(f)), syz_ideal)


def _ext_zz_ring(k):
    """ZZ[kX, X^2, X^3] as perfbench's ext_zz workload presents it."""
    return presentation(ZZ, ("a", "b", "c"), [f"a^2 - {k * k}*b", f"a*b - {k}*c",
                                              f"a*c - {k}*b^2", "b^3 - c^2"])


# (ring, generators, divisors the colon takes before it stops, or None when
# the annihilator is nonzero and it runs to the end)
COLON_CASES = (
    [pytest.param(_ext_zz_ring(k), (str(p), "a", "b", "c"), 1,   # Ann(p) = 0
                  id=f"ZZ[{k}X,X^2,X^3]-({p},a,b,c)")
     for k in (2, 3, 4, 5, 6) for p in (2, 3, 5)]
    + [pytest.param(presentation(QQ, ("x", "y"), ["x*y"]), ("x", "y"), 2,
                    id="QQ[x,y]/(xy)-(x,y)"),
       pytest.param(presentation(QQ, ("x", "y"), ["x^2", "x*y"]), ("x", "y"), None,
                    id="QQ[x,y]/(x^2,xy)-(x,y)"),
       pytest.param(presentation(FF(3), ("x", "y"), ["x^2", "x*y"]), ("y", "x"),
                    None, id="FF3[x,y]/(x^2,xy)-(y,x)")])


def _counting_intersections(monkeypatch) -> list:
    calls = []
    meet = groebner.ideal_intersection_polys

    def counted(*args):
        calls.append(args)
        return meet(*args)

    monkeypatch.setattr(groebner, "ideal_intersection_polys", counted)
    return calls


@pytest.mark.parametrize("R, gens, stop", COLON_CASES)
def test_colon_stop_matches_the_full_loop(R, gens, stop, monkeypatch):
    # the stop changes no generator of the annihilator, against the loop
    # over every divisor
    divisors = [R.normal_form(g) for g in gens]
    expected = reference_colon(R, R.relations, divisors, Budget())
    calls = _counting_intersections(monkeypatch)
    assert annihilator(R.ideal(*gens)).generators == expected
    assert (expected == ()) == (stop is not None)
    # one intersection for the first divisor, then two for each later one
    taken = len(divisors) if stop is None else stop
    assert len(calls) == 2 * taken - 1


def test_annihilator_of_the_flagship_maximal_ideal_takes_one_elimination(monkeypatch):
    # ZZ[2X, X^2, X^3] is a domain, so Ann(2) = 0 ends the colon at once
    R = _ext_zz_ring(2)
    calls = _counting_intersections(monkeypatch)
    assert annihilator(R.ideal("2", "a", "b", "c")).is_zero()
    assert len(calls) == 1


def test_inexact_division_in_the_colon_is_internal(monkeypatch):
    # an intersection with <f> holding a non-multiple of f means the
    # elimination is broken: a library defect, not a fault of the input
    monkeypatch.setattr(groebner, "ideal_intersection_polys",
                        lambda ambient, *args: [ambient.poly("x + 1")])
    records, code = execute_script(
        parse("ring R = QQ[x,y]/(x*y); ideal m = (x, y); semiregular m;"),
        CliConfig())
    assert code == EXIT_INTERNAL
    assert records[0]["status"] == "internal"
    assert "colon by x" in records[0]["error"]


_MEET_GENS = st.lists(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                      st.integers(-4, 4), max_size=3), max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([QQ, FF(5), ZZ]), st.sampled_from([GREVLEX, LEX]),
       _MEET_GENS, _MEET_GENS)
@example(ZZ, GREVLEX, [{}, {(1, 0): 0}], [{(1, 0): 2, (0, 1): 3}])
def test_intersection_in_a2_spans_what_t_elimination_spans(domain, order, a, b):
    # the meet in A^2 and the old t-elimination give generators of one ideal,
    # each of them in both inputs; an input whose generators are all zero
    # meets anything in the zero ideal
    A = poly_ring(domain, "x", "y", order=order)
    gens_a, gens_b = ([A.from_dict(d) for d in g] for g in (a, b))
    meet = groebner.ideal_intersection_polys(A, gens_a, gens_b, Budget())
    ref = reference_intersection(A, gens_a, gens_b, Budget())

    def member(gens):
        G = groebner_basis_of_polys(A, gens)
        return lambda p: normal_form_polys(p, G).is_zero

    in_meet, in_ref, in_a, in_b = map(member, (meet, ref, gens_a, gens_b))
    assert all(map(in_meet, ref)) and all(map(in_ref, meet))
    assert all(in_a(p) and in_b(p) for p in meet)
    if all(g.is_zero for g in gens_a) or all(g.is_zero for g in gens_b):
        assert meet == []


def test_the_annihilator_takes_no_kernel(monkeypatch):
    # the annihilator cross-checks Hom(R/I, R) = 0, which the resolution
    # reads off the kernel of d_1^T; with every kernel and graph basis
    # refused it must still answer, so it stays a second algorithm
    def refused(*args, **kwargs):
        raise AssertionError("the annihilator took the kernel route")

    for module, name in ((modules, "kernel"), (complexes, "kernel"),
                         (groebner, "graph_groebner"), (modules, "graph_groebner")):
        monkeypatch.setattr(module, name, refused)
    R = presentation(QQ, ("x", "y"), ["x*y"])
    with pytest.raises(AssertionError, match="kernel route"):
        complexes.ext_computer(R.ideal("x")).ext_is_zero(0)
    assert [str(g) for g in annihilator(R.ideal("x")).generators] == ["y"]
    assert annihilator(R.ideal("x", "y")).is_zero()
    assert annihilator(_ext_zz_ring(2).ideal("2", "a", "b", "c")).is_zero()


def _assert_canonical(B):
    """Cached leads are the true ones, strictly ascending and normalized,
    and no tail term is reducible by any lead."""
    assert isinstance(B, VecBasis)
    dom = B.ring.domain
    tkey = term_key(B.ring)
    vecs, lts = decode_basis(B)
    for v, lt, lc in zip(vecs, lts, B.lcs):
        assert lt == max(v, key=tkey) and lc == v[lt]
        assert dom.lc_normalizer(lc) == dom.one()
        for (pos, m), c in v.items():
            if (pos, m) == lt:
                continue
            for (bpos, bm), a in zip(lts, B.lcs):
                if bpos == pos and mono_divides(bm, m):
                    # over ZZ c*m is reducible by a*u only when c // a != 0
                    assert not dom.is_field and 0 <= c < a
    keys = [tkey(lt) for lt in lts]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_vec_groebner_returns_its_canonical_vec_basis():
    # each reduced basis keeps tails; over ZZ some tail coefficients lie in
    # [0, a) under a lead a*u that divides their monomial (2*x under 4*x)
    cases = [(QQ, ("x", "y", "z"), ["x*z - y^2"], ["x^2 - y*z", "x*y - z^2 + x"]),
             (FF(3), ("x", "y"), ["x^2 + y + 1"], ["x*y - 2*y^2 + x"]),
             (ZZ, ("x", "y"), ["8*x", "x^2 - 2*x"], ["4*x + 3*y"])]
    for domain, variables, relations, gens in cases:
        R = presentation(domain, variables, relations)
        polys = [R.poly(g) for g in relations + gens]
        B = vec_groebner([poly_to_vec(p) for p in polys], R.ambient, Budget())
        _assert_canonical(B)
        assert any(len(v) > 1 for v in B.vecs)
        # the cyclic presentation's basis (its image + J) is the same basis
        G = cyclic_presentation(R.ideal(*gens)).groebner_vectors()
        _assert_canonical(G)
        assert (G.vecs, G.lts) == (B.vecs, B.lts)
    # a rank-2 submodule over ZZ, with the relation multiples J*e_i
    R = presentation(ZZ, ("x", "y"), ["6", "x^2 - y"])
    S = FreeModuleMap(R, 3, 2, [["2*x + 4", "3*y", "x*y"], ["x*y", "x + 2", "4"]])
    B = S.groebner_vectors()
    _assert_canonical(B)
    assert {pos for pos, _ in decode_basis(B)[1]} == {0, 1}


def test_qq_basis_vectors_hold_integral_values_as_int():
    # 2*x^2 - 4*y is stored monic as x^2 - 2*y: the lead 1 and the tail -2
    # are canonical QQ values, int rather than Fraction
    A = poly_ring(QQ, "x", "y")
    B = vec_groebner([poly_to_vec(A.poly("2*x^2 - 4*y"))], A, Budget())
    assert decode_basis(B)[0] == [{(0, (2, 0)): 1, (0, (0, 1)): -2}]
    assert [type(c) for c in B.vecs[0].values()] == [int, int]
    assert type(B.lcs[0]) is int


def test_annihilator_coordinate_cross_brute_sweep():
    # Ann((x, y)) in QQ[x,y]/(xy) is zero: no nonzero normal form of degree <= 3
    # kills both x and y
    P = presentation(QQ, ("x", "y"), ["x*y"])
    I = P.ideal("x", "y")
    a = annihilator(I)
    assert a.is_zero()
    A = P.ambient
    seen = set()
    for m in monomials_up_to(A, 3):
        r = P.normal_form(A.from_dict({m: 1}))
        if r.is_zero or r.terms in seen:
            continue
        seen.add(r.terms)
        kills_both = (P.is_zero_element(r * A.poly("x"))
                      and P.is_zero_element(r * A.poly("y")))
        assert not kills_both, f"unexpected annihilator element {r}"


def test_annihilator_of_zero_ideal_is_unit():
    P = presentation(QQ, ("x",))
    a = annihilator(P.ideal())
    assert a.contains("1")


def test_krull_dimension_cases():
    assert krull_dimension(presentation(QQ, ("x", "y", "z"))) == 3
    assert krull_dimension(presentation(QQ, ("x",), ["x^2"])) == 0
    assert krull_dimension(presentation(QQ, ("x", "y"), ["x*y"])) == 1


def test_krull_dimension_rejects_integers_and_zero_ring():
    with pytest.raises(UnsupportedDomainError):
        krull_dimension(presentation(ZZ, ("x",)))
    with pytest.raises(StructuralError):
        krull_dimension(presentation(QQ, ("x",), ["1"]))


def test_difference_with_normal_form_is_member():
    A = poly_ring(FF(5), "x", "y")
    gens = [A.poly("x^2 + 2*y"), A.poly("y^2 - x")]
    G = groebner_basis_of_polys(A, gens)
    f = A.poly("x^4 + 3*x*y + 1")
    r = normal_form_polys(f, G)
    assert normal_form_polys(f - r, G).is_zero
    assert normal_form_polys(r, G) == r  # idempotent


def test_step_budget_exhaustion_reports_partial_state():
    from fpdlab import Budget, ResourceBudgetExceeded
    A = poly_ring(QQ, "x", "y", "z")
    gens = [A.poly("x^2*y - z"), A.poly("y^2*z - x"), A.poly("z^2*x - y")]
    with pytest.raises(ResourceBudgetExceeded) as err:
        groebner_basis_of_polys(A, gens, budget=Budget(max_steps=5))
    assert err.value.steps > 5
    assert err.value.basis_size is not None


@pytest.mark.parametrize("domain", [QQ, FF(3), ZZ])
def test_a_stop_during_the_initial_inserts_names_the_basis_size(domain):
    from fpdlab import ResourceBudgetExceeded
    # x^3 reduces by the first generator before any pair is queued
    A = poly_ring(domain, "x", "y")
    vecs = [poly_to_vec(A.poly(p)) for p in ("x^2 - y", "x^3")]
    with pytest.raises(ResourceBudgetExceeded) as err:
        completion(vecs, A, Budget(max_steps=0))
    assert (err.value.basis_size, err.value.pending_pairs) == (1, 0)
    assert str(err.value).endswith("(basis size 1, pending pairs 0)")


def test_deadline_exhaustion():
    from fpdlab import Budget, ResourceBudgetExceeded
    A = poly_ring(QQ, "x", "y", "z")
    gens = [A.poly("x^3*y - z^2"), A.poly("y^3*z - x^2"), A.poly("z^3*x - y^2"),
            A.poly("x*y*z - x - y - z")]
    with pytest.raises(ResourceBudgetExceeded) as err:
        groebner_basis_of_polys(A, gens, budget=Budget(deadline_seconds=0.0))
    assert "deadline" in str(err.value)


def test_membership_agrees_with_finite_oracle_on_truncated_lines():
    # ideals of FF_p[x]/(x^k) through both the table oracle and normal forms
    for p, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        fin = FiniteRing.quotient(p, [0] * k + [1])
        P = presentation(FF(p), ("x",), [f"x^{k}"])
        A = P.ambient

        def elem_poly(i):
            coeffs = fin.element_coeffs[i]
            return A.from_dict({(e,): c for e, c in enumerate(coeffs) if c})

        for ideal_set in enumerate_ideals(fin):
            gens = [elem_poly(i) for i in sorted(ideal_set) if i != fin.zero]
            I = P.ideal(*gens)
            for i in range(fin.order):
                in_brute = i in ideal_set
                assert I.contains(elem_poly(i)) == in_brute


def _random_vec(rng, domain, monos, rank, nterms):
    """A random engine vector, built from exponent tuples."""
    vec = {}
    for _ in range(nterms):
        if domain.kind == "rationals":
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        else:
            c = domain.coerce(rng.choice([-9, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9]))
        if c:
            vec[(rng.randrange(rank), rng.choice(monos))] = c
    return vec


def _enc(ring, *vecs):
    return [encode_vec(v, ring) for v in vecs]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("domain", [QQ, FF(3), ZZ], ids=str)
def test_vec_normal_form_matches_the_rescanning_reference(domain, order):
    # arbitrary (non-Groebner) bases: several reducers share a position and
    # divide the same terms, so the reducer order and, over ZZ, the fall-through
    # past a divisible lead with lc > c all decide the answer and the ticks
    A = poly_ring(domain, "x", "y", "z", order=order)
    rng = random.Random(f"{domain}:{order.kind}")
    lead_monos = monomials_up_to(A, 1)
    monos = monomials_up_to(A, 3)
    for _ in range(60):
        rank = rng.randint(1, 3)
        B = VecBasis(_enc(A, *(_random_vec(rng, domain, lead_monos, rank, rng.randint(1, 3))
                               for _ in range(rng.randint(1, 7)))), A)
        [v] = _enc(A, _random_vec(rng, domain, monos, rank, rng.randint(1, 8)))
        fast, slow = Budget(), Budget()
        assert (decode_vec(vec_normal_form(v, B, fast), A)
                == decode_vec(reference_normal_form(v, B, slow), A))
        assert fast.steps == slow.steps


def test_zz_normal_form_falls_through_a_divisible_lead_it_cannot_use():
    # 5*x divides x but 3 // 5 == 0, so 3*x goes on to 2*x, leaving x - 3*y
    A = poly_ring(ZZ, "x", "y")
    B = VecBasis(_enc(A, {(0, (1, 0)): 5}, {(0, (1, 0)): 2, (0, (0, 1)): 3}), A)
    [v] = _enc(A, {(0, (1, 0)): 3})
    rem = {(0, (1, 0)): 1, (0, (0, 1)): -3}
    budget = Budget()
    assert (decode_vec(vec_normal_form(v, B, budget), A) == rem
            == decode_vec(reference_normal_form(v, B, Budget()), A))
    assert budget.steps == 4


def _assert_indexed(B):
    """`at` lists, for every lead position, the vectors led there in basis order."""
    lts = decode_basis(B)[1]
    assert B.at == {p: [i for i, lt in enumerate(lts) if lt[0] == p]
                    for p in {lt[0] for lt in lts}}


_TERM = st.tuples(st.integers(0, 2), st.tuples(st.integers(0, 2), st.integers(0, 2)),
                  st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([QQ, FF(3), FF(5), ZZ]), st.integers(1, 3), st.booleans(),
       st.lists(st.lists(_TERM, min_size=1, max_size=5), min_size=1, max_size=6))
def test_one_pass_interreduction_matches_the_two_step_reference(domain, rank, complete,
                                                                terms):
    # arbitrary bases and completed ones: the one pass keeps the same minimal
    # elements with the same reduced tails, and saves the confirming sweep
    A = poly_ring(domain, "x", "y")
    vecs = [{(pos % rank, m): domain.coerce(c) for pos, m, c in ts} for ts in terms]
    vecs = _enc(A, *({k: c for k, c in v.items() if c} for v in vecs))
    B = completion(vecs, A, Budget()).basis if complete else VecBasis(vecs, A)
    fast, slow = Budget(), Budget()
    got, ref = _interreduce(B, fast), reference_interreduce(B, slow)
    assert (decode_basis(got), got.lcs) == (decode_basis(ref), ref.lcs)
    assert fast.steps <= slow.steps
    _assert_indexed(got)


def test_lead_position_index_follows_every_basis_operation():
    # a rank-1 ideal and a rank-3 module (with J*e_i), over QQ and over ZZ
    cases = []
    for domain in (QQ, ZZ):
        R = presentation(domain, ("x", "y"), ["x^2 - y", "2*x*y"])
        cases.append((R, 1, [("3*x + y",), ("y^2 - x",)]))
        cases.append((R, 3, [("x", "y", "2"), ("y", "0", "x^2"), ("0", "2*x", "y"),
                             ("x*y", "1", "0")]))
    for R, rank, cols in cases:
        A = R.ambient
        vecs = [polys_to_vec([A.poly(e) for e in col]) for col in cols]
        vecs += [polys_to_vec([A.zero()] * i + [r] + [A.zero()] * (rank - i - 1))
                 for r in R.relations for i in range(rank)]
        B = VecBasis(vecs, A)
        _assert_indexed(B)
        B.add(encode_vec({(rank - 1, (0, 1)): 2}, A))
        _assert_indexed(B)
        one = encode_term(A, 0, (0, 0))
        B.append({one: 1}, one)
        _assert_indexed(B)
        M = _interreduce(B, Budget())
        assert M.lts == reference_interreduce(B, Budget()).lts
        _assert_indexed(M)
        C = completion(vecs, A, Budget())
        _assert_indexed(C.basis)
        C.insert(encode_vec({(rank - 1, (1, 0)): 1, (0, (0, 0)): 1}, A))
        _assert_indexed(C.basis)
        C.run()
        _assert_indexed(C.basis)
        G = vec_groebner(vecs, A, Budget())
        _assert_indexed(G)
