"""Property suites: randomized invariants of the engines, 200 cases each.

Suites: d.d = 0 on constructed complexes; normal-form idempotence and
membership soundness; reduced-basis uniqueness under generator permutation;
grade monotonicity under ideal inclusion; grade invariance under
generating-set change; GV implies semi-regular; pair elimination returns
the basis of the all-pairs completion.
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpdlab import (RingPresentation, grade, is_gv, is_semiregular,
                    normal_form_polys)
from fpdlab.errors import Budget
from fpdlab.groebner import groebner_basis_of_polys, polys_to_vec, vec_groebner
from fpdlab.koszul import koszul_chain
from fpdlab.modules import _relation_block
from helpers import (FF, QQ, ZZ, assert_is_vec_groebner, basis_polys,
                     free_resolution_of_quotient, poly_ring, reference_vec_groebner)

SUITE = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much,
                                        HealthCheck.data_too_large])

FIELDS = st.sampled_from([QQ, FF(2), FF(3), FF(5)])
ALL_DOMAINS = st.sampled_from([QQ, FF(2), FF(3), FF(5), ZZ])

_coeff = st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)
_mono2 = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _poly_strategy(max_terms=3):
    return st.lists(st.tuples(_mono2, _coeff), min_size=0, max_size=max_terms)


def _mk_poly(ring, term_list):
    acc = {}
    for m, c in term_list:
        acc[m] = acc.get(m, 0) + c
    return ring.from_dict(acc)


def _mk_polys(ring, term_lists, keep_zero=False):
    polys = [_mk_poly(ring, t) for t in term_lists]
    return polys if keep_zero else [p for p in polys if not p.is_zero]


_RELATION_POOL = [None, "x^2", "x*y", "y^2", "x^2 - x*y"]


def _quotient(domain, relation):
    ambient = poly_ring(domain, "x", "y")
    rels = [ambient.poly(relation)] if relation else []
    return RingPresentation(ambient, rels)


# --- suite 1: d.d = 0 ------------------------------------------------------

@SUITE
@given(ALL_DOMAINS, st.lists(_poly_strategy(2), min_size=1, max_size=3))
def test_koszul_differentials_compose_to_zero(domain, term_lists):
    P = _quotient(domain, None)
    gens = _mk_polys(P.ambient, term_lists)
    if not gens:
        return
    K = koszul_chain(P, gens, len(gens))  # the constructor verifies d.d = 0
    for i in range(1, K.length):
        assert K.differential(i).compose(K.differential(i + 1)).is_zero()


@SUITE
@given(FIELDS, st.sampled_from(_RELATION_POOL),
       st.lists(_poly_strategy(2), min_size=1, max_size=2))
def test_resolution_differentials_compose_to_zero(domain, relation, term_lists):
    P = _quotient(domain, relation)
    gens = _mk_polys(P.ambient, term_lists)
    if not gens:
        return
    C = free_resolution_of_quotient(P.ideal(*gens), 2)
    for i in range(1, C.length):
        assert C.differential(i).compose(C.differential(i + 1)).is_zero()


# --- suite 2: normal forms ---------------------------------------------------

@SUITE
@given(ALL_DOMAINS, st.lists(_poly_strategy(3), min_size=1, max_size=3),
       _poly_strategy(3), st.lists(_poly_strategy(2), min_size=1, max_size=3))
def test_normal_form_idempotent_and_membership_sound(domain, gen_lists, f_terms,
                                                     mult_lists):
    A = poly_ring(domain, "x", "y")
    gens = _mk_polys(A, gen_lists)
    if not gens:
        return
    G = groebner_basis_of_polys(A, gens)
    f = _mk_poly(A, f_terms)
    r = normal_form_polys(f, G)
    assert normal_form_polys(r, G) == r
    assert normal_form_polys(f - r, G).is_zero
    # every explicit combination of the generators reduces to zero
    member = A.zero()
    for g, mult in zip(gens, mult_lists):
        member = member + g * _mk_poly(A, mult)
    assert normal_form_polys(member, G).is_zero


# --- suite 3: reduced-basis uniqueness --------------------------------------

@SUITE
@given(FIELDS, st.lists(_poly_strategy(3), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_reduced_basis_unique_under_permutation(domain, gen_lists, rng):
    A = poly_ring(domain, "x", "y")
    gens = _mk_polys(A, gen_lists)
    if not gens:
        return
    shuffled = list(gens)
    rng.shuffle(shuffled)
    G1 = groebner_basis_of_polys(A, gens)
    G2 = groebner_basis_of_polys(A, shuffled)
    assert [p.terms for p in basis_polys(G1)] == [p.terms for p in basis_polys(G2)]


# --- suites 4 and 5: grade behavior -----------------------------------------

_IDEAL_POOL = ["x", "y", "x + y", "x^2", "x*y", "y^2", "x - y^2", "x*y - 1"]


def _grade_leq(a, b):
    if a.is_infinite:
        return b.is_infinite
    if b.is_infinite:
        return True
    return a.value <= b.value


@SUITE
@given(FIELDS, st.sampled_from(_RELATION_POOL),
       st.lists(st.sampled_from(_IDEAL_POOL), min_size=1, max_size=2, unique=True),
       st.lists(st.sampled_from(_IDEAL_POOL), min_size=1, max_size=1, unique=True))
def test_grade_monotone_under_inclusion(domain, relation, inner, extra):
    P = _quotient(domain, relation)
    I = P.ideal(*inner)
    J = P.ideal(*(inner + extra))
    gI = grade(I, with_koszul=False).value
    gJ = grade(J, with_koszul=False).value
    assert _grade_leq(gI, gJ), f"grade({I}) = {gI} > grade({J}) = {gJ}"


@SUITE
@given(FIELDS, st.sampled_from(_RELATION_POOL),
       st.lists(st.sampled_from(_IDEAL_POOL), min_size=1, max_size=2, unique=True),
       st.lists(_poly_strategy(1), min_size=1, max_size=2),
       st.randoms(use_true_random=False))
def test_grade_invariant_under_generating_set_change(domain, relation, gens,
                                                     mult_lists, rng):
    P = _quotient(domain, relation)
    base = [P.poly(g) for g in gens]
    combo = P.ambient.zero()
    for g, mult in zip(base, mult_lists):
        combo = combo + g * _mk_poly(P.ambient, mult)
    enlarged = base + [combo]
    shuffled = list(base)
    rng.shuffle(shuffled)
    g0 = grade(P.ideal(*base), with_koszul=False).value
    g1 = grade(P.ideal(*enlarged), with_koszul=False).value
    g2 = grade(P.ideal(*shuffled), with_koszul=False).value
    assert g0 == g1 == g2


# --- suite 6: GV implies semi-regular ----------------------------------------

@SUITE
@given(FIELDS, st.sampled_from(_RELATION_POOL),
       st.lists(st.sampled_from(_IDEAL_POOL), min_size=1, max_size=2, unique=True))
def test_gv_implies_semiregular(domain, relation, gens):
    P = _quotient(domain, relation)
    I = P.ideal(*gens)
    if is_gv(I):
        assert is_semiregular(I)


# --- suite 7: pair elimination loses nothing --------------------------------

# relation sets of two or more relations, so that the relation block can
# hold pairs of marked vectors; over ZZ the last three have lead
# coefficients that are not units (a relation that is zero mod p is dropped),
# and over QQ they are normalized to monic leads held as Fraction(1)
_BLOCK_POOL = [None, ("x^2", "x*y"), ("x^2 - y", "x*y^2"), ("x*y - 1", "y^3"),
               ("2*x", "x*y"), ("2*x^2 - y", "3*y^2", "x*y"), ("4*x - y^2", "6*y")]


@SUITE
@given(st.sampled_from([ZZ, FF(2), ZZ, FF(3), ZZ, FF(5), QQ]), st.integers(1, 3),
       st.sampled_from(_BLOCK_POOL),
       st.lists(st.lists(_poly_strategy(3), min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_pair_elimination_returns_the_all_pairs_basis(domain, rank, relations,
                                                      vec_lists):
    A = poly_ring(domain, "x", "y")
    vecs = [v for v in (polys_to_vec(_mk_polys(A, entries[:rank], keep_zero=True))
                        for entries in vec_lists) if v]
    block = ()
    if relations:
        P = RingPresentation(A, [p for p in map(A.poly, relations) if not p.is_zero])
        block = _relation_block(P, rank, Budget()).vecs
    if not vecs and not block:
        return
    G = vec_groebner(vecs, A, Budget(), block=block)
    ref = reference_vec_groebner(vecs, A, Budget(), block=block)
    assert G.vecs == ref.vecs and G.lts == ref.lts
    assert_is_vec_groebner(G)
