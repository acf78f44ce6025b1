"""Property suites: randomized invariants of the engines, 200 cases each.

Suites: d.d = 0 on constructed complexes; normal-form idempotence and
membership soundness; reduced-basis uniqueness under generator permutation;
grade monotonicity under ideal inclusion; grade invariance under
generating-set change; GV implies semi-regular; pair elimination returns
the basis of the all-pairs completion; one completion decides each homology
as the reference kernel and the subquotient do; the dual Koszul cokernel
agrees with the Koszul chain on all the generators, zero ones included;
an ideal over ZZ that holds a regular prime has the Ext profile of its
resolution over ZZ.
"""
from math import comb
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpdlab import (GREVLEX, LEX, FreeModuleMap, InternalError, RingPresentation,
                    dual_koszul_cokernel, is_gv, is_semiregular, koszul,
                    normal_form_polys)
from fpdlab.complexes import (ResolutionCache, cyclic_presentation, ext_computer,
                              ext_vanishing_profile, homology_is_zero)
from fpdlab.errors import Budget
from fpdlab.groebner import groebner_basis_of_polys, polys_to_vec, vec_groebner
from fpdlab.koszul import koszul_chain, koszul_homology_is_zero
from fpdlab.modules import _relation_block, is_zero_subquotient
from helpers import (FF, QQ, ZZ, assert_is_vec_groebner, basis_polys, decode_basis,
                     ext_grade, free_resolution_of_quotient, poly_ring,
                     reference_kernel, reference_vec_groebner)

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
    K = koszul_chain(P, gens)  # the constructor verifies d.d = 0
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
    gI = ext_grade(I)
    gJ = ext_grade(J)
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
    g0 = ext_grade(P.ideal(*base))
    g1 = ext_grade(P.ideal(*enlarged))
    g2 = ext_grade(P.ideal(*shuffled))
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
    assert decode_basis(G) == decode_basis(ref)
    assert_is_vec_groebner(G)


# --- suite 8: one completion per homology ------------------------------------

# over ZZ "2*x" and "x*y - 2" give lead coefficients that are not units
_HOMOLOGY_RELATIONS = [None, "x^2", "x*y", "x^2 - x*y", "2*x", "x*y - 2"]


def _fresh(d):
    """d as a new map with no image basis, or None."""
    return None if d is None else FreeModuleMap._of_reduced(d.ring, d.target_rank, d.cols)


def _reference_homology_is_zero(d_out, d_in) -> bool:
    """ker d_out / im d_in = 0 by the reference kernel, which completes the
    graph as an ordinary submodule, and the subquotient test."""
    ring = (d_out or d_in).ring
    rank = d_out.source_rank if d_out is not None else d_in.target_rank
    if d_out is None:
        one, shift = ring.domain.one(), ring.ambient.codec.shift
        Z = FreeModuleMap._of_reduced(ring, rank, [{-(j << shift): one}
                                                   for j in range(rank)])
    else:
        Z = FreeModuleMap._of_reduced(ring, rank, [
            polys_to_vec(g) for g in reference_kernel(d_out, Budget())])
    B = d_in if d_in is not None else FreeModuleMap._of_reduced(ring, rank, ())
    return is_zero_subquotient(Z, B, verify_containment=False)


def _agree(d_out, d_in):
    # each side gets maps of its own, so neither reads an image basis the
    # other filled
    assert (homology_is_zero(_fresh(d_out), _fresh(d_in))
            == _reference_homology_is_zero(_fresh(d_out), _fresh(d_in)))


@SUITE
@given(st.sampled_from([QQ, FF(5), ZZ]), st.sampled_from([GREVLEX, LEX]),
       st.sampled_from(_HOMOLOGY_RELATIONS),
       st.lists(_poly_strategy(2), min_size=1, max_size=3))
def test_homology_is_zero_agrees_with_kernel_and_subquotient(domain, order, relation,
                                                            term_lists):
    ambient = poly_ring(domain, "x", "y", order=order)
    P = RingPresentation(ambient, [ambient.poly(relation)] if relation else [])
    gens = _mk_polys(ambient, term_lists)
    if not gens:
        return
    # the duals of a resolution of R/I, Ext degrees 0-2
    res = ResolutionCache(cyclic_presentation(P.ideal(*gens)))
    duals = [None] + [res.differential(i).transpose() for i in (1, 2, 3)]
    for i in range(3):
        _agree(duals[i + 1], duals[i])
    # the Koszul chain on the generators, from H_m (no d_in) to H_0 (no d_out)
    K = koszul_chain(P, gens)
    m = K.length
    for i in range(m + 1):
        _agree(K.differential(i) if i > 0 else None,
               K.differential(i + 1) if i < m else None)


# --- suite 9: the dual Koszul cokernel against the full chain ----------------

def _reference_dual_cokernel(I, n):
    """The profile, whether H_j = 0 for j >= max(m - n, 0), and d*_{n+1}'s
    matrix texts (None past the top) and shape, from the Koszul chain on
    all m of I's generators, zero ones included."""
    m = len(I.generators)
    K = koszul_chain(I.ring, I.generators)
    koszul_exact = all(koszul_homology_is_zero(K, j) for j in range(max(m - n, 0), m + 1))
    if n < m:
        d = K.differential(n + 1).transpose()
        texts = [[str(e) for e in row] for row in d.matrix]
        shape = (d.target_rank, d.source_rank)
    else:
        texts, shape = None, (0, comb(m, n))
    return ext_vanishing_profile(I, n), koszul_exact, texts, shape


@SUITE
@given(st.sampled_from([QQ, FF(5), ZZ]), st.sampled_from(_HOMOLOGY_RELATIONS),
       st.lists(_poly_strategy(2), min_size=1, max_size=2),
       st.lists(st.booleans(), max_size=2), st.randoms(use_true_random=False),
       st.integers(0, 5))
def test_dual_koszul_cokernel_agrees_with_the_full_chain(domain, relation, term_lists,
                                                         zeros, rng, n):
    P = _quotient(domain, relation)
    gens = [g for g in _mk_polys(P.ambient, term_lists) if not P.is_zero_element(g)]
    if not gens:
        return
    # 0-2 generators zero in R: 0, or the relation itself
    texts = [str(g) for g in gens] + [relation if relation and r else "0" for r in zeros]
    rng.shuffle(texts)
    m = len(texts)
    n = min(n, m + 1)
    # each side parses a ring of its own, so neither reads the other's work
    ideal = lambda: _quotient(domain, relation).ideal(*texts)
    profile, koszul_exact, matrix, shape = _reference_dual_cokernel(ideal(), n)
    res = dual_koszul_cokernel(ideal(), n)
    assert (res.profile, res.exactness_verified) == (profile, all(profile))
    assert (res.presentation.target_rank, res.presentation.source_rank) == shape
    if matrix is not None:
        assert [[str(e) for e in row] for row in res.presentation.matrix] == matrix
    assert koszul_exact or not all(profile)
    # with Ext forced to vanish, the Koszul check decides: it must fail
    # exactly when some H_j, j >= max(m - n, 0), of the full chain does not
    # vanish, which it reads off the nonzero generators' chain
    forced = lambda I, n, budget=None: (True,) * (n + 1)
    with mock.patch.object(koszul, "ext_vanishing_profile", forced):
        try:
            checked = dual_koszul_cokernel(ideal(), n).exactness_verified
        except InternalError:
            checked = False
    assert checked == koszul_exact


# --- suite 10: Ext over ZZ through FF_p against the resolution over ZZ ------

# relations with J meeting ZZ in 0, so that 2, 3 or 5 is regular or a zero
# divisor by the relation alone
_ZZ_RELATION_POOL = [None, "x^2 - 2*y", "x*y - 3", "2*x", "x^2 + y^2 - 1",
                     "3*x*y - y^2", "x*y"]


@SUITE
@given(st.sampled_from(_ZZ_RELATION_POOL), st.sampled_from([2, 3, 5]),
       st.lists(_poly_strategy(2), min_size=0, max_size=2), st.integers(0, 2))
def test_ext_over_a_regular_prime_equals_the_resolution_over_zz(relation, p, term_lists,
                                                                at):
    # each side parses a ring of its own, so neither reads the other's work
    def ideal():
        P = _quotient(ZZ, relation)
        gens = [str(g) for g in _mk_polys(P.ambient, term_lists)]
        return P.ideal(*gens[:at], str(p), *gens[at:])

    I = ideal()
    routed = ext_vanishing_profile(I, 3)
    if at == 0:
        # p is the first column, and the route takes it when it is regular
        regular = is_semiregular(_quotient(ZZ, relation).ideal(str(p)))
        assert (ext_computer(I).route() is not None) == regular
    res = ResolutionCache(cyclic_presentation(ideal()))
    assert routed == tuple(homology_is_zero(res.dual(i + 1), res.dual(i) if i else None)
                           for i in range(4))
