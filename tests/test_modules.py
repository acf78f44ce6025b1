"""Free-module maps, membership in their images, kernels, and subquotient
tests."""
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpdlab import (Budget, FreeModuleMap, ResourceBudgetExceeded,
                    StructuralError, is_zero_subquotient, kernel)
from fpdlab import groebner, modules
from fpdlab.complexes import homology_is_zero
from fpdlab import GREVLEX, LEX
from fpdlab.groebner import polys_to_vec, vec_groebner
from fpdlab.modules import _relation_block, _tie_text, prune_generators
from helpers import (FF, QQ, ZZ, brute_linear_syzygies, decoded_terms, encode_term,
                     poly_ring, presentation, reference_compose, reference_kernel,
                     reference_normalize, reference_prune_text, reference_transpose)


def _submodule(P, rank, *gens):
    """The map R^len(gens) -> R^rank whose columns are `gens`."""
    return FreeModuleMap(P, len(gens), rank, [[g[t] for g in gens] for t in range(rank)])


def test_module_normal_form_member_is_zero():
    P = presentation(QQ, ("x",))
    S = _submodule(P, 2, ("x", "0"), ("0", "x - 1"))
    assert S.contains(("x", "x - 1"))


def test_module_normal_form_basis_vector_survives():
    P = presentation(QQ, ("x",))
    S = _submodule(P, 1, ("x",))
    e0 = encode_term(P.ambient, 0, (0,))
    assert S.reduce({e0: 1}) == {e0: 1}


def test_module_normal_form_power_reduces():
    P = presentation(QQ, ("x",))
    S = _submodule(P, 1, ("x",))
    assert S.contains(("x^2",))


def test_module_normal_form_rank_mismatch():
    P = presentation(QQ, ("x",))
    S = _submodule(P, 2, ("x", "0"))
    with pytest.raises(StructuralError):
        S.contains(("x",))


def _assert_kernel_complete(P, phi, K, degree):
    """Every syzygy of degree <= `degree` among the columns and the relation
    multiples g*e_t, cut to its first source-rank entries, lies in K (exact
    linear algebra, independent of any Groebner code)."""
    n, r = phi.source_rank, phi.target_rank
    zero = P.ambient.zero()
    rels = [tuple(g if s == t else zero for s in range(r))
            for t in range(r) for g in P.relations]
    for h in brute_linear_syzygies(P.ambient, list(phi.generators) + rels, degree):
        assert K.contains(h[:n])


def test_kernel_of_two_variable_row():
    P = presentation(QQ, ("x", "y"))
    phi = FreeModuleMap(P, 2, 1, [["x", "y"]])
    K = kernel(phi)
    assert len(K.generators) == 1
    # the reported generator multiplies to zero
    assert phi.compose(K).is_zero()
    _assert_kernel_complete(P, phi, K, 4)


@pytest.mark.parametrize("variables,relations,rows", [
    (("x", "y"), ["x*y"], [["x", "y"]]),
    (("x", "y"), ["x*y"], [["x", "0"], ["y", "x + y"]]),
    (("x", "y", "z"), ["x*y - z^2"], [["x", "z"]]),
    (("x", "y", "z"), ["x*y - z^2"], [["x", "z"], ["z", "y"]]),
])
def test_kernel_is_complete_over_quotient_rings(variables, relations, rows):
    P = presentation(QQ, variables, relations)
    phi = FreeModuleMap(P, len(rows[0]), len(rows), rows)
    K = kernel(phi)
    assert phi.compose(K).is_zero()
    _assert_kernel_complete(P, phi, K, 3)


def test_kernel_of_identity_is_zero():
    P = presentation(QQ, ("x",))
    phi = FreeModuleMap(P, 1, 1, [["1"]])
    assert kernel(phi).generators == ()


def test_kernel_of_multiplication_on_dual_numbers():
    P = presentation(QQ, ("x",), ["x^2"])
    phi = FreeModuleMap(P, 1, 1, [["x"]])
    K = kernel(phi)
    assert [[str(p) for p in g] for g in K.generators] == [["x"]]


def test_kernel_generators_multiply_to_zero_over_integers():
    P = presentation(ZZ, ("x", "y"))
    phi = FreeModuleMap(P, 3, 1, [["2*x", "3*y", "x*y"]])
    K = kernel(phi)
    assert K.generators
    assert phi.compose(K).is_zero()


def test_is_zero_subquotient_equal_modules():
    P = presentation(QQ, ("x",))
    S1 = _submodule(P, 1, ("x",))
    S2 = _submodule(P, 1, ("x",), ("x^2",))
    assert is_zero_subquotient(S1, S2)
    assert is_zero_subquotient(S2, S1)


def test_is_zero_subquotient_detects_proper_quotient():
    P = presentation(QQ, ("x",))
    K = _submodule(P, 1, ("1",))
    Im = _submodule(P, 1, ("x",))
    assert not is_zero_subquotient(K, Im, verify_containment=False)


def test_is_zero_subquotient_redundant_generators():
    P = presentation(QQ, ("x", "y"))
    K = _submodule(P, 1, ("x",), ("y",))
    Im = _submodule(P, 1, ("x",), ("y",), ("x + y",))
    assert is_zero_subquotient(K, Im)


def test_is_zero_subquotient_containment_violation():
    P = presentation(QQ, ("x",))
    K = _submodule(P, 1, ("x^2",))
    Im = _submodule(P, 1, ("x",))  # not contained in K
    with pytest.raises(StructuralError):
        is_zero_subquotient(K, Im, verify_containment=True)


def test_is_zero_subquotient_rank_mismatch():
    P = presentation(QQ, ("x",))
    with pytest.raises(StructuralError):
        is_zero_subquotient(_submodule(P, 1, ("x",)), _submodule(P, 2, ("x", "0")))


def test_relation_multiples_reduce_to_zero():
    # J * e_i always reduces to zero against any submodule's Groebner data
    P = presentation(QQ, ("x", "y"), ["x*y", "y^3"])
    S = _submodule(P, 2, ("x", "y"))
    for rel in P.relations:
        for i in range(2):
            v = tuple(rel if j == i else P.ambient.zero() for j in range(2))
            assert S.contains(v)


def test_transpose_and_compose():
    P = presentation(QQ, ("x", "y"))
    phi = FreeModuleMap(P, 2, 1, [["x", "y"]])
    psi = phi.transpose()
    assert (psi.source_rank, psi.target_rank) == (1, 2)
    assert [[str(e) for e in row] for row in psi.matrix] == [["x"], ["y"]]
    comp = phi.compose(FreeModuleMap(P, 1, 2, [["-y"], ["x"]]))
    assert comp.is_zero()


def test_matrix_entries_normalized_modulo_relations():
    P = presentation(QQ, ("x",), ["x^2"])
    phi = FreeModuleMap(P, 1, 1, [["x^2 + x"]])
    assert [[str(e) for e in row] for row in phi.matrix] == [["x"]]


def test_image_submodule():
    P = presentation(QQ, ("x", "y"))
    phi = FreeModuleMap(P, 2, 2, [["x", "0"], ["0", "y"]])
    assert phi.contains(("x", "0"))
    assert not phi.contains(("1", "0"))


def test_image_membership_over_integers_needs_the_relations():
    # over ZZ[x]/(2x), 2 = 2*(x + 1) - 2x lies in the image of (x + 1), but
    # not over ZZ[x], where x = -1 sends x + 1 to 0 and 2 to 2
    P = presentation(ZZ, ("x",), ["2*x"])
    phi = FreeModuleMap(P, 1, 1, [["x + 1"]])
    assert [[str(e) for e in row] for row in phi.matrix] == [["x + 1"]]
    assert phi.contains(("2",))
    assert not phi.contains(("1",))
    free = presentation(ZZ, ("x",))
    assert not FreeModuleMap(free, 1, 1, [["x + 1"]]).contains(("2",))


def test_compose_and_transpose_reduce_under_the_callers_budget():
    # x * x reduces modulo x^2: that work counts against the caller's budget,
    # so a budget that is too small stops the composition
    P = presentation(QQ, ("x",), ["x^2"])
    phi = FreeModuleMap(P, 1, 1, [["x"]])
    budget = Budget()
    assert phi.compose(phi, budget).is_zero()
    assert budget.steps > 0
    with pytest.raises(ResourceBudgetExceeded):
        phi.compose(phi, Budget(max_steps=0))
    # over ZZ the lead 2*x divides the term x: testing it takes a step, which
    # the composition pays; the transpose moves the normal entry x unreduced
    T = presentation(ZZ, ("x",), ["2*x"])
    psi = FreeModuleMap(T, 1, 1, [["x"]])
    with pytest.raises(ResourceBudgetExceeded):
        psi.compose(FreeModuleMap(T, 1, 1, [["1"]]), Budget(max_steps=0))
    assert psi.transpose().matrix == reference_transpose(psi, Budget())


PRUNE_CASES = [
    # (domain, variables, relations, rank, candidate generators)
    (QQ, ("x", "y"), ["x*y"], 1,
     [("x",), ("x^2",), ("y",), ("x + y",), ("x*y",), ("x^2 + y^2",)]),
    (FF(3), ("x", "y", "z"), ["x*y - z^2"], 2,
     [("x", "0"), ("0", "y"), ("x", "y"), ("z^2", "0"), ("z", "z"),
      ("x*z", "y*z"), ("y", "0")]),
    (ZZ, ("x",), ["4", "x^2 + x"], 1,
     [("2",), ("2*x",), ("x",), ("2*x + 2",), ("3",), ("x + 1",)]),
    (ZZ, ("x", "y"), ["2*x*y"], 2,
     [("2", "x"), ("4", "2*x"), ("y", "0"), ("2*y", "x*y"), ("0", "x*y"),
      ("x", "y"), ("3", "0")]),
    (FF(3), ("x", "y", "z"), ["x*y - z^2"], 1,
     [("x",), ("z",), ("y + z",), ("x*z",)]),
    (ZZ, ("a", "b", "c"), ["a^2 - 4*b", "a*b - 2*c", "a*c - 2*b^2", "b^3 - c^2"], 1,
     [("3",), ("a",), ("b",), ("c",)]),
]


def _prune_order(g):
    return (sum(len(p.terms) for p in g),
            max((sum(m) for p in g for m, _ in decoded_terms(p)), default=-1), str(g))


@pytest.mark.parametrize("domain,variables,relations,rank,gens", PRUNE_CASES)
def test_prune_keeps_an_ordered_spanning_subsequence(domain, variables,
                                                     relations, rank, gens):
    P = presentation(domain, variables, relations)
    phi = _submodule(P, rank, *gens)
    K = kernel(phi)
    # the kernel is not pruned, and every generator of it maps to zero
    assert K.generators
    assert phi.compose(K).is_zero()
    if rank == 1:
        # the Koszul syzygies f_j*e_i - f_i*e_j of the row lie in its kernel
        f = [c[0] for c in phi.generators]
        zero = P.ambient.zero()
        for i in range(len(f)):
            for j in range(i + 1, len(f)):
                assert K.contains(tuple(f[j] if k == i else -f[i] if k == j else zero
                                        for k in range(len(f))))
    for full in (phi, K):
        kept = list(prune_generators(full).generators)
        candidates = sorted(full.generators, key=_prune_order)
        # a subsequence of the candidates in the documented order
        rest = iter(candidates)
        assert all(any(g == c for c in rest) for g in kept)
        # same module, by mutual containment
        pruned = _submodule(P, full.target_rank, *kept)
        assert all(pruned.contains(g) for g in full.generators)
        assert all(full.contains(g) for g in kept)
        # no kept generator lies in the span of those kept before it
        for i, g in enumerate(kept):
            assert not _submodule(P, full.target_rank, *kept[:i]).contains(g)


_TIE_COEFF = st.tuples(st.integers(-12, 12).filter(bool), st.integers(1, 3))
_TIE_ENTRY = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             _TIE_COEFF, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.sampled_from([QQ, FF(5), ZZ]), st.sampled_from([GREVLEX, LEX]),
       st.integers(1, 12), st.data())
def test_the_tie_texts_sort_as_the_text_of_the_tuple(domain, order, rank, data):
    # prune breaks ties on the entries' texts; they must order generators as
    # the text of the whole tuple of polynomials, ring text and all, did.
    # At most three positions hold terms, so a vector of rank 4 to 12 is
    # sparse, and its zero entries get the key's constant text
    A = poly_ring(domain, "x", "y", order=order)
    vecs = []
    for _ in range(data.draw(st.integers(2, 8))):
        support = data.draw(st.sets(st.integers(0, rank - 1), max_size=3))
        # a proper fraction over QQ only
        entries = [A.from_dict({m: Fraction(c, d if domain == QQ else 1)
                                for m, (c, d) in data.draw(_TIE_ENTRY).items()})
                   if t in support else A.zero() for t in range(rank)]
        if any(not p.is_zero for p in entries):
            vecs.append(polys_to_vec(entries))
    new = sorted(range(len(vecs)), key=lambda i: _tie_text(vecs[i], rank, A))
    old = sorted(range(len(vecs)), key=lambda i: reference_prune_text(vecs[i], rank, A))
    assert new == old


# --- the vector module layer against the Polynomial-matrix path ---------------

_ENTRY = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.integers(-3, 3).filter(bool)), max_size=2)
_RINGS = [
    (QQ, ()), (QQ, ("x^2",)), (QQ, ("x*y - y^2",)),
    (FF(3), ("y^2 - x",)), (FF(5), ("x*y", "y^3")),
    (ZZ, ()), (ZZ, ("2*x",)), (ZZ, ("2*x*y - y^2",)), (ZZ, ("6", "3*x^2 + y")),
]


def _matrix(P, rows, cols, draw):
    return [[P.ambient.from_dict(dict(draw(_ENTRY))) for _ in range(cols)]
            for _ in range(rows)]


def _steps(run):
    budget = Budget()
    return run(budget), budget.steps


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.sampled_from(_RINGS), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 2), st.data())
def test_vector_maps_match_the_polynomial_matrix_path(ring, t, k, s, data):
    # entry by entry and tick by tick: the column normal forms meet the same
    # reducers, in the same order, as the per-entry ones
    P = presentation(ring[0], ("x", "y"), ring[1])
    P.relations_groebner()
    A, B = _matrix(P, t, k, data.draw), _matrix(P, k, s, data.draw)
    phi, steps = _steps(lambda b: FreeModuleMap(P, k, t, A, b))
    assert (phi.matrix, steps) == _steps(lambda b: reference_normalize(P, A, b))
    psi = FreeModuleMap(P, s, k, B)
    comp, steps = _steps(lambda b: phi.compose(psi, b))
    assert (comp.matrix, steps) == _steps(lambda b: reference_compose(phi, psi, b))
    # the transpose takes no budget: it moves normal entries, 0 steps
    assert phi.transpose().matrix == reference_transpose(phi, Budget())
    K, steps = _steps(lambda b: kernel(phi, b))
    assert (K.generators, steps) == _steps(lambda b: reference_kernel(phi, b))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.sampled_from(_RINGS), st.integers(1, 3), st.integers(1, 3), st.data())
def test_kernel_leaves_the_canonical_image_basis(ring, t, k, data):
    # the graph basis elements led in the target block, cut to it and
    # reduced when first read, are the basis `groebner_vectors` would
    # complete, element for element
    P = presentation(ring[0], ("x", "y"), ring[1])
    phi = FreeModuleMap(P, k, t, _matrix(P, t, k, data.draw))
    kernel(phi)
    _assert_left_basis_is_canonical(phi)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.sampled_from(_RINGS), st.integers(1, 3), st.integers(1, 3), st.data())
def test_homology_decision_leaves_the_canonical_image_basis(ring, t, k, data):
    # a homology decision at the source of d_out leaves d_out's image basis
    # as `kernel` does, with no d_in or with d_in onto some of ker d_out
    P = presentation(ring[0], ("x", "y"), ring[1])
    matrix = _matrix(P, t, k, data.draw)
    syzygies = kernel(FreeModuleMap(P, k, t, matrix)).cols
    kept = data.draw(st.lists(st.sampled_from(syzygies), max_size=2)) if syzygies else []
    d_in = data.draw(st.sampled_from(
        [None, FreeModuleMap._of_reduced(P, k, kept)]))
    d_out = FreeModuleMap(P, k, t, matrix)
    homology_is_zero(d_out, d_in)
    _assert_left_basis_is_canonical(d_out)


def _assert_left_basis_is_canonical(phi):
    """phi's image basis, read for the first time, runs no completion and
    equals that of its columns with J*e_t completed afresh."""
    assert phi._gb is None and phi._left is not None

    def refused(*args, **kwargs):
        raise AssertionError("reading the image basis ran a completion")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "Completion", refused)
        left = phi.groebner_vectors()
    block = _relation_block(phi.ring, phi.target_rank, Budget())
    ref = vec_groebner([v for v in phi.cols if v], phi.ring.ambient, Budget(),
                       block=block.vecs)
    assert (left.vecs, left.lts, left.lcs) == (ref.vecs, ref.lts, ref.lcs)
    assert phi.groebner_vectors() is left


def test_renormalizing_a_normal_entry_over_integers_ticks(monkeypatch):
    # over ZZ[x]/(2x) the entry x is normal, but the lead 2x divides it with
    # quotient 0: a composition renormalizes it and takes a step, in both
    # paths alike; a transpose reduces nothing, so it takes no step
    P = presentation(ZZ, ("x",), ["2*x"])
    P.relations_groebner()
    phi = FreeModuleMap(P, 1, 1, [["x"]])
    ident = FreeModuleMap(P, 1, 1, [["1"]])
    out, steps = _steps(lambda b: phi.compose(ident, b))
    assert steps == 1
    assert (out.matrix, steps) == _steps(lambda b: reference_compose(phi, ident, b))
    assert [[str(e) for e in row] for row in out.matrix] == [["x"]]
    monkeypatch.setattr(modules, "vec_normal_form", None)
    dual = phi.transpose()
    assert dual.matrix == reference_transpose(phi, Budget()) == out.matrix
