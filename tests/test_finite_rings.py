"""Finite ring tables, ideal enumeration, and the brute-force DQ/DW oracle."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from fpdlab import CapExceededError, StructuralError
from fpdlab.errors import Budget, ResourceBudgetExceeded
from fpdlab.finite_rings import (FiniteRing, _row_chunks, annihilator_set,
                                 brute_ext1_vanishes, brute_hom_vanishes,
                                 brute_is_dq, brute_is_dw, brute_is_gv,
                                 build_finite_ring, enumerate_ideals,
                                 ideal_closure, minimal_generators)

from helpers import reference_annihilator_set, reference_quotient_tables


def _oracle_rings() -> tuple:
    """The benchmark's finite rings, read from perfbench/corpus.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look the module up
    spec.loader.exec_module(corpus)
    return corpus.ORACLE_RINGS


def test_integers_mod_four():
    R = FiniteRing.integers_mod(4)
    assert R.order == 4
    assert R.add[3][3] == 2 and R.mul[2][2] == 0
    assert R.labels == ("0", "1", "2", "3")


def test_quotient_dual_numbers_over_f2():
    R = FiniteRing.quotient(2, [0, 0, 1])  # x^2 = 0
    assert R.order == 4
    assert set(R.labels) == {"0", "1", "x", "1 + x"}
    x = R.labels.index("x")
    assert R.mul[x][x] == R.zero


def test_quotient_respects_relation():
    R = FiniteRing.quotient(3, [1, 0, 1])  # x^2 = -1 over ZZ/3: a field with 9 elements
    x = next(i for i, c in enumerate(R.element_coeffs) if c == (0, 1))
    assert R.element_coeffs[R.mul[x][x]] == (2, 0)
    # every nonzero element is a unit
    units = {R.mul[a][b] for a in range(9) for b in range(9)} - {R.zero}
    assert all(any(R.mul[a][b] == R.one for b in range(9))
               for a in range(1, 9))


def test_ring_axioms_verified():
    R = FiniteRing.integers_mod(6)
    assert R.order == 6  # construction would have raised on an axiom failure


def test_bad_tables_rejected():
    add = [[0, 1], [1, 0]]
    broken_mul = [[0, 0], [0, 0]]  # no multiplicative identity
    with pytest.raises(StructuralError):
        FiniteRing([0, 1], add, broken_mul, 0, 1, "broken")
    mul = [[0, 0], [0, 1]]
    for ragged in ([[0, 1], [1]], [[0, 1]], [[0, 1, 0], [1, 0, 1]]):
        with pytest.raises(StructuralError, match="must be square of the ring order"):
            FiniteRing([0, 1], ragged, mul, 0, 1, "ragged")
        with pytest.raises(StructuralError, match="must be square of the ring order"):
            FiniteRing([0, 1], add, ragged, 0, 1, "ragged")
    with pytest.raises(StructuralError, match="out-of-range"):
        FiniteRing([0, 1], [[0, 1], [1, 2]], mul, 0, 1, "out of range")


def test_zero_and_one_must_be_element_indices():
    # on ZZ/2's tables, one = -1 would read row 1 from the end and pass
    R = FiniteRing.integers_mod(2)
    add, mul = R.add.tolist(), R.mul.tolist()
    for zero, one in ((0, -1), (0, 2), (-2, 1), (2, 1)):
        with pytest.raises(StructuralError, match="element indices"):
            FiniteRing(R.labels, add, mul, zero, one, "ZZ/2")


@pytest.mark.parametrize("n, coeffs", [
    *_oracle_rings(),
    (4, (0, 1, 1)),       # golden session: ZZ/4[x]/(x^2 + x)
    (2, (0, 0, 0, 1)),    # golden session: FF2[x]/(x^3)
    (5, (2, 1)),          # degree-1 relations: ZZ/5[x]/(x + 2), ZZ/6[x]/(x + 3)
    (6, (3, 1)),
    (3, (1, 0, 1)),       # FF9
    (4, (7, 5, 1)),       # coefficients beyond the modulus
    (6, None),            # golden session: ZZ/6
    (2, None), (257, None), (300, None),   # ZZ/n past the uint8 tables
])
def test_tables_match_the_reference_build(n, coeffs):
    if coeffs is None:
        R = FiniteRing.integers_mod(n)
        coeffs = (0, 1)   # ZZ/n = ZZ/n[x]/(x), with the same digits and labels
    else:
        R = FiniteRing.quotient(n, list(coeffs))
    ref = reference_quotient_tables(n, coeffs)
    assert R.labels == ref["labels"]
    assert np.array_equal(R.add, ref["add"])
    assert np.array_equal(R.mul, ref["mul"])
    assert (R.zero, R.one) == (ref["zero"], ref["one"])
    assert R.element_coeffs == ref["element_coeffs"]


def test_tables_at_both_ends_of_the_order():
    # the zero ring: 1 x 1 tables
    R = FiniteRing([0], [[0]], [[0]], 0, 0, "zero ring")
    assert R.add.shape == R.mul.shape == (1, 1) and R.add.dtype == np.uint8
    assert R.add.tolist() == R.mul.tolist() == [[0]]
    # above 256 elements the indices need 16 bits
    R = FiniteRing.integers_mod(300)
    assert R.add.dtype == R.mul.dtype == np.uint16
    assert R.add[299, 299] == 298 and R.mul[299, 299] == 1


def test_row_chunks_cover_every_row_once():
    for rows, per_row in ((1, 1), (5, 1 << 20), (256, 256 * 256), (257, 1000),
                          (4096, 4096 * 23), (3, 0)):
        covered = [r for s, e in _row_chunks(rows, per_row) for r in range(s, e)]
        assert covered == list(range(rows))


def test_verify_compares_every_row_of_each_cube(monkeypatch):
    """Associativity of + and *, and distributivity, are each compared on
    row chunks of an n x n x n cube; together the chunks hold all n rows."""
    compared = []
    array_equal = np.array_equal

    def recording(a, b):
        if np.ndim(a) == 3:
            compared.append(len(a))
        return array_equal(a, b)

    monkeypatch.setattr(np, "array_equal", recording)
    R = FiniteRing.quotient(2, [0, 0, 0, 1, 0, 0, 0, 0, 1])
    assert len(compared) > 3
    assert sum(compared) == 3 * R.order


def _tables_of(R):
    return R.add.tolist(), R.mul.tolist()


def test_verify_catches_a_corrupt_entry_in_the_first_and_last_row_chunk():
    """FF2[x]/(x^8 + x^3) has 256 elements, so every axiom is checked in
    full, chunk by chunk.  Each corruption keeps commutativity, the
    identities and the permutation rows of addition; only associativity and
    distributivity can catch it."""
    R = FiniteRing.quotient(2, [0, 0, 0, 1, 0, 0, 0, 0, 1])
    chunks = list(_row_chunks(R.order, R.order * R.order))
    assert len(chunks) > 2
    assert R.zero == 0 and R.one == 1
    first, last = chunks[0], chunks[-1]
    for a, b in ((first[0] + 2, first[0] + 3), (last[1] - 1, last[1] - 2)):
        add, mul = _tables_of(R)
        wrong = (mul[a][b] + 1) % R.order
        mul[a][b] = mul[b][a] = wrong
        with pytest.raises(StructuralError, match="associative|distribute"):
            FiniteRing(R.labels, add, mul, R.zero, R.one, "corrupt mul")
        # In characteristic 2, a + a = b + b = 0: swapping the values of the
        # symmetric pair (a, b) with the diagonal keeps every row a permutation.
        add, mul = _tables_of(R)
        add[a][a] = add[b][b] = add[a][b]
        add[a][b] = add[b][a] = R.zero
        with pytest.raises(StructuralError, match="addition is not associative"):
            FiniteRing(R.labels, add, mul, R.zero, R.one, "corrupt add")


def test_non_monic_relation_rejected():
    with pytest.raises(StructuralError):
        FiniteRing.quotient(4, [0, 0, 2])  # 2x^2: not monic, infinite quotient
    with pytest.raises(StructuralError):
        FiniteRing.quotient(4, [3])  # constant relation


def test_build_cap():
    with pytest.raises(CapExceededError):
        FiniteRing.integers_mod(5000)
    with pytest.raises(CapExceededError):
        FiniteRing.quotient(2, [0] * 13 + [1])  # 2^13 elements
    assert build_finite_ring(7).order == 7


def test_ideal_enumeration_chain_rings():
    Z4 = FiniteRing.integers_mod(4)
    assert [sorted(I) for I in enumerate_ideals(Z4)] == [[0], [0, 2], [0, 1, 2, 3]]
    F2 = FiniteRing.integers_mod(2)
    assert [sorted(I) for I in enumerate_ideals(F2)] == [[0], [0, 1]]
    Z6 = FiniteRing.integers_mod(6)
    assert [sorted(I) for I in enumerate_ideals(Z6)] == \
        [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]


def test_ideal_closure_is_an_ideal():
    R = FiniteRing.quotient(2, [0, 0, 0, 1])  # F2[x]/(x^3)
    x = next(i for i, c in enumerate(R.element_coeffs) if c == (0, 1, 0))
    I = ideal_closure(R, {x})
    for a in I:
        for r in range(R.order):
            assert R.mul[r][a] in I
        for b in I:
            assert R.add[a][b] in I


def test_minimal_generators_regenerate():
    R = FiniteRing.integers_mod(12)
    for I in enumerate_ideals(R):
        gens = minimal_generators(R, I)
        assert ideal_closure(R, gens) == I


def test_annihilator_set_mod_four():
    R = FiniteRing.integers_mod(4)
    assert sorted(annihilator_set(R, {2})) == [0, 2]
    assert sorted(annihilator_set(R, {1, 2, 3})) == [0]


@pytest.mark.parametrize("n, coeffs", [
    *_oracle_rings(),
    (4, (0, 1, 1)),       # golden session: ZZ/4[x]/(x^2 + x)
    (2, (0, 0, 0, 1)),    # golden session: FF2[x]/(x^3)
    (6, None),            # golden session: ZZ/6
])
def test_annihilator_set_matches_the_row_loop(n, coeffs):
    R = (FiniteRing.integers_mod(n) if coeffs is None
         else FiniteRing.quotient(n, list(coeffs)))
    subsets = [(), *enumerate_ideals(R), *({a} for a in range(R.order))]
    for subset in subsets:
        assert annihilator_set(R, subset) == reference_annihilator_set(R, subset)


def test_hom_vanishing():
    R = FiniteRing.integers_mod(4)
    assert not brute_hom_vanishes(R, frozenset({0, 2}))
    assert brute_hom_vanishes(R, frozenset(range(4)))


def test_ext1_brute_on_principal_ideals():
    R = FiniteRing.integers_mod(4)
    # Ext^1(R/(2), R) over Z/4: syzygy of (2) is (2); phi(2)=0 forces phi in {0,2} = 2*R
    assert brute_ext1_vanishes(R, frozenset({0, 2}))
    F4 = FiniteRing.quotient(2, [0, 0, 1])
    x = F4.labels.index("x")
    assert brute_ext1_vanishes(F4, ideal_closure(F4, {x}))


def test_ext1_cap():
    R = FiniteRing.integers_mod(64)
    with pytest.raises(CapExceededError):
        brute_ext1_vanishes(R, frozenset({0, 32}), size_cap=32)


def test_dq_of_small_rings():
    assert brute_is_dq(FiniteRing.integers_mod(4)).holds
    assert brute_is_dq(FiniteRing.integers_mod(7)).holds  # a field
    for n in range(2, 17):
        assert brute_is_dq(FiniteRing.integers_mod(n)).holds


def test_dw_of_small_rings():
    assert brute_is_dw(FiniteRing.integers_mod(4)).holds
    assert brute_is_dw(FiniteRing.quotient(2, [0, 0, 1])).holds
    assert brute_is_dw(FiniteRing.integers_mod(5)).holds


def test_dq_implies_dw_on_a_batch():
    rings = [FiniteRing.integers_mod(n) for n in (2, 4, 6, 8, 9, 12)]
    rings.append(FiniteRing.quotient(3, [0, 0, 1]))
    for R in rings:
        dq = brute_is_dq(R)
        dw = brute_is_dw(R)
        assert (not dq.holds) or dw.holds


def test_gv_oracle_on_f4():
    F4 = FiniteRing.quotient(2, [0, 0, 1])
    full = frozenset(range(4))
    assert brute_is_gv(F4, full)
    x_ideal = ideal_closure(F4, {F4.labels.index("x")})
    assert not brute_is_gv(F4, x_ideal)  # Ann(x) = (x) != 0


def test_oracle_work_ticks_the_budget():
    budget = Budget()
    R = FiniteRing.quotient(4, [0, 1, 1], budget=budget)  # 16 elements
    assert budget.steps == 5  # one chunk per table, one per verified cube
    ideals = enumerate_ideals(R, budget=budget)
    after_sums = budget.steps
    assert after_sums > 5  # one per ideal sum
    assert enumerate_ideals(R, budget=budget) == ideals and budget.steps == after_sums
    assert brute_is_dq(R, budget=budget).holds
    assert budget.steps == after_sums + len(ideals) - 1  # one per proper ideal
    assert brute_is_dw(R, budget=budget).holds
    assert budget.steps == after_sums + 2 * (len(ideals) - 1)
    # Ext^1 ticks once per candidate
    with pytest.raises(ResourceBudgetExceeded, match="step budget"):
        brute_ext1_vanishes(FiniteRing.integers_mod(4), frozenset({0, 2}),
                            budget=Budget(max_steps=3))


def test_each_table_chunk_reads_the_clock():
    # a deadline already past stops the first chunk, not the 1,024th tick
    with pytest.raises(ResourceBudgetExceeded, match="deadline exceeded after 1 steps"):
        FiniteRing.quotient(2, [0, 0, 1], budget=Budget(deadline_seconds=-1.0))
    with pytest.raises(ResourceBudgetExceeded, match="deadline exceeded after 1 steps"):
        enumerate_ideals(FiniteRing.integers_mod(4), budget=Budget(deadline_seconds=-1.0))
