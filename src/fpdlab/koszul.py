"""Koszul complexes on generator tuples, the grade they compute through
homology vanishing, and the cokernel of the dualized top differential.

Exterior basis convention: the rank-C(m, i) module in homological degree i
is indexed by the i-element subsets of {0..m-1} in lexicographic order, and
d(e_S) = sum_k (-1)^k a_{S[k]} e_{S minus S[k]} over the 0-based positions k
of S.  With m = 2 this gives d_2 = (-a_1, a_0)^T and d_1 = (a_0 a_1).
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .errors import Budget, InternalError, StructuralError, ensure_budget
from .complexes import (ChainComplex, cycles_and_boundaries,
                        ext_computer, ext_vanishing_profile, generator_key)
from .modules import FreeModuleMap, is_zero_subquotient
from .rings import IdealPresentation, RingPresentation
from .values import GradeValue


def _koszul_differentials(ring: RingPresentation, gens: Sequence, top: int,
                          budget: Budget = None) -> list:
    """d_1..d_top of the Koszul chain on gens (ranks vanish above len(gens))."""
    m = len(gens)
    neg = ring.domain.neg
    diffs = []
    for i in range(1, top + 1):
        rows = list(combinations(range(m), i - 1))
        row_index = {s: t for t, s in enumerate(rows)}
        cols = []
        for S in combinations(range(m), i):
            col = {}
            for k, j in enumerate(S):
                t = row_index[S[:k] + S[k + 1:]]
                for mono, c in gens[j].terms:
                    col[(t, mono)] = c if k % 2 == 0 else neg(c)
            cols.append(col)
        diffs.append(FreeModuleMap.of_vectors(ring, len(rows), cols, budget))
    return diffs


def koszul_chain(ring: RingPresentation, gens: Sequence, top: int,
                 budget: Budget = None) -> ChainComplex:
    gens = tuple(ring.poly(g) for g in gens)
    ranks = [comb(len(gens), i) for i in range(top + 1)]
    diffs = _koszul_differentials(ring, gens, top, budget)
    try:
        return ChainComplex(ring, ranks, diffs, budget)
    except StructuralError as exc:
        raise InternalError(f"internal: Koszul complex: {exc}") from exc


def koszul_homology_is_zero(K: ChainComplex, i: int, budget: Budget = None) -> bool:
    """H_i(K) = 0?  (d_0 and d_{m+1} are treated as zero maps.)"""
    budget = ensure_budget(budget)
    m = K.length
    if not 0 <= i <= m:
        raise StructuralError(f"homology degree {i} outside 0..{m}")
    Z, B = cycles_and_boundaries(K.differential(i) if i > 0 else None,
                                 K.differential(i + 1) if i < m else None, budget)
    # B <= Z is certified by d.d = 0 at construction
    return is_zero_subquotient(Z, B, budget, verify_containment=False)


def koszul_grade(I: IdealPresentation, gens: Sequence = None,
                 budget: Budget = None, shared: dict = None) -> GradeValue:
    """len(gens) minus the top nonvanishing Koszul homology degree; INFINITE
    when every homology module vanishes (the unit ideal).  With a `shared`
    store, a grade already computed on unit multiples of gens is reused."""
    budget = ensure_budget(budget)
    gens = tuple(I.ring.poly(g) for g in (I.generators if gens is None else gens))
    known, key = ext_computer(I, shared).koszul, generator_key(I.ring, gens)
    if key not in known:
        if not gens:
            raise StructuralError("Koszul complex needs at least one generator")
        K = koszul_chain(I.ring, gens, len(gens), budget)
        m = K.length
        top = next((i for i in range(m, -1, -1)
                    if not koszul_homology_is_zero(K, i, budget)), None)
        known[key] = GradeValue.infinite() if top is None else GradeValue.finite(m - top)
    return known[key]


class DualKoszulCokernel:
    """The cokernel of the transposed Koszul differential d*_{index} together
    with the Ext-vanishing profile that certifies, when it is all-true, that
    the dualized complex is exact at positions 0..index-1 and hence that the
    cokernel has projective dimension at most `index`."""

    def __init__(self, ideal: IdealPresentation, index: int,
                 presentation: FreeModuleMap, profile: tuple,
                 exactness_verified: bool):
        self.ideal = ideal
        self.index = index
        self.presentation = presentation
        self.profile = profile
        self.exactness_verified = exactness_verified

    @property
    def projective_dimension_bound(self) -> Optional[int]:
        return self.index if self.exactness_verified else None

    def __str__(self):
        status = ("dual complex exact below the top"
                  if self.exactness_verified else "exactness not certified")
        return (f"coker(d*_{self.index}) presented by "
                f"{self.presentation.target_rank}x{self.presentation.source_rank}; "
                f"{status}")


def dual_koszul_cokernel(I: IdealPresentation, n: int, budget: Budget = None,
                         shared: dict = None) -> DualKoszulCokernel:
    """coker(d*_{n+1}) of the dualized Koszul complex on I's generators.

    When Ext^i(R/I, R) = 0 for i = 0..n, exactness of the dualized sequence
    at positions 0..n is verified in both directions.
    """
    budget = ensure_budget(budget)
    if n < 0:
        raise StructuralError("index must be >= 0")
    gens = tuple(I.generators)
    if not gens:
        raise StructuralError("the dual Koszul cokernel needs generators")
    chain = koszul_chain(I.ring, gens, n + 1, budget)
    presentation = chain.differential(n + 1).transpose(budget)
    profile = ext_vanishing_profile(I, n, budget, shared)
    verified = False
    if all(profile):
        duals = [chain.differential(i).transpose(budget) for i in range(1, n + 2)]
        for i in range(n + 1):
            # position i: Z = ker d*_{i+1}, B = im d*_i (none at position 0)
            Z, B = cycles_and_boundaries(duals[i], duals[i - 1] if i else None,
                                         budget)
            if not is_zero_subquotient(Z, B, budget, verify_containment=False):
                raise InternalError(f"internal: dual complex not exact at "
                                    f"position {i} (kernel exceeds image)")
            if not is_zero_subquotient(B, Z, budget, verify_containment=False):
                raise InternalError(f"internal: dual complex not exact at "
                                    f"position {i} (image exceeds kernel)")
        verified = True
    return DualKoszulCokernel(I, n + 1, presentation, profile, verified)
