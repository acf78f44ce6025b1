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
from .complexes import ChainComplex, ext_vanishing_profile
from .modules import (FreeModuleMap, SubmodulePresentation, image,
                      is_zero_subquotient, kernel)
from .rings import IdealPresentation, RingPresentation
from .values import GradeValue


class KoszulComplex:
    def __init__(self, underlying: ChainComplex, generators: tuple):
        self.underlying = underlying
        self.generators = generators

    @property
    def ring(self) -> RingPresentation:
        return self.underlying.ring

    @property
    def ranks(self) -> tuple:
        return self.underlying.ranks

    def differential(self, i: int) -> FreeModuleMap:
        return self.underlying.differential(i)

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Koszul({gens}): {self.underlying}"


def _koszul_differentials(ring: RingPresentation, gens: Sequence, top: int,
                          budget: Budget = None) -> list:
    """d_1..d_top of the Koszul chain on gens (ranks vanish above len(gens))."""
    m = len(gens)
    diffs = []
    for i in range(1, top + 1):
        rows = list(combinations(range(m), i - 1))
        cols = list(combinations(range(m), i))
        row_index = {s: t for t, s in enumerate(rows)}
        zero = ring.ambient.zero()
        matrix = [[zero] * len(cols) for _ in rows]
        for cidx, S in enumerate(cols):
            for k, j in enumerate(S):
                T = S[:k] + S[k + 1:]
                entry = gens[j] if k % 2 == 0 else -gens[j]
                matrix[row_index[T]][cidx] = matrix[row_index[T]][cidx] + entry
        diffs.append(FreeModuleMap(ring, len(cols), len(rows), matrix, budget))
    return diffs


def koszul_chain(ring: RingPresentation, gens: Sequence, top: int,
                 budget: Budget = None) -> ChainComplex:
    gens = tuple(ring.poly(g) for g in gens)
    ranks = [comb(len(gens), i) for i in range(top + 1)]
    diffs = _koszul_differentials(ring, gens, top, budget)
    return ChainComplex(ring, ranks, diffs, budget)


def koszul_complex(ring: RingPresentation, gens: Sequence,
                   budget: Budget = None) -> KoszulComplex:
    """The full Koszul complex on a nonempty generator tuple."""
    gens = tuple(ring.poly(g) for g in gens)
    if not gens:
        raise StructuralError("Koszul complex needs at least one generator")
    chain = koszul_chain(ring, gens, len(gens), budget)
    return KoszulComplex(chain, gens)


def _full_submodule(ring: RingPresentation, rank: int) -> SubmodulePresentation:
    one = ring.ambient.one()
    zero = ring.ambient.zero()
    gens = [tuple(one if t == j else zero for t in range(rank)) for j in range(rank)]
    return SubmodulePresentation(ring, rank, gens)


def koszul_homology_is_zero(K: KoszulComplex, i: int, budget: Budget = None) -> bool:
    """H_i(K) = 0?  (d_0 and d_{m+1} are treated as zero maps.)"""
    budget = ensure_budget(budget)
    ring = K.ring
    m = K.underlying.length
    if not 0 <= i <= m:
        raise StructuralError(f"homology degree {i} outside 0..{m}")
    if i == 0:
        ker_i = _full_submodule(ring, K.ranks[0])
    else:
        ker_i = kernel(K.differential(i), budget)
    if i < m:
        im_i = image(K.differential(i + 1))
    else:
        im_i = SubmodulePresentation(ring, K.ranks[i], ())
    # im <= ker is certified by d.d = 0 at construction
    return is_zero_subquotient(ker_i, im_i, budget, verify_containment=False)


def koszul_grade(I: IdealPresentation, gens: Sequence = None,
                 budget: Budget = None) -> GradeValue:
    """len(gens) minus the top nonvanishing Koszul homology degree; INFINITE
    when every homology module vanishes (the unit ideal)."""
    budget = ensure_budget(budget)
    if gens is None:
        gens = I.generators
    K = koszul_complex(I.ring, gens, budget)
    m = K.underlying.length
    for i in range(m, -1, -1):
        if not koszul_homology_is_zero(K, i, budget):
            return GradeValue.finite(m - i)
    return GradeValue.infinite()


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


def dual_koszul_cokernel(I: IdealPresentation, n: int,
                         budget: Budget = None) -> DualKoszulCokernel:
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
    presentation = chain.differential(n + 1).transpose()
    profile = ext_vanishing_profile(I, n, budget)
    verified = False
    if all(profile):
        duals = [chain.differential(i).transpose() for i in range(1, n + 2)]
        ring = I.ring
        ker_1 = kernel(duals[0], budget)
        zero_mod = SubmodulePresentation(ring, duals[0].source_rank, ())
        if not is_zero_subquotient(ker_1, zero_mod, budget, verify_containment=False):
            raise InternalError("internal: dual complex not exact at position 0 "
                                "despite the vanishing profile")
        for i in range(1, n + 1):
            ker_i = kernel(duals[i], budget)       # ker d*_{i+1}
            im_i = image(duals[i - 1])             # im d*_i
            if not is_zero_subquotient(ker_i, im_i, budget, verify_containment=False):
                raise InternalError(f"internal: dual complex not exact at "
                                    f"position {i} (kernel exceeds image)")
            if not is_zero_subquotient(im_i, ker_i, budget, verify_containment=False):
                raise InternalError(f"internal: dual complex not exact at "
                                    f"position {i} (image exceeds kernel)")
        verified = True
    return DualKoszulCokernel(I, n + 1, presentation, profile, verified)
