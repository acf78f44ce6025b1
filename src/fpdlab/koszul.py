"""Koszul complexes on generator tuples, the grade they compute through
homology vanishing, and the cokernel of the dualized top differential.

Exterior basis convention: the rank-C(m, i) module in homological degree i
is indexed by the i-element subsets of {0..m-1} in lexicographic order, and
d(e_S) = sum_k (-1)^k a_{S[k]} e_{S minus S[k]} over the 0-based positions k
of S.  With m = 2 this gives d_2 = (-a_1, a_0)^T and d_1 = (a_0 a_1).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .errors import Budget, InternalError, StructuralError, ensure_budget
from .complexes import (ChainComplex, ext_computer, ext_vanishing_profile,
                        generator_key, homology_is_zero)
from .groebner import poly_to_vec
from .modules import FreeModuleMap
from .rings import IdealPresentation, RingPresentation
from .values import GradeValue


def _koszul_differentials(ring: RingPresentation, gens: Sequence, top: int,
                          negated: Sequence) -> list:
    """d_1..d_top of the Koszul chain on gens (ranks vanish above len(gens)),
    from the generators and their negatives in normal form modulo J."""
    m = len(gens)
    diffs = []
    for i in range(1, top + 1):
        rows = list(combinations(range(m), i - 1))
        row_index = {s: t for t, s in enumerate(rows)}
        cols = []
        for S in combinations(range(m), i):
            col = {}
            for k, j in enumerate(S):
                t = row_index[S[:k] + S[k + 1:]]
                col.update(poly_to_vec(gens[j] if k % 2 == 0 else negated[j], t))
            cols.append(col)
        diffs.append(FreeModuleMap._of_reduced(ring, len(rows), cols))
    return diffs


def koszul_chain(ring: RingPresentation, gens: Sequence, top: int,
                 budget: Budget = None) -> ChainComplex:
    """The chain up to d_top from each generator reduced modulo J once and,
    for d_2 on, the negative of each a_j with j >= 1 reduced once: over ZZ,
    the normal form of -g need not be minus that of g."""
    gens = tuple(ring.poly(g) for g in gens)
    ranks = [comb(len(gens), i) for i in range(top + 1)]
    reduced = [ring.normal_form(g, budget) for g in gens]
    negated = [ring.normal_form(-g, budget) if j and top > 1 else None
               for j, g in enumerate(gens)]
    diffs = _koszul_differentials(ring, reduced, top, negated)
    try:
        return ChainComplex(ring, ranks, diffs, budget)
    except StructuralError as exc:
        raise InternalError(f"internal: Koszul complex: {exc}") from exc


def koszul_homology_is_zero(K: ChainComplex, i: int, budget: Budget = None) -> bool:
    """H_i(K) = 0?  (d_0 and d_{m+1} are treated as zero maps.)"""
    m = K.length
    if not 0 <= i <= m:
        raise StructuralError(f"homology degree {i} outside 0..{m}")
    # d_i . d_{i+1} = 0 is checked as the chain is built
    return homology_is_zero(K.differential(i) if i > 0 else None,
                            K.differential(i + 1) if i < m else None, budget)


def _top_nonvanishing(I: IdealPresentation, gens: tuple, low: int,
                      budget: Budget) -> Optional[int]:
    """The largest i >= low with H_i(K(gens)) != 0, or None.  The scan reads
    I's store (`ExtComputer.koszul`), builds the chain only for a missing
    decision and stores each one at once: a scan cut short keeps them."""
    known = ext_computer(I).koszul.setdefault(generator_key(I.ring, gens), {})
    K = None
    for i in range(len(gens), low - 1, -1):
        if i not in known:
            if K is None:
                K = koszul_chain(I.ring, gens, len(gens), budget)
            known[i] = koszul_homology_is_zero(K, i, budget)
        if not known[i]:
            return i
    return None


def koszul_grade(I: IdealPresentation, gens: Sequence = None,
                 budget: Budget = None) -> GradeValue:
    """len(gens) minus the top nonvanishing Koszul homology degree; INFINITE
    when every homology module vanishes (the unit ideal).  No `gens` means
    the columns of I's cyclic presentation, as in `grade` (a zero generator
    only shifts the top degree), or I's generators when all are zero in R.
    Decisions already made on unit multiples of gens in I's ring are reused."""
    budget = ensure_budget(budget)
    if gens is None:
        columns = ext_computer(I).cyclic_presentation(budget).generators
        gens = tuple(g for (g,) in columns) or I.generators
    gens = tuple(I.ring.poly(g) for g in gens)
    if not gens:
        raise StructuralError("Koszul complex needs at least one generator")
    top = _top_nonvanishing(I, gens, 0, budget)
    return GradeValue.infinite() if top is None else GradeValue.finite(len(gens) - top)


@dataclass(frozen=True)
class DualKoszulCokernel:
    """coker d*_{index} of the dualized Koszul complex, with the Ext profile
    that certifies, when all-true, that the dual is exact at positions
    0..index-1, so the cokernel has projective dimension at most `index`."""

    ideal: IdealPresentation
    index: int
    presentation: FreeModuleMap
    profile: tuple
    exactness_verified: bool

    @property
    def projective_dimension_bound(self) -> Optional[int]:
        return self.index if self.exactness_verified else None


def dual_koszul_cokernel(I: IdealPresentation, n: int,
                         budget: Budget = None) -> DualKoszulCokernel:
    """coker(d*_{n+1}) of the dualized Koszul complex on I's m generators.

    Exactness at positions 0..n is claimed when Ext^i(R/I, R) = 0 for
    i = 0..n, and checked: the dual's cohomology at position i is H_{m-i}
    (Bruns-Herzog, Prop. 1.6.10), which must vanish for i = 0..min(n, m)."""
    budget = ensure_budget(budget)
    if n < 0:
        raise StructuralError("index must be >= 0")
    gens = tuple(I.generators)
    if not gens:
        raise StructuralError("the dual Koszul cokernel needs generators")
    # none zero in R: the same chain modulo J, keyed as `koszul` keys it
    columns = ext_computer(I).cyclic_presentation(budget).generators
    if len(columns) == len(gens):
        gens = tuple(g for (g,) in columns)
    chain = koszul_chain(I.ring, gens, n + 1, budget)
    presentation = chain.differential(n + 1).transpose()
    profile = ext_vanishing_profile(I, n, budget)
    if all(profile):
        top = _top_nonvanishing(I, gens, max(len(gens) - n, 0), budget)
        if top is not None:
            raise InternalError(f"internal: Ext vanishes through degree {n} but "
                                f"Koszul homology H_{top} does not")
    return DualKoszulCokernel(I, n + 1, presentation, profile, all(profile))
