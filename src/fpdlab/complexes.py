"""Chain complexes, free resolutions by iterated syzygies, dualization, and
the Ext^i(R/I, R) vanishing decisions.

Resolutions are not minimal (Ext does not depend on the resolution); they
are built step by step with the kernel operation, so quotient rings of
infinite global dimension are fine: only finitely many steps are requested.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import Budget, InternalError, StructuralError, ensure_budget
from .groebner import annihilator
from .modules import (FreeModuleMap, SubmodulePresentation, generator_syzygies,
                      image, is_zero_subquotient, kernel, lift_coordinates)
from .rings import IdealPresentation, RingPresentation


class ChainComplex:
    """ranks[i] is the rank of F_i; differential d_i: F_i -> F_{i-1} sits at
    diffs[i-1].  Construction checks rank agreement and d.d = 0 over R."""

    def __init__(self, ring: RingPresentation, ranks: Sequence,
                 diffs: Sequence, budget: Budget = None):
        self.ring = ring
        self.ranks = tuple(ranks)
        self.diffs = tuple(diffs)
        if len(self.diffs) != max(len(self.ranks) - 1, 0):
            raise StructuralError("differential count does not match rank count")
        for i, d in enumerate(self.diffs):
            if d.source_rank != self.ranks[i + 1] or d.target_rank != self.ranks[i]:
                raise StructuralError(f"differential {i + 1} has ranks "
                                      f"{d.target_rank}x{d.source_rank}, expected "
                                      f"{self.ranks[i]}x{self.ranks[i + 1]}")
        for i in range(len(self.diffs) - 1):
            if not self.diffs[i].compose(self.diffs[i + 1]).is_zero(budget):
                raise StructuralError(f"d_{i + 1} . d_{i + 2} is not zero")

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def differential(self, i: int) -> FreeModuleMap:
        """d_i: F_i -> F_{i-1} for 1 <= i <= length."""
        if not 1 <= i <= self.length:
            raise StructuralError(f"no differential d_{i} in a length-{self.length} complex")
        return self.diffs[i - 1]

    def __str__(self):
        arrows = " <- ".join(f"R^{r}" for r in self.ranks)
        return f"{arrows} over {self.ring}"


def dualize(C: ChainComplex, budget: Budget = None) -> ChainComplex:
    """Hom(-, R): arrows reversed, matrices transposed, d.d = 0 re-verified."""
    L = C.length
    ranks = tuple(reversed(C.ranks))
    diffs = [C.diffs[L - 1 - j].transpose() for j in range(L)]
    return ChainComplex(C.ring, ranks, diffs, budget)


def cyclic_presentation(I: IdealPresentation, budget: Budget = None) -> FreeModuleMap:
    """R^k -> R with row (a_1 .. a_k): the cokernel is R/I."""
    gens = [g for g in I.generators if not I.ring.is_zero_element(g, budget)]
    return FreeModuleMap(I.ring, len(gens), 1, [gens], budget)


class ResolutionCache:
    """Differentials of a free resolution of coker(presentation), extended on
    demand and shared by every Ext degree of one computation."""

    def __init__(self, presentation: FreeModuleMap, budget: Budget = None):
        self.ring = presentation.ring
        self.budget = ensure_budget(budget)
        self._diffs = [presentation]
        self._kernels = []

    def differential(self, i: int) -> FreeModuleMap:
        """d_i: F_i -> F_{i-1} (1-based), computing new syzygy steps as needed."""
        if i < 1:
            raise StructuralError("differential index must be >= 1")
        while len(self._diffs) < i:
            last = self._diffs[-1]
            K = kernel(last, self.budget)
            self._kernels.append(K)
            self._diffs.append(FreeModuleMap.from_columns(
                self.ring, K.generators, last.source_rank, self.budget))
        return self._diffs[i - 1]

    def kernel_of(self, i: int) -> SubmodulePresentation:
        """ker d_i, cached from the construction of d_{i+1}."""
        self.differential(i + 1)
        return self._kernels[i - 1]

    def ranks(self, length: int) -> tuple:
        self.differential(max(length, 1))
        out = [self._diffs[0].target_rank]
        for d in self._diffs[:length]:
            out.append(d.source_rank)
        return tuple(out)

    def complex(self, length: int) -> ChainComplex:
        """The complex F_length -> ... -> F_0, with interior kernels checked
        equal to the incoming images in both directions."""
        self.differential(max(length, 1))
        diffs = list(self._diffs[:length])
        ranks = self.ranks(length)
        complex_ = ChainComplex(self.ring, ranks, diffs, self.budget)
        for i in range(1, length):
            K = self.kernel_of(i)
            Im = image(self.differential(i + 1))
            if not is_zero_subquotient(K, Im, self.budget,
                                       verify_containment=True):
                raise StructuralError(f"resolution not exact at position {i}")
        return complex_


def free_resolution(presentation: FreeModuleMap, length: int,
                    budget: Budget = None) -> ChainComplex:
    """A free resolution of coker(presentation) out to F_length (not minimal)."""
    if length < 0:
        raise StructuralError("resolution length must be >= 0")
    cache = ResolutionCache(presentation, budget)
    if length == 0:
        return ChainComplex(presentation.ring, (presentation.target_rank,), ())
    return cache.complex(length)


def free_resolution_of_quotient(I: IdealPresentation, length: int,
                                budget: Budget = None) -> ChainComplex:
    return free_resolution(cyclic_presentation(I, budget), length, budget)


class ExtReport:
    """Whether Ext^degree(R/ideal, R) vanishes, with an optional cokernel
    presentation of the Ext module when it does not."""

    def __init__(self, ideal: IdealPresentation, degree: int, is_zero: bool,
                 witness: Optional[FreeModuleMap] = None):
        self.ideal = ideal
        self.degree = degree
        self.is_zero = is_zero
        self.witness = witness

    def __str__(self):
        state = "0" if self.is_zero else "nonzero"
        return f"Ext^{self.degree}(R/I, R) = {state}"


class ExtComputer:
    """Ext^i(R/I, R) vanishing decisions sharing one resolution of R/I."""

    def __init__(self, I: IdealPresentation, budget: Budget = None):
        self.ideal = I
        self.budget = ensure_budget(budget)
        self.resolution = ResolutionCache(cyclic_presentation(I, self.budget),
                                          self.budget)

    def _dual_kernel_and_image(self, i: int):
        d_next = self.resolution.differential(i + 1).transpose()
        K = kernel(d_next, self.budget)
        if i >= 1:
            Im = image(self.resolution.differential(i).transpose())
        else:
            Im = SubmodulePresentation(self.ideal.ring, d_next.source_rank, ())
        return K, Im

    def ext_is_zero(self, i: int, with_witness: bool = False) -> ExtReport:
        if i < 0:
            raise StructuralError("Ext degree must be >= 0")
        K, Im = self._dual_kernel_and_image(i)
        # im d*_i <= ker d*_{i+1} is certified by d.d = 0 on the resolution.
        zero = is_zero_subquotient(K, Im, self.budget, verify_containment=False)
        if i == 0:
            ann_zero = annihilator(self.ideal, self.budget).is_zero(self.budget)
            if ann_zero != zero:
                raise InternalError(
                    "internal: Hom(R/I, R) decision disagrees with the annihilator")
        witness = None
        if not zero and with_witness:
            witness = self._witness(K, Im)
        return ExtReport(self.ideal, i, zero, witness)

    def _witness(self, K: SubmodulePresentation, Im: SubmodulePresentation) -> FreeModuleMap:
        """Cokernel presentation of K/Im: columns are the coordinates of Im
        generators over K generators plus the relations among K generators."""
        columns = []
        for g in Im.generators:
            coords = lift_coordinates(g, K, self.budget)
            if coords is None:
                raise InternalError("internal: image generator outside the kernel")
            columns.append(coords)
        columns.extend(generator_syzygies(K, self.budget))
        return FreeModuleMap.from_columns(self.ideal.ring, columns,
                                          len(K.generators), self.budget)

    def profile(self, n: int) -> tuple:
        """(Ext^0 = 0?, ..., Ext^n = 0?) from one shared resolution."""
        return tuple(self.ext_is_zero(i).is_zero for i in range(n + 1))


def ext_is_zero(I: IdealPresentation, i: int, budget: Budget = None,
                with_witness: bool = False) -> ExtReport:
    return ExtComputer(I, budget).ext_is_zero(i, with_witness)


def ext_vanishing_profile(I: IdealPresentation, n: int,
                          budget: Budget = None) -> tuple:
    if n < 0:
        raise StructuralError("profile bound must be >= 0")
    return ExtComputer(I, budget).profile(n)
