"""Chain complexes, free resolutions by iterated syzygies, and
`ExtComputer`, the one home of an ideal's derived work (Ext^i(R/I, R)
vanishing decisions among it), kept on the ring of I so that later calls on
I reuse them.

Resolutions are not minimal (Ext does not depend on the resolution); they
are built step by step with the kernel operation, so quotient rings of
infinite global dimension are fine: only finitely many steps are requested.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import Budget, InternalError, StructuralError, ensure_budget
from .groebner import (UnitIdealResult, VecBasis, _interreduce, annihilator,
                       completion, is_unit_ideal)
from .modules import FreeModuleMap, _relation_block, kernel, prune_generators
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
            if not self.diffs[i].compose(self.diffs[i + 1], budget).is_zero():
                raise StructuralError(f"d_{i + 1} . d_{i + 2} is not zero")

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def differential(self, i: int) -> FreeModuleMap:
        """d_i: F_i -> F_{i-1} for 1 <= i <= length."""
        if not 1 <= i <= self.length:
            raise StructuralError(f"no differential d_{i} in a length-{self.length} complex")
        return self.diffs[i - 1]


def cyclic_presentation(I: IdealPresentation, budget: Budget = None) -> FreeModuleMap:
    """R^k -> R whose columns are I's generators, each reduced modulo J once,
    with the zero ones dropped: the cokernel is R/I."""
    full = FreeModuleMap(I.ring, len(I.generators), 1, [I.generators], budget)
    return FreeModuleMap._of_reduced(I.ring, 1, [c for c in full.cols if c])


def homology_is_zero(d_out: Optional[FreeModuleMap], d_in: Optional[FreeModuleMap],
                     budget: Budget = None) -> bool:
    """ker d_out / im d_in = 0 in the free module R^n where d_out starts and
    d_in ends.  None is a zero map (at most one of the two): with no d_out
    every element is a cycle, and with no d_in nothing is a boundary.  The
    caller vouches for d_out . d_in = 0, so im d_in <= ker d_out is not
    re-checked.

    B, the Groebner basis of im d_in + J*R^n (J's in each position with no
    d_in), is d_in's image basis, which the degree before has filled.  With
    no d_out each e_j is reduced against it.  Otherwise one completion of
    the graph of d_out: R^n -> R^r, generated by (d_out(e_j), e_(r+j)),
    starts from J's basis in each target position and B in the source
    positions.  Its elements led in the source positions are a Groebner
    basis of ker d_out + im d_in + J*R^n, which B already is exactly when
    every cycle is a boundary: so the homology is zero exactly when no
    element past the block is led there.  The elements led in the target
    positions, cut to them, give d_out's image basis when it has none.
    """
    budget = ensure_budget(budget)
    if d_out is None:
        shift, one = d_in.ring.ambient.codec.shift, d_in.ring.domain.one()
        return not any(d_in.reduce({-(j << shift): one}, budget)
                       for j in range(d_in.target_rank))
    ring, r, n = d_out.ring, d_out.target_rank, d_out.source_rank
    shift, one = ring.ambient.codec.shift, ring.domain.one()
    if d_in is None:
        block = _relation_block(ring, r + n, budget).vecs
    else:
        offset = r << shift
        block = _relation_block(ring, r, budget).vecs + [
            {k - offset: c for k, c in b.items()}
            for b in d_in.groebner_vectors(budget).vecs]
    graph = [{**col, -((r + j) << shift): one} for j, col in enumerate(d_out.cols)]
    basis = completion(graph, ring.ambient, budget, block).basis
    target = (1 - r) << shift   # the keys of positions below r are at least this
    if d_out._gb is None:
        image = VecBasis([], ring.ambient)
        for v, lt in zip(basis.vecs, basis.lts):
            if lt >= target:
                image.append({k: c for k, c in v.items() if k >= target}, lt)
        d_out._gb = _interreduce(image, budget)
    return all(lt >= target for lt in basis.lts[len(block):])


class ResolutionCache:
    """Differentials of a free resolution of coker(presentation), extended on
    demand under each caller's budget and shared by every Ext degree that
    reads it; d.d = 0 is checked before each differential is added, so a
    resolution cut short by a budget keeps a checked prefix."""

    def __init__(self, presentation: FreeModuleMap):
        self._diffs = [presentation]
        self._duals = {}

    def differential(self, i: int, budget: Budget = None) -> FreeModuleMap:
        """d_i: F_i -> F_{i-1} (1-based), computing new syzygy steps as needed."""
        if i < 1:
            raise StructuralError("differential index must be >= 1")
        budget = ensure_budget(budget)
        for n in range(len(self._diffs), i):
            last = self._diffs[-1]
            d = prune_generators(kernel(last, budget), budget)
            if not last.compose(d, budget).is_zero():
                raise InternalError(f"internal: resolution: d_{n} . d_{n + 1} is not zero")
            self._diffs.append(d)
        return self._diffs[i - 1]

    def dual(self, i: int, budget: Budget = None) -> FreeModuleMap:
        """d_i^T, made once: degree i reuses the image basis it kept."""
        if i not in self._duals:
            self._duals[i] = self.differential(i, budget).transpose()
        return self._duals[i]


def generator_key(ring: RingPresentation, gens: Sequence) -> tuple:
    """The generators' terms, each generator scaled by the unit that makes
    its lead canonical (monic over fields, positive over ZZ): a unit
    rescaling changes neither the ideal nor its Koszul homology."""
    dom, key = ring.domain, []
    for g in gens:
        u = dom.lc_normalizer(g.terms[0][1]) if g.terms else None
        key.append(tuple((m, dom.mul(u, c)) for m, c in g.terms))
    return tuple(key)


class ExtComputer:
    """All the derived work on one ideal I: whether 1 is in I (with unit
    cofactors per generator tuple of a unit I), its generators modulo J, a
    resolution of R/I extended on demand, the Ext^i(R/I, R) decisions read
    off it, whether Ann(I) = 0, the default Koszul generators with their key,
    and, per key of a generator tuple of I, its Koszul chain through d_m
    (d.d = 0 checked) and the homology decisions on it.  An Ext decision
    (Ext^0 once the annihilator agrees) is stored only once its check has
    passed, and work cut short by a budget is not stored.  Not for concurrent
    use; `ext_computer` keeps one per ideal."""

    def __init__(self, I: IdealPresentation):
        self.ideal = I
        self.has_one = None     # whether 1 is in I, once decided
        self.cofactors = {}     # a unit I's generator terms -> its UnitIdealResult
        self.presentation = None  # cyclic_presentation(I), made on first use
        self.resolution = None  # ResolutionCache of R/I, made on first use
        self.decided = {}       # i -> Ext^i(R/I, R) = 0
        self.ann_zero = None    # Ann(I) = 0, once computed
        self.koszul_default = None  # (generators, key) that `koszul_grade` defaults to
        self.chains = {}        # generator_key -> Koszul chain through d_m
        self.koszul = {}        # generator_key -> {i: H_i of their Koszul chain = 0}

    def unit_ideal(self, I: IdealPresentation, budget: Budget = None) -> UnitIdealResult:
        """Whether 1 is in I, for an I with this key, decided once against
        the cyclic presentation's image basis (the key fixes the ideal); only
        a unit I gets `is_unit_ideal`, once per generator tuple, for
        cofactors over its own generators."""
        if self.has_one is None:
            self.has_one = self.cyclic_presentation(budget).contains(
                (I.ring.ambient.one(),), budget)
        if not self.has_one:
            return UnitIdealResult(False)
        terms = tuple(g.terms for g in I.generators)
        if terms not in self.cofactors:
            lifted = is_unit_ideal(I, budget)
            if not lifted:
                raise InternalError("internal: unit ideal without a lift")
            self.cofactors[terms] = lifted
        return self.cofactors[terms]

    def cyclic_presentation(self, budget: Budget = None) -> FreeModuleMap:
        """`cyclic_presentation(I)`, made once: its columns are I's
        generators that are nonzero in R, in normal form modulo J."""
        if self.presentation is None:
            self.presentation = cyclic_presentation(self.ideal, budget)
        return self.presentation

    def koszul_generators(self, budget: Budget = None) -> tuple:
        """(gens, generator_key of gens), made once: the cyclic
        presentation's columns as polynomials, or I's generators when all
        are zero in R."""
        if self.koszul_default is None:
            columns = self.cyclic_presentation(budget).generators
            gens = tuple(g for (g,) in columns) or self.ideal.generators
            self.koszul_default = gens, generator_key(self.ideal.ring, gens)
        return self.koszul_default

    def annihilator_is_zero(self, budget: Budget = None) -> bool:
        """Ann(I) = 0, i.e. Hom(R/I, R) = 0, through the annihilator."""
        if self.ann_zero is None:
            budget = ensure_budget(budget)
            self.ann_zero = annihilator(self.ideal, budget).is_zero(budget)
        return self.ann_zero

    def ext_is_zero(self, i: int, budget: Budget = None) -> bool:
        """Ext^i(R/I, R) = 0, read off the resolution."""
        if i < 0:
            raise StructuralError("Ext degree must be >= 0")
        budget = ensure_budget(budget)
        if i not in self.decided:
            if self.resolution is None:
                self.resolution = ResolutionCache(self.cyclic_presentation(budget))
            d_out = self.resolution.dual(i + 1, budget)
            d_in = self.resolution.dual(i, budget) if i >= 1 else None
            # d_i . d_{i+1} = 0 is checked as the resolution builds d_{i+1}
            zero = homology_is_zero(d_out, d_in, budget)
            if i == 0 and self.annihilator_is_zero(budget) != zero:
                raise InternalError(
                    "internal: Hom(R/I, R) decision disagrees with the annihilator")
            self.decided[i] = zero
        return self.decided[i]


def ext_computer(I: IdealPresentation) -> ExtComputer:
    """I's computer in `I.ring.derived`, the ring's store of derived work
    keyed by `generator_key`, which I keeps once computed (the computer's
    `ideal` is the first one asked about)."""
    if I.key is None:
        I.key = generator_key(I.ring, I.generators)
    computer = I.ring.derived.get(I.key)
    if computer is None:
        computer = I.ring.derived[I.key] = ExtComputer(I)
    return computer


def ext_vanishing_profile(I: IdealPresentation, n: int, budget: Budget = None) -> tuple:
    """(Ext^0 = 0?, ..., Ext^n = 0?) from one resolution of R/I."""
    if n < 0:
        raise StructuralError("profile bound must be >= 0")
    computer, budget = ext_computer(I), ensure_budget(budget)
    return tuple(computer.ext_is_zero(i, budget) for i in range(n + 1))
