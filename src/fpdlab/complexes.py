"""Chain complexes, free resolutions by iterated syzygies, and
`ExtComputer`, the one home of an ideal's derived work (Ext^i(R/I, R)
vanishing decisions among it), kept on the ring of I so that later calls on
I reuse them.

Resolutions are not minimal (Ext does not depend on the resolution); they
are built step by step with the kernel operation, so quotient rings of
infinite global dimension are fine: only finitely many steps are requested.

Over ZZ an ideal that holds a prime p regular on R takes no resolution over
ZZ.  By Rees' lemma (Bruns-Herzog, Lemma 3.1.16), Ext^0_R(R/I, R) = 0 and
Ext^(i+1)_R(R/I, R) = Ext^i_(R/pR)(R/I, R/pR), and R/pR = FF_p[x]/(J mod p)
is decided by the field engine (`ExtComputer.route`).  Every other ideal
is resolved over its own ring.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import Budget, InternalError, StructuralError, ensure_budget
from .groebner import UnitIdealResult, annihilator, is_unit_ideal
from .modules import (FreeModuleMap, _relation_block, graph_syzygies, kernel,
                      prune_generators)
from .rings import (_PRIME_TEST_BOUND, IdealPresentation, RingPresentation,
                    _is_prime)


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
    d_in), is d_in's image basis, which the degree before has left.  With
    no d_out each e_j is reduced against it.  Otherwise the homology is zero
    exactly when B is a Groebner basis of ker d_out + im d_in + J*R^n too:
    when `graph_syzygies` adds nothing to it, leaving d_out's image basis.
    """
    budget = ensure_budget(budget)
    if d_out is None:
        shift, one = d_in.ring.ambient.codec.shift, d_in.ring.domain.one()
        return not any(d_in.reduce({-(j << shift): one}, budget)
                       for j in range(d_in.target_rank))
    B = (d_in.groebner_vectors(budget) if d_in is not None
         else _relation_block(d_out.ring, d_out.source_rank, budget))
    return not graph_syzygies(d_out, B.vecs, budget)


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
            if n >= 2:  # only d_1's image basis is read: unit verdict, `contains`
                last._left = None
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
    rescaling changes neither the ideal nor its derived work, so this keys
    an ideal's `ExtComputer`."""
    dom, key = ring.domain, []
    for g in gens:
        u = dom.lc_normalizer(g.terms[0][1]) if g.terms else None
        key.append(tuple((m, dom.mul(u, c)) for m, c in g.terms))
    return tuple(key)


class ExtComputer:
    """All the derived work on one ideal I: whether 1 is in I (with unit
    cofactors per generator tuple of a unit I), its generators modulo J, the
    route through R/pR or a resolution of R/I extended on demand, the
    Ext^i(R/I, R) decisions read off either, whether Ann(I) = 0, and the
    Koszul generators with their one Koszul chain through d_m (d.d = 0
    checked) and its homology decisions.  An Ext decision (Ext^0 once the
    annihilator agrees) is stored only once its check has passed, and work
    cut short by a budget is not stored.  Not for concurrent use;
    `ext_computer` keeps one per ideal."""

    def __init__(self, I: IdealPresentation):
        self.ideal = I
        self.has_one = None     # whether 1 is in I, once decided
        self.cofactors = {}     # a unit I's generator terms -> its UnitIdealResult
        self.presentation = None  # cyclic_presentation(I), made on first use
        self.low = None         # `route()` once decided: I/pR's computer, or False
        self.resolution = None  # ResolutionCache of R/I, made on first use
        self.decided = {}       # i -> Ext^i(R/I, R) = 0
        self.ann_zero = None    # Ann(I) = 0, once computed
        self.koszul_gens = None  # `koszul_generators()`, made on first use
        self.chain = None       # their Koszul chain through d_m
        self.koszul = {}        # i -> H_i of that chain = 0

    def route(self, budget: Budget = None) -> Optional["ExtComputer"]:
        """The computer of I/pR on R/pR when I holds a prime p regular on
        R, else None; decided once.  It applies over ZZ when J meets ZZ in
        0 (its basis has no constant lead; otherwise p*(n/p) = n = 0 makes
        every prime a zero divisor), p is the first column of the cyclic
        presentation that is a constant +-p, p prime, and Ann(p) = 0, which
        the computer of (p) keeps.  Ann(I) lies in Ann(p), so Ann(I) = 0."""
        if self.low is None:
            low = self._lower(budget)
            if low is not None:
                if self.ann_zero is False:
                    raise InternalError("internal: Ann(I) is not zero, but I "
                                        "holds a prime that is regular on R")
                self.ann_zero = True
            self.low = low or False
        return self.low or None

    def _lower(self, budget: Budget) -> Optional["ExtComputer"]:
        """`route()`'s computer, when its conditions hold."""
        ring = self.ideal.ring
        if ring.domain.is_field or 0 in ring.relations_groebner(budget).lts:
            return None
        cols = self.cyclic_presentation(budget).cols
        constants = (abs(c[0]) for c in cols if len(c) == 1 and 0 in c)
        p = next((n for n in constants if n < _PRIME_TEST_BOUND and _is_prime(n)), None)
        if p is None or not ext_computer(ring.ideal(p)).annihilator_is_zero(budget):
            return None
        low = ring.modulo(p)
        return ext_computer(low.ideal(*(low.ambient._of_codes(c) for c in cols)))

    def contains_one(self, budget: Budget = None) -> bool:
        """Whether 1 is in I, decided once: on the route by I/pR, since p is
        in I and so I = R exactly when I/pR = R/pR, and otherwise against
        the cyclic presentation's image basis."""
        if self.has_one is None:
            low = self.route(budget)
            self.has_one = (low.contains_one(budget) if low is not None
                            else self.cyclic_presentation(budget).contains(
                                (self.ideal.ring.ambient.one(),), budget))
        return self.has_one

    def unit_ideal(self, I: IdealPresentation, budget: Budget = None) -> UnitIdealResult:
        """Whether 1 is in I, for an I with this key (`contains_one`; the
        key fixes the ideal); only a unit I gets `is_unit_ideal`, once per
        generator tuple, for cofactors over its own generators."""
        if not self.contains_one(budget):
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
        """The generators the Koszul work takes, made once: the cyclic
        presentation's columns as polynomials, or I's generators when all
        are zero in R."""
        if self.koszul_gens is None:
            columns = self.cyclic_presentation(budget).generators
            self.koszul_gens = tuple(g for (g,) in columns) or self.ideal.generators
        return self.koszul_gens

    def annihilator_is_zero(self, budget: Budget = None) -> bool:
        """Ann(I) = 0, i.e. Hom(R/I, R) = 0, through the annihilator."""
        if self.ann_zero is None:
            budget = ensure_budget(budget)
            self.ann_zero = annihilator(self.ideal, budget).is_zero(budget)
        return self.ann_zero

    def ext_is_zero(self, i: int, budget: Budget = None) -> bool:
        """Ext^i(R/I, R) = 0: on the route Ext^0 = 0 and Ext^i is Ext^(i-1)
        of I/pR on R/pR, and otherwise it is read off the resolution."""
        if i < 0:
            raise StructuralError("Ext degree must be >= 0")
        budget = ensure_budget(budget)
        if i not in self.decided:
            low = self.route(budget)
            if low is not None:
                self.decided[i] = i == 0 or low.ext_is_zero(i - 1, budget)
                return self.decided[i]
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
