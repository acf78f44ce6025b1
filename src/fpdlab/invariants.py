"""The decision layer: grade, semi-regular and GV ideals, the bounded-depth
criterion on ideals, finitistic-dimension bounds, Cohen-Macaulay and DQ/DW
detection for graded-local rings.

grade(I) = min{i : Ext^i(R/I, R) != 0}; the unit ideal gets the INFINITE
marker by convention (flagged in every report).  Over field coefficients the
Koszul route cross-checks every determined grade.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (Budget, InternalError, StructuralError,
                     UnsupportedDomainError, UnsupportedInputError,
                     ensure_budget)
from .complexes import ext_computer, ext_vanishing_profile
from .groebner import krull_dimension
from .koszul import koszul_grade
from .rings import IdealPresentation, RingPresentation
from .values import GradeValue

UNIT_IDEAL_NOTE = "unit ideal: grade reported as INFINITE by convention"


@dataclass(frozen=True)
class GradeReport:
    ideal: IdealPresentation
    value: GradeValue
    ext_profile: tuple
    koszul_cross_check: Optional[GradeValue] = None
    notes: tuple = ()


def grade(I: IdealPresentation, with_koszul: Optional[bool] = None,
          budget: Budget = None) -> GradeReport:
    """Grade of I on R from the Ext-vanishing profile.

    The profile is searched through Ext^mu, mu the number of generators
    nonzero modulo J: a proper ideal has grade I <= ht I <= mu by Krull's
    height theorem, so a proper ideal whose profile vanishes that far is an
    internal error.  The unit verdict, the generators modulo J, and earlier
    Ext and Koszul homology decisions on I's ring are reused
    (`complexes.ext_computer`); the Koszul grade read from reused decisions
    is still checked.
    """
    budget = ensure_budget(budget)
    computer = ext_computer(I)
    nonzero = computer.cyclic_presentation(budget).source_rank
    profile = []
    value = None
    notes = ()
    for i in range(nonzero + 1):
        vanished = computer.ext_is_zero(i, budget)
        profile.append(vanished)
        if not vanished:
            value = GradeValue.finite(i)
            break
    if computer.unit_ideal(I, budget):
        if value is not None:
            raise InternalError("internal: nonvanishing Ext for the unit ideal")
        value = GradeValue.infinite()
        notes = (UNIT_IDEAL_NOTE,)
    elif value is None:
        raise InternalError(
            f"internal: Ext vanishes through degree {nonzero} for a proper "
            f"ideal with {nonzero} nonzero generators")
    if with_koszul is None:
        with_koszul = I.ring.domain.is_field
    cross = None
    if with_koszul and nonzero:
        cross = koszul_grade(I, budget=budget)
        if cross != value:
            raise InternalError(
                f"internal: Koszul grade {cross} disagrees with Ext grade {value}")
    return GradeReport(I, value, tuple(profile), cross, notes)


def is_semiregular(I: IdealPresentation, budget: Budget = None) -> bool:
    """Hom(R/I, R) = 0, decided through the annihilator (kept on I's ring
    for the Ext^0 cross-check of a later call on I)."""
    return ext_computer(I).annihilator_is_zero(budget)


def is_gv(J: IdealPresentation, budget: Budget = None) -> bool:
    """Hom(R/J, R) = Ext^1(R/J, R) = 0."""
    return all(ext_vanishing_profile(J, 1, budget))


PASS = "PASS"
COUNTEREXAMPLE = "COUNTEREXAMPLE"


@dataclass(frozen=True)
class CriterionResult:
    """Whether an ideal is compatible with a finitistic-dimension bound n:
    a proper ideal whose Ext profile vanishes through degree n witnesses a
    dimension larger than n."""

    ideal: IdealPresentation
    bound: int
    verdict: str
    profile: tuple
    first_nonvanishing: Optional[int] = None
    unit_cofactors: Optional[tuple] = None

    def __bool__(self):
        return self.verdict == PASS


def fpd_criterion_check(I: IdealPresentation, n: int,
                        budget: Budget = None) -> CriterionResult:
    """Test I against the bound fPD(R) <= n.

    PASS when some Ext^i(R/I, R) with i <= n is nonzero, or when I = R
    (with a verified cofactor certificate); otherwise I is a proper ideal
    with a fully vanishing profile and witnesses fPD(R) > n.
    """
    budget = ensure_budget(budget)
    if n < 0:
        raise StructuralError("criterion bound must be >= 0")
    profile = ext_vanishing_profile(I, n, budget)
    if not all(profile):
        first = min(i for i, z in enumerate(profile) if not z)
        return CriterionResult(I, n, PASS, profile, first_nonvanishing=first)
    unit = ext_computer(I).unit_ideal(I, budget)
    if unit:
        return CriterionResult(I, n, PASS, profile, unit_cofactors=unit.cofactors)
    return CriterionResult(I, n, COUNTEREXAMPLE, profile)


LOWER_BOUND = "LOWER_BOUND"
EXACT = "EXACT"


@dataclass(frozen=True)
class FpdReport:
    """max of grades over a list of maximal ideals: a lower bound on fPD(R).

    A finitely presented ring is Noetherian, so fPD(R) <= FPD(R) = K.dim R
    (Raynaud-Gruson), and the conclusion is EXACT when the largest grade
    reaches `dimension`.  The Krull dimension is computed over field
    coefficients only: over ZZ `dimension` is None and the conclusion stays
    LOWER_BOUND.
    """

    ring: RingPresentation
    maximal_ideals: tuple
    grades: tuple  # GradeReport per ideal
    bound: int
    dimension: Optional[int]
    conclusion: str


def fpd_bound(R: RingPresentation, max_ideals: Sequence,
              budget: Budget = None) -> FpdReport:
    """max of grade(m, R) over the listed ideals (claimed maximal by the
    caller), EXACT when it equals K.dim R."""
    budget = ensure_budget(budget)
    ideals = tuple(max_ideals)
    if not ideals:
        raise StructuralError("at least one maximal ideal is required")
    reports = []
    for m in ideals:
        if m.ring != R:
            raise StructuralError("listed ideal lives in a different ring")
        rep = grade(m, budget=budget)
        if rep.value.is_infinite:
            raise StructuralError("the unit ideal was listed as a maximal ideal")
        reports.append(rep)
    bound = max(rep.value.value for rep in reports)
    dimension = krull_dimension(R, budget) if R.domain.is_field else None
    conclusion = EXACT if bound == dimension else LOWER_BOUND
    return FpdReport(R, ideals, tuple(reports), bound, dimension, conclusion)


def irrelevant_ideal(R: RingPresentation) -> IdealPresentation:
    """The ideal generated by all the variables."""
    return IdealPresentation(R, R.ambient.gens())


def _graded_depth(R: RingPresentation, budget: Budget) -> int:
    """depth R = grade of the irrelevant ideal, for a graded-local ring:
    field coefficients, homogeneous relations, not the zero ring."""
    if not R.domain.is_field:
        raise UnsupportedDomainError("graded-local analysis needs field coefficients")
    if not R.has_homogeneous_relations():
        raise UnsupportedInputError("relations must be homogeneous")
    if R.is_zero_ring(budget):
        raise StructuralError("the zero ring is not graded-local")
    value = grade(irrelevant_ideal(R), budget=budget).value
    if not value.is_finite:
        raise InternalError("internal: depth of a graded-local ring must be finite")
    return value.value


@dataclass(frozen=True)
class CohenMacaulayReport:
    ring: RingPresentation
    is_cm: bool
    depth: int
    dimension: int
    finitistic_identity: Optional[str] = None


def is_cohen_macaulay_graded(R: RingPresentation,
                             budget: Budget = None) -> CohenMacaulayReport:
    """depth = dim test at the irrelevant maximal ideal of a graded-local ring.

    When the ring is Cohen-Macaulay the report records that both finitistic
    dimensions coincide with the Krull dimension.
    """
    budget = ensure_budget(budget)
    depth = _graded_depth(R, budget)
    dim = krull_dimension(R, budget)
    is_cm = depth == dim
    identity = (f"fPD(R) = FPD(R) = K.dim(R) = {dim}" if is_cm else None)
    return CohenMacaulayReport(R, is_cm, depth, dim, identity)


@dataclass(frozen=True)
class DqDwReport:
    ring: RingPresentation
    is_dq: bool
    is_dw: bool
    depth: int
    gv_witness: Optional[IdealPresentation] = None


def dq_dw_local(R: RingPresentation, budget: Budget = None) -> DqDwReport:
    """DQ (depth 0) and DW (depth <= 1) for a graded-local ring; when the
    ring is not DW, the irrelevant ideal is returned as a proper GV-ideal
    witness: its grade of at least 2 says Ext^0 and Ext^1 vanish."""
    depth = _graded_depth(R, ensure_budget(budget))
    witness = irrelevant_ideal(R) if depth >= 2 else None
    return DqDwReport(R, depth == 0, depth <= 1, depth, witness)
