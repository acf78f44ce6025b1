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
from .groebner import is_unit_ideal, krull_dimension
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

    def __str__(self):
        extra = f", Koszul cross-check {self.koszul_cross_check}" \
            if self.koszul_cross_check is not None else ""
        return f"grade = {self.value} (Ext profile {list(self.ext_profile)}{extra})"


def grade(I: IdealPresentation, max_degree: Optional[int] = None,
          with_koszul: Optional[bool] = None, budget: Budget = None,
          shared: dict = None) -> GradeReport:
    """Grade of I on R from the Ext-vanishing profile.

    The profile is searched up to `max_degree` (default: the number of
    nonzero generators, which always suffices for a proper ideal); a proper
    ideal with an all-true profile is reported UNDETERMINED beyond the bound.
    With a `shared` store (`complexes.ext_computer`), earlier Ext decisions
    and Koszul grades on I are reused; a reused Koszul grade is still checked.
    """
    budget = ensure_budget(budget)
    ring = I.ring
    nonzero_gens = [g for g in I.generators if not ring.is_zero_element(g, budget)]
    if max_degree is None:
        max_degree = len(nonzero_gens)
    if max_degree < 0:
        raise StructuralError("grade search bound must be >= 0")
    unit = is_unit_ideal(I, budget)
    computer = ext_computer(I, shared)
    profile = []
    value = None
    notes = ()
    for i in range(max_degree + 1):
        vanished = computer.ext_is_zero(i, budget)
        profile.append(vanished)
        if not vanished:
            value = GradeValue.finite(i)
            break
    if unit:
        if value is not None:
            raise InternalError("internal: nonvanishing Ext for the unit ideal")
        value = GradeValue.infinite()
        notes = (UNIT_IDEAL_NOTE,)
    elif value is None:
        value = GradeValue.undetermined(max_degree)
        notes = (f"Ext vanishes through degree {max_degree}; grade exceeds the bound",)
    if with_koszul is None:
        with_koszul = ring.domain.is_field
    cross = None
    if with_koszul and nonzero_gens and not value.is_undetermined:
        cross = koszul_grade(I, nonzero_gens, budget, shared)
        if cross != value:
            raise InternalError(
                f"internal: Koszul grade {cross} disagrees with Ext grade {value}")
    return GradeReport(I, value, tuple(profile), cross, notes)


def is_semiregular(I: IdealPresentation, budget: Budget = None,
                   shared: dict = None) -> bool:
    """Hom(R/I, R) = 0, decided through the annihilator (kept in `shared`
    for the Ext^0 cross-check of a later command on I)."""
    return ext_computer(I, shared).annihilator_is_zero(budget)


def is_gv(J: IdealPresentation, budget: Budget = None, shared: dict = None) -> bool:
    """Hom(R/J, R) = Ext^1(R/J, R) = 0."""
    return all(ext_vanishing_profile(J, 1, budget, shared))


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

    def __str__(self):
        if self.verdict == COUNTEREXAMPLE:
            return (f"COUNTEREXAMPLE: proper ideal with Ext^0..Ext^{self.bound} "
                    f"all zero (dimension bound {self.bound} fails)")
        if self.first_nonvanishing is not None:
            return f"PASS: Ext^{self.first_nonvanishing} is nonzero"
        return "PASS: unit ideal (certificate attached)"


def fpd_criterion_check(I: IdealPresentation, n: int, budget: Budget = None,
                        shared: dict = None) -> CriterionResult:
    """Test I against the bound fPD(R) <= n.

    PASS when some Ext^i(R/I, R) with i <= n is nonzero, or when I = R
    (with a verified cofactor certificate); otherwise I is a proper ideal
    with a fully vanishing profile and witnesses fPD(R) > n.
    """
    budget = ensure_budget(budget)
    if n < 0:
        raise StructuralError("criterion bound must be >= 0")
    profile = ext_vanishing_profile(I, n, budget, shared)
    if not all(profile):
        first = min(i for i, z in enumerate(profile) if not z)
        return CriterionResult(I, n, PASS, profile, first_nonvanishing=first)
    unit = is_unit_ideal(I, budget)
    if unit:
        return CriterionResult(I, n, PASS, profile, unit_cofactors=unit.cofactors)
    return CriterionResult(I, n, COUNTEREXAMPLE, profile)


LOWER_BOUND = "LOWER_BOUND"
EXACT = "EXACT"


@dataclass(frozen=True)
class FpdReport:
    """sup of grades over a supplied list of maximal ideals.

    The supremum over all of Max(R) is never claimed by the artifact itself:
    the conclusion is EXACT only when the caller asserts the list exhausts
    the maximal ideals relevant to the question.
    """

    ring: RingPresentation
    maximal_ideals: tuple
    grades: tuple  # GradeReport per ideal
    bound: int
    exhaustive: bool
    conclusion: str
    notes: tuple = ()

    def __str__(self):
        rel = "=" if self.conclusion == EXACT else ">="
        return f"fPD(R) {rel} {self.bound} over {len(self.maximal_ideals)} maximal ideal(s)"


def fpd_bound(R: RingPresentation, max_ideals: Sequence, exhaustive: bool = False,
              max_degree: Optional[int] = None, budget: Budget = None,
              shared: dict = None) -> FpdReport:
    """max of grade(m, R) over the listed ideals (claimed maximal by the caller)."""
    budget = ensure_budget(budget)
    ideals = tuple(max_ideals)
    if not ideals:
        raise StructuralError("at least one maximal ideal is required")
    reports = []
    contributions = []
    notes = []
    determined = True
    for m in ideals:
        if m.ring != R:
            raise StructuralError("listed ideal lives in a different ring")
        rep = grade(m, max_degree=max_degree, budget=budget, shared=shared)
        reports.append(rep)
        if rep.value.is_infinite:
            raise StructuralError("the unit ideal was listed as a maximal ideal")
        if rep.value.is_undetermined:
            determined = False
            notes.append(f"grade of {m} undetermined beyond {rep.value.bound}")
        contributions.append(rep.value.lower_bound())
    bound = max(contributions)
    conclusion = EXACT if exhaustive and determined else LOWER_BOUND
    if exhaustive and not determined:
        notes.append("exhaustive flag set but a grade stayed undetermined")
    return FpdReport(R, ideals, tuple(reports), bound, exhaustive, conclusion,
                     tuple(notes))


def irrelevant_ideal(R: RingPresentation) -> IdealPresentation:
    """The ideal generated by all the variables."""
    return IdealPresentation(R, R.ambient.gens())


def _require_graded_local(R: RingPresentation, budget: Budget):
    if not R.domain.is_field:
        raise UnsupportedDomainError("graded-local analysis needs field coefficients")
    if not R.has_homogeneous_relations():
        raise UnsupportedInputError("relations must be homogeneous")
    if R.is_zero_ring(budget):
        raise StructuralError("the zero ring is not graded-local")


@dataclass(frozen=True)
class CohenMacaulayReport:
    ring: RingPresentation
    is_cm: bool
    depth: int
    dimension: int
    finitistic_identity: Optional[str] = None

    def __str__(self):
        verdict = "Cohen-Macaulay" if self.is_cm else "not Cohen-Macaulay"
        tail = f"; {self.finitistic_identity}" if self.finitistic_identity else ""
        return f"{verdict}: depth {self.depth}, dim {self.dimension}{tail}"


def is_cohen_macaulay_graded(R: RingPresentation, budget: Budget = None,
                             shared: dict = None) -> CohenMacaulayReport:
    """depth = dim test at the irrelevant maximal ideal of a graded-local ring.

    When the ring is Cohen-Macaulay the report records that both finitistic
    dimensions coincide with the Krull dimension.
    """
    budget = ensure_budget(budget)
    _require_graded_local(R, budget)
    rep = grade(irrelevant_ideal(R), budget=budget, shared=shared)
    if not rep.value.is_finite:
        raise InternalError("internal: depth of a graded-local ring must be finite")
    depth = rep.value.value
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

    def __str__(self):
        parts = [f"DQ: {self.is_dq}", f"DW: {self.is_dw}", f"depth {self.depth}"]
        if self.gv_witness is not None:
            parts.append(f"GV witness {self.gv_witness}")
        return ", ".join(parts)


def dq_dw_local(R: RingPresentation, budget: Budget = None, shared: dict = None) -> DqDwReport:
    """DQ (depth 0) and DW (depth <= 1) for a graded-local ring; when the
    ring is not DW, the irrelevant ideal is returned as a verified proper
    GV-ideal witness."""
    budget = ensure_budget(budget)
    _require_graded_local(R, budget)
    m = irrelevant_ideal(R)
    rep = grade(m, budget=budget, shared=shared)
    if not rep.value.is_finite:
        raise InternalError("internal: depth of a graded-local ring must be finite")
    depth = rep.value.value
    witness = None
    if depth >= 2:
        if not is_gv(m, budget, shared):
            raise InternalError("internal: depth >= 2 but the irrelevant ideal "
                                "is not a GV-ideal")
        witness = m
    return DqDwReport(R, depth == 0, depth <= 1, depth, witness)
