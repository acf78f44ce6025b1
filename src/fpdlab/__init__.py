"""fpdlab: grade, Ext-vanishing profiles, Koszul complexes and finitistic
dimension bounds for finitely presented commutative rings, with exact
Groebner kernels over QQ, FF(p) and ZZ and a brute-force finite-ring oracle.
"""
from .errors import (Budget, CapExceededError, InternalError, ParseError,
                     ResourceBudgetExceeded, StructuralError,
                     UnsupportedDomainError, UnsupportedInputError)
from .rings import (GREVLEX, LEX, CoefficientDomain, IdealPresentation,
                    MonomialOrder, Polynomial, PolynomialRing,
                    RingPresentation, block_order)
from .groebner import (annihilator, is_unit_ideal, krull_dimension,
                       normal_form_polys)
from .modules import FreeModuleMap, is_zero_subquotient, kernel
from .complexes import ChainComplex, ExtComputer, ext_vanishing_profile
from .koszul import DualKoszulCokernel, dual_koszul_cokernel, koszul_grade
from .invariants import (CohenMacaulayReport, CriterionResult, DqDwReport,
                         FpdReport, GradeReport, dq_dw_local, fpd_bound,
                         fpd_criterion_check, grade, is_cohen_macaulay_graded,
                         is_gv, is_semiregular)
from .values import GradeValue
from .finite_rings import FiniteRing, brute_is_dq, brute_is_dw, enumerate_ideals
from .script import SessionScript, parse

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
