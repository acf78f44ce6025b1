"""Shared exception types and the step/deadline budget used by the engines."""
from __future__ import annotations

import time


class StructuralError(ValueError):
    """Mismatched or malformed algebraic input (wrong ring, rank, length...)."""


class UnsupportedDomainError(StructuralError):
    """Operation not available over the given coefficient domain."""


class UnsupportedInputError(StructuralError):
    """Input outside the decidable fragment (e.g. non-homogeneous relations)."""


class CapExceededError(StructuralError):
    """A finite-ring size or enumeration cap, or the Groebner engine's
    exponent cap, was exceeded."""


class ParseError(ValueError):
    """Script or expression error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class InternalError(RuntimeError):
    """A broken internal invariant or a failed cross-check: a defect in the
    library, never a fault of the input."""


class ResourceBudgetExceeded(RuntimeError):
    """A computation ran past its step budget or deadline.

    Carries the partial state size so callers can report how far it got.
    """

    def __init__(self, message: str, steps: int, basis_size: int | None = None,
                 pending_pairs: int | None = None):
        detail = f"{message} after {steps} steps"
        if basis_size is not None:
            detail += f" (basis size {basis_size}, pending pairs {pending_pairs or 0})"
        super().__init__(detail)
        self.reason = message
        self.steps = steps
        self.basis_size = basis_size
        self.pending_pairs = pending_pairs


DEFAULT_MAX_STEPS = 50_000_000

# Wall-clock deadline checks are amortized over this many ticks.
_DEADLINE_STRIDE = 1024


class Budget:
    """Step and deadline accounting for one logical computation.

    A Budget is handed through every engine call of a computation so that
    nested Groebner runs share a single limit.  It is, with a ring's
    `derived` store, a deliberately mutable object of the library; do not
    share an instance between concurrent computations.
    """

    __slots__ = ("max_steps", "deadline_at", "steps", "_stride_left")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS,
                 deadline_seconds: float | None = None):
        self.max_steps = max_steps
        self.deadline_at = (time.monotonic() + deadline_seconds
                            if deadline_seconds is not None else None)
        self.steps = 0
        self._stride_left = _DEADLINE_STRIDE

    def tick(self, n: int = 1, basis_size: int | None = None,
             pending_pairs: int | None = None) -> None:
        self.steps += n
        if self.steps > self.max_steps:
            raise ResourceBudgetExceeded("step budget exhausted", self.steps,
                                         basis_size, pending_pairs)
        # coarse-grained ticks (those reporting state) always check the clock;
        # fine-grained ones only every stride
        self._stride_left -= 1
        if self._stride_left <= 0 or basis_size is not None:
            self._stride_left = _DEADLINE_STRIDE
            if self.deadline_at is not None and time.monotonic() > self.deadline_at:
                raise ResourceBudgetExceeded("deadline exceeded", self.steps,
                                             basis_size, pending_pairs)

    def tick_coarse(self) -> None:
        """One step of coarse work, such as a table chunk: it reads the clock."""
        self._stride_left = 1
        self.tick()


def ensure_budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()
