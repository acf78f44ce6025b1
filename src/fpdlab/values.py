"""The grade value type: a natural number, or INFINITE for the unit ideal."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

FINITE = "finite"
INFINITE_KIND = "infinite"


@dataclass(frozen=True)
class GradeValue:
    kind: str
    value: Optional[int] = None

    @staticmethod
    def finite(n: int) -> "GradeValue":
        return GradeValue(FINITE, value=n)

    @staticmethod
    def infinite() -> "GradeValue":
        return GradeValue(INFINITE_KIND)

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == INFINITE_KIND

    def __str__(self) -> str:
        return str(self.value) if self.kind == FINITE else "INFINITE"
