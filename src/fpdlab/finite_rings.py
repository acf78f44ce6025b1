"""Explicit finite commutative rings with full operation tables, and the
brute-force checks used as an independent oracle: annihilators, Hom and
Ext^1 vanishing by exhaustive enumeration, and the DQ/DW ring properties.

Nothing here shares code with the Groebner path; everything is table
arithmetic, which is the point of the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import CapExceededError, InternalError, StructuralError

DEFAULT_BUILD_CAP = 4096
DEFAULT_IDEAL_CAP = 4096
DEFAULT_EXT_CAP = 256
_AXIOM_FULL_CHECK_MAX = 256
_HOM_ENUMERATION_MAX = 2_000_000


class FiniteRing:
    """Indexed elements with full addition and multiplication tables.

    The ring axioms are verified exhaustively at construction for orders up
    to 256 (identities and commutativity always); use the named constructors
    `integers_mod` and `quotient`.
    """

    def __init__(self, elements: Sequence, add: Sequence, mul: Sequence,
                 zero: int, one: int, provenance: str,
                 element_coeffs: Optional[tuple] = None):
        self.order = len(elements)
        self.labels = tuple(str(e) for e in elements)
        self.add = tuple(tuple(row) for row in add)
        self.mul = tuple(tuple(row) for row in mul)
        self.zero = zero
        self.one = one
        self.provenance = provenance
        self.element_coeffs = element_coeffs
        _verify_tables(self)
        self.neg = tuple(self.add[a].index(self.zero) for a in range(self.order))

    @staticmethod
    def integers_mod(n: int, cap: int = DEFAULT_BUILD_CAP) -> "FiniteRing":
        if n < 2:
            raise StructuralError("modulus must be at least 2")
        if n > cap:
            raise CapExceededError(f"ring order {n} exceeds the cap {cap}")
        elems = list(range(n))
        add = [[(a + b) % n for b in elems] for a in elems]
        mul = [[(a * b) % n for b in elems] for a in elems]
        return FiniteRing(elems, add, mul, 0, 1 % n, f"ZZ/{n}",
                          element_coeffs=tuple((a,) for a in elems))

    @staticmethod
    def quotient(n: int, modulus_coeffs: Sequence, variable: str = "x",
                 cap: int = DEFAULT_BUILD_CAP) -> "FiniteRing":
        """ZZ/n[x]/(f) for a monic f given by little-endian coefficients."""
        if n < 2:
            raise StructuralError("modulus must be at least 2")
        coeffs = [c % n for c in modulus_coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise StructuralError("the quotient by a constant is not a finite "
                                  "ring extension; give a monic relation of "
                                  "degree at least 1")
        if coeffs[-1] != 1:
            raise StructuralError("the relation must be monic for a finite quotient")
        d = len(coeffs) - 1
        size = n ** d
        if size > cap:
            raise CapExceededError(f"ring order {size} exceeds the cap {cap}")
        # element i has the little-endian base-n digits of i as coefficients
        elems = []
        for i in range(size):
            digits = []
            v = i
            for _ in range(d):
                digits.append(v % n)
                v //= n
            elems.append(tuple(digits))
        index = {t: i for i, t in enumerate(elems)}
        reducer = [(-c) % n for c in coeffs[:-1]]  # x^d = sum reducer[i] x^i

        def poly_mul(u, v):
            prod_c = [0] * (2 * d - 1)
            for i, ci in enumerate(u):
                if ci:
                    for j, cj in enumerate(v):
                        prod_c[i + j] = (prod_c[i + j] + ci * cj) % n
            for k in range(2 * d - 2, d - 1, -1):
                c = prod_c[k]
                if c:
                    prod_c[k] = 0
                    for i, r in enumerate(reducer):
                        prod_c[k - d + i] = (prod_c[k - d + i] + c * r) % n
            return tuple(prod_c[:d])

        add = [[index[tuple((a + b) % n for a, b in zip(u, v))] for v in elems]
               for u in elems]
        mul = [[index[poly_mul(u, v)] for v in elems] for u in elems]
        zero = index[(0,) * d]
        one = index[(1 % n,) + (0,) * (d - 1)]

        def label(t):
            parts = []
            for i, c in enumerate(t):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                else:
                    power = variable if i == 1 else f"{variable}^{i}"
                    parts.append(power if c == 1 else f"{c}{power}")
            return " + ".join(parts) if parts else "0"

        poly_str = label(tuple(coeffs[:-1])) if any(coeffs[:-1]) else ""
        head = variable if d == 1 else f"{variable}^{d}"
        provenance = f"ZZ/{n}[{variable}]/({head}{' + ' + poly_str if poly_str else ''})"
        return FiniteRing([label(t) for t in elems], add, mul, zero, one,
                          provenance, element_coeffs=tuple(elems))

    def add_elem(self, a: int, b: int) -> int:
        return self.add[a][b]

    def mul_elem(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def __str__(self):
        return f"{self.provenance} ({self.order} elements)"


def _verify_tables(R: FiniteRing):
    import numpy as np
    n = R.order
    A = np.array(R.add, dtype=np.int32)
    M = np.array(R.mul, dtype=np.int32)
    if A.shape != (n, n) or M.shape != (n, n):
        raise StructuralError("operation tables must be square of the ring order")
    for T, name in ((A, "addition"), (M, "multiplication")):
        if T.min() < 0 or T.max() >= n:
            raise StructuralError(f"{name} table contains an out-of-range index")
        if not np.array_equal(T, T.T):
            raise StructuralError(f"{name} is not commutative")
    if not np.array_equal(A[R.zero], np.arange(n)):
        raise StructuralError("zero is not an additive identity")
    if not np.array_equal(M[R.one], np.arange(n)):
        raise StructuralError("one is not a multiplicative identity")
    if not np.all(M[R.zero] == R.zero):
        raise StructuralError("zero does not annihilate the ring")
    if not np.all(np.sort(A, axis=1) == np.arange(n)):
        raise StructuralError("addition rows are not permutations (no group structure)")
    if n <= _AXIOM_FULL_CHECK_MAX:
        if not np.array_equal(A[A, :], A[:, A]):
            raise StructuralError("addition is not associative")
        if not np.array_equal(M[M, :], M[:, M]):
            raise StructuralError("multiplication is not associative")
        lhs = M[:, A]
        rhs = A[M[:, :, None], M[:, None, :]]
        if not np.array_equal(lhs, rhs):
            raise StructuralError("multiplication does not distribute over addition")


def build_finite_ring(n: int, modulus_coeffs: Optional[Sequence] = None,
                      variable: str = "x", cap: int = DEFAULT_BUILD_CAP) -> FiniteRing:
    if modulus_coeffs is None:
        return FiniteRing.integers_mod(n, cap)
    return FiniteRing.quotient(n, modulus_coeffs, variable, cap)


# ---------------------------------------------------------------------------
# Ideal enumeration

def principal_ideal(R: FiniteRing, a: int) -> frozenset:
    """R*a = {r*a}: already closed under + and ring multiplication."""
    return frozenset(R.mul[r][a] for r in range(R.order))


def _ideal_sum(R: FiniteRing, I: frozenset, P: frozenset) -> frozenset:
    return frozenset(R.add[i][p] for i in I for p in P)


def ideal_closure(R: FiniteRing, seeds) -> frozenset:
    """Smallest ideal containing the seeds: the sum of their principal ideals."""
    current = frozenset({R.zero})
    for s in seeds:
        current = _ideal_sum(R, current, principal_ideal(R, s))
    return current


def enumerate_ideals(R: FiniteRing, cap: int = DEFAULT_IDEAL_CAP) -> list:
    """All ideals of R as frozensets, smallest first (deterministic order).

    Every ideal is a sum of principal ideals, so a breadth-first sweep over
    the distinct principal ideals reaches all of them.
    """
    if R.order > cap:
        raise CapExceededError(f"ideal enumeration capped at order {cap}")
    principals = []
    seen = set()
    for a in range(R.order):
        P = principal_ideal(R, a)
        if P not in seen:
            seen.add(P)
            principals.append(P)
    found = {frozenset({R.zero})}
    queue = [frozenset({R.zero})]
    while queue:
        I = queue.pop()
        for P in principals:
            if P <= I:
                continue
            J = _ideal_sum(R, I, P)
            if J not in found:
                found.add(J)
                queue.append(J)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def minimal_generators(R: FiniteRing, ideal: frozenset) -> list:
    """A small (greedy, deterministic) generating set for an enumerated ideal."""
    gens = []
    closure = frozenset({R.zero})
    for a in sorted(ideal):
        if a not in closure:
            gens.append(a)
            closure = _ideal_sum(R, closure, principal_ideal(R, a))
            if closure == ideal:
                break
    if closure != ideal:
        raise InternalError("internal: greedy generation failed on an ideal")
    return gens


# ---------------------------------------------------------------------------
# Brute-force Hom / Ext^1 and the DQ/DW checks

def annihilator_set(R: FiniteRing, subset) -> frozenset:
    out = []
    for r in range(R.order):
        row = R.mul[r]
        if all(row[a] == R.zero for a in subset):
            out.append(r)
    return frozenset(out)


def brute_hom_vanishes(R: FiniteRing, ideal) -> bool:
    """Hom(R/I, R) = 0, i.e. Ann(I) = 0, by enumeration."""
    return annihilator_set(R, ideal) == frozenset({R.zero})


def brute_ext1_vanishes(R: FiniteRing, ideal, gens: Optional[Sequence] = None,
                        size_cap: int = DEFAULT_EXT_CAP) -> bool:
    """Ext^1(R/J, R) = 0 from the presentation R^k -> R -> R/J -> 0.

    Enumerates Hom(R^k, R) = R^k, the syzygy set {v : sum v_i g_i = 0}
    exhaustively, and the maps factoring through Hom(R, R).
    """
    if R.order > size_cap:
        raise CapExceededError(f"Ext^1 enumeration capped at order {size_cap}")
    if gens is None:
        gens = minimal_generators(R, ideal)
    k = len(gens)
    if k == 0:
        return True  # the zero ideal presents R/0 = R with no relations
    if R.order ** k > _HOM_ENUMERATION_MAX:
        raise CapExceededError(
            f"Ext^1 enumeration needs {R.order}^{k} homomorphisms")
    n = R.order
    syzygies = []
    for v in product(range(n), repeat=k):
        acc = R.zero
        for vi, gi in zip(v, gens):
            acc = R.add[acc][R.mul[vi][gi]]
        if acc == R.zero:
            syzygies.append(v)
    inner = {tuple(R.mul[r][g] for g in gens) for r in range(n)}
    for phi in product(range(n), repeat=k):
        ok = True
        for v in syzygies:
            acc = R.zero
            for pi, vi in zip(phi, v):
                acc = R.add[acc][R.mul[pi][vi]]
            if acc != R.zero:
                ok = False
                break
        if ok and phi not in inner:
            return False
    return True


def brute_is_gv(R: FiniteRing, ideal, size_cap: int = DEFAULT_EXT_CAP) -> bool:
    return brute_hom_vanishes(R, ideal) and brute_ext1_vanishes(R, ideal,
                                                                size_cap=size_cap)


@dataclass(frozen=True)
class BruteCheck:
    holds: bool
    witness: Optional[frozenset] = None

    def __bool__(self):
        return self.holds


def brute_is_dq(R: FiniteRing, ideal_cap: int = DEFAULT_IDEAL_CAP) -> BruteCheck:
    """Every proper ideal has a nonzero annihilator (no semi-regular proper
    ideal); the witness is a violating ideal when the check fails."""
    full = frozenset(range(R.order))
    for I in enumerate_ideals(R, ideal_cap):
        if I == full:
            continue
        if brute_hom_vanishes(R, I):
            return BruteCheck(False, I)
    return BruteCheck(True)


def brute_is_dw(R: FiniteRing, ideal_cap: int = DEFAULT_IDEAL_CAP,
                size_cap: int = DEFAULT_EXT_CAP) -> BruteCheck:
    """The only GV-ideal is R itself, checked over every enumerated ideal."""
    full = frozenset(range(R.order))
    for I in enumerate_ideals(R, ideal_cap):
        if I == full:
            continue
        if brute_is_gv(R, I, size_cap):
            return BruteCheck(False, I)
    return BruteCheck(True)
