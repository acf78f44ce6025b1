"""Explicit finite commutative rings with full operation tables, and the
brute-force checks used as an independent oracle: annihilators, Hom and
Ext^1 vanishing by exhaustive enumeration, and the DQ/DW ring properties.

Nothing here shares code with the Groebner path; everything is table
arithmetic, which is the point of the oracle.  A ring keeps one numpy index
table per operation.  Tables are built and checked with numpy array
arithmetic, in row chunks that keep working memory small; numpy is imported
on first use, so importing the package stays cheap.

The builders, `enumerate_ideals` and the DQ/DW/Ext^1 checks take an optional
`Budget` last: one clock-reading step per table row chunk, ideal sum and
proper ideal tested, and one plain step per Ext^1 candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import (Budget, CapExceededError, InternalError, StructuralError,
                     ensure_budget)

DEFAULT_BUILD_CAP = 4096
DEFAULT_IDEAL_CAP = 4096
DEFAULT_EXT_CAP = 256
_AXIOM_FULL_CHECK_MAX = 256
_HOM_ENUMERATION_MAX = 2_000_000
_CHUNK_ENTRIES = 1 << 18   # entries of the working arrays of one row chunk


class FiniteRing:
    """Indexed elements with one addition and one multiplication table.

    `add` and `mul` are order x order numpy arrays of element indices, of the
    narrowest unsigned type (`uint8` up to 256 elements, `uint16` above);
    `add[a, b]` is the index of a + b.  The ring axioms are verified
    exhaustively at construction for orders up to 256 (identities and
    commutativity always); use the named constructors `integers_mod` and
    `quotient`.
    """

    def __init__(self, elements: Sequence, add: Sequence, mul: Sequence,
                 zero: int, one: int, provenance: str,
                 element_coeffs: Optional[tuple] = None,
                 budget: Optional[Budget] = None):
        self.order = len(elements)
        self.labels = tuple(str(e) for e in elements)
        self.add = _as_table(add, self.order, "addition")
        self.mul = _as_table(mul, self.order, "multiplication")
        if not (0 <= zero < self.order and 0 <= one < self.order):
            raise StructuralError(f"zero and one must be element indices in "
                                  f"range({self.order})")
        self.zero = zero
        self.one = one
        self.provenance = provenance
        self.element_coeffs = element_coeffs
        _verify_tables(self, ensure_budget(budget))
        self._ideals = None  # filled by the first `enumerate_ideals`

    @staticmethod
    def integers_mod(n: int, cap: int = DEFAULT_BUILD_CAP,
                     budget: Optional[Budget] = None) -> "FiniteRing":
        """ZZ/n, built as ZZ/n[x]/(x): the elements are 0..n-1."""
        return _quotient_ring(n, [0, 1], "x", cap, budget, f"ZZ/{n}")

    @staticmethod
    def quotient(n: int, modulus_coeffs: Sequence, variable: str = "x",
                 cap: int = DEFAULT_BUILD_CAP,
                 budget: Optional[Budget] = None) -> "FiniteRing":
        """ZZ/n[x]/(f) for a monic f given by little-endian coefficients."""
        return _quotient_ring(n, modulus_coeffs, variable, cap, budget)

    def __str__(self):
        return f"{self.provenance} ({self.order} elements)"


def _quotient_ring(n: int, modulus_coeffs: Sequence, variable: str, cap: int,
                   budget: Optional[Budget], provenance: Optional[str] = None):
    """ZZ/n[x]/(f), element i having the base-n digits of i as little-endian
    coefficients; the provenance defaults to the presentation."""
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
    budget = ensure_budget(budget)
    import numpy as np
    # element i has the little-endian base-n digits of i as coefficients
    weights = n ** np.arange(d, dtype=np.int64)
    digits = np.arange(size, dtype=np.int64)[:, None] // weights % n
    # x^d = sum reducer[i] x^i; only its nonzero terms are pushed down
    reducer = [(i, (-c) % n) for i, c in enumerate(coeffs[:-1]) if c]
    columns = digits.T.copy()  # columns[i][b]: coefficient of x^i in b

    def add_rows(start, stop):
        return (digits[start:stop, None, :] + digits) % n @ weights

    def mul_rows(start, stop):
        # prod[k][a, b]: the coefficient of x^k in a*b before reduction,
        # then x^k reduced from the top degree down (poly_mul on every
        # pair of the chunk at once; entries stay below 2 d n^2)
        prod = np.zeros((2 * d - 1, stop - start, size), dtype=np.int64)
        for i in range(d):
            prod[i:i + d] += digits[start:stop, i, None] * columns[:, None, :]
        for k in range(2 * d - 2, d - 1, -1):
            top = prod[k] % n
            for i, r in reducer:
                prod[k - d + i] += top * r
        return np.tensordot(weights, prod[:d] % n, axes=1)

    add = _build_table(size, size * d, add_rows, budget)
    mul = _build_table(size, size * (2 * d - 1), mul_rows, budget)
    elems = tuple(map(tuple, digits.tolist()))

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

    if provenance is None:
        tail = " + " + label(coeffs[:-1]) if any(coeffs[:-1]) else ""
        provenance = f"ZZ/{n}[{variable}]/({label([0] * d + [1])}{tail})"
    # index 0 has the digits of 0, index 1 those of 1
    return FiniteRing([label(t) for t in elems], add, mul, 0, 1,
                      provenance, elems, budget)


def _row_chunks(rows: int, per_row: int):
    """(start, stop) ranges covering range(rows) in order, each holding about
    _CHUNK_ENTRIES working entries at `per_row` entries per row."""
    width = max(1, _CHUNK_ENTRIES // max(per_row, 1))
    for start in range(0, rows, width):
        yield start, min(start + width, rows)


def _build_table(order: int, per_row: int, fill, budget: Budget):
    """An order x order index table of the narrowest unsigned type;
    fill(start, stop) gives those rows."""
    import numpy as np
    table = np.empty((order, order), dtype=np.min_scalar_type(order - 1))
    for start, stop in _row_chunks(order, per_row):
        budget.tick_coarse()
        table[start:stop] = fill(start, stop)
    return table


def _as_table(table, order: int, name: str):
    """A square table of element indices, as an array of the narrowest
    unsigned type that holds them."""
    import numpy as np
    try:
        T = np.asarray(table)
    except ValueError:  # ragged rows
        T = None
    if T is None or T.shape != (order, order):
        raise StructuralError("operation tables must be square of the ring order")
    if T.size and (T.dtype.kind not in "iu" or T.min() < 0 or T.max() >= order):
        raise StructuralError(f"{name} table contains an out-of-range index")
    return T.astype(np.min_scalar_type(order - 1), copy=False)


def _verify_tables(R: FiniteRing, budget: Budget):
    import numpy as np
    n = R.order
    A, M = R.add, R.mul
    for T, name in ((A, "addition"), (M, "multiplication")):
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
        # (ab)c = a(bc) and a(b+c) = ab + ac for every a in a row chunk, read
        # as two n x n slabs per row
        chunks = list(_row_chunks(n, n * n))
        for T, name in ((A, "addition"), (M, "multiplication")):
            T_index = T.astype(np.intp)
            for s, e in chunks:
                budget.tick_coarse()
                if not np.array_equal(np.take(T, T[s:e], axis=0),
                                      np.take(T[s:e], T_index, axis=1)):
                    raise StructuralError(f"{name} is not associative")
        A_index, A_flat = A.astype(np.intp), A.ravel()
        for s, e in chunks:
            budget.tick_coarse()
            Ms = M[s:e].astype(np.intp)
            if not np.array_equal(np.take(M[s:e], A_index, axis=1),
                                  np.take(A_flat, Ms[:, :, None] * n + Ms[:, None, :])):
                raise StructuralError("multiplication does not distribute over addition")


def build_finite_ring(n: int, modulus_coeffs: Optional[Sequence] = None,
                      variable: str = "x", cap: int = DEFAULT_BUILD_CAP,
                      budget: Optional[Budget] = None) -> FiniteRing:
    if modulus_coeffs is None:
        return FiniteRing.integers_mod(n, cap, budget)
    return FiniteRing.quotient(n, modulus_coeffs, variable, cap, budget)


# ---------------------------------------------------------------------------
# Ideal enumeration

def principal_ideal(R: FiniteRing, a: int) -> frozenset:
    """R*a = {r*a}: already closed under + and ring multiplication."""
    return frozenset(R.mul[a].tolist())  # row a, as multiplication commutes


def _ideal_sum(R: FiniteRing, I: frozenset, P: frozenset,
               budget: Budget) -> frozenset:
    budget.tick_coarse()
    import numpy as np
    i = np.fromiter(I, dtype=np.intp, count=len(I))
    p = np.fromiter(P, dtype=np.intp, count=len(P))
    return frozenset(np.unique(R.add[i[:, None], p]).tolist())


def ideal_closure(R: FiniteRing, seeds) -> frozenset:
    """Smallest ideal containing the seeds: the sum of their principal ideals."""
    current = frozenset({R.zero})
    for s in seeds:
        current = _ideal_sum(R, current, principal_ideal(R, s), Budget())
    return current


def enumerate_ideals(R: FiniteRing, cap: int = DEFAULT_IDEAL_CAP,
                     budget: Optional[Budget] = None) -> list:
    """All ideals of R as frozensets, smallest first (deterministic order).

    The ring keeps the list, so each ring enumerates its ideals once.
    """
    if R.order > cap:
        raise CapExceededError(f"ideal enumeration capped at order {cap}")
    if R._ideals is None:
        R._ideals = tuple(_all_ideals(R, ensure_budget(budget)))
    return list(R._ideals)


def _all_ideals(R: FiniteRing, budget: Budget) -> list:
    """Every ideal is a sum of principal ideals, so a breadth-first sweep over
    the distinct principal ideals reaches all of them."""
    principals = list(dict.fromkeys(principal_ideal(R, a) for a in range(R.order)))
    found = {frozenset({R.zero})}
    queue = [frozenset({R.zero})]
    while queue:
        I = queue.pop()
        for P in principals:
            if P <= I:
                continue
            J = _ideal_sum(R, I, P, budget)
            if J not in found:
                found.add(J)
                queue.append(J)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def minimal_generators(R: FiniteRing, ideal: frozenset,
                       budget: Optional[Budget] = None) -> list:
    """A small (greedy, deterministic) generating set for an enumerated ideal."""
    budget = ensure_budget(budget)
    gens = []
    closure = frozenset({R.zero})
    for a in sorted(ideal):
        if a not in closure:
            gens.append(a)
            closure = _ideal_sum(R, closure, principal_ideal(R, a), budget)
            if closure == ideal:
                break
    if closure != ideal:
        raise InternalError("internal: greedy generation failed on an ideal")
    return gens


# ---------------------------------------------------------------------------
# Brute-force Hom / Ext^1 and the DQ/DW checks

def annihilator_set(R: FiniteRing, subset) -> frozenset:
    """The elements r with r*a = 0 for every a in subset: one test over the
    columns of the multiplication table."""
    import numpy as np
    cols = np.fromiter(subset, dtype=np.intp)
    return frozenset(np.flatnonzero((R.mul[:, cols] == R.zero).all(axis=1)).tolist())


def brute_hom_vanishes(R: FiniteRing, ideal) -> bool:
    """Hom(R/I, R) = 0, i.e. Ann(I) = 0, by enumeration."""
    return annihilator_set(R, ideal) == frozenset({R.zero})


def brute_ext1_vanishes(R: FiniteRing, ideal, gens: Optional[Sequence] = None,
                        size_cap: int = DEFAULT_EXT_CAP,
                        budget: Optional[Budget] = None) -> bool:
    """Ext^1(R/J, R) = 0 from the presentation R^k -> R -> R/J -> 0.

    Enumerates Hom(R^k, R) = R^k, the syzygy set {v : sum v_i g_i = 0}
    exhaustively, and the maps factoring through Hom(R, R).
    """
    if R.order > size_cap:
        raise CapExceededError(f"Ext^1 enumeration capped at order {size_cap}")
    budget = ensure_budget(budget)
    if gens is None:
        gens = minimal_generators(R, ideal, budget)
    k = len(gens)
    if k == 0:
        return True  # the zero ideal presents R/0 = R with no relations
    if R.order ** k > _HOM_ENUMERATION_MAX:
        raise CapExceededError(
            f"Ext^1 enumeration needs {R.order}^{k} homomorphisms")
    n = R.order
    add, mul = R.add.tolist(), R.mul.tolist()  # scalar lookups, at most 256^2
    syzygies = []
    for v in product(range(n), repeat=k):
        budget.tick()
        acc = R.zero
        for vi, gi in zip(v, gens):
            acc = add[acc][mul[vi][gi]]
        if acc == R.zero:
            syzygies.append(v)
    inner = {tuple(mul[r][g] for g in gens) for r in range(n)}
    for phi in product(range(n), repeat=k):
        budget.tick()
        ok = True
        for v in syzygies:
            acc = R.zero
            for pi, vi in zip(phi, v):
                acc = add[acc][mul[pi][vi]]
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


def brute_is_dq(R: FiniteRing, ideal_cap: int = DEFAULT_IDEAL_CAP,
                budget: Optional[Budget] = None) -> BruteCheck:
    """Every proper ideal has a nonzero annihilator (no semi-regular proper
    ideal); the witness is a violating ideal when the check fails."""
    return _first_proper_ideal(R, ideal_cap, None, budget)


def brute_is_dw(R: FiniteRing, ideal_cap: int = DEFAULT_IDEAL_CAP,
                size_cap: int = DEFAULT_EXT_CAP,
                budget: Optional[Budget] = None) -> BruteCheck:
    """The only GV-ideal is R itself, checked over every enumerated ideal."""
    return _first_proper_ideal(R, ideal_cap, size_cap, budget)


def _first_proper_ideal(R: FiniteRing, ideal_cap: int, ext_cap: Optional[int],
                        budget: Optional[Budget]) -> BruteCheck:
    """The first proper ideal, smallest first, with Ann(I) = 0 and, unless
    ext_cap is None (DQ), Ext^1(R/I, R) = 0 (DW) is the witness."""
    budget = ensure_budget(budget)
    full = frozenset(range(R.order))
    for I in enumerate_ideals(R, ideal_cap, budget):
        if I == full:
            continue
        budget.tick_coarse()
        if brute_hom_vanishes(R, I) and (ext_cap is None or brute_ext1_vanishes(
                R, I, size_cap=ext_cap, budget=budget)):
            return BruteCheck(False, I)
    return BruteCheck(True)
