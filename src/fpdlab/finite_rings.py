"""Explicit finite commutative rings with full operation tables, and the
brute-force checks used as an independent oracle: annihilators, Hom and
Ext^1 vanishing by exhaustive enumeration, and the DQ/DW ring properties.

Nothing here shares code with the Groebner path; everything is table
arithmetic, which is the point of the oracle.  A ring keeps one numpy index
table per operation, built and checked in row chunks that keep working
memory small; numpy is imported on first use, so importing the package
stays cheap.  Both operations are additive in each argument, so the rows of
a quotient ring's tables are gathered from earlier rows, and the sums of an
ideal with many principal ideals come out of one batch over its cosets.

The builders, `enumerate_ideals` and the DQ/DW/Ext^1 checks take an optional
`Budget` last: one clock-reading step per table row chunk (building,
verifying, and reading off the principal ideals), per reachability search,
ideal sum (a batch takes its sums' steps before its work) and proper ideal
tested, and one plain step per Ext^1 candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import (Budget, CapExceededError, InternalError, StructuralError,
                     ensure_budget)

DEFAULT_BUILD_CAP = 4096
DEFAULT_EXT_CAP = 256
_HOM_ENUMERATION_MAX = 2_000_000
_CHUNK_ENTRIES = 1 << 16   # entries of the working arrays of one row chunk


class FiniteRing:
    """Indexed elements with one addition and one multiplication table.

    `add` and `mul` are order x order numpy arrays of element indices, of the
    narrowest unsigned type (`uint8` up to 256 elements, `uint16` above);
    `add[a, b]` is the index of a + b.  Every ring axiom is proven at
    construction, at every order, from additive generators: the unit digit
    vectors of `element_coeffs` when given, else every element (see
    `_verify_tables`).  Use the named constructors `integers_mod` and
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
    def integers_mod(n: int, budget: Optional[Budget] = None) -> "FiniteRing":
        """ZZ/n, built as ZZ/n[x]/(x): the elements are 0..n-1."""
        return _quotient_ring(n, {1: 1}, "x", budget, f"ZZ/{n}")

    @staticmethod
    def quotient(n: int, modulus_coeffs: Sequence | dict, variable: str = "x",
                 budget: Optional[Budget] = None) -> "FiniteRing":
        """ZZ/n[x]/(f) for a monic f given by little-endian coefficients, as
        a sequence or as a dict from exponents to coefficients."""
        if not isinstance(modulus_coeffs, dict):
            modulus_coeffs = dict(enumerate(modulus_coeffs))
        return _quotient_ring(n, modulus_coeffs, variable, budget)

    def __str__(self):
        return f"{self.provenance} ({self.order} elements)"


def _quotient_ring(n: int, modulus_coeffs: dict, variable: str,
                   budget: Optional[Budget], provenance: Optional[str] = None):
    """ZZ/n[x]/(f) for f given by {exponent: coefficient}, element i having
    the base-n digits of i as little-endian coefficients; the provenance
    defaults to the presentation."""
    if n < 2:
        raise StructuralError("modulus must be at least 2")
    terms = {i: c % n for i, c in modulus_coeffs.items() if c % n}
    d = max(terms, default=0)
    if d == 0:
        raise StructuralError("the quotient by a constant is not a finite "
                              "ring extension; give a monic relation of "
                              "degree at least 1")
    if terms[d] != 1:
        raise StructuralError("the relation must be monic for a finite quotient")
    # n^d has at most d * n.bit_length() bits; it is formed and printed only
    # when that bound is small, and above it (n >= 2) it exceeds the cap, so
    # a huge relation is refused before anything of size d or n^d is made
    size = n ** d if d * n.bit_length() <= 64 else None
    if size is None or size > DEFAULT_BUILD_CAP:
        raise CapExceededError(f"ring order {size or f'{n}^{d}'} exceeds the "
                               f"cap {DEFAULT_BUILD_CAP}")
    coeffs = [terms.get(i, 0) for i in range(d + 1)]
    budget = ensure_budget(budget)
    import numpy as np
    # element i has the little-endian base-n digits of i as coefficients
    weights = n ** np.arange(d, dtype=np.int64)
    digits = np.arange(size, dtype=np.int64)[:, None] // weights % n
    # x*b: the digits of b move up one place, and the top one comes back
    # down through x^d = -(coeffs[0] + ... + coeffs[d-1] x^(d-1))
    times_x = (np.roll(digits, 1, axis=1) * (np.arange(d) > 0)
               - np.outer(digits[:, -1], coeffs[:-1])) % n @ weights

    def translate(c, k):
        # b -> c*x^k + b: digit k of each b moves by c
        return np.arange(size) + ((digits[:, k] + c) % n - digits[:, k]) * n ** k

    def table(per_row, small, scaled, combine):
        # rows below n are small(lo, hi), row c*n^k (k >= 1) is
        # scaled(T, c, k), and row c*n^k + a' (a' < n^k) is combine(row a',
        # row c*n^k): both operations are additive in their first argument
        T = np.empty((size, size), dtype=np.min_scalar_type(size - 1))
        for start, stop in _row_chunks(size, per_row):
            budget.tick_coarse()
            if start < n:
                T[start:min(stop, n)] = small(start, min(stop, n))
                start = min(stop, n)
            while start < stop:
                k = int(np.flatnonzero(digits[start])[-1])
                base = start - start % n ** k
                if start == base:
                    T[base] = scaled(T, base // n ** k, k)
                end = min(stop, base + n ** k)
                T[start:end] = combine(T[start - base:end - base], T[base])
                start = end
        return T

    # rows below n scale or translate each digit; row c*x^k of mul is c
    # times row x^k, and row x^k is row x^(k-1) after x; the row chunks are
    # those of d and 2d - 1 working digits per entry
    add = table(size * d, lambda lo, hi: translate(np.arange(lo, hi)[:, None], 0),
                lambda T, c, k: translate(c, k),
                lambda rows, base: np.take(rows, base, axis=1))
    mul = table(size * (2 * d - 1),
                lambda lo, hi: np.arange(lo, hi)[:, None, None] * digits % n @ weights,
                lambda T, c, k: T[c, T[n ** k]] if c > 1 else T[n ** (k - 1), times_x],
                lambda rows, base: add[rows, base])
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
    """Prove the ring axioms from a set G of additive generators.

    Beside commutativity, both identities, 0*a = 0 and the permutation rows
    of addition, four checks are run:
      (R) every element is reached from 0 by adding generators;
      (A) (a + b) + g = a + (b + g) and
      (D) a(b + g) = ab + ag, for all a, b and every g in G;
      (M) (gh)k = g(hk) for all g, h, k in G.
    Write c = c' + g with c' reached before c.  Induction on the order of
    reaching turns (A) into (a + b) + c = a + (b + c), so the rows make an
    abelian group, and (D) with 0*a = 0 into a(b + c) = ab + ac, so with
    commutativity multiplication is biadditive.  Its associativity is then
    trilinear in the sums of generators, which (M) settles.

    G is the unit digit vectors x^i of `element_coeffs` when the ring has
    them, and every element otherwise; then (A), (D) and (M) are the full
    n x n x n associativity and distributivity checks.
    """
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
    G = np.arange(n) if R.element_coeffs is None else np.array(
        [i for i, c in enumerate(R.element_coeffs)
         if c.count(0) == len(c) - 1 and 1 in c], dtype=np.intp)
    AG, MG = A[:, G], M[:, G]
    budget.tick_coarse()
    if not _reaches_every_element(AG, R.zero):
        raise StructuralError("the additive generators do not reach every element")
    if not _associative_on(A, np.arange(n), G, budget):
        raise StructuralError("addition is not associative")
    for s, e in _row_chunks(n, n * len(G)):
        budget.tick_coarse()
        # a(b + g) against ab + ag = (ag) + (ab), indexed [a, g, b]
        if not np.array_equal(np.take(M[s:e], AG.T, axis=1),
                              np.take_along_axis(A[MG[s:e]], M[s:e, None, :], axis=2)):
            raise StructuralError("multiplication does not distribute over addition")
    if not _associative_on(M, G, G, budget):
        raise StructuralError("multiplication is not associative")


def _reaches_every_element(steps, zero: int) -> bool:
    """Breadth-first from `zero`, where steps[a] lists the elements a + g."""
    reached = [False] * len(steps)
    reached[zero] = True
    queue = [zero]
    for a in queue:
        for b in steps[a].tolist():
            if not reached[b]:
                reached[b] = True
                queue.append(b)
    return len(queue) == len(steps)


def _associative_on(T, X, G, budget: Budget) -> bool:
    """(xy)g = x(yg) in table T for all x, y in X and g in G, compared on
    row chunks of x."""
    import numpy as np
    TG = T[:, G]
    YG = TG[X]  # y g for y in X
    for s, e in _row_chunks(len(X), len(X) * len(G)):
        budget.tick_coarse()
        rows = T[X[s:e]]
        if not np.array_equal(TG[rows[:, X]], np.take(rows, YG, axis=1)):
            return False
    return True


# ---------------------------------------------------------------------------
# Ideal enumeration

def _ideal_sum(R: FiniteRing, I: frozenset, P: frozenset,
               budget: Budget) -> frozenset:
    budget.tick_coarse()
    import numpy as np
    i = np.fromiter(I, dtype=np.intp, count=len(I))
    p = np.fromiter(P, dtype=np.intp, count=len(P))
    mask = np.zeros(R.order, dtype=bool)
    mask[R.add[i[:, None], p]] = True
    return frozenset(np.flatnonzero(mask).tolist())


def ideal_closure(R: FiniteRing, seeds) -> frozenset:
    """Smallest ideal containing the seeds: the sum of their principal ideals."""
    current = frozenset({R.zero})
    for s in seeds:
        current = _ideal_sum(R, current, frozenset(R.mul[s].tolist()), Budget())
    return current


def enumerate_ideals(R: FiniteRing, budget: Optional[Budget] = None) -> list:
    """All ideals of R as frozensets, smallest first (deterministic order).

    The ring keeps the list, so each ring enumerates its ideals once.
    """
    if R._ideals is None:
        R._ideals = tuple(_all_ideals(R, ensure_budget(budget)))
    return list(R._ideals)


def _all_ideals(R: FiniteRing, budget: Budget) -> list:
    """Every ideal is a sum of principal ideals, so a breadth-first sweep over
    the distinct principal ideals, as boolean rows, reaches all of them.
    I + P is the union of the cosets of I that meet P: with each coset of I
    labelled by its least element, one hit matrix gives many sums at once."""
    import numpy as np
    n = R.order
    rows = {}
    for s, e in _row_chunks(n, n):
        budget.tick_coarse()
        member = np.zeros((e - s, n), dtype=bool)
        member[np.arange(e - s)[:, None], R.mul[s:e]] = True
        rows.update((row.tobytes(), row) for row in member)
    principals = np.array(list(rows.values()))
    zero = np.arange(n) == R.zero
    found, queue = {zero.tobytes(): zero}, [zero]
    while queue:
        I = queue.pop()
        outside = principals[principals @ ~I]
        for _ in outside:
            budget.tick_coarse()
        members = np.flatnonzero(I)
        labels = np.arange(n, dtype=R.add.dtype)
        for s, e in _row_chunks(len(members), n):
            np.minimum(labels, R.add[members[s:e]].min(axis=0), out=labels)
        for s, e in _row_chunks(len(outside), n):
            hit = np.zeros((e - s, n), dtype=bool)
            which, y = np.nonzero(outside[s:e])
            hit[which, labels[y]] = True
            for J in hit[:, labels]:
                if found.setdefault(J.tobytes(), J) is J:
                    queue.append(J)
    ideals = (frozenset(np.flatnonzero(J).tolist()) for J in found.values())
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


def minimal_generators(R: FiniteRing, ideal: frozenset,
                       budget: Optional[Budget] = None) -> list:
    """A small (greedy, deterministic) generating set for an enumerated ideal."""
    budget = ensure_budget(budget)
    gens = []
    closure = frozenset({R.zero})
    for a in sorted(ideal):
        if a not in closure:
            gens.append(a)
            closure = _ideal_sum(R, closure, frozenset(R.mul[a].tolist()), budget)
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


def brute_ext1_vanishes(R: FiniteRing, ideal, size_cap: int = DEFAULT_EXT_CAP,
                        budget: Optional[Budget] = None) -> bool:
    """Ext^1(R/J, R) = 0 from the presentation R^k -> R -> R/J -> 0, with
    the greedy generators of J.

    Enumerates Hom(R^k, R) = R^k, the syzygy set {v : sum v_i g_i = 0}
    exhaustively, and the maps factoring through Hom(R, R).
    """
    if R.order > size_cap:
        raise CapExceededError(f"Ext^1 enumeration capped at order {size_cap}")
    budget = ensure_budget(budget)
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


def brute_is_dq(R: FiniteRing, budget: Optional[Budget] = None) -> BruteCheck:
    """Every proper ideal has a nonzero annihilator (no semi-regular proper
    ideal); the witness is a violating ideal when the check fails."""
    return _first_proper_ideal(R, None, budget)


def brute_is_dw(R: FiniteRing, size_cap: int = DEFAULT_EXT_CAP,
                budget: Optional[Budget] = None) -> BruteCheck:
    """The only GV-ideal is R itself, checked over every enumerated ideal."""
    return _first_proper_ideal(R, size_cap, budget)


def _first_proper_ideal(R: FiniteRing, ext_cap: Optional[int],
                        budget: Optional[Budget]) -> BruteCheck:
    """The first proper ideal, smallest first, with Ann(I) = 0 and, unless
    ext_cap is None (DQ), Ext^1(R/I, R) = 0 (DW) is the witness."""
    budget = ensure_budget(budget)
    full = frozenset(range(R.order))
    for I in enumerate_ideals(R, budget):
        if I == full:
            continue
        budget.tick_coarse()
        if brute_hom_vanishes(R, I) and (ext_cap is None or brute_ext1_vanishes(
                R, I, size_cap=ext_cap, budget=budget)):
            return BruteCheck(False, I)
    return BruteCheck(True)
