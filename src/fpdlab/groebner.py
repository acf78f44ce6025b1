"""Groebner engines and the ideal operations built on them.

One engine handles both rings and free modules: a term is keyed by
(position, monomial) under the position-over-term extension of the ring
order (lower position index dominates).  Over fields this is Buchberger
with normal (degree) selection and Gebauer-Moeller pair elimination; over
the integers it is the strong-basis completion with S- and G-polynomials
and Euclidean coefficient reduction.  Membership certificates (unit
cofactors) come from the same engine run on generators tagged in an
extended free module, where the tag block sits below every original
position; kernels are taken in `modules`, from the Groebner basis of a
map's graph.
"""
from __future__ import annotations

import heapq
from typing import Optional, Sequence

from .errors import (Budget, InternalError, ResourceBudgetExceeded,
                     StructuralError, UnsupportedDomainError, ensure_budget)
from .rings import (GREVLEX, IdealPresentation, Polynomial, PolynomialRing,
                    RingPresentation, block_order, mono_degree, mono_div,
                    mono_divides, mono_lcm, mono_mul, mono_one)

REDUCED_FIELD = "reduced_field"
STRONG_INTEGER = "strong_integer"


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


# ---------------------------------------------------------------------------
# Vector terms: Vec = {(position, monomial): coefficient}

def _term_key(ring: PolynomialRing):
    okey = ring.order.key
    return lambda k: (-k[0], okey(k[1]))


def poly_to_vec(p: Polynomial, position: int = 0) -> dict:
    return {(position, m): c for m, c in p.terms}


def polys_to_vec(entries: Sequence) -> dict:
    """A free-module element given as a tuple of polynomials, one per position."""
    vec = {}
    for pos, p in enumerate(entries):
        for m, c in p.terms:
            vec[(pos, m)] = c
    return vec


def vec_to_poly(vec: dict, ring: PolynomialRing) -> Polynomial:
    return ring.from_dict({m: c for (_, m), c in vec.items()})


def vec_to_polys(vec: dict, rank: int, ring: PolynomialRing) -> tuple:
    split = [dict() for _ in range(rank)]
    for (pos, m), c in vec.items():
        split[pos][m] = c
    return tuple(ring.from_dict(d) for d in split)


class VecBasis:
    """A list of vectors with cached leading data, normalized for reduction.

    Over fields every vector is monic; over ZZ leading coefficients are
    positive.  Zero vectors are dropped.  `at` maps each position to the
    indices of the vectors led there, in basis order; vectors only ever
    change their tails, so it stays valid.
    """

    def __init__(self, vecs: Sequence, ring: PolynomialRing):
        self.ring = ring
        self.vecs = []
        self.lts = []
        self.lcs = []
        self.at = {}
        for v in vecs:
            if v:
                self.add(v)

    def add(self, v: dict):
        """Append v scaled by the unit that normalizes its leading coefficient."""
        lt = max(v, key=_term_key(self.ring))
        dom = self.ring.domain
        u = dom.lc_normalizer(v[lt])
        if u != dom.one():
            v = {k: dom.mul(u, c) for k, c in v.items()}
        self.append(v, lt)

    def append(self, v: dict, lt):
        """Append v with leading term lt as it is (the caller vouches for
        its normalization)."""
        self.at.setdefault(lt[0], []).append(len(self.vecs))
        self.vecs.append(v)
        self.lts.append(lt)
        self.lcs.append(v[lt])

    def __len__(self):
        return len(self.vecs)


def vec_normal_form(v: dict, basis: VecBasis, budget: Budget) -> dict:
    """Full (tail-including) normal form of v against the basis vectors.

    Over ZZ a term c*m is reducible by a leading term a*u (a > 0) when u
    divides m and floor(c / a) is nonzero; the remainder coefficient lands
    in [0, a).  Reducers are tried in basis order, which makes the result
    deterministic.
    """
    ring = basis.ring
    dom = ring.domain
    field = dom.is_field
    zero = dom.zero()
    tkey = _term_key(ring)
    vecs, lts, lcs, at = basis.vecs, basis.lts, basis.lcs, basis.at
    work = dict(v)
    # each term's order key, computed once when the term first appears
    keys = {k: tkey(k) for k in work}
    rem = {}
    while work:
        k = max(work, key=keys.__getitem__)
        c = work.pop(k)
        pos, m = k
        reduced = False
        for j in at.get(pos, ()):
            lt_j = lts[j]
            q = mono_div(m, lt_j[1])
            if q is None:
                continue
            budget.tick()
            if field:
                # basis vector is monic: subtract c * x^q * vecs[j]
                for bk, bc in vecs[j].items():
                    if bk == lt_j:
                        continue
                    kk = (bk[0], mono_mul(bk[1], q))
                    if kk not in keys:
                        keys[kk] = tkey(kk)
                    nc = dom.sub(work.get(kk, zero), dom.mul(c, bc))
                    if nc == zero:
                        work.pop(kk, None)
                    else:
                        work[kk] = nc
                reduced = True
                break
            a = lcs[j]
            qq = c // a
            if qq == 0:
                continue
            r = c - qq * a
            for bk, bc in vecs[j].items():
                if bk == lt_j:
                    continue
                kk = (bk[0], mono_mul(bk[1], q))
                if kk not in keys:
                    keys[kk] = tkey(kk)
                nc = work.get(kk, 0) - qq * bc
                if nc:
                    work[kk] = nc
                else:
                    work.pop(kk, None)
            if r:
                work[k] = r
            reduced = True
            break
        if not reduced:
            rem[k] = c
    return rem


def _s_vector(basis: VecBasis, i: int, j: int, si, sj) -> dict:
    """si * x^(w/u) * vecs[i] + sj * x^(w/v) * vecs[j], where u and v are the
    leading monomials of the two vectors and w = lcm(u, v)."""
    dom = basis.ring.domain
    zero = dom.zero()
    u, v = basis.lts[i][1], basis.lts[j][1]
    w = mono_lcm(u, v)
    qi, qj = mono_div(w, u), mono_div(w, v)
    out = {(p, mono_mul(m, qi)): dom.mul(si, c) for (p, m), c in basis.vecs[i].items()}
    for (p, m), c in basis.vecs[j].items():
        k = (p, mono_mul(m, qj))
        nc = dom.add(out.get(k, zero), dom.mul(sj, c))
        if nc == zero:
            out.pop(k, None)
        else:
            out[k] = nc
    return out


# ---------------------------------------------------------------------------
# Completion: one growable basis, with a pair rule and S-vector coefficients per domain

class Completion:
    """The completion of `vecs` to a Groebner basis, which can grow: each
    later `insert` followed by `run` completes the enlarged module.

    `push_pairs(basis, heap, f)` queues the critical pairs of the new element
    f, the last in the basis, as heap entries (degree, position, order key,
    i, f, ...).
    `s_vector(basis, entry)` gives a popped entry's S-vector, or None when
    the pair was eliminated after it was queued.
    """

    def __init__(self, vecs: Sequence, ring: PolynomialRing, budget: Budget,
                 push_pairs, s_vector):
        self.basis = VecBasis([], ring)
        self.heap = []
        self.budget = budget
        self.push_pairs = push_pairs
        self.s_vector = s_vector
        for v in vecs:
            self.insert(v)
        self.run()

    def insert(self, v: dict) -> bool:
        """Add v's nonzero normal form and queue its pairs; False when v
        reduces to zero, i.e. already lies in the module once `run` is done."""
        r = vec_normal_form(v, self.basis, self.budget)
        if not r:
            return False
        self.basis.add(r)
        self.push_pairs(self.basis, self.heap, len(self.basis) - 1)
        return True

    def run(self):
        """Reduce queued S-vectors until none are left."""
        while self.heap:
            s = self.s_vector(self.basis, heapq.heappop(self.heap))
            if s is None:
                continue
            self.budget.tick(1, len(self.basis), len(self.heap))
            try:
                self.insert(s)
            except ResourceBudgetExceeded as exc:
                raise ResourceBudgetExceeded(exc.reason, exc.steps, len(self.basis),
                                             len(self.heap)) from exc


def _groebner_field(vecs: Sequence, ring: PolynomialRing, budget: Budget,
                    rank1: bool) -> Completion:
    """Buchberger over a field: normal selection, Gebauer-Moeller pair
    elimination, and (for ideals) the coprime-lead criterion."""
    okey = ring.order.key
    one = ring.domain.one()
    minus_one = ring.domain.neg(one)
    pairs = set()

    def push_pairs(basis: VecBasis, heap: list, fidx: int):
        fpos, fm = basis.lts[fidx]
        # chain criterion: drop old pairs whose lcm the new lead strictly refines
        dead = []
        for (i, j) in pairs:
            ipos, im = basis.lts[i]
            _, jm = basis.lts[j]
            if ipos != fpos:
                continue
            lij = mono_lcm(im, jm)
            if (mono_divides(fm, lij)
                    and mono_lcm(im, fm) != lij and mono_lcm(jm, fm) != lij):
                dead.append((i, j))
        pairs.difference_update(dead)
        # group candidate pairs by lcm, keep minimal lcms, one pair per class
        cand = {}
        for i in basis.at[fpos][:-1]:
            cand.setdefault(mono_lcm(basis.lts[i][1], fm), []).append(i)
        kept = []
        for lcm_m in sorted(cand, key=okey):
            if any(mono_divides(prev, lcm_m) for prev in kept):
                continue
            kept.append(lcm_m)
            if rank1 and any(mono_lcm(basis.lts[i][1], fm)
                             == mono_mul(basis.lts[i][1], fm)
                             for i in cand[lcm_m]):
                continue  # a coprime pair in the class settles the whole class
            i = min(cand[lcm_m])
            pairs.add((i, fidx))
            heapq.heappush(heap, (mono_degree(lcm_m), fpos, okey(lcm_m), i, fidx))

    def s_vector(basis: VecBasis, entry: tuple):
        pair = entry[3:]
        if pair not in pairs:
            return None
        pairs.discard(pair)
        return _s_vector(basis, *pair, one, minus_one)

    return Completion(vecs, ring, budget, push_pairs, s_vector)


def _groebner_integer(vecs: Sequence, ring: PolynomialRing, budget: Budget) -> Completion:
    """Strong-basis completion over ZZ: an S-pair for every pair of leads in
    one position, plus a G-pair when neither lead coefficient divides the
    other."""
    okey = ring.order.key

    def push_pairs(basis: VecBasis, heap: list, fidx: int):
        fpos, fm = basis.lts[fidx]
        a = basis.lcs[fidx]
        for i in basis.at[fpos][:-1]:
            im = basis.lts[i][1]
            b = basis.lcs[i]
            w = mono_lcm(im, fm)
            heapq.heappush(heap, (mono_degree(w), fpos, okey(w), i, fidx, 0))
            if a % b != 0 and b % a != 0:
                heapq.heappush(heap, (mono_degree(w), fpos, okey(w), i, fidx, 1))

    def s_vector(basis: VecBasis, entry: tuple):
        _, _, _, i, j, gpair = entry
        a, b = basis.lcs[i], basis.lcs[j]
        g, s, t = _xgcd(a, b)
        if gpair:
            return _s_vector(basis, i, j, s, t)
        l = a * b // g
        return _s_vector(basis, i, j, l // a, -(l // b))

    return Completion(vecs, ring, budget, push_pairs, s_vector)


# ---------------------------------------------------------------------------
# Minimalization, tail interreduction, canonical form

def _minimalize(basis: VecBasis) -> VecBasis:
    """The elements whose leads no other lead dominates, in ascending lead
    order (ties over ZZ by ascending |lead coefficient|), as a new basis."""
    ring = basis.ring
    field = ring.domain.is_field
    tkey = _term_key(ring)
    idx = sorted(range(len(basis)),
                 key=lambda i: (tkey(basis.lts[i]), abs(basis.lcs[i])
                                if not field else 0))
    kept = VecBasis([], ring)
    for i in idx:
        pos, m = basis.lts[i]
        a = basis.lcs[i]
        if not any(mono_divides(kept.lts[j][1], m)
                   and (field or a % kept.lcs[j] == 0)
                   for j in kept.at.get(pos, ())):
            kept.append(basis.vecs[i], basis.lts[i])
    return kept


def _interreduce(basis: VecBasis, budget: Budget) -> VecBasis:
    """Tail-reduce every element in place against the whole basis.

    A lead never divides a term of its own tail, and tail reduction never
    touches a lead, so the leads (and the Groebner property) are preserved
    and a pass in ascending lead order leaves every tail irreducible.  When
    that pass changed something, a second pass confirms it; if the second
    pass changes anything too, an invariant is broken.
    """
    def sweep() -> bool:
        changed = False
        for i, lt in enumerate(basis.lts):
            v = basis.vecs[i]
            tail = {k: c for k, c in v.items() if k != lt}
            if not tail:
                continue
            new = {lt: v[lt]}
            new.update(vec_normal_form(tail, basis, budget))
            if new != v:
                basis.vecs[i] = new
                changed = True
        return changed

    if sweep() and sweep():
        raise InternalError("internal: interreduction failed to stabilize")
    return basis


def completion(vecs: Sequence, ring: PolynomialRing, budget: Budget,
               rank1: bool = False) -> Completion:
    """The completion of `vecs` under the engine of the ring's domain."""
    if ring.domain.is_field:
        return _groebner_field(vecs, ring, budget, rank1)
    if ring.domain.kind != "integers":
        raise UnsupportedDomainError(f"no engine for domain {ring.domain}")
    return _groebner_integer(vecs, ring, budget)


def vec_groebner(vecs: Sequence, ring: PolynomialRing, budget: Budget,
                 rank1: bool = False) -> VecBasis:
    """Canonical Groebner basis of the submodule generated by `vecs`, in
    ascending lead order."""
    return _interreduce(_minimalize(completion(vecs, ring, budget, rank1).basis),
                        budget)


# ---------------------------------------------------------------------------
# Membership lifts via a tagged extended module

def vec_lift(target: dict, vecs: Sequence, rank: int, ring: PolynomialRing,
             budget: Budget) -> Optional[list]:
    """Polynomials h with target = sum h_j vecs[j], or None if no member:
    each vecs[j] carries the tag e_(rank + j), below every original position."""
    one = mono_one(ring.nvars)
    tagged = [{**v, (rank + j, one): ring.domain.one()} for j, v in enumerate(vecs)]
    G = vec_groebner(tagged, ring, budget)
    r = vec_normal_form(target, G, budget)
    if any(pos < rank for pos, _ in r):
        return None
    dom = ring.domain
    cof = [dict() for _ in vecs]
    for (pos, m), c in r.items():
        cof[pos - rank][m] = dom.neg(c)
    return [ring.from_dict(d) for d in cof]


# ---------------------------------------------------------------------------
# Polynomial-level Groebner bases

class GroebnerBasis:
    """A canonical Groebner basis: reduced monic over fields, normalized
    strong basis (positive leading coefficients, reduced tails) over ZZ.

    `vecs` is the basis as `vec_groebner` returned it, which normal forms
    reduce against; `basis` holds the same elements as polynomials.
    """

    def __init__(self, ambient: PolynomialRing, vecs: VecBasis, kind: str):
        self.ambient = ambient
        self.order = ambient.order
        self.vecs = vecs
        self.basis = tuple(vec_to_poly(v, ambient) for v in vecs.vecs)
        self.kind = kind

    def leading_monomials(self) -> tuple:
        return tuple(p.leading_monomial() for p in self.basis)

    def contains_one(self) -> bool:
        one = self.ambient.one()
        return normal_form_polys(one, self).is_zero


def groebner_basis_of_polys(ambient: PolynomialRing, polys: Sequence,
                            budget: Budget = None) -> GroebnerBasis:
    budget = ensure_budget(budget)
    for p in polys:
        if p.ring != ambient:
            raise StructuralError("generator from a different ambient ring")
    vecs = [poly_to_vec(p) for p in polys if not p.is_zero]
    G = vec_groebner(vecs, ambient, budget, rank1=True)
    kind = REDUCED_FIELD if ambient.domain.is_field else STRONG_INTEGER
    return GroebnerBasis(ambient, G, kind)


def groebner_basis(I: IdealPresentation, budget: Budget = None) -> GroebnerBasis:
    """Groebner basis of the preimage of I in the ambient polynomial ring."""
    return groebner_basis_of_polys(I.ring.ambient, I.preimage_generators(), budget)


def normal_form_polys(f: Polynomial, G: GroebnerBasis,
                      budget: Budget = None) -> Polynomial:
    if f.ring != G.ambient:
        raise StructuralError(
            f"normal form order/ring mismatch: {f.ring} with order {f.ring.order} "
            f"vs basis over {G.ambient} with order {G.order}")
    budget = ensure_budget(budget)
    r = vec_normal_form(poly_to_vec(f), G.vecs, budget)
    return vec_to_poly(r, G.ambient)


# ---------------------------------------------------------------------------
# Unit-ideal decision with certificate

class UnitIdealResult:
    def __init__(self, is_unit: bool, cofactors: Optional[tuple] = None):
        self.is_unit = is_unit
        self.cofactors = cofactors

    def __bool__(self):
        return self.is_unit


def is_unit_ideal(I: IdealPresentation, budget: Budget = None) -> UnitIdealResult:
    """Decide 1 in I + J; on success return re-multiplication-verified cofactors
    g_i over I's generators with sum g_i a_i = 1 in R."""
    budget = ensure_budget(budget)
    ambient = I.ring.ambient
    if not normal_form_polys(ambient.one(), I.groebner(budget), budget).is_zero:
        return UnitIdealResult(False)
    gens = I.preimage_generators()
    lifted = vec_lift(poly_to_vec(ambient.one()),
                      [poly_to_vec(g) for g in gens], 1, ambient, budget)
    if lifted is None:
        raise InternalError("internal: unit ideal without a lift")
    cof = tuple(lifted[:len(I.generators)])
    total = ambient.zero()
    for c, a in zip(lifted, gens):
        total = total + c * a
    if not I.ring.is_zero_element(total - ambient.one(), budget):
        raise InternalError("internal: unit certificate failed re-multiplication")
    return UnitIdealResult(True, cof)


# ---------------------------------------------------------------------------
# Elimination, intersection, quotient, annihilator

def fresh_variable_name(taken: Sequence, base: str = "_t") -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _extend_poly(p: Polynomial, ext: PolynomialRing) -> Polynomial:
    return ext.from_dict({(0,) + m: c for m, c in p.terms})


def _restrict_poly(p: Polynomial, ambient: PolynomialRing) -> Polynomial:
    return ambient.from_dict({m[1:]: c for m, c in p.terms})


def ideal_intersection_polys(ambient: PolynomialRing, gens_a: Sequence,
                             gens_b: Sequence, budget: Budget = None) -> list:
    """Generators of <gens_a> cap <gens_b> in the ambient polynomial ring."""
    budget = ensure_budget(budget)
    tname = fresh_variable_name(ambient.variables)
    ext = PolynomialRing(ambient.domain, (tname,) + ambient.variables,
                         block_order(1, GREVLEX, ambient.order))
    t = ext.variable(tname)
    one_minus_t = ext.one() - t
    gens = [t * _extend_poly(a, ext) for a in gens_a if not a.is_zero]
    gens += [one_minus_t * _extend_poly(b, ext) for b in gens_b if not b.is_zero]
    G = groebner_basis_of_polys(ext, gens, budget)
    out = []
    for p in G.basis:
        if all(m[0] == 0 for m, _ in p.terms):
            out.append(_restrict_poly(p, ambient))
    return out


def exact_poly_div(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f when f divides g exactly in the ambient ring."""
    ring = g.ring
    dom = ring.domain
    if f.is_zero:
        raise StructuralError("division by the zero polynomial")
    okey = ring.order.key
    fm, fc = f.leading_monomial(), f.leading_coefficient()
    work = dict(g.terms)
    out = {}
    while work:
        m = max(work, key=okey)
        c = work.pop(m)
        q = mono_div(m, fm)
        if q is None:
            raise StructuralError("inexact polynomial division")
        qc = dom.exact_div(c, fc)
        out[q] = qc
        for m2, c2 in f.terms[1:]:
            k = mono_mul(m2, q)
            nc = dom.sub(work.get(k, dom.zero()), dom.mul(qc, c2))
            if nc == dom.zero():
                work.pop(k, None)
            else:
                work[k] = nc
    return ring.from_dict(out)


def _colon(ring: RingPresentation, pre: Sequence, divisors: Sequence,
           budget: Budget) -> tuple:
    """Reduced generators of (<pre> : <divisors>) mod J, for nonzero divisors
    and J inside <pre>: the intersection over f of (<pre> cap <f>) / f in the
    ambient ring.

    The generators of each running intersection are reduced modulo J once,
    and the loop stops when they all reduce to zero.  The stop is exact:
    every later intersection lies inside that one, and J lies inside every
    (<pre> : f), so the full loop would reduce to () as well.
    """
    ambient = ring.ambient
    current: Optional[list] = None
    for f in divisors:
        meet = ideal_intersection_polys(ambient, pre, [f], budget)
        try:
            q = [exact_poly_div(p, f) for p in meet]
        except StructuralError as exc:
            raise InternalError(f"internal: colon by {f}: the intersection with "
                                f"<{f}> has an element it does not divide ({exc})"
                                ) from exc
        current = q if current is None else ideal_intersection_polys(
            ambient, current, q, budget)
        reduced = []
        for g in current:
            r = ring.normal_form(g, budget)
            if not r.is_zero and r not in reduced:
                reduced.append(r)
        if not reduced:
            break
    return tuple(reduced)


def ideal_quotient(I: IdealPresentation, divisor, budget: Budget = None) -> IdealPresentation:
    """(I : f) for a ring element, or (I : J) for an ideal, inside R.

    (I : 0) = R by convention; the result carries a note when it applies.
    The colon stops at the first divisor whose running quotient is already
    zero in R, since the full quotient lies inside it (which needs I = 0).
    """
    budget = ensure_budget(budget)
    ring = I.ring
    if isinstance(divisor, IdealPresentation):
        if divisor.ring != ring:
            raise StructuralError("ideal quotient across different rings")
        divisors = [ring.normal_form(f, budget) for f in divisor.generators]
        note = "quotient by the zero ideal is R"
    else:
        divisors = [ring.normal_form(ring.poly(divisor), budget)]
        note = "quotient by zero is R"
    divisors = [f for f in divisors if not f.is_zero]
    if not divisors:
        return IdealPresentation(ring, (ring.ambient.one(),), notes=(note,))
    return IdealPresentation(ring, _colon(ring, I.preimage_generators(),
                                          divisors, budget))


def annihilator(I: IdealPresentation, budget: Budget = None) -> IdealPresentation:
    """Ann_R(I) = (J : <gens I>) mod J; the zero ideal exactly when I is dense.

    Computed by elimination, one generator at a time, and stopped once the
    annihilator of the generators so far is already zero in R: the
    annihilator of more generators lies inside it.
    """
    budget = ensure_budget(budget)
    ring = I.ring
    gens = [ring.normal_form(g, budget) for g in I.generators]
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return IdealPresentation(ring, (ring.ambient.one(),),
                                 notes=("annihilator of the zero ideal is R",))
    return IdealPresentation(ring, _colon(ring, ring.relations, gens, budget))


# ---------------------------------------------------------------------------
# Krull dimension over field coefficients

def krull_dimension(R: RingPresentation, budget: Budget = None) -> int:
    """dim A[x1..xn]/J as the largest variable set independent modulo the
    initial ideal of J (field coefficients only)."""
    budget = ensure_budget(budget)
    if not R.domain.is_field:
        raise UnsupportedDomainError(
            "Krull dimension is only computed over field coefficients")
    G = R.relations_groebner(budget)
    if G.contains_one():
        raise StructuralError("the zero ring has empty spectrum")
    n = R.ambient.nvars
    supports = []
    for m in G.leading_monomials():
        supports.append(frozenset(i for i, e in enumerate(m) if e > 0))
    from itertools import combinations
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return 0
