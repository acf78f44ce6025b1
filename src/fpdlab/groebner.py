"""The Groebner engine and the ideal operations built on it.

One engine, `Completion`, handles every coefficient domain and both rings
and free modules: a term is one int, the key of its position and monomial
in the ring's `MonomialCodec`, and keys compare as the position-over-term
extension of the ring order (lower position index dominates).  It is the strong-basis completion over a Euclidean domain,
with S- and G-vectors and Euclidean coefficient reduction, and its pairs
come from Gebauer-Moeller elimination on lead terms (monomial,
coefficient): the chain criterion, one pair per minimal lcm, the product
criterion for vectors in one position, and no pair within the block, a
Groebner basis that goes in first.  Over a field every lead is
monic, so no G-pair arises and the engine is Buchberger (normal selection).
Membership certificates (unit cofactors), and kernels, homology
decisions and image bases (in `modules`), read the engine's basis of a
map's graph, `graph_completion`: each generator is tagged in an extended
free module, whose tag block sits below every original position; two
ideals meet in A^2 of their own ring.
"""
from __future__ import annotations

import heapq
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .errors import (Budget, CapExceededError, InternalError,
                     ResourceBudgetExceeded, StructuralError,
                     UnsupportedDomainError, ensure_budget)
from .rings import (RATIONALS, IdealPresentation, Polynomial, PolynomialRing,
                    RingPresentation)


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
# Vectors: Vec = {key: coefficient}, a key being a position and a monomial
# in the ring's codec (see `MonomialCodec`); the larger key is the larger term

def poly_to_vec(p: Polynomial, position: int = 0) -> dict:
    offset = position << p.ring.codec.shift
    return {m - offset: c for m, c in p.terms}


def polys_to_vec(entries: Sequence) -> dict:
    """A free-module element given as a tuple of polynomials, one per position."""
    vec = {}
    for pos, p in enumerate(entries):
        vec.update(poly_to_vec(p, pos))
    return vec


def vec_to_polys(vec: dict, rank: int, ring: PolynomialRing) -> tuple:
    """The entries of vec, one polynomial per position: its terms in
    descending key order are each entry's terms in descending order."""
    codec = ring.codec
    mask, shift, coerce = codec.mask, codec.shift, ring.domain.coerce
    split = [[] for _ in range(rank)]
    for k in sorted(vec, reverse=True):
        split[-(k >> shift)].append((k & mask, coerce(vec[k])))
    return tuple(Polynomial(ring, tuple(terms)) for terms in split)


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
        lt = max(v)
        dom = self.ring.domain
        u = dom.lc_normalizer(v[lt])
        if u != dom.one() or dom.kind == RATIONALS:
            # coerce makes QQ values canonical: an integral value is an int
            v = {k: dom.coerce(dom.mul(u, c)) for k, c in v.items()}
        self.append(v, lt)

    def append(self, v: dict, lt):
        """Append v with leading term lt as it is (the caller vouches for
        its normalization)."""
        self.at.setdefault(self.ring.codec.position(lt), []).append(len(self.vecs))
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
    deterministic.  Each term taken from `work` has its guard bits checked
    (`MonomialCodec.check`), so every product formed here has two operands
    within the exponent cap.
    """
    ring = basis.ring
    dom = ring.domain
    field, p = dom.is_field, dom.p
    codec = ring.codec
    guard, shift = codec.guard, codec.shift
    vecs, lts, lcs, at = basis.vecs, basis.lts, basis.lcs, basis.at
    work = dict(v)
    # the largest term of `work` tops a heap of negated keys; a term is
    # pushed when it enters `work`, and entries of terms gone are skipped
    heap = [-k for k in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        k = -heapq.heappop(heap)
        if k not in work:
            continue
        if k & guard:
            codec.check(k)
        c = work.pop(k)
        kg = k | guard
        for j in at.get(-(k >> shift), ()):
            lt_j = lts[j]
            if (kg - lt_j) & guard != guard:
                continue
            q = k - lt_j
            budget.tick()
            # a field's basis vector is monic, so its quotient is c itself
            qq, r = (c, 0) if field else divmod(c, lcs[j])
            if qq == 0:
                continue
            # subtract qq * x^q * vecs[j]
            for bk, bc in vecs[j].items():
                if bk == lt_j:
                    continue
                kk = bk + q
                nc = work.get(kk, 0) - qq * bc
                if p:
                    nc %= p
                if not nc:
                    work.pop(kk, None)
                    continue
                if kk not in work:
                    heapq.heappush(heap, -kk)
                work[kk] = nc
            if r:
                work[k] = r
                heapq.heappush(heap, -k)
            break
        else:
            rem[k] = c
    return rem


def _s_vector(basis: VecBasis, i: int, j: int, w: int, si, sj) -> dict:
    """si * x^(w/u) * vecs[i] + sj * x^(w/v) * vecs[j], where u and v are the
    leading monomials of the two vectors and w is their lcm.  Over FF(p)
    the leads are monic and si is 1, so only the sums need reducing."""
    p = basis.ring.domain.p
    qi, qj = w - basis.lts[i], w - basis.lts[j]
    out = {k + qi: si * c for k, c in basis.vecs[i].items()}
    for k, c in basis.vecs[j].items():
        k += qj
        nc = out.get(k, 0) + sj * c
        if p:
            nc %= p
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


# ---------------------------------------------------------------------------
# Completion: one growable basis, one pair rule for every domain

def _term_lcm(codec, m, c, n, d):
    """lcm of the lead terms c*x^m and d*x^n (coefficients positive), as
    (key, coefficient), for keys m and n in one position."""
    return codec.lcm(m, n), c if c == d else c * d // gcd(c, d)


class Completion:
    """The completion of `block` + `vecs` to a Groebner basis, which can
    grow: each later `insert` followed by `run` completes the enlarged module.

    `block` is a Groebner basis already, reduced and normalized per
    position: J's in each position (`modules._relation_block`), or that
    of a module holding J*e_t in its positions.  It goes in first, as it
    is: no normal form and no pair, since its own pairs have standard
    representations by it.  Its elements are the basis's first
    `len(block)`.

    The pairs are chosen by Gebauer-Moeller elimination on lead terms
    (monomial, coefficient); one term divides another when both parts do.
    For each new element f:

    - chain criterion: an open S-pair (i, j) in f's position is dropped when
      lt(f) divides its lcm and neither lcm(lt i, lt f) nor lcm(lt j, lt f)
      equals it;
    - new S-pairs (i, f) are grouped by lcm; only minimal lcms are kept, one
      pair per class;
    - product criterion: a class holding a pair whose lcm is the product of
      the two lead terms (coprime monomials and coprime coefficients) is
      settled when both vectors lie only in their lead position, so that
      they are polynomial multiples of one basis vector e_t;
    - a G-pair is queued, with no criterion, for every earlier lead whose
      coefficient and f's do not divide each other.

    Settled classes still count as minimal lcms.  An S-pair stays open until
    it is popped or the chain criterion drops it.  Over a field every lead
    is monic, so no G-pair arises and this is Buchberger with normal
    selection; over ZZ it is the strong-basis completion.
    """

    def __init__(self, vecs: Sequence, ring: PolynomialRing, budget: Budget,
                 block: Sequence = ()):
        self.basis = VecBasis([], ring)
        self.heap = []  # (degree, position, lcm key, i, j, G-pair flag)
        self.single = set()  # elements whose terms all lie in one position
        self.open = {}  # position -> {(i, j): lcm of the lead terms}
        self.codec = ring.codec
        self.budget = budget
        for v in block:
            self.basis.append(v, max(v))
            self._note_single(v)
        for v in vecs:
            self.insert(v)
        self.run()

    def _note_single(self, v: dict):
        """Record whether the last element v lies in one position."""
        shift = self.codec.shift
        if max(v) >> shift == min(v) >> shift:
            self.single.add(len(self.basis) - 1)

    def insert(self, v: dict) -> bool:
        """Add v's nonzero normal form and queue its pairs; False when v
        reduces to zero, i.e. already lies in the module once `run` is done."""
        try:
            r = vec_normal_form(v, self.basis, self.budget)
        except ResourceBudgetExceeded as exc:
            raise ResourceBudgetExceeded(exc.reason, exc.steps, len(self.basis),
                                         len(self.heap)) from exc
        if not r:
            return False
        self.basis.add(r)
        self._note_single(r)
        self.push_pairs(len(self.basis) - 1)
        return True

    def push_pairs(self, f: int):
        """Queue the pairs of the new element f, the last in the basis."""
        heap = self.heap
        codec = self.codec
        degree, guard = codec.degree, codec.guard
        lts, lcs = self.basis.lts, self.basis.lcs
        fk, fc = lts[f], lcs[f]
        fpos = codec.position(fk)
        fm = fk & codec.mask  # f's monomial code
        # lcm(lt i, lt f) for each earlier i in f's position, taken once
        lcm_f = {i: _term_lcm(codec, lts[i], lcs[i], fk, fc)
                 for i in self.basis.at[fpos][:-1]}
        opens = self.open.setdefault(fpos, {})
        dead = [(i, j) for (i, j), w in opens.items()
                if w[1] % fc == 0 and ((w[0] | guard) - fk) & guard == guard
                and lcm_f[i] != w and lcm_f[j] != w]
        for pair in dead:
            del opens[pair]
        cand = {}
        for i, w in lcm_f.items():
            cand.setdefault(w, []).append(i)
            c = lcs[i]
            if fc % c and c % fc:
                heapq.heappush(heap, (degree(w[0]), fpos, w[0], i, f, 1))
        kept = []
        for w in sorted(cand):
            wm, wc = w
            if any(wc % pc == 0 and ((wm | guard) - pm) & guard == guard
                   for pm, pc in kept):
                continue
            kept.append(w)
            ids = cand[w]
            if f in self.single and any(
                    i in self.single and w == (lts[i] + fm, lcs[i] * fc) for i in ids):
                continue
            i = min(ids)
            opens[(i, f)] = w
            heapq.heappush(heap, (degree(wm), fpos, wm, i, f, 0))

    def s_vector(self, entry: tuple):
        """A popped entry's S- or G-vector, or None when its S-pair was
        dropped after it was queued."""
        w, i, j, gpair = entry[2:]
        a, b = self.basis.lcs[i], self.basis.lcs[j]
        if gpair:
            _, s, t = _xgcd(a, b)
            return _s_vector(self.basis, i, j, w, s, t)
        lcm = self.open[entry[1]].pop((i, j), None)
        if lcm is None:
            return None
        # lcm[1] is lcm(a, b) as `_term_lcm` gives it, so a field's monic
        # leads (the int 1, over QQ too) give 1 and -1 without a gcd
        return _s_vector(self.basis, i, j, w, lcm[1] // a, -(lcm[1] // b))

    def run(self):
        """Reduce queued S- and G-vectors until none are left."""
        while self.heap:
            s = self.s_vector(heapq.heappop(self.heap))
            if s is None:
                continue
            self.budget.tick(1, len(self.basis), len(self.heap))
            self.insert(s)


# `completion` calls one of these two names by domain.  The benchmark's
# tracer (`perfbench/tracer.py`) probes both and rebinds by identity, so
# one aliased to the other would count every call twice.
def _groebner_field(vecs: Sequence, ring: PolynomialRing, budget: Budget,
                    block: Sequence) -> Completion:
    """Buchberger over a field: `Completion` with monic leads."""
    return Completion(vecs, ring, budget, block)


def _groebner_integer(vecs: Sequence, ring: PolynomialRing, budget: Budget,
                      block: Sequence) -> Completion:
    """The strong-basis completion over ZZ: `Completion` with G-pairs."""
    return Completion(vecs, ring, budget, block)


# ---------------------------------------------------------------------------
# Canonical form: minimal and tail-reduced in one pass

def _interreduce(basis: VecBasis, budget: Budget) -> VecBasis:
    """The reduced basis, as a new basis in ascending lead order (ties over
    ZZ by ascending |lead coefficient|): each element whose lead no element
    kept before it dominates, with its tail reduced against those.

    A lead that divides a term is no larger than it, and a tail lies below
    its lead, so only the elements kept before one can reduce its tail, and
    they are final already.  Tail reduction never touches a lead, so the
    leads (and the Groebner property) are preserved.
    """
    ring = basis.ring
    codec = ring.codec
    # a field basis is monic, so its ties and divisibility tests are trivial
    idx = sorted(range(len(basis)), key=lambda i: (basis.lts[i], abs(basis.lcs[i])))
    kept = VecBasis([], ring)
    for i in idx:
        v, lt, a = basis.vecs[i], basis.lts[i], basis.lcs[i]
        if any(codec.divides(kept.lts[j], lt) and a % kept.lcs[j] == 0
               for j in kept.at.get(codec.position(lt), ())):
            continue
        tail = {k: c for k, c in v.items() if k != lt}
        kept.append({lt: a, **vec_normal_form(tail, kept, budget)}, lt)
    return kept


def completion(vecs: Sequence, ring: PolynomialRing, budget: Budget,
               block: Sequence = ()) -> Completion:
    """The completion of `block` + `vecs`; `block` is a reduced Groebner
    basis per position, such as J's in each position (see `Completion`)."""
    if ring.domain.is_field:
        return _groebner_field(vecs, ring, budget, block)
    return _groebner_integer(vecs, ring, budget, block)


def vec_groebner(vecs: Sequence, ring: PolynomialRing, budget: Budget,
                 block: Sequence = ()) -> VecBasis:
    """Canonical Groebner basis of the submodule generated by `vecs` and
    `block`, in ascending lead order."""
    return _interreduce(completion(vecs, ring, budget, block).basis, budget)


# ---------------------------------------------------------------------------
# Graphs of maps, membership lifts, polynomial-level bases

def graph_completion(vecs: Sequence, rank: int, ring: PolynomialRing, budget: Budget,
                     block: Sequence = ()) -> VecBasis:
    """The completed, unreduced basis of `block` and the graph of
    e_j -> vecs[j], generated by (vecs[j], e_(rank + j)) in the free module
    of rank rank + len(vecs), whose tag block sits below every original one."""
    shift = ring.codec.shift
    tagged = [{**v, -((rank + j) << shift): ring.domain.one()} for j, v in enumerate(vecs)]
    return completion(tagged, ring, budget, block).basis


def vec_lift(target: dict, vecs: Sequence, rank: int, ring: PolynomialRing,
             budget: Budget) -> Optional[list]:
    """Polynomials h with target = sum h_j vecs[j], or None if no member:
    the normal form of target against the graph of e_j -> vecs[j]."""
    graph = _interreduce(graph_completion(vecs, rank, ring, budget), budget)
    r = vec_normal_form(target, graph, budget)
    shift = ring.codec.shift
    if r and max(r) >= (1 - rank) << shift:  # a term in a position below rank
        return None
    dom, offset = ring.domain, rank << shift
    return list(vec_to_polys({k + offset: dom.neg(c) for k, c in r.items()},
                             len(vecs), ring))


def groebner_basis_of_polys(ambient: PolynomialRing, polys: Sequence,
                            budget: Budget = None) -> VecBasis:
    """The canonical Groebner basis of <polys> in the ambient ring: reduced
    monic over fields, normalized strong basis over ZZ."""
    budget = ensure_budget(budget)
    for p in polys:
        if p.ring != ambient:
            raise StructuralError("generator from a different ambient ring")
    vecs = [poly_to_vec(p) for p in polys if not p.is_zero]
    return vec_groebner(vecs, ambient, budget)


def normal_form_polys(f: Polynomial, G: VecBasis,
                      budget: Budget = None) -> Polynomial:
    if f.ring != G.ring:
        raise StructuralError(
            f"normal form order/ring mismatch: {f.ring} with order {f.ring.order} "
            f"vs basis over {G.ring} with order {G.ring.order}")
    budget = ensure_budget(budget)
    r = vec_normal_form(poly_to_vec(f), G, budget)
    return vec_to_polys(r, 1, G.ring)[0]


# ---------------------------------------------------------------------------
# Unit-ideal decision with certificate

class UnitIdealResult:
    def __init__(self, is_unit: bool, cofactors: Optional[tuple] = None):
        self.is_unit = is_unit
        self.cofactors = cofactors

    def __bool__(self):
        return self.is_unit


def is_unit_ideal(I: IdealPresentation, budget: Budget = None) -> UnitIdealResult:
    """Decide 1 in I + J by `vec_lift` alone; on success return cofactors g_i
    over I's generators with sum g_i a_i = 1 in R, verified by re-multiplication."""
    budget = ensure_budget(budget)
    ambient = I.ring.ambient
    gens = I.generators + I.ring.relations
    lifted = vec_lift(poly_to_vec(ambient.one()),
                      [poly_to_vec(g) for g in gens], 1, ambient, budget)
    if lifted is None:
        return UnitIdealResult(False)
    cof = tuple(lifted[:len(I.generators)])
    total = ambient.zero()
    for c, a in zip(lifted, gens):
        total = total + c * a
    if not I.ring.is_zero_element(total - ambient.one(), budget):
        raise InternalError("internal: unit certificate failed re-multiplication")
    return UnitIdealResult(True, cof)


# ---------------------------------------------------------------------------
# Intersection, colon, annihilator

def ideal_intersection_polys(ambient: PolynomialRing, gens_a: Sequence,
                             gens_b: Sequence, budget: Budget = None) -> list:
    """Generators of <gens_a> cap <gens_b> in the ambient polynomial ring:
    (a, a) and (b, 0) generate a submodule of A^2 that meets 0 + A in
    0 + (<gens_a> cap <gens_b>), and position over term eliminates position
    0, so its Groebner basis elements led in position 1 generate the meet."""
    budget = ensure_budget(budget)
    vecs = [{**poly_to_vec(a), **poly_to_vec(a, 1)} for a in gens_a if not a.is_zero]
    vecs += [poly_to_vec(b) for b in gens_b if not b.is_zero]
    G = vec_groebner(vecs, ambient, budget)
    return [vec_to_polys(v, 2, ambient)[1] for v, lt in zip(G.vecs, G.lts) if lt < 0]


def exact_poly_div(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f when f divides g exactly in the ambient ring."""
    ring = g.ring
    dom = ring.domain
    if f.is_zero:
        raise StructuralError("division by the zero polynomial")
    codec = ring.codec
    fv = poly_to_vec(f)
    fm = max(fv)
    fc = fv.pop(fm)
    work = poly_to_vec(g)
    out = {}
    while work:
        m = max(work)
        codec.check(m)
        c = work.pop(m)
        if not codec.divides(fm, m):
            raise StructuralError("inexact polynomial division")
        q = m - fm
        qc = dom.exact_div(c, fc)
        out[q] = qc
        for m2, c2 in fv.items():
            k = m2 + q
            nc = dom.sub(work.get(k, dom.zero()), dom.mul(qc, c2))
            if nc == dom.zero():
                work.pop(k, None)
            else:
                work[k] = nc
    return vec_to_polys(out, 1, ring)[0]


def _colon(ring: RingPresentation, divisors: Sequence, budget: Budget) -> tuple:
    """Reduced generators of (J : <divisors>) mod J, for nonzero divisors:
    the intersection over f of (J cap <f>) / f in the ambient ring.

    The generators of each running intersection are reduced modulo J once,
    and the loop stops when they all reduce to zero.  The stop is exact:
    every later intersection lies inside that one, and J lies inside every
    (J : f), so the full loop would reduce to () as well.
    """
    ambient = ring.ambient
    current: Optional[list] = None
    for f in divisors:
        meet = ideal_intersection_polys(ambient, ring.relations, [f], budget)
        try:
            q = [exact_poly_div(p, f) for p in meet]
        except CapExceededError:
            raise
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


def annihilator(I: IdealPresentation, budget: Budget = None) -> IdealPresentation:
    """Ann_R(I) = (J : <gens I>) mod J; the zero ideal exactly when I is dense,
    and R when I is the zero ideal.

    Computed by intersections in A^2 (`_colon`), one generator at a time,
    and stopped once the annihilator of the generators so far is zero in
    R: the annihilator of more generators lies inside it.  The generators
    are the columns of I's kept cyclic presentation (`complexes.ext_computer`).
    """
    from .complexes import ext_computer
    budget = ensure_budget(budget)
    ring = I.ring
    gens = [g for (g,) in ext_computer(I).cyclic_presentation(budget).generators]
    if not gens:
        return IdealPresentation(ring, (ring.ambient.one(),))
    return IdealPresentation(ring, _colon(ring, gens, budget))


# ---------------------------------------------------------------------------
# Krull dimension over field coefficients

def krull_dimension(R: RingPresentation, budget: Budget = None) -> int:
    """dim A[x1..xn]/J as the largest variable set independent modulo the
    initial ideal of J (field coefficients only); one step per set tested.
    The ring keeps the value, so only its first search takes steps.

    A variable with a pure power among the leading monomials lies in no
    independent set, so only the others are searched: a zero-dimensional
    in(J) holds a pure power of every variable and takes one test."""
    budget = ensure_budget(budget)
    if not R.domain.is_field:
        raise UnsupportedDomainError(
            "Krull dimension is only computed over field coefficients")
    if R.is_zero_ring(budget):
        raise StructuralError("the zero ring has empty spectrum")
    if R.dimension is None:
        R.dimension = _independent_set_size(R, budget)
    return R.dimension


def _independent_set_size(R: RingPresentation, budget: Budget) -> int:
    """The size of the largest variable set independent modulo in(J)."""
    n = R.ambient.nvars
    G = R.relations_groebner(budget)
    decode = R.ambient.codec.decode
    supports = [frozenset(i for i, e in enumerate(decode(lt)) if e > 0) for lt in G.lts]
    free = [i for i in range(n) if frozenset((i,)) not in supports]
    for size in range(len(free), -1, -1):
        for subset in combinations(free, size):
            budget.tick()
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return 0
