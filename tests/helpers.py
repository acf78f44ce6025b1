"""Shared test helpers: ring shortcuts, brute-force oracles (exact linear
algebra for syzygies, monomial sweeps for membership), a direct
Groebner-property checker that reduces every S- and G-vector, a completion
that eliminates no pair, the two-step interreduction, a rescanning
reference for the vector normal form, the Polynomial-matrix path of the
module layer, the intersection of two ideals by eliminating a fresh
variable, the colon without its early stop, the row loop for
finite-ring annihilators, the frozenset sweep over finite-ring ideals, a
pure-Python build of finite quotient-ring tables, and whole free
resolutions and their duals as `ChainComplex`es."""
from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product

from fpdlab import (LEX, ChainComplex, CoefficientDomain, FreeModuleMap,
                    InternalError, PolynomialRing, RingPresentation,
                    StructuralError)
from fpdlab.complexes import cyclic_presentation
from fpdlab.errors import ensure_budget
from fpdlab.groebner import (Completion, VecBasis, _interreduce, _xgcd,
                             exact_poly_div, groebner_basis_of_polys,
                             ideal_intersection_polys, polys_to_vec,
                             vec_normal_form, vec_to_polys)
from fpdlab.modules import kernel, prune_generators
from fpdlab.rings import GREVLEX_KIND, LEX_KIND

QQ = CoefficientDomain.QQ()
ZZ = CoefficientDomain.ZZ()


def FF(p):
    return CoefficientDomain.FF(p)


def poly_ring(domain, *variables, order=None):
    from fpdlab import GREVLEX
    return PolynomialRing(domain, tuple(variables), order or GREVLEX)


def presentation(domain, variables, relations=()):
    ambient = poly_ring(domain, *variables)
    return RingPresentation(ambient, [ambient.poly(r) for r in relations])


def monomials_up_to(ring: PolynomialRing, max_degree: int):
    """All monomials of the ambient ring with total degree <= max_degree."""
    n = ring.nvars
    out = []
    for exps in product(range(max_degree + 1), repeat=n):
        if sum(exps) <= max_degree:
            out.append(exps)
    return out


# Exponent tuples, independent of the engine's monomial codes: the reference
# engines below work on vectors {(position, exponents): coefficient}, and
# meet the engine only through `encode_vec` and `decode_vec`.

def mono_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def mono_div(v, u):
    """v / u, or None when u does not divide v."""
    if any(a > b for a, b in zip(u, v)):
        return None
    return tuple(b - a for a, b in zip(u, v))


def mono_divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def mono_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def order_key(order, m):
    """The reference monomial order, on exponent tuples: an ascending sort
    key of m under `order`, independent of the codec's weights.  Grevlex
    compares the degree, then the negated exponents from the last; lex
    compares left to right."""
    if order.kind == GREVLEX_KIND:
        return (sum(m), tuple(-e for e in reversed(m)))
    assert order.kind == LEX_KIND
    return tuple(m)


def term_key(ring: PolynomialRing):
    """The ascending sort key of a term (position, exponents): position over
    term, the lower position dominating."""
    order = ring.order
    return lambda k: (-k[0], order_key(order, k[1]))


def decoded_terms(p) -> tuple:
    """A polynomial's terms as (exponent tuple, coefficient) pairs."""
    decode = p.ring.codec.decode
    return tuple((decode(m), c) for m, c in p.terms)


def encode_term(ring: PolynomialRing, pos: int, m) -> int:
    """The engine's key of the term x^m in position pos."""
    return ring.codec.encode(m) - (pos << ring.codec.shift)


def decode_term(ring: PolynomialRing, key: int) -> tuple:
    """(position, exponents) of an engine key."""
    return ring.codec.position(key), ring.codec.decode(key)


def decode_vec(vec: dict, ring: PolynomialRing) -> dict:
    """An engine vector as {(position, exponents): coefficient}."""
    return {decode_term(ring, k): c for k, c in vec.items()}


def encode_vec(vec: dict, ring: PolynomialRing) -> dict:
    """{(position, exponents): coefficient} as an engine vector."""
    return {encode_term(ring, pos, m): c for (pos, m), c in vec.items()}


def decode_basis(B: VecBasis) -> tuple:
    """(vectors, leads) of a `VecBasis`, decoded."""
    return ([decode_vec(v, B.ring) for v in B.vecs],
            [decode_term(B.ring, lt) for lt in B.lts])


def _shifted(v: dict, q, c, dom) -> dict:
    """c * x^q * v for a decoded vector v."""
    return {(pos, mono_mul(m, q)): dom.mul(c, a) for (pos, m), a in v.items()}


def _vec_sum(u: dict, w: dict, dom) -> dict:
    out = dict(u)
    for k, c in w.items():
        out[k] = dom.add(out.get(k, dom.zero()), c)
    return {k: c for k, c in out.items() if c != dom.zero()}


def _pair_vector(u: dict, v: dict, su, sv, ring: PolynomialRing) -> dict:
    """su * x^(w/mu) * u + sv * x^(w/mv) * v for decoded vectors with leads
    mu and mv in one position, w = lcm(mu, mv)."""
    tkey = term_key(ring)
    (_, mu), (_, mv) = max(u, key=tkey), max(v, key=tkey)
    w = mono_lcm(mu, mv)
    dom = ring.domain
    return _vec_sum(_shifted(u, mono_div(w, mu), su, dom),
                    _shifted(v, mono_div(w, mv), sv, dom), dom)


def pair_vectors(u: dict, v: dict, ring: PolynomialRing) -> list:
    """The S-vector of two engine vectors led in one position (lcm
    coefficients over ZZ, monic over fields) and, over ZZ, their G-vector
    when neither lead coefficient divides the other; built on exponent
    tuples from the vectors alone, without the engine's lead data."""
    dom = ring.domain
    u, v = decode_vec(u, ring), decode_vec(v, ring)
    tkey = term_key(ring)
    a, b = u[max(u, key=tkey)], v[max(v, key=tkey)]
    if dom.is_field:
        pairs = [(dom.inv(a), dom.neg(dom.inv(b)))]
    else:
        g, s, t = _xgcd(a, b)
        l = a * b // g
        pairs = [(l // a, -(l // b))] + ([(s, t)] if a % b and b % a else [])
    return [encode_vec(_pair_vector(u, v, su, sv, ring), ring) for su, sv in pairs]


def assert_is_vec_groebner(B, budget=None):
    """Every S-vector (and G-vector over ZZ) of two elements of the
    `VecBasis` B led in one position reduces to zero against B."""
    budget = ensure_budget(budget)
    position = B.ring.codec.position
    for i in range(len(B)):
        for j in range(i + 1, len(B)):
            if position(B.lts[i]) != position(B.lts[j]):
                continue
            for s in pair_vectors(B.vecs[i], B.vecs[j], B.ring):
                assert not vec_normal_form(s, B, budget), \
                    f"a pair vector of {B.vecs[i]} and {B.vecs[j]} does not reduce to zero"


def basis_polys(G: VecBasis) -> list:
    """The elements of a polynomial basis (all led in position 0) as
    polynomials."""
    return [vec_to_polys(v, 1, G.ring)[0] for v in G.vecs]


def reference_prune_text(v: dict, rank: int, ring: PolynomialRing) -> str:
    """The tie-break key `modules.prune_generators` had before its per-entry
    texts: the text of the generator as a tuple of polynomials, the ring's
    text rendered in each entry's repr."""
    return str(vec_to_polys(v, rank, ring))


def _all_pairs(basis, heap: list, f: int, marked):
    """Every pair of leads in one position, plus a G-pair over ZZ when neither
    lead coefficient divides the other: the pair rule of both engines before
    pair elimination; `marked` is ignored."""
    ring = basis.ring
    okey = lambda m: order_key(ring.order, m)
    field = ring.domain.is_field
    fpos, fm = decode_term(ring, basis.lts[f])
    a = basis.lcs[f]
    for i in basis.at[fpos][:-1]:
        w = mono_lcm(decode_term(ring, basis.lts[i])[1], fm)
        heapq.heappush(heap, (sum(w), fpos, okey(w), i, f, 0))
        b = basis.lcs[i]
        if not field and a % b and b % a:
            heapq.heappush(heap, (sum(w), fpos, okey(w), i, f, 1))


def _all_pairs_s_vector(basis, entry: tuple) -> dict:
    i, j, gpair = entry[3:]
    ring = basis.ring
    dom = ring.domain
    if dom.is_field:
        su, sv = dom.one(), dom.neg(dom.one())
    else:
        a, b = basis.lcs[i], basis.lcs[j]
        g, s, t = _xgcd(a, b)
        su, sv = (s, t) if gpair else (a * b // g // a, -(a * b // g // b))
    u, v = decode_vec(basis.vecs[i], ring), decode_vec(basis.vecs[j], ring)
    return encode_vec(_pair_vector(u, v, su, sv, ring), ring)


class ReferenceCompletion(Completion):
    """`groebner.Completion` with no pair eliminated: every S-pair (and every
    G-pair over ZZ) of two leads in one position is reduced, those inside the
    relation block included."""

    def push_pairs(self, f: int):
        _all_pairs(self.basis, self.heap, f, self.marked)

    def s_vector(self, entry: tuple) -> dict:
        return _all_pairs_s_vector(self.basis, entry)


def reference_vec_groebner(vecs, ring: PolynomialRing, budget, block=()):
    """The canonical basis `vec_groebner` must return, from
    `ReferenceCompletion`."""
    budget = ensure_budget(budget)
    return _interreduce(ReferenceCompletion(vecs, ring, budget, block=block).basis,
                        budget)


def _minimalize(basis: VecBasis) -> VecBasis:
    """The elements whose leads no other lead dominates, in ascending lead
    order (ties over ZZ by ascending |lead coefficient|), as a new basis."""
    ring = basis.ring
    tkey = term_key(ring)
    term = lambda k: decode_term(ring, k)
    # a field basis is monic, so its ties and divisibility tests are trivial
    idx = sorted(range(len(basis)),
                 key=lambda i: (tkey(term(basis.lts[i])), abs(basis.lcs[i])))
    kept = VecBasis([], ring)
    for i in idx:
        pos, m = term(basis.lts[i])
        a = basis.lcs[i]
        if not any(mono_divides(term(kept.lts[j])[1], m) and a % kept.lcs[j] == 0
                   for j in kept.at.get(pos, ())):
            kept.append(basis.vecs[i], basis.lts[i])
    return kept


def reference_interreduce(basis: VecBasis, budget) -> VecBasis:
    """`groebner._interreduce` as two steps: minimalization, then tail
    reduction of every element in place against the whole basis, in
    ascending lead order, with a second pass that confirms the first."""
    basis = _minimalize(basis)

    def sweep() -> bool:
        changed = False
        for i, lt in enumerate(basis.lts):
            v = basis.vecs[i]
            tail = {k: c for k, c in v.items() if k != lt}
            if not tail:
                continue
            new = {lt: v[lt]}
            new.update(reference_normal_form(tail, basis, budget))
            if new != v:
                basis.vecs[i] = new
                changed = True
        return changed

    if sweep() and sweep():
        raise InternalError("internal: interreduction failed to stabilize")
    return basis


def reference_normal_form(v: dict, basis, budget) -> dict:
    """`groebner.vec_normal_form` on exponent tuples, without its
    lead-position index or its heap: every term scans the whole basis in
    order, and each selection recomputes the order key of every remaining
    term.  It takes and returns engine vectors, decoded on entry and encoded
    on exit.  The answer and the budget ticks must match the indexed
    version exactly."""
    ring = basis.ring
    dom = ring.domain
    field = dom.is_field
    tkey = term_key(ring)
    vecs, lts = decode_basis(basis)
    lcs = basis.lcs
    n = len(vecs)
    work = decode_vec(v, ring)
    rem = {}
    while work:
        k = max(work, key=tkey)
        c = work.pop(k)
        pos, m = k
        reduced = False
        for j in range(n):
            bpos, bm = lts[j]
            if bpos != pos:
                continue
            q = mono_div(m, bm)
            if q is None:
                continue
            budget.tick()
            if field:
                for bk, bc in vecs[j].items():
                    if bk == lts[j]:
                        continue
                    kk = (bk[0], mono_mul(bk[1], q))
                    nc = dom.sub(work.get(kk, dom.zero()), dom.mul(c, bc))
                    if nc == dom.zero():
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
                if bk == lts[j]:
                    continue
                kk = (bk[0], mono_mul(bk[1], q))
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
    return encode_vec(rem, ring)

def reference_normalize(ring: RingPresentation, matrix, budget) -> tuple:
    """Every entry of a matrix reduced modulo J on its own: the per-entry
    normal form that `FreeModuleMap` replaced by one normal form per column.
    The entries and the budget ticks must match the column version exactly."""
    return tuple(tuple(ring.normal_form(ring.poly(e), budget) for e in row)
                 for row in matrix)


def reference_compose(phi, psi, budget) -> tuple:
    """The matrix of phi after psi as `FreeModuleMap.compose` built it on
    matrices of polynomials: each entry summed in Polynomial arithmetic over
    every product, zero operands included, then normalized on its own."""
    zero = phi.ring.ambient.zero()
    matrix = []
    for t in range(phi.target_rank):
        row = []
        for j in range(psi.source_rank):
            acc = zero
            for k in range(phi.source_rank):
                acc = acc + phi.matrix[t][k] * psi.matrix[k][j]
            row.append(acc)
        matrix.append(row)
    return reference_normalize(phi.ring, matrix, budget)


def reference_transpose(phi, budget) -> tuple:
    """The transposed matrix, normalized entry by entry."""
    return reference_normalize(phi.ring, phi.generators, budget)


def reference_kernel(phi, budget) -> tuple:
    """The generators of `modules.kernel` as it built them from tuples of
    polynomials: the graph's columns as polynomial tuples, and each kernel
    element cut from the graph's Groebner basis and normalized entry by
    entry."""
    ring, r, n = phi.ring, phi.target_rank, phi.source_rank
    one, zero = ring.ambient.one(), ring.ambient.zero()
    graph = FreeModuleMap._of_reduced(ring, r + n, [
        polys_to_vec(col + tuple(one if k == j else zero for k in range(n)))
        for j, col in enumerate(phi.generators)])
    gens = []
    for g in graph.groebner_vectors(budget).vecs:
        g = decode_vec(g, ring.ambient)
        if any(pos < r for pos, _ in g):
            continue
        split = [{} for _ in range(n)]
        for (pos, m), c in g.items():
            split[pos - r][m] = c
        entries = [ring.ambient.from_dict(d) for d in split]
        reduced = tuple(ring.normal_form(p, budget) for p in entries)
        if any(not p.is_zero for p in reduced):
            gens.append(reduced)
    return tuple(gens)


def reference_intersection(ambient: PolynomialRing, gens_a, gens_b, budget) -> list:
    """<gens_a> cap <gens_b> by t-elimination, the route that
    `groebner.ideal_intersection_polys` replaced: the elements free of t in
    the Groebner basis of t*<gens_a> + (1 - t)*<gens_b> in A[t, x], under
    lex with the fresh variable t first (an elimination order for t)."""
    t_name = "_t"
    while t_name in ambient.variables:
        t_name += "_"
    ext = PolynomialRing(ambient.domain, (t_name,) + ambient.variables, LEX)
    lift = lambda p: ext.from_dict({(0,) + m: c for m, c in decoded_terms(p)})
    t = ext.variable(t_name)
    gens = [t * lift(a) for a in gens_a] + [(1 - t) * lift(b) for b in gens_b]
    out = []
    for p in basis_polys(groebner_basis_of_polys(ext, gens, budget)):
        terms = decoded_terms(p)
        if all(m[0] == 0 for m, _ in terms):
            out.append(ambient.from_dict({m[1:]: c for m, c in terms}))
    return out


def reference_colon(ring: RingPresentation, pre, divisors, budget) -> tuple:
    """`groebner._colon` without its stop: the intersection over every divisor
    f of (<pre> cap <f>) / f, each step an intersection, reduced modulo J once
    at the end."""
    ambient = ring.ambient
    current = None
    for f in divisors:
        q = [exact_poly_div(p, f)
             for p in ideal_intersection_polys(ambient, pre, [f], budget)]
        current = q if current is None else ideal_intersection_polys(
            ambient, current, q, budget)
    reduced = []
    for g in current:
        r = ring.normal_form(g, budget)
        if not r.is_zero and r not in reduced:
            reduced.append(r)
    return tuple(reduced)


def reference_annihilator_set(R, subset) -> frozenset:
    """`finite_rings.annihilator_set` as the loop over the multiplication
    table's rows that its array test replaced."""
    return frozenset(r for r in range(R.order)
                     if all(R.mul[r][a] == R.zero for a in subset))


def reference_all_ideals(R, budget) -> list:
    """`finite_rings._all_ideals` as the breadth-first sweep over frozensets
    that its coset-label batches replaced: one `tick_coarse` per principal
    row chunk and per sum I + P with P not inside I, each sum read off the
    addition table pair by pair."""
    from fpdlab.finite_rings import _row_chunks
    principals = {}
    for s, e in _row_chunks(R.order, R.order):
        budget.tick_coarse()
        principals.update(dict.fromkeys(map(frozenset, R.mul[s:e].tolist())))
    add = R.add.tolist()
    found = {frozenset({R.zero})}
    queue = [frozenset({R.zero})]
    while queue:
        I = queue.pop()
        for P in principals:
            if P <= I:
                continue
            budget.tick_coarse()
            J = frozenset(add[i][p] for i in I for p in P)
            if J not in found:
                found.add(J)
                queue.append(J)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def reference_quotient_tables(n: int, modulus_coeffs, variable: str = "x") -> dict:
    """The tables of ZZ/n[x]/(f), f monic and given by little-endian
    coefficients, built element by element with a polynomial product that is
    reduced from the top degree down: the build that `FiniteRing.quotient`
    replaced by array arithmetic.  Returns labels, add, mul (tuples of row
    tuples), zero, one, neg and element_coeffs."""
    coeffs = [c % n for c in modulus_coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert len(coeffs) >= 2 and coeffs[-1] == 1, "a monic relation of degree >= 1"
    d = len(coeffs) - 1
    elems = []
    for i in range(n ** d):
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

    add = tuple(tuple(index[tuple((a + b) % n for a, b in zip(u, v))] for v in elems)
                for u in elems)
    mul = tuple(tuple(index[poly_mul(u, v)] for v in elems) for u in elems)
    zero = index[(0,) * d]
    one = index[(1 % n,) + (0,) * (d - 1)]
    return {"labels": tuple(label(t) for t in elems), "add": add, "mul": mul,
            "zero": zero, "one": one,
            "neg": tuple(add[a].index(zero) for a in range(len(elems))),
            "element_coeffs": tuple(elems)}


def fraction_nullspace(rows, ncols):
    """Basis of {v : A v = 0} over QQ by Gaussian elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(tuple(v))
    return basis


def brute_linear_syzygies(ring: PolynomialRing, columns, max_degree: int):
    """All syzygies among the columns with entries of degree <= max_degree,
    found by exact linear algebra (independent of any Groebner code).

    `columns` are tuples of polynomials (a free-module element each); the
    result is a list of tuples of polynomials h with sum h_j col_j = 0.
    """
    assert ring.domain.kind == "rationals"
    monos = monomials_up_to(ring, max_degree)
    k = len(columns)
    target_rank = len(columns[0])
    unknowns = k * len(monos)
    row_index = {}
    rows = []

    def row_for(key):
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append([Fraction(0)] * unknowns)
        return row_index[key]

    for j, col in enumerate(columns):
        for mi, m in enumerate(monos):
            var = j * len(monos) + mi
            for t in range(target_rank):
                for cm, cc in decoded_terms(col[t]):
                    prod_m = tuple(a + b for a, b in zip(m, cm))
                    rows[row_for((t, prod_m))][var] += Fraction(cc)
    out = []
    for v in fraction_nullspace(rows, unknowns):
        hs = []
        for j in range(k):
            coeffs = {}
            for mi, m in enumerate(monos):
                c = v[j * len(monos) + mi]
                if c != 0:
                    coeffs[m] = c
            hs.append(ring.from_dict(coeffs))
        out.append(tuple(hs))
    return out


def dualize(C: ChainComplex, budget=None) -> ChainComplex:
    """Hom(-, R): arrows reversed, matrices transposed, d.d = 0 re-verified."""
    L = C.length
    ranks = tuple(reversed(C.ranks))
    diffs = [C.diffs[L - 1 - j].transpose() for j in range(L)]
    return ChainComplex(C.ring, ranks, diffs, budget)


def free_resolution(presentation, length: int, budget=None) -> ChainComplex:
    """A free resolution of coker(presentation) out to F_length (not minimal);
    the `ChainComplex` checks d.d = 0 once, on construction."""
    if length < 0:
        raise StructuralError("resolution length must be >= 0")
    budget = ensure_budget(budget)
    diffs = [presentation] if length else []
    while len(diffs) < length:
        diffs.append(prune_generators(kernel(diffs[-1], budget), budget))
    ranks = [presentation.target_rank] + [d.source_rank for d in diffs]
    try:
        return ChainComplex(presentation.ring, ranks, diffs, budget)
    except StructuralError as exc:
        raise InternalError(f"internal: free resolution: {exc}") from exc


def free_resolution_of_quotient(I, length: int, budget=None) -> ChainComplex:
    return free_resolution(cyclic_presentation(I, budget), length, budget)
