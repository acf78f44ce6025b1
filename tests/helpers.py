"""Shared test helpers: ring shortcuts, brute-force oracles (exact linear
algebra for syzygies, monomial sweeps for membership), a direct
Groebner-property checker that reduces every S- and G-polynomial, a
rescanning reference for the vector normal form, the Polynomial-matrix
path of the module layer, the colon without its early stop, the row loop
for finite-ring annihilators, and a pure-Python build of finite quotient-ring
tables."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from fpdlab import (CoefficientDomain, GroebnerBasis, Polynomial,
                    PolynomialRing, RingPresentation, SubmodulePresentation,
                    normal_form_polys)
from fpdlab.groebner import (_term_key, _xgcd, exact_poly_div,
                             ideal_intersection_polys, vec_to_polys)
from fpdlab.rings import mono_div, mono_lcm, mono_mul

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


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial (with lcm coefficients over ZZ)."""
    dom = f.ring.domain
    u, v = f.leading_monomial(), g.leading_monomial()
    a, b = f.leading_coefficient(), g.leading_coefficient()
    w = mono_lcm(u, v)
    if dom.is_field:
        return (f.mul_monomial(mono_div(w, u)).scale(dom.inv(a))
                - g.mul_monomial(mono_div(w, v)).scale(dom.inv(b)))
    l = a * b // _xgcd(a, b)[0]
    return (f.mul_monomial(mono_div(w, u)).scale(l // a)
            - g.mul_monomial(mono_div(w, v)).scale(l // b))


def gpolynomial(f: Polynomial, g: Polynomial):
    """The gcd-polynomial over ZZ; None when one lead coefficient divides the other."""
    u, v = f.leading_monomial(), g.leading_monomial()
    a, b = f.leading_coefficient(), g.leading_coefficient()
    if a % b == 0 or b % a == 0:
        return None
    _, s, t = _xgcd(a, b)
    w = mono_lcm(u, v)
    return (f.mul_monomial(mono_div(w, u)).scale(s)
            + g.mul_monomial(mono_div(w, v)).scale(t))


def assert_is_groebner(G: GroebnerBasis):
    """Every S-polynomial (and G-polynomial over ZZ) reduces to zero."""
    basis = G.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = spolynomial(basis[i], basis[j])
            assert normal_form_polys(s, G).is_zero, \
                f"S-poly of {basis[i]} and {basis[j]} does not reduce to zero"
            if not G.ambient.domain.is_field:
                g = gpolynomial(basis[i], basis[j])
                if g is not None:
                    assert normal_form_polys(g, G).is_zero, \
                        f"G-poly of {basis[i]} and {basis[j]} does not reduce to zero"


def reference_normal_form(v: dict, basis, budget) -> dict:
    """`groebner.vec_normal_form` without its lead-position index or its
    per-call key table: every term scans the whole basis in order, and each
    selection recomputes the order key of every remaining term.  The answer
    and the budget ticks must match the indexed version exactly."""
    ring = basis.ring
    dom = ring.domain
    field = dom.is_field
    tkey = _term_key(ring)
    vecs, lts, lcs = basis.vecs, basis.lts, basis.lcs
    n = len(vecs)
    work = dict(v)
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
    return rem

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
    return reference_normalize(phi.ring, phi.columns(), budget)


def reference_kernel(phi, budget) -> tuple:
    """The generators of `modules.kernel` as it built them from tuples of
    polynomials: the graph's columns as polynomial tuples, and each kernel
    element cut from the graph's Groebner basis and normalized entry by
    entry."""
    ring, r, n = phi.ring, phi.target_rank, phi.source_rank
    one, zero = ring.ambient.one(), ring.ambient.zero()
    graph = SubmodulePresentation(ring, r + n, [
        col + tuple(one if k == j else zero for k in range(n))
        for j, col in enumerate(phi.columns())])
    gens = []
    for g in graph.groebner_vectors(budget).vecs:
        if any(pos < r for pos, _ in g):
            continue
        entries = vec_to_polys({(pos - r, m): c for (pos, m), c in g.items()},
                               n, ring.ambient)
        reduced = tuple(ring.normal_form(p, budget) for p in entries)
        if any(not p.is_zero for p in reduced):
            gens.append(reduced)
    return tuple(gens)


def reference_colon(ring: RingPresentation, pre, divisors, budget) -> tuple:
    """`groebner._colon` without its stop: the intersection over every divisor
    f of (<pre> cap <f>) / f, each step an elimination, reduced modulo J once
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
                for cm, cc in col[t].terms:
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
