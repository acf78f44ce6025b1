"""Free modules over R = A[x]/J: maps, their images, kernels, subquotient
tests.

A free-module element is an engine vector {key: coefficient}, a key being
a position and a monomial in the ring's codec (see `groebner`).  A map
keeps one such vector per column, reduced modulo J*e_t, and a submodule is
the image of a map: its columns are the generators.  Tuples of `Polynomial`s, one entry per position, appear only at
the public edges: the constructor, `matrix`, `generators` and `contains`.
All submodule computations happen in the ambient ring with the relation
multiples J*e_i adjoined, so membership and syzygies are taken over R.
"""
from __future__ import annotations

from itertools import groupby
from typing import Sequence

from .errors import Budget, StructuralError, ensure_budget
from .groebner import (VecBasis, completion, graph_groebner, poly_to_vec,
                       polys_to_vec, vec_groebner, vec_normal_form, vec_to_polys)
from .rings import PolynomialRing, RingPresentation


def _relation_block(ring: RingPresentation, rank: int, budget: Budget) -> VecBasis:
    """J*e_t for t < rank as one basis: at each position J's Groebner basis
    in its own order, the reducers one entry meets modulo J.  It reduces a
    whole vector entry by entry, and module completions take it as their
    `block`, whose internal pairs they never queue."""
    G = ring.relations_groebner(budget)
    shift = ring.ambient.codec.shift
    block = VecBasis([], ring.ambient)
    for t in range(rank):
        offset = t << shift
        for v, lt in zip(G.vecs, G.lts):
            block.append({k - offset: c for k, c in v.items()}, lt - offset)
    return block


def _normal_forms(ring: RingPresentation, rank: int, cols: Sequence,
                  budget: Budget) -> Sequence:
    """The vectors `cols` of R^rank reduced modulo J*e_t."""
    if not cols or not rank:
        return cols
    block = _relation_block(ring, rank, budget)
    budget = ensure_budget(budget)
    return [vec_normal_form(c, block, budget) if c else c for c in cols]


def _combine(cols: Sequence, vec: dict, ring: RingPresentation) -> dict:
    """The sum of c*x^m*cols[k] over the terms c*x^m*e_k of vec."""
    dom = ring.domain
    add, mul, zero = dom.add, dom.mul, dom.zero()
    codec = ring.ambient.codec
    shift, mask = codec.shift, codec.mask
    out = {}
    for k2, c2 in vec.items():
        m2 = k2 & mask
        for k1, c1 in cols[-(k2 >> shift)].items():
            key = k1 + m2
            prev = out.get(key)
            out[key] = mul(c1, c2) if prev is None else add(prev, mul(c1, c2))
    return {k: c for k, c in out.items() if c != zero}


class FreeModuleMap:
    """A map R^source -> R^target, kept as its source_rank columns: vectors
    of R^target in normal form modulo J*e_t.  The columns generate the
    map's image; its Groebner data always adjoins the relation multiples
    J*e_t, so `reduce` and `contains` decide membership over R."""

    def __init__(self, ring: RingPresentation, source_rank: int, target_rank: int,
                 matrix: Sequence, budget: Budget = None):
        """From a target x source matrix of polynomials or texts."""
        if len(matrix) != target_rank:
            raise StructuralError(f"expected {target_rank} rows, got {len(matrix)}")
        cols = [{} for _ in range(source_rank)]
        for t, row in enumerate(matrix):
            if len(row) != source_rank:
                raise StructuralError(f"expected {source_rank} columns, got {len(row)}")
            for j, e in enumerate(row):
                cols[j].update(poly_to_vec(ring.poly(e), t))
        self._set(ring, target_rank, _normal_forms(ring, target_rank, cols, budget))

    def _set(self, ring: RingPresentation, target_rank: int, cols: Sequence):
        self.ring = ring
        self.source_rank = len(cols)
        self.target_rank = target_rank
        self.cols = tuple(cols)
        self._gb = None

    @classmethod
    def of_vectors(cls, ring: RingPresentation, target_rank: int, cols: Sequence,
                   budget: Budget = None) -> "FreeModuleMap":
        """The map whose columns are the vectors `cols` of R^target_rank."""
        return cls._of_reduced(ring, target_rank,
                               _normal_forms(ring, target_rank, cols, budget))

    @classmethod
    def _of_reduced(cls, ring: RingPresentation, target_rank: int,
                    cols: Sequence) -> "FreeModuleMap":
        """The map whose columns are the vectors `cols`, taken as they are:
        for vectors that need no reduction modulo J*e_t."""
        phi = cls.__new__(cls)
        phi._set(ring, target_rank, cols)
        return phi

    @property
    def generators(self) -> tuple:
        """The columns, each a tuple of target_rank polynomials."""
        return tuple(vec_to_polys(c, self.target_rank, self.ring.ambient)
                     for c in self.cols)

    @property
    def matrix(self) -> tuple:
        gens = self.generators
        return tuple(tuple(g[t] for g in gens) for t in range(self.target_rank))

    def transpose(self) -> "FreeModuleMap":
        """The transposed map: its entries are this map's, normal already."""
        codec = self.ring.ambient.codec
        shift, mask = codec.shift, codec.mask
        cols = [{} for _ in range(self.target_rank)]
        for j, col in enumerate(self.cols):
            offset = j << shift
            for k, c in col.items():
                cols[-(k >> shift)][(k & mask) - offset] = c
        return FreeModuleMap._of_reduced(self.ring, self.source_rank, cols)

    def compose(self, other: "FreeModuleMap", budget: Budget = None) -> "FreeModuleMap":
        """self after other (rank-compatible)."""
        if self.ring != other.ring:
            raise StructuralError("composition across different rings")
        if self.source_rank != other.target_rank:
            raise StructuralError(
                f"composition rank mismatch: {self.source_rank} vs {other.target_rank}")
        return FreeModuleMap.of_vectors(
            self.ring, self.target_rank,
            [_combine(self.cols, col, self.ring) for col in other.cols], budget)

    def is_zero(self) -> bool:
        # every column is in normal form modulo J
        return not any(self.cols)

    def groebner_vectors(self, budget: Budget = None) -> VecBasis:
        """Canonical Groebner basis of the image + J*e_t (cached; `kernel` fills it)."""
        if self._gb is None:
            budget = ensure_budget(budget)
            block = _relation_block(self.ring, self.target_rank, budget)
            self._gb = vec_groebner([v for v in self.cols if v], self.ring.ambient,
                                    budget, block=block.vecs)
        return self._gb

    def reduce(self, vec: dict, budget: Budget = None) -> dict:
        """The normal form of a vector of R^target modulo the image; empty
        iff the image contains it."""
        budget = ensure_budget(budget)
        return vec_normal_form(vec, self.groebner_vectors(budget), budget)

    def contains(self, vector: Sequence, budget: Budget = None) -> bool:
        """Whether the image contains the element given by target_rank
        polynomials or texts."""
        if len(vector) != self.target_rank:
            raise StructuralError(
                f"vector length {len(vector)} does not match rank {self.target_rank}")
        return not self.reduce(polys_to_vec([self.ring.poly(e) for e in vector]), budget)


def _tie_text(v: dict, rank: int, ambient: PolynomialRing) -> tuple:
    """The texts of v's entries, each + " o": they sort as the tuple's text
    "(<p1 over R>, ...)" does, since a text holds no "<", ">" or " o", and
    goes on past a shorter one only by a non-space or by " + " or " - ",
    which compare with " o" as with " over R>"."""
    return tuple(str(p) + " o" for p in vec_to_polys(v, rank, ambient))


def prune_generators(phi: FreeModuleMap, budget: Budget = None) -> FreeModuleMap:
    """The map onto phi's image whose columns are those of phi, in order of
    term count, degree and text, that do not reduce to zero against one
    completion of J*e_t grown by those kept before."""
    budget = ensure_budget(budget)
    nonzero = [v for v in phi.cols if v]
    if len(nonzero) <= 1:
        return FreeModuleMap._of_reduced(phi.ring, phi.target_rank, nonzero)
    ambient = phi.ring.ambient
    degree = ambient.codec.degree
    size = lambda v: (len(v), max(map(degree, v)))
    # the texts of the generator's entries break ties; they are rendered only
    # for generators tied on term count and degree
    text = lambda v: _tie_text(v, phi.target_rank, ambient)
    ordered = []
    for _, tied in groupby(sorted(nonzero, key=size), key=size):
        tied = list(tied)
        ordered += sorted(tied, key=text) if len(tied) > 1 else tied
    spanned = completion([], ambient, budget,
                         block=_relation_block(phi.ring, phi.target_rank, budget).vecs)
    kept = []
    for n, v in enumerate(ordered, 1):
        if spanned.insert(v):
            kept.append(v)
            if n < len(ordered):  # only a later candidate needs the completion
                spanned.run()
    return FreeModuleMap._of_reduced(phi.ring, phi.target_rank, kept)


def kernel(phi: FreeModuleMap, budget: Budget = None) -> FreeModuleMap:
    """A map onto ker(phi) in R^source: its columns are in normal form
    modulo J*e_j and not pruned.

    The graph of phi, generated by (phi(e_j), e_j) in R^(target + source),
    gets its Groebner basis with J adjoined in every position.  Its elements
    led in the target block, cut to it, are phi's image basis, which they
    fill when it is empty; the others generate ker(phi) + J*R^source there.
    """
    budget = ensure_budget(budget)
    ring, r, n = phi.ring, phi.target_rank, phi.source_rank
    basis = graph_groebner(phi.cols, r, ring.ambient, budget,
                           _relation_block(ring, r + n, budget).vecs)
    block = _relation_block(ring, n, budget)
    image = VecBasis([], ring.ambient)
    shift = ring.ambient.codec.shift
    target = (1 - r) << shift   # the keys of positions below r are at least this
    gens = []
    for g, lt in zip(basis.vecs, basis.lts):
        if lt >= target:
            image.append({k: c for k, c in g.items() if k >= target}, lt)
            continue
        offset = r << shift
        reduced = vec_normal_form({k + offset: c for k, c in g.items()}, block, budget)
        if reduced:
            gens.append(reduced)
    if phi._gb is None:
        phi._gb = image
    return FreeModuleMap._of_reduced(ring, n, gens)


def is_zero_subquotient(K: FreeModuleMap, Im: FreeModuleMap,
                        budget: Budget = None,
                        verify_containment: bool = True) -> bool:
    """Decide im K / im Im = 0, i.e. every column of K reduces to zero
    against the image of Im.

    im Im <= im K is the caller's responsibility; with `verify_containment`
    the columns of Im are reduced against im K first (skip when the
    containment is already certified, e.g. by a d.d = 0 check on a complex).
    """
    if K.target_rank != Im.target_rank:
        raise StructuralError(
            f"subquotient rank mismatch: {K.target_rank} vs {Im.target_rank}")
    budget = ensure_budget(budget)
    if verify_containment:
        for v in Im.cols:
            if K.reduce(v, budget):
                raise StructuralError("subquotient denominator is not contained "
                                      "in the numerator")
    return not any(Im.reduce(v, budget) for v in K.cols)
