"""Free modules over R = A[x]/J: maps, submodules, kernels, subquotient tests.

A free-module element is an engine vector {(position, monomial): coefficient}
(see `groebner`).  A map keeps one such vector per column, reduced modulo
J*e_t, and a submodule keeps its generators as vectors.  Tuples of
`Polynomial`s, one entry per position, appear only at the public edges: the
constructors, `matrix`, `column(s)`, `generators`, `apply`, `normal_form`
and `__str__`.  All submodule computations happen in the ambient ring with
the relation multiples J*e_i adjoined, so membership and syzygies are taken
over R.
"""
from __future__ import annotations

from itertools import groupby
from typing import Sequence

from .errors import Budget, StructuralError, ensure_budget
from .groebner import (VecBasis, completion, polys_to_vec, vec_groebner,
                       vec_normal_form, vec_to_polys)
from .rings import RingPresentation, mono_degree, mono_mul, mono_one


def _relation_block(ring: RingPresentation, rank: int, budget: Budget) -> VecBasis:
    """J*e_t for t < rank as one basis: at each position J's Groebner basis
    in its own order, the reducers one entry meets modulo J.  It reduces a
    whole vector entry by entry, and it seeds module completions."""
    G = ring.relations_groebner(budget).vecs
    block = VecBasis([], ring.ambient)
    for t in range(rank):
        for v, (_, lm) in zip(G.vecs, G.lts):
            block.append({(t, m): c for (_, m), c in v.items()}, (t, lm))
    return block


def _to_vec(ring: RingPresentation, entries: Sequence, rank: int) -> dict:
    """A free element given by `rank` polynomials (or texts) as a vector."""
    if len(entries) != rank:
        raise StructuralError(f"vector length {len(entries)} does not match rank {rank}")
    return polys_to_vec([ring.poly(e) for e in entries])


def _combine(cols: Sequence, vec: dict, ring: RingPresentation) -> dict:
    """The sum of c*x^m*cols[k] over the terms c*x^m*e_k of vec."""
    dom = ring.domain
    add, mul, zero = dom.add, dom.mul, dom.zero()
    out = {}
    for (k, m2), c2 in vec.items():
        for (t, m1), c1 in cols[k].items():
            key = (t, mono_mul(m1, m2))
            prev = out.get(key)
            out[key] = mul(c1, c2) if prev is None else add(prev, mul(c1, c2))
    return {k: c for k, c in out.items() if c != zero}


class FreeModuleMap:
    """A map R^source -> R^target, kept as its source_rank columns: vectors
    of R^target in normal form modulo J*e_t."""

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
                for m, c in ring.poly(e).terms:
                    cols[j][(t, m)] = c
        self._set(ring, target_rank, cols, budget)

    def _set(self, ring: RingPresentation, target_rank: int, cols: Sequence,
             budget: Budget):
        self.ring = ring
        self.source_rank = len(cols)
        self.target_rank = target_rank
        if cols and target_rank:
            block = _relation_block(ring, target_rank, budget)
            budget = ensure_budget(budget)
            cols = [vec_normal_form(c, block, budget) if c else c for c in cols]
        self.cols = tuple(cols)

    @classmethod
    def of_vectors(cls, ring: RingPresentation, target_rank: int, cols: Sequence,
                   budget: Budget = None) -> "FreeModuleMap":
        """The map whose columns are the vectors `cols` of R^target_rank."""
        phi = cls.__new__(cls)
        phi._set(ring, target_rank, cols, budget)
        return phi

    @classmethod
    def from_columns(cls, ring: RingPresentation, columns: Sequence, target_rank: int,
                     budget: Budget = None) -> "FreeModuleMap":
        return cls.of_vectors(ring, target_rank,
                              [_to_vec(ring, c, target_rank) for c in columns], budget)

    @property
    def matrix(self) -> tuple:
        cols = self.columns()
        return tuple(tuple(c[t] for c in cols) for t in range(self.target_rank))

    def column(self, j: int) -> tuple:
        return vec_to_polys(self.cols[j], self.target_rank, self.ring.ambient)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.source_rank)]

    def apply(self, vector: Sequence) -> tuple:
        out = _combine(self.cols, _to_vec(self.ring, vector, self.source_rank), self.ring)
        return vec_to_polys(out, self.target_rank, self.ring.ambient)

    def transpose(self, budget: Budget = None) -> "FreeModuleMap":
        cols = [{} for _ in range(self.target_rank)]
        for j, col in enumerate(self.cols):
            for (t, m), c in col.items():
                cols[t][(j, m)] = c
        return FreeModuleMap.of_vectors(self.ring, self.source_rank, cols, budget)

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

    def __str__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.matrix]
        return f"R^{self.source_rank} -> R^{self.target_rank}: [" + "; ".join(rows) + "]"


class SubmodulePresentation:
    """A submodule of R^rank given by finitely many generators, kept as
    vectors in `vecs`.

    The module Groebner data always adjoins the relation multiples J*e_i,
    so normal forms decide membership over R, not over the ambient ring.
    """

    def __init__(self, ring: RingPresentation, ambient_rank: int,
                 generators: Sequence):
        """From generators given as tuples of polynomials or texts."""
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.vecs = tuple(_to_vec(ring, g, ambient_rank) for g in generators)
        self._gb = None

    @classmethod
    def of_vectors(cls, ring: RingPresentation, ambient_rank: int,
                   vecs: Sequence) -> "SubmodulePresentation":
        S = cls(ring, ambient_rank, ())
        S.vecs = tuple(vecs)
        return S

    @property
    def generators(self) -> tuple:
        return tuple(vec_to_polys(v, self.ambient_rank, self.ring.ambient)
                     for v in self.vecs)

    def groebner_vectors(self, budget: Budget = None) -> VecBasis:
        """Module Groebner basis of <generators> + J*e_i (cached)."""
        if self._gb is None:
            budget = ensure_budget(budget)
            vecs = [v for v in self.vecs if v]
            vecs += _relation_block(self.ring, self.ambient_rank, budget).vecs
            self._gb = vec_groebner(vecs, self.ring.ambient, budget)
        return self._gb

    def reduce(self, vec: dict, budget: Budget = None) -> dict:
        """The normal form of a vector; empty iff it is a member."""
        budget = ensure_budget(budget)
        return vec_normal_form(vec, self.groebner_vectors(budget), budget)

    def normal_form(self, vector: Sequence, budget: Budget = None) -> tuple:
        r = self.reduce(_to_vec(self.ring, vector, self.ambient_rank), budget)
        return vec_to_polys(r, self.ambient_rank, self.ring.ambient)

    def contains(self, vector: Sequence, budget: Budget = None) -> bool:
        return not self.reduce(_to_vec(self.ring, vector, self.ambient_rank), budget)

    def __str__(self):
        gens = "; ".join("(" + ", ".join(str(p) for p in g) + ")"
                         for g in self.generators)
        return f"<{gens}> in R^{self.ambient_rank}"


def module_normal_form(vector: Sequence, S: SubmodulePresentation,
                       budget: Budget = None) -> tuple:
    """Reduce a free element against S (with J*e relations); zero iff member."""
    return S.normal_form(vector, budget)


def image(phi: FreeModuleMap) -> SubmodulePresentation:
    return SubmodulePresentation.of_vectors(phi.ring, phi.target_rank, phi.cols)


def prune_generators(S: SubmodulePresentation, budget: Budget = None) -> SubmodulePresentation:
    """The generators, in order of term count, degree and text, that do not
    reduce to zero against one completion of J*e_i grown by those kept before."""
    budget = ensure_budget(budget)
    nonzero = [v for v in S.vecs if v]
    if len(nonzero) <= 1:
        return SubmodulePresentation.of_vectors(S.ring, S.ambient_rank, nonzero)
    ambient = S.ring.ambient
    size = lambda v: (len(v), max(mono_degree(m) for _, m in v))
    text = lambda v: str(vec_to_polys(v, S.ambient_rank, ambient))
    # the text of the generator as a tuple of polynomials breaks ties; it is
    # rendered only for generators tied on term count and degree
    ordered = []
    for _, tied in groupby(sorted(nonzero, key=size), key=size):
        tied = list(tied)
        ordered += sorted(tied, key=text) if len(tied) > 1 else tied
    spanned = completion(_relation_block(S.ring, S.ambient_rank, budget).vecs,
                         ambient, budget)
    kept = []
    for v in ordered:
        if spanned.insert(v):
            kept.append(v)
            spanned.run()
    return SubmodulePresentation.of_vectors(S.ring, S.ambient_rank, kept)


def kernel(phi: FreeModuleMap, budget: Budget = None) -> SubmodulePresentation:
    """Generators of ker(phi) in R^source, in normal form modulo J*e_j and
    not pruned.

    The graph of phi, generated by (phi(e_j), e_j) in R^(target + source),
    gets its Groebner basis with J adjoined in every position; the elements
    that vanish in the target block generate ker(phi) + J*R^source there.
    """
    budget = ensure_budget(budget)
    ring, r, n = phi.ring, phi.target_rank, phi.source_rank
    one, unit = ring.domain.one(), mono_one(ring.ambient.nvars)
    graph = SubmodulePresentation.of_vectors(
        ring, r + n, [{**col, (r + j, unit): one} for j, col in enumerate(phi.cols)])
    basis = graph.groebner_vectors(budget)
    block = _relation_block(ring, n, budget)
    gens = []
    for g in basis.vecs:
        if any(pos < r for pos, _ in g):
            continue
        reduced = vec_normal_form({(pos - r, m): c for (pos, m), c in g.items()},
                                  block, budget)
        if reduced:
            gens.append(reduced)
    return SubmodulePresentation.of_vectors(ring, n, gens)


def is_zero_subquotient(K: SubmodulePresentation, Im: SubmodulePresentation,
                        budget: Budget = None,
                        verify_containment: bool = True) -> bool:
    """Decide K/Im = 0, i.e. every generator of K reduces to zero against Im.

    Im <= K is the caller's responsibility; with `verify_containment` the
    generators of Im are reduced against K first (skip when the containment
    is already certified, e.g. by a d.d = 0 check on a complex).
    """
    if K.ambient_rank != Im.ambient_rank:
        raise StructuralError(
            f"subquotient rank mismatch: {K.ambient_rank} vs {Im.ambient_rank}")
    budget = ensure_budget(budget)
    if verify_containment:
        for v in Im.vecs:
            if K.reduce(v, budget):
                raise StructuralError("subquotient denominator is not contained "
                                      "in the numerator")
    return not any(Im.reduce(v, budget) for v in K.vecs)
