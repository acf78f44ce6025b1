"""Free modules over R = A[x]/J: maps, submodules, kernels, subquotient tests.

A free-module element is a tuple of ambient polynomials, one per position.
All submodule computations happen in the ambient ring with the relation
multiples J*e_i adjoined, so membership and syzygies are taken over R.
"""
from __future__ import annotations

from typing import Sequence

from .errors import Budget, StructuralError, ensure_budget
from .groebner import (VecBasis, completion, polys_to_vec, vec_groebner,
                       vec_normal_form, vec_to_polys)
from .rings import RingPresentation


def _relation_vectors(ring: RingPresentation, rank: int, budget: Budget) -> list:
    """The relation multiples J*e_t of R^rank, from the Groebner basis of J."""
    rels = ring.relations_groebner(budget).basis
    return [{(t, m): c for m, c in r.terms} for t in range(rank) for r in rels]


def _as_vector(ring: RingPresentation, entries: Sequence, rank: int) -> tuple:
    if len(entries) != rank:
        raise StructuralError(f"vector length {len(entries)} does not match rank {rank}")
    return tuple(ring.poly(e) for e in entries)


class FreeModuleMap:
    """A map R^source -> R^target given by a target x source matrix of
    ambient representatives, normalized modulo the relations."""

    def __init__(self, ring: RingPresentation, source_rank: int, target_rank: int,
                 matrix: Sequence, budget: Budget = None):
        self.ring = ring
        self.source_rank = source_rank
        self.target_rank = target_rank
        rows = []
        if len(matrix) != target_rank:
            raise StructuralError(f"expected {target_rank} rows, got {len(matrix)}")
        for row in matrix:
            if len(row) != source_rank:
                raise StructuralError(f"expected {source_rank} columns, got {len(row)}")
            rows.append(tuple(ring.normal_form(ring.poly(e), budget) for e in row))
        self.matrix = tuple(rows)

    @staticmethod
    def from_columns(ring: RingPresentation, columns: Sequence, target_rank: int,
                     budget: Budget = None) -> "FreeModuleMap":
        matrix = [[col[t] for col in columns] for t in range(target_rank)]
        return FreeModuleMap(ring, len(columns), target_rank, matrix, budget)

    def column(self, j: int) -> tuple:
        return tuple(self.matrix[t][j] for t in range(self.target_rank))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.source_rank)]

    def apply(self, vector: Sequence) -> tuple:
        vec = _as_vector(self.ring, vector, self.source_rank)
        zero = self.ring.ambient.zero()
        out = []
        for t in range(self.target_rank):
            acc = zero
            for j in range(self.source_rank):
                acc = acc + self.matrix[t][j] * vec[j]
            out.append(acc)
        return tuple(out)

    def transpose(self, budget: Budget = None) -> "FreeModuleMap":
        return FreeModuleMap(self.ring, self.target_rank, self.source_rank,
                             self.columns(), budget)

    def compose(self, other: "FreeModuleMap", budget: Budget = None) -> "FreeModuleMap":
        """self after other (rank-compatible)."""
        if self.ring != other.ring:
            raise StructuralError("composition across different rings")
        if self.source_rank != other.target_rank:
            raise StructuralError(
                f"composition rank mismatch: {self.source_rank} vs {other.target_rank}")
        zero = self.ring.ambient.zero()
        matrix = []
        for t in range(self.target_rank):
            row = []
            for j in range(other.source_rank):
                acc = zero
                for k in range(self.source_rank):
                    acc = acc + self.matrix[t][k] * other.matrix[k][j]
                row.append(acc)
            matrix.append(row)
        return FreeModuleMap(self.ring, other.source_rank, self.target_rank, matrix,
                             budget)

    def is_zero(self) -> bool:
        # the constructor left every entry in normal form modulo J
        return all(e.is_zero for row in self.matrix for e in row)

    def __str__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.matrix]
        return f"R^{self.source_rank} -> R^{self.target_rank}: [" + "; ".join(rows) + "]"


class SubmodulePresentation:
    """A submodule of R^rank given by finitely many generators.

    The module Groebner data always adjoins the relation multiples J*e_i,
    so normal forms decide membership over R, not over the ambient ring.
    """

    def __init__(self, ring: RingPresentation, ambient_rank: int,
                 generators: Sequence):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.generators = tuple(_as_vector(ring, g, ambient_rank) for g in generators)
        self._gb = None

    def groebner_vectors(self, budget: Budget = None) -> VecBasis:
        """Module Groebner basis of <generators> + J*e_i (cached)."""
        if self._gb is None:
            budget = ensure_budget(budget)
            vecs = [polys_to_vec(g) for g in self.generators if any(not p.is_zero for p in g)]
            vecs += _relation_vectors(self.ring, self.ambient_rank, budget)
            self._gb = vec_groebner(vecs, self.ring.ambient, budget)
        return self._gb

    def normal_form(self, vector: Sequence, budget: Budget = None) -> tuple:
        vec = _as_vector(self.ring, vector, self.ambient_rank)
        budget = ensure_budget(budget)
        r = vec_normal_form(polys_to_vec(vec), self.groebner_vectors(budget), budget)
        return vec_to_polys(r, self.ambient_rank, self.ring.ambient)

    def contains(self, vector: Sequence, budget: Budget = None) -> bool:
        return all(p.is_zero for p in self.normal_form(vector, budget))

    def __str__(self):
        gens = "; ".join("(" + ", ".join(str(p) for p in g) + ")"
                         for g in self.generators)
        return f"<{gens}> in R^{self.ambient_rank}"


def module_normal_form(vector: Sequence, S: SubmodulePresentation,
                       budget: Budget = None) -> tuple:
    """Reduce a free element against S (with J*e relations); zero iff member."""
    return S.normal_form(vector, budget)


def image(phi: FreeModuleMap) -> SubmodulePresentation:
    return SubmodulePresentation(phi.ring, phi.target_rank, phi.columns())


def prune_generators(S: SubmodulePresentation, budget: Budget = None) -> SubmodulePresentation:
    """The generators, in order of term count, degree and text, that do not
    reduce to zero against one completion of J*e_i grown by those kept before."""
    budget = ensure_budget(budget)
    nonzero = [g for g in S.generators if any(not p.is_zero for p in g)]
    if len(nonzero) <= 1:
        return SubmodulePresentation(S.ring, S.ambient_rank, nonzero)
    nonzero.sort(key=lambda g: (sum(len(p.terms) for p in g),
                                max((p.total_degree() for p in g), default=0),
                                str(g)))
    spanned = completion(_relation_vectors(S.ring, S.ambient_rank, budget),
                         S.ring.ambient, budget)
    kept = []
    for g in nonzero:
        if spanned.insert(polys_to_vec(g)):
            kept.append(g)
            spanned.run()
    return SubmodulePresentation(S.ring, S.ambient_rank, kept)


def kernel(phi: FreeModuleMap, budget: Budget = None) -> SubmodulePresentation:
    """Generators of ker(phi) in R^source, reduced modulo J and not pruned.

    The graph of phi, generated by (phi(e_j), e_j) in R^(target + source),
    gets its Groebner basis with J adjoined in every position; the elements
    that vanish in the target block generate ker(phi) + J*R^source there.
    """
    budget = ensure_budget(budget)
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
    return SubmodulePresentation(ring, n, gens)


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
        for g in Im.generators:
            if not K.contains(g, budget):
                raise StructuralError("subquotient denominator is not contained "
                                      "in the numerator")
    return all(Im.contains(g, budget) for g in K.generators)
