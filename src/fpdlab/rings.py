"""Exact coefficient domains, monomial orders, polynomials, and presentations
of rings and ideals.

Every value here is immutable after construction, apart from a ring's
lazily cached basis of J and its `derived` store, which, like a `Budget`,
is not for concurrent use; an ideal keeps no cache.  The ambient polynomial
ring A[x1..xn] is a `PolynomialRing`; a quotient R = A[x1..xn]/J is a
`RingPresentation` holding the relation ideal J.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import StructuralError

RATIONALS = "rationals"
PRIME_FIELD = "prime_field"
INTEGERS = "integers"


def _rational(f: Fraction):
    """The canonical QQ value of f: its numerator when integral."""
    return f.numerator if f.denominator == 1 else f


# Miller-Rabin with the prime bases 2..41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015)
_PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n < _PRIME_TEST_BOUND: with n - 1 = d * 2^s,
    d odd, each base a has a^d = 1 or a^(d * 2^r) = -1 mod n for some r < s."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _PRIME_BASES)


@dataclass(frozen=True)
class CoefficientDomain:
    """One of QQ, FF(p) with p prime, or ZZ, with exact arithmetic.

    FF(p) and ZZ values are plain `int`.  A rational is canonically an `int`
    when it is integral and a `fractions.Fraction` otherwise; arithmetic may
    still give a `Fraction` with denominator 1, which compares and hashes
    equal to its `int`.  All three are arbitrary precision.
    """

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (RATIONALS, PRIME_FIELD, INTEGERS):
            raise StructuralError(f"unknown coefficient domain kind {self.kind!r}")
        if self.kind == PRIME_FIELD:
            if self.p is not None and self.p >= _PRIME_TEST_BOUND:
                raise StructuralError("prime field modulus must be below "
                                      f"{_PRIME_TEST_BOUND}, the bound of the exact "
                                      "primality test")
            if self.p is None or not _is_prime(self.p):
                raise StructuralError(f"prime field modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise StructuralError("modulus only allowed for prime fields")

    @staticmethod
    def QQ() -> "CoefficientDomain":
        return CoefficientDomain(RATIONALS)

    @staticmethod
    def ZZ() -> "CoefficientDomain":
        return CoefficientDomain(INTEGERS)

    @staticmethod
    def FF(p: int) -> "CoefficientDomain":
        return CoefficientDomain(PRIME_FIELD, p)

    @property
    def is_field(self) -> bool:
        return self.kind != INTEGERS

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, value):
        """Map an int / Fraction / domain element to canonical form."""
        if self.kind == RATIONALS:
            return value if type(value) is int else _rational(Fraction(value))
        if self.kind == PRIME_FIELD:
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise StructuralError(f"denominator not invertible mod {self.p}")
                return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
            return int(value) % self.p
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise StructuralError(f"non-integral coefficient {value} over ZZ")
            return value.numerator
        return int(value)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == PRIME_FIELD else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == PRIME_FIELD else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == PRIME_FIELD else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == PRIME_FIELD else -a

    def inv(self, a):
        if self.kind == RATIONALS:
            return _rational(Fraction(1) / a)
        if self.kind == PRIME_FIELD:
            return pow(a, -1, self.p)
        if a in (1, -1):
            return a
        raise StructuralError(f"{a} is not a unit in ZZ")

    def exact_div(self, a, b):
        """a / b, required to be exact (raises otherwise)."""
        if self.kind == RATIONALS:
            return _rational(Fraction(a) / b)
        if self.kind == PRIME_FIELD:
            return (a * pow(b, -1, self.p)) % self.p
        q, r = divmod(a, b)
        if r != 0:
            raise StructuralError(f"{a} is not divisible by {b} in ZZ")
        return q

    def lc_normalizer(self, a):
        """Unit u with u*a canonical: monic over fields, positive over ZZ."""
        if self.kind == INTEGERS:
            return -1 if a < 0 else 1
        return self.inv(a)

    def __str__(self) -> str:
        if self.kind == RATIONALS:
            return "QQ"
        if self.kind == INTEGERS:
            return "ZZ"
        return f"FF{self.p}"


# ---------------------------------------------------------------------------
# Monomials: plain exponent tuples.

Monomial = tuple

def mono_one(nvars: int) -> Monomial:
    return (0,) * nvars

def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(map(operator.add, u, v))

def mono_divides(u: Monomial, v: Monomial) -> bool:
    return all(a <= b for a, b in zip(u, v))

def mono_div(v: Monomial, u: Monomial) -> Optional[Monomial]:
    """v / u, or None when u does not divide v."""
    out = []
    for a, b in zip(u, v):
        if a > b:
            return None
        out.append(b - a)
    return tuple(out)

def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(u, v))

def mono_degree(u: Monomial) -> int:
    return sum(u)


LEX_KIND = "lex"
GREVLEX_KIND = "grevlex"
BLOCK_KIND = "block"


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order: lex, grevlex, or a block split of two orders.

    `key(m)` is an ascending sort key; two monomials compare the way their
    keys do.  Block orders compare the first `split` exponents with `left`,
    breaking ties on the rest with `right` (used for elimination).
    """

    kind: str
    split: int = 0
    left: Optional["MonomialOrder"] = None
    right: Optional["MonomialOrder"] = None

    def key(self, m: Monomial):
        if self.kind == GREVLEX_KIND:
            return (sum(m), tuple(map(operator.neg, reversed(m))))
        if self.kind == LEX_KIND:
            return m
        return (self.left.key(m[:self.split]), self.right.key(m[self.split:]))

    def descending_key(self, m: Monomial):
        """A sort key that orders monomials the reverse way of `key`."""
        if self.kind == GREVLEX_KIND:
            return (-sum(m), m[::-1])
        if self.kind == LEX_KIND:
            return tuple(map(operator.neg, m))
        return (self.left.descending_key(m[:self.split]),
                self.right.descending_key(m[self.split:]))

    def __str__(self) -> str:
        if self.kind == BLOCK_KIND:
            return f"block({self.split}; {self.left}, {self.right})"
        return self.kind


LEX = MonomialOrder(LEX_KIND)
GREVLEX = MonomialOrder(GREVLEX_KIND)

def block_order(split: int, left: MonomialOrder = GREVLEX,
                right: MonomialOrder = GREVLEX) -> MonomialOrder:
    return MonomialOrder(BLOCK_KIND, split, left, right)


# ---------------------------------------------------------------------------
# Polynomials over an ambient ring A[x1..xn] with an active order.

Coeff = Union[int, Fraction]


@dataclass(frozen=True)
class PolynomialRing:
    """The ambient polynomial ring: a domain, named variables, an order."""

    domain: CoefficientDomain
    variables: tuple
    order: MonomialOrder = GREVLEX

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise StructuralError(f"duplicate variable names in {self.variables}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def from_dict(self, coeffs: dict) -> "Polynomial":
        """Normalize {monomial: coefficient} into a Polynomial."""
        dom = self.domain
        zero = dom.zero()
        cleaned = {}
        for m, c in coeffs.items():
            if len(m) != self.nvars:
                raise StructuralError(f"monomial {m} has wrong length for {self.variables}")
            c = dom.coerce(c)
            if c != zero:
                cleaned[m] = c
        key = self.order.key
        terms = tuple(sorted(cleaned.items(), key=lambda t: key(t[0]), reverse=True))
        return Polynomial(self, terms)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        return self.from_dict({mono_one(self.nvars): c})

    def variable(self, name: str) -> "Polynomial":
        if name not in self.variables:
            raise StructuralError(f"unknown variable {name!r} in {self.variables}")
        i = self.variables.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.from_dict({expo: 1})

    def gens(self) -> tuple:
        return tuple(self.variable(v) for v in self.variables)

    def poly(self, source) -> "Polynomial":
        """Build a polynomial from text, a scalar, or pass one through."""
        if isinstance(source, Polynomial):
            if source.ring != self:
                raise StructuralError("polynomial belongs to a different ring")
            return source
        if isinstance(source, (int, Fraction)):
            return self.constant(source)
        from .script import parse_polynomial_text
        return parse_polynomial_text(self, source)

    def __str__(self) -> str:
        return f"{self.domain}[{','.join(self.variables)}]"


@dataclass(frozen=True)
class Polynomial:
    """Terms sorted strictly decreasing under the ring's active order.

    No zero coefficients are stored; the zero polynomial has no terms.
    Construct through `PolynomialRing.from_dict` (or arithmetic), which
    normalizes; normalization is idempotent.
    """

    ring: PolynomialRing
    terms: tuple

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        return self.terms[0][1]

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise StructuralError(
                f"mixed rings: {self.ring} (order {self.ring.order}) vs "
                f"{other.ring} (order {other.ring.order})")

    def __add__(self, other):
        other = self.ring.poly(other)
        self._check_ring(other)
        dom = self.ring.domain
        zero = dom.zero()
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = dom.add(acc.get(m, zero), c)
        return self.ring.from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        dom = self.ring.domain
        return Polynomial(self.ring, tuple((m, dom.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-self.ring.poly(other))

    def __rsub__(self, other):
        return self.ring.poly(other) - self

    def __mul__(self, other):
        other = self.ring.poly(other)
        self._check_ring(other)
        dom = self.ring.domain
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                prev = acc.get(m)
                acc[m] = dom.mul(c1, c2) if prev is None else dom.add(prev, dom.mul(c1, c2))
        return self.ring.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise StructuralError("polynomial powers must be non-negative integers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {mono_degree(m) for m, _ in self.terms}
        return len(degs) == 1

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        dom = self.ring.domain
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            neg = (c < 0) if dom.kind != PRIME_FIELD else False
            mag = -c if neg else c
            if not body:
                piece = str(mag)
            elif mag == dom.one():
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(f"-{piece}" if neg else piece)
            else:
                parts.append(f"- {piece}" if neg else f"+ {piece}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} over {self.ring}>"


# ---------------------------------------------------------------------------
# Ring and ideal presentations.


class RingPresentation:
    """R = A[x1..xn]/J presented by relation generators for J.

    Empty relations give the polynomial ring itself.  The reduced (field) or
    normalized strong (ZZ) Groebner basis of J, a `VecBasis`, is cached lazily.
    `derived` keeps all the work on the ring's ideals that `ext_computer`
    shares between calls; an equal ring built afresh starts cold.
    """

    def __init__(self, ambient: PolynomialRing, relations: Sequence = ()):
        self.ambient = ambient
        rels = []
        for r in relations:
            p = ambient.poly(r)
            if not p.is_zero:
                rels.append(p)
        self.relations = tuple(rels)
        self._relations_gb = None
        self.derived = {}

    @property
    def domain(self) -> CoefficientDomain:
        return self.ambient.domain

    @property
    def variables(self) -> tuple:
        return self.ambient.variables

    @property
    def order(self) -> MonomialOrder:
        return self.ambient.order

    def poly(self, source) -> Polynomial:
        return self.ambient.poly(source)

    def relations_groebner(self, budget=None):
        """The engine's `VecBasis` of the relation ideal J (cached)."""
        if self._relations_gb is None:
            from .groebner import groebner_basis_of_polys
            self._relations_gb = groebner_basis_of_polys(
                self.ambient, self.relations, budget=budget)
        return self._relations_gb

    def normal_form(self, f, budget=None) -> Polynomial:
        """Canonical representative of f modulo J."""
        from .groebner import normal_form_polys
        return normal_form_polys(self.poly(f), self.relations_groebner(budget), budget)

    def is_zero_element(self, f, budget=None) -> bool:
        return self.normal_form(f, budget).is_zero

    def is_zero_ring(self, budget=None) -> bool:
        return self.is_zero_element(self.ambient.one(), budget)

    def ideal(self, *gens) -> "IdealPresentation":
        return IdealPresentation(self, gens)

    def has_homogeneous_relations(self) -> bool:
        return all(r.is_homogeneous() for r in self.relations)

    def __eq__(self, other):
        return (isinstance(other, RingPresentation)
                and self.ambient == other.ambient
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ambient, self.relations))

    def __str__(self) -> str:
        if not self.relations:
            return str(self.ambient)
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.ambient}/({rels})"


class IdealPresentation:
    """An ideal of R given by finitely many generators (ambient representatives).

    The preimage in A[x1..xn] is <generators> + J.  The ideal keeps no
    derived work: `complexes.ext_computer` keeps it on the ring.
    """

    def __init__(self, ring: RingPresentation, generators: Sequence):
        self.ring = ring
        self.generators = tuple(ring.poly(g) for g in generators)

    def contains(self, f, budget=None) -> bool:
        """Whether f lies in I, by the basis of I's cyclic presentation that
        the ring's derived store keeps."""
        from .complexes import ext_computer
        return ext_computer(self).cyclic_presentation(budget).contains((f,), budget)

    def is_zero(self, budget=None) -> bool:
        """True when the ideal is the zero ideal of R."""
        return all(self.ring.is_zero_element(g, budget) for g in self.generators)

    def __str__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"({gens}) in {self.ring}"
