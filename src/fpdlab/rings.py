"""Exact coefficient domains, monomial orders, polynomials, and presentations
of rings and ideals.

A monomial is one int, its code in the ring's `MonomialCodec`, in a
`Polynomial` as in the Groebner engine, and the codec's weights define the
order.  Exponent tuples are encoded once (`PolynomialRing.from_dict`).

Every value here is immutable after construction, apart from what a ring
or an ideal computes once and keeps: a ring's basis of J, its text, its
irrelevant ideal, whether it is the zero ring and whether J is homogeneous,
and its `derived` store; an ideal's key and generator texts.  Like a
`Budget`, these are not for concurrent use.  The ambient polynomial
ring A[x1..xn] is a `PolynomialRing`; a quotient R = A[x1..xn]/J is a
`RingPresentation` holding the relation ideal J.
"""
from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import CapExceededError, StructuralError

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
# Monomial orders

LEX_KIND = "lex"
GREVLEX_KIND = "grevlex"
BLOCK_KIND = "block"


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order: lex, grevlex, or a block split of two orders.

    The order is linear, and `weights` defines it: x^u < x^v exactly when
    sum u_i * w_i < sum v_i * w_i.  Grevlex compares the degree first, then
    the monomial with the smaller last differing exponent is the larger; lex
    compares exponents left to right; a block order compares the first
    `split` exponents by `left`, breaking ties on the rest by `right` (used
    for elimination).
    """

    kind: str
    split: int = 0
    left: Optional["MonomialOrder"] = None
    right: Optional["MonomialOrder"] = None

    def weights(self, nvars: int, bits: int) -> list:
        """The weights w_i that define the order on exponents e_i below
        2^bits, where sum e_i * w_i is injective: grevlex w_i = 2^(n*bits) -
        2^(i*bits) (the degree times 2^(n*bits), less the exponents packed
        with the last variable highest), lex w_i = 2^((n-1-i)*bits), and a
        block order shifts its left weights past the largest weight sum its
        right block can reach."""
        if self.kind == GREVLEX_KIND:
            return [(1 << (nvars * bits)) - (1 << (i * bits)) for i in range(nvars)]
        if self.kind == LEX_KIND:
            return [1 << ((nvars - 1 - i) * bits) for i in range(nvars)]
        right = self.right.weights(nvars - self.split, bits)
        shift = (sum(right) * ((1 << bits) - 1)).bit_length()
        return [w << shift for w in self.left.weights(self.split, bits)] + right

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
# Monomial codes: the one representation of a monomial, as one int.

FIELD_BITS = 32
EXPONENT_CAP = (1 << (FIELD_BITS - 1)) - 1


class MonomialCodec:
    """A ring's monomials as ints that add as the monomials multiply and
    compare as the ring's order does: the codes are the monomials of
    every `Polynomial`, and of every vector of the Groebner engine.

    code(m) = K(m) * 2^(n*W) + P(m), with W = FIELD_BITS.  P packs exponent
    e_i into field i (bits i*W up to i*W + W - 1), whose top bit, the guard,
    stays clear: every exponent is at most EXPONENT_CAP.  K(m) = sum e_i * w_i
    with the order's weights (`MonomialOrder.weights`) is injective and
    orders the monomials, so codes compare as K does.  A product is the sum
    of codes, u divides v exactly when ((P_v | G) - P_u) & G == G for the
    guard mask G (no field borrows), and the quotient is v - u.  A sum of
    two codes still has every field below 2^W, and so still compares as the
    order; a polynomial product and the engine check the guard bits of every
    such sum they keep (`check`), so no code past the cap is added to, and
    no field can carry into the next.

    An engine term is a monomial in a position: key(pos, m) =
    code(m) - pos * 2^shift, with `shift` past every code and every sum of
    two, so a lower position dominates, keys of one position compare as
    their monomials, a key times a monomial is key + code, and the position
    is -(key >> shift).
    """

    def __init__(self, nvars: int, order: MonomialOrder):
        width = FIELD_BITS
        pbits = nvars * width
        self.weights = order.weights(nvars, width)
        # the code of each variable: its weight above its field
        self.units = [(w << pbits) | (1 << (i * width)) for i, w in enumerate(self.weights)]
        self.guard = sum(1 << (i * width + width - 1) for i in range(nvars))
        self.pbits = pbits
        self.shift = (sum(self.weights) * ((1 << width) - 1)).bit_length() + pbits
        self.mask = (1 << self.shift) - 1       # a key's monomial code
        self.pmask = (1 << pbits) - 1
        self.fields = struct.Struct(f"<{nvars}I")

    def encode(self, m: tuple) -> int:
        """The code of an exponent tuple; `CapExceededError` past the cap."""
        if m and max(m) > EXPONENT_CAP:
            raise CapExceededError(f"exponent {max(m)} is above the cap {EXPONENT_CAP} "
                                   "(2^31 - 1) of the Groebner engine")
        return sum(map(operator.mul, m, self.units))

    def decode(self, code: int) -> tuple:
        """The exponents of a code or of a key."""
        return self.fields.unpack((code & self.pmask).to_bytes(self.fields.size, "little"))

    def position(self, key: int) -> int:
        return -(key >> self.shift)

    def divides(self, u: int, v: int) -> bool:
        """Whether u divides v (codes, or keys in one position)."""
        return ((v | self.guard) - u) & self.guard == self.guard

    def lcm(self, u: int, v: int) -> int:
        """The lcm of two codes, or of two keys in one position: the larger
        field of the two in each field, and K recomputed from the fields."""
        guard, pmask = self.guard, self.pmask
        pu, pv = u & pmask, v & pmask
        ge = ((pu | guard) - pv) & guard            # the fields where u_i >= v_i
        sel = ge - (ge >> (FIELD_BITS - 1))         # their exponent bits
        p = (pu & sel) | (pv & ~sel)
        k = sum(map(operator.mul, self.decode(p), self.weights))
        return ((u >> self.shift) << self.shift) + ((k << self.pbits) | p)

    def degree(self, code: int) -> int:
        return sum(self.decode(code))

    def check(self, key: int):
        """Raise `CapExceededError` when an exponent of key is past the cap."""
        if key & self.guard:
            raise CapExceededError(f"an exponent above the cap {EXPONENT_CAP} (2^31 - 1) "
                                   "of the Groebner engine arose in a computation")


# ---------------------------------------------------------------------------
# Polynomials over an ambient ring A[x1..xn] with an active order.


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

    @cached_property
    def codec(self) -> MonomialCodec:
        """The engine's monomial codes for this ring's variables and order."""
        return MonomialCodec(self.nvars, self.order)

    def from_dict(self, coeffs: dict) -> "Polynomial":
        """Normalize {exponent tuple: coefficient} into a Polynomial, each
        tuple encoded once (`CapExceededError` past the cap)."""
        encode, n = self.codec.encode, self.nvars
        codes = {}
        for m, c in coeffs.items():
            if len(m) != n:
                raise StructuralError(f"monomial {m} has wrong length for {self.variables}")
            codes[encode(m)] = c
        return self._of_codes(codes)

    def _of_codes(self, coeffs: dict) -> "Polynomial":
        """Normalize {code: coefficient} into a Polynomial."""
        coerce = self.domain.coerce
        terms = ((k, coerce(coeffs[k])) for k in sorted(coeffs, reverse=True))
        return Polynomial(self, tuple(t for t in terms if t[1] != 0))

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        return self._of_codes({0: c})

    def variable(self, name: str) -> "Polynomial":
        if name not in self.variables:
            raise StructuralError(f"unknown variable {name!r} in {self.variables}")
        return self._of_codes({self.codec.units[self.variables.index(name)]: 1})

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
    """`terms` are (code, coefficient) pairs, codes of `ring.codec`, in
    strictly descending code order, which is the ring's order; codes are
    decoded only to render a polynomial and to read its degrees.

    No zero coefficients are stored; the zero polynomial has no terms.
    Construct through `PolynomialRing.from_dict` (or arithmetic), which
    normalizes; normalization is idempotent.
    """

    ring: PolynomialRing
    terms: tuple

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise StructuralError(
                f"mixed rings: {self.ring} (order {self.ring.order}) vs "
                f"{other.ring} (order {other.ring.order})")

    def __add__(self, other):
        other = self.ring.poly(other)
        self._check_ring(other)
        dom = self.ring.domain
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = dom.add(acc.get(m, 0), c)
        return self.ring._of_codes(acc)

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
        codec = self.ring.codec
        guard = codec.guard
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1 + m2
                if m & guard:
                    codec.check(m)
                prev = acc.get(m)
                acc[m] = dom.mul(c1, c2) if prev is None else dom.add(prev, dom.mul(c1, c2))
        return self.ring._of_codes(acc)

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
        return len({self.ring.codec.degree(m) for m, _ in self.terms}) <= 1

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        dom = self.ring.domain
        decode = self.ring.codec.decode
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(self.ring.variables, decode(m)):
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
    normalized strong (ZZ) Groebner basis of J, a `VecBasis`, the ring's
    text, its irrelevant ideal, whether it is the zero ring and whether J is
    homogeneous are each computed once, on first use.  `derived` keeps all
    the work on the ring's ideals that `ext_computer` shares between calls;
    an equal ring built afresh starts cold.
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
        self._zero_ring = None
        self._homogeneous = None
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
        """Whether 1 = 0 in R, decided once."""
        if self._zero_ring is None:
            self._zero_ring = self.is_zero_element(self.ambient.one(), budget)
        return self._zero_ring

    def ideal(self, *gens) -> "IdealPresentation":
        return IdealPresentation(self, gens)

    @cached_property
    def irrelevant_ideal(self) -> "IdealPresentation":
        """The ideal generated by all the variables, made once: the ideal
        and so its key and its derived work serve every later call."""
        return IdealPresentation(self, self.ambient.gens())

    def has_homogeneous_relations(self) -> bool:
        if self._homogeneous is None:
            self._homogeneous = all(r.is_homogeneous() for r in self.relations)
        return self._homogeneous

    def __eq__(self, other):
        return (isinstance(other, RingPresentation)
                and self.ambient == other.ambient
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ambient, self.relations))

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        if not self.relations:
            return str(self.ambient)
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.ambient}/({rels})"


class IdealPresentation:
    """An ideal of R given by finitely many generators (ambient representatives).

    The preimage in A[x1..xn] is <generators> + J.  The ideal remembers
    its `key` (`complexes.generator_key` of its generators, set by
    `complexes.ext_computer` on first use) and its generators' texts, but
    keeps no derived work: `ext_computer` keeps that on the ring.
    """

    def __init__(self, ring: RingPresentation, generators: Sequence):
        self.ring = ring
        self.generators = tuple(ring.poly(g) for g in generators)
        self.key = None

    @cached_property
    def generator_texts(self) -> tuple:
        """The generators' texts, rendered once."""
        return tuple(str(g) for g in self.generators)

    def contains(self, f, budget=None) -> bool:
        """Whether f lies in I, by the basis of I's cyclic presentation that
        the ring's derived store keeps."""
        from .complexes import ext_computer
        return ext_computer(self).cyclic_presentation(budget).contains((f,), budget)

    def is_zero(self, budget=None) -> bool:
        """True when the ideal is the zero ideal of R."""
        return all(self.ring.is_zero_element(g, budget) for g in self.generators)

    def __str__(self) -> str:
        gens = ", ".join(self.generator_texts) or "0"
        return f"({gens}) in {self.ring}"
