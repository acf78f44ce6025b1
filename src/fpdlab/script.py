"""The input language: declarations of rings and ideals plus analysis commands.

Grammar (names lexed as identifiers, `#` starts a comment to end of line):

    script  := ((decl | cmd) ";")*
    decl    := "ring" NAME "=" domain "[" vars "]" ["/" "(" polys ")"]
             | "ideal" NAME "=" "(" polys ")"
    domain  := "QQ" | "ZZ" | "FF" INT          (FF2 also accepted)
    cmd     := "grade" NAME | "ext" NAME INT | "semiregular" NAME | "gv" NAME
             | "criterion" NAME INT | "fpd" NAME+
             | "cm" | "dqdw" | "dim"
             | "koszul" NAME | "smodule" NAME INT
             | "oracle" ("dq" | "dw" | "ideals") oraclering
    oraclering := ("ZZ" "/" INT | "FF" INT) ["[" NAME "]" "/" "(" poly ")"]

Polynomials are standard infix with `^` for powers, explicit `*`, and
`INT/INT` rational literals.  Every identifier must be declared before use;
each command runs against the most recently declared ring.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import Budget, ParseError, StructuralError
from .rings import (CoefficientDomain, IdealPresentation, Polynomial,
                    PolynomialRing, RingPresentation, MonomialOrder, GREVLEX)

# ---------------------------------------------------------------------------
# Tokenizer

NAME_TOK = "name"
INT_TOK = "int"
PUNCT_TOK = "punct"
EOF_TOK = "eof"

# No command takes a `--flag`; it is one token so that a stray option is
# reported as typed.
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<flag>--[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[=\[\](),;/*+\-^])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token(EOF_TOK, "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != EOF_TOK:
            self.i += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = what or text or kind
            raise ParseError(f"expected {want}, found {tok.text!r}" if tok.text
                             else f"expected {want}, found end of input",
                             tok.line, tok.column)
        return self.advance()


def _int(tok: Token, digits: Optional[str] = None) -> int:
    """The integer literal `digits` (default: the token's text), or a
    ParseError at `tok` when it is too long for Python to convert."""
    digits = tok.text if digits is None else digits
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal too long ({len(digits)} digits)",
                         tok.line, tok.column) from None


# Python renders an int of at most this many digits (4,300 unless configured)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", int)() or 4300
_TOO_LONG = 10 ** _MAX_DIGITS
# a power of a sum is expanded at parse time, with no budget, up to this size
_MAX_POWER_TERMS = 1000


def _bounded(poly: Polynomial, op: Token, e: int = 1) -> Polynomial:
    """poly, or a ParseError at `op` when a ZZ or QQ coefficient c has c^e too
    long to render; bit lengths bound c^e below before it is built.  (FF(p)
    coefficients stay below p.)"""
    if poly.ring.domain.p is None:
        for n in (abs(x) for _, c in poly.terms for x in (c.numerator, c.denominator)):
            if e * (n.bit_length() - 1) >= _TOO_LONG.bit_length() or n ** e >= _TOO_LONG:
                raise ParseError(f"coefficient too long (over {_MAX_DIGITS} digits)",
                                 op.line, op.column)
    return poly


# ---------------------------------------------------------------------------
# Polynomial expressions

def _parse_expr(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    sign = 1
    if cur.at(PUNCT_TOK, "-"):
        cur.advance()
        sign = -1
    poly = _parse_term(cur, ring)
    if sign < 0:
        poly = -poly
    while cur.at(PUNCT_TOK, "+") or cur.at(PUNCT_TOK, "-"):
        op = cur.advance()
        rhs = _parse_term(cur, ring)
        poly = _bounded(poly + rhs if op.text == "+" else poly - rhs, op)
    return poly


def _parse_term(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    poly = _parse_factor(cur, ring)
    while cur.at(PUNCT_TOK, "*"):
        op = cur.advance()
        poly = _bounded(poly * _parse_factor(cur, ring), op)
    return poly


def _parse_factor(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    base = _parse_atom(cur, ring)
    if cur.at(PUNCT_TOK, "^"):
        op = cur.advance()
        e = _int(cur.expect(INT_TOK, what="an integer exponent"))
        # lc(base^e) = lc(base)^e: a huge power is refused before it is built
        _bounded(Polynomial(ring, base.terms[:1]), op, e)
        # a t-term base has at most C(e + t - 1, t - 1) terms in its e-th power
        terms = 1
        for k in range(1, len(base.terms)):
            terms = terms * (e + k) // k
            if terms > _MAX_POWER_TERMS:
                raise ParseError(f"power too large (over {_MAX_POWER_TERMS} terms "
                                 f"when expanded)", op.line, op.column)
        base = _bounded(base ** e, op)
    return base


def _parse_atom(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    tok = cur.peek()
    if tok.kind == INT_TOK:
        cur.advance()
        value = Fraction(_int(tok))
        if cur.at(PUNCT_TOK, "/") and cur.tokens[cur.i + 1].kind == INT_TOK:
            cur.advance()
            den = _int(cur.advance())
            if den == 0:
                raise ParseError("zero denominator", tok.line, tok.column)
            value = value / den
        try:
            return ring.constant(value)
        except StructuralError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from exc
    if tok.kind == NAME_TOK:
        cur.advance()
        if tok.text not in ring.variables:
            raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
        return ring.variable(tok.text)
    if tok.kind == PUNCT_TOK and tok.text == "(":
        cur.advance()
        poly = _parse_expr(cur, ring)
        cur.expect(PUNCT_TOK, ")")
        return poly
    if tok.kind == PUNCT_TOK and tok.text == "-":
        cur.advance()
        return -_parse_factor(cur, ring)
    raise ParseError(f"expected a polynomial, found {tok.text!r}"
                     if tok.text else "expected a polynomial, found end of input",
                     tok.line, tok.column)


def parse_polynomial_text(ring: PolynomialRing, text: str) -> Polynomial:
    cur = _Cursor(tokenize(text))
    poly = _parse_expr(cur, ring)
    tok = cur.peek()
    if tok.kind != EOF_TOK:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return poly


def _parse_poly_list(cur: _Cursor, ring: PolynomialRing) -> tuple:
    polys = [_parse_expr(cur, ring)]
    while cur.at(PUNCT_TOK, ","):
        cur.advance()
        polys.append(_parse_expr(cur, ring))
    return tuple(polys)


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class OracleRingSpec:
    """A finite ring for the brute-force oracle: Z/n, optionally mod a monic poly."""
    modulus: int
    variable: Optional[str] = None
    relation: Optional[Polynomial] = None  # over ZZ[variable]

    def __str__(self) -> str:
        base = f"ZZ/{self.modulus}"
        if self.variable is None:
            return base
        return f"{base}[{self.variable}]/({self.relation})"

    def coefficients(self) -> dict:
        """The relation as {exponent: coefficient}: sparse, so a huge degree
        costs nothing before the build cap refuses it."""
        return {m[0]: c for m, c in self.relation.terms}


@dataclass(frozen=True)
class Command:
    kind: str
    ring_name: str
    ideal_names: tuple = ()
    degree: Optional[int] = None
    oracle_check: Optional[str] = None
    oracle_ring: Optional[OracleRingSpec] = None


@dataclass(frozen=True)
class SessionScript:
    items: tuple  # the Commands, in source order
    rings: dict
    ideals: dict
    finite_rings: dict = field(default_factory=dict, compare=False, repr=False)

    def commands(self) -> list:
        return list(self.items)

    def finite_ring(self, spec: OracleRingSpec, budget: Optional[Budget] = None):
        """The explicit tables of an oracle ring (cached): built under the
        budget of the script's first command on it, shared by the later ones."""
        if spec not in self.finite_rings:
            from .finite_rings import FiniteRing
            self.finite_rings[spec] = (
                FiniteRing.integers_mod(spec.modulus, budget) if spec.relation is None
                else FiniteRing.quotient(spec.modulus, spec.coefficients(),
                                         spec.variable, budget))
        return self.finite_rings[spec]


_IDEAL_CMDS = {"grade", "semiregular", "gv", "koszul"}
_IDEAL_INT_CMDS = {"ext", "criterion", "smodule"}
_RING_CMDS = {"cm", "dqdw", "dim"}


def parse(text: str, order: MonomialOrder = GREVLEX) -> SessionScript:
    """Parse a session script; raises ParseError with a 1-based position."""
    cur = _Cursor(tokenize(text))
    items = []
    rings = {}
    ideals = {}
    ideal_rings = {}
    active_ring: Optional[str] = None

    def resolve_ideal(tok: Token) -> str:
        if tok.text not in ideals:
            raise ParseError(f"undeclared ideal {tok.text!r}", tok.line, tok.column)
        if ideal_rings[tok.text] != active_ring:
            raise ParseError(f"ideal {tok.text!r} belongs to ring "
                             f"{ideal_rings[tok.text]!r}, not the active ring",
                             tok.line, tok.column)
        return tok.text

    def require_active(tok: Token) -> str:
        if active_ring is None:
            raise ParseError("no active ring", tok.line, tok.column)
        return active_ring

    while not cur.at(EOF_TOK):
        tok = cur.expect(NAME_TOK, what="a declaration or command")
        word = tok.text

        if word == "ring":
            name_tok = cur.expect(NAME_TOK, what="a ring name")
            cur.expect(PUNCT_TOK, "=")
            domain = _parse_domain(cur)
            cur.expect(PUNCT_TOK, "[")
            variables = [cur.expect(NAME_TOK, what="a variable name").text]
            while cur.at(PUNCT_TOK, ","):
                cur.advance()
                variables.append(cur.expect(NAME_TOK, what="a variable name").text)
            cur.expect(PUNCT_TOK, "]")
            try:
                ambient = PolynomialRing(domain, tuple(variables), order)
            except StructuralError as exc:
                raise ParseError(str(exc), name_tok.line, name_tok.column) from exc
            relations = ()
            if cur.at(PUNCT_TOK, "/"):
                cur.advance()
                cur.expect(PUNCT_TOK, "(")
                relations = _parse_poly_list(cur, ambient)
                cur.expect(PUNCT_TOK, ")")
            if name_tok.text in rings:
                raise ParseError(f"ring {name_tok.text!r} already declared",
                                 name_tok.line, name_tok.column)
            rings[name_tok.text] = RingPresentation(ambient, relations)
            active_ring = name_tok.text

        elif word == "ideal":
            name_tok = cur.expect(NAME_TOK, what="an ideal name")
            cur.expect(PUNCT_TOK, "=")
            ring_name = require_active(name_tok)
            cur.expect(PUNCT_TOK, "(")
            gens = _parse_poly_list(cur, rings[ring_name].ambient)
            cur.expect(PUNCT_TOK, ")")
            if name_tok.text in ideals:
                raise ParseError(f"ideal {name_tok.text!r} already declared",
                                 name_tok.line, name_tok.column)
            ideals[name_tok.text] = IdealPresentation(rings[ring_name], gens)
            ideal_rings[name_tok.text] = ring_name

        elif word in _IDEAL_CMDS:
            ring_name = require_active(tok)
            name = resolve_ideal(cur.expect(NAME_TOK, what="an ideal name"))
            items.append(Command(word, ring_name, (name,)))

        elif word in _IDEAL_INT_CMDS:
            ring_name = require_active(tok)
            name = resolve_ideal(cur.expect(NAME_TOK, what="an ideal name"))
            deg_tok = cur.expect(INT_TOK, what="a non-negative integer")
            items.append(Command(word, ring_name, (name,), degree=_int(deg_tok)))

        elif word == "fpd":
            ring_name = require_active(tok)
            names = [resolve_ideal(cur.expect(NAME_TOK, what="an ideal name"))]
            while cur.at(NAME_TOK):
                names.append(resolve_ideal(cur.advance()))
            items.append(Command(word, ring_name, tuple(names)))

        elif word in _RING_CMDS:
            ring_name = require_active(tok)
            items.append(Command(word, ring_name))

        elif word == "oracle":
            check_tok = cur.expect(NAME_TOK, what="dq, dw or ideals")
            if check_tok.text not in ("dq", "dw", "ideals"):
                raise ParseError(f"unknown oracle check {check_tok.text!r}",
                                 check_tok.line, check_tok.column)
            spec = _parse_oracle_ring(cur)
            items.append(Command("oracle", "", oracle_check=check_tok.text,
                                 oracle_ring=spec))

        else:
            raise ParseError(f"unknown command {word!r}", tok.line, tok.column)

        cur.expect(PUNCT_TOK, ";")

    return SessionScript(tuple(items), rings, ideals)


def _parse_domain(cur: _Cursor) -> CoefficientDomain:
    tok = cur.expect(NAME_TOK, what="QQ, ZZ or FF<p>")
    if tok.text == "QQ":
        return CoefficientDomain.QQ()
    if tok.text == "ZZ":
        return CoefficientDomain.ZZ()
    return _prime_field(cur, tok, "domain")


def _prime_field(cur: _Cursor, tok: Token, what: str) -> CoefficientDomain:
    """FF<p> (or FF p) named by `tok`, with p prime."""
    m = re.fullmatch(r"FF([0-9]*)", tok.text)
    if m is None:
        raise ParseError(f"unknown {what} {tok.text!r}", tok.line, tok.column)
    p = (_int(tok, m.group(1)) if m.group(1)
         else _int(cur.expect(INT_TOK, what="a prime")))
    try:
        return CoefficientDomain.FF(p)
    except StructuralError as exc:
        raise ParseError(str(exc), tok.line, tok.column) from exc


def _parse_oracle_ring(cur: _Cursor) -> OracleRingSpec:
    tok = cur.expect(NAME_TOK, what="ZZ/n or FF<p>")
    if tok.text == "ZZ":
        cur.expect(PUNCT_TOK, "/")
        n = _int(cur.expect(INT_TOK, what="a modulus"))
    else:
        n = _prime_field(cur, tok, "oracle ring").p
    if n < 2:
        raise ParseError("modulus must be at least 2", tok.line, tok.column)
    if not cur.at(PUNCT_TOK, "["):
        return OracleRingSpec(n)
    cur.advance()
    var = cur.expect(NAME_TOK, what="a variable name").text
    cur.expect(PUNCT_TOK, "]")
    cur.expect(PUNCT_TOK, "/")
    cur.expect(PUNCT_TOK, "(")
    ambient = PolynomialRing(CoefficientDomain.ZZ(), (var,))
    rel = _parse_expr(cur, ambient)
    cur.expect(PUNCT_TOK, ")")
    return OracleRingSpec(n, var, rel)
