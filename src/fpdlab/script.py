"""The input language: declarations of rings and ideals plus analysis commands.

Grammar (names lexed as identifiers, `#` starts a comment to end of line):

    script  := ((decl | cmd) ";")*
    decl    := "ring" NAME "=" domain "[" vars "]" ["/" "(" polys ")"]
             | "ideal" NAME "=" "(" polys ")"
    domain  := "QQ" | "ZZ" | "FF" INT          (FF2 also accepted)
    cmd     := "grade" NAME | "ext" NAME INT | "semiregular" NAME | "gv" NAME
             | "criterion" NAME INT | "fpd" NAME+ ["--exhaustive"]
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
FLAG_TOK = "flag"
EOF_TOK = "eof"

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
            if kind == "flag":
                tokens.append(Token(FLAG_TOK, chunk[2:], line, col))
            else:
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
        op = cur.advance().text
        rhs = _parse_term(cur, ring)
        poly = poly + rhs if op == "+" else poly - rhs
    return poly


def _parse_term(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    poly = _parse_factor(cur, ring)
    while cur.at(PUNCT_TOK, "*"):
        cur.advance()
        poly = poly * _parse_factor(cur, ring)
    return poly


def _parse_factor(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    base = _parse_atom(cur, ring)
    if cur.at(PUNCT_TOK, "^"):
        cur.advance()
        tok = cur.expect(INT_TOK, what="an integer exponent")
        base = base ** int(tok.text)
    return base


def _parse_atom(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    tok = cur.peek()
    if tok.kind == INT_TOK:
        cur.advance()
        value = Fraction(int(tok.text))
        if cur.at(PUNCT_TOK, "/") and cur.tokens[cur.i + 1].kind == INT_TOK:
            cur.advance()
            den = int(cur.advance().text)
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
class RingDecl:
    name: str
    ring: RingPresentation


@dataclass(frozen=True)
class IdealDecl:
    name: str
    ring_name: str
    ideal: IdealPresentation


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

    def coefficients(self) -> Optional[list]:
        """The relation's little-endian coefficients, or None for Z/n."""
        if self.relation is None:
            return None
        coeffs = [0] * (self.relation.total_degree() + 1)
        for m, c in self.relation.terms:
            coeffs[m[0]] = c
        return coeffs


@dataclass(frozen=True)
class Command:
    kind: str
    ring_name: str
    ideal_names: tuple = ()
    degree: Optional[int] = None
    exhaustive: bool = False
    oracle_check: Optional[str] = None
    oracle_ring: Optional[OracleRingSpec] = None


@dataclass(frozen=True)
class SessionScript:
    items: tuple  # RingDecl | IdealDecl | Command, in source order
    rings: dict
    ideals: dict
    finite_rings: dict = field(default_factory=dict, compare=False, repr=False)

    def commands(self) -> list:
        return [it for it in self.items if isinstance(it, Command)]

    def finite_ring(self, spec: OracleRingSpec, budget: Optional[Budget] = None):
        """The explicit tables of an oracle ring (cached): built under the
        budget of the script's first command on it, shared by the later ones."""
        if spec not in self.finite_rings:
            from .finite_rings import build_finite_ring
            self.finite_rings[spec] = build_finite_ring(
                spec.modulus, spec.coefficients(), spec.variable or "x", budget=budget)
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
            decl = RingDecl(name_tok.text, RingPresentation(ambient, relations))
            rings[name_tok.text] = decl.ring
            active_ring = name_tok.text
            items.append(decl)

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
            ideal = IdealPresentation(rings[ring_name], gens)
            ideals[name_tok.text] = ideal
            ideal_rings[name_tok.text] = ring_name
            items.append(IdealDecl(name_tok.text, ring_name, ideal))

        elif word in _IDEAL_CMDS:
            ring_name = require_active(tok)
            name = resolve_ideal(cur.expect(NAME_TOK, what="an ideal name"))
            items.append(Command(word, ring_name, (name,)))

        elif word in _IDEAL_INT_CMDS:
            ring_name = require_active(tok)
            name = resolve_ideal(cur.expect(NAME_TOK, what="an ideal name"))
            deg_tok = cur.expect(INT_TOK, what="a non-negative integer")
            items.append(Command(word, ring_name, (name,), degree=int(deg_tok.text)))

        elif word == "fpd":
            ring_name = require_active(tok)
            names = [resolve_ideal(cur.expect(NAME_TOK, what="an ideal name"))]
            while cur.at(NAME_TOK):
                names.append(resolve_ideal(cur.advance()))
            exhaustive = False
            if cur.at(FLAG_TOK, "exhaustive"):
                cur.advance()
                exhaustive = True
            items.append(Command(word, ring_name, tuple(names), exhaustive=exhaustive))

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
    m = re.fullmatch(r"FF([0-9]*)", tok.text)
    if m is None:
        raise ParseError(f"unknown domain {tok.text!r}", tok.line, tok.column)
    if m.group(1):
        p = int(m.group(1))
    else:
        p = int(cur.expect(INT_TOK, what="a prime").text)
    try:
        return CoefficientDomain.FF(p)
    except StructuralError as exc:
        raise ParseError(str(exc), tok.line, tok.column) from exc


def _parse_oracle_ring(cur: _Cursor) -> OracleRingSpec:
    tok = cur.expect(NAME_TOK, what="ZZ/n or FF<p>")
    if tok.text == "ZZ":
        cur.expect(PUNCT_TOK, "/")
        n = int(cur.expect(INT_TOK, what="a modulus").text)
    else:
        m = re.fullmatch(r"FF([0-9]*)", tok.text)
        if m is None:
            raise ParseError(f"unknown oracle ring {tok.text!r}", tok.line, tok.column)
        n = int(m.group(1)) if m.group(1) else int(cur.expect(INT_TOK, what="a prime").text)
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


# ---------------------------------------------------------------------------
# Canonical printer (parse . print . parse == parse)

def format_item(item) -> str:
    if isinstance(item, RingDecl):
        ring = item.ring
        text = f"ring {item.name} = {ring.domain}[{','.join(ring.variables)}]"
        if ring.relations:
            text += "/(" + ", ".join(str(r) for r in ring.relations) + ")"
        return text + ";"
    if isinstance(item, IdealDecl):
        gens = ", ".join(str(g) for g in item.ideal.generators)
        return f"ideal {item.name} = ({gens});"
    cmd = item
    if cmd.kind == "oracle":
        return f"oracle {cmd.oracle_check} {cmd.oracle_ring};"
    parts = [cmd.kind, *cmd.ideal_names]
    if cmd.degree is not None:
        parts.append(str(cmd.degree))
    if cmd.exhaustive:
        parts.append("--exhaustive")
    return " ".join(parts) + ";"


def format_script(script: SessionScript) -> str:
    return "\n".join(format_item(it) for it in script.items) + "\n"
