"""Text grammar for terms, signature declarations, axiom sets and queries.

Concrete ASCII syntax: `&` meet, `|` join, `~` negation, `top`/`bot` bounds,
`F(a, b)` application. Precedence is ~ > & > |, both binary operators
associate left and flatten. Source files are line-oriented:

    # comment
    fun NAME : (V{,V}*)        V in {o,+,-}
    TERM <= TERM
    TERM = TERM                stored as both inequalities
    type NAME[A,B] <: TERM     bounded abstract type definition

Equality axioms are sugar for the two inequalities.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import defs as _defs
from .errors import ArityMismatch, DuplicateDefinition, ParseError, UndeclaredSymbol
from .terms import (
    APP,
    BOT,
    JOIN,
    MEET,
    NEGVAR,
    NOT,
    TOP,
    VAR,
    TermId,
    TermUniverse,
    Variance,
)

_KEYWORDS = {"top", "bot", "fun", "type"}


@dataclass
class AxiomSet:
    """Ground inequalities `lhs <= rhs` over one universe."""

    pairs: list[tuple[TermId, TermId]] = field(default_factory=list)

    def add(self, lhs: TermId, rhs: TermId) -> None:
        self.pairs.append((lhs, rhs))

    def add_equality(self, lhs: TermId, rhs: TermId) -> None:
        self.pairs.append((lhs, rhs))
        self.pairs.append((rhs, lhs))

    def __iter__(self) -> Iterator[tuple[TermId, TermId]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[TermId, TermId]) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line = line_offset
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(_Token("newline", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "name"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in ("<=", "<:", ":>"):
            tokens.append(_Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in "&|~()[],=:+-":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], universe: TermUniverse):
        self.tokens = tokens
        self.pos = 0
        self.u = universe

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column)
        return self.next()

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.next()

    # term := join ; join := meet ('|' meet)* ; meet := unary ('&' unary)*
    def term(self) -> TermId:
        parts = [self.meet()]
        while self.peek().kind == "|":
            self.next()
            parts.append(self.meet())
        return parts[0] if len(parts) == 1 else self.u.join(parts)

    def meet(self) -> TermId:
        parts = [self.unary()]
        while self.peek().kind == "&":
            self.next()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else self.u.meet(parts)

    def unary(self) -> TermId:
        if self.peek().kind != "~":
            return self.atom()
        count = 0  # a loop, not recursion: a run of `~` may be arbitrarily long
        while self.peek().kind == "~":
            self.next()
            count += 1
        t = self.atom()
        for _ in range(count):
            t = self.u.neg(t)
        return t

    def atom(self) -> TermId:
        tok = self.peek()
        if tok.kind == "top":
            self.next()
            return self.u.top()
        if tok.kind == "bot":
            self.next()
            return self.u.bot()
        if tok.kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if tok.kind == "name":
            self.next()
            if self.peek().kind == "(":
                self.next()
                args: list[TermId] = []
                if self.peek().kind != ")":
                    args.append(self.term())
                    while self.peek().kind == ",":
                        self.next()
                        args.append(self.term())
                self.expect(")")
                decl = self.u.symbols.get(tok.text)
                if decl is None:
                    raise ParseError(
                        f"undeclared symbol {tok.text!r}", tok.line, tok.column
                    ) from UndeclaredSymbol(tok.text)
                if len(args) != decl.arity:
                    raise ArityMismatch(
                        f"{decl.name} expects {decl.arity} arguments, got {len(args)} "
                        f"(line {tok.line}, column {tok.column})"
                    )
                return self.u.app(decl, args)
            decl = self.u.symbols.get(tok.text)
            if decl is not None:
                if decl.arity != 0:
                    raise ArityMismatch(
                        f"{decl.name} expects {decl.arity} arguments, got 0 "
                        f"(line {tok.line}, column {tok.column})"
                    )
                return self.u.app(decl, [])
            return self.u.var(tok.text)
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)

    def variance_list(self) -> list[Variance]:
        self.expect("(")
        out: list[Variance] = []
        if self.peek().kind != ")":
            out.append(self.variance())
            while self.peek().kind == ",":
                self.next()
                out.append(self.variance())
        self.expect(")")
        return out

    def variance(self) -> Variance:
        tok = self.next()
        if tok.kind == "+":
            return Variance.COVARIANT
        if tok.kind == "-":
            return Variance.CONTRAVARIANT
        if tok.kind == "name" and tok.text == "o":
            return Variance.INVARIANT
        raise ParseError(f"expected a variance (o, + or -), found {tok.text!r}", tok.line, tok.column)


def parse_term(text: str, universe: TermUniverse) -> TermId:
    """Parse one term. All constructor names used must be declared."""
    p = _Parser(_tokenize(text), universe)
    p.skip_newlines()
    t = p.term()
    p.skip_newlines()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return t


def parse_query(text: str, universe: TermUniverse) -> tuple[TermId, TermId]:
    """Parse a query string `S <= T`."""
    p = _Parser(_tokenize(text), universe)
    p.skip_newlines()
    lhs = p.term()
    p.expect("<=")
    rhs = p.term()
    p.skip_newlines()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return lhs, rhs


def parse_source(text: str, universe: TermUniverse) -> tuple[AxiomSet, list["_defs.Definition"]]:
    """Parse a source file: declarations, axiom lines and type definitions.

    Later lines may use symbols declared on earlier lines only.
    """
    axioms = AxiomSet()
    definitions: list[_defs.Definition] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        p = _Parser(_tokenize(raw.split("#", 1)[0], line_offset=lineno), universe)
        head = p.peek()
        if head.kind == "fun":
            p.next()
            name = p.expect("name").text
            p.expect(":")
            vs = p.variance_list()
            universe.declare(name, vs)
        elif head.kind == "type":
            p.next()
            definitions.append(_parse_definition(p, universe, definitions))
        else:
            lhs = p.term()
            op = p.next()
            if op.kind == "<=":
                axioms.add(lhs, p.term())
            elif op.kind == "=":
                axioms.add_equality(lhs, p.term())
            else:
                raise ParseError(
                    f"expected '<=' or '=', found {op.text!r}", op.line, op.column
                )
        tok = p.peek()
        if tok.kind not in ("eof", "newline"):
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return axioms, definitions


def _parse_definition(
    p: _Parser, universe: TermUniverse, previous: list["_defs.Definition"]
) -> "_defs.Definition":
    name_tok = p.expect("name")
    name = name_tok.text
    if any(d.name == name for d in previous):
        raise DuplicateDefinition(name)
    p.expect("[")
    params = [p.expect("name").text]
    while p.peek().kind == ",":
        p.next()
        params.append(p.expect("name").text)
    p.expect("]")
    if len(set(params)) != len(params):
        raise ParseError("duplicate definition parameter", name_tok.line, name_tok.column)
    op = p.next()
    if op.kind not in ("<:", ":>"):
        raise ParseError(f"expected '<:' or ':>', found {op.text!r}", op.line, op.column)
    bound = p.term()
    kind = "upper" if op.kind == "<:" else "lower"
    definition = _defs.Definition(name, tuple(params), bound, kind)
    _defs.declare_definition_symbol(universe, definition)
    return definition


# ----------------------------------------------------------------------
# printing

_PREC_JOIN = 0
_PREC_MEET = 1
_PREC_UNARY = 2


def print_term(universe: TermUniverse, t: TermId, rename: dict[str, str] | None = None) -> str:
    """Render a term; parsing the result yields `t` back for parser-range terms.

    Negated variables display as `~x` and dual symbols as `~F(...)`, so the
    printed form of a pseudo-negation-normal term reads as ordinary negation
    (and re-parses to its Not-encoded preimage).
    """
    return _print(universe, t, _PREC_JOIN, rename or {})


def _print(u: TermUniverse, t: TermId, prec: int, rename: dict[str, str]) -> str:
    node = u.node(t)
    kind = node.kind
    if kind == VAR:
        return rename.get(node.name, node.name)
    if kind == NEGVAR:
        return "~" + rename.get(node.name, node.name)
    if kind == TOP:
        return "top"
    if kind == BOT:
        return "bot"
    if kind == NOT:
        count = 0  # a loop, not recursion: a run of `~` may be arbitrarily long
        while node.kind == NOT:
            t = node.children[0]
            node = u.node(t)
            count += 1
        return "~" * count + _print(u, t, _PREC_UNARY, rename)
    if kind == APP:
        decl = node.symbol
        args = ", ".join(_print(u, a, _PREC_JOIN, rename) for a in node.children)
        if decl.dual_of is not None:
            shown = rename.get(decl.dual_of, decl.dual_of)
            return f"~{shown}({args})"
        shown = rename.get(decl.name, decl.name)
        return f"{shown}({args})"
    if kind == MEET:
        body = " & ".join(_print(u, c, _PREC_MEET + 1, rename) for c in node.children)
        return f"({body})" if prec > _PREC_MEET else body
    if kind == JOIN:
        body = " | ".join(_print(u, c, _PREC_JOIN + 1, rename) for c in node.children)
        return f"({body})" if prec > _PREC_JOIN else body
    raise AssertionError(f"unknown node kind {kind}")
