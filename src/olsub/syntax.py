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

A text is tokenized by one regex pass into `(kind, text, offset)` triples;
line and column are computed from the offset only when an error is raised.
The parser and the printer each run one loop over an explicit stack, so
nesting depth is bounded by memory, not by the interpreter's recursion limit.
"""
from __future__ import annotations

import re
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


# One group per token class; blanks and comments match none, and group 4
# takes a character that starts no token.
_TOKEN = re.compile(r"(\n)|([^\W\d][\w']*)|(<=|<:|:>|[&|~()\[\],=:+-])|[ \t\r]+|#[^\n]*|(.)")


def _position(text: str, offset: int, line_offset: int) -> tuple[int, int]:
    """Line and column of a text offset; computed only for error messages."""
    return line_offset + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)


def _tokenize(text: str, line_offset: int = 1) -> list[tuple[str, str, int]]:
    """`(kind, text, offset)` triples ending in an `eof` token."""
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        word = m.group(group)
        if group == 3:
            append((word, word, m.start()))
        elif group == 2 and (word[0].isalpha() or word[0] == "_"):
            append((word if word in _KEYWORDS else "name", word, m.start()))
        elif group == 1:
            append(("newline", word, m.start()))
        else:  # group 4, or a word led by a numeral `\d` lets through, such as a superscript
            position = _position(text, m.start(), line_offset)
            raise ParseError(f"unexpected character {word[0]!r}", *position)
    append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, universe: TermUniverse, line_offset: int = 1):
        self.text = text
        self.line_offset = line_offset
        self.tokens = _tokenize(text, line_offset)
        self.pos = 0
        self.u = universe

    def error(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *_position(self.text, offset, self.line_offset))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def end(self, kinds: tuple[str, ...]) -> None:
        kind, text, offset = self.tokens[self.pos]
        if kind not in kinds:
            raise self.error(f"trailing input {text!r}", offset)

    def skip_newlines(self) -> None:
        while self.tokens[self.pos][0] == "newline":
            self.pos += 1

    def term(self) -> TermId:
        """term := meet ('|' meet)* ; meet := '~'* atom ('&' '~'* atom)* ;
        atom := top | bot | NAME | NAME '(' args ')' | '(' term ')'.

        Parentheses and applications open a frame on an explicit stack that
        holds the enclosing term's joins, its current meet's parts, the `~`
        count before the bracket and, for an application, its arguments so
        far and name, so nesting depth is bounded by memory."""
        tokens, u = self.tokens, self.u
        pos = self.pos
        stack: list[tuple] = []
        joins: list[TermId] = []
        meets: list[TermId] = []
        while True:
            nots = 0
            kind, text, offset = tokens[pos]
            while kind == "~":
                nots += 1
                pos += 1
                kind, text, offset = tokens[pos]
            pos += 1
            if kind == "name":
                if tokens[pos][0] != "(":
                    t = self.apply(text, offset, []) if text in u.symbols else u.var(text)
                elif tokens[pos + 1][0] == ")":
                    pos += 2
                    t = self.apply(text, offset, [])
                else:
                    pos += 1
                    stack.append((joins, meets, nots, [], text, offset))
                    joins, meets = [], []
                    continue
            elif kind == "(":
                stack.append((joins, meets, nots, None, text, offset))
                joins, meets = [], []
                continue
            elif kind == "top":
                t = u.top()
            elif kind == "bot":
                t = u.bot()
            else:
                raise self.error(f"expected a term, found {text!r}", offset)
            while True:  # `t` completes an atom: close every meet, term and frame it ends
                for _ in range(nots):
                    t = u.neg(t)
                meets.append(t)
                kind = tokens[pos][0]
                if kind == "&":
                    pos += 1
                    break
                joins.append(meets[0] if len(meets) == 1 else u.meet(meets))
                meets = []
                if kind == "|":
                    pos += 1
                    break
                t = joins[0] if len(joins) == 1 else u.join(joins)
                if not stack:
                    self.pos = pos
                    return t
                joins, meets, nots, args, text, offset = stack.pop()
                if args is not None:
                    args.append(t)
                    if kind == ",":
                        pos += 1
                        stack.append((joins, meets, nots, args, text, offset))
                        joins, meets = [], []
                        break
                self.pos = pos
                self.expect(")")
                pos += 1
                if args is not None:
                    t = self.apply(text, offset, args)

    def apply(self, name: str, offset: int, args: list[TermId]) -> TermId:
        decl = self.u.symbols.get(name)
        if decl is None:
            raise self.error(f"undeclared symbol {name!r}", offset) from UndeclaredSymbol(name)
        if len(args) != decl.arity:
            line, column = _position(self.text, offset, self.line_offset)
            raise ArityMismatch(
                f"{decl.name} expects {decl.arity} arguments, got {len(args)} "
                f"(line {line}, column {column})"
            )
        return self.u.app(decl, args)

    def variance_list(self) -> list[Variance]:
        self.expect("(")
        out: list[Variance] = []
        if self.peek()[0] != ")":
            out.append(self.variance())
            while self.peek()[0] == ",":
                self.next()
                out.append(self.variance())
        self.expect(")")
        return out

    def variance(self) -> Variance:
        kind, text, offset = self.next()
        if kind == "+":
            return Variance.COVARIANT
        if kind == "-":
            return Variance.CONTRAVARIANT
        if kind == "name" and text == "o":
            return Variance.INVARIANT
        raise self.error(f"expected a variance (o, + or -), found {text!r}", offset)


def parse_term(text: str, universe: TermUniverse) -> TermId:
    """Parse one term. All constructor names used must be declared."""
    p = _Parser(text, universe)
    p.skip_newlines()
    t = p.term()
    p.skip_newlines()
    p.end(("eof",))
    return t


def parse_query(text: str, universe: TermUniverse) -> tuple[TermId, TermId]:
    """Parse a query string `S <= T`."""
    p = _Parser(text, universe)
    p.skip_newlines()
    lhs = p.term()
    p.expect("<=")
    rhs = p.term()
    p.skip_newlines()
    p.end(("eof",))
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
        p = _Parser(raw.split("#", 1)[0], universe, line_offset=lineno)
        head = p.peek()[0]
        if head == "fun":
            p.next()
            name = p.expect("name")[1]
            p.expect(":")
            vs = p.variance_list()
            universe.declare(name, vs)
        elif head == "type":
            p.next()
            definitions.append(_parse_definition(p, universe, definitions))
        else:
            lhs = p.term()
            op, text, offset = p.next()
            if op == "<=":
                axioms.add(lhs, p.term())
            elif op == "=":
                axioms.add_equality(lhs, p.term())
            else:
                raise p.error(f"expected '<=' or '=', found {text!r}", offset)
        p.end(("eof", "newline"))
    return axioms, definitions


def _parse_definition(
    p: _Parser, universe: TermUniverse, previous: list["_defs.Definition"]
) -> "_defs.Definition":
    _, name, name_offset = p.expect("name")
    if any(d.name == name for d in previous):
        raise DuplicateDefinition(name)
    p.expect("[")
    params = [p.expect("name")[1]]
    while p.peek()[0] == ",":
        p.next()
        params.append(p.expect("name")[1])
    p.expect("]")
    if len(set(params)) != len(params):
        raise p.error("duplicate definition parameter", name_offset)
    op, text, offset = p.next()
    if op not in ("<:", ":>"):
        raise p.error(f"expected '<:' or ':>', found {text!r}", offset)
    bound = p.term()
    kind = "upper" if op == "<:" else "lower"
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
    (and re-parses to its Not-encoded preimage). An id that is not a term
    of `universe` raises `TermIdOverflow`.
    """
    universe.require(t)
    rename = rename or {}
    node = universe.node(t)
    if node.kind == VAR:  # the commonest proof-sequent element needs no stack
        return rename.get(node.name, node.name)
    return _print(universe, t, rename)


def _print(u: TermUniverse, t: TermId, rename: dict[str, str]) -> str:
    """Render on an explicit stack of text pieces and `(term, precedence)` items."""
    out: list[str] = []
    stack: list = [(t, _PREC_JOIN)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, prec = item
        node = u.node(t)
        kind = node.kind
        if kind == VAR:
            out.append(rename.get(node.name, node.name))
        elif kind == NEGVAR:
            out.append("~" + rename.get(node.name, node.name))
        elif kind == TOP:
            out.append("top")
        elif kind == BOT:
            out.append("bot")
        elif kind == NOT:
            out.append("~")
            stack.append((node.children[0], _PREC_UNARY))
        else:
            if kind == APP:
                dual = node.symbol.dual_of
                if dual is None:
                    out.append(rename.get(node.name, node.name) + "(")
                else:
                    out.append("~" + rename.get(dual, dual) + "(")
                stack.append(")")
                sep, inner = ", ", _PREC_JOIN
            else:
                own = _PREC_MEET if kind == MEET else _PREC_JOIN
                if prec > own:
                    out.append("(")
                    stack.append(")")
                sep, inner = (" & " if kind == MEET else " | "), own + 1
            kids = node.children
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], inner))
                if i:
                    stack.append(sep)
    return "".join(out)
