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

A text is read in one regex scan, which yields its token strings, ending in
`""` for end of input; a source file is scanned whole, and its newline
tokens end statements. The parser dispatches on those strings and keeps a
position as a token index, which becomes a line and column only when an
error is raised, by scanning the text again with the same regex. The parser
and the printer each run one loop over an explicit stack, so nesting depth
is bounded by memory, not by the interpreter's recursion limit.
"""
from __future__ import annotations

import re
import weakref
from itertools import islice
from typing import Iterator

from . import defs as _defs
from .errors import (
    ArityMismatch,
    DuplicateDefinition,
    OlsubError,
    ParseError,
    UndeclaredSymbol,
)
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

class AxiomSet:
    """Ground inequalities `lhs <= rhs` over one universe."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[TermId, TermId]] | None = None):
        self.pairs = [] if pairs is None else pairs

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


# One token per match: blanks and `#` comments lead the match, and the group
# holds the token. `.` takes a character that starts no token, and the empty
# match at the end of the text stands for end of input.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?(<=|<:|:>|[&|~()\[\],=:+\n-]|[^\W\d][\w']*|.|\Z)")

# Every token that is not a name: punctuation, keywords, newline and end of input.
_RESERVED = frozenset(
    ["<=", "<:", ":>", "&", "|", "~", "(", ")", "[", "]", ",", "=", ":", "+", "-", "\n", "",
     "top", "bot", "fun", "type"]
)


def _is_name(tok: str) -> bool:
    return tok not in _RESERVED and (tok[0].isalpha() or tok[0] == "_")


class _Parser:
    """Reads the token strings of one scan of `text`.

    A position is a token index. It becomes a line and column only when an
    error is raised, by scanning the text again. A token that is neither
    reserved nor a name (one led by a letter or `_`) is a character that
    starts no token: `?`, a digit, a Unicode blank, or a numeral such as
    `²` that the regex takes as the start of a word. Such a character is
    reported before any other error of its text, or of its line in a source
    file (`lines`), so a text reads as if tokenized whole, or line by line,
    before it is parsed. In a source file a newline ends a statement, and
    reads as end of input."""

    def __init__(self, text: str, universe: TermUniverse, lines: bool = False):
        self.text = text
        self.tokens: list[str] = _TOKEN.findall(text)
        self.pos = 0
        self.u = universe
        self.lines = lines
        self.ends = ("\n", "") if lines else ("",)

    def position(self, index: int) -> tuple[int, int]:
        """Line and column of token `index`, found by scanning the text again."""
        text = self.text
        m = next(islice(_TOKEN.finditer(text), index, None))
        offset = m.start(1)
        if self.lines and self.tokens[index] in self.ends:
            comment = text.find("#", m.start(), offset)  # a source line ends at its comment
            if comment >= 0:
                offset = comment
        return 1 + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, *self.position(index))

    def unexpected(self, expected: str, index: int) -> ParseError:
        found = self.tokens[index]
        if found in self.ends:
            found = ""
        return self.error(f"{expected}, found {found!r}", index)

    def raise_bad_character(self, start: int) -> None:
        """Raise the error of the first character that starts no token in
        the tokens from `start` to the end of the text, or of the line in a
        source file; return if there is none."""
        for i in range(start, len(self.tokens)):
            tok = self.tokens[i]
            if tok in self.ends:
                return
            if tok not in _RESERVED and not _is_name(tok):
                raise self.error(f"unexpected character {tok[0]!r}", i) from None

    def expect(self, token: str) -> None:
        if self.tokens[self.pos] != token:
            raise self.unexpected(f"expected {token!r}", self.pos)
        self.pos += 1

    def name(self) -> str:
        tok = self.tokens[self.pos]
        if not _is_name(tok):
            raise self.unexpected("expected 'name'", self.pos)
        self.pos += 1
        return tok

    def end(self) -> None:
        tok = self.tokens[self.pos]
        if tok not in self.ends:
            raise self.error(f"trailing input {tok!r}", self.pos)

    def skip_newlines(self) -> None:
        while self.tokens[self.pos] == "\n":
            self.pos += 1

    def query(self) -> tuple[TermId, TermId]:
        lhs = self.term()
        self.expect("<=")
        return lhs, self.term()

    def term(self) -> TermId:
        """term := meet ('|' meet)* ; meet := '~'* atom ('&' '~'* atom)* ;
        atom := top | bot | NAME | NAME '(' args ')' | '(' term ')'.

        Parentheses and applications open a frame on an explicit stack that
        holds the enclosing term's joins, its current meet's parts, the `~`
        count before the bracket and, for an application, its arguments so
        far, name and position, so nesting depth is bounded by memory."""
        tokens, u = self.tokens, self.u
        ids, symbols = u._ids, u.symbols  # a variable is keyed by its name
        pos = self.pos
        stack: list[tuple] = []
        joins = meets = None  # the parts so far, made at the first operator
        while True:
            nots = 0
            tok = tokens[pos]
            while tok == "~":
                nots += 1
                pos += 1
                tok = tokens[pos]
            at = pos
            pos += 1
            if tok not in _RESERVED and (tok[0].isalpha() or tok[0] == "_"):  # a name
                if tokens[pos] != "(":
                    t = self.apply(tok, at, []) if tok in symbols else ids.get(tok)
                    if t is None:
                        t = u.var(tok)
                elif tokens[pos + 1] == ")":
                    pos += 2
                    t = self.apply(tok, at, [])
                else:
                    pos += 1
                    stack.append((joins, meets, nots, [], tok, at))
                    joins = meets = None
                    continue
            elif tok == "(":
                stack.append((joins, meets, nots, None, tok, at))
                joins = meets = None
                continue
            elif tok == "top":
                t = u.top()
            elif tok == "bot":
                t = u.bot()
            else:
                raise self.unexpected("expected a term", at)
            while True:  # `t` completes an atom: close every meet, term and frame it ends
                while nots:
                    t = u.neg(t)
                    nots -= 1
                tok = tokens[pos]
                if tok == "&":
                    pos += 1
                    meets = meets or []
                    meets.append(t)
                    break
                if meets is not None:
                    meets.append(t)
                    t = u.meet(meets)
                    meets = None
                if tok == "|":
                    pos += 1
                    joins = joins or []
                    joins.append(t)
                    break
                if joins is not None:
                    joins.append(t)
                    t = u.join(joins)
                if not stack:
                    self.pos = pos
                    return t
                joins, meets, nots, args, name, at = stack.pop()
                if args is not None:
                    args.append(t)
                    if tok == ",":
                        pos += 1
                        stack.append((joins, meets, nots, args, name, at))
                        joins = meets = None
                        break
                if tok != ")":
                    raise self.unexpected("expected ')'", pos)
                pos += 1
                if args is not None:
                    t = self.apply(name, at, args)

    def apply(self, name: str, index: int, args: list[TermId]) -> TermId:
        decl = self.u.symbols.get(name)
        if decl is None:
            raise self.error(f"undeclared symbol {name!r}", index) from UndeclaredSymbol(name)
        if len(args) != decl.arity:
            line, column = self.position(index)
            raise ArityMismatch(
                f"{decl.name} expects {decl.arity} arguments, got {len(args)} "
                f"(line {line}, column {column})"
            )
        return self.u.app(decl, args)

    def variance_list(self) -> list[Variance]:
        self.expect("(")
        out: list[Variance] = []
        if self.tokens[self.pos] != ")":
            out.append(self.variance())
            while self.tokens[self.pos] == ",":
                self.pos += 1
                out.append(self.variance())
        self.expect(")")
        return out

    def variance(self) -> Variance:
        tok = self.tokens[self.pos]
        if tok not in ("o", "+", "-"):
            raise self.unexpected("expected a variance (o, + or -)", self.pos)
        self.pos += 1
        return Variance(tok)

    def skip_blank_line(self) -> bool:
        """Skip a source line that holds only blanks, such as U+00A0, that
        are tokens of their own: `str.strip` would empty it."""
        tokens, pos = self.tokens, self.pos
        while tokens[pos] != "\n" and tokens[pos].isspace():
            pos += 1
        if tokens[pos] not in self.ends:
            return False
        self.pos = pos
        return True


def _parse_text(text: str, universe: TermUniverse, read):
    """`read(parser)` over the whole text, between optional newlines."""
    p = _Parser(text, universe)
    try:
        p.skip_newlines()
        result = read(p)
        p.skip_newlines()
        p.end()
    except OlsubError:
        p.raise_bad_character(0)
        raise
    return result


def parse_term(text: str, universe: TermUniverse) -> TermId:
    """Parse one term. All constructor names used must be declared."""
    return _parse_text(text, universe, _Parser.term)


def parse_query(text: str, universe: TermUniverse) -> tuple[TermId, TermId]:
    """Parse a query string `S <= T`."""
    return _parse_text(text, universe, _Parser.query)


def parse_source(text: str, universe: TermUniverse) -> tuple[AxiomSet, list["_defs.Definition"]]:
    """Parse a source file: declarations, axiom lines and type definitions.

    Later lines may use symbols declared on earlier lines only.
    """
    axioms = AxiomSet()
    definitions: list[_defs.Definition] = []
    # `str.splitlines` says where a line ends: at `\r\n`, a lone `\r` or a
    # Unicode separator such as U+2028 too. Joined by `\n`, the lines keep
    # their numbers and columns.
    p = _Parser("\n".join(text.splitlines()), universe, lines=True)
    tokens = p.tokens
    while True:
        start = p.pos
        head = tokens[start]
        if head == "\n":
            p.pos += 1
            continue
        if head == "":
            return axioms, definitions
        if head.isspace() and p.skip_blank_line():
            continue
        try:
            if head == "fun":
                p.pos += 1
                name = p.name()
                p.expect(":")
                universe.declare(name, p.variance_list())
            elif head == "type":
                p.pos += 1
                definitions.append(_parse_definition(p, universe, definitions))
            else:
                lhs = p.term()
                op = tokens[p.pos]
                if op == "<=":
                    p.pos += 1
                    axioms.add(lhs, p.term())
                elif op == "=":
                    p.pos += 1
                    axioms.add_equality(lhs, p.term())
                else:
                    raise p.unexpected("expected '<=' or '='", p.pos)
            p.end()
        except OlsubError:
            p.raise_bad_character(start)
            raise


def _parse_definition(
    p: _Parser, universe: TermUniverse, previous: list["_defs.Definition"]
) -> "_defs.Definition":
    at = p.pos
    name = p.name()
    if any(d.name == name for d in previous):
        raise DuplicateDefinition(name)
    p.expect("[")
    params = [p.name()]
    while p.tokens[p.pos] == ",":
        p.pos += 1
        params.append(p.name())
    p.expect("]")
    if len(set(params)) != len(params):
        raise p.error("duplicate definition parameter", at)
    op = p.tokens[p.pos]
    if op not in ("<:", ":>"):
        raise p.unexpected("expected '<:' or ':>'", p.pos)
    p.pos += 1
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


# The text of each term printed without `rename`, per universe; a dropped
# universe drops its texts.
_printed: "weakref.WeakKeyDictionary[TermUniverse, dict[TermId, str]]" = (
    weakref.WeakKeyDictionary())


def print_term(universe: TermUniverse, t: TermId, rename: dict[str, str] | None = None) -> str:
    """Render a term; parsing the result yields `t` back for parser-range terms.

    Negated variables display as `~x` and dual symbols as `~F(...)`, so the
    printed form of a pseudo-negation-normal term reads as ordinary negation
    (and re-parses to its Not-encoded preimage). An id that is not a term
    of `universe` raises `TermIdOverflow`.

    A compound term printed without `rename` is rendered once per universe:
    its text is memoized in a table keyed weakly by the universe, so the
    texts are freed with the universe, and a later call returns it. A call
    with a non-empty `rename` renders anew and memoizes nothing. The table
    takes no lock: two threads that race on one term both render it, to
    the same text.
    """
    universe.require(t)
    node = universe.node(t)
    if node.kind == VAR:  # the commonest proof-sequent element needs no stack
        return rename.get(node.name, node.name) if rename else node.name
    if rename:
        return _print(universe, t, rename)
    texts = _printed.get(universe)
    if texts is None:
        texts = _printed[universe] = {}
    text = texts.get(t)
    if text is None:
        text = texts[t] = _print(universe, t, {})
    return text


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
