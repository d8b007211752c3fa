"""Interned terms over a lattice signature with variance-annotated constructors.

Structurally identical terms share a single integer id (TermId) within one
TermUniverse, so terms form a DAG and equality of ids is equality of
structure. Meets and joins are flattened n-ary nodes. Negated variables and
dual constructor symbols are first-class node kinds: they let the normalizer
carry negation without Not nodes while ordinary input keeps using Not.
"""
from __future__ import annotations

import threading
from enum import Enum
from typing import Callable, Iterable, Sequence, TypeVar, Union

from .errors import (
    ArityMismatch,
    ConflictingDeclaration,
    NotALiteral,
    TermIdOverflow,
    UndeclaredSymbol,
    UnknownVariance,
)

TermId = int
Image = TypeVar("Image")

# Node kinds.
VAR = "var"
NEGVAR = "negvar"
TOP = "top"
BOT = "bot"
MEET = "meet"
JOIN = "join"
NOT = "not"
APP = "app"
_OPPOSITE = {VAR: NEGVAR, NEGVAR: VAR, TOP: BOT, BOT: TOP}  # a literal's kind -> its complement's

# The bounds' bits in the order test's head masks; variable and symbol names
# take adjacent pairs above them (see `TermUniverse`).
BOT_HEAD, TOP_HEAD = 1, 2


class Variance(Enum):
    """Monotonicity class of one constructor argument."""

    INVARIANT = "o"
    COVARIANT = "+"
    CONTRAVARIANT = "-"

    def flip(self) -> "Variance":
        if self is Variance.COVARIANT:
            return Variance.CONTRAVARIANT
        if self is Variance.CONTRAVARIANT:
            return Variance.COVARIANT
        return Variance.INVARIANT


class SymbolDecl:
    """A declared constructor: name, arity and per-argument variance.

    `dual_of` is set only on generated dual symbols, whose variance list is
    the argument-wise flip of the original's. Hot paths read its fields, so
    it is a `__slots__` class, as `TermNode` is, and compares by identity."""

    __slots__ = ("name", "arity", "variances", "dual_of")

    def __init__(self, name: str, arity: int, variances: tuple[Variance, ...],
                 dual_of: str | None = None):
        self.name, self.arity, self.variances, self.dual_of = name, arity, variances, dual_of
        if arity != len(variances):
            raise ArityMismatch(
                f"symbol {self.name}: arity {self.arity} != {len(self.variances)} variances"
            )


class TermNode:
    """One interned node. `name` holds a variable or symbol name where relevant.

    A plain class with `__slots__`, built once per interned term; `node.kind`
    is the hottest read of the engine and the normalizer. It is not
    write-protected: a class that refuses writes must set its fields in
    `__init__` through `object.__setattr__`, which makes a build cost as much
    as a frozen dataclass's, about four times this one's. A named tuple is
    immutable and cheaper to build than that, but reads a field about twice
    as slowly. The universe hands out the one node of each id, and no code
    may change it.
    """

    __slots__ = ("kind", "name", "symbol", "children")

    def __init__(self, kind: str, name: str | None = None, symbol: SymbolDecl | None = None,
                 children: tuple[TermId, ...] = ()):
        self.kind = kind
        self.name = name
        self.symbol = symbol
        self.children = children

    def __repr__(self) -> str:
        return (f"TermNode(kind={self.kind!r}, name={self.name!r}, "
                f"symbol={self.symbol!r}, children={self.children!r})")


class TermUniverse:
    """Interner and signature table.

    Interning records each term's size, whether it holds a NOT
    (`contains_not`) and whether it holds any negation: a NOT, a negated
    variable or an application of a dual symbol (`plain`). It also numbers
    the atoms for the order test's masks: the first variable node of a name
    gives the name a pair of adjacent bit positions (`_var_bits` holds the
    low one, the position of the name's bit; the high one is its
    negation's), and the first application of a symbol gives its base
    name, the original's for a dual, a pair too (`_symbol_bits`; the high
    position is the dual's). Bits `BOT_HEAD` and `TOP_HEAD` are the
    bounds', and pairs are handed out above them, so a mask is as wide as
    the number of names the universe holds, not the number the order test
    has seen. The tables hold positions, not bits: handing out a name's
    pair costs O(1), and the order test shifts a position into its bit
    where it builds a mask. A constructor given a child id the
    universe does not hold raises `TermIdOverflow` and interns nothing, and
    so do the readers `size`, `subterms`, `opposite`, `plain` and
    `contains_not` given such an id; `node` is the unchecked reader. Ids
    are plain integers, not tagged with their universe: an id from another
    universe that is in range here names this universe's term of that id,
    and no check can tell it apart. The id table keys a variable by its
    name alone, a `str`, and every other node by the tuple `(kind, name,
    children)`, so no two nodes share a key; `var` refuses any other name.
    Writes (interning, declarations) are serialized behind a lock; after a
    build phase, ids, nodes and bits may be read concurrently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._nodes: list[TermNode] = []
        self._sizes: list[int] = []
        self._with_not: set[TermId] = set()  # the terms holding a NOT
        self._negated: set[TermId] = set()  # those holding any negation
        self._ids: dict[tuple, TermId] = {}
        self._var_bits: dict[str, int] = {}
        self._symbol_bits: dict[str, int] = {}
        self._next_position = 2  # the next pair's low position, above the bounds' bits
        self.symbols: dict[str, SymbolDecl] = {}

    # ------------------------------------------------------------------
    # signature

    def declare(self, name: str, variances: Sequence[Union[Variance, str]]) -> SymbolDecl:
        """Declare a constructor. Idempotent; conflicting re-declaration is an
        error, and so is a variance other than a `Variance` or its value."""
        try:
            vs = tuple(Variance(v) for v in variances)
        except ValueError:
            raise UnknownVariance(
                f"symbol {name}: variances must be o, + or -, got {variances!r}"
            ) from None
        if name.startswith("~"):
            raise ConflictingDeclaration(f"symbol name {name!r} is reserved for duals")
        with self._lock:
            existing = self.symbols.get(name)
            if existing is not None:
                if existing.variances != vs:
                    raise ConflictingDeclaration(
                        f"symbol {name} already declared with variances "
                        f"{[v.value for v in existing.variances]}"
                    )
                return existing
            decl = SymbolDecl(name, len(vs), vs)
            self.symbols[name] = decl
            return decl

    def dual(self, decl: SymbolDecl) -> SymbolDecl:
        """The symbol standing for the complement of `decl`, with flipped variances.

        Taking the dual of a dual resolves back to the original declaration.
        An existing dual is read without the lock, as `_intern` reads a hit.
        """
        if decl.dual_of is not None:
            return self.symbols[decl.dual_of]
        dual_name = "~" + decl.name
        existing = self.symbols.get(dual_name)
        if existing is not None:
            return existing
        with self._lock:
            existing = self.symbols.get(dual_name)
            if existing is not None:
                return existing
            dual = SymbolDecl(
                dual_name,
                decl.arity,
                tuple(v.flip() for v in decl.variances),
                dual_of=decl.name,
            )
            self.symbols[dual_name] = dual
            return dual

    def opposite(self, t: TermId) -> TermId:
        """The complement of a literal: a variable and its negated variable
        map to each other, an application to its dual symbol over the same
        arguments, top and bottom to each other. A meet, join or `NOT`
        raises `NotALiteral`, and an id the universe does not hold
        `TermIdOverflow`."""
        if not 0 <= t < len(self._nodes):
            self.require(t)
        node = self._nodes[t]
        if node.kind == APP:
            return self.app(self.dual(node.symbol), node.children)
        kind = _OPPOSITE.get(node.kind)
        if kind is None:
            raise NotALiteral(f"a {node.kind} term is not a literal and has no opposite")
        return self.var(node.name) if kind == VAR else self._intern(kind, node.name, (), 1)

    # ------------------------------------------------------------------
    # interning

    def _intern(self, kind: str, name: str | None, children: tuple[TermId, ...],
                size: int, symbol: SymbolDecl | None = None, key=None) -> TermId:
        """The id of the node `(kind, name, children)`; `size` is the node's own
        count, to which its children's sizes are added. `key` is the node's
        key in the table, handed over by a caller that has built it and
        looked it up; a variable's key is its name, which `var` hands over.

        A hit is read without the lock and builds nothing. A miss takes the
        lock and looks again, refuses children the universe does not hold
        (`TermIdOverflow`), then builds the node and records it (its size,
        whether it holds a NOT or any negation, and a pair of bit positions
        for a new variable or symbol base name) before publishing the id, so
        whoever reads an id finds its node and its bit positions."""
        ids = self._ids
        if key is None:
            key = (kind, name, children)
            tid = ids.get(key)
            if tid is not None:
                return tid
        self._lock.acquire()  # `with` costs about twice as much on this path
        try:
            tid = ids.get(key)
            if tid is not None:
                return tid
            tid = len(self._nodes)
            if children:
                for c in children:
                    if not 0 <= c < tid:
                        self.require(c)  # raises TermIdOverflow
                    size += self._sizes[c]
                with_not, negated = self._with_not, self._negated
                if kind == NOT or (with_not and not with_not.isdisjoint(children)):
                    with_not.add(tid)
                    negated.add(tid)
                elif negated and not negated.isdisjoint(children):
                    negated.add(tid)
            if kind == NEGVAR or (symbol is not None and symbol.dual_of is not None):
                self._negated.add(tid)
            if name is not None:  # a variable, negated variable or application
                bits, atom = ((self._var_bits, name) if symbol is None
                              else (self._symbol_bits, symbol.dual_of or name))
                if atom not in bits:
                    bits[atom] = self._next_position
                    self._next_position += 2
            self._nodes.append(TermNode(kind, name, symbol, children))
            self._sizes.append(size)
            ids[key] = tid
            return tid
        finally:
            self._lock.release()

    def var(self, name: str) -> TermId:
        """The variable `name`; a name that is not a `str` raises `TypeError`."""
        if type(name) is not str:
            raise TypeError(f"a variable's name must be a str, got {name!r}")
        tid = self._ids.get(name)
        return self._intern(VAR, name, (), 1, None, name) if tid is None else tid

    def negvar(self, name: str) -> TermId:
        return self._intern(NEGVAR, name, (), 1)

    def top(self) -> TermId:
        return self._intern(TOP, None, (), 1)

    def bot(self) -> TermId:
        return self._intern(BOT, None, (), 1)

    def neg(self, child: TermId) -> TermId:
        return self._intern(NOT, None, (child,), 1)

    def _nary(self, kind: str, unit_kind: str, children: Iterable[TermId]) -> TermId:
        children = tuple(children)
        # an interned node of this kind is flat, so `children` that are
        # already one's children name it; read without flattening
        key = (kind, None, children)
        tid = self._ids.get(key)
        if tid is not None:
            return tid
        n = len(self._nodes)
        flat: list[TermId] = []
        for c in children:
            if not 0 <= c < n:
                self.require(c)  # raises TermIdOverflow
            node = self._nodes[c]
            if node.kind == kind:
                flat.extend(node.children)
            else:
                flat.append(c)
        if not flat:
            return self.top() if unit_kind == TOP else self.bot()
        if len(flat) == 1:
            return flat[0]
        if len(flat) == len(children):  # nothing spliced: `key` is the node's
            return self._intern(kind, None, children, len(flat) - 1, None, key)
        return self._intern(kind, None, tuple(flat), len(flat) - 1)

    def meet(self, children: Iterable[TermId]) -> TermId:
        """n-ary meet; nested meets are flattened, a singleton is returned as-is."""
        return self._nary(MEET, TOP, children)

    def join(self, children: Iterable[TermId]) -> TermId:
        return self._nary(JOIN, BOT, children)

    def app(self, symbol: Union[SymbolDecl, str], args: Sequence[TermId]) -> TermId:
        """The application of `symbol`, a declaration or a declared name, to
        `args`; an undeclared name raises `UndeclaredSymbol`."""
        if isinstance(symbol, str):
            decl = self.symbols.get(symbol)
            if decl is None:
                raise UndeclaredSymbol(f"undeclared symbol {symbol!r}")
        else:
            decl = symbol
        args = tuple(args)
        if len(args) != decl.arity:
            raise ArityMismatch(
                f"{decl.name} expects {decl.arity} arguments, got {len(args)}"
            )
        return self._intern(APP, decl.name, args, 1, decl)

    # ------------------------------------------------------------------
    # structure

    def node(self, t: TermId) -> TermNode:
        """The node of `t`. Unchecked, for hot paths: an id the universe
        does not hold raises `IndexError`, or, if negative, reads another
        term's node. The other readers below check the id once per call and
        raise `TermIdOverflow`."""
        return self._nodes[t]

    def size(self, t: TermId) -> int:
        """Tree-unfolding node count: leaves and constructor heads count one,
        an n-ary meet/join counts n-1 binary nodes, Not counts one."""
        if not 0 <= t < len(self._nodes):
            self.require(t)
        return self._sizes[t]

    def subterms(self, t: TermId) -> set[TermId]:
        """The term and all its descendants, each counted once (DAG-aware)."""
        if not 0 <= t < len(self._nodes):
            self.require(t)
        seen: dict[TermId, None] = {}
        self.fold(t, seen, lambda s, node, kids: None)
        return set(seen)

    def fold(
        self,
        t: TermId,
        memo: dict[TermId, Image],
        image: Callable[[TermId, TermNode, list[Image]], Image],
    ) -> Image:
        """The bottom-up image of `t`: `image(s, node, kid_images)` for each
        distinct subterm `s`, children first and left to right, each computed
        once and stored in `memo`.

        The walk runs on an explicit stack, so nesting depth is bounded by
        memory, not by the interpreter's recursion limit. Each frame scans
        its node's children once, from a saved position: a leaf child not
        yet in `memo` is imaged there and then, and a compound one is pushed
        and scanned before the frame resumes after it."""
        got = memo.get(t)
        if got is not None or t in memo:
            return got
        nodes = self._nodes
        stack, at = [t], [0]  # frames: a term, and where its scan resumes
        while stack:
            cur = stack[-1]
            node = nodes[cur]
            kids = node.children
            i, n = at[-1], len(kids)
            while i < n:
                c = kids[i]
                i += 1
                if c not in memo:
                    child = nodes[c]
                    if child.children:
                        at[-1] = i
                        stack.append(c)
                        at.append(0)
                        break
                    memo[c] = image(c, child, [])
            else:
                stack.pop()
                at.pop()
                memo[cur] = image(cur, node, [memo[c] for c in kids])
        return memo[t]

    def rebuild(self, t: TermId, kids: Sequence[TermId]) -> TermId:
        """A node of `t`'s kind and symbol over new children (`t` itself when
        they are unchanged); meets and joins flatten as usual. A leaf given
        children, a `NOT` given other than one child and an application
        given the wrong number of arguments raise `ArityMismatch`."""
        self.require(t)
        node = self._nodes[t]
        kids = tuple(kids)
        if kids == node.children:
            return t
        if node.kind == MEET:
            return self.meet(kids)
        if node.kind == JOIN:
            return self.join(kids)
        if node.kind == APP:
            return self.app(node.symbol, kids)
        if node.kind != NOT or len(kids) != 1:
            raise ArityMismatch(
                f"a {node.kind} node takes {int(node.kind == NOT)} operand(s), got {len(kids)}"
            )
        return self.neg(kids[0])

    def contains_not(self, t: TermId) -> bool:
        """Whether `t` holds a NOT node; recorded when `t` was interned."""
        if not 0 <= t < len(self._nodes):
            self.require(t)
        return t in self._with_not

    def plain(self, t: TermId) -> bool:
        """Whether `t` holds no NOT, negated variable or dual symbol; recorded at interning."""
        if not 0 <= t < len(self._nodes):
            self.require(t)
        return t not in self._negated

    def require(self, *ts: TermId) -> None:
        """Raise `TermIdOverflow` unless every id in `ts` is a term of this
        universe: 0 <= t < len(self)."""
        n = len(self._nodes)
        for t in ts:
            if not 0 <= t < n:
                raise TermIdOverflow(f"term id {t} is not one of this universe's {n} terms")

    def __len__(self) -> int:
        return len(self._nodes)
