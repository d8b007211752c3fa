"""Interned terms over a lattice signature with variance-annotated constructors.

Structurally identical terms share a single integer id (TermId) within one
TermUniverse, so terms form a DAG and equality of ids is equality of
structure. Meets and joins are flattened n-ary nodes. Negated variables and
dual constructor symbols are first-class node kinds: they let the normalizer
carry negation without Not nodes while ordinary input keeps using Not.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence, TypeVar, Union

from .errors import ArityMismatch, ConflictingDeclaration

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


@dataclass(frozen=True)
class SymbolDecl:
    """A declared constructor: name, arity and per-argument variance.

    `dual_of` is set only on generated dual symbols, whose variance list is
    the argument-wise flip of the original's.
    """

    name: str
    arity: int
    variances: tuple[Variance, ...]
    dual_of: str | None = None

    def __post_init__(self):
        if self.arity != len(self.variances):
            raise ArityMismatch(
                f"symbol {self.name}: arity {self.arity} != {len(self.variances)} variances"
            )


@dataclass(frozen=True)
class TermNode:
    """One interned node. `name` holds a variable or symbol name where relevant."""

    kind: str
    name: str | None = None
    symbol: SymbolDecl | None = None
    children: tuple[TermId, ...] = ()


class TermUniverse:
    """Interner and signature table.

    Interning records each term's size, whether it holds a NOT
    (`contains_not`) and whether it holds any negation: a NOT, a negated
    variable or an application of a dual symbol (`plain`). Writes
    (interning, declarations) are serialized behind a lock; after a build
    phase, ids and nodes may be read concurrently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._nodes: list[TermNode] = []
        self._sizes: list[int] = []
        self._with_not: set[TermId] = set()  # the terms holding a NOT
        self._negated: set[TermId] = set()  # those holding any negation
        self._ids: dict[tuple, TermId] = {}
        self.symbols: dict[str, SymbolDecl] = {}

    # ------------------------------------------------------------------
    # signature

    def declare(self, name: str, variances: Sequence[Union[Variance, str]]) -> SymbolDecl:
        """Declare a constructor. Idempotent; conflicting re-declaration is an error."""
        vs = tuple(Variance(v) for v in variances)
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
        """
        if decl.dual_of is not None:
            return self.symbols[decl.dual_of]
        dual_name = "~" + decl.name
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
        arguments, top and bottom to each other. Any other node raises
        `KeyError`."""
        node = self._nodes[t]
        if node.kind == APP:
            return self.app(self.dual(node.symbol), node.children)
        return self._intern(_OPPOSITE[node.kind], node.name, (), 1)

    # ------------------------------------------------------------------
    # interning

    def _intern(self, kind: str, name: str | None, children: tuple[TermId, ...],
                size: int, symbol: SymbolDecl | None = None) -> TermId:
        """The id of the node `(kind, name, children)`; `size` is the node's own
        count, to which its children's sizes are added.

        A hit is read without the lock and builds nothing. A miss takes the
        lock and looks again, then builds the node and records it (its size,
        and whether it holds a NOT or any negation) before publishing the id,
        so whoever reads an id finds its node."""
        key = (kind, name, children)
        tid = self._ids.get(key)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._ids.get(key)
            if tid is None:
                tid = len(self._nodes)
                self._nodes.append(TermNode(kind, name, symbol, children))
                self._sizes.append(size + sum(self._sizes[c] for c in children))
                with_not, negated = self._with_not, self._negated
                if kind == NOT or (with_not and not with_not.isdisjoint(children)):
                    with_not.add(tid)
                    negated.add(tid)
                elif (kind == NEGVAR or (symbol is not None and symbol.dual_of is not None)
                      or (negated and not negated.isdisjoint(children))):
                    negated.add(tid)
                self._ids[key] = tid
            return tid

    def var(self, name: str) -> TermId:
        return self._intern(VAR, name, (), 1)

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
        tid = self._ids.get((kind, None, children))
        if tid is not None:
            return tid
        flat: list[TermId] = []
        for c in children:
            node = self._nodes[c]
            if node.kind == kind:
                flat.extend(node.children)
            else:
                flat.append(c)
        if not flat:
            return self.top() if unit_kind == TOP else self.bot()
        if len(flat) == 1:
            return flat[0]
        return self._intern(kind, None, tuple(flat), len(flat) - 1)

    def meet(self, children: Iterable[TermId]) -> TermId:
        """n-ary meet; nested meets are flattened, a singleton is returned as-is."""
        return self._nary(MEET, TOP, children)

    def join(self, children: Iterable[TermId]) -> TermId:
        return self._nary(JOIN, BOT, children)

    def app(self, symbol: Union[SymbolDecl, str], args: Sequence[TermId]) -> TermId:
        if isinstance(symbol, str):
            decl = self.symbols[symbol]
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
        return self._nodes[t]

    def size(self, t: TermId) -> int:
        """Tree-unfolding node count: leaves and constructor heads count one,
        an n-ary meet/join counts n-1 binary nodes, Not counts one."""
        return self._sizes[t]

    def subterms(self, t: TermId) -> set[TermId]:
        """The term and all its descendants, each counted once (DAG-aware)."""
        seen: set[TermId] = set()
        stack = [t]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._nodes[cur].children)
        return seen

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
        memory, not by the interpreter's recursion limit."""
        got = memo.get(t)
        if got is not None:
            return got
        nodes = self._nodes
        stack = [t]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            node = nodes[cur]
            todo = [c for c in node.children if c not in memo]
            if todo:
                todo.reverse()
                stack.extend(todo)
            else:
                stack.pop()
                memo[cur] = image(cur, node, [memo[c] for c in node.children])
        return memo[t]

    def rebuild(self, t: TermId, kids: Sequence[TermId]) -> TermId:
        """A node of `t`'s kind and symbol over new children (`t` itself when
        they are unchanged); meets and joins flatten as usual."""
        node = self._nodes[t]
        kids = tuple(kids)
        if kids == node.children:
            return t
        if node.kind == MEET:
            return self.meet(kids)
        if node.kind == JOIN:
            return self.join(kids)
        if node.kind == NOT:
            return self.neg(kids[0])
        return self.app(node.symbol, kids)

    def contains_not(self, t: TermId) -> bool:
        """Whether `t` holds a NOT node; recorded when `t` was interned."""
        return t in self._with_not

    def plain(self, t: TermId) -> bool:
        """Whether `t` holds no NOT, negated variable or dual symbol; recorded at interning."""
        return t not in self._negated

    def __len__(self) -> int:
        return len(self._nodes)
