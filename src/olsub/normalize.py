"""Canonical minimal forms.

Bounded-lattice mode composes two passes: zeta promotes any conjunct of a
meet that already entails the enclosing join (dually for meets), iterated to
a fixpoint; eta keeps each join's children a maximal antichain (dually
minimal), collapsing unary nodes. Ortholattice mode first applies delta
(negation pushed down to variables and constructor heads, the latter turning
into dual symbols with flipped variances) and beta (a join collapses to top
when the pushed-down complement of one disjunct entails the join, dually to
bottom), then normalizes the result as a bounded-lattice term.

The composition maps equivalent terms to one identical term id, never grows
the pseudo-negation-normal image, and outputs the smallest term of the
equivalence class under the node-count convention of `TermUniverse.size`.

Every order test `u <= v` made here is decided by Whitman's conditions for
free lattices, extended to constructors by the variance rule: a memoized
backward search over the negation-free sequent rules, with negated variables
and dual symbols treated as opaque atoms. Verdicts are cached per universe
and the cache is freed with the universe, keeping a normalization run
quadratic overall.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

from .errors import InputTooDeep, NegationPresent
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

BL = "bl"
OL = "ol"


def _depth_guarded(entry):
    """The passes recurse once per nesting level; a term nested deeper than
    the interpreter's stack allows raises `InputTooDeep`, not `RecursionError`."""

    @functools.wraps(entry)
    def guarded(*args):
        try:
            return entry(*args)
        except RecursionError as exc:
            raise InputTooDeep(f"{entry.__name__}: term is nested too deeply") from exc

    return guarded


@dataclass(frozen=True)
class NormalTerm:
    term: TermId
    mode: str


class _Context:
    """Per-universe caches: order-test verdicts, pass memos, sort keys.

    The universe is held weakly, so a context never keeps its own key in
    `_contexts` alive."""

    def __init__(self, universe: TermUniverse):
        self._universe = weakref.ref(universe)
        self.leq_memo: dict[tuple[TermId, TermId], bool] = {}
        self.keys: dict[TermId, tuple] = {}
        self.delta_pos: dict[TermId, TermId] = {}
        self.delta_neg: dict[TermId, TermId] = {}
        self.beta_memo: dict[TermId, TermId] = {}
        self.zeta_memo: dict[TermId, TermId] = {}
        self.eta_memo: dict[TermId, TermId] = {}

    @property
    def u(self) -> TermUniverse:
        return self._universe()

    def leq(self, s: TermId, t: TermId) -> bool:
        """Decide `s <= t` over bounded lattices with constructors.

        Depth-first AND/OR search on an explicit stack. A goal holds when
        every pair of one of its `_alternatives` holds; each subgoal is
        strictly smaller than its goal, so the search terminates and every
        verdict it reaches is final and memoized."""
        memo = self.leq_memo
        verdict = memo.get((s, t))
        if verdict is not None:
            return verdict
        node = self.u.node
        stack = [[s, t, _alternatives(node, s, t), 0, 0]]  # goal, alternatives, position
        while stack:
            frame = stack[-1]
            alts, ai, pi = frame[2], frame[3], frame[4]
            verdict = None
            while verdict is None:
                if ai == len(alts):
                    verdict = False
                elif pi == len(alts[ai]):
                    verdict = True
                else:
                    got = memo.get(alts[ai][pi])
                    if got is None:
                        break
                    if got:
                        pi += 1
                    else:
                        ai, pi = ai + 1, 0
            if verdict is None:
                frame[3], frame[4] = ai, pi
                cs, ct = alts[ai][pi]
                stack.append([cs, ct, _alternatives(node, cs, ct), 0, 0])
            else:
                memo[frame[0], frame[1]] = verdict
                stack.pop()
        return verdict

    # Total structural order: kind rank, then name, then children.
    _RANK = {BOT: 0, TOP: 1, VAR: 2, NEGVAR: 3, APP: 4, NOT: 5, MEET: 6, JOIN: 7}

    def key(self, t: TermId) -> tuple:
        got = self.keys.get(t)
        if got is not None:
            return got
        node = self.u.node(t)
        rank = self._RANK[node.kind]
        if node.kind in (VAR, NEGVAR):
            out = (rank, node.name)
        elif node.kind == APP:
            out = (rank, node.name) + tuple(self.key(c) for c in node.children)
        else:
            out = (rank,) + tuple(self.key(c) for c in node.children)
        self.keys[t] = out
        return out

    def sorted_meet(self, children) -> TermId:
        t = self.u.meet(children)
        node = self.u.node(t)
        if node.kind == MEET:
            return self.u.meet(sorted(node.children, key=self.key))
        return t

    def sorted_join(self, children) -> TermId:
        t = self.u.join(children)
        node = self.u.node(t)
        if node.kind == JOIN:
            return self.u.join(sorted(node.children, key=self.key))
        return t


_contexts: "weakref.WeakKeyDictionary[TermUniverse, _Context]" = weakref.WeakKeyDictionary()


def _context(universe: TermUniverse) -> _Context:
    ctx = _contexts.get(universe)
    if ctx is None:
        ctx = _Context(universe)
        _contexts[universe] = ctx
    return ctx


def _alternatives(node, s: TermId, t: TermId) -> list[tuple[tuple[TermId, TermId], ...]]:
    """The alternatives by which `s <= t` can hold, each a tuple of pairs
    that must all hold: `[()]` for an axiom, `[]` for no rule.

    Hyp, bottom on the left and top on the right close the goal. A join on
    the left and a meet on the right are invertible and taken first.
    Otherwise (Whitman's condition) some conjunct of `s` is below `t`, or
    `s` is below some disjunct of `t`, or both are applications of one
    symbol whose arguments compare by variance."""
    sn, tn = node(s), node(t)
    if sn.kind == NOT or tn.kind == NOT:
        raise NegationPresent("negation reached the bounded-lattice order test")
    if s == t or sn.kind == BOT or tn.kind == TOP:
        return [()]
    if sn.kind == JOIN:
        return [tuple((c, t) for c in sn.children)]
    if tn.kind == MEET:
        return [tuple((s, c) for c in tn.children)]
    alts: list[tuple[tuple[TermId, TermId], ...]] = []
    if sn.kind == MEET:
        alts.extend(((c, t),) for c in sn.children)
    if tn.kind == JOIN:
        alts.extend(((s, c),) for c in tn.children)
    if sn.kind == APP and tn.kind == APP and sn.name == tn.name:
        pairs: list[tuple[TermId, TermId]] = []
        for a, b, v in zip(sn.children, tn.children, sn.symbol.variances):
            if v is not Variance.CONTRAVARIANT:
                pairs.append((a, b))
            if v is not Variance.COVARIANT:
                pairs.append((b, a))
        alts.append(tuple(pairs))
    return alts


# ----------------------------------------------------------------------
# delta: pseudo-negation-normal form


@_depth_guarded
def delta(universe: TermUniverse, t: TermId) -> TermId:
    """Push negation down to variables and constructor heads.

    Double negations vanish, De Morgan distributes through meets and joins,
    a negated constructor becomes its dual applied to the same (recursively
    rewritten, un-negated) arguments, negated bounds swap. Idempotent, and
    equivalent to the input as an ortholattice term.
    """
    return _delta(_context(universe), t, False)


def _delta(ctx: _Context, t: TermId, neg: bool) -> TermId:
    memo = ctx.delta_neg if neg else ctx.delta_pos
    got = memo.get(t)
    if got is not None:
        return got
    u = ctx.u
    node = u.node(t)
    kind = node.kind
    if kind == VAR:
        out = u.negvar(node.name) if neg else t
    elif kind == NEGVAR:
        out = u.var(node.name) if neg else t
    elif kind == TOP:
        out = u.bot() if neg else t
    elif kind == BOT:
        out = u.top() if neg else t
    elif kind == NOT:
        out = _delta(ctx, node.children[0], not neg)
    elif kind == MEET:
        mapped = [_delta(ctx, c, neg) for c in node.children]
        out = u.join(mapped) if neg else u.meet(mapped)
    elif kind == JOIN:
        mapped = [_delta(ctx, c, neg) for c in node.children]
        out = u.meet(mapped) if neg else u.join(mapped)
    else:  # APP
        args = [_delta(ctx, c, False) for c in node.children]
        out = u.app(u.dual(node.symbol) if neg else node.symbol, args)
    memo[t] = out
    return out


# ----------------------------------------------------------------------
# beta: collapse complemented joins and meets


@_depth_guarded
def beta(universe: TermUniverse, t: TermId) -> TermId:
    """On a pseudo-negation-normal term, replace any join one of whose
    disjuncts is complemented within it by top, dually meets by bottom.

    The paper-style binary test folds left-to-right over canonically ordered
    children, and every child's pushed-down complement is additionally tested
    against the whole flattened node, so the result does not depend on how
    the input was associated."""
    return _beta(_context(universe), t)


def _beta(ctx: _Context, t: TermId) -> TermId:
    got = ctx.beta_memo.get(t)
    if got is not None:
        return got
    u = ctx.u
    node = u.node(t)
    kind = node.kind
    if kind in (VAR, NEGVAR, TOP, BOT):
        out = t
    elif kind == NOT:
        raise NegationPresent("beta expects a pseudo-negation-normal term")
    elif kind == APP:
        out = u.app(node.symbol, [_beta(ctx, c) for c in node.children])
    else:
        children = [_beta(ctx, c) for c in node.children]
        if kind == JOIN:
            out = _beta_join(ctx, ctx.sorted_join(children))
        else:
            out = _beta_meet(ctx, ctx.sorted_meet(children))
    ctx.beta_memo[t] = out
    return out


def _beta_join(ctx: _Context, whole: TermId) -> TermId:
    u = ctx.u
    if u.node(whole).kind != JOIN:
        return whole
    children = u.node(whole).children
    for c in children:
        if ctx.leq(_delta(ctx, c, True), whole):
            return u.top()
    acc = children[0]
    for c in children[1:]:
        pair = u.join([acc, c])
        if ctx.leq(_delta(ctx, acc, True), pair) or ctx.leq(_delta(ctx, c, True), pair):
            return u.top()
        acc = pair
    return whole


def _beta_meet(ctx: _Context, whole: TermId) -> TermId:
    u = ctx.u
    if u.node(whole).kind != MEET:
        return whole
    children = u.node(whole).children
    for c in children:
        if ctx.leq(whole, _delta(ctx, c, True)):
            return u.bot()
    acc = children[0]
    for c in children[1:]:
        pair = u.meet([acc, c])
        if ctx.leq(pair, _delta(ctx, acc, True)) or ctx.leq(pair, _delta(ctx, c, True)):
            return u.bot()
        acc = pair
    return whole


# ----------------------------------------------------------------------
# zeta: promote conjuncts over their meets (Whitman-style)


@_depth_guarded
def zeta(universe: TermUniverse, t: TermId) -> TermId:
    """Bottom-up: inside a join, a meet child is replaced by one of its
    conjuncts whenever that conjunct already entails the whole join; dually
    inside meets. Iterated to a fixpoint, since a replacement can expose
    another; the first scan tests against the original join, later scans
    against the updated one."""
    return _zeta(_context(universe), t)


def _zeta(ctx: _Context, t: TermId) -> TermId:
    got = ctx.zeta_memo.get(t)
    if got is not None:
        return got
    u = ctx.u
    node = u.node(t)
    kind = node.kind
    if kind in (VAR, NEGVAR, TOP, BOT):
        out = t
    elif kind == NOT:
        raise NegationPresent("zeta operates on negation-free terms")
    elif kind == APP:
        out = u.app(node.symbol, [_zeta(ctx, c) for c in node.children])
    else:
        out = _zeta_fix(ctx, [_zeta(ctx, c) for c in node.children], kind)
    ctx.zeta_memo[t] = out
    return out


def _zeta_fix(ctx: _Context, children: list[TermId], outer: str) -> TermId:
    u = ctx.u
    inner = MEET if outer == JOIN else JOIN
    build = ctx.sorted_join if outer == JOIN else ctx.sorted_meet
    while True:
        whole = build(children)
        if u.node(whole).kind != outer:
            return whole
        replaced = False
        next_children: list[TermId] = []
        for c in u.node(whole).children:
            cn = u.node(c)
            promoted = None
            if cn.kind == inner:
                for part in cn.children:
                    ok = (
                        ctx.leq(part, whole)
                        if outer == JOIN
                        else ctx.leq(whole, part)
                    )
                    if ok:
                        promoted = part
                        break
            if promoted is None:
                next_children.append(c)
            else:
                next_children.append(promoted)
                replaced = True
        if not replaced:
            return whole
        children = next_children


# ----------------------------------------------------------------------
# eta: antichain reduction


@_depth_guarded
def eta(universe: TermUniverse, t: TermId) -> TermId:
    """Bottom-up: a join keeps only its maximal children, first
    representative per equivalence class (duplicates after recursive
    normalization are identical, so this deduplicates); dually a meet keeps
    minimal children. Unary nodes collapse to their child and children end
    up in canonical structural order."""
    return _eta(_context(universe), t)


def _eta(ctx: _Context, t: TermId) -> TermId:
    got = ctx.eta_memo.get(t)
    if got is not None:
        return got
    u = ctx.u
    node = u.node(t)
    kind = node.kind
    if kind in (VAR, NEGVAR, TOP, BOT):
        out = t
    elif kind == NOT:
        raise NegationPresent("eta operates on negation-free terms")
    elif kind == APP:
        out = u.app(node.symbol, [_eta(ctx, c) for c in node.children])
    else:
        out = _eta_filter(ctx, [_eta(ctx, c) for c in node.children], kind)
    ctx.eta_memo[t] = out
    return out


def _eta_filter(ctx: _Context, kids: list[TermId], kind: str) -> TermId:
    u = ctx.u
    # A child may itself have reduced to this kind; splice it in.
    flat: list[TermId] = []
    for c in kids:
        if u.node(c).kind == kind:
            flat.extend(u.node(c).children)
        else:
            flat.append(c)
    flat.sort(key=ctx.key)
    keep_max = kind == JOIN
    kept: list[TermId] = []
    for i, c in enumerate(flat):
        redundant = False
        for j, d in enumerate(flat):
            if i == j:
                continue
            below = ctx.leq(c, d) if keep_max else ctx.leq(d, c)
            if below:
                strict = not (ctx.leq(d, c) if keep_max else ctx.leq(c, d))
                if strict or i > j:
                    redundant = True
                    break
        if not redundant:
            kept.append(c)
    if len(kept) == 1:
        return kept[0]
    return u.join(kept) if kind == JOIN else u.meet(kept)


# ----------------------------------------------------------------------
# full normal forms


@_depth_guarded
def normalize_bl(universe: TermUniverse, t: TermId) -> NormalTerm:
    """Normal form over bounded lattices with constructors (negation-free)."""
    if universe.contains_not(t):
        raise NegationPresent(
            "bounded-lattice normalization takes negation-free terms; "
            "use normalize_ol or pre-apply delta"
        )
    ctx = _context(universe)
    return NormalTerm(_eta(ctx, _zeta(ctx, t)), BL)


@_depth_guarded
def normalize_ol(universe: TermUniverse, t: TermId) -> NormalTerm:
    """Canonical minimal form over ortholattices with constructors."""
    ctx = _context(universe)
    return NormalTerm(_eta(ctx, _zeta(ctx, _beta(ctx, _delta(ctx, t, False)))), OL)
