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

`normalize_ol` is one memoized bottom-up walk over (subterm, polarity)
pairs (`_walk`), which is delta and the normal-form rule in one pass: a
`NOT` flips the polarity, a variable, bound or application at polarity 1
becomes its complement or dual, and a meet or join at polarity 1 becomes
the dual kind over its children's complements. At each meet or join the
rule applies beta, zeta and eta in turn to the node over its operands'
normal forms. No image of the whole input under delta is built: a
complement is interned only where the form needs one. `delta` and beta's
complement of a child are the same walk with a rule that keeps the meet or
join as it stands, and `normalize_bl` is the walk with zeta and
eta. The public passes `beta`, `zeta` and `eta` are each a walk of their own
rule, and compose to the same form: `normalize_ol(t)` is
`eta(zeta(beta(delta(t))))`. In the walk, beta sorts a node's children
once, by a structural comparison that follows one path down in a loop, and
interns only the sorted node; zeta and eta start from that node, and zeta
sorts again only after a promotion. The normal form of each sorted node is
memoized, so a copy of a term with its operands in another order costs no
pass work. Under delta a NOT-free operand at polarity 0 is its own image
and is not visited. Nothing recurses, so nesting depth is limited by
memory, not by the interpreter's stack.

Beta builds a child's complement only where its order test can hold.
Pair-swap lemma: the head and literal masks of `~p` are `p`'s with the two
bits of every pair swapped, `((h & P) << 1) | ((h >> 1) & P)` for `P` the
pairs' low bits, since delta maps each literal, symbol and bound to the
other member of its pair. Invertibility at one level: for a meet child `c`
of a join `J`, `~c` is a join, so `~c <= J` needs `~p <= J` for every part
`p` of `c`; dually for a meet. Each part's complement is checked against
`J` on masks first (a literal by `J`'s `upper` mask, else by the heads
lemma below), and a child with a part that fails is skipped: its test
would fail at that check. Zeta and eta test a pair on its masks first
(`_by_masks`), so a pair the masks decide makes no `leq` call.

Every order test `u <= v` made here is decided by Whitman's conditions for
free lattices, extended to constructors by the variance rule: a memoized
backward search over the negation-free sequent rules, with negated variables
and dual symbols treated as opaque atoms (`leq`). Each term's masks are
folded once, and two kinds of goal need no search:

- A goal with a literal side (a variable or a negated variable). The masks
  hold the literals a term is a lower bound of (`lower`) and an upper bound
  of (`upper`). `s <= l` holds by Hyp when `s` is `l`, by bottom, never for
  top, an application or another literal, for a join when every child is
  `<= l` and for a meet when some child is; so a meet ORs its children's
  `lower` masks, a join ANDs them, and `upper` is the dual. The goal is one
  AND with `l`'s bit.
- A goal whose sides share no head. A term's heads are the literals,
  symbols (a dual symbol by its own name) and bounds it reaches through
  meets and joins alone. Lemma: `s <= t` holds only if the two share a
  head, `s` has a top-level bottom or `t` a top-level top. The search
  closes a goal only by Hyp (`s` is `t`), by bottom on the left, by top on
  the right, or by the rule for two applications of one symbol; every other
  step replaces a side by one of its meet or join children, whose heads
  are among its own, bounds included. So one AND of head masks refutes
  the goal. The search builds no pick (a meet child against the right
  side, or the left side against a join child) that the lemma refutes,
  and beta's mask checks (`beta`, `can_collapse`) are this lemma too.

For each goal it proves, the search records the premises of the first
alternative that holds, which `entail`'s proof reader replays, and its
tally counts only the work it does (`_Context._search`).

A term's masks come from one fold (`TermUniverse.fold`) of its DAG, which
images each leaf child as it scans the parent, so a node costs one scan of
its children. The bits are the universe's: interning gives each variable
and symbol name its pair of bit positions (see `TermUniverse`), so a
leaf's bit is one lookup and one shift, and the fold takes no lock and
hands out no bit. The node rules read a term's memoized masks from the
context's `masks`, and its node from the universe's node list, which the
context keeps, each without a call; they fold only on a miss. The node
list holds no reference back to the universe.

Verdicts and the normal forms of sorted nodes are cached per universe, and
the caches are freed with the universe, keeping a normalization run
quadratic overall. On beta's images this order
is the ortholattice order, so `entail.check` decides axiom-free queries
with the same test.
"""
from __future__ import annotations

import functools
import weakref
from collections import defaultdict
from collections.abc import Sequence
from typing import NamedTuple

from .errors import NegationPresent
from .terms import (
    APP,
    BOT,
    BOT_HEAD,
    JOIN,
    MEET,
    NEGVAR,
    NOT,
    TOP,
    TOP_HEAD,
    VAR,
    TermId,
    TermUniverse,
    Variance,
)

BL = "bl"
OL = "ol"


class NormalTerm(NamedTuple):
    term: TermId
    mode: str


class _Context:
    """Per-universe caches: order-test verdicts, masks, pass memos, normal
    forms of sorted nodes and the sort key.

    The universe is held weakly, so a context never keeps its own key in
    `_contexts` alive; the universe's bit tables and node list, which a
    context reads directly, do not refer back to it. The node rules read
    a node from `nodes` and a term's masks from `masks` without a call, and
    fold a term's masks (`fold_masks`) only when `masks` lacks them."""

    def __init__(self, universe: TermUniverse):
        self._universe = weakref.ref(universe)
        # verdicts, each False or a truthy record of the proof (see `leq`)
        self.leq_memo: dict[tuple[TermId, TermId], bool | tuple] = {}
        # masks of each term the order test has seen: (bit, lower, upper,
        # heads, atoms)
        self.masks: dict[TermId, tuple[int, int, int, int, int]] = {}
        # the universe's pairs of bit positions per variable name and per
        # symbol base name, numbered at interning: the low position for the
        # variable (the symbol), the high one for its negation (its dual). A
        # literal's bit is its head bit too.
        self._var_bits = universe._var_bits
        self._symbol_bits = universe._symbol_bits
        # the universe's node list, which only grows
        self.nodes = universe._nodes
        # images of the polarity walk, one memo per node rule, keyed by
        # 2 * term + polarity
        self.rewrites: dict[object, dict[int, TermId]] = defaultdict(dict)
        # `_normal_node`'s result per sorted node it was given
        self.normal: dict[TermId, TermId] = {}
        self.key = _structural_key(universe)

    @property
    def u(self) -> TermUniverse:
        return self._universe()

    def leq(self, s: TermId, t: TermId, tally: list[int] | None = None) -> bool:
        """Decide `s <= t` over bounded lattices with constructors.

        Both sides' masks are read from `masks`, or folded (`_mask`) on a
        miss, so a `NOT` anywhere raises `NegationPresent`. A goal, this one
        or any subgoal, with a literal side or whose sides share no head is
        decided by one AND of masks (`_by_masks`, by the two lemmas of the
        module docstring). Such a goal pushes no frame, and only a
        top-level one is memoized, as a bool. Any other goal holds when
        every pair of one of its `_alternatives` holds, found by a
        depth-first AND/OR search on an explicit stack (`_search`); each
        subgoal is strictly smaller than its goal, so the search terminates
        and every verdict it reaches is final and memoized. `leq_memo` holds False for such a goal that
        fails and, for one that holds, the premises that proved it (True if
        none; `first_alternative` reads them); this method returns the bool.
        `tally`, when given, gains this call's work: goals decided,
        alternatives built (one for a mask-decided goal), subgoal lookups
        and goals proved."""
        memo = self.leq_memo
        verdict = memo.get((s, t))
        if verdict is not None:
            return bool(verdict)
        masks = self.masks
        ms = masks.get(s) or self.fold_masks(s)
        mt = masks.get(t) or self.fold_masks(t)
        verdict = _by_masks(ms, mt)
        if verdict is not None:
            memo[s, t] = verdict
            work = (1, 1, 0, verdict)
        else:
            work = self._search(s, t)
            verdict = bool(memo[s, t])
        if tally is not None:
            for i, w in enumerate(work):
                tally[i] += w
        return verdict

    def _search(self, s: TermId, t: TermId) -> tuple[int, int, int, int]:
        """Memoize `s <= t`, neither side a literal, and every goal its
        search pushes a frame for: False if it fails, else the first of its
        `_alternatives` whose pairs all hold (True if that has none: Hyp or
        a bound). Return `leq`'s tally of the work done: a goal for each
        frame pushed and each lookup the masks decide, the alternatives
        built at each push plus one per mask-decided lookup, the lookups,
        and the goals proved."""
        memo, masks, nodes = self.leq_memo, self.masks, self.nodes
        alts = _alternatives(nodes, masks, s, t)
        goals, built, lookups, proved = 1, len(alts), 0, 0
        stack = [[s, t, alts, 0, 0]]  # goal, alternatives, position
        while stack:
            frame = stack[-1]
            alts, ai, pi = frame[2], frame[3], frame[4]
            n = len(alts)
            pairs = alts[ai] if ai < n else ()
            verdict = None
            while verdict is None:
                if ai == n:
                    verdict = False
                elif pi == len(pairs):
                    verdict = True
                else:
                    lookups += 1
                    cs, ct = pairs[pi]
                    ms, mt = masks[cs], masks[ct]
                    # `_by_masks`, inlined
                    if ms[0] or mt[0]:
                        got = ms[1] & mt[0] if mt[0] else mt[2] & ms[0]
                        goals, built, proved = goals + 1, built + 1, proved + (got != 0)
                    elif not (ms[3] & (mt[3] | BOT_HEAD) or mt[3] & TOP_HEAD):
                        got = 0
                        goals, built = goals + 1, built + 1
                    else:
                        got = memo.get((cs, ct))
                        if got is None:
                            break
                    if got:
                        pi += 1
                    else:
                        ai, pi = ai + 1, 0
                        if ai < n:
                            pairs = alts[ai]
            if verdict is None:
                frame[3], frame[4] = ai, pi
                alts = _alternatives(nodes, masks, cs, ct)
                goals += 1
                built += len(alts)
                stack.append([cs, ct, alts, 0, 0])
            else:
                memo[frame[0], frame[1]] = verdict and (pairs or True)
                proved += verdict
                stack.pop()
        return goals, built, lookups, proved

    def first_alternative(self, s: TermId, t: TermId) -> tuple:
        """The premises of the first alternative that proves `s <= t`, a
        goal `leq` accepted whose alternatives are picks or the rule for
        applications: `s` is no join or bottom, `t` no meet or top, and `s`
        is not `t`. That is `((c, t),)` for a child `c` of a meet `s`,
        `((s, c),)` for a child `c` of a join `t`, or the argument pairs of
        the rule for applications. With a literal side it is read off the
        masks `leq` folded, as the first child `c` of the meet `s` with
        `c <= t`, or of the join `t` with `s <= c`; otherwise it is the
        search's record in `leq_memo`. No order test is made."""
        masks, nodes = self.masks, self.nodes
        bit = masks[t][0]
        if bit:
            return next(((c, t),) for c in nodes[s].children if masks[c][1] & bit)
        bit = masks[s][0]
        if bit:
            return next(((s, c),) for c in nodes[t].children if masks[c][2] & bit)
        return self.leq_memo[s, t]

    def fold_masks(self, t: TermId) -> tuple[int, int, int, int, int]:
        """`t`'s masks, folded into `masks` with those of every subterm of
        `t`; a caller reads a hit from `masks` first."""
        return self.u.fold(t, self.masks, self._mask)

    def _mask(self, s: TermId, node, kids: list[tuple]) -> tuple[int, int, int, int, int]:
        """`s`'s masks: its own bit if it is a literal, else 0; the literals
        `l` with `s <= l` (lower); those with `l <= s` (upper); its heads,
        the literals, symbols (by name) and bounds it reaches through meets
        and joins (bottom is `BOT_HEAD`, top `TOP_HEAD`); and its atoms,
        the head bits of every literal, symbol and bound it holds anywhere,
        under applications too."""
        kind = node.kind
        if kind == VAR or kind == NEGVAR:
            bit = 1 << (self._var_bits[node.name] + (kind == NEGVAR))
            return bit, bit, bit, bit, bit
        if kind == NOT:
            raise NegationPresent("negation reached the bounded-lattice order test")
        if kind == BOT:
            return 0, -1, 0, BOT_HEAD, BOT_HEAD
        if kind == TOP:
            return 0, 0, -1, TOP_HEAD, TOP_HEAD
        if kind == APP:
            base = node.symbol.dual_of
            head = 1 << (self._symbol_bits[base or node.name] + (base is not None))
            atoms = head
            for k in kids:
                atoms |= k[4]
            return 0, 0, 0, head, atoms
        # one pass over the children: a meet ORs lower and ANDs upper, a join
        # the reverse, and both OR the heads and the atoms
        _, lower, upper, heads, atoms = kids[0]
        if kind == MEET:
            for _, lo, up, hd, at in kids:
                lower |= lo
                upper &= up
                heads |= hd
                atoms |= at
        else:
            for _, lo, up, hd, at in kids:
                lower &= lo
                upper |= up
                heads |= hd
                atoms |= at
        return 0, lower, upper, heads, atoms

    def clash(self, heads: int) -> bool:
        """Whether the head mask `heads` holds a bound, or an atom together
        with its complement: both bits of a pair. The pairs' low bits are
        the even bits below the universe's next free position."""
        return bool(heads & _BOUND_HEADS or heads & (heads >> 1) & _low_bits(self.u))

    def flat_sorted(self, kind: str, kids: list[TermId]) -> list[TermId]:
        """`kids` with the children of any `kind` node spliced in, in
        structural order."""
        nodes = self.nodes
        flat: list[TermId] = []
        for c in kids:
            n = nodes[c]
            if n.kind == kind:
                flat.extend(n.children)
            else:
                flat.append(c)
        flat.sort(key=self.key)
        return flat

    def sorted_node(self, kind: str, kids: list[TermId]) -> TermId:
        """The meet or join (`kind`) of `kids`, children in structural order.
        Only the sorted node is interned."""
        flat = self.flat_sorted(kind, kids)
        return self.u.meet(flat) if kind == MEET else self.u.join(flat)


_BOUND_HEADS = BOT_HEAD | TOP_HEAD


def _low_bits(u: TermUniverse) -> int:
    """The low bit of every pair `u` has handed out, the bounds' too."""
    return ((1 << u._next_position) - 1) // 3


def _by_masks(ms: tuple, mt: tuple) -> bool | None:
    """`s <= t` decided by the two sides' masks alone, or None if the search
    must decide it: a goal with a literal side is one AND with the literal's
    bit, and one whose sides share no head, where `s` has no top-level
    bottom and `t` no top-level top, fails (the lemmas of the module
    docstring)."""
    if ms[0] or mt[0]:
        return bool(ms[1] & mt[0] if mt[0] else mt[2] & ms[0])
    if not (ms[3] & (mt[3] | BOT_HEAD) or mt[3] & TOP_HEAD):
        return False
    return None


_RANK = {BOT: 0, TOP: 1, VAR: 2, NEGVAR: 3, APP: 4, NOT: 5, MEET: 6, JOIN: 7}


def _structural_key(u: TermUniverse):
    """Sort key for the total structural order on `u`'s terms: kind rank,
    then name, then children left to right, a node whose children are a
    prefix of another's first.

    Two distinct interned terms of one kind and name differ first at some
    pair of distinct children, and that pair alone decides their order, so
    the comparison follows one path down, in a loop: any depth compares in
    memory, not on the interpreter's stack. The key holds `u`'s node list,
    not `u`, so a `_Context` can keep it without keeping its universe alive."""
    nodes = u._nodes

    def compare(a: TermId, b: TermId) -> int:
        while a != b:
            na, nb = nodes[a], nodes[b]
            if na.kind != nb.kind:
                return -1 if _RANK[na.kind] < _RANK[nb.kind] else 1
            if na.name != nb.name:
                return -1 if na.name < nb.name else 1
            for x, y in zip(na.children, nb.children):
                if x != y:
                    a, b = x, y
                    break
            else:
                return -1 if len(na.children) < len(nb.children) else 1
        return 0

    return functools.cmp_to_key(compare)


_contexts: "weakref.WeakKeyDictionary[TermUniverse, _Context]" = weakref.WeakKeyDictionary()


def _context(universe: TermUniverse) -> _Context:
    ctx = _contexts.get(universe)
    if ctx is None:
        ctx = _Context(universe)
        _contexts[universe] = ctx
    return ctx


def _alternatives(nodes, masks, s: TermId, t: TermId) -> list[tuple]:
    """The alternatives by which `s <= t` can hold, each a tuple of pairs
    that must all hold: `[()]` for an axiom, `[]` for no rule.

    Hyp, bottom on the left and top on the right close the goal. A join on
    the left and a meet on the right are invertible and taken first.
    Otherwise (Whitman's condition) some conjunct of `s` is below `t`, or
    `s` is below some disjunct of `t`, or both are applications of one
    symbol whose arguments compare by variance: meet children, then join
    children, then the rule for applications.

    Only the picks that can hold are built: the heads lemma of the module
    docstring refutes the rest, a literal pick by its bit too. `masks`
    holds both sides' masks; every term has a head, so a `hit` of -1 keeps
    every pick."""
    sn, tn = nodes[s], nodes[t]
    if s == t or sn.kind == BOT or tn.kind == TOP:
        return [()]
    if sn.kind == JOIN:
        return [tuple((c, t) for c in sn.children)]
    if tn.kind == MEET:
        return [tuple((s, c) for c in tn.children)]
    alts: list[tuple] = []
    if sn.kind == MEET:
        heads = masks[t][3]
        hit = -1 if heads & TOP_HEAD else heads | BOT_HEAD
        alts = [((c, t),) for c in sn.children if masks[c][3] & hit]
    if tn.kind == JOIN:
        heads = masks[s][3]
        hit = -1 if heads & BOT_HEAD else heads | TOP_HEAD
        alts += [((s, c),) for c in tn.children if masks[c][3] & hit]
    if sn.kind == APP and tn.kind == APP and sn.name == tn.name:
        pairs: list[tuple[TermId, TermId]] = []
        for a, b, v in zip(sn.children, tn.children, sn.symbol.variances):
            if v is not Variance.CONTRAVARIANT:
                pairs.append((a, b))
            if v is not Variance.COVARIANT:
                pairs.append((b, a))
        alts.append(tuple(pairs))
    return alts


def leq(universe: TermUniverse, s: TermId, t: TermId, tally: list[int] | None = None) -> bool:
    """Decide `s <= t` for negation-free terms in the bounded-lattice order
    with constructors, by `_Context.leq`; a `NOT` on either side raises
    `NegationPresent`. This is the order test every pass below makes, and
    verdicts are memoized per universe. On beta-reduced
    pseudo-negation-normal terms it is the ortholattice order too, which is
    how `entail.check` decides axiom-free queries.

    `tally`, a list of four counters, gains the work of this call: goals
    decided, alternatives built, subgoal lookups, goals proved. An id
    that is not a term of `universe` raises `TermIdOverflow`."""
    universe.require(s, t)
    return _context(universe).leq(s, t, tally)


# ----------------------------------------------------------------------
# the polarity walk, and delta: pseudo-negation-normal form


_DUAL_KIND = {MEET: JOIN, JOIN: MEET}


def _walk(ctx: _Context, t: TermId, rule, pol: int = 0) -> TermId:
    """The image of `t` at polarity `pol` (0 for `t`, 1 for its complement
    `~t`) with negation pushed down as delta does, and `rule(ctx, kids,
    kind)` building each meet or join over its operands' images; with
    `_delta_node` the walk is delta itself.

    Each (subterm, polarity) pair is imaged once, memoized per rule under
    the key `2 * subterm + pol`, on an explicit stack. A `NOT` flips the
    polarity. A variable or bound at polarity 1 is its complement. An
    application at polarity 1 is its dual symbol over its arguments at
    polarity 0. A meet or join at polarity 1 is the dual kind over its
    children at polarity 1. A meet or join gathers its operands through
    `NOT`s: an operand of its own kind, once its polarity is applied, is
    spliced in (`_operands`), so the rule sees the flat node that
    `TermUniverse.meet` would build from delta's image. Only pairs the
    image needs are visited: a complement is built only where one is
    asked for. Under delta a NOT-free term at polarity 0 is its own image,
    so the walk returns it, as root or operand, without visiting it: a
    complemented application does not re-walk its NOT-free arguments."""
    u, nodes = ctx.u, ctx.nodes
    memo = ctx.rewrites[rule]
    with_not = u._with_not if rule is _delta_node else None
    t, pol = _strip(nodes, t, pol)
    if with_not is not None and not pol and t not in with_not:
        return t
    root = 2 * t + pol
    got = memo.get(root)
    if got is not None:
        return got
    if not nodes[t].children:
        got = memo[root] = u.opposite(t) if pol else t
        return got
    stack: list[list] = [[root, None]]  # key, then the keys of its operands
    while stack:
        frame = stack[-1]
        key, ops = frame
        s, p = key >> 1, key & 1
        n = nodes[s]
        if ops is None:
            if key in memo:
                stack.pop()
                continue
            ops = frame[1] = _operands(nodes, n, p)
            # a leaf at polarity 0 is itself, and so under delta is any
            # NOT-free operand; any other operand is looked up, and a missing
            # one is imaged here if a leaf, else pushed
            if with_not is None:
                kids = [memo.get(k) if k & 1 or nodes[k >> 1].children else k >> 1
                        for k in ops]
            else:
                kids = [memo.get(k) if k & 1 or k >> 1 in with_not else k >> 1 for k in ops]
            if None in kids:
                todo = []
                for i, k in enumerate(ops):
                    if kids[i] is None:
                        if nodes[k >> 1].children:
                            todo.append([k, None])
                        else:
                            kids[i] = memo[k] = u.opposite(k >> 1)
                if todo:
                    todo.reverse()
                    stack.extend(todo)
                    continue
        else:
            kids = [memo.get(k, k >> 1) for k in ops]
        stack.pop()
        kind = n.kind
        if kind == APP:
            memo[key] = u.app(u.dual(n.symbol), kids) if p else u.rebuild(s, kids)
        else:
            memo[key] = rule(ctx, kids, _DUAL_KIND[kind] if p else kind)
    return memo[root]


def _delta_node(ctx: _Context, kids: list[TermId], kind: str) -> TermId:
    """Delta's rule: the meet or join over its operands' images, as it
    stands; interning hands back the node itself when they are unchanged."""
    return ctx.u.meet(kids) if kind == MEET else ctx.u.join(kids)


def _strip(nodes, t: TermId, pol: int) -> tuple[TermId, int]:
    """`t` at `pol` with its `NOT`s stripped, each flipping the polarity."""
    while nodes[t].kind == NOT:
        t, pol = nodes[t].children[0], pol ^ 1
    return t, pol


def _operands(nodes, n, p: int) -> list[int]:
    """The walk's keys of the operands of node `n` at polarity `p`: an
    application's arguments at polarity 0, a meet's or join's children at
    `p`, each with its `NOT`s stripped (`_strip`), and any child whose kind
    at its polarity is the node's own spliced in, in order. Only a `NOT`
    child can splice: interned meets and joins are flat."""
    kind = n.kind
    q = 0 if kind == APP else p
    if NOT not in [nodes[c].kind for c in n.children]:
        return [2 * c + q for c in n.children]
    ops: list[int] = []
    todo = [2 * c + q for c in reversed(n.children)]
    while todo:
        key = todo.pop()
        c, r = _strip(nodes, key >> 1, key & 1)
        m = nodes[c]
        if kind != APP and m.kind in _DUAL_KIND and (m.kind == kind) == (r == p):
            todo.extend(2 * g + r for g in reversed(m.children))
        else:
            ops.append(2 * c + r)
    return ops


def delta(universe: TermUniverse, t: TermId, complement: int = 0) -> TermId:
    """Push negation down to variables and constructor heads.

    Double negations vanish, De Morgan distributes through meets and joins,
    a negated constructor becomes its dual applied to the same (rewritten,
    un-negated) arguments, negated bounds swap. Idempotent, and equivalent
    to the input as an ortholattice term. A Not-free term is its own image,
    and is returned as is, without a walk (`TermUniverse.contains_not` is
    recorded at interning). With `complement` 1 the result is the image of
    `~t`, built without interning `~t`. One polarity walk (`_walk`), which
    builds no complement the image does not hold. An id that is not a
    term of `universe` raises `TermIdOverflow`."""
    if not universe.contains_not(t) and not complement:  # checks the id
        return t
    return _walk(_context(universe), t, _delta_node, complement)


# ----------------------------------------------------------------------
# beta, zeta, eta: bottom-up rewrites of meets and joins


def _refuse_negation(universe: TermUniverse, t: TermId) -> None:
    """Raise `TermIdOverflow` if `t` is not a term of `universe`, and
    `NegationPresent` if it holds a `NOT`: beta, zeta and eta take
    pseudo-negation-normal terms (`TermUniverse.contains_not`, recorded at
    interning)."""
    if universe.contains_not(t):
        raise NegationPresent("beta, zeta and eta expect a pseudo-negation-normal term")


def beta(universe: TermUniverse, t: TermId) -> TermId:
    """On a pseudo-negation-normal term, replace any join one of whose
    disjuncts is complemented within it by top, dually meets by bottom.

    A join `J = c1 | ... | cn` equals top exactly when `~ci <= J` for some
    child: in the cut-free calculus, `top <= J` needs a RightOr on one
    contracted copy of `J`, which leaves `~ci <= J`. So testing each
    child's pushed-down complement against the whole flattened node is
    complete; any test on a part of the node, such as a pairwise fold over
    its children, implies a hit of the whole-node test by Whitman's
    condition and the self-duality of the order on pseudo-negation-normal
    terms. The result does not depend on how the input was associated.
    Dually for meets and bottom.

    The output is beta-reduced: no join keeps a child whose complement is
    below it under `leq`, dually for meets. That is the hypothesis of the
    coincidence lemma in `entail.check`.

    Lemma (`can_collapse`): beta collapses a node only if the term holds a
    bound, or an atom together with its complement (a variable as VAR and
    as NEGVAR, a symbol and its dual). By the heads lemma of the module
    docstring, `~c <= J` for a child `c` of a join `J` needs a bound or a
    head the two share. The heads of `~c` are the complements of `c`'s,
    which are heads of `J` too, so `J`'s heads hold a bound or a
    complementary pair. Dually for meets. Without either anywhere in the
    term, by induction bottom-up nothing collapses, and beta's image is a
    re-sorted copy, lattice-equal to the input and of the same size. Per
    node, the walk builds no child's complement and makes no order test at
    a node whose heads hold neither (`_Context.clash`: an atom and its
    complement own adjacent head bits, so that is one AND). At a node whose heads clash, a child's
    complement is built and tested only if every part of it passes the
    mask check of the module docstring (pair-swap lemma, invertibility at
    one level); a child that fails would fail its order test there."""
    _refuse_negation(universe, t)
    return _walk(_context(universe), t, _beta_node)


def can_collapse(universe: TermUniverse, t: TermId) -> bool:
    """False when beta cannot collapse any node of the pseudo-negation-normal
    `t`: it holds no bound and no atom together with its complement (see
    `beta`). One `clash` of the atoms mask the order test folds for `t`
    (`_Context._mask`), so a `NOT` raises `NegationPresent`, as in beta."""
    universe.require(t)
    ctx = _context(universe)
    return ctx.clash(ctx.fold_masks(t)[4])


def beta_open(universe: TermUniverse, t: TermId) -> TermId:
    """The node `_beta_node` tests for `t`: a pseudo-negation-normal meet or
    join over its children's beta images, sorted but never collapsed to
    bottom or top. Any other term maps to its beta image."""
    _refuse_negation(universe, t)
    ctx = _context(universe)
    node = ctx.nodes[t]
    if node.kind != MEET and node.kind != JOIN:
        return _walk(ctx, t, _beta_node)
    kids = [_walk(ctx, c, _beta_node) for c in node.children]
    return ctx.sorted_node(node.kind, kids)


def _beta_node(ctx: _Context, kids: list[TermId], kind: str) -> TermId:
    return _beta(ctx, ctx.sorted_node(kind, kids), kind)


def _beta(ctx: _Context, whole: TermId, kind: str) -> TermId:
    """Beta at `whole`, a sorted meet or join (`kind`) over beta images:
    top (bottom) if the complement of a child is below the join (above the
    meet), else `whole`."""
    masks, nodes = ctx.masks, ctx.nodes
    mw = masks.get(whole) or ctx.fold_masks(whole)
    # no child's complement reaches the node unless its heads clash (`beta`)
    if not ctx.clash(mw[3]):
        return whole
    u = ctx.u
    low = _low_bits(u)
    join = kind == JOIN
    split = MEET if join else JOIN
    for c in nodes[whole].children:
        n = nodes[c]
        for p in n.children if n.kind == split else (c,):
            bit, h = masks[p][0], masks[p][3]
            h = ((h & low) << 1) | ((h >> 1) & low)
            mc = (h if bit else 0, 0, 0, h)  # `~p`'s masks, as far as `_by_masks` reads them
            if (_by_masks(mc, mw) if join else _by_masks(mw, mc)) is False:
                break
        else:
            complement = _walk(ctx, c, _delta_node, 1)
            if ctx.leq(complement, whole) if join else ctx.leq(whole, complement):
                return u.top() if join else u.bot()
    return whole


def zeta(universe: TermUniverse, t: TermId) -> TermId:
    """Bottom-up: inside a join, a meet child is replaced by one of its
    conjuncts whenever that conjunct already entails the whole join; dually
    inside meets. Iterated to a fixpoint, since a replacement can expose
    another; the first scan tests against the original join, later scans
    against the updated one. Each conjunct is tested on masks first
    (`_by_masks`)."""
    _refuse_negation(universe, t)
    return _walk(_context(universe), t, _zeta_node)


def _zeta_node(ctx: _Context, kids: list[TermId], kind: str) -> TermId:
    return _zeta(ctx, ctx.sorted_node(kind, kids), kind)


def _zeta(ctx: _Context, whole: TermId, outer: str) -> TermId:
    """Zeta's fixpoint from `whole`, a sorted node of kind `outer`; any
    other term is returned as it is."""
    nodes, masks, leq = ctx.nodes, ctx.masks, ctx.leq
    inner = MEET if outer == JOIN else JOIN
    while nodes[whole].kind == outer:
        if whole not in masks:
            ctx.fold_masks(whole)  # every part's masks too
        replaced = False
        next_children: list[TermId] = []
        for c in nodes[whole].children:
            cn = nodes[c]
            promoted = None
            if cn.kind == inner:
                for part in cn.children:
                    s, t = (part, whole) if outer == JOIN else (whole, part)
                    below = _by_masks(masks[s], masks[t])
                    if below is None:  # only a pair the masks leave open makes a `leq` call
                        below = leq(s, t)
                    if below:
                        promoted = part
                        break
            if promoted is None:
                next_children.append(c)
            else:
                next_children.append(promoted)
                replaced = True
        if not replaced:
            break
        whole = ctx.sorted_node(outer, next_children)
    return whole


def eta(universe: TermUniverse, t: TermId) -> TermId:
    """Bottom-up: a join keeps only its maximal children, first
    representative per equivalence class (duplicates after bottom-up
    normalization are identical, so this deduplicates); dually a meet keeps
    minimal children. Unary nodes collapse to their child and children end
    up in canonical structural order."""
    _refuse_negation(universe, t)
    return _walk(_context(universe), t, _eta_node)


def _eta_node(ctx: _Context, kids: list[TermId], kind: str) -> TermId:
    # A child may itself have reduced to this kind; flat_sorted splices it in.
    return _antichain(ctx, ctx.flat_sorted(kind, kids), kind)


def _antichain(ctx: _Context, flat: Sequence[TermId], kind: str) -> TermId:
    """The join (dually meet) of the maximal (minimal) members of `flat`,
    which is flat and sorted, keeping the first of equivalent members. The
    members' masks are folded once, and a pair the masks decide makes no
    `leq` call, as in zeta."""
    masks, leq = ctx.masks, ctx.leq
    ms = [masks.get(c) or ctx.fold_masks(c) for c in flat]
    keep_max = kind == JOIN
    kept: list[TermId] = []
    for i, c in enumerate(flat):
        mc = ms[i]
        for j, d in enumerate(flat):
            if i == j:
                continue
            # `c` is redundant if it is below `d` (above, in a meet), unless
            # the two are equivalent and `c` comes first
            s, t, m_s, m_t = (c, d, mc, ms[j]) if keep_max else (d, c, ms[j], mc)
            # `_by_masks`, inlined
            if m_s[0] or m_t[0]:
                below = m_s[1] & m_t[0] if m_t[0] else m_t[2] & m_s[0]
            elif not (m_s[3] & (m_t[3] | BOT_HEAD) or m_t[3] & TOP_HEAD):
                continue
            else:
                below = leq(s, t)
            if not below:
                continue
            if i < j:
                above = _by_masks(m_t, m_s)
                if above is None:
                    above = leq(t, s)
                if above:
                    continue
            break
        else:
            kept.append(c)
    u = ctx.u
    return u.join(kept) if kind == JOIN else u.meet(kept)


# ----------------------------------------------------------------------
# full normal forms


def _zeta_eta(ctx: _Context, whole: TermId) -> TermId:
    """Zeta, then eta, of `whole`, a sorted meet or join over normal
    children; any other term is normal already. Zeta starts from `whole`
    without sorting it again. It replaces children one for one, so its
    result is a sorted flat node of the same kind, whose children eta
    filters as they stand."""
    nodes = ctx.nodes
    kind = nodes[whole].kind
    if kind != MEET and kind != JOIN:
        return whole
    return _antichain(ctx, nodes[_zeta(ctx, whole, kind)].children, kind)


def _bl_node(ctx: _Context, kids: list[TermId], kind: str) -> TermId:
    return _zeta_eta(ctx, ctx.sorted_node(kind, kids))


def _normal_node(ctx: _Context, kids: list[TermId], kind: str) -> TermId:
    whole = ctx.sorted_node(kind, kids)
    got = ctx.normal.get(whole)
    if got is None:
        got = ctx.normal[whole] = _zeta_eta(ctx, _beta(ctx, whole, kind))
    return got


def normalize_bl(universe: TermUniverse, t: TermId) -> NormalTerm:
    """Normal form over bounded lattices with constructors (negation-free):
    one bottom-up walk applying zeta, then eta, at each meet and join."""
    if universe.contains_not(t):
        raise NegationPresent(
            "bounded-lattice normalization takes negation-free terms; "
            "use normalize_ol or pre-apply delta"
        )
    return NormalTerm(_walk(_context(universe), t, _bl_node), BL)


def normalize_ol(universe: TermUniverse, t: TermId) -> NormalTerm:
    """Canonical minimal form over ortholattices with constructors: delta,
    then one bottom-up walk applying beta, zeta and eta in turn at each meet
    and join, once per sorted node (memoized per universe). Equal to
    `eta(zeta(beta(delta(t))))`."""
    universe.require(t)
    return NormalTerm(_walk(_context(universe), t, _normal_node), OL)
