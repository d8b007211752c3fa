"""Shared test utilities: random term generators and lattice-law rewriting."""
from __future__ import annotations

import random

from olsub.terms import APP, BOT, JOIN, MEET, NEGVAR, NOT, TOP, TermUniverse


def random_term(u: TermUniverse, rng: random.Random, budget: int, variables, symbols=(),
                allow_not=True):
    """Random term within a size budget over the given vocabulary."""
    if budget <= 1 or rng.random() < 0.25:
        k = rng.randrange(5)
        if k == 0:
            return u.top()
        if k == 1:
            return u.bot()
        return u.var(rng.choice(variables))
    choices = []
    if allow_not:
        choices.append("not")
    choices += ["meet", "join"]
    for decl in symbols:
        if decl.arity >= 1 and budget >= decl.arity + 1:
            choices.append(decl)
    pick = rng.choice(choices)
    if pick == "not":
        return u.neg(random_term(u, rng, budget - 1, variables, symbols, allow_not))
    if pick in ("meet", "join"):
        n = rng.randint(2, 3) if budget >= 5 else 2
        rem = budget - (n - 1)
        parts = []
        for i in range(n):
            take = max(1, rem // (n - i))
            parts.append(random_term(u, rng, take, variables, symbols, allow_not))
            rem -= take
        return u.meet(parts) if pick == "meet" else u.join(parts)
    rem = budget - 1
    args = []
    for i in range(pick.arity):
        take = max(1, rem // (pick.arity - i))
        args.append(random_term(u, rng, take, variables, symbols, allow_not))
        rem -= take
    return u.app(pick, args)


def random_pnnf(u: TermUniverse, rng: random.Random, budget: int, variables, symbols=()):
    """Random pseudo-negation-normal term: literals, duals, no Not nodes."""
    if budget <= 1 or rng.random() < 0.3:
        k = rng.randrange(6)
        if k == 0:
            return u.top()
        if k == 1:
            return u.bot()
        name = rng.choice(variables)
        return u.var(name) if k < 4 else u.negvar(name)
    usable = [d for d in symbols if budget >= d.arity + 1 and d.arity >= 1]
    kind = rng.randrange(3)
    if kind == 0 and usable:
        decl = rng.choice(usable)
        if rng.random() < 0.5:
            decl = u.dual(decl)
        rem = budget - 1
        args = []
        for i in range(decl.arity):
            take = max(1, rem // (decl.arity - i))
            args.append(random_pnnf(u, rng, take, variables, symbols))
            rem -= take
        return u.app(decl, args)
    half = max(1, (budget - 1) // 2)
    a = random_pnnf(u, rng, half, variables, symbols)
    b = random_pnnf(u, rng, budget - 1 - half, variables, symbols)
    return u.meet([a, b]) if kind == 1 else u.join([a, b])


def opaque(u: TermUniverse, *terms):
    """Copies of `terms` with every negated atom renamed to a fresh plain
    one: `~x` becomes the variable named "~x", an application of a dual
    symbol `~F` one of the declared symbol `F~`, which has the dual's
    variances. On such copies every sequent is plain with one term per side,
    so `Engine(u)` runs the bounded-lattice rules alone, negated atoms
    opaque: the reference the order test is checked against. A `NOT` has no
    bounded-lattice rule and fails the copy."""

    def image(t, node, kids):
        assert node.kind != NOT, "the bounded-lattice calculus has no negation"
        if node.kind == NEGVAR:
            return u.var("~" + node.name)
        if node.kind == APP and node.symbol.dual_of is not None:
            return u.app(u.declare(node.symbol.dual_of + "~", node.symbol.variances), kids)
        return u.rebuild(t, kids) if kids else t

    memo: dict = {}
    return [u.fold(t, memo, image) for t in terms]


# ----------------------------------------------------------------------
# random applications of the ortholattice laws, for canonicity chains


def positions(u: TermUniverse, t):
    out = [()]
    for i, c in enumerate(u.node(t).children):
        out.extend((i,) + p for p in positions(u, c))
    return out


def subterm_at(u: TermUniverse, t, path):
    for i in path:
        t = u.node(t).children[i]
    return t


def replace_at(u: TermUniverse, t, path, new):
    if not path:
        return new
    node = u.node(t)
    kids = list(node.children)
    kids[path[0]] = replace_at(u, kids[path[0]], path[1:], new)
    if node.kind == MEET:
        return u.meet(kids)
    if node.kind == JOIN:
        return u.join(kids)
    if node.kind == NOT:
        return u.neg(kids[0])
    return u.app(node.symbol, kids)


def _small_term(u, rng, variables):
    k = rng.randrange(4)
    if k == 0:
        return u.top()
    if k == 1:
        return u.bot()
    if k == 2:
        return u.var(rng.choice(variables))
    return u.neg(u.var(rng.choice(variables)))


def apply_random_law(u: TermUniverse, rng: random.Random, t, variables):
    """Rewrite one random subterm by one random lattice/ortholattice law
    instance (either direction). Returns None when the chosen law does not
    apply at the chosen position."""
    path = rng.choice(positions(u, t))
    s = subterm_at(u, t, path)
    node = u.node(s)
    law = rng.randrange(9)
    new = None
    if law == 0 and node.kind in (MEET, JOIN) and len(node.children) >= 2:
        kids = list(node.children)  # commutativity: permute children
        i, j = rng.randrange(len(kids)), rng.randrange(len(kids))
        kids[i], kids[j] = kids[j], kids[i]
        new = u.meet(kids) if node.kind == MEET else u.join(kids)
    elif law == 1:  # idempotence, expanding
        new = u.meet([s, s]) if rng.random() < 0.5 else u.join([s, s])
    elif law == 2 and node.kind in (MEET, JOIN):  # idempotence, collapsing
        kids = list(node.children)
        for i in range(len(kids)):
            if new is not None:
                break
            for j in range(i + 1, len(kids)):
                if kids[i] == kids[j]:
                    del kids[j]
                    new = u.meet(kids) if node.kind == MEET else u.join(kids)
                    break
    elif law == 3:  # absorption, expanding
        w = _small_term(u, rng, variables)
        if rng.random() < 0.5:
            new = u.join([s, u.meet([s, w])])
        else:
            new = u.meet([s, u.join([s, w])])
    elif law == 4:  # neutral elements, expanding
        new = u.join([s, u.bot()]) if rng.random() < 0.5 else u.meet([s, u.top()])
    elif law == 5:  # double negation
        if node.kind == NOT and u.node(node.children[0]).kind == NOT:
            new = u.node(node.children[0]).children[0]
        else:
            new = u.neg(u.neg(s))
    elif law == 6 and node.kind == NOT:  # De Morgan, pushing in
        inner = u.node(node.children[0])
        if inner.kind == JOIN:
            new = u.meet([u.neg(c) for c in inner.children])
        elif inner.kind == MEET:
            new = u.join([u.neg(c) for c in inner.children])
    elif law == 7 and node.kind in (MEET, JOIN):  # De Morgan, pulling out
        kids = node.children
        if all(u.node(c).kind == NOT for c in kids):
            inners = [u.node(c).children[0] for c in kids]
            new = u.neg(u.join(inners) if node.kind == MEET else u.meet(inners))
    elif law == 8:  # complement laws, expanding a bound
        w = _small_term(u, rng, variables)
        if node.kind == TOP:
            new = u.join([w, u.neg(w)])
        elif node.kind == BOT:
            new = u.meet([w, u.neg(w)])
    if new is None or new == s:
        return None
    return replace_at(u, t, path, new)


def law_chain(u: TermUniverse, rng: random.Random, seed_term, variables, steps):
    """A chain of law-equivalent terms starting from seed_term."""
    chain = [seed_term]
    cur = seed_term
    for _ in range(steps):
        for _attempt in range(8):
            nxt = apply_random_law(u, rng, cur, variables)
            if nxt is not None:
                cur = nxt
                chain.append(cur)
                break
    return chain
