"""Shared test utilities: random term generators, lattice-law rewriting, and
proof oracles (a node iterator, plain tree renderings, a reference expander)."""
from __future__ import annotations

import random
from typing import Sequence

from olsub.entail import Engine, elements
from olsub.oracle import FiniteOrtholattice, Interpretation, evaluate
from olsub.syntax import print_term
from olsub.terms import APP, BOT, JOIN, MEET, NEGVAR, NOT, TOP, VAR, TermId, TermUniverse, Variance


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


def reintern(u: TermUniverse, roots, into: TermUniverse) -> list:
    """Intern into `into` every node under `roots`, in post-order: roots in
    turn, children left to right before their parent, each node at its
    first occurrence. The walk runs on an explicit stack, and `into` gets
    `u`'s symbols as it meets them. Returns the images of `roots`."""
    image: dict = {}
    for root in roots:
        stack = [(root, False)]
        while stack:
            t, ready = stack.pop()
            if t in image:
                continue
            node = u.node(t)
            if not ready:
                stack.append((t, True))
                stack.extend((c, False) for c in reversed(node.children))
                continue
            kids = [image[c] for c in node.children]
            kind = node.kind
            if kind in (VAR, NEGVAR):
                image[t] = into.var(node.name) if kind == VAR else into.negvar(node.name)
            elif kind in (TOP, BOT):
                image[t] = into.top() if kind == TOP else into.bot()
            elif kind == NOT:
                image[t] = into.neg(kids[0])
            elif kind in (MEET, JOIN):
                image[t] = into.meet(kids) if kind == MEET else into.join(kids)
            else:
                image[t] = into.app(into.declare(node.name, node.symbol.variances), kids)
    return [image[r] for r in roots]


def node_list(u: TermUniverse) -> list:
    """Every node of `u` as `(kind, name, children)`, in id order."""
    return [(n.kind, n.name, n.children) for n in map(u.node, range(len(u)))]


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


def partition_terms(
    universe: TermUniverse,
    terms: Sequence[TermId],
    models: Sequence[tuple[FiniteOrtholattice, Interpretation]] = (),
) -> list[list[TermId]]:
    """Group terms into provable-equivalence classes.

    A helper, not an oracle: it decides equivalence with `Engine`. The
    normalizer does not use `Engine` (its order tests are a Whitman check
    of its own), so comparing normal forms with these classes pits two
    independent procedures against each other.

    Model-evaluation signatures split the input into sound buckets first
    (equivalent terms always share a signature); pairwise entailment checks
    against one representative per class settle the rest. Each returned
    class lists its members in the input order, so pre-sorting by size makes
    class minima the first members.
    """
    engine = Engine(universe)
    caches = [dict() for _ in models]

    def signature(t: TermId) -> tuple:
        return tuple(
            evaluate(universe, t, lattice, interp, cache)
            for (lattice, interp), cache in zip(models, caches)
        )

    buckets: dict[tuple, list[list[TermId]]] = {}
    classes: list[list[TermId]] = []
    for t in terms:
        bucket = buckets.setdefault(signature(t), [])
        for cls in bucket:
            rep = cls[0]
            if engine.query(t, rep) and engine.query(rep, t):
                cls.append(t)
                break
        else:
            cls = [t]
            bucket.append(cls)
            classes.append(cls)
    return classes


def class_hierarchy_session(seed: int, queries: int = 120):
    """A type checker's session in miniature: `(universe, axioms, goals)`
    for one `Engine` to answer in order, all drawn from `seed`.

    Twelve classes A0 … A11 form a tree (each class below a random earlier
    one) with one second parent, as atom axioms. Three compound axioms bound
    the constructors: covariant `List`, contravariant `Sink`, invariant
    `Ref` and `Fn(-, +)`. A goal's left side is a type of 4 to 12 nodes over
    them, with rare negation. Every other goal's right side weakens the left
    along the hierarchy, through each argument's variance, so about half the
    goals hold; the others pair two unrelated types."""
    rng = random.Random(seed)
    u = TermUniverse()
    lst, sink, ref, fn = symbols = [u.declare("List", "+"), u.declare("Sink", "-"),
                                    u.declare("Ref", "o"), u.declare("Fn", "-+")]
    n = 12
    parents = [[]] + [[rng.randrange(i)] for i in range(1, n)]
    child = rng.randrange(2, n)
    second = rng.randrange(child)
    if second not in parents[child]:
        parents[child].append(second)
    up = []  # the classes at or above class i
    for i in range(n):
        seen = {i}
        frontier = [i]
        for j in frontier:
            for p in parents[j]:
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        up.append(sorted(seen))
    down = [[j for j in range(n) if i in up[j]] for i in range(n)]
    atoms = [u.var(f"A{i}") for i in range(n)]
    axioms = [(atoms[i], atoms[p]) for i in range(n) for p in parents[i]]

    def atom():
        return rng.choice(atoms)

    axioms += [(u.app(lst, [atom()]), atom()), (u.app(ref, [atom()]), u.app(sink, [atom()])),
               (u.app(fn, [atom(), atom()]), u.app(lst, [atom()]))]

    def term(size):
        if size == 1:
            return atom()
        r = rng.random()
        if r < 0.04:
            return u.neg(term(size - 1))
        if r < 0.45:
            decl = rng.choice(symbols)
            if decl.arity == 1:
                return u.app(decl, [term(size - 1)])
            if size >= 3:
                left = rng.randint(1, size - 2)
                return u.app(decl, [term(left), term(size - 1 - left)])
        if size < 3:
            return u.app(rng.choice(symbols[:3]), [term(size - 1)])
        left = rng.randint(1, size - 2)
        parts = [term(left), term(size - 1 - left)]
        return u.meet(parts) if rng.random() < 0.5 else u.join(parts)

    def weaken(t, positive):
        node = u.node(t)
        if node.kind == VAR:
            if rng.random() < 0.5:
                i = int(node.name[1:])
                return atoms[rng.choice(up[i] if positive else down[i])]
            return t
        if node.kind in (MEET, JOIN):
            return u.rebuild(t, [weaken(c, positive) for c in node.children])
        if node.kind == APP:
            return u.rebuild(t, [
                c if v is Variance.INVARIANT else weaken(c, positive == (v is Variance.COVARIANT))
                for c, v in zip(node.children, node.symbol.variances)
            ])
        return t

    goals = []
    for i in range(queries):
        s = term(rng.randint(4, 12))
        goals.append((s, weaken(s, True) if i % 2 == 0 else term(rng.randint(4, 12))))
    return u, axioms, goals


# ----------------------------------------------------------------------
# proof oracles: they share no code with the renderer in `olsub.cli`


def proof_nodes(proof):
    """Each distinct node of `proof` once, in preorder of its first
    occurrence, from an explicit stack."""
    seen, stack = set(), [proof]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.children))


def plain_json(u, node, rename=None):
    """The proof as a JSON value written as a tree: every occurrence of a
    shared subproof in full, each term printed with `rename`."""
    return {
        "rule": node.rule,
        "sequent": [
            [print_term(u, t, rename), "LR"[side]] for t, side in elements(node.sequent)
        ],
        "children": [plain_json(u, child, rename) for child in node.children],
    }


def plain_text(u, node, rename=None, depth=0):
    """The proof's text lines written as a tree: every occurrence of a shared
    subproof in full, two spaces of indent per level."""
    rule = f"F[{node.aux}]" if node.rule == "F" else node.rule
    shown = ", ".join(
        f"{print_term(u, t, rename)}^{'LR'[side]}" for t, side in elements(node.sequent)
    )
    lines = ["  " * depth + f"{rule}: {shown}"]
    return lines + [line for c in node.children for line in plain_text(u, c, rename, depth + 1)]


def expand_json_refs(proof):
    """A rendered JSON proof with each `{"ref": N}` replaced by the subtree of
    entry N, entries numbered in preorder from the root's 0. Fails unless N
    names an earlier entry, written in full, that has children."""
    entries, at = [], {}  # entries in preorder; id of an entry -> its number

    def number(entry):
        at[id(entry)] = len(entries)
        entries.append(entry)
        for child in entry.get("children", ()):
            number(child)

    def expand(entry):
        if "ref" in entry:
            n = entry["ref"]
            target = entries[n]
            assert n < at[id(entry)] and "ref" not in target and target["children"], entry
            return expand(target)
        return {**entry, "children": [expand(child) for child in entry["children"]]}

    number(proof)
    return expand(proof)


def expand_text_refs(lines):
    """Rendered text proof lines with each `= #N` line replaced by the lines
    of entry N's subtree, entry N being line N, reindented to the reference's
    depth. Fails unless N names an earlier line, written in full, with lines
    below it."""
    depths = [(len(line) - len(line.lstrip(" "))) // 2 for line in lines]

    def children(i):
        j = i + 1
        while j < len(lines) and depths[j] > depths[i]:
            if depths[j] == depths[i] + 1:
                yield j
            j += 1

    def expand(i, depth):
        body = lines[i].lstrip(" ")
        if body.startswith("= #"):
            n = int(body[3:])
            assert n < i and not lines[n].lstrip(" ").startswith("= #"), lines[i]
            assert list(children(n)), lines[i]
            return expand(n, depth)
        out = ["  " * depth + body]
        for j in children(i):
            out += expand(j, depth + 1)
        return out

    return expand(0, 0)
