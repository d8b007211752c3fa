"""Seeded input generators for the benchmark.

Everything here is plain Python over tuples and strings and imports nothing
from `olsub`: the program under test receives only the generated text, and
the facts the generators know by construction (which queries are provable,
which valuation refutes a query) serve as references that do not come from
the program.

Term trees are tuples:
    ("v", name)  ("top",)  ("bot",)  ("~", t)  ("&", a, b)  ("|", a, b)
    ("f", symbol, (arg, ...))
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

TOP = ("top",)
BOT = ("bot",)


def var(name: str) -> tuple:
    return ("v", name)


def render(t: tuple) -> str:
    """Concrete syntax accepted by `olsub.syntax`; binary nodes are parenthesised."""
    tag = t[0]
    if tag == "v":
        return t[1]
    if tag == "top":
        return "top"
    if tag == "bot":
        return "bot"
    if tag == "~":
        return "~" + render(t[1])
    if tag in ("&", "|"):
        return f"({render(t[1])} {tag} {render(t[2])})"
    return f"{t[1]}({', '.join(render(a) for a in t[2])})"


def size(t: tuple) -> int:
    """Node count under `TermUniverse.size`'s convention (binary nodes count one)."""
    tag = t[0]
    if tag in ("v", "top", "bot"):
        return 1
    if tag == "~":
        return 1 + size(t[1])
    if tag in ("&", "|"):
        return 1 + size(t[1]) + size(t[2])
    return 1 + sum(size(a) for a in t[2])


def evaluate(t: tuple, lattice, valuation: dict, tables: dict, memo: dict) -> object:
    """Value of a tree in a finite ortholattice (`meet`/`join`/`comp` tables).

    `memo` is keyed by object identity; the caller keeps the trees alive.
    """
    got = memo.get(id(t))
    if got is not None:
        return got
    tag = t[0]
    if tag == "v":
        out = valuation[t[1]]
    elif tag == "top":
        out = lattice.top
    elif tag == "bot":
        out = lattice.bot
    elif tag == "~":
        out = lattice.comp[evaluate(t[1], lattice, valuation, tables, memo)]
    elif tag == "&":
        out = lattice.meet[(evaluate(t[1], lattice, valuation, tables, memo),
                            evaluate(t[2], lattice, valuation, tables, memo))]
    elif tag == "|":
        out = lattice.join[(evaluate(t[1], lattice, valuation, tables, memo),
                            evaluate(t[2], lattice, valuation, tables, memo))]
    else:
        args = tuple(evaluate(a, lattice, valuation, tables, memo) for a in t[2])
        out = tables[t[1]][args]
    memo[id(t)] = out
    return out


# ----------------------------------------------------------------------
# random terms of exact size


def random_term(rng: random.Random, n: int, variables, symbols, neg_rate=0.15) -> tuple:
    """A tree of exactly `n` nodes. `symbols` maps name -> arity.

    Binary splits stay within the middle half, which keeps depth logarithmic
    in `n` (the program's parser and passes are recursive).
    """
    if n == 1:
        r = rng.random()
        if r < 0.03:
            return TOP
        if r < 0.06:
            return BOT
        return var(rng.choice(variables))
    r = rng.random()
    if r < neg_rate:
        return ("~", random_term(rng, n - 1, variables, symbols, neg_rate))
    if r < neg_rate + 0.2:
        name = rng.choice(sorted(symbols))
        arity = symbols[name]
        if arity == 1:
            return ("f", name, (random_term(rng, n - 1, variables, symbols, neg_rate),))
        if n - 1 >= arity:
            left = _split(rng, n - 1)
            return ("f", name, (random_term(rng, left, variables, symbols, neg_rate),
                                random_term(rng, n - 1 - left, variables, symbols, neg_rate)))
    if n < 3:
        return ("~", random_term(rng, n - 1, variables, symbols, neg_rate))
    left = _split(rng, n - 1)
    op = "&" if rng.random() < 0.5 else "|"
    return (op, random_term(rng, left, variables, symbols, neg_rate),
            random_term(rng, n - 1 - left, variables, symbols, neg_rate))


def _split(rng: random.Random, m: int) -> int:
    lo = max(1, m // 4)
    hi = min(m - 1, m - m // 4)
    return rng.randint(lo, max(lo, hi))


# ----------------------------------------------------------------------
# law-rewrite chains (the construction of tests/helpers.law_chain, on trees)

_EXPAND_CAP = 12  # expanding laws fire only on subterms this small


def _positions(t: tuple, path=()):
    yield path
    tag = t[0]
    if tag == "~":
        yield from _positions(t[1], path + (0,))
    elif tag in ("&", "|"):
        yield from _positions(t[1], path + (0,))
        yield from _positions(t[2], path + (1,))
    elif tag == "f":
        for i, a in enumerate(t[2]):
            yield from _positions(a, path + (i,))


def _at(t: tuple, path) -> tuple:
    for i in path:
        t = t[2][i] if t[0] == "f" else t[1 + i]
    return t


def _replace(t: tuple, path, new: tuple) -> tuple:
    if not path:
        return new
    i = path[0]
    if t[0] == "f":
        args = list(t[2])
        args[i] = _replace(args[i], path[1:], new)
        return ("f", t[1], tuple(args))
    kids = list(t[1:])
    kids[i] = _replace(kids[i], path[1:], new)
    return (t[0], *kids)


def _small(rng: random.Random, variables) -> tuple:
    k = rng.randrange(4)
    if k == 0:
        return TOP
    if k == 1:
        return BOT
    if k == 2:
        return var(rng.choice(variables))
    return ("~", var(rng.choice(variables)))


def apply_random_law(rng: random.Random, t: tuple, variables):
    """One ortholattice law instance at a random position, or None when the
    drawn law does not apply there. Every law preserves equivalence."""
    path = rng.choice(list(_positions(t)))
    s = _at(t, path)
    tag = s[0]
    law = rng.randrange(9)
    small = size(s) <= _EXPAND_CAP
    new = None
    if law == 0 and tag in ("&", "|"):  # commutativity
        new = (tag, s[2], s[1])
    elif law == 1 and small:  # idempotence, expanding
        new = ("&" if rng.random() < 0.5 else "|", s, s)
    elif law == 2 and tag in ("&", "|") and s[1] == s[2]:  # idempotence, collapsing
        new = s[1]
    elif law == 3 and small:  # absorption, expanding
        w = _small(rng, variables)
        new = ("|", s, ("&", s, w)) if rng.random() < 0.5 else ("&", s, ("|", s, w))
    elif law == 4:  # neutral elements
        new = ("|", s, BOT) if rng.random() < 0.5 else ("&", s, TOP)
    elif law == 5:  # double negation
        if tag == "~" and s[1][0] == "~":
            new = s[1][1]
        else:
            new = ("~", ("~", s))
    elif law == 6 and tag == "~" and s[1][0] in ("&", "|"):  # De Morgan, pushing in
        inner = s[1]
        new = ("&" if inner[0] == "|" else "|", ("~", inner[1]), ("~", inner[2]))
    elif law == 7 and tag in ("&", "|") and s[1][0] == "~" and s[2][0] == "~":
        new = ("~", ("|" if tag == "&" else "&", s[1][1], s[2][1]))  # De Morgan, pulling out
    elif law == 8 and tag in ("top", "bot"):  # complement laws
        w = _small(rng, variables)
        new = ("|", w, ("~", w)) if tag == "top" else ("&", w, ("~", w))
    if new is None or new == s:
        return None
    return _replace(t, path, new)


def law_chain(rng: random.Random, head: tuple, variables, steps: int) -> list:
    """`head` followed by up to `steps` successive law rewrites of it."""
    chain = [head]
    cur = head
    for _ in range(steps):
        for _attempt in range(8):
            nxt = apply_random_law(rng, cur, variables)
            if nxt is not None:
                cur = nxt
                chain.append(cur)
                break
    return chain


# ----------------------------------------------------------------------
# query families


@dataclass
class Query:
    """A query text with its answer known by construction.

    `refuter` is a valuation of the query's variables in the two-element
    Boolean lattice making the left side 1 and the right side 0, which
    certifies a refuted query; None for provable queries.
    """

    text: str
    provable: bool
    family: str
    n: int
    refuter: dict | None = None


def sn_tn(rng: random.Random, n: int):
    """S_n = (a1 | b1) & ... & (a_{n/2} | b_{n/2}) and T_n, the same meet
    with each disjunct pair swapped and the conjuncts shuffled. Variable
    names are a seeded permutation of X1..Xn."""
    names = [f"X{i}" for i in range(1, n + 1)]
    rng.shuffle(names)
    pairs = [(names[2 * i], names[2 * i + 1]) for i in range(n // 2)]
    order = list(range(len(pairs)))
    rng.shuffle(order)
    s = " & ".join(f"({a} | {b})" for a, b in pairs)
    t = " & ".join(f"({pairs[i][1]} | {pairs[i][0]})" for i in order)
    return pairs, order, s, t


def sn_tn_queries(rng: random.Random, n: int) -> list[Query]:
    """`S_n <= T_n`, `T_n <= S_n`, and `S_n <= T_n'` where T_n' has one
    variable replaced by a fresh one (refuted)."""
    pairs, order, s, t = sn_tn(rng, n)
    j = rng.randrange(len(pairs))
    keep, _ = pairs[j] if rng.random() < 0.5 else pairs[j][::-1]
    swapped = []
    for i in order:
        a, b = pairs[i]
        if i == j:
            a, b = (keep, "Y") if rng.random() < 0.5 else ("Y", keep)
        swapped.append(f"({b} | {a})")
    t_ref = " & ".join(swapped)
    refuter = {name: 1 for pair in pairs for name in pair}
    refuter[keep] = 0
    refuter["Y"] = 0
    return [
        Query(f"{s} <= {t}", True, "sn-tn", n),
        Query(f"{t} <= {s}", True, "sn-tn", n),
        Query(f"{s} <= {t_ref}", False, "sn-tn-refuted", n, refuter),
    ]


def wide_meet_queries(rng: random.Random, k: int) -> list[Query]:
    """`x0 & ... & x{k-1} <= x_i` (provable) and `... <= y` (refuted), with
    the conjuncts in seeded order."""
    names = [f"x{i}" for i in range(k)]
    rng.shuffle(names)
    lhs = " & ".join(names)
    refuter = {name: 1 for name in names}
    refuter["y"] = 0
    return [
        Query(f"{lhs} <= {rng.choice(names)}", True, "wide-meet", k),
        Query(f"{lhs} <= y", False, "wide-meet-refuted", k, refuter),
    ]


# ----------------------------------------------------------------------
# nominal hierarchies


@dataclass
class Hierarchy:
    """Atoms with direct supertypes; `source` holds the axiom text."""

    atoms: list[str]
    parents: dict[str, list[str]]
    source: str
    ancestors: dict[str, set[str]] = field(default_factory=dict)

    def __post_init__(self):
        for a in self.atoms:  # atoms are listed parents-first
            up = {a}
            for p in self.parents[a]:
                up |= self.ancestors[p]
            self.ancestors[a] = up

    def descendants(self, a: str) -> list[str]:
        return [b for b in self.atoms if a in self.ancestors[b]]


def hierarchy(rng: random.Random, prefix: str, count: int, extra_edges: int,
              header: str, bounds: list[str]) -> Hierarchy:
    """`count` atoms shaped as a binary heap (atom i's parent is atom
    (i - 1) // 2), under seeded names, plus `extra_edges` second parents.
    A fixed shape keeps the cost of rounds alike across seeds."""
    names = [f"{prefix}{i}" for i in range(count)]
    rng.shuffle(names)
    parents = {names[0]: []}
    for i in range(1, count):
        parents[names[i]] = [names[(i - 1) // 2]]
    for _ in range(extra_edges):
        i = rng.randrange(2, count)
        p = names[rng.randrange(0, i)]
        if p not in parents[names[i]]:
            parents[names[i]].append(p)
    lines = [header.rstrip("\n")]
    lines += [f"{a} <= {p}" for a in names for p in parents[a]]
    lines += bounds
    return Hierarchy(names, parents, "\n".join(lines) + "\n")


SESSION_HEADER = "fun List : (+)\nfun Sink : (-)\nfun Ref : (o)\nfun Fn : (-,+)\n"
SESSION_SYMBOLS = {"List": "+", "Sink": "-", "Ref": "o", "Fn": "-+"}


def session_hierarchy(rng: random.Random) -> Hierarchy:
    """16 atoms, one second parent and two constructor bounds."""
    a = lambda: f"A{rng.randrange(16)}"  # noqa: E731
    bounds = [f"List({a()}) <= {a()}", f"Ref({a()}) <= Sink({a()})"]
    return hierarchy(rng, "A", 16, 1, SESSION_HEADER, bounds)


def _type_term(rng: random.Random, h: Hierarchy, n: int) -> tuple:
    """A type of exactly `n` nodes over the hierarchy's atoms and the session
    constructors, with rare negation."""
    if n == 1:
        return var(rng.choice(h.atoms))
    r = rng.random()
    if r < 0.03:
        return ("~", _type_term(rng, h, n - 1))
    if r < 0.45:
        name = rng.choice(sorted(SESSION_SYMBOLS))
        arity = len(SESSION_SYMBOLS[name])
        if arity == 1:
            return ("f", name, (_type_term(rng, h, n - 1),))
        if n >= 3:
            left = rng.randint(1, n - 2)
            return ("f", name, (_type_term(rng, h, left), _type_term(rng, h, n - 1 - left)))
    if n < 3:
        name = rng.choice(["List", "Sink", "Ref"])
        return ("f", name, (_type_term(rng, h, n - 1),))
    left = rng.randint(1, n - 2)
    return ("&" if rng.random() < 0.5 else "|", _type_term(rng, h, left),
            _type_term(rng, h, n - 1 - left))


def _weaken(rng: random.Random, h: Hierarchy, t: tuple, positive: bool) -> tuple:
    """Move atoms up (positive position) or down (negative position) the
    hierarchy through variance-respecting positions; invariant arguments and
    negations are kept as they are."""
    tag = t[0]
    if tag == "v":
        if rng.random() < 0.5:
            pool = sorted(h.ancestors[t[1]]) if positive else h.descendants(t[1])
            return var(rng.choice(pool))
        return t
    if tag in ("&", "|"):
        return (tag, _weaken(rng, h, t[1], positive), _weaken(rng, h, t[2], positive))
    if tag == "f":
        args = []
        for a, v in zip(t[2], SESSION_SYMBOLS[t[1]]):
            if v == "+":
                args.append(_weaken(rng, h, a, positive))
            elif v == "-":
                args.append(_weaken(rng, h, a, not positive))
            else:
                args.append(a)
        return ("f", t[1], tuple(args))
    return t


def _mutate(rng: random.Random, h: Hierarchy, t: tuple) -> tuple:
    paths = [p for p in _positions(t) if _at(t, p)[0] == "v"]
    return _replace(t, rng.choice(paths), var(rng.choice(h.atoms)))


def session_queries(rng: random.Random, h: Hierarchy, count: int) -> list[str]:
    """Queries `S <= T` with |S| + |T| in 10..20. Each weakens S into T, which
    is provable by construction up to the rare negations; 70% then replace one
    atom of T at random, which is refuted more often than not. The program's
    answers are checked against the saturation oracle, not this split."""
    out = []
    while len(out) < count:
        n = rng.randint(5, 9)
        s = _type_term(rng, h, n)
        t = _weaken(rng, h, s, True)
        if rng.random() < 0.3:
            t = ("|", t, _type_term(rng, h, rng.randint(1, 3)))
        if rng.random() < 0.7:
            t = _mutate(rng, h, t)
        if 10 <= size(s) + size(t) <= 20:
            out.append(f"{render(s)} <= {render(t)}")
    return out


EXPLAIN_HEADER = (
    "fun List : (+)\n"
    "fun Fn : (-,+)\n"
    "type Box[A] <: List(A) & B0\n"
)


def explain_hierarchy(rng: random.Random) -> Hierarchy:
    """8 atoms and one bounded abstract type `Box`, as an axiom file."""
    return hierarchy(rng, "B", 8, 1, EXPLAIN_HEADER, [])


def explain_queries(rng: random.Random, h: Hierarchy) -> list[Query]:
    """Hierarchy queries provable by construction: each goes up a strict
    subtype edge, directly or through `List`, `Fn` and the defined `Box`."""
    out = []
    strict = [(a, b) for a in h.atoms for b in sorted(h.ancestors[a]) if b != a]
    for a, b in rng.sample(strict, 2):
        out.append(Query(f"{a} <= {b}", True, "hier", 1))
        out.append(Query(f"Box({a}) <= List({b})", True, "hier-box", 1))
        out.append(Query(f"Fn({b}, {a}) <= Fn({a}, {b})", True, "hier", 1))
        out.append(Query(f"List({a}) <= List({b}) | Fn({a}, {b})", True, "hier", 1))
    return out
