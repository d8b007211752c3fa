"""Independent ground-truth engines for testing the main pipeline.

Three unrelated ways to answer the questions the package answers:

* `saturate` derives, by forward chaining, every provable sequent over the
  subterm closure of a goal and axiom set. It shares no code with the
  Horn-clause engine; agreement between the two is a completeness check.
* Finite ortholattices (the 2-element Boolean lattice and the hexagon O6)
  with randomly sampled monotone constructor tables give a soundness check:
  anything provable must hold under every interpretation. O6 is
  non-distributive, which guards against accidentally deciding a stronger
  theory.
* `enumerate_terms` streams every term up to a size bound exactly once, for
  exhaustive minimality and agreement sweeps.

`partition_terms` is a helper, not an oracle: it decides equivalence with
`entail.Engine`. The normalizer does not use `Engine` (its order tests are
a Whitman check of its own), so comparing normal forms with their classes
pits two independent procedures against each other.
"""
from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import entail
from .errors import MissingInterpretation
from .terms import (
    APP,
    BOT,
    JOIN,
    MEET,
    NEGVAR,
    NOT,
    TOP,
    VAR,
    SymbolDecl,
    TermId,
    TermUniverse,
    Variance,
)

# ----------------------------------------------------------------------
# finite ortholattices


@dataclass
class FiniteOrtholattice:
    """Explicit order, meet/join and complement tables, verified at build time."""

    name: str
    elements: tuple
    leq: dict
    meet: dict
    join: dict
    comp: dict
    top: object
    bot: object

    @classmethod
    def from_order(cls, name: str, elements: Sequence, covers: Iterable[tuple], comp: dict):
        """Build from a strict-order edge list (transitively closed here)."""
        elements = tuple(elements)
        below = {e: {e} for e in elements}
        edges = list(covers)
        changed = True
        while changed:  # transitive closure
            changed = False
            for a, b in edges:
                new = below[b] | below[a]
                if new != below[b]:
                    below[b] = new
                    changed = True
        leq = {(a, b): a in below[b] for a in elements for b in elements}

        def bounds(pair_fn, candidates):
            table = {}
            for a in elements:
                for b in elements:
                    cands = [c for c in elements if pair_fn(a, b, c)]
                    best = [
                        c
                        for c in cands
                        if all(candidates(c, d) for d in cands)
                    ]
                    if len(best) != 1:
                        raise ValueError(
                            f"{name}: no unique bound for {a},{b}: {best}"
                        )
                    table[(a, b)] = best[0]
            return table

        meet = bounds(
            lambda a, b, c: leq[(c, a)] and leq[(c, b)],
            lambda c, d: leq[(d, c)],
        )
        join = bounds(
            lambda a, b, c: leq[(a, c)] and leq[(b, c)],
            lambda c, d: leq[(c, d)],
        )
        top = next(e for e in elements if all(leq[(x, e)] for x in elements))
        bot = next(e for e in elements if all(leq[(e, x)] for x in elements))
        lattice = cls(name, elements, leq, meet, join, dict(comp), top, bot)
        lattice._verify()
        return lattice

    def _verify(self) -> None:
        """Exhaustively check the ortholattice laws on the tables."""
        es = self.elements
        m, j, c = self.meet, self.join, self.comp
        for x in es:
            assert j[(x, x)] == x and m[(x, x)] == x
            assert j[(x, self.top)] == self.top and m[(x, self.bot)] == self.bot
            assert j[(x, self.bot)] == x and m[(x, self.top)] == x
            assert c[c[x]] == x
            assert j[(x, c[x])] == self.top and m[(x, c[x])] == self.bot
            for y in es:
                assert j[(x, y)] == j[(y, x)] and m[(x, y)] == m[(y, x)]
                assert j[(x, m[(x, y)])] == x and m[(x, j[(x, y)])] == x
                assert c[j[(x, y)]] == m[(c[x], c[y])]
                assert c[m[(x, y)]] == j[(c[x], c[y])]
                for z in es:
                    assert j[(x, j[(y, z)])] == j[(j[(x, y)], z)]
                    assert m[(x, m[(y, z)])] == m[(m[(x, y)], z)]


def boolean2() -> FiniteOrtholattice:
    return FiniteOrtholattice.from_order(
        "B2", (0, 1), [(0, 1)], {0: 1, 1: 0}
    )


def o6() -> FiniteOrtholattice:
    """The hexagon: chains 0 < a < b < 1 and 0 < nb < na < 1, complement as
    labelled. Smallest ortholattice separating orthologic from Boolean
    reasoning; fails distributivity on (b, na, a)."""
    return FiniteOrtholattice.from_order(
        "O6",
        ("0", "a", "b", "na", "nb", "1"),
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "nb"), ("nb", "na"), ("na", "1")],
        {"0": "1", "1": "0", "a": "na", "na": "a", "b": "nb", "nb": "b"},
    )


@dataclass
class Interpretation:
    """A valuation for variables plus a function table per constructor."""

    valuation: dict = field(default_factory=dict)
    fn_tables: dict = field(default_factory=dict)


def _below(lattice: FiniteOrtholattice, variances: Sequence[Variance], xs, ys) -> bool:
    """Whether argument tuple `xs` is below `ys` in the pointwise order the
    variances give: covariant positions ordered, contravariant ones
    reversed, invariant ones equal."""
    leq = lattice.leq
    for x, y, v in zip(xs, ys, variances):
        if v is Variance.INVARIANT:
            if x != y:
                return False
        elif not (leq[(x, y)] if v is Variance.COVARIANT else leq[(y, x)]):
            return False
    return True


def check_v10(lattice: FiniteOrtholattice, variances: Sequence[Variance], table: dict) -> bool:
    """Exhaustive monotonicity check of a function table against variances."""
    leq = lattice.leq
    args_space = list(itertools.product(lattice.elements, repeat=len(variances)))
    return all(
        leq[(table[xs], table[ys])]
        for xs in args_space
        for ys in args_space
        if _below(lattice, variances, xs, ys)
    )


def sample_monotone_tables(
    lattice: FiniteOrtholattice, symbol: SymbolDecl, seed: int
) -> dict:
    """A random function table repaired to respect the declared variances.

    Covariant positions are repaired by upward closure (join of the raw table
    over all pointwise-smaller arguments), contravariant ones dually;
    invariant positions are unconstrained. The result is checked exhaustively.
    """
    rng = random.Random(seed)
    space = list(itertools.product(lattice.elements, repeat=symbol.arity))
    raw = {xs: rng.choice(lattice.elements) for xs in space}
    table = {}
    for xs in space:
        acc = lattice.bot
        for ys in space:
            if _below(lattice, symbol.variances, ys, xs):
                acc = lattice.join[(acc, raw[ys])]
        table[xs] = acc
    assert check_v10(lattice, symbol.variances, table)
    return table


def evaluate(
    universe: TermUniverse,
    t: TermId,
    lattice: FiniteOrtholattice,
    interp: Interpretation,
    _cache: dict | None = None,
) -> object:
    """Homomorphic evaluation; Not and negated atoms go through the
    complement table, a dual symbol evaluates to the complement of its
    original's table. One bottom-up walk on an explicit stack, memoized in
    `_cache`, so any nesting depth evaluates."""

    def value(s: TermId, node, kids: list) -> object:
        kind = node.kind
        if kind in (VAR, NEGVAR):
            try:
                out = interp.valuation[node.name]
                return lattice.comp[out] if kind == NEGVAR else out
            except KeyError:
                raise MissingInterpretation(f"no value for variable {node.name}") from None
        if kind == TOP:
            return lattice.top
        if kind == BOT:
            return lattice.bot
        if kind == NOT:
            return lattice.comp[kids[0]]
        if kind in (MEET, JOIN):
            op, out = (lattice.meet, lattice.top) if kind == MEET else (lattice.join, lattice.bot)
            for k in kids:
                out = op[(out, k)]
            return out
        name = node.symbol.dual_of or node.symbol.name  # APP
        table = interp.fn_tables.get(name)
        if table is None:
            raise MissingInterpretation(f"no table for symbol {name}")
        out = table[tuple(kids)]
        return lattice.comp[out] if node.symbol.dual_of is not None else out

    return universe.fold(t, {} if _cache is None else _cache, value)


def random_interpretation(
    universe: TermUniverse,
    lattice: FiniteOrtholattice,
    variables: Sequence[str],
    symbols: Sequence[SymbolDecl],
    seed: int,
) -> Interpretation:
    rng = random.Random(seed)
    valuation = {v: rng.choice(lattice.elements) for v in variables}
    tables = {
        decl.name: sample_monotone_tables(lattice, decl, rng.randrange(1 << 30))
        for decl in symbols
        if decl.dual_of is None
    }
    return Interpretation(valuation, tables)


# ----------------------------------------------------------------------
# saturation: forward-chaining least fixpoint over the closed sequent space

_L = 0
_R = 1


def _swapped(u: TermUniverse, node) -> TermId | None:
    """The term a negation rule swaps `node` for: a negation's operand, a
    negated variable's variable, a dual application's original; else None."""
    if node.kind == NOT:
        return node.children[0]
    if node.kind == NEGVAR:
        return u.var(node.name)
    if node.kind == APP and node.symbol.dual_of is not None:
        return u.app(u.symbols[node.symbol.dual_of], node.children)
    return None


def _closure(universe: TermUniverse, roots: Iterable[TermId]) -> set[TermId]:
    terms: set[TermId] = set()
    for r in roots:
        terms |= universe.subterms(r)
    swapped = {_swapped(universe, universe.node(t)) for t in terms}
    swapped.discard(None)
    return terms | swapped


def _saturate_ints(universe, goal_terms, axioms) -> set[int]:
    u = universe
    pairs = list(axioms or ())
    terms = _closure(u, list(goal_terms) + [t for p in pairs for t in p])

    def ann(t: TermId, side: int) -> int:
        return (side << 31) | t

    def seq(a: int, b: int) -> int:
        return (a << 32) | b if a <= b else (b << 32) | a

    anns = [ann(t, s) for t in terms for s in (_L, _R)]

    # Structural indexes over the closed term set.
    meet_parents: dict[TermId, list[TermId]] = {}
    join_parents: dict[TermId, list[TermId]] = {}
    swap_target: dict[int, list[int]] = {}  # premise ann -> conclusion anns
    for t in terms:
        node = u.node(t)
        if node.kind == MEET:
            for c in node.children:
                meet_parents.setdefault(c, []).append(t)
        elif node.kind == JOIN:
            for c in node.children:
                join_parents.setdefault(c, []).append(t)
        else:
            inner = _swapped(u, node)
            if inner is not None:
                swap_target.setdefault(ann(inner, _R), []).append(ann(t, _L))
                swap_target.setdefault(ann(inner, _L), []).append(ann(t, _R))

    # Candidate constructor-rule instances, indexed by premise.
    apps_by_symbol: dict[str, list[TermId]] = {}
    for t in terms:
        node = u.node(t)
        if node.kind == APP:
            apps_by_symbol.setdefault(node.symbol.name, []).append(t)
    f_instances: list[tuple[int, list[int]]] = []
    premise_index: dict[int, list[int]] = {}
    for _, apps in apps_by_symbol.items():
        for lhs in apps:
            for rhs in apps:
                ln, rn = u.node(lhs), u.node(rhs)
                premises: list[int] = []
                for sl, tr, v in zip(ln.children, rn.children, ln.symbol.variances):
                    if v is Variance.INVARIANT:
                        premises.append(seq(ann(sl, _L), ann(tr, _R)))
                        premises.append(seq(ann(tr, _L), ann(sl, _R)))
                    elif v is Variance.COVARIANT:
                        premises.append(seq(ann(sl, _L), ann(tr, _R)))
                    else:
                        premises.append(seq(ann(tr, _L), ann(sl, _R)))
                fid = len(f_instances)
                f_instances.append((seq(ann(lhs, _L), ann(rhs, _R)), premises))
                for p in premises:
                    premise_index.setdefault(p, []).append(fid)

    ax_r = [ann(v, _R) for (v, _) in pairs]
    ax_l = [ann(w, _L) for (_, w) in pairs]
    gammas: list[set[int]] = [set() for _ in pairs]
    deltas: list[set[int]] = [set() for _ in pairs]

    derived: set[int] = set()
    queue: deque = deque()

    def emit(s: int) -> None:
        if s not in derived:
            derived.add(s)
            queue.append(s)

    for t in terms:
        emit(seq(ann(t, _L), ann(t, _R)))
        node = u.node(t)
        if node.kind == BOT:
            for d in anns:
                emit(seq(ann(t, _L), d))
        elif node.kind == TOP:
            for g in anns:
                emit(seq(g, ann(t, _R)))
    for v, w in pairs:
        emit(seq(ann(v, _L), ann(w, _R)))

    while queue:
        s = queue.popleft()
        p, q = s >> 32, s & 0xFFFFFFFF
        for e, ctx in ((p, q), (q, p)) if p != q else ((p, q),):
            t, side = e & 0x7FFFFFFF, e >> 31
            node = u.node(t)
            if side == _L:
                for m in meet_parents.get(t, ()):
                    emit(seq(ann(m, _L), ctx))
                for j in join_parents.get(t, ()):
                    if all(
                        seq(ann(c, _L), ctx) in derived for c in u.node(j).children
                    ):
                        emit(seq(ann(j, _L), ctx))
            else:
                for j in join_parents.get(t, ()):
                    emit(seq(ann(j, _R), ctx))
                for m in meet_parents.get(t, ()):
                    if all(
                        seq(ann(c, _R), ctx) in derived for c in u.node(m).children
                    ):
                        emit(seq(ann(m, _R), ctx))
            for target in swap_target.get(e, ()):
                emit(seq(target, ctx))
            for i in range(len(pairs)):
                if e == ax_r[i] and ctx not in gammas[i]:
                    gammas[i].add(ctx)
                    for d in deltas[i]:
                        emit(seq(ctx, d))
                if e == ax_l[i] and ctx not in deltas[i]:
                    deltas[i].add(ctx)
                    for g in gammas[i]:
                        emit(seq(g, ctx))
        if p == q:  # {G,G} derived: Replace concludes {G,D} for every D
            for d in anns:
                emit(seq(p, d))
        for fid in premise_index.get(s, ()):
            conclusion, premises = f_instances[fid]
            if all(x in derived for x in premises):
                emit(conclusion)

    return derived


def saturate(universe: TermUniverse, goal_terms, axioms=None) -> set[tuple]:
    """All provable sequents over subterms of the goals and axioms.

    Returned as canonical pairs ((term, side), (term, side)) with side in
    {"L", "R"}, smallest first by (side, term).
    """
    ints = _saturate_ints(universe, goal_terms, axioms)
    out = set()
    for s in ints:
        p, q = s >> 32, s & 0xFFFFFFFF
        a = (p & 0x7FFFFFFF, "L" if p >> 31 == _L else "R")
        b = (q & 0x7FFFFFFF, "L" if q >> 31 == _L else "R")
        out.add((a, b))
    return out


def saturates(universe: TermUniverse, s: TermId, t: TermId, axioms=None) -> bool:
    """Whether forward saturation derives {s^L, t^R} (fast single query)."""
    ints = _saturate_ints(universe, [s, t], axioms)
    a = (_L << 31) | s
    b = (_R << 31) | t
    goal = (a << 32) | b if a <= b else (b << 32) | a
    return goal in ints


# ----------------------------------------------------------------------
# exhaustive enumeration

NEGATION_NONE = "none"  # bounded-lattice terms
NEGATION_NOT = "not"  # ortholattice terms with Not nodes
NEGATION_LITERALS = "literals"  # extended signature: negated variables as leaves


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_terms(
    universe: TermUniverse,
    variables: Sequence[str],
    symbols: Sequence[SymbolDecl],
    max_size: int,
    negation: str = NEGATION_NONE,
) -> Iterator[TermId]:
    """Every term of size <= max_size exactly once, smallest first.

    Flattened meets and joins make the count finite per size: their children
    are never the same kind, and child order is significant. Intended for
    small bounds (<= 8 or so); the stream is its own specification, so counts
    are frozen as golden values in tests.
    """
    u = universe
    by_size: dict[int, list[TermId]] = {}
    non_meet: dict[int, list[TermId]] = {}
    non_join: dict[int, list[TermId]] = {}
    for size in range(1, max_size + 1):
        terms: list[TermId] = []
        if size == 1:
            terms.extend(u.var(v) for v in variables)
            if negation == NEGATION_LITERALS:
                terms.extend(u.negvar(v) for v in variables)
            terms.append(u.top())
            terms.append(u.bot())
            terms.extend(u.app(d, []) for d in symbols if d.arity == 0)
        else:
            if negation == NEGATION_NOT:
                terms.extend(u.neg(t) for t in by_size.get(size - 1, ()))
            for decl in symbols:
                if decl.arity == 0:
                    continue
                for comp in _compositions(size - 1, decl.arity):
                    pools = [by_size.get(s, ()) for s in comp]
                    for args in itertools.product(*pools):
                        terms.append(u.app(decl, args))
            for kind_pool, build in ((non_meet, u.meet), (non_join, u.join)):
                for k in range(2, size + 1):
                    remaining = size - (k - 1)
                    if remaining < k:
                        break
                    for comp in _compositions(remaining, k):
                        pools = [kind_pool.get(s, ()) for s in comp]
                        for kids in itertools.product(*pools):
                            terms.append(build(kids))
        by_size[size] = terms
        non_meet[size] = [t for t in terms if u.node(t).kind != MEET]
        non_join[size] = [t for t in terms if u.node(t).kind != JOIN]
        yield from terms


def partition_terms(
    universe: TermUniverse,
    terms: Sequence[TermId],
    models: Sequence[tuple[FiniteOrtholattice, Interpretation]] = (),
) -> list[list[TermId]]:
    """Group terms into provable-equivalence classes.

    Model-evaluation signatures split the input into sound buckets first
    (equivalent terms always share a signature); pairwise entailment checks
    against one representative per class settle the rest. Each returned
    class lists its members in the input order, so pre-sorting by size makes
    class minima the first members.
    """
    engine = entail.Engine(universe)
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
