"""Bounded abstract type definitions, which `desugar` removes by substitution.

A definition `type T[A,...] <: F` is eliminated without axioms: introduce a
fresh unconstrained symbol T' with T's variances and substitute
T := F & T'(A,...) throughout the goal and axioms. A lower bound uses the
dual construction T := F | T'(A,...). Recursive or forward-referencing
definitions are rejected; they would amount to universally quantified
assumptions, which are out of reach of a ground entailment procedure.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ConflictingDeclaration, RecursiveDefinition, VarianceMismatch
from .terms import (
    APP,
    NEGVAR,
    NOT,
    VAR,
    SymbolDecl,
    TermId,
    TermUniverse,
    Variance,
)

FRESH_SUFFIX = "'"


class Definition(NamedTuple):
    """`name[params] <: bound` (kind 'upper') or `name[params] :> bound` ('lower')."""

    name: str
    params: tuple[str, ...]
    bound: TermId
    kind: str = "upper"


def occurrence_polarities(universe: TermUniverse, term: TermId, var: str) -> set[str]:
    """Polarities ('+', '-', 'o') at which `var` occurs in `term`."""

    def image(t: TermId, node, kids: list[frozenset]) -> frozenset:
        if node.kind == VAR or node.kind == NEGVAR:
            if node.name != var:
                return frozenset()
            return frozenset({"+" if node.kind == VAR else "-"})
        if node.kind == NOT:
            return _flip(kids[0])
        if node.kind != APP:
            return frozenset().union(*kids)
        out: set[str] = set()
        for occs, v in zip(kids, node.symbol.variances):
            if v is Variance.COVARIANT:
                out |= occs
            elif v is Variance.CONTRAVARIANT:
                out |= _flip(occs)
            elif occs:
                out.add("o")
        return frozenset(out)

    return set(universe.fold(term, {}, image))


def _flip(occs: frozenset) -> frozenset:
    """Polarities of the same occurrences one contravariant position down."""
    return frozenset({"+": "-", "-": "+"}.get(p, p) for p in occs)


def infer_variance(universe: TermUniverse, term: TermId, var: str) -> Variance:
    """Most permissive variance a term supports for one of its parameters."""
    occs = occurrence_polarities(universe, term, var)
    if occs <= {"+"}:
        return Variance.COVARIANT
    if occs == {"-"}:
        return Variance.CONTRAVARIANT
    return Variance.INVARIANT


def template_compatible(universe: TermUniverse, term: TermId, var: str, declared: Variance) -> bool:
    """Whether a template is monotone the way the declared variance demands.

    An unused parameter is both monotone and antitone, so it is compatible
    with every declared variance; invariant positions impose nothing.
    """
    return declared is Variance.INVARIANT or (
        occurrence_polarities(universe, term, var) <= {declared.value}
    )


def subst_vars(universe: TermUniverse, term: TermId, mapping: dict[str, TermId]) -> TermId:
    """Replace free variables by terms (no binders exist, so nothing is captured)."""

    def image(t: TermId, node, kids: list[TermId]) -> TermId:
        if node.kind == VAR:
            return mapping.get(node.name, t)
        if node.kind == NEGVAR and node.name in mapping:
            return universe.neg(mapping[node.name])
        return universe.rebuild(t, kids)

    return universe.fold(term, {}, image)


def _substitution(
    universe: TermUniverse, decl: SymbolDecl, params: Sequence[str], body: TermId
):
    """Replacement of every application of `decl` by the template `body`
    over `params` (of its dual by the template's negation), arguments
    before the application holding them, as a function of the term; every
    term it is applied to shares one memo."""
    memo: dict[TermId, TermId] = {}

    def image(t: TermId, node, kids: list[TermId]) -> TermId:
        if node.kind == APP and decl.name in (node.symbol.name, node.symbol.dual_of):
            instance = subst_vars(universe, body, dict(zip(params, kids)))
            return instance if node.symbol.name == decl.name else universe.neg(instance)
        return universe.rebuild(t, kids)

    return lambda term: universe.fold(term, memo, image)


def declare_definition_symbol(universe: TermUniverse, definition: Definition) -> SymbolDecl:
    """Declare (or validate) the defined symbol, inferring variances from its bound."""
    inferred = tuple(
        infer_variance(universe, definition.bound, p) for p in definition.params
    )
    existing = universe.symbols.get(definition.name)
    if existing is None:
        return universe.declare(definition.name, inferred)
    for param, declared in zip(definition.params, existing.variances):
        if not template_compatible(universe, definition.bound, param, declared):
            raise ConflictingDeclaration(
                f"{definition.name} declared {declared.name.lower()} in {param}, "
                "but its bound is not"
            )
    return existing


def desugar(
    universe: TermUniverse,
    definitions: Sequence[Definition],
    goal: tuple[TermId, TermId],
    axioms: Sequence[tuple[TermId, TermId]],
) -> tuple[tuple[TermId, TermId], list[tuple[TermId, TermId]], dict[str, str]]:
    """Eliminate definitions from a goal and axiom set.

    Returns the rewritten goal, rewritten axioms, and a map from fresh symbol
    names back to the definitions they stand for (for display purposes).
    Each bound may use only symbols of earlier definitions. An id that is
    not a term of `universe`, in the goal, an axiom or a bound, raises
    `TermIdOverflow`.
    """
    pairs = [tuple(p) for p in axioms]
    universe.require(*goal, *(t for p in pairs for t in p), *(d.bound for d in definitions))
    names = [d.name for d in definitions]
    for i, d in enumerate(definitions):
        mentioned = {
            universe.node(s).symbol.name
            for s in universe.subterms(d.bound)
            if universe.node(s).kind == APP
        }
        for later in names[i:]:
            if later in mentioned:
                raise RecursiveDefinition(
                    f"bound of {d.name} mentions {later}; definitions may only "
                    "use earlier symbols"
                )
    goal_s, goal_t = goal
    hidden: dict[str, str] = {}
    for d in reversed(definitions):
        decl = universe.symbols[d.name]
        name = d.name + FRESH_SUFFIX
        while name in universe.symbols:  # the input's own T' is not fresh
            name += FRESH_SUFFIX
        fresh = universe.declare(name, decl.variances)
        hidden[fresh.name] = d.name
        params = [universe.var(p) for p in d.params]
        opaque = universe.app(fresh, params)
        if d.kind == "upper":
            body = universe.meet([d.bound, opaque])
        else:
            body = universe.join([d.bound, opaque])
        for param, declared in zip(d.params, decl.variances):
            if not template_compatible(universe, body, param, declared):
                raise VarianceMismatch(
                    f"template for {decl.name} is not {declared.name.lower()} in {param}"
                )
        replace = _substitution(universe, decl, d.params, body)
        goal_s, goal_t = replace(goal_s), replace(goal_t)
        pairs = [(replace(a), replace(b)) for (a, b) in pairs]
    return (goal_s, goal_t), pairs, hidden
