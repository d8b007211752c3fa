import random

import pytest

from olsub import check, parse_source, parse_term
from olsub.defs import (
    Definition,
    desugar,
    infer_variance,
    occurrence_polarities,
    subst_vars,
    substitute,
)
from olsub.errors import RecursiveDefinition, VarianceMismatch
from olsub.oracle import saturates
from olsub.terms import Variance

from helpers import random_term


def test_substitute_class_encoding(u):
    s = u.declare("S", "+")
    u.declare("T", "+")
    big_u = u.declare("U", "+")
    u.declare("U'", "+")
    template = parse_term("U'(A) & S(A)", u)
    out = substitute(u, parse_term("U(x)", u), big_u, ["A"], template)
    assert out == parse_term("U'(x) & S(x)", u)


def test_substitute_symbol_absent(u):
    u.declare("U", "+")
    t = parse_term("x | y", u)
    assert substitute(u, t, "U", ["A"], parse_term("x & A", u)) == t


def test_substitute_variance_mismatch(u):
    u.declare("Arrow", "-+")
    u.declare("V", "+")
    antitone = parse_term("Arrow(A, x)", u)  # A sits in a contravariant slot
    with pytest.raises(VarianceMismatch):
        substitute(u, parse_term("V(x)", u), "V", ["A"], antitone)


def test_substitute_recurses_into_arguments(u):
    f = u.declare("F", "+")
    out = substitute(u, parse_term("F(F(x))", u), f, ["A"], parse_term("A | y", u))
    # innermost first: F(x) -> x | y, then F(x | y) -> (x | y) | y
    assert out == u.join([u.var("x"), u.var("y"), u.var("y")])


def _chain(u, symbol, depth, leaf):
    t = leaf
    for _ in range(depth):
        t = u.app(symbol, [t])
    return t


def test_walks_handle_deep_chains(u):
    f = u.declare("F", "-")
    h = u.declare("H", "-")
    x, y = u.var("x"), u.var("y")
    deep = _chain(u, f, 5000, x)
    assert subst_vars(u, deep, {"x": y}) == _chain(u, f, 5000, y)
    assert substitute(u, deep, f, ["A"], u.app(h, [u.var("A")])) == _chain(u, h, 5000, x)
    assert occurrence_polarities(u, deep, "x") == {"+"}
    assert occurrence_polarities(u, u.app(f, [deep]), "x") == {"-"}


def test_infer_variance(u):
    u.declare("Arrow", "-+")
    assert infer_variance(u, parse_term("A | x", u), "A") is Variance.COVARIANT
    assert infer_variance(u, parse_term("Arrow(A, x)", u), "A") is Variance.CONTRAVARIANT
    assert infer_variance(u, parse_term("A & Arrow(A, x)", u), "A") is Variance.INVARIANT
    assert infer_variance(u, parse_term("x", u), "A") is Variance.COVARIANT  # unused


def test_desugar_appendix_example(u):
    text = "fun S : (+)\nfun T : (+)\ntype U[A] <: S(A) & T(S(A))\n"
    axioms, definitions = parse_source(text, u)
    goal = (parse_term("U(x)", u), parse_term("S(x)", u))
    (gs, gt), pairs, hidden = desugar(u, definitions, goal, axioms.pairs)
    assert gs == parse_term("S(x) & T(S(x)) & U'(x)", u)
    assert gt == parse_term("S(x)", u)
    assert not pairs
    assert hidden == {"U'": "U"}
    assert check(u, gs, gt).provable
    # converse and unrelated bound are not provable
    assert not check(u, gt, gs).provable
    goal2 = desugar(u, definitions, (parse_term("U(x)", u), parse_term("T(x)", u)), [])[0]
    assert not check(u, goal2[0], goal2[1]).provable
    assert not saturates(u, goal2[0], goal2[1])


def test_desugar_empty_is_identity(u):
    goal = (u.var("x"), u.var("y"))
    (gs, gt), pairs, hidden = desugar(u, [], goal, [(u.var("a"), u.var("b"))])
    assert (gs, gt) == goal
    assert pairs == [(u.var("a"), u.var("b"))]
    assert not hidden


def test_desugar_rejects_recursion(u):
    u.declare("S", "+")
    u.declare("W", "+")
    rec = Definition("W", ("A",), parse_term("S(W(A))", u))
    with pytest.raises(RecursiveDefinition):
        desugar(u, [rec], (u.var("x"), u.var("y")), [])
    u.declare("P", "+")
    u.declare("Q", "+")
    forward = [
        Definition("P", ("A",), parse_term("Q(A)", u)),  # mentions a later symbol
        Definition("Q", ("A",), parse_term("S(A)", u)),
    ]
    with pytest.raises(RecursiveDefinition):
        desugar(u, forward, (u.var("x"), u.var("y")), [])


def test_desugar_lower_bound_dual(u):
    u.declare("S", "+")
    _, definitions = parse_source("fun Low : (+)\ntype L[A] :> S(A)\n", u)
    goal = (parse_term("S(x)", u), parse_term("L(x)", u))
    (gs, gt), _, _ = desugar(u, definitions, goal, [])
    assert check(u, gs, gt).provable  # S(x) <= S(x) | L'(x)
    assert not check(u, gt, gs).provable


def test_desugar_chain_of_definitions(u):
    text = (
        "fun S : (+)\n"
        "type T[A] <: S(A)\n"
        "type U[A] <: T(A) & S(A)\n"
    )
    axioms, definitions = parse_source(text, u)
    goal = (parse_term("U(x)", u), parse_term("S(x)", u))
    (gs, gt), pairs, _ = desugar(u, definitions, goal, axioms.pairs)
    assert check(u, gs, gt).provable


def test_desugar_checks_each_template_once(u, monkeypatch):
    import olsub.defs as defs

    text = "fun S : (+)\nfun T : (-)\ntype U[A, B] <: S(A) & T(B)\n"
    _, definitions = parse_source(text, u)
    goal = (parse_term("U(x, y)", u), parse_term("S(x)", u))
    axioms = [
        (parse_term(f"U(x{i}, y)", u), parse_term(f"S(x{i}) | U(y, x{i})", u))
        for i in range(10)
    ]
    calls = []
    real = defs.occurrence_polarities
    monkeypatch.setattr(
        defs, "occurrence_polarities", lambda *args: calls.append(args) or real(*args)
    )
    (gs, _), pairs, _ = desugar(u, definitions, goal, axioms)
    assert len(calls) <= len(definitions[0].params)
    assert gs == parse_term("S(x) & T(y) & U'(x, y)", u)
    assert len(pairs) == 10


def test_equiprovability_against_finite_instantiation(u):
    """Provability under finitely instantiated bound axioms must survive
    desugaring (the instantiated axioms approximate the definition scheme)."""
    rng = random.Random(97)
    text = "fun S : (+)\nfun T : (+)\ntype U[A] <: S(A) & T(S(A))\n"
    _, definitions = parse_source(text, u)
    definition = definitions[0]
    decl = u.symbols["U"]

    checked = 0
    for _ in range(120):
        s = random_term(u, rng, 8, ["x", "y"], [u.symbols["S"], u.symbols["T"], decl])
        t = random_term(u, rng, 8, ["x", "y"], [u.symbols["S"], u.symbols["T"], decl])
        # U[c] <= F[c] for every subterm c of the goal
        instance_axioms = [
            (u.app(decl, [sub]), subst_vars(u, definition.bound, {definition.params[0]: sub}))
            for sub in sorted(u.subterms(s) | u.subterms(t))
        ]
        under_instances = check(u, s, t, instance_axioms).provable
        (gs, gt), pairs, _ = desugar(u, definitions, (s, t), [])
        under_desugar = check(u, gs, gt, pairs).provable
        if under_instances:
            checked += 1
            assert under_desugar
    assert checked >= 3  # the sweep exercised the interesting direction
