import random

import pytest

from olsub import check, parse_term
from olsub.errors import MissingInterpretation
from olsub.oracle import (
    Interpretation,
    boolean2,
    check_v10,
    enumerate_terms,
    evaluate,
    min_equivalent,
    o6,
    random_interpretation,
    sample_monotone_tables,
    saturate,
    saturates,
)
from olsub.terms import Variance

from helpers import random_term


def test_lattices_verify_at_construction():
    b2 = boolean2()
    assert b2.top == 1 and b2.bot == 0
    hexagon = o6()
    assert hexagon.comp["a"] == "na"


def test_o6_is_not_distributive():
    lat = o6()
    x, y, z = "b", "na", "a"
    lhs = lat.meet[(x, lat.join[(y, z)])]
    rhs = lat.join[(lat.meet[(x, y)], lat.meet[(x, z)])]
    assert lhs == "b" and rhs == "a" and lhs != rhs


def test_o6_distributivity_witness_via_terms(u):
    lat = o6()
    interp = Interpretation({"x": "b", "y": lat.comp["a"], "z": "a"}, {})
    lhs = parse_term("x & (y | z)", u)
    rhs = parse_term("(x & y) | (x & z)", u)
    assert evaluate(u, lhs, lat, interp) != evaluate(u, rhs, lat, interp)


def test_evaluate_examples(u):
    x = u.var("x")
    b2 = boolean2()
    interp = Interpretation({"x": 0}, {})
    assert evaluate(u, u.join([x, u.neg(x)]), b2, interp) == 1
    lat = o6()
    for value in lat.elements:
        got = evaluate(u, u.meet([u.var("a"), u.neg(u.var("a"))]), lat, Interpretation({"a": value}, {}))
        assert got == "0"


def test_evaluate_missing_interpretation(u):
    f = u.declare("F", "+")
    with pytest.raises(MissingInterpretation):
        evaluate(u, u.app(f, [u.var("x")]), boolean2(), Interpretation({"x": 0}, {}))
    with pytest.raises(MissingInterpretation):
        evaluate(u, u.var("q"), boolean2(), Interpretation({}, {}))


def test_evaluate_deep_terms_without_recursion(u):
    f = u.declare("F", "+")
    apps = nots = u.var("x")
    for _ in range(5000):
        apps = u.app(f, [apps])
        nots = u.neg(nots)
    interp = Interpretation({"x": 0}, {"F": {(0,): 1, (1,): 0}})
    assert evaluate(u, apps, boolean2(), interp) == 0  # an even number of flips
    assert evaluate(u, nots, boolean2(), interp) == 0


def test_evaluate_dual_symbol_is_complement(u):
    f = u.declare("F", "+")
    b2 = boolean2()
    interp = Interpretation({"x": 1}, {"F": {(0,): 0, (1,): 1}})
    app = u.app(f, [u.var("x")])
    dual = u.app(u.dual(f), [u.var("x")])
    assert evaluate(u, dual, b2, interp) == b2.comp[evaluate(u, app, b2, interp)]


def test_check_v10_examples():
    b2 = boolean2()
    identity = {(0,): 0, (1,): 1}
    const_top = {(0,): 1, (1,): 1}
    complement = {(0,): 1, (1,): 0}
    assert check_v10(b2, (Variance.COVARIANT,), identity)
    for v in Variance:
        assert check_v10(b2, (v,), const_top)
    assert not check_v10(b2, (Variance.COVARIANT,), complement)  # antitone
    assert check_v10(b2, (Variance.CONTRAVARIANT,), complement)


def test_sampled_tables_respect_variance(u):
    g = u.declare("G", "-+")
    lat = o6()
    for seed in range(5):
        table = sample_monotone_tables(lat, g, seed)
        assert check_v10(lat, g.variances, table)


def test_enumerate_smallest(u):
    assert set(enumerate_terms(u, ["x"], [], 1)) == {u.var("x"), u.top(), u.bot()}
    with_neg = list(enumerate_terms(u, ["x"], [], 2, negation="not"))
    assert u.neg(u.var("x")) in with_neg
    assert len(with_neg) == 6


def test_enumerate_counts_golden(u):
    # frozen counts; the enumeration is its own oracle
    assert len(list(enumerate_terms(u, ["x", "y"], [], 3))) == 36
    f = u.declare("F", "+")
    assert len(list(enumerate_terms(u, ["x", "y"], [f], 7))) == 15612
    assert len(list(enumerate_terms(u, ["x", "y"], [], 6, negation="literals"))) == 1374


def test_enumerate_unique_and_size_bounded(u):
    f = u.declare("F", "+")
    seen = list(enumerate_terms(u, ["x", "y"], [f], 5))
    assert len(seen) == len(set(seen))
    assert all(u.size(t) <= 5 for t in seen)


def test_saturate_examples(u):
    x, y = u.var("x"), u.var("y")
    sats = saturate(u, [x])
    assert ((x, "L"), (x, "R")) in sats
    assert not saturates(u, x, y)
    a, b, c = u.var("A"), u.var("B"), u.var("C")
    assert saturates(u, a, c, [(a, b), (b, c)])
    assert not saturates(u, c, a, [(a, b), (b, c)])


def test_saturate_agrees_with_check(u):
    rng = random.Random(71)
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    for _ in range(120):
        s = random_term(u, rng, 9, ["x", "y", "z"], [f, g])
        t = random_term(u, rng, 9, ["x", "y", "z"], [f, g])
        axioms = [
            (random_term(u, rng, 4, ["x", "y"]), random_term(u, rng, 4, ["x", "y"]))
            for _ in range(rng.randint(0, 2))
        ]
        assert saturates(u, s, t, axioms) == check(u, s, t, axioms).provable


def test_soundness_in_models(u):
    rng = random.Random(73)
    f = u.declare("F", "+")
    models = []
    for seed in range(6):
        lat = o6() if seed % 2 else boolean2()
        models.append((lat, random_interpretation(u, lat, ["x", "y"], [f], seed)))
    for _ in range(120):
        s = random_term(u, rng, 8, ["x", "y"], [f])
        t = random_term(u, rng, 8, ["x", "y"], [f])
        if not check(u, s, t).provable:
            continue
        for lat, interp in models:
            assert lat.leq[(evaluate(u, s, lat, interp), evaluate(u, t, lat, interp))]


def test_min_equivalent_examples(u):
    x = u.var("x")
    pool = list(enumerate_terms(u, ["x", "y"], [], 3))
    assert min_equivalent(u, u.join([x, x]), pool) == x
    assert min_equivalent(u, x, pool) == x
    target = parse_term("~(x | y)", u)
    extended = list(enumerate_terms(u, ["x", "y"], [], 4, negation="literals"))
    best = min_equivalent(u, target, extended)
    assert u.size(best) == 3
    assert best == u.meet([u.negvar("x"), u.negvar("y")])
