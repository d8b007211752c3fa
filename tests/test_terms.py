import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from olsub import TermUniverse, Variance, oracle
from olsub.errors import ArityMismatch, ConflictingDeclaration
from olsub.normalize import delta
from olsub.terms import APP, NEGVAR, NOT

from helpers import random_term


def test_declare_and_redeclare(u):
    arrow = u.declare("Arrow", "-+")
    assert arrow.arity == 2
    assert arrow.variances == (Variance.CONTRAVARIANT, Variance.COVARIANT)
    p = u.declare("P", "++")
    assert p.variances == (Variance.COVARIANT, Variance.COVARIANT)
    assert u.declare("Arrow", "-+") is arrow  # idempotent
    with pytest.raises(ConflictingDeclaration):
        u.declare("Arrow", "++")


def test_dual_names_cannot_be_declared(u):
    with pytest.raises(ConflictingDeclaration):
        u.declare("~F", "+")  # "~F" names the dual of F
    assert "~F" not in u.symbols


def test_interning_laws(u):
    x, y = u.var("x"), u.var("y")
    assert u.meet([x, y]) == u.meet([x, y])
    assert u.meet([x, y]) != u.meet([y, x])  # structural, not semantic, equality
    arrow = u.declare("Arrow", "-+")
    with pytest.raises(ArityMismatch):
        u.app(arrow, [x])


def test_flattening(u):
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    nested = u.meet([x, u.meet([y, z])])
    assert u.node(nested).children == (x, y, z)
    assert nested == u.meet([x, y, z])
    # singleton and empty collapse
    assert u.meet([x]) == x
    assert u.meet([]) == u.top()
    assert u.join([]) == u.bot()


def test_size_convention(u):
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    assert u.size(x) == 1
    assert u.size(u.meet([x, y, z])) == 5  # two binary meets plus three leaves
    assert u.size(u.neg(u.join([x, y]))) == 4
    assert u.size(u.negvar("x")) == 1
    arrow = u.declare("Arrow", "-+")
    dual = u.dual(arrow)
    assert u.size(u.app(dual, [x, y])) == u.size(u.app(arrow, [x, y])) == 3


def test_subterms(u):
    x, y = u.var("x"), u.var("y")
    assert u.subterms(x) == {x}
    j = u.join([x, y])
    m = u.meet([x, j])
    assert u.subterms(m) == {x, y, j, m}
    arrow = u.declare("Arrow", "-+")
    shared = u.app(arrow, [x, x])
    assert u.subterms(shared) == {x, shared}  # DAG sharing counts once


def test_subterm_closure_property(u):
    rng = random.Random(5)
    f = u.declare("F", "+")
    for _ in range(50):
        t = random_term(u, rng, 10, ["x", "y", "z"], [f])
        subs = u.subterms(t)
        assert len(subs) <= u.size(t)
        for s in subs:
            assert u.subterms(s) <= subs


def test_dual_symbols(u):
    arrow = u.declare("Arrow", "-+")
    dual = u.dual(arrow)
    assert dual.variances == (Variance.COVARIANT, Variance.CONTRAVARIANT)
    assert dual.dual_of == "Arrow"
    assert u.dual(dual) is arrow
    p = u.declare("P", "++")
    assert u.dual(p).variances == (Variance.CONTRAVARIANT, Variance.CONTRAVARIANT)
    inv = u.declare("Inv", "o")
    assert u.dual(inv).variances == (Variance.INVARIANT,)


@pytest.mark.parametrize("negation", ["not", "literals"])
def test_plainness_is_recorded_at_interning(u, negation):
    f, g = u.declare("F", "+"), u.declare("G", "-+")
    plain: dict[int, bool] = {}

    def fold(t):  # no NOT, negated variable or dual symbol anywhere in t
        if t not in plain:
            n = u.node(t)
            own = n.kind in (NOT, NEGVAR) or (n.kind == APP and n.symbol.dual_of is not None)
            plain[t] = not own and all(fold(c) for c in n.children)
        return plain[t]

    for t in oracle.enumerate_terms(u, ["x", "y"], [f, u.dual(g)], 5, negation=negation):
        assert u.plain(t) == fold(t), t
    assert 0 < sum(plain.values()) < len(plain)


def test_opposite_is_the_complement_of_a_literal(u):
    f, c = u.declare("F", "+-"), u.declare("C", "")
    x = u.var("x")
    literals = [x, u.negvar("x"), u.top(), u.bot(), u.app(c, []),
                u.app(f, [x, u.meet([x, u.negvar("y")])]), u.app(u.dual(f), [x, x])]
    for lit in literals:
        assert u.opposite(lit) != lit
        assert u.opposite(u.opposite(lit)) == lit
        assert u.opposite(lit) == delta(u, u.neg(lit))
    with pytest.raises(KeyError):
        u.opposite(u.join([x, u.var("y")]))


def test_variance_flip_involution():
    for v in Variance:
        assert v.flip().flip() is v


def test_interning_random_structures(u):
    rng1, rng2 = random.Random(99), random.Random(99)
    f = u.declare("F", "+")
    for _ in range(40):
        a = random_term(u, rng1, 9, ["x", "y"], [f])
        b = random_term(u, rng2, 9, ["x", "y"], [f])
        assert a == b  # same construction sequence interns to the same id


def _shape(rng, depth, parent=None):
    """A nested-tuple term in which no meet is a meet's child and no join a
    join's, so no flattening happens and distinct shapes are distinct nodes."""
    kinds = ["var"] if depth == 0 else ["var", "not", "meet", "join", "F", "G"]
    kind = rng.choice([k for k in kinds if k != parent])
    if kind == "var":
        return kind, rng.choice("xyz")
    if kind == "not":
        return kind, _shape(rng, depth - 1)
    if kind in ("F", "G"):
        return kind, tuple(_shape(rng, depth - 1) for _ in range(1 if kind == "F" else 2))
    return kind, tuple(_shape(rng, depth - 1, kind) for _ in range(rng.randint(2, 3)))


def _build(u, shape):
    """Intern `shape` bottom up, reading back each node as soon as its id is known."""
    kind, rest = shape
    if kind == "var":
        t = u.var(rest)
    elif kind == "not":
        t = u.neg(_build(u, rest))
    else:
        kids = [_build(u, c) for c in rest]
        t = u.meet(kids) if kind == "meet" else u.join(kids) if kind == "join" else u.app(kind, kids)
    assert u.node(t).kind == (kind if kind in ("var", "not", "meet", "join") else "app")
    return t


def _subshapes(shape, into):
    into.add(shape)
    kind, rest = shape
    for child in ((rest,) if kind == "not" else () if kind == "var" else rest):
        _subshapes(child, into)


def _intern_together(u, shapes, workers=8):
    """The ids each of `workers` threads gets for `shapes`; the threads start
    together, in the same order, while the interpreter switches between them
    as often as it can."""
    start = threading.Barrier(workers)

    def build_all():
        start.wait(timeout=60)
        return [_build(u, shape) for shape in shapes]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(build_all) for _ in range(workers)]
            return [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_interning_agrees():
    # One round catches a lost re-check or an id published before its node
    # only most of the time, so the test runs several.
    for seed in range(6):
        u = TermUniverse()
        u.declare("F", "+")
        u.declare("G", "-+")
        rng = random.Random(seed)
        shapes = [_shape(rng, 7) for _ in range(300)]
        ids = _intern_together(u, shapes)
        assert all(got == ids[0] for got in ids)
        distinct = set()
        for shape in shapes:
            _subshapes(shape, distinct)
        assert len(u) == len(distinct)
        assert len(set(ids[0])) == len(set(shapes))
        # what interning records of a node is there once its id is
        for shape, t in zip(shapes, ids[0]):
            parts = set()
            _subshapes(shape, parts)
            holds_not = any(kind == "not" for kind, _ in parts)
            assert u.contains_not(t) == holds_not and u.plain(t) == (not holds_not)
