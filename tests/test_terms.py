import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from olsub import TermUniverse, Variance, oracle, parse_query, parse_term, print_term
from olsub.errors import (
    ArityMismatch,
    ConflictingDeclaration,
    NotALiteral,
    OlsubError,
    TermIdOverflow,
    UndeclaredSymbol,
    UnknownVariance,
)
from olsub.normalize import delta
from olsub.terms import APP, NEGVAR, NOT, SymbolDecl

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


def test_constructors_refuse_unknown_variances_and_symbols(u):
    # A library caller gets the parser's typed errors, not a bare
    # ValueError or KeyError.
    for variances in ("x", "+x", ["+", "*"]):
        with pytest.raises(UnknownVariance) as caught:
            u.declare("F", variances)
        assert isinstance(caught.value, OlsubError)
    assert "F" not in u.symbols
    with pytest.raises(UndeclaredSymbol):
        u.app("H", [u.var("x")])
    u.declare("H", "o")
    assert u.node(u.app("H", [u.var("x")])).name == "H"


def test_a_declaration_checks_its_arity():
    # A declaration built positionally outside any universe, as perfbench's
    # workloads build theirs, refuses a variance list of another length.
    # (One that fits applies and orders: see test_normalize's
    # `test_order_test_reads_symbols_the_universe_never_declared`.)
    with pytest.raises(ArityMismatch):
        SymbolDecl("F", 2, (Variance.COVARIANT,))
    f = SymbolDecl("F", 1, (Variance.COVARIANT,))
    assert (f.name, f.arity, f.variances, f.dual_of) == ("F", 1, (Variance.COVARIANT,), None)


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


_CONSTRUCTORS = {
    "meet": lambda u, x, m, bad: u.meet([x, bad]),
    "join": lambda u, x, m, bad: u.join([bad, x]),
    "neg": lambda u, x, m, bad: u.neg(bad),
    "app": lambda u, x, m, bad: u.app("F", [bad]),
    "rebuild": lambda u, x, m, bad: u.rebuild(m, [x, bad]),
}


@pytest.mark.parametrize("build", list(_CONSTRUCTORS))
@pytest.mark.parametrize("bad", [10**6, -1])
def test_constructors_refuse_ids_the_universe_does_not_hold(u, build, bad):
    # -1 would name the last interned term, and an id past the end would
    # raise a bare IndexError; neither may leave a node behind.
    u.declare("F", "+")
    x = u.var("x")
    m = u.meet([x, u.var("y")])
    before = len(u)
    with pytest.raises(TermIdOverflow):
        _CONSTRUCTORS[build](u, x, m, bad)
    assert len(u) == before
    if build == "rebuild":
        with pytest.raises(TermIdOverflow):
            u.rebuild(bad, [x])
    if build == "meet":
        with pytest.raises(TermIdOverflow):
            u.meet([bad])


_READERS = {
    "opposite": lambda u, t: u.opposite(t),
    "size": lambda u, t: u.size(t),
    "subterms": lambda u, t: u.subterms(t),
    "plain": lambda u, t: u.plain(t),
    "contains_not": lambda u, t: u.contains_not(t),
}


@pytest.mark.parametrize("read", list(_READERS))
@pytest.mark.parametrize("bad", [10**6, -1])
def test_readers_refuse_ids_the_universe_does_not_hold(u, read, bad):
    # -1 would read the last interned term (and `opposite` would intern its
    # complement); an id past the end would raise a bare IndexError or, for
    # `plain`, answer True. Nothing may be interned.
    u.declare("F", "+")
    x = u.var("x")
    u.app("F", [x])
    before = len(u)
    with pytest.raises(TermIdOverflow):
        _READERS[read](u, bad)
    assert len(u) == before


def test_rebuild_refuses_children_a_kind_does_not_take(u):
    # A leaf takes no children and a NOT exactly one: a typed error, not a
    # bare AttributeError, IndexError or a silently dropped child.
    x, y = u.var("x"), u.var("y")
    leaves = [x, u.negvar("x"), u.top(), u.bot()]
    n = u.neg(x)
    before = len(u)
    for leaf in leaves:
        with pytest.raises(ArityMismatch):
            u.rebuild(leaf, [y])
        assert u.rebuild(leaf, []) == leaf
    for kids in ([], [x, y]):
        with pytest.raises(ArityMismatch):
            u.rebuild(n, kids)
    assert len(u) == before
    assert u.rebuild(n, [y]) == u.neg(y)


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
    for compound in (u.join([x, u.var("y")]), u.meet([x, u.var("y")]), u.neg(x)):
        with pytest.raises(NotALiteral):
            u.opposite(compound)


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


def _intern_together(u, shapes, workers=8, build=_build):
    """The ids each of `workers` threads gets for `shapes`, each read by
    `build(u, shape)`; the threads start together, in the same order, while
    the interpreter switches between them as often as it can."""
    start = threading.Barrier(workers)

    def build_all():
        start.wait(timeout=60)
        return [build(u, shape) for shape in shapes]

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


def _parsing_texts(rng, count):
    """Texts over repeated names and names fresh to each text, with `~`,
    applications and operands that flatten."""
    out = []
    for i in range(count):
        a, b, c = (rng.choice("xyz") for _ in range(3))
        fresh = [f"{name}{i}" for name in ("p", "q")]
        out.append(rng.choice([
            f"{a} & ({b} & {fresh[0]})",
            f"(~{a} | {fresh[0]}) | ({b} | ~~{c})",
            f"F({a} & ~{fresh[1]}) | G({fresh[0]}, {b} | {c})",
            f"~({a} & {b}) & {fresh[0]} & (F({c}) & {fresh[1]})",
            f"G(F({a}), ~{b}) & (top | {fresh[1]}) <= {fresh[0]} | bot",
        ]))
    return out


def test_concurrent_parsing_agrees():
    # Threads reading the same texts into one universe race on every name's
    # miss and on the flattened nodes; each must get the one node of a term.
    def parse(u, text):
        return parse_query(text, u) if "<=" in text else (parse_term(text, u),)

    for seed in range(6):
        texts = _parsing_texts(random.Random(seed), 150)
        u, alone = TermUniverse(), TermUniverse()
        for universe in (u, alone):
            universe.declare("F", "+")
            universe.declare("G", "-+")
        ids = _intern_together(u, texts, build=parse)
        assert all(got == ids[0] for got in ids)
        single = [parse(alone, text) for text in texts]
        assert len(u) == len(alone)
        assert ([[print_term(u, t) for t in got] for got in ids[0]]
                == [[print_term(alone, t) for t in got] for got in single])


def test_a_variable_name_is_a_str(u):
    # A variable is keyed by its name alone; the key of another node, or any
    # name that is not a str, must not read as a variable.
    m = u.meet([u.var("x"), u.var("y")])
    for name in (("meet", None, u.node(m).children), m, None, ("var", "x", ())):
        with pytest.raises(TypeError):
            u.var(name)
    assert u.var("x") == 0 and len(u) == 3


def test_naming_many_variables_takes_memory_in_proportion(u):
    # Each new name gets the next pair of bit positions, not a bit as wide as
    # the names before it, so interning N names costs O(N), not O(N^2).
    text = " & ".join(f"v{i}" for i in range(20000))
    tracemalloc.start()
    try:
        t = parse_term(text, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(u.node(t).children) == 20000 and len(u._var_bits) == 20000
    assert peak < 20e6
