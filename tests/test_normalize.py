import concurrent.futures
import gc
import random
import sys
import weakref

import pytest

from olsub import Engine, TermUniverse, check, normalize, oracle, parse_term, print_term
from olsub.errors import NegationPresent
from olsub.terms import APP, BOT, JOIN, MEET, NEGVAR, TOP, VAR
from olsub.normalize import (
    _context,
    _structural_key,
    beta,
    beta_open,
    can_collapse,
    delta,
    eta,
    normalize_bl,
    normalize_ol,
    zeta,
)

from helpers import law_chain, opaque, random_pnnf, random_term


def test_delta_de_morgan(u):
    assert delta(u, parse_term("~(x & y)", u)) == u.join([u.negvar("x"), u.negvar("y")])
    assert delta(u, parse_term("~(x | y)", u)) == u.meet([u.negvar("x"), u.negvar("y")])


def test_delta_double_negation(u):
    assert delta(u, parse_term("~~x", u)) == u.var("x")


def test_delta_dual_symbols(u):
    arrow = u.declare("Arrow", "-+")
    t = parse_term("~Arrow(x, y | y)", u)
    assert delta(u, t) == u.app(u.dual(arrow), [u.var("x"), u.join([u.var("y"), u.var("y")])])


def test_delta_bounds(u):
    assert delta(u, u.neg(u.top())) == u.bot()
    assert delta(u, u.neg(u.bot())) == u.top()


def test_nullary_symbols_are_complemented_by_their_duals(u):
    c = u.declare("Int", "")
    app, dual = u.app(c, []), u.app(u.dual(c), [])
    x = u.var("x")
    assert delta(u, parse_term("~Int()", u)) == dual
    assert (delta(u, app), delta(u, app, 1)) == (app, dual)
    assert delta(u, u.join([u.neg(app), x])) == u.join([dual, x])
    assert normalize_ol(u, parse_term("~Int()", u)).term == dual
    assert normalize_ol(u, u.meet([app, x])).term == u.meet([x, app])  # sorted
    assert beta(u, u.meet([app, x])) == u.meet([x, app])
    assert normalize_ol(u, parse_term("Int() & ~Int()", u)).term == u.bot()
    assert not check(u, u.meet([app, x]), u.bot()).provable
    assert not check(u, u.top(), u.neg(app)).provable
    assert check(u, u.meet([app, u.neg(app)]), u.bot()).provable


def test_nullary_symbols_normalize_as_saturation_decides(u):
    c = u.declare("Int", "")
    f = u.declare("F", "+")
    terms = list(oracle.enumerate_terms(u, ["x"], [c, f], 4, negation="not"))
    assert len(terms) > 100
    for t in terms:
        n = normalize_ol(u, t).term
        for a, b in ((t, n), (n, t), (t, u.bot()), (u.top(), t)):
            assert check(u, a, b).provable == oracle.saturates(u, a, b), print_term(u, t)


def test_delta_idempotent_and_equivalent(u):
    rng = random.Random(3)
    f = u.declare("F", "+")
    engine = Engine(u)
    for _ in range(80):
        t = random_term(u, rng, 10, ["x", "y", "z"], [f])
        d = delta(u, t)
        assert delta(u, d) == d
        assert engine.query(t, d) and engine.query(d, t)


def test_beta_complement_pairs(u):
    x, y = u.var("x"), u.var("y")
    assert beta(u, u.join([x, u.negvar("x")])) == u.top()
    assert beta(u, u.meet([x, u.negvar("x")])) == u.bot()
    kept = beta(u, u.join([x, y]))
    assert kept == u.join([x, y])


def test_beta_handles_bounds(u):
    x = u.var("x")
    assert beta(u, u.join([x, u.top()])) == u.top()
    assert beta(u, u.meet([x, u.bot()])) == u.bot()
    assert beta(u, u.join([x, u.bot()])) == u.join([u.bot(), x])  # eta's job


def test_beta_dual_complement(u):
    arrow = u.declare("Arrow", "-+")
    app = parse_term("Arrow(x, y)", u)
    dual = u.app(u.dual(arrow), [u.var("x"), u.var("y")])
    assert beta(u, u.meet([dual, app])) == u.bot()
    assert beta(u, u.join([dual, app])) == u.top()


def test_can_collapse_finds_complements_and_bounds(u):
    u.declare("F", "+")
    u.declare("G", "-+")
    for text in ("x | ~x", "F(x) | ~F(y)", "x & top", "G(x | ~y, y)", "~G(x, y) & F(G(y, x))"):
        assert can_collapse(u, delta(u, parse_term(text, u))), text
    for text in ("x | y", "~x & (~y | F(z))", "F(x) | G(F(y), x)", "~F(x) & ~F(~y | x)"):
        assert not can_collapse(u, delta(u, parse_term(text, u))), text
    with pytest.raises(NegationPresent):
        can_collapse(u, parse_term("x | ~(y & z)", u))


def _signed_atom_walk(u, t) -> bool:
    """Whether `t` holds a bound, or an atom under both signs (a variable as
    VAR and as NEGVAR, a symbol and its dual), found by a walk over its
    subterms that keys each atom by (VAR or APP, base name)."""
    signs = {}
    for s in u.subterms(t):
        n = u.node(s)
        if n.kind in (TOP, BOT):
            return True
        if n.kind in (VAR, NEGVAR):
            key, positive = (VAR, n.name), n.kind == VAR
        elif n.kind == APP:
            base = n.symbol.dual_of
            key, positive = (APP, base or n.name), base is None
        else:
            continue
        if signs.setdefault(key, positive) != positive:
            return True
    return False


def test_can_collapse_agrees_with_a_signed_atom_walk(u):
    # the atoms mask of the order test against an independent walk, on terms
    # with bounds, negated variables, duals and atoms nested in applications
    rng = random.Random(89)
    symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]
    variables = [f"v{i}" for i in range(8)]
    hits = 0
    for _ in range(3000):
        t = random_pnnf(u, rng, rng.randint(1, 24), variables, symbols)
        expected = _signed_atom_walk(u, t)
        assert can_collapse(u, t) == expected, print_term(u, t)
        hits += expected
    assert 300 <= hits <= 2700  # both verdicts are exercised


def test_beta_keeps_the_size_where_nothing_can_collapse(u):
    # the lemma in `beta`: no bound and no atom with its complement means no
    # collapse, and beta never grows a term, so the size is unchanged
    rng = random.Random(83)
    symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]
    variables = [f"v{i}" for i in range(8)]
    kept = collapsed = 0
    for _ in range(3000):
        t = random_pnnf(u, rng, rng.randint(3, 24), variables, symbols)
        b = beta(u, t)
        if not can_collapse(u, t):
            kept += 1
            assert u.size(b) == u.size(t), print_term(u, t)
        else:
            collapsed += u.size(b) < u.size(t)
    assert kept >= 200 and collapsed >= 200  # both sides of the check are exercised


def test_zeta_promotes_conjuncts(u):
    x, z = u.var("x"), u.var("z")
    t = parse_term("(x & y) | x | z", u)
    assert zeta(u, t) == u.join([x, x, z])
    assert zeta(u, parse_term("x | y", u)) == parse_term("x | y", u)


def test_zeta_inside_arguments(u):
    f = u.declare("F", "+")
    x = u.var("x")
    t = parse_term("F(x | (x & y))", u)
    assert zeta(u, t) == u.app(f, [u.join([x, x])])


def test_zeta_dual_direction(u):
    x = u.var("x")
    t = parse_term("x & (x | y)", u)
    assert zeta(u, t) == u.meet([x, x])


def test_eta_absorption_and_bounds(u):
    x = u.var("x")
    assert eta(u, parse_term("x | (x & y)", u)) == x
    assert eta(u, parse_term("x | bot", u)) == x
    assert eta(u, parse_term("x | top", u)) == u.top()
    assert eta(u, parse_term("x & top", u)) == x
    assert eta(u, parse_term("x & bot", u)) == u.bot()


def test_normalize_bl_examples(u):
    p = u.declare("P", "++")
    assert normalize_bl(u, parse_term("x & (x | y)", u)).term == u.var("x")
    assert normalize_bl(u, parse_term("P(x | x, y)", u)).term == parse_term("P(x, y)", u)
    commuted = normalize_bl(u, parse_term("(x & y) | (y & x)", u)).term
    assert commuted == u.meet([u.var("x"), u.var("y")])


def test_normalize_bl_rejects_negation(u):
    with pytest.raises(NegationPresent):
        normalize_bl(u, parse_term("~x | x", u))


@pytest.mark.parametrize("entry", [beta, beta_open, zeta, eta])
def test_pseudo_negation_normal_passes_reject_negation(u, entry):
    # a Not at the top or deep inside is refused at entry
    u.declare("F", "-+")
    for text in ("~(x & y)", "x | F(y, z & ~(x | y))"):
        with pytest.raises(NegationPresent, match="pseudo-negation-normal"):
            entry(u, parse_term(text, u))


def test_normalize_ol_examples(u):
    u.declare("Arrow", "-+")
    assert normalize_ol(u, parse_term("~~x | x", u)).term == u.var("x")
    assert normalize_ol(u, parse_term("~(x & y) | x", u)).term == u.top()
    assert normalize_ol(u, parse_term("~Arrow(x, y) & Arrow(x, y)", u)).term == u.bot()
    assert normalize_ol(u, parse_term("x | ~x", u)).term == u.top()


def test_normalize_preserves_equivalence(u):
    rng = random.Random(13)
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    engine = Engine(u)
    for _ in range(120):
        t = random_term(u, rng, 11, ["x", "y", "z"], [f, g])
        n = normalize_ol(u, t).term
        assert normalize_ol(u, n).term == n  # idempotent
        assert engine.query(t, n) and engine.query(n, t)


def test_normalize_never_enlarges_pnnf_image(u):
    rng = random.Random(23)
    f = u.declare("F", "+")
    for _ in range(300):
        t = random_term(u, rng, 12, ["x", "y", "z"], [f])
        assert u.size(normalize_ol(u, t).term) <= u.size(delta(u, t))


def test_canonicity_on_law_chains(u):
    rng = random.Random(37)
    for _ in range(60):
        seed = random_term(u, rng, rng.randint(2, 9), ["x", "y", "z"])
        chain = law_chain(u, rng, seed, ["x", "y", "z"], rng.randint(1, 10))
        forms = {normalize_ol(u, m).term for m in chain}
        assert len(forms) == 1


def test_law_chain_members_stay_equivalent(u):
    # guard for the rewrite helper itself
    rng = random.Random(43)
    engine = Engine(u)
    for _ in range(25):
        seed = random_term(u, rng, rng.randint(2, 8), ["x", "y"])
        for member in law_chain(u, rng, seed, ["x", "y"], 6)[1:]:
            assert engine.query(seed, member) and engine.query(member, seed)


def test_beta_image_top_bottom_coincidence(u):
    rng = random.Random(53)
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    ol, bl = Engine(u), Engine(u)  # bl queries opaque copies
    top, bot = u.top(), u.bot()
    for _ in range(200):
        t = beta(u, random_pnnf(u, rng, 10, ["x", "y", "z"], [f, g]))
        [c] = opaque(u, t)
        assert ol.query(top, t) == bl.query(top, c)
        assert ol.query(t, bot) == bl.query(c, bot)


def test_beta_image_pairwise_engine_agreement(u):
    # on reduced terms the negation rules are never needed, so the full
    # rules and the bounded-lattice rules (the engine on opaque copies)
    # prove exactly the same inequalities
    rng = random.Random(59)
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    ol, bl = Engine(u), Engine(u)
    for _ in range(250):
        s = beta(u, random_pnnf(u, rng, 12, ["x", "y", "z"], [f, g]))
        t = beta(u, random_pnnf(u, rng, 12, ["x", "y", "z"], [f, g]))
        assert ol.query(s, t) == bl.query(*opaque(u, s, t))


def test_normalized_children_are_canonically_ordered(u):
    t = normalize_ol(u, parse_term("(y | x) & (x | y)", u)).term
    assert print_term(u, t) == "x | y"


def test_concurrent_normalization(u):
    import concurrent.futures

    rng = random.Random(67)
    pool = [random_term(u, rng, 10, ["x", "y", "z"]) for _ in range(60)]
    expected = [normalize_ol(u, t).term for t in pool]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as executor:
        got = list(executor.map(lambda t: normalize_ol(u, t).term, pool))
    assert got == expected


def test_minimality_small_sweep(u):
    f = u.declare("F", "+")
    terms = sorted(
        oracle.enumerate_terms(u, ["x", "y"], [f], 5, negation="none"),
        key=lambda t: (u.size(t), t),
    )
    b2 = oracle.boolean2()
    models = [
        (b2, oracle.random_interpretation(u, b2, ["x", "y"], [f], seed))
        for seed in range(4)
    ]
    classes = oracle.partition_terms(u, terms, models=models)
    class_of = {t: cls for cls in classes for t in cls}
    for t in terms:
        assert u.size(normalize_bl(u, t).term) == u.size(class_of[t][0])


@pytest.mark.parametrize(
    "variables, symbols, negation, max_size",
    [
        (["x", "y"], ["F", "G", "H"], "none", 4),
        (["x"], ["G"], "none", 5),
        (["x"], ["H"], "none", 5),
        (["x"], ["F"], "none", 5),
        # negated variables and dual symbols are opaque atoms
        (["x"], ["H", "~G"], "literals", 4),
    ],
)
def test_order_test_matches_bounded_lattice_engine(u, variables, symbols, negation, max_size):
    u.declare("F", "+")
    u.declare("G", "-+")
    u.declare("H", "o")
    decls = [u.dual(u.symbols[s[1:]]) if s.startswith("~") else u.symbols[s] for s in symbols]
    terms = list(oracle.enumerate_terms(u, variables, decls, max_size, negation=negation))
    ctx = _context(u)
    engine = Engine(u)  # on opaque copies: the bounded-lattice rules alone
    copy = dict(zip(terms, opaque(u, *terms)))
    for s in terms:
        for t in terms:
            assert ctx.leq(s, t) == engine.query(copy[s], copy[t]), (
                print_term(u, s), print_term(u, t))


def test_order_test_rejects_negation(u):
    # a Not anywhere on either side is refused, even where no rule of the
    # search would reach it
    for query in ("~x <= x", "x <= x | ~y", "x & ~y <= x"):
        s, t = (parse_term(side, u) for side in query.split("<="))
        with pytest.raises(NegationPresent):
            _context(u).leq(s, t)


def test_order_test_masks_wider_than_a_machine_word(u):
    xs = [u.var(f"x{i}") for i in range(5000)]
    x, y, top, bot = xs[4321], u.var("y"), u.top(), u.bot()
    wide_meet, wide_join = u.meet(xs), u.join(xs)
    cases = [
        (wide_meet, x, True), (x, wide_meet, False),
        (wide_join, x, False), (x, wide_join, True),
        (top, wide_meet, False), (wide_join, bot, False),
    ]
    for wide in (wide_meet, wide_join):
        cases += [(wide, y, False), (y, wide, False), (wide, top, True), (bot, wide, True)]
    ctx = _context(u)
    for s, t, want in cases:
        assert ctx.leq(s, t) is want, (print_term(u, s)[:20], print_term(u, t)[:20])
        assert check(u, s, t).provable is want


def test_order_test_is_not_recursive(u):
    f = u.declare("F", "+")
    s, t = u.var("x"), u.join([u.var("x"), u.var("y")])
    for _ in range(5000):
        s, t = u.app(f, [s]), u.app(f, [t])
    assert _context(u).leq(s, t) is True
    assert _context(u).leq(t, s) is False


def test_threads_sharing_a_universe_agree_on_literal_bits():
    # Each query folds fresh literals, so threads hand out bits at once.
    def queries(u):
        xs = [u.var(f"x{i}") for i in range(2000)]
        return [(u.meet(xs[i : i + 3]), u.join([xs[(7 * i) % 2000], xs[(11 * i + 5) % 2000]]))
                for i in range(1998)]

    reference = TermUniverse()
    want = [_context(reference).leq(s, t) for s, t in queries(reference)]
    assert 0 < sum(want) < len(want)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            u = TermUniverse()
            pairs, ctx = queries(u), _context(u)
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda st: ctx.leq(*st), pairs, timeout=60))
            assert got == want
            assert len(set(ctx._bits.values())) == len(ctx._bits) == 2000
    finally:
        sys.setswitchinterval(switch)


def _top_level_heads(u, t):
    """The literals, symbol names and bounds `t` reaches through meets and
    joins alone."""
    out, todo = set(), [t]
    while todo:
        node = u.node(todo.pop())
        if node.kind in (MEET, JOIN):
            todo.extend(node.children)
        else:
            out.add(node.name if node.kind == APP else (node.kind, node.name))
    return out


def test_goals_sharing_no_head_are_refuted_without_search():
    # Whitman's condition: s <= t needs an atom, symbol or bound the two
    # sides share at top level, unless s reaches bottom or t reaches top.
    # Such a goal is one AND of head masks: one goal and one alternative,
    # no subgoal lookup.
    fired = 0
    for seed in range(3):
        rng = random.Random(seed)
        u = TermUniverse()
        symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]
        terms = list(dict.fromkeys(
            random_pnnf(u, rng, rng.randint(10, 30), ["x", "y", "z"], symbols)
            for _ in range(90)))
        assert any(u.node(t).kind == APP and u.node(t).symbol.dual_of for t in terms)
        ctx, engine = _context(u), Engine(u)
        copy = dict(zip(terms, opaque(u, *terms)))
        for s in terms:
            for t in terms:
                tally = [0, 0, 0, 0]
                got = ctx.leq(s, t, tally)
                assert got == engine.query(copy[s], copy[t]), (print_term(u, s), print_term(u, t))
                hs, ht = _top_level_heads(u, s), _top_level_heads(u, t)
                literal = {u.node(s).kind, u.node(t).kind} & {VAR, NEGVAR}
                if not (literal or hs & ht or ("bot", None) in hs or ("top", None) in ht):
                    assert not got
                    assert tally == [1, 1, 0, 0], (print_term(u, s), print_term(u, t))
                    fired += 1
    assert fired > 4000


def test_threads_sharing_a_universe_agree_on_head_bits():
    # Each query folds fresh symbols and literals, so threads hand out head
    # bits at once; no two symbols or literals may share one.
    def queries(u):
        fs = [u.declare(f"F{i}", "+") for i in range(600)]
        x, y = u.var("x"), u.var("y")
        return [(u.meet([u.app(fs[i], [x]), u.app(fs[i + 1], [y])]),
                 u.join([u.app(fs[(7 * i) % 600], [x]), u.app(fs[(11 * i + 5) % 600], [y])]))
                for i in range(599)]

    reference = TermUniverse()
    want = [_context(reference).leq(s, t) for s, t in queries(reference)]
    assert 0 < sum(want) < len(want)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            u = TermUniverse()
            pairs, ctx = queries(u), _context(u)
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda st: ctx.leq(*st), pairs, timeout=60))
            assert got == want
            bits = list(ctx._bits.values()) + list(ctx._heads.values())
            assert len(ctx._heads) == 600 and len(ctx._bits) == 2
            assert len(set(bits)) == len(bits)
    finally:
        sys.setswitchinterval(switch)


def test_delta_interns_only_its_image(u):
    # The complement of a Not-free subterm is built only where the image
    # holds it: here, of `c` alone.
    rng = random.Random(5)
    symbols = [u.declare("F", "+"), u.declare("G", "-+")]
    big = u.meet([random_term(u, rng, 200, ["x", "y", "z"], symbols, allow_not=False)
                  for _ in range(3)])
    c = u.join([u.var("x"), u.app(symbols[0], [u.var("y")])])
    t = u.meet([big, u.neg(c)])
    before = len(u)
    image = delta(u, t)
    assert set(range(before, len(u))) <= u.subterms(image)
    assert image == u.meet(list(u.node(big).children) + [u.negvar("x"),
                                                        u.app(u.dual(symbols[0]), [u.var("y")])])


def test_delta_returns_a_not_free_term_without_a_walk(u, monkeypatch):
    # A Not-free term is delta's image of itself: no node is interned or
    # looked up, and the walk memoizes nothing.
    t = u.meet([u.var(f"x{i}") for i in range(200)])
    f = u.declare("F", "+")
    s = u.join([t, u.negvar("y"), u.app(u.dual(f), [u.var("z")])])
    delta(u, u.var("w"))  # the universe's context exists already
    memos = normalize._context(u).rewrites
    before = (len(u), sum(len(m) for m in memos.values()))
    calls = []

    def counting(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("_intern", "meet", "join", "app", "rebuild"):
        monkeypatch.setattr(u, name, counting(name, getattr(u, name)))
    assert delta(u, t) == t and delta(u, s) == s
    assert calls == []
    assert (len(u), sum(len(m) for m in memos.values())) == before
    assert u.contains_not(u.meet([t, u.neg(u.var("x0"))]))
    assert not u.contains_not(t)


def test_walk_splices_operands_through_negations(u):
    # A meet gathers a complemented join's children, and a doubly negated
    # meet's, as the flat node of delta's image; so does the normal form.
    x, y, z, w = (u.var(n) for n in "xyzw")
    t = parse_term("x & ~(y | ~(z & ~~(w & y)))", u)
    flat = u.meet([x, u.negvar("y"), z, w, y])
    assert delta(u, t) == flat
    assert (delta(u, u.neg(t)), delta(u, u.neg(t), 1)) == (
        u.join([u.negvar("x"), y, u.negvar("z"), u.negvar("w"), u.negvar("y")]), flat)
    assert normalize_ol(u, t).term == u.bot()


def test_alternating_negations_and_applications_do_not_recurse(u):
    f = u.declare("F", "+")
    x = u.var("x")
    t = x
    for _ in range(5000):
        t = u.neg(u.app(f, [t]))
    image, complement = delta(u, t), delta(u, t, 1)
    assert delta(u, t) == image
    assert normalize_ol(u, t).term == image
    dual = u.dual(f)
    for top, symbol in ((image, dual), (complement, f)):
        node, depth = u.node(top), 0
        while node.kind == APP:
            assert node.symbol == (symbol if depth == 0 else dual)
            node, depth = u.node(node.children[0]), depth + 1
        assert (depth, node.kind) == (5000, VAR)


def test_normalizer_caches_die_with_their_universe():
    universe = TermUniverse()
    normalize_ol(universe, parse_term("(x & ~y) | (x | y)", universe))
    ref = weakref.ref(universe)
    del universe
    gc.collect()
    assert ref() is None


def _chain(u, depth, leaf):
    f = u.declare("F", "+")
    t = u.var(leaf)
    for _ in range(depth):
        t = u.app(f, [t])
    return t


@pytest.mark.parametrize("entry", [delta, beta, zeta, eta, normalize_bl, normalize_ol])
def test_deep_chains_normalize_without_recursion(u, entry):
    t = _chain(u, 5000, "x")
    out = entry(u, t)
    assert (out if entry in (delta, beta, zeta, eta) else out.term) == t


@pytest.mark.parametrize("entry", [beta, zeta, eta, normalize_bl, normalize_ol])
def test_deep_siblings_normalize_without_recursion(u, entry):
    # Sorting the join compares siblings that first differ 2000 levels down.
    x, y = _chain(u, 2000, "x"), _chain(u, 2000, "y")
    t = u.join([x, y])
    for given in (t, u.join([y, x])):
        out = entry(u, given)
        assert (out if entry in (beta, zeta, eta) else out.term) == t


def _nested_key(u, t):
    """The structural order as nested tuples compared in C, as children were
    sorted before the comparison became a loop; fine for shallow terms."""
    node = u.node(t)
    rank = ["bot", "top", "var", "negvar", "app", "not", "meet", "join"].index(node.kind)
    head = (rank,) if node.name is None else (rank, node.name)
    return head + tuple(_nested_key(u, c) for c in node.children)


def test_structural_order_is_the_nested_key_order(u):
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    terms = list(oracle.enumerate_terms(u, ["x", "y"], [f, g, u.dual(f)], 5, negation="not"))
    assert len(terms) == 4580
    ours = sorted(terms, key=_structural_key(u))
    assert ours == sorted(terms, key=lambda t: _nested_key(u, t))


def test_deep_siblings_are_checked_both_ways(u):
    x, y = _chain(u, 2000, "x"), _chain(u, 2000, "y")
    both = u.join([x, y])
    assert check(u, x, both).provable
    assert not check(u, both, x).provable  # phase two sorts the deep siblings
    engine = Engine(u)
    assert engine.query(x, both) and not engine.query(both, x)


def test_beta_of_a_wide_meet_of_literals_is_linear(u):
    xs = [u.var(f"x{i}") for i in range(200)]
    wide = u.meet(xs + [u.negvar("y")])
    assert beta(u, wide) == _context(u).sorted_node("meet", xs + [u.negvar("y")])
    assert len(_context(u).leq_memo) == 0  # no complementary pair: no order test
    assert beta(u, u.meet([wide, u.var("y")])) == u.bot()
    assert beta(u, u.join(xs + [u.negvar("x7")])) == u.top()


def test_beta_of_a_wide_node_with_a_clash_is_linear(u, monkeypatch):
    # Every child of a node whose heads clash is tested against the node,
    # but a literal child's test is one AND of masks: no search and one memo
    # entry. Only an application child searches.
    searches = []
    real = normalize._Context._search
    monkeypatch.setattr(normalize._Context, "_search",
                        lambda self, s, t: searches.append((s, t)) or real(self, s, t))
    f = u.declare("F", "+")
    xs = [u.var(f"x{i}") for i in range(4000)]
    ctx = _context(u)
    for tail, apps, collapses in (
        ([u.negvar("x3999")], 0, True),
        ([u.app(f, [u.var("z")]), u.app(u.dual(f), [u.var("w")])], 2, False),
    ):
        kids = xs + tail
        searches.clear()
        before = len(ctx.leq_memo)
        got = beta(u, u.join(kids))
        assert got == (u.top() if collapses else ctx.sorted_node(JOIN, kids))
        assert len(searches) == apps
        assert len(ctx.leq_memo) - before <= len(kids) + 2


def test_beta_of_a_meet_of_joins_is_linear(u):
    # S_1024: the meet of 512 joins a_i | b_i. It holds no complementary
    # pair, so no child's complement is tested against the whole meet; a
    # test would fail on its first literal goal, one memo entry per child.
    whole = u.meet([u.join([u.var(f"a{i}"), u.var(f"b{i}")]) for i in range(512)])
    before = len(_context(u).leq_memo)
    assert beta(u, whole) == _context(u).sorted_node("meet", list(u.node(whole).children))
    assert len(_context(u).leq_memo) - before <= 1024


def test_beta_tests_only_nodes_whose_heads_can_clash(u):
    # The lemma in `beta`: a child's complement reaches its meet or join
    # only if the node's heads hold a bound or a complementary pair. Without
    # one, beta builds no complement and makes no order test at the node.
    f = u.declare("F", "+")
    joins = [u.join([u.var(f"a{i}"), u.app(f, [u.var(f"b{i}")])]) for i in range(64)]
    ctx = _context(u)
    assert beta(u, u.meet(joins)) == ctx.sorted_node(MEET, joins)
    assert not ctx.leq_memo
    for i in range(len(u)):
        node = u.node(i)
        assert node.kind != NEGVAR and (node.kind != APP or node.symbol.dual_of is None)
    # a complementary pair of heads: every child is tested, as before
    not_a0, not_fb0 = u.negvar("a0"), u.app(u.dual(f), [u.var("b0")])
    assert beta(u, u.meet(joins + [not_a0])) == ctx.sorted_node(MEET, joins + [not_a0])
    assert ctx.leq_memo
    assert beta(u, u.meet(joins + [not_a0, not_fb0])) == u.bot()
    assert beta(u, u.join([u.app(f, [u.var("b0")]), not_fb0])) == u.top()


@pytest.mark.parametrize("kind", ["join", "meet"])
def test_beta_collapses_exactly_the_complemented_nodes(u, kind):
    # A join is top exactly when the complement of one child is below it
    # (dually a meet is bottom), so beta's whole-node test is complete.
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    engine = Engine(u)
    top, bot = u.top(), u.bot()
    seen = 0
    for t in oracle.enumerate_terms(u, ["x", "y"], [f, g], 6, negation="literals"):
        if u.node(t).kind != kind:
            continue
        seen += 1
        if kind == "join":
            assert (beta(u, t) == top) == engine.query(top, t), print_term(u, t)
        else:
            assert (beta(u, t) == bot) == engine.query(t, bot), print_term(u, t)
    assert seen == 5976


def test_normal_forms_equal_the_composed_passes(u):
    # normalize_ol applies beta, zeta and eta node by node in one walk; the
    # standalone passes, composed, must give the same form.
    rng = random.Random(71)
    symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]
    fresh = TermUniverse()
    for name, variances in (("F", "+"), ("G", "-+"), ("H", "o")):
        fresh.declare(name, variances)
    for _ in range(300):
        t = random_term(u, rng, rng.randint(3, 30), ["x", "y", "z", "w"], symbols)
        form = normalize_ol(u, t).term
        assert form == eta(u, zeta(u, beta(u, delta(u, t)))), print_term(u, t)
        other = parse_term(print_term(u, t), fresh)
        composed = eta(fresh, zeta(fresh, beta(fresh, delta(fresh, other))))
        assert print_term(fresh, composed) == print_term(u, form)
        p = random_term(u, rng, rng.randint(3, 30), ["x", "y", "z", "w"], symbols,
                        allow_not=False)
        assert normalize_bl(u, p).term == eta(u, zeta(u, p)), print_term(u, p)


def test_sorted_nodes_are_interned_once(u):
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    before = len(u)
    assert _context(u).sorted_node("join", [z, y, x]) == u.join([x, y, z])
    assert len(u) == before + 1
    # Beta sorts the inner meet, then the outer join, whose rewritten
    # children come in unsorted order. Delta's images, which beta's test
    # reads, are interned first; every node beta adds is sorted.
    t = u.join([u.meet([z, y]), x])
    delta(u, t)
    delta(u, t, 1)
    before = len(u)
    got = beta(u, t)
    added = [u.node(i).children for i in range(before, len(u))
             if u.node(i).kind in ("meet", "join")]
    assert got == u.join([x, u.meet([y, z])])
    assert added and all(list(c) == sorted(c, key=_structural_key(u)) for c in added)
