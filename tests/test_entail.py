import hashlib
import json
import random
import time

import pytest

from olsub import (
    Engine,
    TermUniverse,
    check,
    elements,
    entail,
    normalize,
    oracle,
    parse_query,
    parse_term,
    print_term,
    reconstruct_proof,
    sequent,
    verify_proof,
)
from olsub.cli import render_proof, sn_tn_terms
from olsub.entail import (
    AXIOM_CUT,
    F_RULE,
    HYP,
    LEFT_AND,
    LEFT_BOT,
    LEFT_NOT,
    LEFT_OR,
    REPLACE,
    RIGHT_AND,
    RIGHT_NOT,
    RIGHT_OR,
    RIGHT_TOP,
    _ANN_BITS,
    _ANN_MASK,
    ProofTree,
    Stats,
    _order_phase,
    find_invalid_node,
)
from olsub.errors import EngineInterrupted, NotProvable, TermIdOverflow
from olsub.normalize import beta, delta, leq
from olsub.terms import JOIN, MEET

from helpers import (
    class_hierarchy_session,
    expand_json_refs,
    expand_text_refs,
    opaque,
    plain_json,
    plain_text,
    proof_nodes,
    random_pnnf,
    random_term,
)


def _goal(s, t):
    """The packed sequent {s^L, t^R}."""
    return sequent(s, 0, t, 1)


def clauses_of(engine):
    """The engine's clauses as (head, body, rule) over packed sequents."""
    return [(head, body, rule) for head, body, rule, _ in engine.clauses]


def test_hyp_clause_present(u):
    x = u.var("x")
    engine = Engine(u)
    engine.query(x, x)
    assert any(
        rule == HYP and not body
        for head, body, rule in clauses_of(engine)
        if head == _goal(x, x)
    )


def test_left_and_clauses(u):
    x, y = u.var("x"), u.var("y")
    m = u.meet([x, y])
    engine = Engine(u)
    engine.query(m, x)
    head = _goal(m, x)
    bodies = {
        body for h, body, rule in clauses_of(engine) if h == head and rule == LEFT_AND
    }
    assert (_goal(x, x),) in bodies
    assert (_goal(y, x),) in bodies


def test_axiom_cut_clause_shape(u):
    # Atom axioms close sequents from their closure, so the join runs on a
    # chain of compound axioms F(A) <= F(B) <= F(C), F covariant.
    f = u.declare("F", "+")
    a, b, c = (u.app(f, [u.var(n)]) for n in "ABC")
    axioms = [(a, b), (b, c)]
    engine = Engine(u, axioms)
    engine.query(a, c)
    head = _goal(a, c)
    cut_bodies = [
        body for h, body, rule in clauses_of(engine) if h == head and rule == AXIOM_CUT
    ]
    # canonical instance for axiom (B, C): {A^L,C^R} <- {A^L,B^R}, {C^L,C^R}
    assert (_goal(a, b), _goal(c, c)) in cut_bodies


def test_query_examples(u):
    x, y = u.var("x"), u.var("y")
    assert Engine(u).query(x, x)
    assert not Engine(u).query(x, y)
    a, b, c = u.var("A"), u.var("B"), u.var("C")
    assert Engine(u, [(a, b), (b, c)]).query(a, c)


def test_check_lattice_and_bound_laws(u):
    x, y = u.var("x"), u.var("y")
    assert check(u, u.meet([x, y]), x).provable
    assert check(u, x, u.join([x, y])).provable
    assert check(u, u.bot(), x).provable
    assert check(u, x, u.top()).provable
    assert not check(u, x, y).provable


def test_check_arrow_monotonicity(u):
    u.declare("Arrow", "-+")
    big = parse_term("Arrow(x1 | y1, x2 & y2)", u)
    small = parse_term("Arrow(x1, x2) & Arrow(y1, y2)", u)
    assert check(u, big, small).provable
    assert not check(u, small, big).provable  # no constructor conjunctivity


def test_check_de_morgan_both_ways(u):
    lhs = parse_term("~(x | y)", u)
    rhs = parse_term("~x & ~y", u)
    assert check(u, lhs, rhs).provable
    assert check(u, rhs, lhs).provable


def test_complement_laws_need_replace(u):
    x = u.var("x")
    assert check(u, u.top(), parse_term("x | ~x", u)).provable
    assert check(u, parse_term("x & ~x", u), u.bot()).provable


def test_bound_transitivity_via_axioms(u):
    a, b, c = u.var("A"), u.var("B"), u.var("C")
    axioms = [(a, b), (b, c)]
    assert check(u, a, c, axioms).provable
    assert not check(u, c, a, axioms).provable
    # an axiom holding a negation proves itself
    nx = u.neg(u.var("x"))
    assert Engine(u, [(nx, b)]).query(nx, b)


def test_bl_mode_restriction(u):
    x, y = u.var("x"), u.var("y")
    assert Engine(u).query(u.meet([x, y]), x)
    # negated atoms are opaque in the bounded-lattice rules: the engine on
    # opaque copies refutes what the ortholattice rules prove
    assert not Engine(u).query(*opaque(u, u.top(), u.join([x, u.negvar("x")])))
    assert check(u, u.top(), u.join([x, u.negvar("x")])).provable


def test_opaque_copies_take_only_the_bounded_lattice_rules(u):
    # What criterion 10's reference computes: on opaque copies every
    # sequent is plain with one term per side, so the engine runs no
    # negation rule, no Replace and no cut.
    rng = random.Random(61)
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    engine = Engine(u)
    provable = 0
    for _ in range(200):
        s, t = (beta(u, random_pnnf(u, rng, 12, ["x", "y", "z"], [f, g])) for _ in "st")
        provable += engine.query(*opaque(u, s, t))
    assert 0 < provable < 200
    rules = {rule for _, _, rule, _ in engine.clauses}
    assert F_RULE in rules
    assert not rules & {LEFT_NOT, RIGHT_NOT, REPLACE, AXIOM_CUT}
    for s in engine._visited:
        (_, side1), (_, side2) = elements(s)
        assert {side1, side2} == {0, 1}


# ----------------------------------------------------------------------
# axiom-free `check` decides by the order test; `Engine` is the reference


def _phases(u, s, t):
    """The two phases of axiom-free `check`: the order test on delta's
    images, then on beta's images of those."""
    ds, dt = delta(u, s), delta(u, t)
    return leq(u, ds, dt), leq(u, beta(u, ds), beta(u, dt))


def test_route_matches_engine_on_all_small_pairs(u):
    f = u.declare("F", "+")
    terms = list(oracle.enumerate_terms(u, ["x", "y"], [f], 4, negation="not"))
    engine = Engine(u)
    pairs = proofs = 0
    for s in terms:
        for t in terms:
            want = engine.query(s, t)
            one, two = _phases(u, s, t)
            verdict = check(u, s, t)
            assert verdict.provable == want
            assert two == want  # phase two alone is complete (coincidence lemma)
            assert want or not one  # phase one is sound
            if want:
                assert verify_proof(u, verdict.proof())
                proofs += 1
            pairs += 1
    assert pairs == 80_656
    assert proofs == 31_003


def test_route_matches_engine_on_random_pairs():
    rng = random.Random(2025)
    for _ in range(20):
        u = TermUniverse()
        symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]
        engine = Engine(u)
        for _ in range(1000):
            gen = random_term if rng.random() < 0.5 else random_pnnf
            s, t = (gen(u, rng, rng.randint(1, 40), ["x", "y", "z"], symbols) for _ in "st")
            want = engine.query(s, t)
            verdict = check(u, s, t)
            assert verdict.provable == want, (print_term(u, s), print_term(u, t))
            if want:
                assert verify_proof(u, verdict.proof()), (print_term(u, s), print_term(u, t))


def test_route_phase_two_decides_complemented_queries(u):
    for query in ("x <= y | ~y", "x & ~x <= y"):
        s, t = parse_query(query, u)
        verdict = check(u, s, t)
        assert verdict.provable
        assert verdict.stats.derived >= 1 and verdict.stats.sequents >= verdict.stats.derived
        one, two = _phases(u, s, t)
        assert not one and two
    # the bounded-lattice rules, where negated atoms are opaque, refute it
    top, x = u.top(), u.var("x")
    assert not Engine(u).query(*opaque(u, top, u.join([x, u.negvar("x")])))


def test_route_stats_count_the_order_test(u):
    xs = [u.var(f"x{i:02}") for i in range(50)]  # in structural order
    wide = u.meet(xs)
    proved = check(u, wide, xs[9])
    # a literal right side: one goal, decided by one AND of masks and
    # counted as one alternative, with no subgoal lookup
    assert (proved.stats.sequents, proved.stats.derived) == (1, 1)
    assert (proved.stats.clauses, proved.stats.steps) == (1, 0)
    assert check(u, wide, xs[9]).stats.sequents == 0  # memoized per universe
    refuted = check(u, wide, u.var("y"))
    assert not refuted.provable
    # neither side holds a bound or a complementary pair, so beta cannot
    # collapse anything and phase two does not run
    assert refuted.stats.derived == 0 and refuted.stats.sequents == 1
    assert (refuted.stats.clauses, refuted.stats.steps) == (1, 0)
    # Neither side a literal: the goal is searched. Of its 50 conjunct picks
    # and 2 disjunct picks the heads lemma leaves two, `x09 <= x09 | y` and
    # `wide <= x09`, so the goal counts 2 alternatives. Its first pick has a
    # literal side: one lookup, decided by masks as one goal with one
    # alternative, which holds. The picks never built count nothing.
    searched = check(u, wide, u.join([xs[9], u.var("y")]))
    assert (searched.stats.sequents, searched.stats.derived) == (1 + 1, 1 + 1)
    assert (searched.stats.clauses, searched.stats.steps) == (2 + 1, 1)


def test_refuted_queries_with_nothing_to_collapse_skip_beta(u, monkeypatch):
    def no_beta(*args):
        raise AssertionError("beta ran")

    monkeypatch.setattr(normalize, "beta", no_beta)
    pairs = [(f"X{i}", f"X{i + 1}") for i in range(1, 16, 2)]
    s16 = " & ".join(f"({a} | {b})" for a, b in pairs)
    t16 = " & ".join(f"({b} | {a})" for a, b in pairs).replace("(X2 | X1)", "(X2 | Y)")
    wide = " & ".join(f"x{i}" for i in range(50))
    for text in (f"{s16} <= {t16}", f"{wide} <= y"):
        assert not check(u, *parse_query(text, u)).provable


def test_phase_two_runs_only_after_a_collapse(u, monkeypatch):
    calls = []
    real = normalize.leq
    monkeypatch.setattr(normalize, "leq", lambda *args: calls.append(args) or real(*args))
    # ~x and x: beta runs, but collapses nothing, so phase one's "no" stands
    assert not check(u, *parse_query("(x | y) & ~x <= z", u)).provable
    assert len(calls) == 1
    # beta collapses x | ~x to top, and phase two decides
    for text, provable in (("top <= y | (x | ~x)", True), ("x | ~x <= y", False)):
        calls.clear()
        assert check(u, *parse_query(text, u)).provable == provable
        assert len(calls) == 2


def _rules(proof):
    """The rules of a proof in preorder."""
    out, stack = [], [proof]
    while stack:
        node = stack.pop()
        out.append(node.rule)
        stack.extend(reversed(node.children))
    return out


def test_order_proof_replaces_through_a_collapsed_node(u):
    # beta collapses y | ~y (and x | ~x) to top and x & ~x to bottom. The
    # Replace premise {G, G} picks a child of one copy, and the other copy,
    # opened, is taken apart by the next pick.
    for query, picks, peel in (
        ("x <= y | ~y", RIGHT_OR, RIGHT_NOT),
        ("x & ~x <= y", LEFT_AND, LEFT_NOT),
        ("top <= x | ~x", RIGHT_OR, RIGHT_NOT),
    ):
        s, t = parse_query(query, u)
        proof = check(u, s, t).proof()
        assert _rules(proof) == [REPLACE, picks, picks, peel, HYP], query
        assert proof.sequent == _goal(s, t)
        premise = proof.children[0].sequent
        assert elements(premise)[0] == elements(premise)[1]  # {G, G}
        assert verify_proof(u, proof)


def test_order_proof_peels_negated_variables_and_dual_symbols(u):
    x = u.var("x")
    negvar = u.negvar("x")
    top = u.top()
    proof = check(u, top, u.join([x, negvar])).proof()
    assert _rules(proof) == [REPLACE, RIGHT_OR, RIGHT_OR, RIGHT_NOT, HYP]
    assert proof.children[0].children[0].children[0].sequent == sequent(negvar, 1, x, 1)
    assert verify_proof(u, proof)
    # ~F(x) as a dual symbol is below the negation of F(x & y): the F rule
    # joins F(x & y)^L, from the right, with F(x)^R, from the left.
    f = u.declare("F", "+")
    y = u.var("y")
    s, t = u.app(u.dual(f), [x]), u.neg(u.app(f, [u.meet([x, y])]))
    proof = check(u, s, t).proof()
    assert _rules(proof) == [LEFT_NOT, RIGHT_NOT, F_RULE, LEFT_AND, HYP]
    assert proof.children[0].children[0].aux == "F"
    assert verify_proof(u, proof)


def test_order_proof_of_a_refuted_query_raises(u):
    x, y = u.var("x"), u.var("y")
    with pytest.raises(NotProvable):
        check(u, x, y).proof()
    with pytest.raises(NotProvable):  # the engine route's verdict too
        check(u, y, x, [(x, y)]).proof()


def test_order_proof_shares_subproofs(u):
    x, y = u.var("x"), u.var("y")
    twice = u.join([y, x])
    proof = check(u, x, u.meet([twice, twice])).proof()
    assert [child.rule for child in proof.children] == [RIGHT_OR, RIGHT_OR]
    assert proof.children[0] is proof.children[1]  # one subproof per sequent
    assert verify_proof(u, proof)


def test_order_proof_opens_a_collapsed_node_once(u, monkeypatch):
    # The Replace premise on the collapsed join picks z and tests it against
    # the join opened; each of the join's 402 children is a pick candidate,
    # and the reader images the opened join once for all of them.
    calls = []
    real = normalize.beta_open
    monkeypatch.setattr(normalize, "beta_open", lambda *args: calls.append(args) or real(*args))
    ys = " | ".join(f"y{i}" for i in range(400))
    s, t = parse_query(f"x <= {ys} | z | ~z", u)
    proof = check(u, s, t).proof()
    assert len(calls) == 1
    assert verify_proof(u, proof)


def test_plain_order_proof_asks_the_order_test_nothing(u, monkeypatch):
    # Every sequent of a phase-1 proof of plain terms is replayed from the
    # search's record (or from the masks, with a literal side): reading the
    # proof makes no order-test call.
    s, t = sn_tn_terms(u, 32)
    verdict = check(u, s, t)
    calls = []
    for name in ("leq", "_search"):
        real = getattr(normalize._Context, name)
        monkeypatch.setattr(
            normalize._Context, name,
            lambda self, *args, real=real, name=name: calls.append(name) or real(self, *args),
        )
    proof = verdict.proof()
    assert calls == []
    assert verify_proof(u, proof)
    assert _rules(proof)[:3] == [RIGHT_AND, LEFT_AND, LEFT_OR]


def test_replayed_join_pick_below_a_meet(u):
    # No conjunct of `x & y` is below the join, so the search records the
    # join pick `x & y <= x & y`: the reader must read it as a RightOr,
    # though the left side is a meet, whose LeftAnd picks come first.
    # (Every plain pair up to size 4 is too small to need this.)
    s, t = parse_query("x & y <= (x & y) | z", u)
    proof = check(u, s, t).proof()
    assert _rules(proof) == [RIGHT_OR, HYP]
    assert verify_proof(u, proof)


def _oriented_nodes(u, proof):
    """Each distinct (node, flipped) of `proof`, walked from its root: a
    node is flipped when the reader held its R element in the left
    position, as it does below a contravariant argument of the F rule
    (twice flipped is not flipped)."""
    seen, stack = set(), [(proof, False)]
    while stack:
        node, flipped = stack.pop()
        if (id(node), flipped) in seen:
            continue
        seen.add((id(node), flipped))
        yield node, flipped
        if node.rule == F_RULE:
            turns = []
            for v in u.symbols[node.aux].variances:
                turns += {"+": [False], "-": [True], "o": [False, True]}[v.value]
            stack.extend((c, flipped != turn) for c, turn in zip(node.children, turns))
        else:
            stack.extend((c, flipped) for c in node.children)


def _check_pick_policy(u, node, flipped):
    """A LeftAnd or RightOr node picks as the reader's rules do: the element
    in the left position before the one in the right position, each its
    first child (duplicates dropped) whose premise the order test accepts.
    Acceptance is asked of `leq` on the delta images, not of the record."""
    low, high = elements(node.sequent)
    assert (low[1], high[1]) == (0, 1)  # plain terms: one L and one R element
    left, right = (high, low) if flipped else (low, high)

    def accepted(a, b):
        return leq(u, delta(u, a[0], a[1]), delta(u, b[0], 1 - b[1]))

    (c_low, _), (c_high, _) = elements(node.children[0].sequent)
    principal = low if node.rule == LEFT_AND else high
    chosen = c_low if node.rule == LEFT_AND else c_high
    pos = 0 if principal == left else 1
    for c in dict.fromkeys(u.node(principal[0]).children):
        pair = ((c, principal[1]), right) if pos == 0 else (left, (c, principal[1]))
        if c == chosen:
            assert accepted(*pair), "the picked premise is not accepted"
            break
        assert not accepted(*pair), "an earlier child is accepted"
    else:
        raise AssertionError("the picked child is not a child of the principal element")
    if pos == 1 and (u.node(left[0]).kind, left[1]) in ((MEET, 0), (JOIN, 1)):
        for c in u.node(left[0]).children:
            assert not accepted((c, left[1]), right), "the left position picks first"


def test_order_proofs_pick_the_first_accepted_child():
    # Every pair of plain terms up to size 4, and G(a, x) <= G(b, x) for a
    # and b up to size 3, whose contravariant premise {a^R, b^L} is held
    # flipped: a meet or join under G needs size 5.
    u = TermUniverse()
    f, g = u.declare("F", "+"), u.declare("G", "-+")
    terms = list(oracle.enumerate_terms(u, ["x", "y"], [f, g], 4))
    assert len(terms) == 208
    pairs = [(s, t) for s in terms for t in terms]
    small = [a for a in terms if u.size(a) <= 3]
    x = u.var("x")
    pairs += [(u.app(g, [a, x]), u.app(g, [b, x])) for a in small for b in small]
    picks = flipped_picks = 0
    for s, t in pairs:
        verdict = check(u, s, t)
        if not verdict.provable:
            continue
        for node, flipped in _oriented_nodes(u, verdict.proof()):
            if node.rule in (LEFT_AND, RIGHT_OR):
                _check_pick_policy(u, node, flipped)
                picks += 1
                flipped_picks += flipped
    assert (picks, flipped_picks) == (13273, 1087)


def test_contravariant_premise_picks_from_its_r_element_first(u):
    # The premise of G's contravariant argument is {(top | bot)^R,
    # (bot & H(top) & y)^L}, held with the R element in the left position,
    # so its RightOr on top | bot is tried before the LeftAnd that would
    # reach bot.
    u.declare("G", "-+")
    u.declare("H", "o")
    s, t = parse_query("G(top | bot, y & bot) <= G(bot & H(top) & y, top)", u)
    proof = check(u, s, t).proof()
    assert _rules(proof) == [F_RULE, RIGHT_OR, RIGHT_TOP, RIGHT_TOP]
    assert verify_proof(u, proof)
    for node, flipped in _oriented_nodes(u, proof):
        if node.rule in (LEFT_AND, RIGHT_OR):
            _check_pick_policy(u, node, flipped)


def test_reconstructed_proof_shares_subproofs(u):
    a, b, c, d = (u.var(n) for n in "abcd")
    ab = u.meet([a, b])
    goal = u.meet([u.join([ab, c]), u.join([ab, d])])
    proof = reconstruct_proof(Engine(u, [(c, d)]), ab, goal)
    assert proof.rule == RIGHT_AND
    assert [child.rule for child in proof.children] == [RIGHT_OR, RIGHT_OR]
    first, second = (child.children[0] for child in proof.children)
    assert first.rule == HYP and first is second  # one subproof per sequent
    assert verify_proof(u, proof, [(c, d)])


def test_reflexivity_and_transitivity(u):
    rng = random.Random(31)
    f = u.declare("F", "+")
    pool = [random_term(u, rng, 7, ["x", "y"], [f]) for _ in range(40)]
    engine = Engine(u)
    for t in pool:
        assert engine.query(t, t)
    for _ in range(300):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if engine.query(a, b) and engine.query(b, c):
            assert engine.query(a, c)


def test_monotonicity_property(u):
    rng = random.Random(41)
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    h = u.declare("H", "o")
    pool = [random_term(u, rng, 6, ["x", "y"]) for _ in range(30)]
    engine = Engine(u)
    seen_strict = False
    for _ in range(400):
        s, t = rng.choice(pool), rng.choice(pool)
        if not engine.query(s, t):
            continue
        w = rng.choice(pool)
        assert engine.query(u.app(f, [s]), u.app(f, [t]))
        assert engine.query(u.app(g, [t, s]), u.app(g, [s, t]))
        if not engine.query(t, s):
            seen_strict = True
            # invariant argument requires equivalence in both directions
            assert not engine.query(u.app(h, [s]), u.app(h, [t]))
    assert seen_strict


def test_proof_single_hyp(u):
    x = u.var("x")
    proof = reconstruct_proof(Engine(u), x, x)
    assert proof.rule == HYP and not proof.children
    assert verify_proof(u, proof)


def test_proof_commuted_meets(u):
    x, y = u.var("x"), u.var("y")
    proof = reconstruct_proof(Engine(u), u.meet([x, y]), u.meet([y, x]))
    assert proof.rule == "RightAnd"
    assert {child.rule for child in proof.children} == {"LeftAnd"}
    assert all(grand.rule == HYP for child in proof.children for grand in child.children)
    assert verify_proof(u, proof)


def test_proof_with_axiom_cut(u):
    a, b, c = u.var("A"), u.var("B"), u.var("C")
    axioms = [(a, b), (b, c)]
    proof = reconstruct_proof(Engine(u, axioms), a, c)

    rules = set()

    def collect(node):
        rules.add(node.rule)
        for child in node.children:
            collect(child)

    collect(proof)
    assert AXIOM_CUT in rules
    assert verify_proof(u, proof, axioms)


def test_deep_proof_is_reconstructed_without_recursion(u):
    s, t = parse_query("~" * 3001 + "x <= ~x", u)
    engine = Engine(u)
    proof = reconstruct_proof(engine, s, t)
    assert proof.sequent == _goal(s, t)
    assert verify_proof(u, proof)


def test_reconstruct_unprovable_raises(u):
    x, y = u.var("x"), u.var("y")
    with pytest.raises(NotProvable):
        reconstruct_proof(Engine(u), x, y)


def test_verify_rejects_wrong_variance_direction(u):
    arrow = u.declare("Arrow", "-+")
    e, b = u.var("e"), u.var("b")
    goal = _goal(u.app(arrow, [e, b]), u.app(arrow, [e, b]))
    valid = ProofTree(
        goal,
        "F",
        [
            ProofTree(_goal(e, e), HYP, []),  # contravariant slot
            ProofTree(_goal(b, b), HYP, []),  # covariant slot
        ],
        "Arrow",
    )
    assert verify_proof(u, valid)
    flipped = ProofTree(
        goal,
        "F",
        [
            ProofTree(_goal(b, b), HYP, []),  # covariant premise in contra slot
            ProofTree(_goal(e, e), HYP, []),
        ],
        "Arrow",
    )
    assert not verify_proof(u, flipped)
    assert find_invalid_node(u, flipped) == "root"


def test_verify_rejects_foreign_axiom(u):
    a, b = u.var("A"), u.var("B")
    node = ProofTree(
        _goal(a, b),
        AXIOM_CUT,
        [
            ProofTree(_goal(a, a), HYP, []),
            ProofTree(_goal(b, b), HYP, []),
        ],
        (a, b),
    )
    assert verify_proof(u, node, [(a, b)])
    assert not verify_proof(u, node, [])  # cites an axiom not in the set
    assert not verify_proof(u, node, [(b, a)])


def _tree(t1, s1, t2, s2, rule, kids=(), aux=None):
    return ProofTree(sequent(t1, "LR".index(s1), t2, "LR".index(s2)), rule, list(kids), aux)


def _hyp(t):
    return _tree(t, "L", t, "R", HYP)


def _schema_cases(u):
    """(name, proof, path of its invalid node) for the verifier's rejections
    of LeftAnd, RightOr, LeftOr, RightAnd, F and the negation rules."""
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    m = u.meet([x, u.join([y, z])])  # x & (y | z): y is a grandchild, not a child
    j = u.join([x, u.meet([y, z])])  # x | (y & z): likewise
    xy, yx = u.join([x, y]), u.join([y, x])
    mxy, myx = u.meet([x, y]), u.meet([y, x])
    f = u.declare("F", "+")
    h = u.declare("H", "o")
    fm, fx = u.app(f, [mxy]), u.app(f, [x])
    hx = u.app(h, [x])
    nx = u.neg(x)

    def left_or(kids):
        return _tree(xy, "L", yx, "R", LEFT_OR, kids)

    def right_and(kids):
        return _tree(mxy, "L", myx, "R", RIGHT_AND, kids)

    or_kids = [
        _tree(x, "L", yx, "R", RIGHT_OR, [_hyp(x)]),
        _tree(y, "L", yx, "R", RIGHT_OR, [_hyp(y)]),
    ]
    and_kids = [
        _tree(mxy, "L", y, "R", LEFT_AND, [_hyp(y)]),
        _tree(mxy, "L", x, "R", LEFT_AND, [_hyp(x)]),
    ]
    valid = [
        ("left-and", _tree(m, "L", x, "R", LEFT_AND, [_hyp(x)])),
        ("right-or", _tree(x, "L", j, "R", RIGHT_OR, [_hyp(x)])),
        ("left-or", left_or(or_kids)),
        ("right-and", right_and(and_kids)),
        ("f-covariant", _tree(fm, "L", fx, "R", F_RULE,
                              [_tree(mxy, "L", x, "R", LEFT_AND, [_hyp(x)])], "F")),
        ("f-invariant", _tree(hx, "L", hx, "R", F_RULE, [_hyp(x), _hyp(x)], "H")),
        ("left-not", _tree(nx, "L", nx, "R", LEFT_NOT,
                           [_tree(x, "R", nx, "R", RIGHT_NOT, [_hyp(x)])])),
    ]
    invalid = [
        # a LeftAnd or RightOr whose premise holds a non-child
        ("left-and-grandchild", _tree(m, "L", y, "R", LEFT_AND, [_hyp(y)]), "root"),
        ("left-and-stranger", _tree(m, "L", z, "R", LEFT_AND, [_hyp(z)]), "root"),
        ("right-or-grandchild", _tree(y, "L", j, "R", RIGHT_OR, [_hyp(y)]), "root"),
        ("right-or-itself", _tree(x, "L", j, "R", RIGHT_OR,
                                  [_tree(x, "L", j, "R", RIGHT_OR, [_hyp(x)])]), "root"),
        # a pick whose child is on the wrong side
        ("left-and-child-right", _tree(m, "L", x, "R", LEFT_AND,
                                       [_tree(x, "R", x, "R", REPLACE, [])]), "root"),
        ("right-or-child-left", _tree(x, "L", j, "R", RIGHT_OR,
                                      [_tree(x, "L", x, "L", REPLACE, [])]), "root"),
        # a pick whose premise changed the context element
        ("left-and-new-context", _tree(m, "L", z, "R", LEFT_AND, [_hyp(x)]), "root"),
        ("right-or-context-side", _tree(x, "L", j, "R", RIGHT_OR,
                                        [_tree(x, "R", x, "R", REPLACE, [])]), "root"),
        # a LeftOr or RightAnd missing one premise, or with them reordered
        ("left-or-missing", left_or(or_kids[:1]), "root"),
        ("left-or-reordered", left_or(or_kids[::-1]), "root"),
        ("right-and-missing", right_and(and_kids[1:]), "root"),
        ("right-and-reordered", right_and(and_kids[::-1]), "root"),
        ("right-and-extra", right_and(and_kids + and_kids[:1]), "root"),
        # below a valid node, the bad one is named
        ("nested-left-and", right_and([and_kids[0], _tree(mxy, "L", x, "R", LEFT_AND,
                                                          [_hyp(y)])]), "root.1"),
        # an F node with a premise of the wrong variance, or a missing one
        ("f-covariant-flipped", _tree(fm, "L", fx, "R", F_RULE,
                                      [_tree(x, "L", mxy, "R", RIGHT_AND, [])], "F"), "root"),
        ("f-invariant-one-way", _tree(hx, "L", hx, "R", F_RULE, [_hyp(x)], "H"), "root"),
        # a negation rule whose premise did not flip the side
        ("left-not-unflipped", _tree(nx, "L", nx, "R", LEFT_NOT,
                                     [_tree(x, "L", nx, "R", RIGHT_NOT, [])]), "root"),
        # a Replace with a second premise
        ("replace-two-premises", _tree(x, "L", y, "R", REPLACE,
                                       [_tree(x, "L", x, "L", REPLACE, []),
                                        _tree(y, "R", y, "R", REPLACE, [])]), "root"),
        # an F node over two same-side elements, two symbols, or a non-application
        ("f-same-side", _tree(fx, "L", fm, "L", F_RULE,
                              [_tree(x, "L", mxy, "R", RIGHT_AND, [])], "F"), "root"),
        ("f-two-symbols", _tree(fx, "L", hx, "R", F_RULE, [_hyp(x)], "F"), "root"),
        ("f-not-an-application", _tree(x, "L", fx, "R", F_RULE, [_hyp(x)], "F"), "root"),
        # an AxiomCut whose aux is not an axiom pair
        ("cut-aux-triple", _tree(x, "L", y, "R", AXIOM_CUT, [_hyp(x), _hyp(y)], (x, y, z)),
         "root"),
        ("cut-aux-list", _tree(x, "L", y, "R", AXIOM_CUT, [_hyp(x), _hyp(y)], [x, y]), "root"),
    ]
    return valid, invalid


def test_verify_accepts_each_rule_schema(u):
    valid, _ = _schema_cases(u)
    for name, proof in valid:
        assert find_invalid_node(u, proof) is None, name


def test_verify_names_the_node_that_breaks_its_schema(u):
    _, invalid = _schema_cases(u)
    for name, proof, path in invalid:
        assert find_invalid_node(u, proof) == path, name
        assert not verify_proof(u, proof), name


def test_verify_rejects_a_cut_with_premises_swapped(u):
    a, b = u.var("A"), u.var("B")
    cut = _tree(a, "L", b, "R", AXIOM_CUT, [_hyp(a), _hyp(b)], (a, b))
    assert find_invalid_node(u, cut, [(a, b)]) is None
    swapped = _tree(a, "L", b, "R", AXIOM_CUT, [_hyp(b), _hyp(a)], (a, b))
    assert find_invalid_node(u, swapped, [(a, b)]) == "root"


def test_verify_rejects_unknown_rule(u):
    x = u.var("x")
    assert not verify_proof(u, ProofTree(_goal(x, x), "Magic", []))


def test_verify_rejects_malformed_sequents(u):
    # A sequent naming a term the universe does not hold, or a packed
    # integer that is not canonical, makes its node invalid: the verifier
    # answers False and never raises.
    x = u.var("x")
    m = u.meet([x, u.var("y")])
    hyp = _goal(x, x)
    low, high = hyp >> _ANN_BITS, hyp & _ANN_MASK
    swapped = (high << _ANN_BITS) | low  # {x^L, x^R} with R packed first
    assert elements(swapped) == ((x, 1), (x, 0))
    rules = (HYP, LEFT_BOT, RIGHT_TOP, LEFT_AND, RIGHT_AND, LEFT_OR, RIGHT_OR, LEFT_NOT,
             RIGHT_NOT, REPLACE, F_RULE, AXIOM_CUT)
    assert verify_proof(u, ProofTree(_goal(m, x), LEFT_AND, [_hyp(x)]))
    # {x^-1, x^R} packed by hand (`sequent` refuses side -1): it packs
    # back, but side -1 is no side
    negative = (-1 << 30 | x) << _ANN_BITS | (1 << 30 | x)
    for bad in (_goal(x, 10**6), _goal(10**6, x), swapped, negative, -1, 1 << 62):
        for rule in rules:
            assert find_invalid_node(u, ProofTree(bad, rule, []), [(x, x)]) == "root", rule
        # as a premise it matches no schema either
        pick = ProofTree(_goal(m, x), LEFT_AND, [ProofTree(bad, HYP, [])])
        assert find_invalid_node(u, pick) == "root"


def test_verify_names_a_broken_leaf_deep_in_a_chain(u):
    # A chain of 5,000 Replace nodes over {x^L, x^L}, each valid, above a
    # Hyp that joins two L elements: the path is spelled out only for the
    # node that fails, and the walk holds no recursion.
    x = u.var("x")
    depth = 5000
    node = ProofTree(sequent(x, 0, x, 0), HYP, [])
    for _ in range(depth):
        node = ProofTree(sequent(x, 0, x, 0), REPLACE, [node])
    assert find_invalid_node(u, node) == "root" + ".0" * depth


def test_verify_names_a_shared_broken_node_under_the_parent_popped_first(u):
    # Children are pushed in order and popped last first, so of two parents
    # sharing a broken node, the second child of the root is checked first
    # and names it.
    x, a, b = u.var("x"), u.var("a"), u.var("b")
    broken = ProofTree(sequent(x, 0, x, 0), HYP, [])
    parents = [ProofTree(sequent(x, 0, t, 1), REPLACE, [broken]) for t in (a, b)]
    root = ProofTree(sequent(x, 0, u.meet([a, b]), 1), RIGHT_AND, parents)
    assert find_invalid_node(u, root) == "root.1.0"


def test_verify_rejects_a_replace_that_cites_itself(u):
    # A Replace node over {x^L, x^L} is its own premise; below a Replace to
    # {x^L, y^R} it would "prove" the refuted x <= y. The node met again
    # inside its own subtree is named.
    x, y = u.var("x"), u.var("y")
    loop = ProofTree(sequent(x, 0, x, 0), REPLACE, [])
    loop.children.append(loop)
    proof = ProofTree(sequent(x, 0, y, 1), REPLACE, [loop])
    assert not check(u, x, y).provable
    assert not verify_proof(u, proof)
    assert find_invalid_node(u, proof) == "root.0.0"


def test_verify_rejects_axiom_cuts_that_cite_each_other(u):
    # Under List(a) <= F(b) and F(b) <= List(a), the AxiomCuts {x^L, F(b)^R}
    # and {x^L, List(a)^R} each take the other as first premise and a Hyp
    # as second: a cycle that would "prove" the refuted x <= F(b).
    u.declare("List", "+")
    u.declare("F", "+")
    x, lst, f = u.var("x"), parse_term("List(a)", u), parse_term("F(b)", u)
    axioms = [(lst, f), (f, lst)]
    to_f = ProofTree(sequent(x, 0, f, 1), AXIOM_CUT, [], (lst, f))
    to_list = ProofTree(sequent(x, 0, lst, 1), AXIOM_CUT, [to_f, _hyp(lst)], (f, lst))
    to_f.children += [to_list, _hyp(f)]
    assert not check(u, x, f, axioms).provable
    assert not verify_proof(u, to_f, axioms)
    assert find_invalid_node(u, to_f, axioms) == "root.0.0"


def test_proof_repr_leaves_out_the_subtree(u):
    # A proof 3,000 negations deep prints as its root alone; two nodes
    # compare by identity, whatever their children.
    s, t = parse_query("~" * 3001 + "x <= y | ~y", u)
    proof = check(u, s, t).proof()
    assert repr(proof) == f"ProofTree(sequent={proof.sequent}, rule='LeftNot', aux=None)"
    hyp = _hyp(u.var("x"))
    assert _tree(s, "L", s, "R", REPLACE, [hyp]) != _tree(s, "L", s, "R", REPLACE, [_hyp(s)])


def test_proofs_compare_by_identity(u):
    # Comparing two reads of one proof walks neither: a walk would exceed
    # the recursion limit on the 301-deep proof, and the H^16 proof's 41
    # distinct nodes unfold to a tree of 393,215.
    u.declare("H", "o")
    h16 = "H(" * 16, ")" * 16
    for query in ("~" * 301 + "x <= y | ~y", "{0}a & b{1} <= {0}b & a{1}".format(*h16)):
        s, t = parse_query(query, u)
        first, second = check(u, s, t).proof(), check(u, s, t).proof()
        assert first.sequent == second.sequent and first.rule == second.rule
        assert first != second and not first == second
        assert first == first


def test_verify_interns_nothing(u):
    # A negation rule's premise is compared with what the rule leaves of
    # its principal term by structure, so checking a proof never grows the
    # universe: neither where that term is not interned (the proof is
    # refused) nor on proofs the readers built (they are accepted).
    f = u.declare("F", "+")
    y = u.var("y")
    for t in (u.negvar("x"), u.app(u.dual(f), [y])):  # x and F(y) are not interned
        for rule, side in ((LEFT_NOT, 0), (RIGHT_NOT, 1)):
            node = ProofTree(sequent(t, side, y, 1 - side), rule,
                             [ProofTree(sequent(y, 0, y, 1), HYP, [])])
            size = len(u)
            assert not verify_proof(u, node)
            assert len(u) == size
    x = u.var("x")
    proofs = [
        check(u, u.top(), u.join([x, u.negvar("x")])).proof(),
        check(u, u.app(u.dual(f), [x]), u.neg(u.app(f, [u.meet([x, y])]))).proof(),
        check(u, u.negvar("y"), u.negvar("x"), [(x, y)]).proof(),
    ]
    size = len(u)
    for proof in proofs:
        assert {LEFT_NOT, RIGHT_NOT} & set(_rules(proof))
        assert verify_proof(u, proof, [(x, y)])
    assert len(u) == size


def test_verify_shares_no_code_with_the_readers(u, monkeypatch):
    # The checker must not reuse what it checks: with the order test, its
    # per-universe context and the proof readers' walk all made to raise,
    # proofs from both readers still verify and a broken one is still named.
    s, t = parse_query("(x | y) & ~(z & ~x) <= ~z | (y | x)", u)
    order_proof = check(u, s, t).proof()
    a, b, c = u.var("a"), u.var("b"), u.var("c")
    f = u.declare("F", "+")
    axioms = [(a, b), (u.app(f, [b]), c)]
    engine_proof = check(u, u.app(f, [a]), c, axioms).proof()
    assert AXIOM_CUT in _rules(engine_proof)

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called a reader's code")

    monkeypatch.setattr(normalize, "leq", refuse)
    monkeypatch.setattr(normalize, "_context", refuse)
    monkeypatch.setattr(entail, "_read_proof", refuse)
    assert verify_proof(u, order_proof)
    assert verify_proof(u, engine_proof, axioms)
    assert not verify_proof(u, engine_proof)  # the axioms it cuts through are not given
    broken = ProofTree(order_proof.sequent, order_proof.rule, order_proof.children[:0])
    assert find_invalid_node(u, broken) == "root"


def _sampled_proofs():
    """(universe, [(proof, axioms)]) from both readers: random provable
    queries covering both phases of the order test, and an engine proof
    through atom and compound axioms, last."""
    rng = random.Random(7)
    u = TermUniverse()
    symbols = [u.declare("F", "+"), u.declare("G", "-+")]
    proofs, phases = [], set()
    complemented = ("x <= y | ~y", "F(x) & ~F(x) <= y", "top <= G(x, y) | ~G(x, y)")
    queries = [parse_query(q, u) for q in complemented]  # phase two
    for _ in range(300):
        queries.append(tuple(
            random_term(u, rng, rng.randint(1, 14), ["x", "y", "z"], symbols) for _ in "st"
        ))
    for s, t in queries:
        verdict = check(u, s, t)
        if verdict.provable:
            phases.add(_order_phase(u, delta(u, s), delta(u, t)))
            proofs.append((verdict.proof(), []))
    assert phases == {1, 2}
    s, t = parse_query("F(A) & ~C <= G(C, E) | ~A", u)
    axioms = [(u.var("A"), u.var("B")), (u.var("B"), u.var("C")),
              (parse_term("F(C)", u), parse_term("G(C, D)", u)), (u.var("D"), u.var("E"))]
    verdict = check(u, s, t, axioms)
    assert verdict.provable
    proofs.append((verdict.proof(), axioms))
    return u, proofs


def test_proof_nodes_carry_canonical_packed_sequents():
    # Every node of a proof from either reader holds a packed sequent that
    # `elements` decodes, L before R and then by term id, and `sequent`
    # packs back; the sweep covers both phases of the order test and an
    # engine proof through atom and compound axioms.
    u, proofs = _sampled_proofs()
    assert {AXIOM_CUT, F_RULE} <= {node.rule for node in proof_nodes(proofs[-1][0])}
    for proof, given in proofs:
        for node in proof_nodes(proof):
            a, b = elements(node.sequent)
            assert sequent(*a, *b) == node.sequent
            assert (a[1], a[0]) <= (b[1], b[0])
        assert verify_proof(u, proof, given)


def test_rendered_proofs_expand_to_their_trees():
    # The same proofs, rendered in each format with their shared subproofs
    # as references: expanding every reference gives the proof written as a
    # tree, byte for byte.
    u, proofs = _sampled_proofs()
    shared = 0
    for proof, _ in proofs:
        rendered = render_proof(u, proof, None, True)
        shared += '"ref"' in rendered
        expanded = expand_json_refs(json.loads(rendered))
        assert json.dumps(expanded) == json.dumps(plain_json(u, proof))
        lines = render_proof(u, proof, None, False).split("\n")
        assert expand_text_refs(lines) == plain_text(u, proof)
    assert shared > 0


def test_clause_count_bound(u):
    # documented bound: clauses <= 16 * n^2 * (1 + |axioms|), n = total problem size
    for n in (8, 16):
        universe = TermUniverse()
        s, t = sn_tn_terms(universe, n)
        engine = Engine(universe)  # axiom-free `check` does not run the engine
        total = universe.size(s) + universe.size(t)
        assert engine.query(s, t)
        assert engine.stats().clauses <= 16 * total * total
        axioms = [(universe.var("X1"), universe.var("X2")), (universe.var("X2"), s)]
        with_axioms = check(universe, s, t, axioms)
        total_ax = total + sum(universe.size(a) + universe.size(b) for a, b in axioms)
        assert with_axioms.stats.clauses <= 16 * total_ax * total_ax * (1 + len(axioms))


def test_atom_chain_cuts_stay_quadratic(u):
    # A0 <= A1 <= ... <= A49: the closure closes {A0^L, A49^R} in one step.
    # On F(A0) <= ... <= F(A49), F covariant, AxiomCut fires from derived
    # premises, so the clauses stay within 2 k^2, and `steps` counts the
    # join work that the stored clauses do not show.
    k = 50
    f = u.declare("F", "+")
    atoms = [u.var(f"A{i}") for i in range(k)]
    for chain in (atoms, [u.app(f, [a]) for a in atoms]):
        axioms = list(zip(chain, chain[1:]))
        for s, t, want in ((chain[0], chain[-1], True), (chain[-1], chain[0], False)):
            engine = Engine(u, axioms)
            assert engine.query(s, t) == want
            stats = engine.stats()
            assert stats.clauses <= 2 * k * k
            assert stats.steps >= stats.derived


def test_bl_cuts_keep_one_term_per_side(u):
    # Under the bounded-lattice rules, which plain sequents under plain
    # axioms take, a term pushes only the cut premise that keeps one term
    # per side; the refuted chain used to expand 2450 same-side sequents.
    # Atom axioms push no cut premises at all, so the chain is F(A0) <= ...
    # <= F(A49), F covariant, whose axioms are joined.
    k = 50
    f = u.declare("F", "+")
    chain = [u.app(f, [u.var(f"A{i}")]) for i in range(k)]
    engine = Engine(u, list(zip(chain, chain[1:])))
    assert not engine.query(chain[-1], chain[0])
    sequents = [elements(s) for s in engine._visited]
    assert len(sequents) > k
    assert all(a[1] != b[1] for a, b in sequents)
    # the unit rules still close the cut premises: top <= bot proves all
    x, y = u.var("x"), u.var("y")
    engine = Engine(u, [(u.top(), u.bot())])
    assert engine.query(y, x)
    assert all(a[1] != b[1] for a, b in map(elements, engine._visited))


def test_atom_chain_of_a_thousand_closes_in_one_step(u):
    # Both directions on fresh engines; the proof unrolls the chain into
    # one AxiomCut per axiom.
    k = 1000
    atoms = [u.var(f"A{i}") for i in range(k)]
    axioms = list(zip(atoms, atoms[1:]))
    started = time.perf_counter()
    up = Engine(u, axioms)
    assert up.query(atoms[0], atoms[-1])
    assert not Engine(u, axioms).query(atoms[-1], atoms[0])
    assert time.perf_counter() - started < 1.0
    assert up.stats().steps >= up.stats().derived
    proof = reconstruct_proof(up, atoms[0], atoms[-1])
    assert _rules(proof).count(AXIOM_CUT) == k - 1
    assert verify_proof(u, proof, axioms)


def test_shortcut_axiom_gives_a_one_cut_proof(u):
    a, b, c = u.var("A"), u.var("B"), u.var("C")
    for axioms in ([(a, b), (b, c), (a, c)], [(a, c), (a, b), (b, c)]):
        proof = reconstruct_proof(Engine(u, axioms), a, c)
        assert _rules(proof) == [AXIOM_CUT, HYP, HYP]
        assert proof.aux == (a, c)
        assert verify_proof(u, proof, axioms)
    # without the shortcut the proof is the two-cut chain
    proof = reconstruct_proof(Engine(u, [(a, b), (b, c)]), a, c)
    assert _rules(proof) == [AXIOM_CUT, AXIOM_CUT, HYP, HYP, HYP]
    assert verify_proof(u, proof, [(a, b), (b, c)])


def _axiom_sets(u, rng, atoms, symbols):
    """Random axiom sets: atom-only (with self-loops and a cycle) or mixed
    with compound axioms holding top, bot, negation and the symbols."""
    pairs = [(u.var(rng.choice(atoms)), u.var(rng.choice(atoms))) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        name = rng.choice(atoms)
        pairs.append((u.var(name), u.var(name)))
    if rng.random() < 0.4:
        cycle = rng.sample(atoms, 3)
        pairs += [(u.var(p), u.var(q)) for p, q in zip(cycle, cycle[1:] + cycle[:1])]
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            compound = random_term(u, rng, rng.randint(2, 4), atoms, symbols)
            other = random_term(u, rng, rng.randint(1, 3), atoms, symbols)
            pairs.append((compound, other) if rng.random() < 0.5 else (other, compound))
    rng.shuffle(pairs)
    return pairs


def test_atom_closure_matches_saturation():
    # Fresh engines (through `check`) and shared engines against forward
    # saturation, which cuts through every axiom; every "yes" has a proof
    # that the independent checker accepts.
    rng = random.Random(1301)
    atoms = ["a", "b", "c", "d", "x"]
    queries = proofs = 0
    for _ in range(200):
        u = TermUniverse()
        symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]
        axioms = _axiom_sets(u, rng, atoms, symbols)
        roots = [random_term(u, rng, rng.randint(1, 6), atoms, symbols) for _ in range(3)]
        terms = roots + [t for pair in axioms for t in pair]
        pool = sorted(set().union(*(u.subterms(t) for t in terms)))
        provable = oracle.saturate(u, roots + [u.var(n) for n in atoms], axioms)
        shared = Engine(u, axioms)
        for _ in range(25):
            s, t = rng.choice(pool), rng.choice(pool)
            want = ((s, "L"), (t, "R")) in provable
            assert shared.query(s, t) == want, (print_term(u, s), print_term(u, t))
            queries += 1
            if want:
                assert verify_proof(u, reconstruct_proof(shared, s, t), axioms)
                proofs += 1
        for _ in range(5):
            s, t = rng.choice(pool), rng.choice(pool)
            want = oracle.saturates(u, s, t, axioms)
            verdict = check(u, s, t, axioms)
            assert verdict.provable == want
            if want:
                assert verify_proof(u, reconstruct_proof(Engine(u, axioms), s, t), axioms)
                assert verify_proof(u, verdict.proof(), axioms)
            queries += 1
    assert queries == 200 * 30
    assert proofs > 500


def test_stats_shape(u):
    x = u.var("x")
    verdict = check(u, x, x)
    assert verdict.stats.sequents >= 1
    assert verdict.stats.clauses >= 1
    assert verdict.stats.steps >= 0


def test_concurrent_checks_share_a_universe(u):
    import concurrent.futures

    f = u.declare("F", "+")
    rng = random.Random(61)
    pool = [
        (random_term(u, rng, 8, ["x", "y"], [f]), random_term(u, rng, 8, ["x", "y"], [f]))
        for _ in range(80)
    ]
    expected = [check(u, s, t).provable for s, t in pool]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool_exec:
        got = list(pool_exec.map(lambda st: check(u, st[0], st[1]).provable, pool))
    assert got == expected


def test_agreement_with_saturation_small(u):
    rng = random.Random(17)
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    for _ in range(150):
        s = random_term(u, rng, 8, ["x", "y"], [f, g])
        t = random_term(u, rng, 8, ["x", "y"], [f, g])
        axioms = (
            [(random_term(u, rng, 4, ["x", "y"]), random_term(u, rng, 4, ["x", "y"]))]
            if rng.random() < 0.5
            else []
        )
        assert check(u, s, t, axioms).provable == oracle.saturates(u, s, t, axioms)


def test_shared_engine_sweep_matches_saturation():
    # One engine per universe answers interleaved queries, many of which stop
    # early; every verdict must still match forward saturation.
    rng = random.Random(2024)
    for _ in range(600):
        u = TermUniverse()
        f = u.declare("F", "+")
        roots = [random_term(u, rng, 7, ["x", "y", "z"], [f]) for _ in range(3)]
        axioms = [
            (random_term(u, rng, 3, ["x", "y", "z"]), random_term(u, rng, 3, ["x", "y", "z"]))
            for _ in range(rng.randint(0, 2))
        ]
        provable = oracle.saturate(u, roots, axioms)
        pool = sorted(set().union(*(u.subterms(r) for r in roots)))
        engine = Engine(u, axioms)
        for _ in range(80):
            s, t = rng.choice(pool), rng.choice(pool)
            assert engine.query(s, t) == (((s, "L"), (t, "R")) in provable)


def test_axiom_heavy_shared_engine_sweep_matches_saturation():
    # Up to six axioms per engine, atom bounds and F(...) bounds, so that
    # AxiomCut joins carry much of the work, and queries that stop early
    # leave cut premises unexpanded for later queries to resume.
    rng = random.Random(606)
    atoms = ["a", "b", "c", "d", "x", "y", "z"]
    for _ in range(150):
        u = TermUniverse()
        f = u.declare("F", "+")
        roots = [random_term(u, rng, 6, atoms, [f]) for _ in range(2)]
        axioms = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                axioms.append((u.var(rng.choice(atoms)), u.var(rng.choice(atoms))))
            else:
                bound = u.app(f, [random_term(u, rng, 3, atoms)])
                other = random_term(u, rng, 3, atoms, [f])
                axioms.append((bound, other) if rng.random() < 0.5 else (other, bound))
        provable = oracle.saturate(u, roots, axioms)
        terms = roots + [t for pair in axioms for t in pair]
        pool = sorted(set().union(*(u.subterms(t) for t in terms)))
        engine = Engine(u, axioms)
        for _ in range(60):
            s, t = rng.choice(pool), rng.choice(pool)
            assert engine.query(s, t) == (((s, "L"), (t, "R")) in provable)


def test_early_exit_leaves_pending_work_to_later_queries(u):
    # z <= z | x <= ~(top & z) makes z bottom, so z <= y. The first query
    # stops early with premises of sequents the second one needs still
    # unexpanded on the engine's stack; they must be expanded, not dropped.
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    axioms = [(u.join([z, x]), u.neg(u.meet([u.top(), z]))), (u.meet([y, y]), z)]
    engine = Engine(u, axioms)
    assert engine.query(z, u.join([y, z]))
    assert engine.query(z, y)
    assert check(u, z, y, axioms).provable


def test_pending_work_reached_through_other_sequents_is_resumed(u):
    # y <= ~(top | top) makes y bottom. After the first query stops, some
    # sequent the second one needs has all its premises expanded, but one of
    # them still waits on work left on the stack, which the second query
    # must expand before it answers.
    axioms = [
        parse_query(q, u)
        for q in ("x & x & x <= y | y", "~(x | top) <= ~~(top & bot)", "y <= ~(top | top)")
    ]
    engine = Engine(u, axioms)
    assert engine.query(*parse_query("x <= ~~(bot | y | y | top)", u))
    assert engine.query(*parse_query("y <= x", u))


def test_pending_replace_subgoal_keeps_its_waiters_open(u):
    # x & x & ~x is bottom, so F of it is below F(bot). A sequent whose only
    # unexpanded premise is its Replace subgoal {G,G}, left on the stack by
    # the first query, must be derived once the second query expands it.
    u.declare("F", "+")
    axioms = [parse_query("x & bot <= top & bot", u)]
    engine = Engine(u, axioms)
    assert engine.query(*parse_query("x & x & ~x <= x", u))
    assert engine.query(*parse_query("F(x & x & ~x) <= x & x | F(bot)", u))


def test_pending_cut_premise_keeps_its_sequents_open():
    # A search can stop with a cut premise {x, U^R}, or a partner premise
    # {V^L, y} pushed once {x, U^R} was derived, still unexpanded after a
    # sequent {x, y} was expanded; each is pushed only once, so the next
    # query must expand it from the stack. In the first case (plain terms
    # and axioms, so the bounded-lattice rules) no Replace subgoal reaches
    # them either. Term ids fix the search order, so every variable is
    # created, in this order, before the compound terms.
    u = TermUniverse()
    a, b, c, d, e, f = (u.var(n) for n in "abcdef")
    a_or_f = u.join([a, f])
    engine = Engine(u, [(c, a_or_f), (c, b), (b, d), (d, c), (e, b)])
    assert engine.query(a, a_or_f)
    assert engine.query(b, a_or_f)  # b <= d <= c <= a | f
    u = TermUniverse()
    a, b, c, d, e, f = (u.var(n) for n in "abcdef")
    d_and_c, d_or_f = u.meet([d, c]), u.join([d, f])
    engine = Engine(u, [(b, f), (f, d_and_c), (a, b), (f, d_or_f), (b, d)])
    assert engine.query(b, d_and_c)
    assert engine.query(d_or_f, d)  # f <= d & c <= d


def test_invertible_rule_alone_decides_its_sequent(u):
    # {(x | y)^L, (x & z)^R} fits LeftOr and RightAnd; it gets one clause,
    # with no pick and no Replace subgoal beside it.
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    engine = Engine(u)
    engine.query(u.join([x, y]), u.meet([x, z]))
    head = _goal(u.join([x, y]), u.meet([x, z]))
    rules = [rule for h, _, rule in clauses_of(engine) if h == head]
    assert rules == [LEFT_OR]
    # a pick is not invertible: {(x & y)^L, (x | z)^R} keeps every clause
    engine.query(u.meet([x, y]), u.join([x, z]))
    head = _goal(u.meet([x, y]), u.join([x, z]))
    rules = [rule for h, _, rule in clauses_of(engine) if h == head]
    assert sorted(rules) == [LEFT_AND, LEFT_AND, RIGHT_OR, RIGHT_OR]


def test_refuted_query_pushes_cut_partners_on_demand(u):
    # S_64 <= T_64 & w, w fresh, under List(x_i) <= y_i: no {x, List(x_i)^R}
    # is derivable, so no partner premise {y_i^L, y} is ever pushed. Pushing
    # both premises of every term expanded 22,366 sequents.
    lst = u.declare("List", "+")
    s, t = sn_tn_terms(u, 64)
    axioms = [(u.app(lst, [u.var(f"x{i}")]), u.var(f"y{i}")) for i in range(8)]
    engine = Engine(u, axioms)
    assert not engine.query(s, u.meet([t, u.var("w")]))
    assert engine.stats().sequents < 18_000


def test_join_pushes_no_partner_for_a_plain_sequents_r_term(u, monkeypatch):
    # The plain {a^L, b^R} from the first query is open when the second,
    # full-rule query puts b^R in L_i of the plain axiom top <= F(a). A cut
    # through b^R would need {F(a)^L, a^L}; the sequent's proof cuts only
    # through a^L, so `_join` does not push that premise.
    from olsub.entail import _SIDE_BIT, _seq

    pushes = []
    join = Engine._join

    def counting(self, x, i, left):
        holders = [h for h in self._holding.get(x, ()) if h not in self.derived]
        n = len(self._to_visit)
        join(self, x, i, left)
        pushed = set(self._to_visit[n:])
        v_l = self._cuts[i][1]
        for h in holders:
            p, q = h >> _ANN_BITS, h & _ANN_MASK
            plain = p < _SIDE_BIT <= q and self._info[p][4] and self._info[q][4]
            if left and plain and x == q and _seq(v_l, p) in pushed:
                pushes.append(h)

    monkeypatch.setattr(Engine, "_join", counting)
    u.declare("F", "+")
    engine = Engine(u, [(u.top(), parse_term("F(a)", u))])
    assert not engine.query(*parse_query("a <= c | b", u))
    assert not engine.query(*parse_query("F(~a) <= b", u))
    assert pushes == []
    assert engine.query(*parse_query("top <= F(a) | b", u))


def test_plain_axiom_probe_keeps_one_term_per_side(u):
    # The refuted S_64 <= T_64 & w (w fresh) under List(x_i) <= y_i holds no
    # ~, so every sequent takes the bounded-lattice rules: no Replace
    # subgoal and no same-side cut premise. The full rule set expanded
    # 15,416 sequents.
    lst = u.declare("List", "+")
    s, t = sn_tn_terms(u, 64)
    axioms = [(u.app(lst, [u.var(f"x{i}")]), u.var(f"y{i}")) for i in range(8)]
    engine = Engine(u, axioms)
    assert not engine.query(s, u.meet([t, u.var("w")]))
    assert engine.stats().sequents < 12_000
    assert all(a[1] != b[1] for a, b in map(elements, engine._visited))


def test_refuted_query_inherits_little_work_from_provable_ones(u):
    # 64 provable S_n <= T_n under List(A) <= B, then the refuted B <= A on
    # the same engine, which expands what they left on the stack. With both
    # cut premises pushed for every term, that was 6,933 sequents.
    lst = u.declare("List", "+")
    a, b = u.var("A"), u.var("B")
    engine = Engine(u, [(u.app(lst, [a]), b)])
    for n in range(2, 129, 2):
        assert engine.query(*sn_tn_terms(u, n))
    before = engine.stats().sequents
    assert not engine.query(b, a)
    assert engine.stats().sequents - before < 1_000


@pytest.mark.parametrize("mode", ["ol", "bl"])
def test_on_demand_cut_partners_match_saturation(mode):
    # Shared engines under 1-4 compound axioms with a constructor on either
    # side, answering provable and refuted queries in turn. A query that
    # stops early leaves partner premises, pushed by `_join` in the middle
    # of propagation, for later queries. The "bl" case draws negation-free
    # terms only, which take the bounded-lattice rules; there the two
    # calculi agree (a bounded lattice embeds in the horizontal sum of it
    # and its dual, an ortholattice).
    rng = random.Random(1808 if mode == "ol" else 1809)
    atoms = ["a", "b", "c", "x", "y"]
    cuts = 0
    for _ in range(120):
        u = TermUniverse()
        symbols = [u.declare("F", "+"), u.declare("G", "-+")]

        def term(budget):
            return random_term(u, rng, budget, atoms, symbols, allow_not=mode == "ol")

        axioms = []
        for _ in range(rng.randint(1, 4)):
            decl = rng.choice(symbols)
            bound = u.app(decl, [term(2) for _ in range(decl.arity)])
            other = term(rng.randint(1, 4))
            axioms.append((bound, other) if rng.random() < 0.5 else (other, bound))
        roots = [term(6) for _ in range(2)]
        terms = roots + [t for pair in axioms for t in pair]
        pool = sorted(set().union(*(u.subterms(t) for t in terms)))
        provable = oracle.saturate(u, roots, axioms)
        yes = sorted((s, t) for (s, sa), (t, sb) in provable if (sa, sb) == ("L", "R"))
        engine = Engine(u, axioms)
        for i in range(60):
            s, t = rng.choice(yes) if i % 2 == 0 else (rng.choice(pool), rng.choice(pool))
            want = ((s, "L"), (t, "R")) in provable
            assert engine.query(s, t) == want, (print_term(u, s), print_term(u, t))
            if want:
                assert verify_proof(u, reconstruct_proof(engine, s, t), axioms)
        cuts += sum(rule == AXIOM_CUT for _, _, rule, _ in engine.clauses)
    assert cuts > 100


# What one engine expands over `class_hierarchy_session(seed)`: its stats,
# its verdicts in order (1 = provable), and sha256 digests of
# `repr(engine.clauses)` and `repr(list(engine.derived.items()))`.
EXPANDED = {
    1: (Stats(sequents=2416, clauses=2185, steps=314, derived=310),
        "1010101010101010101010111010101010101010101010101010101010101010"
        "10101010101010101010101010101011101010101010101010101010",
        "d39b3a61caf32b58d8bffdf371ef2ed1ef8c757263c69e9c4e08467d08601090",
        "0f8ddaa5fa905ee82fe845800f9c23d17e8d29a1d1c18928aed06d0d92e699ab"),
    2: (Stats(sequents=2341, clauses=2019, steps=374, derived=327),
        "1010101010101010101010101010101010101010101010101010101010101010"
        "10101010101010101010111010101010101010101010101010101010",
        "eea97dff16d9f8a95298df0c229a0ed298d544c7d55bcb17bee30cdad1aea8f8",
        "cbac71df587cdabfd0801a0fe822be49039a01e4f4d75ee920aa6bf26f7d9e0a"),
    3: (Stats(sequents=2341, clauses=2059, steps=288, derived=295),
        "1010101010101010101010101010101010101010101010101010101010101010"
        "10101010101010101010101010101010101010101010101010101010",
        "c80f3260df89473ccc9002c7697fd996c8ffd5ac4a7acf4c7e2d870f6e831561",
        "bb6e2e289d1684663aa19752037176e0cbc93a9958c6ed12744c34695918dd88"),
}


def _session_engine(seed: int) -> tuple[Engine, str]:
    u, axioms, goals = class_hierarchy_session(seed)
    engine = Engine(u, axioms)
    return engine, "".join("1" if engine.query(s, t) else "0" for s, t in goals)


@pytest.mark.parametrize("seed", sorted(EXPANDED))
def test_engine_expands_exactly_the_pinned_search(seed):
    # How the engine writes its clauses may change; what it writes may not,
    # unless a change means to: the same clauses in the same order, the
    # same derivations, the same stats and verdicts. Each figure was
    # recorded from the engine, not derived by hand.
    engine, verdicts = _session_engine(seed)
    stats, want, clauses, derived = EXPANDED[seed]
    assert engine.stats() == stats
    assert verdicts == want
    assert hashlib.sha256(repr(engine.clauses).encode()).hexdigest() == clauses
    assert hashlib.sha256(repr(list(engine.derived.items())).encode()).hexdigest() == derived


@pytest.mark.parametrize("seed", sorted(EXPANDED))
def test_every_clause_enters_through_add_clause_or_derive(monkeypatch, seed):
    # One call per clause: `test_interrupted_search_leaves_the_engine_sound`
    # interrupts `_add_clause` to cut expansions short, which tests what it
    # claims only while no clause bypasses it.
    calls = [0]
    for method in ("_add_clause", "_derive"):
        original = getattr(Engine, method)

        def counted(self, *args, original=original):
            calls[0] += 1
            return original(self, *args)

        monkeypatch.setattr(Engine, method, counted)
    engine, _ = _session_engine(seed)
    assert calls[0] == len(engine.clauses) == EXPANDED[seed][0].clauses


@pytest.mark.parametrize("method", ["_expand", "_add_clause"])
def test_interrupted_search_leaves_the_engine_sound(monkeypatch, method):
    # An interrupt on every k-th call of `method` (before an expansion, or in
    # the middle of one) puts the sequent back on the stack; each
    # interrupted query asked again, and every later query, match forward
    # saturation. No expansion here adds k clauses, so a retry gets through.
    rng = random.Random(77)
    atoms = ["a", "b", "x", "y"]
    original = getattr(Engine, method)
    interrupts = 0
    ks = range(16, 56)
    for k in ks:
        u = TermUniverse()
        f = u.declare("F", "+")
        roots = [random_term(u, rng, 6, atoms, [f]) for _ in range(2)]
        axioms = [(u.var(rng.choice(atoms)), u.var(rng.choice(atoms))) for _ in range(2)]
        axioms.append((u.app(f, [u.var("a")]), random_term(u, rng, 3, atoms, [f])))
        terms = roots + [t for pair in axioms for t in pair]
        pool = sorted(set().union(*(u.subterms(t) for t in terms)))
        calls = [0]

        def flaky(self, *args):
            calls[0] += 1
            if calls[0] % k == 0:
                raise KeyboardInterrupt
            return original(self, *args)

        monkeypatch.setattr(Engine, method, flaky)
        engine = Engine(u, axioms)
        for _ in range(60):
            s, t = rng.choice(pool), rng.choice(pool)
            for _attempt in range(20):
                try:
                    got = engine.query(s, t)
                    break
                except KeyboardInterrupt:
                    interrupts += 1
            else:
                pytest.fail("every retry was interrupted")
            assert got == oracle.saturates(u, s, t, axioms)
    assert interrupts > 2 * len(ks)


def test_interrupted_propagation_retires_the_engine(u, monkeypatch):
    # An interrupt inside `_run` after it pops a sequent loses the rest of
    # that sequent's propagation, so the shared engine refuses every later
    # query, one it had already answered too, with a typed error.
    f = u.declare("F", "+")
    fv, t, w = u.app(f, [u.var("v")]), u.var("t"), u.var("w")
    engine = Engine(u, [(fv, t), (u.var("a"), u.var("b"))])
    assert engine.query(u.meet([fv, w]), u.join([t, w]))
    original = Engine._run

    def interrupted(self):
        self._queue.popleft()
        monkeypatch.setattr(Engine, "_run", original)
        raise KeyboardInterrupt

    monkeypatch.setattr(Engine, "_run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        engine.query(fv, t)
    assert Engine._run is original
    for s, goal in ((fv, t), (u.meet([fv, w]), u.join([t, w])), (t, fv)):
        with pytest.raises(EngineInterrupted):
            engine.query(s, goal)
    fresh = Engine(u, engine.axioms)
    assert fresh.query(fv, t) and not fresh.query(t, fv)


def test_wide_meet_stops_at_first_derivation(u):
    xs = [u.var(f"x{i}") for i in range(400)]
    wide = u.meet(xs)
    for i in (0, 17, 399):
        verdict = check(u, wide, xs[i])
        assert verdict.provable
        assert verdict.stats.sequents <= 4 * 400
        assert verdict.stats.derived <= verdict.stats.sequents


def test_lazy_replace_proofs_verify(u):
    for query in ("x & ~x <= y", "x <= y | ~y"):
        s, t = parse_query(query, u)
        engine = Engine(u)
        assert engine.query(s, t)
        proof = reconstruct_proof(engine, s, t)
        rules = set()
        stack = [proof]
        while stack:
            node = stack.pop()
            rules.add(node.rule)
            stack.extend(node.children)
        assert REPLACE in rules, query
        assert verify_proof(u, proof)


def test_term_ids_beyond_the_encoding_are_rejected(u):
    x = u.var("x")
    for bad in (1 << 30, -1):
        with pytest.raises(TermIdOverflow):
            Engine(u).query(bad, x)
        with pytest.raises(TermIdOverflow):
            Engine(u, [(x, bad)])


def test_check_and_leq_refuse_ids_the_universe_does_not_hold(u):
    # -1 would name the last interned term, and an id past the end raises
    # a bare IndexError deep inside. The sequent encoding packs such an id
    # below 2**30, so an engine asks the universe too.
    x = u.var("x")
    for bad in (-1, len(u), 10**6):
        for s, t in ((bad, x), (x, bad)):
            with pytest.raises(TermIdOverflow):
                check(u, s, t)
            with pytest.raises(TermIdOverflow):
                check(u, s, t, [(x, x)])
            with pytest.raises(TermIdOverflow):
                leq(u, s, t)
            with pytest.raises(TermIdOverflow):
                Engine(u).query(s, t)
            with pytest.raises(TermIdOverflow):
                Engine(u, [(s, t)])
    assert check(u, x, x).provable and leq(u, x, x)


def test_sequent_refuses_parts_outside_the_encoding(u):
    # An id of 2**30 or more or a side other than 0 or 1 would pack to
    # another sequent's integer, and a negative id to a negative integer.
    x = u.var("x")
    for parts in ((1 << 30, 0, x, 1), (-1, 0, x, 1), (x, 2, x, 1), (x, 0, x, -1)):
        with pytest.raises(TermIdOverflow):
            sequent(*parts)


def test_verify_rejects_a_cut_through_an_axiom_out_of_range(u):
    # The cited axiom comes from the caller's list, so its ids are checked
    # before they are packed: the verifier answers False and never raises.
    x, y = u.var("x"), u.var("y")
    for bad in ((x, 1 << 30), (-1, y), (x, len(u))):
        cut = _tree(x, "L", y, "R", AXIOM_CUT, [_hyp(x), _hyp(y)], bad)
        assert find_invalid_node(u, cut, [bad]) == "root", bad
        assert not verify_proof(u, cut, [bad])


def test_engine_stays_sound_after_a_failed_query(u):
    # A term id beyond the sequent encoding is refused before the search
    # starts, and later queries still answer.
    x, y = u.var("x"), u.var("y")
    engine = Engine(u)
    bad = (x, 1 << 30)
    with pytest.raises(TermIdOverflow):
        engine.query(*bad)
    assert engine.query(u.meet([x, y]), x)
    assert not engine.query(x, y)
    with pytest.raises(TermIdOverflow):
        engine.query(*bad)


@pytest.mark.parametrize("negated_axioms", [False, True])
def test_plain_sequents_under_plain_axioms_match_saturation(negated_axioms):
    # Shared engines under atom axioms, compound axioms over F(+), G(-,+)
    # and H(o), and complemented pairs (top <= a | b, a & b <= bot),
    # answering plain queries, which take the bounded-lattice rules when
    # every axiom is plain, interleaved with queries holding ~,
    # which keep the full rule set on the same engine. In the second arm
    # some axiom holds ~ (the pairs become ~a <= b and a <= ~b), so every
    # sequent keeps the full rule set; a plain query then needs Replace or
    # a same-side cut premise, as top <= a | b under ~a <= b does.
    rng = random.Random(2020 + negated_axioms)
    atoms = ["a", "b", "c", "x", "y"]
    queries = proofs = 0
    for _ in range(60):
        u = TermUniverse()
        symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]

        def term(budget, allow_not=False):
            return random_term(u, rng, budget, atoms, symbols, allow_not=allow_not)

        axioms = [
            (u.var(rng.choice(atoms)), u.var(rng.choice(atoms))) for _ in range(rng.randint(0, 3))
        ]
        for _ in range(rng.randint(1, 3)):
            decl = rng.choice(symbols)
            bound = u.app(decl, [term(2) for _ in range(decl.arity)])
            other = term(rng.randint(1, 4))
            axioms.append((bound, other) if rng.random() < 0.5 else (other, bound))
        p, q = (u.var(n) for n in rng.sample(atoms, 2))
        complemented = [u.join([p, q]), u.meet([p, q])]
        if negated_axioms:
            axioms += [(u.neg(p), q), (p, u.neg(q))]
        elif rng.random() < 0.7:
            axioms += [(u.top(), complemented[0]), (complemented[1], u.bot())]
        rng.shuffle(axioms)
        plain_roots = [term(6) for _ in range(2)] + complemented + [u.top(), u.bot()]
        negated_roots = [term(6, allow_not=True) for _ in range(2)]
        plain_pool = sorted(set().union(*(u.subterms(r) for r in plain_roots)))
        pool = sorted(set().union(*(u.subterms(r) for r in plain_roots + negated_roots)))
        provable = oracle.saturate(u, plain_roots + negated_roots, axioms)
        engine = Engine(u, axioms)
        for i in range(40):
            if i % 2 == 0:
                s, t = rng.choice(plain_pool), rng.choice(plain_pool)
            else:
                s, t = rng.choice(pool), rng.choice(pool)
            want = ((s, "L"), (t, "R")) in provable
            assert engine.query(s, t) == want, (print_term(u, s), print_term(u, t))
            queries += 1
            if want:
                assert verify_proof(u, reconstruct_proof(engine, s, t), axioms)
                proofs += 1
    assert queries == 60 * 40
    assert proofs > 300
