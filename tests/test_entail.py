import random
import time

import pytest

from olsub import (
    Engine,
    Sequent,
    TermUniverse,
    check,
    normalize,
    oracle,
    parse_query,
    parse_term,
    print_term,
    reconstruct_proof,
    verify_proof,
)
from olsub.cli import sn_tn_terms
from olsub.entail import (
    AXIOM_CUT,
    F_RULE,
    HYP,
    LEFT_AND,
    LEFT_NOT,
    REPLACE,
    RIGHT_NOT,
    RIGHT_OR,
    ProofTree,
    _to_sequent,
    find_invalid_node,
)
from olsub.errors import NegationPresent, NotProvable, TermIdOverflow
from olsub.normalize import beta, delta, leq

from helpers import random_pnnf, random_term


def decoded_clauses(engine):
    """The engine's clauses as (head, body, rule) over `Sequent`s."""
    return [
        (_to_sequent(head), tuple(_to_sequent(p) for p in body), rule)
        for head, body, rule, _ in engine.clauses
    ]


def test_hyp_clause_present(u):
    x = u.var("x")
    engine = Engine(u)
    engine.query(x, x)
    assert any(
        rule == HYP and not body
        for head, body, rule in decoded_clauses(engine)
        if head == Sequent.goal(x, x)
    )


def test_left_and_clauses(u):
    x, y = u.var("x"), u.var("y")
    m = u.meet([x, y])
    engine = Engine(u)
    engine.query(m, x)
    head = Sequent.goal(m, x)
    bodies = {
        body for h, body, rule in decoded_clauses(engine) if h == head and rule == LEFT_AND
    }
    assert (Sequent.goal(x, x),) in bodies
    assert (Sequent.goal(y, x),) in bodies


def test_axiom_cut_clause_shape(u):
    # Atom axioms close sequents from their closure, so the join runs on a
    # chain of compound axioms F(A) <= F(B) <= F(C), F covariant.
    f = u.declare("F", "+")
    a, b, c = (u.app(f, [u.var(n)]) for n in "ABC")
    axioms = [(a, b), (b, c)]
    engine = Engine(u, axioms)
    engine.query(a, c)
    head = Sequent.goal(a, c)
    cut_bodies = [
        body for h, body, rule in decoded_clauses(engine) if h == head and rule == AXIOM_CUT
    ]
    # canonical instance for axiom (B, C): {A^L,C^R} <- {A^L,B^R}, {C^L,C^R}
    assert (Sequent.goal(a, b), Sequent.goal(c, c)) in cut_bodies


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


def test_bl_mode_restriction(u):
    x, y = u.var("x"), u.var("y")
    assert Engine(u, mode="bl").query(u.meet([x, y]), x)
    # negated atoms are opaque in bl mode
    assert not Engine(u, mode="bl").query(u.top(), u.join([x, u.negvar("x")]))
    assert check(u, u.top(), u.join([x, u.negvar("x")])).provable


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
    # the "bl" engine, where negated atoms are opaque, refutes it
    top, x = u.top(), u.var("x")
    assert not Engine(u, mode="bl").query(top, u.join([x, u.negvar("x")]))


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
    # Neither side a literal: the goal is searched, with one alternative per
    # conjunct and one per disjunct. Its subgoals x00..x09 <= x09 | y each
    # have a literal side: one lookup, one goal and one alternative each,
    # and x09's holds.
    searched = check(u, wide, u.join([xs[9], u.var("y")]))
    assert (searched.stats.sequents, searched.stats.derived) == (1 + 10, 1 + 1)
    assert (searched.stats.clauses, searched.stats.steps) == (50 + 2 + 10, 10)


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
        assert proof.sequent == Sequent.goal(s, t)
        premise = proof.children[0].sequent
        assert premise.a == premise.b  # {G, G}
        assert verify_proof(u, proof)


def test_order_proof_peels_negated_variables_and_dual_symbols(u):
    x = u.var("x")
    negvar = u.negvar("x")
    top = u.top()
    proof = check(u, top, u.join([x, negvar])).proof()
    assert _rules(proof) == [REPLACE, RIGHT_OR, RIGHT_OR, RIGHT_NOT, HYP]
    assert proof.children[0].children[0].children[0].sequent == Sequent.of(negvar, "R", x, "R")
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
    assert proof.sequent == Sequent.goal(s, t)
    assert verify_proof(u, proof)


def test_reconstruct_unprovable_raises(u):
    x, y = u.var("x"), u.var("y")
    with pytest.raises(NotProvable):
        reconstruct_proof(Engine(u), x, y)


def test_verify_rejects_wrong_variance_direction(u):
    arrow = u.declare("Arrow", "-+")
    e, b = u.var("e"), u.var("b")
    goal = Sequent.goal(u.app(arrow, [e, b]), u.app(arrow, [e, b]))
    valid = ProofTree(
        goal,
        "F",
        [
            ProofTree(Sequent.goal(e, e), HYP, []),  # contravariant slot
            ProofTree(Sequent.goal(b, b), HYP, []),  # covariant slot
        ],
        "Arrow",
    )
    assert verify_proof(u, valid)
    flipped = ProofTree(
        goal,
        "F",
        [
            ProofTree(Sequent.goal(b, b), HYP, []),  # covariant premise in contra slot
            ProofTree(Sequent.goal(e, e), HYP, []),
        ],
        "Arrow",
    )
    assert not verify_proof(u, flipped)
    assert find_invalid_node(u, flipped) == "root"


def test_verify_rejects_foreign_axiom(u):
    a, b = u.var("A"), u.var("B")
    node = ProofTree(
        Sequent.goal(a, b),
        AXIOM_CUT,
        [
            ProofTree(Sequent.goal(a, a), HYP, []),
            ProofTree(Sequent.goal(b, b), HYP, []),
        ],
        (a, b),
    )
    assert verify_proof(u, node, [(a, b)])
    assert not verify_proof(u, node, [])  # cites an axiom not in the set
    assert not verify_proof(u, node, [(b, a)])


def test_verify_rejects_unknown_rule(u):
    x = u.var("x")
    assert not verify_proof(u, ProofTree(Sequent.goal(x, x), "Magic", []))


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
    # In mode "bl" a term pushes only the cut premise that keeps one term
    # per side; the refuted chain used to expand 2450 same-side sequents.
    # Atom axioms push no cut premises at all, so the chain is F(A0) <= ...
    # <= F(A49), F covariant, whose axioms are joined.
    k = 50
    f = u.declare("F", "+")
    chain = [u.app(f, [u.var(f"A{i}")]) for i in range(k)]
    engine = Engine(u, list(zip(chain, chain[1:])), mode="bl")
    assert not engine.query(chain[-1], chain[0])
    sequents = [_to_sequent(s) for s in engine._visited]
    assert len(sequents) > k
    assert all(seq.a.side != seq.b.side for seq in sequents)
    # the unit rules still close the cut premises: top <= bot proves all
    x, y = u.var("x"), u.var("y")
    engine = Engine(u, [(u.top(), u.bot())], mode="bl")
    assert engine.query(y, x)
    assert all(_to_sequent(s).a.side != _to_sequent(s).b.side for s in engine._visited)


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
    # A search can stop with the cut premises {x, U^R} and {V^L, x} of a
    # term x still unexpanded, after a sequent holding x was expanded; they
    # are pushed only once, so the next query must expand them from the
    # stack. In the first case ("bl" mode) no Replace subgoal reaches them
    # either. Term ids fix the search order, so every variable is created,
    # in this order, before the compound terms.
    u = TermUniverse()
    a, b, c, d, e, f = (u.var(n) for n in "abcdef")
    a_or_f = u.join([a, f])
    engine = Engine(u, [(c, a_or_f), (c, b), (b, d), (d, c), (e, b)], mode="bl")
    assert engine.query(a, a_or_f)
    assert engine.query(b, a_or_f)  # b <= d <= c <= a | f
    u = TermUniverse()
    a, b, c, d, e, f = (u.var(n) for n in "abcdef")
    d_and_c, d_or_f = u.meet([d, c]), u.join([d, f])
    engine = Engine(u, [(b, f), (f, d_and_c), (a, b), (f, d_or_f), (b, d)])
    assert engine.query(b, d_and_c)
    assert engine.query(d_or_f, d)  # f <= d & c <= d


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


def test_bl_engine_refuses_a_negated_axiom(u):
    x, y = u.var("x"), u.var("y")
    with pytest.raises(NegationPresent):
        Engine(u, [(u.neg(x), y)], mode="bl")
    assert Engine(u, [(u.neg(x), y)]).query(u.neg(x), y)


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
    too_big = 1 << 30
    with pytest.raises(TermIdOverflow):
        Engine(u).query(too_big, x)
    with pytest.raises(TermIdOverflow):
        Engine(u, [(x, too_big)])


def test_engine_stays_sound_after_a_failed_query(u):
    # The negation sits below the goal, in the F rule's premise; the query
    # is refused before its search starts, and later queries still answer.
    f = u.declare("F", "+")
    x, y = u.var("x"), u.var("y")
    engine = Engine(u, mode="bl")
    bad = (u.app(f, [x]), u.app(f, [u.neg(x)]))
    with pytest.raises(NegationPresent):
        engine.query(*bad)
    assert engine.query(u.meet([x, y]), x)
    assert not engine.query(x, y)
    with pytest.raises(NegationPresent):
        engine.query(*bad)
