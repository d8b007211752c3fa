"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -v tests/test_acceptance.py`; the PASS lines print directly
to the terminal (capture is suspended for them). Budgets follow the stated
tolerances; random content is seeded and reproducible.
"""
import random
import time
from dataclasses import dataclass, field

import pytest

import olsub
from olsub import (
    Engine,
    TermUniverse,
    check,
    oracle,
    parse_source,
    parse_term,
    reconstruct_proof,
    verify_proof,
)
from olsub.cli import main as cli_main
from olsub.cli import run_bench, sn_tn_terms
from olsub.defs import desugar
from olsub.normalize import beta, normalize_bl, normalize_ol

from helpers import law_chain, opaque, partition_terms, random_pnnf, random_term

VARS = ["x", "y", "z"]


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


# ----------------------------------------------------------------------
# shared corpora


@dataclass
class Corpus:
    universe: TermUniverse
    entries: list = field(default_factory=list)  # (s, t, axioms, provable)
    check_seconds: float = 0.0
    saturate_seconds: float = 0.0
    disagreements: int = 0


@pytest.fixture(scope="module")
def corpus():
    u = TermUniverse()
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    rng = random.Random(20240)
    pairs = []
    for _ in range(10_000):
        s = random_term(u, rng, 12, VARS, [f, g])
        t = random_term(u, rng, 12, VARS, [f, g])
        axioms = tuple(
            (random_term(u, rng, 5, VARS, [f, g]), random_term(u, rng, 5, VARS, [f, g]))
            for _ in range(rng.randint(0, 2))
        )
        pairs.append((s, t, axioms))
    out = Corpus(u)
    t0 = time.perf_counter()
    verdicts = [check(u, s, t, axioms).provable for (s, t, axioms) in pairs]
    out.check_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    for (s, t, axioms), provable in zip(pairs, verdicts):
        if oracle.saturates(u, s, t, axioms) != provable:
            out.disagreements += 1
        out.entries.append((s, t, axioms, provable))
    out.saturate_seconds = time.perf_counter() - t0
    return out


@dataclass
class LawSuite:
    universe: TermUniverse
    queries: list = field(default_factory=list)  # provable (s, t) pairs
    seconds: float = 0.0


@pytest.fixture(scope="module")
def law_suite():
    u = TermUniverse()
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    h = u.declare("H", "o")
    k = u.declare("K", "o+-")
    x, y, z = u.var("x"), u.var("y"), u.var("z")

    equalities = [
        (u.join([x, y]), u.join([y, x])),                      # V1
        (u.meet([x, y]), u.meet([y, x])),                      # V1'
        (u.join([x, u.join([y, z])]), u.join([u.join([x, y]), z])),   # V2
        (u.meet([x, u.meet([y, z])]), u.meet([u.meet([x, y]), z])),   # V2'
        (u.join([x, x]), x),                                   # V3
        (u.meet([x, x]), x),                                   # V3'
        (u.join([x, u.meet([x, y])]), x),                      # V4
        (u.meet([x, u.join([x, y])]), x),                      # V4'
        (u.join([x, u.top()]), u.top()),                       # V5
        (u.meet([x, u.bot()]), u.bot()),                       # V5'
        (u.join([x, u.bot()]), x),                             # V6
        (u.meet([x, u.top()]), x),                             # V6'
        (u.neg(u.neg(x)), x),                                  # V7
        (u.join([x, u.neg(x)]), u.top()),                      # V8
        (u.meet([x, u.neg(x)]), u.bot()),                      # V8'
        (u.neg(u.join([x, y])), u.meet([u.neg(x), u.neg(y)])),  # V9
        (u.neg(u.meet([x, y])), u.join([u.neg(x), u.neg(y)])),  # V9'
    ]
    assert len(equalities) == 17

    suite = LawSuite(u)
    t0 = time.perf_counter()
    for lhs, rhs in equalities:
        assert check(u, lhs, rhs).provable
        assert check(u, rhs, lhs).provable
        suite.queries.append((lhs, rhs))
        suite.queries.append((rhs, lhs))

    # V10' as a provable inequality, for every declared symbol
    primes = {"x": u.var("x2"), "y": u.var("y2"), "z": u.var("z2")}
    for decl in (f, g, h, k):
        args, bumped = [], []
        for i, variance in enumerate(decl.variances):
            base = u.var(VARS[i % 3] + str(i))
            other = u.var(VARS[i % 3] + str(i) + "b")
            args.append(base)
            if variance is olsub.Variance.COVARIANT:
                bumped.append(u.join([base, other]))
            elif variance is olsub.Variance.CONTRAVARIANT:
                bumped.append(u.meet([base, other]))
            else:
                bumped.append(base)
        lhs, rhs = u.app(decl, args), u.app(decl, bumped)
        assert check(u, lhs, rhs).provable
        suite.queries.append((lhs, rhs))
    del primes

    # V10 as an implication property over sampled pairs
    rng = random.Random(5150)
    engine = Engine(u)
    pool = [random_term(u, rng, 6, VARS) for _ in range(40)]
    strict_seen = 0
    for _ in range(400):
        s, t = rng.choice(pool), rng.choice(pool)
        if not engine.query(s, t):
            continue
        assert engine.query(u.app(f, [s]), u.app(f, [t]))
        assert engine.query(u.app(g, [t, s]), u.app(g, [s, t]))
        if engine.query(t, s):
            assert engine.query(u.app(h, [s]), u.app(h, [t]))
        elif not engine.query(u.app(h, [t]), u.app(h, [s])):
            # invariant argument demands both directions
            assert not engine.query(u.app(h, [s]), u.app(h, [t]))
            strict_seen += 1
    assert strict_seen > 0
    suite.seconds = time.perf_counter() - t0
    return suite


@dataclass
class Sweep:
    bl_universe: TermUniverse
    bl_terms: list
    bl_min: dict
    ol_universe: TermUniverse
    ol_inputs: list
    ol_min: dict
    seconds: float


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    ubl = TermUniverse()
    f = ubl.declare("F", "+")
    bl_terms = sorted(
        oracle.enumerate_terms(ubl, ["x", "y"], [f], 7, negation="none"),
        key=lambda t: (ubl.size(t), t),
    )
    b2 = oracle.boolean2()
    hexagon = oracle.o6()
    models = [
        (hexagon if seed % 2 == 0 else b2,
         oracle.random_interpretation(ubl, hexagon if seed % 2 == 0 else b2,
                                      ["x", "y"], [f], 900 + seed))
        for seed in range(8)
    ]
    classes = partition_terms(ubl, bl_terms, models=models)
    bl_min = {t: ubl.size(cls[0]) for cls in classes for t in cls}

    uol = TermUniverse()
    ol_inputs = sorted(
        oracle.enumerate_terms(uol, ["x", "y"], [], 6, negation="not"),
        key=lambda t: (uol.size(t), t),
    )
    extended = list(oracle.enumerate_terms(uol, ["x", "y"], [], 6, negation="literals"))
    everything = sorted(set(ol_inputs) | set(extended), key=lambda t: (uol.size(t), t))
    models_ol = [
        (hexagon if seed % 2 == 0 else b2,
         oracle.random_interpretation(uol, hexagon if seed % 2 == 0 else b2,
                                      ["x", "y"], [], 700 + seed))
        for seed in range(10)
    ]
    classes_ol = partition_terms(uol, everything, models=models_ol)
    ol_min = {t: uol.size(cls[0]) for cls in classes_ol for t in cls}
    return Sweep(ubl, bl_terms, bl_min, uol, ol_inputs, ol_min, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# criteria


def test_criterion_1_law_suite(law_suite, capsys):
    assert law_suite.seconds < 1.0
    report(
        capsys,
        f"PASS criterion 1: 17 ortholattice laws + monotonicity characterizations "
        f"provable in {law_suite.seconds:.2f}s",
    )


def test_criterion_2_oracle_equivalence(corpus, capsys):
    assert corpus.disagreements == 0
    elapsed = corpus.check_seconds + corpus.saturate_seconds
    assert elapsed < 60.0
    provable = sum(1 for e in corpus.entries if e[3])
    report(
        capsys,
        f"PASS criterion 2: 10000 random pairs, engine vs saturation oracle, "
        f"0 disagreements ({provable} provable) in {elapsed:.1f}s",
    )


def test_criterion_3_finite_model_soundness(corpus, capsys):
    u = corpus.universe
    symbols = [u.symbols["F"], u.symbols["G"]]
    models = []
    for lattice, base in ((oracle.boolean2(), 100), (oracle.o6(), 200)):
        for seed in range(20):
            models.append(
                (lattice, oracle.random_interpretation(u, lattice, VARS, symbols, base + seed))
            )
    caches = [dict() for _ in models]
    violations = 0
    pairs = 0
    for s, t, axioms, provable in corpus.entries:
        if not provable or axioms:
            continue
        pairs += 1
        for (lattice, interp), cache in zip(models, caches):
            vs = oracle.evaluate(u, s, lattice, interp, cache)
            vt = oracle.evaluate(u, t, lattice, interp, cache)
            if not lattice.leq[(vs, vt)]:
                violations += 1
    assert pairs > 100
    assert violations == 0
    report(
        capsys,
        f"PASS criterion 3: {pairs} provable axiom-free pairs sound in B2 and O6 "
        f"under 40 sampled interpretations, 0 violations",
    )


def test_criterion_4_normalization_canonicity(capsys):
    u = TermUniverse()
    rng = random.Random(777)
    failures = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        seed_term = random_term(u, rng, rng.randint(2, 9), VARS)
        chain = law_chain(u, rng, seed_term, VARS, rng.randint(1, 10))
        forms = {normalize_ol(u, m).term for m in chain}
        if len(forms) != 1:
            failures += 1
    assert failures == 0
    report(
        capsys,
        f"PASS criterion 4: 1000 law-rewrite chains normalize to one form each "
        f"({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_5_normalization_minimality(sweep, capsys):
    failures = 0
    for t in sweep.bl_terms:
        if sweep.bl_universe.size(normalize_bl(sweep.bl_universe, t).term) != sweep.bl_min[t]:
            failures += 1
    for t in sweep.ol_inputs:
        if sweep.ol_universe.size(normalize_ol(sweep.ol_universe, t).term) != sweep.ol_min[t]:
            failures += 1
    assert failures == 0
    assert sweep.seconds < 600.0
    report(
        capsys,
        f"PASS criterion 5: exhaustive minimality over {len(sweep.bl_terms)} lattice terms "
        f"(size<=7) and {len(sweep.ol_inputs)} ortholattice terms (size<=6), 0 failures "
        f"(partition {sweep.seconds:.1f}s)",
    )


def test_criterion_6_idempotence_and_equivalence(sweep, capsys):
    failures = 0
    ubl = sweep.bl_universe
    engine_bl = Engine(ubl)  # negation-free terms: the bounded-lattice rules
    for t in sweep.bl_terms:
        n = normalize_bl(ubl, t).term
        if normalize_bl(ubl, n).term != n:
            failures += 1
        if not (engine_bl.query(t, n) and engine_bl.query(n, t)):
            failures += 1
    uol = sweep.ol_universe
    engine_ol = Engine(uol)
    for t in sweep.ol_inputs:
        n = normalize_ol(uol, t).term
        if normalize_ol(uol, n).term != n:
            failures += 1
        if not (engine_ol.query(t, n) and engine_ol.query(n, t)):
            failures += 1
    assert failures == 0
    report(
        capsys,
        f"PASS criterion 6: idempotence and provable equivalence over "
        f"{len(sweep.bl_terms) + len(sweep.ol_inputs)} terms, 0 failures",
    )


def test_criterion_7_scaling(capsys):
    # provability for every even n up to 128, over one shared universe
    u = TermUniverse()
    engine = Engine(u)
    t0 = time.perf_counter()
    for n in range(2, 129, 2):
        s, t = sn_tn_terms(u, n)
        assert engine.query(s, t) and engine.query(t, s)
    sweep_seconds = time.perf_counter() - t0

    rows, slope = run_bench([32, 64, 96, 128])
    assert all(r["provable"] for r in rows)
    assert slope <= 2.3

    wall32 = min(run_bench([32])[0][0]["wall_ms"] for _ in range(3))
    assert wall32 < 100.0
    report(
        capsys,
        f"PASS criterion 7: S_n/T_n provable for all even n<=128 ({sweep_seconds:.1f}s), "
        f"clause-growth slope {slope:.2f} <= 2.3, n=32 query {wall32:.0f}ms < 100ms",
    )


@dataclass
class AxiomExamples:
    universe: TermUniverse
    provable: list  # (s, t, axioms)


@pytest.fixture(scope="module")
def axiom_examples():
    u = TermUniverse()
    a, b, c = u.var("A"), u.var("B"), u.var("C")
    transitivity = [(a, b), (b, c)]
    assert check(u, a, c, transitivity).provable
    assert not check(u, c, a, transitivity).provable

    axioms, definitions = parse_source(
        "fun S : (+)\nfun T : (+)\ntype U[A] <: S(A) & T(S(A))\n", u
    )
    goal = (parse_term("U(x)", u), parse_term("S(x)", u))
    (gs, gt), pairs, _ = desugar(u, definitions, goal, axioms.pairs)
    assert check(u, gs, gt, pairs).provable
    assert not check(u, gt, gs, pairs).provable
    return AxiomExamples(u, [(a, c, tuple(transitivity)), (gs, gt, tuple(pairs))])


def test_criterion_8_axiom_entailment_sanity(axiom_examples, tmp_path, capsys):
    # exit codes as documented: 0 provable, 1 not provable, 2 error
    path = tmp_path / "bounds.ax"
    path.write_text("A <= B\nB <= C\n")
    assert cli_main(["check", "--axioms", str(path), "A <= C"]) == 0
    assert cli_main(["check", "--axioms", str(path), "C <= A"]) == 1
    assert cli_main(["check", "--axioms", str(path), "C <= <="]) == 2
    capsys.readouterr()

    defs_path = tmp_path / "defs.ax"
    defs_path.write_text("fun S : (+)\nfun T : (+)\ntype U[A] <: S(A) & T(S(A))\n")
    assert cli_main(["check", "--axioms", str(defs_path), "U(x) <= S(x)"]) == 0
    assert cli_main(["check", "--axioms", str(defs_path), "S(x) <= U(x)"]) == 1
    capsys.readouterr()
    report(
        capsys,
        "PASS criterion 8: bound transitivity and definition desugaring provable, "
        "converses rejected, exit codes 0/1/2",
    )


def test_criterion_9_proof_objects(law_suite, corpus, axiom_examples, capsys):
    proved = 0

    read_off = 0

    def prove_and_verify(universe, s, t, axioms):
        nonlocal read_off
        proof = reconstruct_proof(Engine(universe, list(axioms)), s, t)
        assert verify_proof(universe, proof, list(axioms))
        if not axioms:  # the proof `explain` reads off the order test
            assert verify_proof(universe, check(universe, s, t).proof())
            read_off += 1

    for s, t in law_suite.queries:
        prove_and_verify(law_suite.universe, s, t, [])
        proved += 1
    for s, t, axioms in axiom_examples.provable:
        prove_and_verify(axiom_examples.universe, s, t, axioms)
        proved += 1
    for s, t, axioms, provable in corpus.entries:
        if provable:
            prove_and_verify(corpus.universe, s, t, axioms)
            proved += 1
    report(
        capsys,
        f"PASS criterion 9: {proved} reconstructed proofs and {read_off} proofs "
        f"read off the order test all accepted by the independent checker",
    )


def test_criterion_10_beta_image_coincidence(capsys):
    u = TermUniverse()
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    rng = random.Random(4242)
    # the bounded-lattice reference: the engine on opaque copies
    ol, bl = Engine(u), Engine(u)
    top, bot = u.top(), u.bot()
    disagreements = 0
    images = 0
    for _ in range(1000):
        t = beta(u, random_pnnf(u, rng, 12, VARS, [f, g]))
        [c] = opaque(u, t)
        images += 1
        if ol.query(top, t) != bl.query(top, c):
            disagreements += 1
        if ol.query(t, bot) != bl.query(c, bot):
            disagreements += 1
    assert disagreements == 0
    report(
        capsys,
        f"PASS criterion 10: {images} beta-image terms, ortholattice and "
        f"bounded-lattice engines agree on top/bottom equivalence",
    )
