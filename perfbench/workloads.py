"""The four workloads: seeded rounds of inputs, the timed calls, and the checks.

A round is the unit of work: its inputs come from `gen` and a round seed,
set-up builds a fresh `TermUniverse` (so no cache survives from an earlier
round), the operations run one at a time in a closed loop, and the answers
are checked afterwards against references that do not come from the code
under test. Program calls go through module attributes (`entail.check`, ...)
so that the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from time import perf_counter_ns

from olsub import cli, entail, normalize, oracle, syntax, terms

import gen


# Speed reference. The host's speed drifts by up to 2x over seconds (shared
# cores), which no median over one run can hide. So every time is scaled by
# REFERENCE_MS / (the reference loop's time measured next to it): times read
# as they would on a host where the loop takes REFERENCE_MS. The loop is plain
# Python that never calls olsub, so no change to the program can move it.
REFERENCE_ITERATIONS = 3000
REFERENCE_MS = 1.0
SAMPLE_EVERY_NS = 20_000_000  # of operation time between two speed samples

# Set-up times per round, each over back-to-back set-ups lasting at least
# SETUP_SAMPLE_NS, since some take under a millisecond.
SETUP_SAMPLES = 4
SETUP_SAMPLE_NS = 5_000_000


_REFERENCE_SLOTS = [0] * REFERENCE_ITERATIONS


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


_REFERENCE_PAIR = _Pair(3, 5)


def _mix(x: int, y: int) -> int:
    return (x + y) & 0xFFFF


def reference_loop() -> int:
    """Dict traffic, list stores, attribute reads and calls on ints. It
    allocates no object the collector tracks, so taking a sample does not
    shift the program's collections."""
    counts: dict[int, int] = {}
    slots = _REFERENCE_SLOTS
    pair = _REFERENCE_PAIR
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        k = (i * 7919) & 4095
        if k in counts:
            counts[k] += 1
        else:
            counts[k] = 1
        slots[i] = k ^ i
        acc = _mix(acc, pair.a) ^ pair.b
    return len(counts) + acc


def speed_sample_ms() -> float:
    """Time of one reference loop, with the collector paused so that the
    program's heap cannot add a collection to it."""
    gc.disable()
    try:
        started = perf_counter_ns()
        reference_loop()
        return (perf_counter_ns() - started) / 1e6
    finally:
        gc.enable()


@dataclass
class Recorder:
    """Timings and verdicts of one run, across its rounds.

    `raw_ns` is the wall time of the operations; every other time is scaled
    to reference speed."""

    tracer: object = None
    setups_s: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    positive_ms: list = field(default_factory=list)
    negative_ms: list = field(default_factory=list)
    raw_op_ms: list = field(default_factory=list)
    raw_ns: int = 0
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)  # (ns, speed sample before) per op
    samples: list = field(default_factory=list)  # this round's speed samples, ms
    since_sample_ns: int = 0

    @property
    def timed_s(self) -> float:
        return sum(self.op_ms) / 1e3

    @contextlib.contextmanager
    def traced(self):
        """Trace what runs inside; reference checks run outside, untraced."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = True
        try:
            yield
        finally:
            self.tracer.active = False

    def setup(self, build):
        """Time `build` SETUP_SAMPLES times, each time over as many calls as
        fill SETUP_SAMPLE_NS; keep the last result. A traced round builds
        once, so that the layer times hold one set-up per round."""
        samples, sample_ns = SETUP_SAMPLES, SETUP_SAMPLE_NS
        if self.tracer is not None:
            self.tracer.op = -1
            samples, sample_ns = 1, 0
        result = None
        for _ in range(samples):
            result = None
            calls = 0
            before = speed_sample_ms()
            with self.traced():
                started = perf_counter_ns()
                while not calls or perf_counter_ns() - started < sample_ns:
                    result = build()
                    calls += 1
                elapsed = perf_counter_ns() - started
            speed = (before + speed_sample_ms()) / 2
            self.setups_s.append(elapsed / calls / 1e9 * REFERENCE_MS / speed)
        return result

    def op(self, fn, *args, fresh_heap=False):
        """One timed operation: (result, None, ms) or (None, exception, ms),
        with the wall time in ms. `fresh_heap` collects the garbage of
        earlier operations first, as a new process would start without it."""
        if fresh_heap:
            gc.collect()
        if not self.samples:
            self.samples.append(speed_sample_ms())
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.attempted + len(self.pending)
        with self.traced():
            started = perf_counter_ns()
            try:
                result, error = fn(*args), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            elapsed = perf_counter_ns() - started
        if tracer is not None:
            tracer.end_op()
        self.raw_ns += elapsed
        self.pending.append((elapsed, len(self.samples) - 1))
        self.since_sample_ns += elapsed
        if self.since_sample_ns >= SAMPLE_EVERY_NS:
            self.samples.append(speed_sample_ms())
            self.since_sample_ns = 0
        return result, error, elapsed / 1e6

    def judge(self, verdicts) -> None:
        """Record the pending operations in order: (ok, expected_positive) each.

        An operation's speed is the mean of the samples on either side of it
        (the one before, for operations after the round's last sample)."""
        verdicts = list(verdicts)
        if len(verdicts) != len(self.pending):
            raise RuntimeError("every timed operation needs exactly one verdict")
        samples = self.samples
        for (elapsed, j), (ok, positive) in zip(self.pending, verdicts):
            speed = (samples[j] + samples[j + 1]) / 2 if j + 1 < len(samples) else samples[j]
            ms = elapsed / 1e6 * REFERENCE_MS / speed
            self.raw_op_ms.append(elapsed / 1e6)
            self.op_ms.append(ms)
            (self.positive_ms if positive else self.negative_ms).append(ms)
            self.attempted += 1
            self.failed += not ok
        self.pending = []
        self.samples = []
        self.since_sample_ns = 0


def refuted_in_b2(universe, s, t, valuation) -> bool:
    """Whether `valuation` certifies s </= t in the two-element Boolean
    lattice (s evaluates to 1, t to 0); B2 is an ortholattice, so this
    refutes the query."""
    b2 = oracle.boolean2()
    interp = oracle.Interpretation(valuation=valuation)
    return (oracle.evaluate(universe, s, b2, interp) == 1
            and oracle.evaluate(universe, t, b2, interp) == 0)


# ----------------------------------------------------------------------
# session: one Engine answers a stream of queries under a nominal hierarchy

SESSION_QUERIES = 120


def session_inputs(rng: random.Random):
    h = gen.session_hierarchy(rng)
    return h, gen.session_queries(rng, h, SESSION_QUERIES)


def session_round(rng: random.Random, rec: Recorder) -> None:
    h, texts = session_inputs(rng)

    def build():
        u = terms.TermUniverse()
        axioms, _ = syntax.parse_source(h.source, u)
        goals = [syntax.parse_query(q, u) for q in texts]
        return goals, entail.Engine(u, axioms)

    goals, engine = rec.setup(build)
    answers = [rec.op(engine.query, s, t) for s, t in goals]
    expected = session_reference(h, texts)
    rec.judge(
        (error is None and answer == want, want)
        for (answer, error, _), want in zip(answers, expected)
    )


def session_reference(h, texts) -> list[bool]:
    """Verdicts of the saturation oracle, in a universe of their own."""
    u = terms.TermUniverse()
    axioms, _ = syntax.parse_source(h.source, u)
    out = []
    for q in texts:
        s, t = syntax.parse_query(q, u)
        out.append(oracle.saturates(u, s, t, axioms.pairs))
    return out


# ----------------------------------------------------------------------
# families: one-shot check calls on the paper's scaling families

SN_TN_SIZES = range(16, 65, 4)
WIDE_SIZES = range(50, 201, 10)
BASELINE_N = (16, 32, 64)


def families_inputs(rng: random.Random) -> list:
    queries = []
    for n in SN_TN_SIZES:
        queries += gen.sn_tn_queries(rng, n)
    for k in WIDE_SIZES:
        queries += gen.wide_meet_queries(rng, k)
    rng.shuffle(queries)
    return queries


def families_round(rng: random.Random, rec: Recorder) -> None:
    queries = families_inputs(rng)

    def build():
        goals = []
        for q in queries:
            u = terms.TermUniverse()
            goals.append((u, *syntax.parse_query(q.text, u)))
        return goals

    goals = rec.setup(build)
    # Each query is a one-shot CLI call, which runs in a fresh process.
    results = [rec.op(entail.check, u, s, t, fresh_heap=True) for u, s, t in goals]
    verdicts = []
    clauses: dict[int, int] = {}
    for q, (u, s, t), (verdict, error, _) in zip(queries, goals, results):
        ok = error is None and verdict.provable == q.provable
        if ok and not q.provable:
            ok = refuted_in_b2(u, s, t, q.refuter)
        verdicts.append((ok, q.provable))
        if error is None and q.family == "sn-tn" and q.n in BASELINE_N:
            clauses[q.n] = clauses.get(q.n, 0) + verdict.stats.clauses
    rec.judge(verdicts)
    rec.extra["sn_tn_clauses"] = clauses  # both directions, summed, of this round


# ----------------------------------------------------------------------
# normalize: equivalence of large mixed terms decided by their normal forms

NORM_VARIABLES = [f"v{i}" for i in range(6)]
FRESH = "w"  # occurs only in the odd member of a refuted group
NORM_SYMBOLS = {"F": 1, "G": 2, "H": 1}
NORM_SIGNATURE = "fun F : (+)\nfun G : (-,+)\nfun H : (o)\n"
NORM_HEADS = 6
NORM_CHAIN_STEPS = 5


def interpretations(seed: int) -> list:
    """Two sampled interpretations in B2 and two in O6, with monotone tables
    for F(+), G(-,+) and H(o)."""
    decls = [terms.SymbolDecl("F", 1, (terms.Variance.COVARIANT,)),
             terms.SymbolDecl("G", 2, (terms.Variance.CONTRAVARIANT, terms.Variance.COVARIANT)),
             terms.SymbolDecl("H", 1, (terms.Variance.INVARIANT,))]
    rng = random.Random(seed)
    out = []
    for lattice in (oracle.boolean2(), oracle.boolean2(), oracle.o6(), oracle.o6()):
        valuation = {v: rng.choice(lattice.elements) for v in NORM_VARIABLES + [FRESH]}
        tables = {d.name: oracle.sample_monotone_tables(lattice, d, rng.randrange(1 << 30))
                  for d in decls}
        out.append((lattice, oracle.Interpretation(valuation, tables)))
    return out


def _odd_one_out(head: tuple, last: tuple, interps) -> tuple:
    """`last & w` or `last | w` for the fresh variable `w`, whichever some B2
    valuation proves different from `head` (which `last` is equivalent to);
    the valuation is checked here, by the benchmark's own evaluator."""
    lattice, interp = interps[0]
    for bits in itertools.product(lattice.elements, repeat=len(NORM_VARIABLES)):
        valuation = dict(zip(NORM_VARIABLES, bits))
        if gen.evaluate(head, lattice, valuation, interp.fn_tables, {}) == lattice.top:
            odd, valuation[FRESH] = ("&", last, gen.var(FRESH)), lattice.bot
            break
    else:
        odd, valuation[FRESH] = ("|", last, gen.var(FRESH)), lattice.top
    value = gen.evaluate(odd, lattice, valuation, interp.fn_tables, {})
    if value == gen.evaluate(head, lattice, valuation, interp.fn_tables, {}):
        raise RuntimeError("the odd member must differ from the head")
    return odd


def normalize_inputs(rng: random.Random, interps) -> list[tuple[list, bool]]:
    """NORM_HEADS groups, head sizes stratified over 100..400 on a log
    scale (small terms are cheap, so a run sees more of them). A group is a
    random head and NORM_CHAIN_STEPS law rewrites of it, all equivalent
    (expected answer: provable). In half the groups, drawn at random, the
    last rewrite is met or joined with a fresh variable so that it is not
    equivalent to the head (expected answer: refuted)."""
    refuted = [False, True] * (NORM_HEADS // 2)
    rng.shuffle(refuted)
    groups = []
    for i in range(NORM_HEADS):
        n = int(100 * 4 ** ((i + rng.random()) / NORM_HEADS))
        head = gen.random_term(rng, n, NORM_VARIABLES, NORM_SYMBOLS)
        chain = gen.law_chain(rng, head, NORM_VARIABLES, NORM_CHAIN_STEPS)
        if refuted[i]:
            chain[-1] = _odd_one_out(head, chain[-1], interps)
        groups.append((chain, not refuted[i]))
    return groups


def _normal_forms(u, group):
    out = []
    for t in group:
        nf = normalize.normalize_ol(u, t)
        out.append((nf.term, syntax.print_term(u, nf.term)))
    return out


def normalize_round(rng: random.Random, rec: Recorder, interps, composed=False) -> None:
    """One operation per group: normalize and print every member; the group
    is equivalent exactly when all forms are identical."""
    groups = normalize_inputs(rng, interps)
    texts = [[gen.render(m) for m in chain] for chain, _ in groups]

    def build():
        u = terms.TermUniverse()
        syntax.parse_source(NORM_SIGNATURE, u)
        return u, [[syntax.parse_term(text, u) for text in group] for group in texts]

    u, parsed = rec.setup(build)
    first_op = rec.attempted
    results = [rec.op(_normal_forms, u, group) for group in parsed]
    verdicts = []
    sizes = rec.extra.setdefault("sizes", [0, 0])
    for (chain, provable), (result, error, _) in zip(groups, results):
        if error is not None:
            verdicts.append((False, provable))
            continue
        forms = [form for form, _ in result]
        ok = len(set(forms[:-1])) == 1 and (forms[-1] == forms[0]) == provable
        for lattice, interp in interps:
            memo = {}
            for member, form in zip(chain, forms):
                want_value = gen.evaluate(member, lattice, interp.valuation, interp.fn_tables, memo)
                ok = ok and oracle.evaluate(u, form, lattice, interp) == want_value
        for member, form in zip(chain, forms):
            ok = ok and u.size(form) <= gen.size(member)
            sizes[0] += gen.size(member)
            sizes[1] += u.size(form)
        verdicts.append((ok, provable))
    if composed:
        verdicts = _check_composed(rec, texts, results, verdicts, first_op)
    rec.judge(verdicts)


def _check_composed(rec, texts, results, verdicts, first_op):
    """delta, beta, zeta and eta called in sequence on a fresh universe must
    give normalize_ol's forms (compared as printed text)."""
    fresh = terms.TermUniverse()
    syntax.parse_source(NORM_SIGNATURE, fresh)
    out = []
    for gi, (group, (result, error, _), (ok, positive)) in enumerate(
            zip(texts, results, verdicts)):
        if rec.tracer is not None:
            rec.tracer.op = first_op + gi
        same = error is None
        for i, text in enumerate(group):
            term = syntax.parse_term(text, fresh)
            with rec.traced():
                for step in (normalize.delta, normalize.beta, normalize.zeta, normalize.eta):
                    term = step(fresh, term)
            same = same and syntax.print_term(fresh, term) == result[i][1]
        out.append((ok and same, positive))
    return out


# ----------------------------------------------------------------------
# explain: the CLI's proof path, in-process

EXPLAIN_SN_TN = range(8, 33, 2)


def explain_inputs(rng: random.Random):
    h = gen.explain_hierarchy(rng)
    queries = [(q, False) for n in EXPLAIN_SN_TN for q in gen.sn_tn_queries(rng, n)]
    queries += [(q, True) for q in gen.explain_queries(rng, h)]
    rng.shuffle(queries)
    return h, queries


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def explain_round(rng: random.Random, rec: Recorder, workdir) -> None:
    h, queries = explain_inputs(rng)
    axiom_path = workdir / "hierarchy.ax"
    axiom_path.write_text(h.source, encoding="utf-8")

    def build():  # the axiom file every hierarchy call loads
        u = terms.TermUniverse()
        syntax.parse_source(axiom_path.read_text(encoding="utf-8"), u)

    rec.setup(build)
    results = []
    for q, with_axioms in queries:
        argv = ["explain", "--format", "json"]
        if with_axioms:
            argv += ["--axioms", str(axiom_path)]
        results.append(rec.op(run_cli, argv + [q.text], fresh_heap=True))
    verdicts = []
    for (q, with_axioms), (result, error, _) in zip(queries, results):
        ok = error is None and _explain_ok(h, q, with_axioms, *result)
        verdicts.append((ok, q.provable))
    rec.judge(verdicts)


def _explain_ok(h, q, with_axioms, code, out) -> bool:
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    u = terms.TermUniverse()
    if with_axioms:
        syntax.parse_source(h.source, u)  # declares the constructors and Box
    s, t = syntax.parse_query(q.text, u)
    if not q.provable:
        if code != 1 or payload.get("verdict") != "not provable" or "proof" in payload:
            return False
        return q.refuter is not None and refuted_in_b2(u, s, t, q.refuter)
    if code != 0 or payload.get("verdict") != "provable" or "proof" not in payload:
        return False
    (left, lside), (right, rside) = payload["proof"]["sequent"]
    if q.family == "hier-box":
        # Box(a) is shown desugared: its bound, met with the opaque Box(a).
        arg = q.text[len("Box("):q.text.index(")")]
        s = syntax.parse_term(f"(List({arg}) & B0) & Box({arg})", u)
    return (lside, rside) == ("L", "R") and (
        syntax.parse_term(left, u), syntax.parse_term(right, u)) == (s, t)

