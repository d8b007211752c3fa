"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import dataclasses
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from olsub import defs, oracle, syntax, terms  # noqa: E402
from spans import Tracer  # noqa: E402


def _inputs(name, seed):
    rng = random.Random(seed)
    if name == "session":
        h, texts = workloads.session_inputs(rng)
        return h.source, texts
    if name == "families":
        return [(q.text, q.provable, q.refuter) for q in workloads.families_inputs(rng)]
    if name == "normalize":
        return workloads.normalize_inputs(rng, workloads.interpretations(0))
    h, queries = workloads.explain_inputs(rng)
    return h.source, [(q.text, q.provable, axioms) for q, axioms in queries]


@pytest.mark.parametrize("name", ["session", "families", "normalize", "explain"])
def test_generators_are_deterministic_per_seed(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_generated_terms_have_exact_size_and_parse():
    rng = random.Random(1)
    for n in (1, 2, 3, 50, 400):
        t = gen.random_term(rng, n, workloads.NORM_VARIABLES, workloads.NORM_SYMBOLS)
        assert gen.size(t) == n
        u = terms.TermUniverse()
        syntax.parse_source(workloads.NORM_SIGNATURE, u)
        assert u.size(syntax.parse_term(gen.render(t), u)) == n


def _saturates(text, source=""):
    u = terms.TermUniverse()
    axioms, definitions = syntax.parse_source(source, u)
    goal, pairs = syntax.parse_query(text, u), axioms.pairs
    if definitions:
        goal, pairs, _ = defs.desugar(u, definitions, goal, pairs)
    return oracle.saturates(u, *goal, pairs)


@pytest.mark.parametrize("seed", range(3))
def test_constructed_answers_agree_with_saturation(seed):
    rng = random.Random(seed)
    queries = gen.sn_tn_queries(rng, 6) + gen.wide_meet_queries(rng, 5)
    for q in queries:
        assert _saturates(q.text) == q.provable, q.text
        if not q.provable:
            u = terms.TermUniverse()
            assert workloads.refuted_in_b2(u, *syntax.parse_query(q.text, u), q.refuter)
    h = gen.explain_hierarchy(rng)
    for q in gen.explain_queries(rng, h):
        assert _saturates(q.text, h.source) == q.provable, q.text


@pytest.fixture
def small(monkeypatch):
    """Rounds cut down to a fraction of a second each."""
    monkeypatch.setattr(workloads, "SESSION_QUERIES", 12)
    monkeypatch.setattr(workloads, "SN_TN_SIZES", (4, 8))
    monkeypatch.setattr(workloads, "WIDE_SIZES", (5,))
    monkeypatch.setattr(workloads, "NORM_HEADS", 2)
    monkeypatch.setattr(workloads, "NORM_CHAIN_STEPS", 3)
    monkeypatch.setattr(workloads, "EXPLAIN_SN_TN", (4, 8))


def _round(name, rec, tmp_path):
    rng = random.Random(f"test:{name}")
    if name == "session":
        workloads.session_round(rng, rec)
    elif name == "families":
        workloads.families_round(rng, rec)
    elif name == "normalize":
        workloads.normalize_round(rng, rec, workloads.interpretations(0), composed=True)
    else:
        workloads.explain_round(rng, rec, tmp_path)


def _flip_first_reference(name, monkeypatch):
    """Invert the expected answer of the round's first operation, from
    outside the round: the reference verdict (`session`) or the generated
    answer (the others)."""
    def flipped(fn, invert):
        def wrapper(*args):
            out = fn(*args)
            invert(out)
            return out
        return wrapper

    def first_query(queries):
        queries[0] = dataclasses.replace(queries[0], provable=not queries[0].provable)

    def first_group(groups):
        chain, provable = groups[0]
        groups[0] = (chain, not provable)

    def first_explain(out):
        q, with_axioms = out[1][0]
        out[1][0] = (dataclasses.replace(q, provable=not q.provable), with_axioms)

    def first_verdict(verdicts):
        verdicts[0] = not verdicts[0]

    target, invert = {
        "session": ("session_reference", first_verdict),
        "families": ("families_inputs", first_query),
        "normalize": ("normalize_inputs", first_group),
        "explain": ("explain_inputs", first_explain),
    }[name]
    monkeypatch.setattr(workloads, target, flipped(getattr(workloads, target), invert))


@pytest.mark.parametrize("name", ["session", "families", "normalize", "explain"])
def test_a_flipped_reference_counts_as_one_failure(name, small, tmp_path, monkeypatch):
    clean = workloads.Recorder()
    _round(name, clean, tmp_path)
    assert clean.attempted > 0 and clean.failed == 0
    assert clean.positive_ms and clean.negative_ms
    _flip_first_reference(name, monkeypatch)
    flipped = workloads.Recorder()
    _round(name, flipped, tmp_path)
    assert (flipped.attempted, flipped.failed) == (clean.attempted, 1)


def test_traced_round_reports_every_layer(small, tmp_path):
    tracer = Tracer()
    rec = workloads.Recorder(tracer=tracer)
    tracer.install()
    try:
        _round("explain", rec, tmp_path)
        tracer.end_round()
        explain_ops = rec.attempted
        _round("normalize", rec, tmp_path)
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert rec.failed == 0
    metrics = {name: value for name, (value, _) in tracer.layer_metrics().items()}
    zero_here = {"gc.pause_ms"}  # the gc clock is not started in this test
    assert all(v > 0 for k, v in metrics.items() if k not in zero_here), metrics
    assert 0 < metrics["entail.derived_per_expanded"] <= 1
    assert sum(1 for s in tracer.spans if s[0] == "cli.main") == explain_ops
    from olsub import cli
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals
