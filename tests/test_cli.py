import json
import re
import sys
import time
from pathlib import Path

import pytest

from olsub import cli, entail
from olsub.cli import fit_loglog_slope, main, run_bench, sn_tn_source, sn_tn_terms
from olsub.terms import TermUniverse

from helpers import expand_json_refs, expand_text_refs, plain_json, plain_text, proof_nodes


def test_check_exit_codes(capsys):
    assert main(["check", "x & y <= x"]) == 0
    assert capsys.readouterr().out.strip() == "provable"
    assert main(["check", "x <= y"]) == 1
    assert capsys.readouterr().out.strip() == "not provable"
    assert main(["check", "x & <= y"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_check_with_axioms_file(tmp_path, capsys):
    path = tmp_path / "f.ax"
    path.write_text("A <= B\nB <= C\n")
    assert main(["check", "--axioms", str(path), "A <= C"]) == 0
    capsys.readouterr()
    assert main(["check", "--axioms", str(path), "C <= A"]) == 1


@pytest.mark.parametrize(
    "argv", [["check", "--axioms", "{}", "x <= y"], ["normalize", "--sig", "{}", "x"]]
)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.ax"
    path.write_bytes(b"\xff\xfe bad")
    assert main([word.format(path) for word in argv]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_check_json_schema(capsys):
    assert main(["check", "--format", "json", "x & y <= x"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "provable"
    for key in ("sequents", "clauses", "steps", "derived", "ms"):
        assert key in payload["stats"]
    assert "proof" not in payload


def test_explain_prints_proof(capsys):
    assert main(["explain", "x & y <= y & x"]) == 0
    out = capsys.readouterr().out
    assert "provable" in out
    assert "RightAnd" in out and "Hyp" in out


def test_proof_json(capsys):
    assert main(["check", "--proof", "--format", "json", "x <= x"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["proof"]["rule"] == "Hyp"
    assert payload["proof"]["sequent"] == [["x", "L"], ["x", "R"]]


def test_proof_takes_one_search(monkeypatch, capsys, tmp_path):
    # An axiom-free proof is read off the order test that decided the
    # query; a query with axioms reads it from the one engine that did.
    engines = []
    init = entail.Engine.__init__

    def counting_init(self, *args, **kwargs):
        engines.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(entail.Engine, "__init__", counting_init)
    assert main(["explain", "--format", "json", "x & y <= y & x"]) == 0
    assert json.loads(capsys.readouterr().out)["proof"]["rule"] == "RightAnd"
    assert len(engines) == 0
    path = tmp_path / "f.ax"
    path.write_text("A <= B\nB <= C\n")
    assert main(["explain", "--axioms", str(path), "--format", "json", "A <= C"]) == 0
    assert json.loads(capsys.readouterr().out)["proof"]["rule"] == "AxiomCut"
    assert len(engines) == 1


@pytest.mark.parametrize("command", ["check", "explain"])
def test_one_check_call_decides_each_query(monkeypatch, capsys, tmp_path, command):
    # `entail.check` alone picks the procedure, and builds the engine of a
    # query with axioms while it runs.
    calls, engines, running = [], [], []
    check, init = entail.check, entail.Engine.__init__

    def tracking_check(*args):
        calls.append(args)
        running.append(True)
        try:
            return check(*args)
        finally:
            running.pop()

    def tracking_init(self, *args, **kwargs):
        engines.append(bool(running))
        init(self, *args, **kwargs)

    monkeypatch.setattr(entail, "check", tracking_check)
    monkeypatch.setattr(entail.Engine, "__init__", tracking_init)
    assert main([command, "x & y <= y & x"]) == 0
    assert len(calls) == 1 and engines == []
    path = tmp_path / "f.ax"
    path.write_text("A <= B\nB <= C\n")
    assert main([command, "--axioms", str(path), "A <= C"]) == 0
    assert len(calls) == 2 and engines == [True]
    capsys.readouterr()


def test_proof_leaves_stats_unchanged(capsys):
    query = "(x | y) & z <= z & (y | x)"
    assert main(["check", "--format", "json", query]) == 0
    plain = json.loads(capsys.readouterr().out)["stats"]
    assert main(["check", "--proof", "--format", "json", query]) == 0
    proved = json.loads(capsys.readouterr().out)["stats"]
    del plain["ms"], proved["ms"]
    assert proved == plain


def test_internal_error_exits_2(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(entail.Engine, "query", broken)
    monkeypatch.setattr(entail, "check", broken)  # the axiom-free path
    assert main(["check", "x <= x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:") and "boom" in captured.err


def test_type_definition_gets_a_symbol_the_input_does_not_declare(tmp_path, capsys):
    # `type T` desugars through a fresh T'; when the input declares T'
    # itself, the fresh symbol is T'' and the input's T' keeps its meaning.
    taken = tmp_path / "taken.ax"
    taken.write_text("fun F : (+)\nfun T' : (+)\nT'(x) <= bot\ntype T[A] <: F(A)\n")
    assert main(["check", "--axioms", str(taken), "T(x) <= bot"]) == 1
    assert capsys.readouterr().out.strip() == "not provable"
    unused = tmp_path / "unused.ax"
    unused.write_text("fun T' : (-)\nfun F : (+)\ntype T[A] <: F(A)\n")
    assert main(["check", "--axioms", str(unused), "T(x) <= F(x)"]) == 0
    assert capsys.readouterr().out.strip() == "provable"
    assert main(["explain", "--show-internals", "--axioms", str(unused), "T(x) <= F(x)"]) == 0
    assert "T''(x)" in capsys.readouterr().out
    assert main(["explain", "--axioms", str(unused), "T(x) <= F(x)"]) == 0
    assert "T''" not in capsys.readouterr().out


def test_normalize_command(capsys):
    assert main(["normalize", "x | (x & y)"]) == 0
    assert capsys.readouterr().out.strip() == "x"
    assert main(["normalize", "x | ~x"]) == 0
    assert capsys.readouterr().out.strip() == "top"
    assert main(["normalize", "--format", "json", "~(x | y)"]) == 0
    assert json.loads(capsys.readouterr().out) == {"term": "~x & ~y", "mode": "ol"}


def test_normalize_mode_and_axiom_errors(tmp_path, capsys):
    assert main(["normalize", "--mode", "bl", "~x | x"]) == 2
    # the command line's own option, not the library's function names
    assert capsys.readouterr().err == "error: --mode bl takes negation-free terms; use --mode ol\n"
    path = tmp_path / "f.ax"
    path.write_text("A <= B\n")
    assert main(["normalize", "--axioms", str(path), "x | x"]) == 2
    capsys.readouterr()
    sig = tmp_path / "sig.ax"
    sig.write_text("fun Arrow : (-,+)\n")
    assert main(["normalize", "--sig", str(sig), "Arrow(x | x, y)"]) == 0
    assert capsys.readouterr().out.strip() == "Arrow(x, y)"


def test_normalize_sig_with_an_axiom_exits_2(tmp_path, capsys):
    sig = tmp_path / "sig.ax"
    sig.write_text("fun F : (+)\nA <= B\n")
    assert main(["normalize", "--sig", str(sig), "F(x)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "may contain only fun declarations" in captured.err


def _alternating(depth: int) -> str:
    """x1 & (x2 | (x3 & ... x{depth})), meets and joins alternating."""
    text = f"x{depth}"
    for i in range(depth - 1, 0, -1):
        text = f"x{i} {'&' if i % 2 else '|'} ({text})"
    return text


@pytest.mark.parametrize(
    "probe", ["nested-not", "nested-parens", "nested-constructor", "alternating-refuted"]
)
def test_deep_input_ends_in_verdict_or_error(tmp_path, capsys, probe):
    # exit 1 would read as "not provable"
    sig = tmp_path / "f.sig"
    sig.write_text("fun F : (+)\n")
    argv = {
        "nested-not": ["normalize", "~" * 3000 + "x"],
        "nested-parens": ["check", "(" * 3000 + "x" + ")" * 3000 + " <= x"],
        "nested-constructor": ["normalize", "--sig", str(sig), "F(" * 600 + "x" + ")" * 600],
        "alternating-refuted": ["check", _alternating(3000) + " <= y"],
    }[probe]
    if probe == "alternating-refuted":
        assert main(argv) == 1
        assert capsys.readouterr().out.split() == ["not", "provable"]
    else:
        assert main(argv) in (0, 2)


def test_deep_nesting_parses_and_prints(tmp_path, capsys):
    assert main(["check", "(" * 3000 + "x" + ")" * 3000 + " <= x"]) == 0
    assert capsys.readouterr().out.split() == ["provable"]
    sig = tmp_path / "f.sig"
    sig.write_text("fun F : (+)\n")
    deep = "F(" * 600 + "x" + ")" * 600
    assert main(["normalize", "--sig", str(sig), deep]) == 0
    assert capsys.readouterr().out == deep + "\n"


def test_long_negation_runs_parse_without_recursion(capsys):
    assert main(["check", "~" * 3000 + "x <= x"]) == 0
    # An odd run is one negation. (Refuting `~^3001 x <= x` is timed below.)
    assert main(["check", "~" * 3001 + "x <= ~x"]) == 0
    assert capsys.readouterr().out.split() == ["provable", "provable"]


@pytest.mark.parametrize("query, code", [("x <= x", 1), ("x <= y | ~y", 0)])
def test_long_negation_runs_are_checked_quickly(capsys, query, code):
    # An odd run is one negation; the Horn engine took about a minute and
    # 3 GB to refute the first and to prove the second.
    started = time.perf_counter()
    assert main(["check", "~" * 3001 + query]) == code
    assert time.perf_counter() - started < 5.0
    assert capsys.readouterr().out.strip() == ("provable" if code == 0 else "not provable")


def test_long_negation_runs_are_explained(capsys):
    query = "~" * 3001 + "x <= ~x"
    assert main(["explain", query]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "provable"
    assert lines[1].endswith(": " + "~" * 3001 + "x^L, ~x^R")
    # one negation step per line, each premise indented under its conclusion
    assert all(line == "  " * i + line.lstrip() for i, line in enumerate(lines[1:]))
    assert lines[-1] == "  " * (len(lines) - 2) + "Hyp: x^L, x^R"
    assert main(["explain", "--format", "json", query]) == 0
    text = capsys.readouterr().out
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)  # the reader recurses once per level
    try:
        node = json.loads(text)["proof"]
    finally:
        sys.setrecursionlimit(limit)
    depth = 0
    while node["children"]:
        assert len(node["children"]) == 1
        node = node["children"][0]
        depth += 1
    assert depth == len(lines) - 2 and node["rule"] == "Hyp"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_long_negation_runs_are_explained_through_a_collapsed_node(capsys, fmt):
    # The engine searched the late {G,G} subgoals last here: 67 s and
    # 3.2 GB. The proof read off the order test peels the negations and
    # closes with one Replace.
    started = time.perf_counter()
    assert main(["explain", "--format", fmt, "~" * 3001 + "x <= y | ~y"]) == 0
    assert time.perf_counter() - started < 5.0
    out = capsys.readouterr().out
    if fmt == "json":
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)  # the reader recurses once per level
        try:
            payload = json.loads(out)
        finally:
            sys.setrecursionlimit(limit)
        assert payload["verdict"] == "provable"
        rules, node = [], payload["proof"]
        while node:
            rules.append(node["rule"])
            node = node["children"][0] if node["children"] else None
    else:
        lines = out.splitlines()
        assert lines[0] == "provable"
        rules = [line.split(":")[0].strip() for line in lines[1:]]
    assert rules[:3001] == ["LeftNot" if i % 2 == 0 else "RightNot" for i in range(3001)]
    assert rules[3001:] == ["Replace", "RightOr", "RightOr", "RightNot", "Hyp"]


GOLDEN_EXPLAIN = [
    json.loads(line)
    for line in Path(__file__).with_name("explain_golden.jsonl").read_text().splitlines()
]


@pytest.mark.parametrize(
    "case",
    GOLDEN_EXPLAIN,
    ids=[" ".join([*c.get("flags", ()), c["query"]]) for c in GOLDEN_EXPLAIN],
)
def test_explain_json_matches_golden_output(tmp_path, capsys, case):
    # One axiom-free query per rule of the order-test reader: the negation
    # rules, LeftOr, RightAnd, LeftBot, F over a contravariant argument
    # (which pins the premises' orientation) and Replace through a
    # collapsed node; and S_n <= T_n at n = 8 and 16, both ways and with
    # one variable of T_n replaced, which pin the order test's tally and
    # the replayed picks. Then engine-route queries, which pin
    # `reconstruct_proof` and the renderer's renaming: an atom-axiom chain
    # unrolled into AxiomCuts, a compound-axiom AxiomCut, the F rule over an
    # atom axiom, negation rules under an axiom, and a `type` definition
    # shown with its hidden symbol renamed and, with `--show-internals`, as
    # it is. Everything but the timing must stay byte for byte.
    argv = ["explain", "--format", "json", *case.get("flags", ())]
    if case["declarations"]:
        path = tmp_path / "decls.ax"
        path.write_text(case["declarations"] + "\n")
        argv += ["--axioms", str(path)]
    assert main(argv + [case["query"]]) == case["code"]
    payload = json.loads(capsys.readouterr().out)
    del payload["stats"]["ms"]
    assert json.dumps(payload) == json.dumps(case["output"])


def test_proof_json_text_matches_json_dumps(capsys):
    query = "(x | y) & ~(z & ~x) <= ~z | (y | x)"
    assert main(["explain", "--format", "json", query]) == 0
    text = capsys.readouterr().out.strip()
    assert text == json.dumps(json.loads(text))


def test_proof_rendering_prints_each_term_once(monkeypatch, capsys, tmp_path):
    # `explain` output, its references expanded, is byte-identical to a
    # plain rendering of the same proof (`ms` aside), and each distinct term
    # of the proof is printed once. The second query's proof shares an
    # AxiomCut subproof, so its output holds a reference.
    pinned = (
        '{"verdict": "provable", "stats": {"sequents": 3, "clauses": 3, "steps": 2, '
        '"derived": 3, "ms": 0}, "proof": {"rule": "RightAnd", "sequent": [["x & y", "L"], '
        '["y & x", "R"]], "children": [{"rule": "LeftAnd", "sequent": [["x & y", "L"], '
        '["y", "R"]], "children": [{"rule": "Hyp", "sequent": [["y", "L"], ["y", "R"]], '
        '"children": []}]}, {"rule": "LeftAnd", "sequent": [["x & y", "L"], ["x", "R"]], '
        '"children": [{"rule": "Hyp", "sequent": [["x", "L"], ["x", "R"]], "children": []}]}]}}'
    )
    assert main(["explain", "--format", "json", "x & y <= y & x"]) == 0
    out = capsys.readouterr().out
    assert re.sub(r'"ms": [0-9.e-]+', '"ms": 0', out.strip()) == pinned
    path = tmp_path / "h.ax"
    path.write_text("fun F : (+)\nA <= B\nB <= C\nC <= D\nF(D) <= E | F(A)\n")
    seen, printed = [], []
    verify, real_print = entail.verify_proof, cli.print_term

    def verifying(u, proof, *args):
        seen.append((u, proof))
        return verify(u, proof, *args)

    def printing(u, t, *args):
        printed.append(t)
        return real_print(u, t, *args)

    monkeypatch.setattr(entail, "verify_proof", verifying)
    monkeypatch.setattr(cli, "print_term", printing)

    for argv in (
        ["(x | y) & ~(z & ~x) <= ~z | (y | x)"],
        ["--axioms", str(path), "F(A) & A <= (E | F(A)) & D"],
    ):
        for fmt in ("json", "text"):
            seen.clear()
            printed.clear()
            assert main(["explain", "--format", fmt] + argv) == 0
            out = capsys.readouterr().out
            (u, proof), = seen
            terms = set()
            for node in proof_nodes(proof):
                terms.update(t for t, _ in entail.elements(node.sequent))
            assert sorted(printed) == sorted(terms)
            if fmt == "json":
                payload = json.loads(out)
                assert out == json.dumps(payload) + "\n"
                payload["proof"] = expand_json_refs(payload["proof"])
                assert json.dumps(payload) == json.dumps({**payload, "proof": plain_json(u, proof)})
            else:
                verdict, *lines = out.splitlines()
                assert [verdict] + expand_text_refs(lines) == ["provable"] + plain_text(u, proof)


def _h_query(k):
    """`H^k(a & b) <= H^k(b & a)`: under `fun H : (o)` each level's F step
    proves both directions of the level below, so the proof as a tree
    doubles per level while its distinct nodes number 2k + 9."""
    return f"{'H(' * k}a & b{')' * k} <= {'H(' * k}b & a{')' * k}"


def _explain(argv, fmt, monkeypatch, capsys):
    """The output of `explain --format fmt` on `argv`, and the universe,
    proof and renaming its renderer was given."""
    rendered, render = [], cli.render_proof

    def recording(u, proof, rename, as_json):
        rendered.append((u, proof, rename))
        return render(u, proof, rename, as_json)

    monkeypatch.setattr(cli, "render_proof", recording)
    assert main(["explain", "--format", fmt, *argv]) == 0
    (seen,) = rendered
    return capsys.readouterr().out, seen


REFERENCE_CASES = [c for c in GOLDEN_EXPLAIN if c["code"] == 0] + [
    {"declarations": "fun H : (o)", "query": _h_query(k)} for k in range(1, 9)
]


@pytest.mark.parametrize(
    "case",
    REFERENCE_CASES,
    ids=[" ".join([*c.get("flags", ()), c["query"]]) for c in REFERENCE_CASES],
)
def test_expanded_references_give_the_proof_written_as_a_tree(tmp_path, monkeypatch, capsys,
                                                               case):
    # Replacing each reference by the subtree it names, with an expander
    # that shares no code with the renderer, gives back the proof written as
    # a tree, byte for byte, in both formats.
    argv = [*case.get("flags", ())]
    if case["declarations"]:
        path = tmp_path / "decls.ax"
        path.write_text(case["declarations"] + "\n")
        argv += ["--axioms", str(path)]
    argv.append(case["query"])
    shared = case["query"].startswith("H(H(")  # only these proofs repeat a node with premises
    out, (u, proof, rename) = _explain(argv, "json", monkeypatch, capsys)
    payload = json.loads(out)
    assert ('"ref"' in out) == shared
    payload["proof"] = expand_json_refs(payload["proof"])
    assert json.dumps(payload) == json.dumps({**payload, "proof": plain_json(u, proof, rename)})
    out, (u, proof, rename) = _explain(argv, "text", monkeypatch, capsys)
    lines = out.splitlines()
    assert lines[0] == "provable"
    assert any(line.lstrip().startswith("= #") for line in lines) == shared
    assert expand_text_refs(lines[1:]) == plain_text(u, proof, rename)


def _entries(proof):
    """Every entry of a rendered JSON proof, in preorder, from an explicit
    stack."""
    stack = [proof]
    while stack:
        entry = stack.pop()
        yield entry
        stack.extend(reversed(entry.get("children", ())))


def test_each_shared_subproof_is_written_once(tmp_path, monkeypatch, capsys):
    # The H^18 proof has 45 distinct nodes; written as a tree it would take
    # over 100 MB of JSON. Each node with premises is written in full once,
    # in either format, and each later occurrence is a reference to it, so
    # the entries number one more than the proof's edges.
    path = tmp_path / "h.ax"
    path.write_text("fun H : (o)\n")
    argv = ["--axioms", str(path), _h_query(18)]
    out, (u, proof, _) = _explain(argv, "json", monkeypatch, capsys)
    nodes = list(proof_nodes(proof))
    internal = [node for node in nodes if node.children]
    assert len(nodes) == 45 and len(out.encode()) < 20_000
    entries = list(_entries(json.loads(out)["proof"]))
    assert len(entries) == 1 + sum(len(node.children) for node in internal)
    assert sum(1 for e in entries if e.get("children")) == len(internal)
    refs = sum(1 for e in entries if "ref" in e)
    assert refs == 2 * (18 - 1)  # the two premises of every level's second F node
    out, _ = _explain(argv, "text", monkeypatch, capsys)
    lines = out.splitlines()[1:]
    assert len(out.encode()) < 20_000 and len(lines) == len(entries)
    assert sum(1 for line in lines if line.lstrip().startswith("= #")) == refs


def test_a_deep_shared_proof_renders(tmp_path, monkeypatch, capsys):
    # H^500: a proof over 500 levels deep that shares subproofs at every
    # level ends in both formats, one entry per edge of the proof.
    path = tmp_path / "h.ax"
    path.write_text("fun H : (o)\n")
    argv = ["--axioms", str(path), _h_query(500)]
    out, (u, proof, _) = _explain(argv, "text", monkeypatch, capsys)
    lines = out.splitlines()[1:]
    edges = sum(len(node.children) for node in proof_nodes(proof))
    assert len(lines) == 1 + edges
    assert max(len(line) - len(line.lstrip()) for line in lines) // 2 > 500
    out, _ = _explain(argv, "json", monkeypatch, capsys)
    assert out.count('{"rule": ') + out.count('{"ref": ') == 1 + edges


def test_long_negation_runs_normalize_without_recursion(capsys):
    assert main(["normalize", "~" * 3000 + "x"]) == 0
    assert main(["normalize", "~" * 3001 + "x"]) == 0
    assert capsys.readouterr().out.split() == ["x", "~x"]


def test_gen_output(capsys):
    assert main(["gen", "sn-tn", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["X1 | X2 <= X2 | X1", "X2 | X1 <= X1 | X2"]
    assert main(["gen", "sn-tn", "3"]) == 2
    capsys.readouterr()
    assert main(["gen", "sn-tn", "4"]) == 0
    out = capsys.readouterr().out
    assert "X3 | X4" in out and "&" in out


def test_gen_matches_recurrence():
    u = TermUniverse()
    s, t = sn_tn_terms(u, 6)
    x = {i: u.var(f"X{i}") for i in (1, 2, 3, 4, 7, 8)}
    assert s == u.meet([u.join([x[1], x[2]]), u.join([x[3], x[4]]), u.join([x[7], x[8]])])
    assert t == u.meet([u.join([x[2], x[1]]), u.join([x[4], x[3]]), u.join([x[8], x[7]])])
    assert sn_tn_source(2) == "X1 | X2 <= X2 | X1\nX2 | X1 <= X1 | X2\n"


def test_bench_small(tmp_path, capsys):
    csv = tmp_path / "report.csv"
    assert main(["bench", "sn-tn", "4,8", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "log-log slope" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,provable,sequents,clauses,wall_ms"
    assert lines[1].startswith("4,true,") and lines[2].startswith("8,true,")
    assert main(["bench", "sn-tn", "3"]) == 2


@pytest.mark.parametrize("sizes", ["a", "", "8..4"])
def test_bench_rejects_a_bad_size_list(sizes, capsys):
    assert main(["bench", "sn-tn", sizes]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err


def test_bench_repeated_size_fits_no_slope(capsys):
    assert main(["bench", "sn-tn", "8,8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in out[1:-1]] == ["8", "8"]
    assert out[-1] == "log-log slope (clauses vs n): 0.000"


def test_fit_loglog_slope_exact():
    xs = [2, 4, 8, 16]
    ys = [x * x for x in xs]
    assert abs(fit_loglog_slope(xs, ys) - 2.0) < 1e-9


def test_run_bench_rows():
    rows, slope = run_bench([4, 8])
    assert all(r["provable"] for r in rows)
    assert rows[0]["wall_ms"] < 50.0
    assert slope > 0
