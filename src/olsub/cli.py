"""Command-line front end.

    olsub check [--axioms FILE] [--proof] [--format text|json] "S <= T"
    olsub explain [--axioms FILE] "S <= T"        # check --proof
    olsub normalize [--mode ol|bl] [--sig FILE] "TERM"
    olsub gen sn-tn N
    olsub bench sn-tn N[,N...] [--csv PATH]

Exit codes: 0 provable (or success), 1 not provable, 2 error (an internal
error included).

`check` and `explain` hand a query to `entail.check`, which picks the
procedure, and print the proof `Verdict.proof()` reads off it, in either
`--format`, through `render_proof`: one walk that writes each shared
subproof once and refers back to it after that. `bench`
runs the Horn engine itself, since it reports the engine's clause growth.

`main` parses a call whose first word names a command with that command's
parser alone (`build_parser(command)`, one `ArgumentParser`), whose usage,
help and error text are those the full parser prints for the command. It
builds the full parser, `olsub` with all five subcommands, only where its
own text is the output: a first word that names no command (no arguments,
`-h`, `--`, an option or a typo), or words the command's parser left over,
which the full parser reports as unrecognized. Nothing is cached: every
call builds its parser, so a one-shot process saves as much as a loop of
calls.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import defs as defs_mod
from . import entail, normalize
from .errors import (
    AxiomsNotSupported,
    BadEncoding,
    BadN,
    InputTooDeep,
    NegationPresent,
    OlsubError,
)
from .syntax import AxiomSet, parse_query, parse_source, parse_term, print_term
from .terms import TermUniverse


def _query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("query", help='query of the form "S <= T"')
    p.add_argument("--axioms", help="source file with declarations and axioms")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--show-internals", action="store_true", dest="show_internals",
                   help="display fresh symbols introduced by type definitions")


def _check_args(p: argparse.ArgumentParser) -> None:
    _query_args(p)
    p.add_argument("--proof", action="store_true", help="print a checked proof")


def _normalize_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("term", help="term to normalize")
    p.add_argument("--mode", choices=["ol", "bl"], default="ol")
    p.add_argument("--sig", help="source file with symbol declarations only")
    p.add_argument("--axioms", help=argparse.SUPPRESS)  # rejected: axiom-free op
    p.add_argument("--format", choices=["text", "json"], default="text")


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=["sn-tn"])
    p.add_argument("n", type=int)


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=["sn-tn"])
    p.add_argument("sizes", help="comma list and/or A..B ranges, e.g. 8,16 or 8..32")
    p.add_argument("--csv", help="write the CSV report to a file")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the subcommand `command` alone, as `olsub command`, or
    the full `olsub` parser with all five subcommands when `command` names
    none of them."""
    if command in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"olsub {command}")
        _COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="olsub",
        description="Subtyping and normalization over ortholattices with "
        "variance-annotated type constructors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed as the full parser parses it, by the parser of the
    command its first word names where that parser takes every word."""
    command = argv[0] if argv else None
    if command in _COMMANDS:
        args, extra = build_parser(command).parse_known_args(argv[1:])
        if not extra:
            args.command = command
            return args
    return build_parser().parse_args(argv)


# ----------------------------------------------------------------------
# the S_n / T_n family: both sides differ only by permuted disjuncts


def sn_tn_terms(universe: TermUniverse, n: int):
    """Terms S_n and T_n: S_2 = X1|X2, S_{n+2} = S_n & (X_{2n-1}|X_{2n});
    T permutes each disjunct pair."""
    if n < 2 or n % 2 != 0:
        raise BadN(f"family index must be even and >= 2, got {n}")
    u = universe
    s = u.join([u.var("X1"), u.var("X2")])
    t = u.join([u.var("X2"), u.var("X1")])
    k = 2
    while k < n:
        a = u.var(f"X{2 * k - 1}")
        b = u.var(f"X{2 * k}")
        s = u.meet([s, u.join([a, b])])
        t = u.meet([t, u.join([b, a])])
        k += 2
    return s, t


def sn_tn_source(n: int) -> str:
    u = TermUniverse()
    s, t = sn_tn_terms(u, n)
    return f"{print_term(u, s)} <= {print_term(u, t)}\n{print_term(u, t)} <= {print_term(u, s)}\n"


# ----------------------------------------------------------------------
# commands


def _load_axioms(path: str | None, universe: TermUniverse):
    if path is None:
        return AxiomSet(), []
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_source(text, universe)


def cmd_check(args) -> int:
    universe = TermUniverse()
    axioms, definitions = _load_axioms(args.axioms, universe)
    s, t = parse_query(args.query, universe)
    hidden: dict[str, str] = {}
    pairs = list(axioms.pairs)
    if definitions:
        (s, t), pairs, hidden = defs_mod.desugar(universe, definitions, (s, t), pairs)
    rename = {} if args.show_internals else hidden
    started = time.perf_counter()
    verdict = entail.check(universe, s, t, pairs)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    provable = verdict.provable
    proof = None
    want_proof = args.command == "explain" or getattr(args, "proof", False)
    if provable and want_proof:
        proof = verdict.proof()
        if not entail.verify_proof(universe, proof, pairs):
            print("internal error: proof failed verification", file=sys.stderr)
            return 2
    if args.format == "json":
        payload = {
            "verdict": "provable" if provable else "not provable",
            "stats": {**verdict.stats._asdict(), "ms": round(elapsed_ms, 3)},
        }
        text = json.dumps(payload)
        if proof is not None:
            text = f'{text[:-1]}, "proof": {render_proof(universe, proof, rename, True)}}}'
        print(text)
    else:
        print("provable" if provable else "not provable")
        if proof is not None:
            print(render_proof(universe, proof, rename, False))
    return 0 if provable else 1


def render_proof(universe, proof, rename, as_json: bool) -> str:
    """The proof as `--format` text, a line per entry indented two spaces a
    level, or JSON, `{"rule", "sequent", "children"}` per entry, from one
    walk on an explicit stack of nodes and the text between them, so any
    depth renders. Entries are numbered in preorder from the root's 0, so in
    text entry N is the proof's line N. A node with premises is written in
    full at its first occurrence and as `{"ref": N}` or `= #N`, N that
    entry's number, after that; a leaf is written each time. Each distinct
    term is printed once, and each element's and rule's written form is
    built once."""
    parts: list[str] = []
    terms: dict[int, str] = {}  # term id -> its printed form (a JSON string in JSON)
    shown: dict[int, str] = {}  # annotated element -> its written form
    heads: dict = {}  # rule, or (F, symbol) -> an entry's text up to its sequent
    first: dict[int, int] = {}  # id of a node with premises -> its entry's number
    quote, ref, leaf_end, open_end = (
        (json.dumps, '{{"ref": {}}}', '], "children": []}', '], "children": [') if as_json
        else (str, "= #{}", "", ""))
    indent = "\n"  # in text, the line break and indent before the entry being written
    n = -1  # the number of the entry being written
    stack: list = [proof]  # nodes to write, and text to write as it is
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            parts.append(indent := node)
            continue
        n += 1
        kids = node.children
        if kids:
            at = first.setdefault(id(node), n)
            if at != n:
                parts.append(ref.format(at))
                continue
        rule = node.rule
        key = (rule, node.aux) if rule == entail.F_RULE else rule
        head = heads.get(key)
        if head is None:
            head = heads[key] = (f'{{"rule": {json.dumps(rule)}, "sequent": [' if as_json
                                 else f"F[{node.aux}]: " if rule == entail.F_RULE else f"{rule}: ")
        s = node.sequent
        pair = []
        for ann in (s >> entail._ANN_BITS, s & entail._ANN_MASK):  # L before R
            text = shown.get(ann)
            if text is None:
                t = ann & entail._TID_MASK
                term = terms.get(t)
                if term is None:
                    term = terms[t] = quote(print_term(universe, t, rename))
                side = "LR"[ann >> entail._TID_BITS]
                text = shown[ann] = f'[{term}, "{side}"]' if as_json else f"{term}^{side}"
            pair.append(text)
        parts.append(f"{head}{pair[0]}, {pair[1]}{open_end if kids else leaf_end}")
        if not kids:
            continue
        if as_json:
            stack.append("]}")
            for child in kids[:0:-1]:  # pushed last first, to pop in order with commas between
                stack += (child, ", ")
            stack.append(kids[0])
        else:
            below = indent + "  "
            for child in kids[::-1]:
                stack += (child, below)
    return "".join(parts)


def cmd_normalize(args) -> int:
    if args.axioms:
        raise AxiomsNotSupported("normal forms are axiom-free; drop --axioms")
    universe = TermUniverse()
    if args.sig:
        axioms, definitions = _load_axioms(args.sig, universe)
        if axioms.pairs or definitions:
            raise AxiomsNotSupported("--sig file may contain only fun declarations")
    term = parse_term(args.term, universe)
    if args.mode == "bl":
        try:
            result = normalize.normalize_bl(universe, term)
        except NegationPresent:
            raise NegationPresent("--mode bl takes negation-free terms; use --mode ol") from None
    else:
        result = normalize.normalize_ol(universe, term)
    rendered = print_term(universe, result.term)
    if args.format == "json":
        print(json.dumps({"term": rendered, "mode": result.mode}))
    else:
        print(rendered)
    return 0


def cmd_gen(args) -> int:
    sys.stdout.write(sn_tn_source(args.n))
    return 0


def _parse_sizes(spec: str) -> list[int]:
    """The sizes of a comma list of N and A..B (every second N from A to B)."""
    sizes: list[int] = []
    for chunk in spec.split(","):
        lo, dots, hi = chunk.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            raise BadN(f"size {chunk.strip()!r} is not an integer or an A..B range") from None
        if lo > hi:
            raise BadN(f"size range {chunk.strip()!r} is empty")
        sizes.extend(range(lo, hi + 1, 2))
    return sizes


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    var = sum((a - mx) ** 2 for a in lx)
    return cov / var


def run_bench(sizes) -> tuple[list[dict], float]:
    rows = []
    for n in sizes:
        universe = TermUniverse()
        s, t = sn_tn_terms(universe, n)
        started = time.perf_counter()
        # The Horn engine itself, not `check`: this measures its clause growth.
        engines = [entail.Engine(universe), entail.Engine(universe)]
        verdicts = [engines[0].query(s, t), engines[1].query(t, s)]
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        stats = [engine.stats() for engine in engines]
        rows.append(
            {
                "n": n,
                "provable": all(verdicts),
                "sequents": sum(st.sequents for st in stats),
                "clauses": sum(st.clauses for st in stats),
                "wall_ms": elapsed_ms,
            }
        )
    slope = 0.0
    if len({r["n"] for r in rows}) >= 2:  # a fit needs two distinct sizes
        slope = fit_loglog_slope([r["n"] for r in rows], [r["clauses"] for r in rows])
    return rows, slope


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    for n in sizes:
        if n < 2 or n % 2 != 0:
            raise BadN(f"family index must be even and >= 2, got {n}")
    rows, slope = run_bench(sizes)
    lines = ["n,provable,sequents,clauses,wall_ms"]
    lines += [
        f"{r['n']},{str(r['provable']).lower()},{r['sequents']},{r['clauses']},{r['wall_ms']:.2f}"
        for r in rows
    ]
    report = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    print(f"log-log slope (clauses vs n): {slope:.3f}")
    return 0


# name -> (help, arguments, handler), in the order `olsub -h` lists them
_COMMANDS = {
    "check": ("decide a subtyping query", _check_args, cmd_check),
    "explain": ("decide a query and print its proof", _query_args, cmd_check),
    "normalize": ("print the canonical minimal form", _normalize_args, cmd_normalize),
    "gen": ("emit a benchmark query", _gen_args, cmd_gen),
    "bench": ("time benchmark queries, report CSV", _bench_args, cmd_bench),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _parse_args(argv)
            return _COMMANDS[args.command][2](args)
        except RecursionError as exc:
            raise InputTooDeep("input is nested too deeply") from exc
    except SystemExit as exc:  # argparse's exit on a usage error or -h
        return exc.code
    except (OlsubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug; exit 1 would read as "not provable"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
