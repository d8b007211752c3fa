"""Spans around calls into olsub's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper under every
module attribute that is bound to it (the CLI imports some by name), so calls
made inside the package are recorded too. A span is
`[name, start_ns, end_ns, parent_index, op_id, result]`; spans stay in memory
until `write`. While the tracer is inactive the wrappers only forward.
"""
from __future__ import annotations

import gc
import json
import sys
from time import perf_counter_ns

NAME, START, END, PARENT, OP, RESULT = range(6)

# (module, attribute, span name). Attributes a future version drops are
# skipped, and their metrics read 0.
TRACED = [
    ("olsub.syntax", "parse_query", "syntax.parse"),
    ("olsub.syntax", "parse_source", "syntax.parse"),
    ("olsub.syntax", "parse_term", "syntax.parse"),
    ("olsub.syntax", "print_term", "syntax.print"),
    ("olsub.defs", "desugar", "defs.desugar"),
    ("olsub.entail", "check", "entail.check"),
    ("olsub.entail", "build_clauses", "entail.build_clauses"),
    ("olsub.entail", "reconstruct_proof", "entail.reconstruct"),
    ("olsub.entail", "verify_proof", "entail.verify"),
    ("olsub.normalize", "normalize_ol", "normalize.normalize_ol"),
    ("olsub.normalize", "delta", "normalize.delta"),
    ("olsub.normalize", "beta", "normalize.beta"),
    ("olsub.normalize", "zeta", "normalize.zeta"),
    ("olsub.normalize", "eta", "normalize.eta"),
    ("olsub.cli", "main", "cli.main"),
]
MODULES = ["olsub", "olsub.cli", "olsub.syntax", "olsub.defs", "olsub.entail", "olsub.normalize"]


def count_proof_nodes(proof) -> int:
    """Distinct nodes of a proof DAG (shared subproofs count once)."""
    seen = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._gc_start = 0
        self.gc_ns = 0
        self.universes: list = []
        self.nodes = 0
        self._engines: list[tuple] = []  # (engine, op id, creating span name)
        self.engine_totals = {"sequents": 0, "clauses": 0, "steps": 0, "derived": 0}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from olsub import entail, terms

        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            observe = count_proof_nodes if name == "entail.reconstruct" else None
            wrapper = self._wrap(original, name, observe)
            for owner in MODULES:
                mod = sys.modules[owner]
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        query = getattr(entail.Engine, "query", None)
        if query is not None:
            self._patch(entail.Engine, "query", self._wrap(query, "entail.query", bool))
        self._patch(entail.Engine, "__init__", self._track(entail.Engine.__init__, self._new_engine))
        self._patch(terms.TermUniverse, "__init__",
                    self._track(terms.TermUniverse.__init__, self.universes.append))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, original, name, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                span[RESULT] = observe(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _track(self, init, record):
        """An `__init__` that also hands each object built while active to `record`."""
        tracer = self

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.active:
                record(obj)

        wrapper.__wrapped__ = init
        return wrapper

    def _new_engine(self, engine) -> None:
        parent = self.spans[self._stack[-1]][NAME] if self._stack else None
        self._engines.append((engine, self.op, parent))

    # -- activity ----------------------------------------------------------

    def start_gc_clock(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_clock(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns() if self.active else 0
        elif self._gc_start:
            self.gc_ns += perf_counter_ns() - self._gc_start

    def end_op(self) -> None:
        """Take the counters of engines the op created, then drop them."""
        self._flush_engines(lambda op: op == self.op)

    def end_round(self) -> None:
        self._flush_engines(lambda op: True)
        self.nodes += sum(len(u) for u in self.universes)
        self.universes.clear()

    def _flush_engines(self, select) -> None:
        keep = []
        for engine, op, parent in self._engines:
            if not select(op):
                keep.append((engine, op, parent))
            elif parent in (None, "entail.check"):
                # The engines behind a verdict; build_clauses and the
                # normalizer's order tests run engines of their own.
                stats = engine.stats()
                self.engine_totals["sequents"] += stats.sequents
                self.engine_totals["clauses"] += stats.clauses
                self.engine_totals["steps"] += stats.steps
                self.engine_totals["derived"] += len(getattr(engine, "derived", ()))
        self._engines = keep

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        leq = {"calls": 0, "ns": 0, "true": 0}
        proof_nodes = 0
        for i, span in enumerate(spans):
            name = span[NAME]
            dur = span[END] - span[START]
            parent = span[PARENT]
            parent_name = spans[parent][NAME] if parent >= 0 else None
            if parent_name != name:  # outermost span of a nested run of one name
                total[name] = total.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            if name == "entail.query" and self._caller_pass(i) == "normalize.normalize_ol":
                leq["calls"] += 1
                leq["ns"] += dur
                leq["true"] += bool(span[RESULT])
            elif name == "entail.reconstruct" and span[RESULT]:
                proof_nodes += span[RESULT]
        query_self = sum(
            span[END] - span[START] - child_ns[i]
            for i, span in enumerate(spans)
            if span[NAME] == "entail.query" and self._caller_pass(i) is None
        )
        ms = lambda ns: ns / 1e6  # noqa: E731
        e = self.engine_totals
        return {
            "syntax.parse_ms": (ms(total.get("syntax.parse", 0)), "ms"),
            "syntax.print_ms": (ms(total.get("syntax.print", 0)), "ms"),
            "terms.nodes": (self.nodes, "count"),
            "defs.desugar_ms": (ms(total.get("defs.desugar", 0)), "ms"),
            "entail.check_ms": (ms(self_ns.get("entail.check", 0) + query_self), "ms"),
            "entail.sequents": (e["sequents"], "count"),
            "entail.clauses": (e["clauses"], "count"),
            "entail.steps": (e["steps"], "count"),
            "entail.derived_per_expanded": (
                e["derived"] / e["sequents"] if e["sequents"] else 0.0, "ratio"),
            "entail.build_clauses_ms": (ms(total.get("entail.build_clauses", 0)), "ms"),
            "entail.reconstruct_ms": (ms(total.get("entail.reconstruct", 0)), "ms"),
            "entail.verify_ms": (ms(total.get("entail.verify", 0)), "ms"),
            "entail.proof_nodes": (proof_nodes, "count"),
            "normalize.delta_ms": (ms(total.get("normalize.delta", 0)), "ms"),
            "normalize.beta_ms": (ms(total.get("normalize.beta", 0)), "ms"),
            "normalize.zeta_ms": (ms(total.get("normalize.zeta", 0)), "ms"),
            "normalize.eta_ms": (ms(total.get("normalize.eta", 0)), "ms"),
            "normalize.leq_calls": (leq["calls"], "count"),
            "normalize.leq_ms": (ms(leq["ns"]), "ms"),
            "normalize.leq_true_share": (
                leq["true"] / leq["calls"] if leq["calls"] else 0.0, "ratio"),
            "cli.self_ms": (ms(self_ns.get("cli.main", 0)), "ms"),
            "gc.pause_ms": (ms(self.gc_ns), "ms"),
        }

    def _caller_pass(self, i: int):
        """The normalize span that span i runs under, if any. Order tests
        under normalize_ol are the `leq` metrics; those under the separately
        called passes are part of the pass times."""
        spans = self.spans
        parent = spans[i][PARENT]
        while parent >= 0:
            name = spans[parent][NAME]
            if name.startswith("normalize."):
                return name
            parent = spans[parent][PARENT]
        return None

    def write(self, path) -> None:
        """Spans as JSON: a name table and one row per span."""
        names = sorted({span[NAME] for span in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][START] if self.spans else 0
        rows = [
            [index[s[NAME]], s[START] - origin, s[END] - origin, s[PARENT], s[OP]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))
