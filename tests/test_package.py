"""The package's contract: every entry point of `olsub.__all__` and of the
test oracle refuses what it cannot answer with a typed error, no product
module imports the test oracle or `dataclasses`, and the oracle imports no
decision procedure."""
import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import olsub
from olsub import (
    Definition,
    Engine,
    ProofTree,
    SymbolDecl,
    TermUniverse,
    Variance,
    beta,
    check,
    delta,
    desugar,
    eta,
    normalize_bl,
    normalize_ol,
    print_term,
    reconstruct_proof,
    sequent,
    verify_proof,
    zeta,
)
from olsub.errors import OlsubError, TermIdOverflow
from olsub.oracle import Interpretation, boolean2, evaluate, saturate, saturates

SRC = Path(olsub.__file__).parent


def _universe():
    """A small universe holding `x`, `F(x)`, a type `D[a] <: F(a)`'s symbol
    and a plain term: (universe, a term of it, the definition)."""
    u = TermUniverse()
    u.declare("F", "+")
    u.declare("D", "+")
    x = u.var("x")
    u.app("F", [x])
    return u, x, Definition("D", ("a",), u.app("F", [u.var("a")]))


# Each entry point of `olsub.__all__` or `olsub.oracle` that takes a term of
# a universe, called with the id `b` in one of the places such a term goes;
# `x` is a term of `u`, `d` a valid definition. (`sequent` packs ids with no
# universe, and `verify_proof` answers False on a foreign one.)
_ENTRIES = {
    "check": lambda u, x, d, b: check(u, x, b),
    "check axioms": lambda u, x, d, b: check(u, x, x, [(b, x)]),
    "Engine axioms": lambda u, x, d, b: Engine(u, [(x, b)]),
    "Engine.query": lambda u, x, d, b: Engine(u).query(b, x),
    "reconstruct_proof": lambda u, x, d, b: reconstruct_proof(Engine(u), x, b),
    "delta": lambda u, x, d, b: delta(u, b),
    "beta": lambda u, x, d, b: beta(u, b),
    "zeta": lambda u, x, d, b: zeta(u, b),
    "eta": lambda u, x, d, b: eta(u, b),
    "normalize_bl": lambda u, x, d, b: normalize_bl(u, b),
    "normalize_ol": lambda u, x, d, b: normalize_ol(u, b),
    "print_term": lambda u, x, d, b: print_term(u, b),
    "desugar goal": lambda u, x, d, b: desugar(u, [], (x, b), []),
    "desugar goal, defined": lambda u, x, d, b: desugar(u, [d], (b, x), []),
    "desugar axioms": lambda u, x, d, b: desugar(u, [d], (x, x), [(x, b)]),
    "desugar bound": lambda u, x, d, b: desugar(u, [Definition("D", ("a",), b)], (x, x), []),
    "evaluate": lambda u, x, d, b: evaluate(u, b, boolean2(), Interpretation({"x": boolean2().bot})),
    "saturate": lambda u, x, d, b: saturate(u, [x, b]),
    "saturates": lambda u, x, d, b: saturates(u, b, x),
    "TermUniverse.meet": lambda u, x, d, b: u.meet([x, b]),
    "TermUniverse.join": lambda u, x, d, b: u.join([b, x]),
    "TermUniverse.neg": lambda u, x, d, b: u.neg(b),
    "TermUniverse.app": lambda u, x, d, b: u.app("F", [b]),
    "TermUniverse.rebuild": lambda u, x, d, b: u.rebuild(b, []),
    "TermUniverse.rebuild child": lambda u, x, d, b: u.rebuild(u.app("F", [x]), [b]),
    "TermUniverse.size": lambda u, x, d, b: u.size(b),
    "TermUniverse.subterms": lambda u, x, d, b: u.subterms(b),
    "TermUniverse.opposite": lambda u, x, d, b: u.opposite(b),
    "TermUniverse.plain": lambda u, x, d, b: u.plain(b),
    "TermUniverse.contains_not": lambda u, x, d, b: u.contains_not(b),
}


def _bad_ids(u, rng):
    """Ids `u` does not hold: past its end, negative, and the ids of a
    larger universe's terms (foreign ids in range of `u` cannot be told
    apart from its own; see `TermUniverse`)."""
    other = TermUniverse()
    for i in range(2 * len(u)):
        other.var(f"v{i}")
    n = len(u)
    return ([n, n + rng.randrange(1, 100), 10**6, 2**40, -1, -n, -rng.randrange(1, 10**6)]
            + list(range(n, len(other))))


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_entry_points_refuse_ids_the_universe_does_not_hold(entry):
    rng = random.Random(entry)
    call = _ENTRIES[entry]
    for bad in _bad_ids(_universe()[0], rng):
        u, x, d = _universe()
        with pytest.raises(OlsubError) as caught:
            call(u, x, d, bad)
        assert isinstance(caught.value, TermIdOverflow), (bad, caught.value)


def test_entry_points_raise_only_typed_errors_on_random_arguments():
    # Random ids, variances, arities and valuations, the wrong Python types
    # among them: each call answers, or raises an `OlsubError` or a
    # `TypeError`. The ids include a meet, a join and a `~`, which are not
    # literals, and the valuations values that are not lattice elements.
    rng = random.Random(10)
    junk = [None, "x", 1.5, [1], -1, 10**6, 2**40]
    variances = ["+", "-", "o", "", "q", "+x", ["+", "?"], [None], 5, None]
    calls = list(_ENTRIES.values()) + [
        lambda u, x, d, b: sequent(b, 0, x, 1),
        lambda u, x, d, b: verify_proof(u, ProofTree(sequent(b, 0, b, 1), "Hyp", [])),
        lambda u, x, d, b: evaluate(u, u.join([x, u.neg(x)]), boolean2(), Interpretation({"x": b})),
    ]
    for _ in range(300):
        u, x, d = _universe()
        compound = [u.meet([x, u.var("y")]), u.join([x, u.var("y")]), u.neg(x)]
        for _ in range(3):
            call = rng.choice(calls)
            b = rng.choice(junk + compound + list(range(-2, len(u) + 2)))
            try:
                call(u, x, d, b)
            except (OlsubError, TypeError):
                pass
        v = rng.choice(variances)
        try:
            u.declare(rng.choice(["G", "F", "~G"]), v)
        except (OlsubError, TypeError):
            pass
        f = rng.choice(["F", "G", SymbolDecl("F", 1, (Variance.COVARIANT,))])
        try:
            u.app(f, [rng.choice(junk + [x])] * rng.randrange(3))
        except (OlsubError, TypeError):
            pass


def _imported_names(path):
    """Every module name an import in `path` may bind, split into parts:
    `from . import oracle` gives ["", "oracle"] as well as [""]."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            yield name.split(".")


def test_product_modules_do_not_import_the_oracle():
    # The test oracles must not share the code they check: no module of the
    # package but `oracle` itself may import `oracle`, directly or by
    # `from . import oracle`.
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for parts in _imported_names(path):
            assert "oracle" not in parts, f"{path.name} imports {'.'.join(parts)}"
        checked += 1
    assert checked >= 8


def test_the_oracle_imports_no_decision_procedure():
    decision = {"entail", "normalize", "defs", "syntax", "cli"}
    imported = list(_imported_names(SRC / "oracle.py"))
    assert imported
    for parts in imported:
        assert decision.isdisjoint(parts), f"oracle.py imports {'.'.join(parts)}"


def test_the_decision_layer_does_not_render_proofs():
    # `olsub.entail` decides queries and builds and checks proofs; writing a
    # proof as text or JSON is `cli.render_proof`'s job, so `entail` imports
    # neither the printer nor `json`, directly or inside a function.
    imported = list(_imported_names(SRC / "entail.py"))
    assert imported
    for parts in imported:
        assert "syntax" not in parts and "json" not in parts, f"entail.py imports {'.'.join(parts)}"


def test_importing_the_command_line_loads_no_code_generator():
    # The records are plain classes and named tuples: `dataclasses` would
    # load `inspect`, `ast`, `dis` and `tokenize` on every one-shot call.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = f"import sys, olsub.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["[]"]


def test_only_the_oracle_imports_dataclasses():
    # `oracle` is test code and `import olsub` does not load it.
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for parts in _imported_names(path):
            assert "dataclasses" not in parts, f"{path.name} imports {'.'.join(parts)}"
        checked += 1
    assert checked >= 8


def test_importing_the_package_does_not_load_the_oracle():
    # `import olsub` leaves the oracle unloaded and unexported; `from olsub
    # import oracle` still reaches it.
    code = "import sys, olsub; print('olsub.oracle' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["False"]
    from olsub import oracle

    own = {name for name, value in vars(oracle).items()
           if getattr(value, "__module__", None) == oracle.__name__ and not name.startswith("_")}
    assert {"evaluate", "saturates", "boolean2"} <= own
    assert own.isdisjoint(olsub.__all__)
