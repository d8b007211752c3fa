"""The package's contract: every entry point of `olsub.__all__` refuses what it
cannot answer with a typed error, and no product module imports the test
oracle."""
import ast
import random
from pathlib import Path

import pytest

import olsub
from olsub import (
    Definition,
    Engine,
    Interpretation,
    ProofTree,
    SymbolDecl,
    TermUniverse,
    Variance,
    beta,
    boolean2,
    check,
    delta,
    desugar,
    eta,
    evaluate,
    normalize_bl,
    normalize_ol,
    print_term,
    reconstruct_proof,
    saturate,
    saturates,
    sequent,
    verify_proof,
    zeta,
)
from olsub.errors import OlsubError, TermIdOverflow

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


# Each entry point of `olsub.__all__` that takes a term of a universe,
# called with the id `b` in one of the places such a term goes; `x` is a
# term of `u`, `d` a valid definition. (`sequent` packs ids with no
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
    # Random ids, variances and arities, the wrong Python types among them:
    # each call answers, or raises an `OlsubError` or a `TypeError`.
    # (`opposite` of a valid non-literal raises `KeyError`, as its docstring
    # says, so it takes only the ids of the test above.)
    rng = random.Random(10)
    junk = [None, "x", 1.5, [1], -1, 10**6, 2**40]
    variances = ["+", "-", "o", "", "q", "+x", ["+", "?"], [None], 5, None]
    calls = [call for name, call in _ENTRIES.items() if name != "TermUniverse.opposite"] + [
        lambda u, x, d, b: sequent(b, 0, x, 1),
        lambda u, x, d, b: verify_proof(u, ProofTree(sequent(b, 0, b, 1), "Hyp", [])),
    ]
    for _ in range(300):
        u, x, d = _universe()
        for _ in range(3):
            call = rng.choice(calls)
            b = rng.choice(junk + list(range(-2, len(u) + 2)))
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


def test_product_modules_do_not_import_the_oracle():
    # The test oracles must not share the code they check: no module of the
    # package but `oracle` itself (and `__init__`, which exports it) may
    # import `oracle`, directly or by `from . import oracle`.
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("__init__.py", "oracle.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                assert "oracle" not in name.split("."), f"{path.name} imports {name}"
        checked += 1
    assert checked >= 7
