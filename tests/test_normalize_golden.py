"""Normal forms of seeded random terms, pinned as printed text.

`tests/normalize_golden.jsonl` holds, per term, its printed text, its
printed `normalize_ol` form and, for a negation-free term, its printed
`normalize_bl` form (else null). The terms are drawn over `F(+)`, `G(-,+)`,
`H(o)` and the 0-ary `C`. Regenerate the file, from the tree whose forms
are the reference, with

    PYTHONPATH=src python tests/test_normalize_golden.py > tests/normalize_golden.jsonl
"""
import json
import random
from pathlib import Path

from olsub import TermUniverse, normalize_bl, normalize_ol, parse_source, parse_term, print_term

SIGNATURE = "fun F : (+)\nfun G : (-,+)\nfun H : (o)\nfun C : ()\n"
VARIABLES = ["x", "y", "z", "w"]
COUNT = 300
SEED = 34


def universe() -> TermUniverse:
    u = TermUniverse()
    parse_source(SIGNATURE, u)
    return u


def random_term(u: TermUniverse, rng: random.Random, budget: int, allow_not: bool):
    """A random term of about `budget` nodes; a leaf is a variable, a bound or `C()`."""
    if budget <= 1 or rng.random() < 0.05:
        k = rng.randrange(8)
        if k == 0:
            return u.top()
        if k == 1:
            return u.bot()
        if k == 2:
            return u.app("C", [])
        return u.var(rng.choice(VARIABLES))
    picks = ["meet", "join", "F", "G", "H"] + (["not"] if allow_not else [])
    pick = rng.choice(picks)
    if pick == "not":
        return u.neg(random_term(u, rng, budget - 1, allow_not))
    if pick in ("F", "H"):
        return u.app(pick, [random_term(u, rng, budget - 1, allow_not)])
    n = 2 if pick == "G" else rng.randint(2, 3)
    rem = budget - 1
    parts = []
    for i in range(n):
        take = max(1, rem // (n - i))
        parts.append(random_term(u, rng, take, allow_not))
        rem -= take
    if pick == "G":
        return u.app("G", parts)
    return u.meet(parts) if pick == "meet" else u.join(parts)


def case(text: str) -> dict:
    """The printed forms of the term `text`, normalized in a fresh universe."""
    u = universe()
    t = parse_term(text, u)
    bl = None if "~" in text else print_term(u, normalize_bl(u, t).term)
    return {"term": text, "ol": print_term(u, normalize_ol(u, t).term), "bl": bl}


def seeded_texts() -> list[str]:
    rng = random.Random(SEED)
    texts = []
    for _ in range(COUNT):
        u = universe()
        t = random_term(u, rng, rng.randint(3, 40), allow_not=rng.random() < 0.6)
        texts.append(print_term(u, t))
    return texts


GOLDEN_PATH = Path(__file__).with_name("normalize_golden.jsonl")
GOLDEN = [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines()]


def test_golden_holds_the_seeded_terms():
    texts = seeded_texts()
    assert [c["term"] for c in GOLDEN] == texts
    # both kinds of case are there, and every leaf kind
    assert any(c["bl"] is None for c in GOLDEN) and any(c["bl"] is not None for c in GOLDEN)
    for piece in ("top", "bot", "C()", "F(", "G(", "H(", "~"):
        assert any(piece in text for text in texts), piece


def test_normal_forms_match_golden():
    assert [case(c["term"]) for c in GOLDEN] == GOLDEN


def test_normal_forms_do_not_depend_on_the_universe_history():
    u = universe()
    got = []
    for c in GOLDEN:
        t = parse_term(c["term"], u)
        got.append(print_term(u, normalize_ol(u, t).term))
    assert got == [c["ol"] for c in GOLDEN]


if __name__ == "__main__":
    for text in seeded_texts():
        print(json.dumps(case(text)))
