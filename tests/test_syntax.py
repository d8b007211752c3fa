import gc
import random
import weakref

import pytest

from olsub import TermUniverse, Variance, oracle, parse_query, parse_source, parse_term, print_term
from olsub.errors import (
    ArityMismatch,
    DuplicateDefinition,
    ParseError,
    TermIdOverflow,
    UndeclaredSymbol,
)
from olsub import syntax
from olsub.cli import sn_tn_source
from olsub.normalize import delta

from helpers import class_hierarchy_session, node_list, random_pnnf, random_term, reintern


def test_precedence(u):
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    assert parse_term("x | y & z", u) == u.join([x, u.meet([y, z])])
    assert parse_term("~(x & y)", u) == u.neg(u.meet([x, y]))
    arrow = u.declare("Arrow", "-+")
    assert parse_term("Arrow(x, y | top)", u) == u.app(arrow, [x, u.join([y, u.top()])])


def test_associativity_flattens(u):
    x, y, z = u.var("x"), u.var("y"), u.var("z")
    assert parse_term("x & y & z", u) == u.meet([x, y, z])
    assert parse_term("x & (y & z)", u) == u.meet([x, y, z])
    assert parse_term("(x | y) | z", u) == u.join([x, y, z])
    assert parse_term("~~x", u) == u.neg(u.neg(x))


def test_parse_errors_carry_position(u):
    with pytest.raises(ParseError) as exc:
        parse_term("x &", u)
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_term("x ? y", u)
    assert exc.value.column == 3
    with pytest.raises(ParseError):
        parse_term("Undeclared(x)", u)
    u.declare("Arrow", "-+")
    with pytest.raises(ArityMismatch):
        parse_term("Arrow(x)", u)
    with pytest.raises(ArityMismatch):
        parse_term("Arrow", u)


# Each bad input with the exception, message, line and column it raises;
# F is (+) and G is (-,+).
BAD_INPUTS = [
    (parse_term, "x ? y", ParseError, "unexpected character '?'", 1, 3),
    (parse_source, "fun H : (+)\nx <= y\n  H(x) $ y\n", ParseError,
     "unexpected character '$'", 3, 8),
    (parse_term, "x | 1y", ParseError, "unexpected character '1'", 1, 5),
    (parse_term, "x y", ParseError, "trailing input 'y'", 1, 3),
    (parse_query, "x <= y )", ParseError, "trailing input ')'", 1, 8),
    (parse_term, "x &", ParseError, "expected a term, found ''", 1, 4),
    (parse_term, "x\t&\t~", ParseError, "expected a term, found ''", 1, 6),
    (parse_term, "x &\n\n  y", ParseError, "expected a term, found '\\n'", 1, 4),
    (parse_term, "(x | y", ParseError, "expected ')', found ''", 1, 7),
    (parse_term, "F(x, (y)", ParseError, "expected ')', found ''", 1, 9),
    (parse_query, "F(x <= y", ParseError, "expected ')', found '<='", 1, 5),
    (parse_term, "\n\n  x & H(y)", ParseError, "undeclared symbol 'H'", 3, 7),
    (parse_source, "A <= B\nA <= B & H(y)\n", ParseError, "undeclared symbol 'H'", 2, 10),
    (parse_term, "G(x)", ArityMismatch, "G expects 2 arguments, got 1", 1, 1),
    (parse_source, "fun K : (-,+)\n\nA <= K(x)\n", ArityMismatch,
     "K expects 2 arguments, got 1", 3, 6),
    (parse_term, "~~G", ArityMismatch, "G expects 2 arguments, got 0", 1, 3),
    (parse_source, "fun K : (+, x)\n", ParseError,
     "expected a variance (o, + or -), found 'x'", 1, 13),
    (parse_source, "x <: y\n", ParseError, "expected '<=' or '=', found '<:'", 1, 3),
    (parse_source, "type U[A] = x\n", ParseError, "expected '<:' or ':>', found '='", 1, 11),
    (parse_source, "fun S : (+)\ntype U[A, B, A] <: S(A)\n", ParseError,
     "duplicate definition parameter", 2, 6),
    # a name may not start with a numeral `\d` lets through, nor a text hold a Unicode blank
    (parse_term, "² | y", ParseError, "unexpected character '²'", 1, 1),
    (parse_term, "x | ½", ParseError, "unexpected character '½'", 1, 5),
    (parse_term, "x\xa0& y", ParseError, "unexpected character '\\xa0'", 1, 2),
    (parse_source, "x <= y\n\xa0x <= y\n", ParseError, "unexpected character '\\xa0'", 2, 1),
    (parse_source, "x <= y\n\n  \t ²\n", ParseError, "unexpected character '²'", 3, 5),
    # a bad character beats every other error in its text, or in its line of a source file
    (parse_term, "x & ) ?", ParseError, "unexpected character '?'", 1, 7),
    (parse_query, "x <= G(y) ½", ParseError, "unexpected character '½'", 1, 11),
    (parse_source, "x <= y\nx <= G(x) ?\n", ParseError, "unexpected character '?'", 2, 11),
    (parse_source, "fun F : (-) ?\n", ParseError, "unexpected character '?'", 1, 13),
    (parse_source, "type U[A] <: F(A)\ntype U[B] <: F(B) ?\n", ParseError,
     "unexpected character '?'", 2, 19),
    # but not an error on an earlier line
    (parse_source, "x <= )\ny ? z\n", ParseError, "expected a term, found ')'", 1, 6),
    # a source line ends where its comment starts, or before its CRLF
    (parse_source, "x <=  # c ?\n", ParseError, "expected a term, found ''", 1, 7),
    (parse_source, "x <= y\nx <= ", ParseError, "expected a term, found ''", 2, 6),
    (parse_source, "fun K : (+\r\nx <= y\r\n", ParseError, "expected ')', found ''", 1, 11),
    (parse_source, "x <= y\r\nx <=\r\n", ParseError, "expected a term, found ''", 2, 5),
    (parse_source, "# c\n\nfun K : (-,+)\n# c2 ?\nA <= K(x)\n", ArityMismatch,
     "K expects 2 arguments, got 1", 5, 6),
    # keywords are not names
    (parse_term, "fun", ParseError, "expected a term, found 'fun'", 1, 1),
    (parse_source, "fun fun : (+)\n", ParseError, "expected 'name', found 'fun'", 1, 5),
    (parse_source, "type U[top] <: x\n", ParseError, "expected 'name', found 'top'", 1, 8),
]


@pytest.mark.parametrize("parse, text, error, message, line, column", BAD_INPUTS)
def test_parse_errors_are_pinned(u, parse, text, error, message, line, column):
    u.declare("F", "+")
    u.declare("G", "-+")
    with pytest.raises(error) as exc:
        parse(text, u)
    assert str(exc.value) == f"{message} (line {line}, column {column})"
    if error is ParseError:
        assert (exc.value.line, exc.value.column) == (line, column)
    if message.startswith("undeclared"):
        assert isinstance(exc.value.__cause__, UndeclaredSymbol)


def test_nesting_depth_is_bounded_by_memory(u):
    assert parse_term("(" * 100_000 + "x" + ")" * 100_000, u) == u.var("x")


def test_parse_query(u):
    s, t = parse_query("x & y <= x", u)
    assert s == u.meet([u.var("x"), u.var("y")])
    assert t == u.var("x")


def test_parse_source_declarations_and_axioms(u):
    axioms, definitions = parse_source("fun Arrow : (-,+)\nU <= S\n", u)
    assert "Arrow" in u.symbols
    assert len(axioms) == 1
    assert not definitions
    assert axioms.pairs[0] == (u.var("U"), u.var("S"))


def test_invariant_declaration_line(u):
    parse_source("fun H : (o)\nfun Map : (o, +)\n", u)
    assert u.symbols["H"].variances == (Variance.INVARIANT,)
    assert u.symbols["Map"].variances == (Variance.INVARIANT, Variance.COVARIANT)


def test_equality_splits(u):
    axioms, _ = parse_source("A = B\n", u)
    a, b = u.var("A"), u.var("B")
    assert (a, b) in axioms and (b, a) in axioms
    assert len(axioms) == 2


def test_class_extends_axiom(u):
    text = "fun T : (+)\n# class U extends S with T[S]\nU <= S & T(S)\n"
    axioms, _ = parse_source(text, u)
    s = u.var("S")
    assert axioms.pairs == [(u.var("U"), u.meet([s, u.app("T", [s])]))]


def test_comments_and_blank_lines(u):
    axioms, _ = parse_source("# intro\n\nA <= B  # trailing\n", u)
    assert len(axioms) == 1


def test_unicode_names_blanks_comments_and_crlf(u):
    x, y = u.var("x"), u.var("y")
    assert parse_term("é & x", u) == u.meet([u.var("é"), x])
    assert parse_term("x² | y", u) == u.join([u.var("x²"), y])
    # a line of Unicode blanks is blank
    assert parse_source("x <= y\n\xa0\n", u)[0].pairs == [(x, y)]
    # a comment may hold characters that start no token
    assert parse_term("x # $ ?", u) == x
    assert parse_query("x <= y  # $ ?\n", u) == (x, y)
    assert parse_source("# $\nx <= y # ?\n", u)[0].pairs == [(x, y)]
    axioms, _ = parse_source("fun F : (+)\r\nx <= F(y)\r\n\r\n# c\r\nx = y\r\n", u)
    assert axioms.pairs == [(x, u.app("F", [y])), (x, y), (y, x)]
    # as `str.splitlines` ends a line, so does a source file, and its comment
    axioms, _ = parse_source("x <= y\ry <= x # c\x85x <= y\u2028", u)
    assert axioms.pairs == [(x, y), (y, x), (x, y)]


def test_one_scan_per_call(u, monkeypatch):
    # The parser reads the token strings of one scan of its text. A second
    # scan of a line or a statement redoes work the first one did.
    scans = []

    class Counting:
        def __getattr__(self, name):
            scans.append(name)
            return getattr(scanner, name)

    scanner = syntax._TOKEN
    monkeypatch.setattr(syntax, "_TOKEN", Counting())
    u.declare("F", "+")
    parse_term("F(x) & ~(y | z)", u)
    assert len(scans) == 1
    parse_query("x & y <= F(x) # c\n", u)
    assert len(scans) == 2
    source = "fun G : (-,+)\n# c\n\ntype U[A] <: G(A, x)\nx <= G(y, z)\ny = U(z)\n"
    axioms, definitions = parse_source(source, u)
    assert len(scans) == 3 and len(axioms) == 3 and len(definitions) == 1


def test_type_definition_line(u):
    _, defs = parse_source("fun S : (+)\ntype U[A] <: S(A)\n", u)
    assert len(defs) == 1
    assert defs[0].name == "U"
    assert defs[0].params == ("A",)
    assert "U" in u.symbols and u.symbols["U"].arity == 1
    with pytest.raises(DuplicateDefinition):
        parse_source("fun S : (+)\ntype U[A] <: S(A)\ntype U[A] <: S(A)\n", u)


@pytest.mark.parametrize("bad", [10**6, -1])
def test_print_refuses_ids_the_universe_does_not_hold(u, bad):
    u.var("x")
    with pytest.raises(TermIdOverflow):
        print_term(u, bad)


def test_print_examples(u):
    x, y = u.var("x"), u.var("y")
    assert print_term(u, u.join([x, y])) == "x | y"
    assert print_term(u, u.negvar("x")) == "~x"
    arrow = u.declare("Arrow", "-+")
    assert print_term(u, u.app(u.dual(arrow), [x, y])) == "~Arrow(x, y)"
    assert print_term(u, u.meet([u.join([x, y]), y])) == "(x | y) & y"
    assert print_term(u, u.neg(u.meet([x, y]))) == "~(x & y)"


def test_round_trip_base_terms(u):
    f = u.declare("F", "+")
    g = u.declare("G", "-+")
    for t in oracle.enumerate_terms(u, ["x", "y"], [f, g], 5, negation="not"):
        assert parse_term(print_term(u, t), u) == t


def test_round_trip_extended_terms_modulo_delta(u):
    # Negated atoms and duals print as ordinary negation; re-parsing yields
    # the Not-encoded preimage, and delta recovers the original.
    f = u.declare("F", "+")
    for t in oracle.enumerate_terms(u, ["x", "y"], [f], 5, negation="literals"):
        assert delta(u, parse_term(print_term(u, t), u)) == t


def test_a_term_printed_again_is_not_rendered_again(u, monkeypatch):
    renders = []

    def counting(*args):
        renders.append(args[1])
        return render(*args)

    render = syntax._print
    monkeypatch.setattr(syntax, "_print", counting)
    f = u.declare("F", "+")
    t = u.join([u.meet([u.var("x"), u.app(f, [u.var("y")])]), u.negvar("z")])
    assert print_term(u, t) == "x & F(y) | ~z"
    assert print_term(u, t) == "x & F(y) | ~z"
    assert renders == [t]


def test_a_renamed_print_is_rendered_and_not_memoized(u):
    f = u.declare("F", "+")
    x, y = u.var("x"), u.var("y")
    t = u.meet([x, u.app(f, [y])])
    assert print_term(u, t) == "x & F(y)"
    assert print_term(u, t, {"x": "a", "F": "G"}) == "a & G(y)"
    s = u.join([x, u.app(f, [y])])
    assert print_term(u, s, {"x": "a"}) == "a | F(y)"
    assert print_term(u, s) == "x | F(y)"
    assert print_term(u, x, {"x": "a"}) == "a" and print_term(u, x) == "x"


def test_printed_texts_keep_no_universe_alive():
    v = TermUniverse()
    assert print_term(v, v.meet([v.var("x"), v.var("y")])) == "x & y"
    assert v in syntax._printed
    ref = weakref.ref(v)
    del v
    gc.collect()
    assert ref() is None


def _random_terms(seed: int):
    """2,000 seeded terms: Not-encoded and pseudo-negation-normal ones
    (negated variables, dual symbols), with bounds and the 0-ary `C`."""
    u = TermUniverse()
    symbols = [u.declare("F", "+"), u.declare("G", "-+"), u.declare("H", "o")]
    nullary = [u.app(u.declare("C", ""), [])]
    nullary.append(u.opposite(nullary[0]))
    rng = random.Random(seed)
    out = []
    for i in range(2000):
        draw = random_term if i % 2 else random_pnnf
        t = draw(u, rng, rng.randint(1, 20), ["x", "y", "z"], symbols)
        if rng.random() < 0.3:
            parts = [t, rng.choice(nullary)]
            t = u.meet(parts) if rng.random() < 0.5 else u.join(parts)
        out.append(t)
    return u, out


def test_memoized_texts_are_the_rendered_ones():
    u, terms = _random_terms(11)
    first = [print_term(u, t) for t in terms]
    again = [print_term(u, t) for t in terms]
    fresh, fresh_terms = _random_terms(11)
    assert again == first == [print_term(fresh, t) for t in fresh_terms]
    assert first == [syntax._print(u, t, {}) for t in terms]
    texts = "\n".join(first)
    for piece in ("top", "bot", "C()", "~C()", "~F(", "~G(", "~H(", "~(", "~x"):
        assert piece in texts, piece


def _assert_parsed_in_post_order(parse):
    """`parse(u)` reads texts into a fresh `u` and returns the terms read;
    re-interning them in post-order into a second universe must give `u`'s
    node list, so the parse handed out each id at that node's first
    occurrence, after its children, left to right."""
    u, again = TermUniverse(), TermUniverse()
    roots = parse(u)
    assert reintern(u, roots, again) == roots
    assert node_list(again) == node_list(u)


def test_a_parse_interns_in_post_order():
    # Ids follow interning order, and the engine's same-side packing order
    # and the proof text follow ids; this pins the order a parse interns in.
    src = TermUniverse()
    symbols = [src.declare("F", "+"), src.declare("G", "-+"), src.declare("H", "o")]
    rng = random.Random(5)
    texts = [print_term(src, random_term(src, rng, rng.randint(1, 25), ["x", "y", "z"], symbols))
             for _ in range(300)]
    joined = "\n".join(texts)
    for piece in ("~", "F(", "G(", "H(", "top", "bot", "&", "|"):
        assert piece in joined, piece

    def parse_random(u):
        for decl in symbols:
            u.declare(decl.name, decl.variances)
        return [parse_term(text, u) for text in texts]

    _assert_parsed_in_post_order(parse_random)
    query = sn_tn_source(8).splitlines()[0]
    _assert_parsed_in_post_order(lambda u: list(parse_query(query, u)))
    hierarchy, axioms, _ = class_hierarchy_session(3)
    source = "".join(f"fun {d.name} : ({','.join(v.value for v in d.variances)})\n"
                     for d in hierarchy.symbols.values())
    source += "".join(f"{print_term(hierarchy, a)} <= {print_term(hierarchy, b)}\n"
                      for a, b in axioms)
    _assert_parsed_in_post_order(
        lambda u: [t for pair in parse_source(source, u)[0] for t in pair])
