import pytest

from olsub import Variance, oracle, parse_query, parse_source, parse_term, print_term
from olsub.errors import ArityMismatch, DuplicateDefinition, ParseError, UndeclaredSymbol
from olsub.normalize import delta


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


def test_type_definition_line(u):
    _, defs = parse_source("fun S : (+)\ntype U[A] <: S(A)\n", u)
    assert len(defs) == 1
    assert defs[0].name == "U"
    assert defs[0].params == ("A",)
    assert "U" in u.symbols and u.symbols["U"].arity == 1
    with pytest.raises(DuplicateDefinition):
        parse_source("fun S : (+)\ntype U[A] <: S(A)\ntype U[A] <: S(A)\n", u)


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
