"""Exception types shared across the package."""


class OlsubError(Exception):
    """Base class for all errors raised by this package."""


class ConflictingDeclaration(OlsubError):
    """A symbol was re-declared with a different arity or variance list."""


class ArityMismatch(OlsubError):
    """A constructor application does not match its declared arity, or a
    node is rebuilt over a number of children its kind does not take."""


class UndeclaredSymbol(OlsubError):
    """A constructor name was used before being declared."""


class ParseError(OlsubError):
    """Input text was rejected; carries the offending position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DuplicateDefinition(OlsubError):
    """Two `type` directives define the same symbol."""


class NegationPresent(OlsubError):
    """A negation node reached a bounded-lattice-only code path."""


class NotProvable(OlsubError):
    """Proof reconstruction was requested for an unprovable goal."""


class UnknownVariance(OlsubError):
    """A variance is none of o (invariant), + (covariant) and - (contravariant)."""


class VarianceMismatch(OlsubError):
    """A substitution template is not monotone the way the symbol requires."""


class RecursiveDefinition(OlsubError):
    """A type definition's bound mentions its own or a later symbol."""


class MissingInterpretation(OlsubError):
    """A term mentions a symbol or variable the interpretation does not cover,
    or the interpretation values a variable with no element of the lattice."""


class NotALiteral(OlsubError):
    """The complement of a literal was asked of a meet, join or `NOT`."""


class BadN(OlsubError):
    """A benchmark family index is out of range (must be even and >= 2)."""


class AxiomsNotSupported(OlsubError):
    """Axioms were passed to an operation that is defined axiom-free."""


class BadEncoding(OlsubError):
    """A source file is not UTF-8 text."""


class InputTooDeep(OlsubError):
    """Input is nested deeper than the interpreter's recursion limit allows."""


class TermIdOverflow(OlsubError):
    """A term id is not one the universe holds, or a term id or side does
    not fit the packed sequent encoding."""


class EngineInterrupted(OlsubError):
    """An interrupt cut an engine's propagation short; its derived facts may
    be incomplete, so the engine answers no further queries."""
