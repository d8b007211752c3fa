"""Subtyping and normalization for ortholattice type expressions with
variance-annotated constructors and ground subtyping axioms."""

from . import errors
from .defs import Definition, desugar, substitute
from .entail import (
    AnnotatedTerm,
    Engine,
    ProofTree,
    Sequent,
    Verdict,
    check,
    order_proof,
    reconstruct_proof,
    verify_proof,
)
from .normalize import NormalTerm, beta, delta, eta, normalize_bl, normalize_ol, zeta
from .oracle import (
    FiniteOrtholattice,
    Interpretation,
    boolean2,
    enumerate_terms,
    evaluate,
    min_equivalent,
    o6,
    sample_monotone_tables,
    saturate,
    saturates,
)
from .syntax import AxiomSet, parse_query, parse_source, parse_term, print_term
from .terms import SymbolDecl, TermId, TermUniverse, Variance

__all__ = [
    "AnnotatedTerm",
    "AxiomSet",
    "Definition",
    "Engine",
    "FiniteOrtholattice",
    "Interpretation",
    "NormalTerm",
    "ProofTree",
    "Sequent",
    "SymbolDecl",
    "TermId",
    "TermUniverse",
    "Variance",
    "Verdict",
    "beta",
    "boolean2",
    "check",
    "delta",
    "desugar",
    "enumerate_terms",
    "errors",
    "eta",
    "evaluate",
    "min_equivalent",
    "normalize_bl",
    "normalize_ol",
    "o6",
    "order_proof",
    "parse_query",
    "parse_source",
    "parse_term",
    "print_term",
    "reconstruct_proof",
    "sample_monotone_tables",
    "saturate",
    "saturates",
    "substitute",
    "verify_proof",
    "zeta",
]
