"""Subtyping and normalization for ortholattice type expressions with
variance-annotated constructors and ground subtyping axioms."""

from . import errors
from .defs import Definition, desugar
from .entail import (
    Engine,
    ProofTree,
    Verdict,
    check,
    elements,
    reconstruct_proof,
    sequent,
    verify_proof,
)
from .normalize import NormalTerm, beta, delta, eta, normalize_bl, normalize_ol, zeta
from .oracle import (
    FiniteOrtholattice,
    Interpretation,
    boolean2,
    enumerate_terms,
    evaluate,
    o6,
    sample_monotone_tables,
    saturate,
    saturates,
)
from .syntax import AxiomSet, parse_query, parse_source, parse_term, print_term
from .terms import SymbolDecl, TermId, TermUniverse, Variance

__all__ = [
    "AxiomSet",
    "Definition",
    "Engine",
    "FiniteOrtholattice",
    "Interpretation",
    "NormalTerm",
    "ProofTree",
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
    "elements",
    "enumerate_terms",
    "errors",
    "eta",
    "evaluate",
    "normalize_bl",
    "normalize_ol",
    "o6",
    "parse_query",
    "parse_source",
    "parse_term",
    "print_term",
    "reconstruct_proof",
    "sample_monotone_tables",
    "saturate",
    "saturates",
    "sequent",
    "verify_proof",
    "zeta",
]
