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
from .syntax import AxiomSet, parse_query, parse_source, parse_term, print_term
from .terms import SymbolDecl, TermId, TermUniverse, Variance

__all__ = [
    "AxiomSet",
    "Definition",
    "Engine",
    "NormalTerm",
    "ProofTree",
    "SymbolDecl",
    "TermId",
    "TermUniverse",
    "Variance",
    "Verdict",
    "beta",
    "check",
    "delta",
    "desugar",
    "elements",
    "errors",
    "eta",
    "normalize_bl",
    "normalize_ol",
    "parse_query",
    "parse_source",
    "parse_term",
    "print_term",
    "reconstruct_proof",
    "sequent",
    "verify_proof",
    "zeta",
]
