"""tamecert: certified decisions on taming symplectic forms for Lie algebras.

The package exports what README documents: the library example's calls and
the types they return or raise, the structural toolkit, and what the CLI is
built on.  The lanes inside ``decide`` (the closed basis, the Gram forms, the
precheck, the ascent, exactify and the dual search) and the reduction's
helpers are imported from ``tamecert.feasibility``, ``tamecert.forms`` and
``tamecert.reduction``, and the coercion ``frac`` from ``tamecert.linalg``.
"""

from .algebra import (
    CompleteSolvability,
    LieAlgebra,
    is_completely_solvable,
    one_dim_ideals,
    weight_spaces,
)
from .errors import (
    DimensionMismatch,
    FixtureError,
    JacobiViolation,
    NoOneDimIdeal,
    NotAComplexStructure,
    NotAnIdeal,
    NotIsotropic,
    RelationViolation,
    TamecertError,
    TamingLost,
    TripleVerificationError,
)
from .feasibility import Feasible, Infeasible, Unknown, decide
from .fixtures import Fixture, dumps_report, load_fixture, parse_fixture
from .forms import (
    ComplexStructure,
    OneForm,
    ThreeForm,
    TwoForm,
    ce_d,
    is_integrable,
    standard_complex_structure,
)
from .linalg import Subspace
from .pipeline import AnalysisReport, ProofTraceRecord, analyze, corpus_run, proof_trace
from .reduction import ReductionStep, ReductionTower, TamedTriple, reduce, reduction_tower

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CompleteSolvability",
    "ComplexStructure",
    "DimensionMismatch",
    "Feasible",
    "Fixture",
    "FixtureError",
    "Infeasible",
    "JacobiViolation",
    "LieAlgebra",
    "NoOneDimIdeal",
    "NotAComplexStructure",
    "NotAnIdeal",
    "NotIsotropic",
    "OneForm",
    "ProofTraceRecord",
    "ReductionStep",
    "ReductionTower",
    "RelationViolation",
    "Subspace",
    "TamecertError",
    "TamedTriple",
    "TamingLost",
    "ThreeForm",
    "TripleVerificationError",
    "TwoForm",
    "Unknown",
    "analyze",
    "ce_d",
    "corpus_run",
    "decide",
    "dumps_report",
    "is_completely_solvable",
    "is_integrable",
    "load_fixture",
    "one_dim_ideals",
    "parse_fixture",
    "proof_trace",
    "reduce",
    "reduction_tower",
    "standard_complex_structure",
    "weight_spaces",
]
