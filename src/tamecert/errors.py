"""Exception types shared across the package."""

from __future__ import annotations


class TamecertError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(TamecertError):
    pass


class JacobiViolation(TamecertError):
    """Structure constants fail the Jacobi identity.

    Carries the first violated basis triple and the exact residual vector
    of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].
    """

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple {triple}: residual {residual}")


class NotAnIdeal(TamecertError):
    pass


class NotAComplexStructure(TamecertError):
    """J**2 != -Identity."""


class NoOneDimIdeal(TamecertError):
    """No rational one-dimensional ideal was found.

    Signals that the algebra is not completely solvable or that the exact
    invariant-line search failed (e.g. all invariant lines irrational).
    """


class NotIsotropic(TamecertError):
    pass


class TamingLost(TamecertError):
    """Internal assertion: a reduction step lost a verified property.

    Reduction along a 1-dimensional isotropic ideal of a verified tamed
    triple provably preserves every flag, so this is always an implementation
    bug, never a user-facing verdict.
    """


class ExactificationFailed(TamecertError):
    """Continued-fraction rounding never produced an exactly PD Gram."""


class RelationViolation(TamecertError):
    """A bracket relation of the proof trace has a nonzero residual."""

    def __init__(self, relation, generator, residual):
        self.relation = relation
        self.generator = generator
        self.residual = residual
        super().__init__(
            f"relation {relation!r} violated for Y = {generator}: residual {residual}"
        )


class TripleVerificationError(TamecertError):
    """A (algebra, omega, J) triple failed one of the construction checks."""

    def __init__(self, failed_flags):
        self.failed_flags = tuple(failed_flags)
        super().__init__(f"triple verification failed: {', '.join(self.failed_flags)}")


class FixtureError(TamecertError):
    """A fixture file is malformed; message carries field diagnostics."""
