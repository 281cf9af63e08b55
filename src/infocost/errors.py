"""Exception taxonomy.

ValidationError covers everything wrong with user-supplied data (the CLI maps
it to exit code 2); SolverFailure covers internal numerical machinery that did
not terminate.  Scalar parameters are real numbers, never bools or strings;
integer parameters are never truncated; every out-of-model value raises a
ValidationError subclass.
"""


class InfoCostError(Exception):
    """Base class for all package errors."""


class ValidationError(InfoCostError, ValueError):
    """Invalid input data or parameters."""


class NonPositiveEntry(ValidationError):
    """A probability entry at or below the strict positivity floor."""


class RowSumViolation(ValidationError):
    """A probability row does not sum to 1 within tolerance."""


class DimensionMismatch(ValidationError):
    """Array shapes are inconsistent with each other."""


class StateSpaceMismatch(ValidationError):
    """Two objects were built over different state spaces."""


class AlphaOutOfRange(ValidationError):
    """Dilution or test level outside its admissible interval."""


class POutOfRange(ValidationError):
    """Binary success probability outside (0, 1)."""


class SigmaNonPositive(ValidationError):
    """Scale parameter must be strictly positive."""


class EpsilonOutOfRange(ValidationError):
    """Error rate outside (0, 0.5)."""


class MissingValues(ValidationError):
    """Operation requires a StateSpace with numeric values attached."""


class DuplicateValues(ValidationError):
    """State values must be pairwise distinct."""


class NotFullSupport(ValidationError):
    """A probability vector required to be strictly positive has a zero."""


class PriorNotFullSupport(NotFullSupport):
    """The prior must put strictly positive mass on every state."""


class ZeroProbabilityOnSupport(ValidationError):
    """A choice rule has a zero entry on an action inside its support."""


class DimensionTooLarge(ValidationError):
    """Request exceeds the dimension/order guard of the cumulant machinery."""


class IncompleteInput(ValidationError):
    """A mapping or specification is missing required entries."""


class UnknownReproduction(ValidationError):
    """Reproduction name not recognized."""


class SolverFailure(InfoCostError):
    """An internal iterative routine failed to terminate properly."""


class NonConcaveWarning(RuntimeWarning):
    """Zero off-diagonal distinguishability prices: the solve objective is
    concave but not strictly, so the optimum need not be unique."""
