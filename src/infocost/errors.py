"""Exception taxonomy.

ValidationError covers everything wrong with user-supplied data (the CLI maps
it to exit code 2); SolverFailure covers internal numerical machinery that did
not terminate.  Scalar parameters are real numbers, never bools or strings;
integer parameters are never truncated; every out-of-model value raises a
ValidationError subclass.  `_real` and `_integer` below read scalar and
integer parameters by this rule.
"""

import math
import numbers


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


def _is_real(x) -> bool:
    """Whether x is a real number: a Python or numpy real or a Fraction, not
    a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _cast(x, to):
    """to(x) for a real x (`_is_real`), else NaN; NaN also where `to` fails:
    an int too large for a float, or inf or NaN for int."""
    try:
        return to(x) if _is_real(x) else math.nan
    except (OverflowError, ValueError):
        return math.nan


def _real(x, what: str, lo=0.0, hi=math.inf, error=ValidationError, closed=False) -> float:
    """x as a float in (lo, hi), or in (lo, hi] when `closed`, else `error`:
    Python and numpy reals and Fraction count; bools, strings, None and
    arrays do not."""
    v = _cast(x, float)
    if lo < v < hi or (closed and v == hi):
        return v
    raise error(f"{what} = {x!r} is not a real number in ({lo:g}, {hi:g}{']' if closed else ')'}")


def _integer(x, what: str, lo, hi=2**63 - 1, error=ValidationError) -> int:
    """x as an int in lo..hi, else `error`: an integral real such as 3 or
    3.0 counts; a bool does not, and 2.5 is refused, never truncated.  By
    default hi is the largest int64: no count or index goes beyond it."""
    v = _cast(x, int)
    if v == x and lo <= v <= hi:
        return v
    raise error(f"{what} = {x!r} is not an integer in {lo}..{hi}")
