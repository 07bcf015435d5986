"""Exception hierarchy shared across the package, and the two number checks
the value types raise them from."""

import cmath
import numbers


class CatqedError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(CatqedError):
    """Malformed, incomplete, or contradictory run configuration."""


class DimensionMismatchError(CatqedError):
    """Operands live on incompatible Dicke/Fock grids."""


class StateValidationError(CatqedError):
    """A state or density matrix violates its structural invariants."""


class TruncationError(CatqedError):
    """Fock-space cutoff too small for the requested amplitude or run."""


class NumericalError(CatqedError):
    """Overflow, NaN, or a diverging iteration detected mid-run."""


class ImpossibleOutcomeError(CatqedError):
    """Conditioning on an outcome whose probability is numerically zero.

    ``possible`` is a boolean mask over the caller's whole stack of samples
    (0-d for a single state): False on every sample the refusing Gram found
    below the floor, which is at least one, and True on the others."""

    def __init__(self, message: str, possible):
        super().__init__(message)
        self.possible = possible


class QuadratureConvergenceError(CatqedError):
    """Gauss-node doubling failed to stabilize a finite-window projection."""


class GridConvergenceError(CatqedError):
    """Doubling a coherent-grid resolution still changes the result."""


class PeakError(CatqedError):
    """A time series has no interior peak or no half-maximum crossings."""


def check_finite(value, what: str, kind=numbers.Real) -> None:
    """Raise ``ConfigError`` unless ``value`` is a finite number of ``kind``
    (``numbers.Complex`` for an amplitude).  A bool is refused: it is an
    int, so a flag would pass for 0 or 1; ``np.bool_`` is no number."""
    try:
        finite = (not isinstance(value, bool) and isinstance(value, kind)
                  and cmath.isfinite(value))
    except OverflowError:                     # an int past the float range
        finite = False
    if not finite:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")


def check_count(value, what: str, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is a positive integer and no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
