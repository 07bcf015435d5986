"""Exception hierarchy shared across the package."""


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
