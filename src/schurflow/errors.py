"""Exception hierarchy used across the library.

All library-specific failures derive from :class:`SchurFlowError` so callers
can catch one base class.  Precondition violations on plain arguments
(bad shapes, non-finite entries, out-of-range scalars) raise the standard
``ValueError`` / ``TypeError`` instead.
"""


class SchurFlowError(Exception):
    """Base class for all library errors."""


class FastSectorNotPD(SchurFlowError):
    """Fast-sector block is not positive definite; elimination is ill posed."""


class FastSectorUnstable(SchurFlowError):
    """Fast-sector generator is not strictly stable: an eigenvalue's real
    part is not below minus the Hurwitz margin."""


class ZeroTensor(SchurFlowError):
    """A tensor collapsed below the zero floor and cannot be normalized."""


class DegenerateDraw(SchurFlowError):
    """A random draw is degenerate, e.g. an anisotropy below the zero floor."""


class NonFiniteState(SchurFlowError):
    """A flow update or its norm overflowed or became NaN."""


class NoValidRecords(SchurFlowError):
    """A grid cell produced no valid trajectories to aggregate."""


class ResponseNotPD(SchurFlowError):
    """A response tensor required to be positive definite is not."""


class UnstableDrift(SchurFlowError):
    """Drift matrix is not Hurwitz; no stationary state exists."""


class BalanceResidual(SchurFlowError, ArithmeticError):
    """A fluctuation-balance solution misses its residual tolerance."""


class SingularCovariance(SchurFlowError):
    """Sample covariance is numerically singular; inverse is unreliable."""


class ConfigInvalid(SchurFlowError):
    """A run configuration failed validation."""
