"""Exception hierarchy.

Everything numerical derives from :class:`NumericalFailure` so the CLI can
map library failures to a single exit code; configuration problems raise
:class:`ConfigError` instead.
"""


class SectorialError(Exception):
    """Base class for all library errors."""


class ConfigError(SectorialError):
    """Invalid configuration or malformed input file."""


class NumericalFailure(SectorialError):
    """Base class for runtime numerical failures."""


# -- dense linear algebra ----------------------------------------------------

class SingularMatrixError(NumericalFailure):
    """Pivot collapsed below tolerance during factorization."""


class NoConvergenceError(NumericalFailure):
    """Iterative eigenvalue/SVD backend failed to converge."""


class OverflowError_(NumericalFailure):
    """Matrix exponential requested beyond the configured norm cap."""


class InvalidPError(SectorialError):
    """Schatten exponent outside [1, inf]."""


# -- forms and sectors -------------------------------------------------------

class NotSectorialError(NumericalFailure):
    """No admissible wedge: required half-angle reaches pi/2."""


class NotHermitianizableError(NumericalFailure):
    """Eigenvalue step on the hermitian part failed."""


class NotCoerciveError(NumericalFailure):
    """Hermitian part fails the required lower bound."""


class H0NotCoerciveError(NumericalFailure):
    """Reference hermitian form is not >= 1."""


# -- resolvent / contour -----------------------------------------------------

class SpectrumHitError(SingularMatrixError):
    """Resolvent requested at (numerically) a spectral point: an LU pivot
    below tolerance, or a Schur pivot t_ii - zeta with no finite reciprocal."""


class ZetaInsideRangeError(NumericalFailure):
    """Bound check requested at a point inside the numerical-range hull."""


class ContourThroughSpectrumError(NumericalFailure):
    """Quadrature nodes come too close to the spectrum."""


class GammaHitsSpectrumError(NumericalFailure):
    """Vertical splitting line passes through the spectrum."""


class DegenerateEnclosureError(NumericalFailure):
    """Contour encloses more than one eigenvalue (trace ~ k > 1)."""


class EmptyEnclosureError(NumericalFailure):
    """Contour encloses no spectrum (trace ~ 0)."""


class NotAProjectionError(NumericalFailure):
    """Matrix fails the idempotency tolerance."""


class ProbeOrthogonalError(NumericalFailure):
    """Probe vector (numerically) orthogonal to the enclosed eigenvector."""


# -- semigroup / thermal -----------------------------------------------------

class NotSectorialForBetaError(NumericalFailure):
    """arg(beta) plus sector half-angle reaches pi/2."""


class SectorViolationError(NumericalFailure):
    """Numerical range escapes the supplied sector."""


class ZeroPartitionFunctionError(NumericalFailure):
    """|Z| below the floor; free energy undefined."""


# -- lattice families --------------------------------------------------------

class DimensionMismatchError(SectorialError):
    """Field array shape incompatible with the grid/space."""


class ModulationTooLargeError(NumericalFailure):
    """Confining-potential modulation has sup-norm >= 1."""


class NotNormalizedPairError(NumericalFailure):
    """<eta, phi> deviates from 1 beyond tolerance."""


# -- eigenstate tracking -----------------------------------------------------

class RankNotOneError(NumericalFailure):
    """Projection rank differs from 1."""


class IsolationLostError(NumericalFailure):
    """Tracked eigenvalue's gap fell below the floor."""


# -- holomorphy harness ------------------------------------------------------

class EvaluationFailureError(NumericalFailure):
    """Target map could not be evaluated on a slice node."""


class NotEnoughTermsError(SectorialError):
    """Too few usable Taylor coefficients for a radius estimate."""
