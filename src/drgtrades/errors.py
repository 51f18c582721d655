"""Exception types shared across the package."""


class UnsupportedFieldOrder(ValueError):
    """Field order is not one of the supported prime powers."""


class EnumerationTooLarge(RuntimeError):
    """Requested enumeration exceeds the configured cap."""


class Disconnected(ValueError):
    """Distances are undefined on a disconnected graph."""


class CliqueSearchTooLarge(RuntimeError):
    """Exact maximum-clique search exceeded its node budget."""


class NonIntegerSpectrum(ArithmeticError):
    """Intersection matrix has eigenvalues outside the integers."""


class NotAnEigenvalue(ValueError):
    """The tridiagonal recurrence does not close for this value."""


class NotCompletelyRegular(ValueError):
    """The vertex set is not completely regular."""


class ZeroFunction(ValueError):
    """Vertex function is identically zero."""


class NotDistanceRegular(ValueError):
    """Host graph is not distance-regular."""


class CliquesNotDelsarte(ValueError):
    """The natural clique family is not Delsarte for these parameters."""


class DegenerateEmpty(ValueError):
    """Difference of two identical designs is empty."""


class CrossCheckViolation(RuntimeError):
    """Two independently computed quantities that must agree did not.

    This is never a user error: it means either a bug or an input that
    breaks an equivalence the verification pipeline relies on.
    """


class InvalidParameters(ValueError):
    """Family parameters outside the range the construction is defined for."""
