"""Exception types shared across the package."""


class TRiccatiError(Exception):
    """Base class for numerical failures raised by this package."""


class SingularOperatorError(TRiccatiError):
    """An operator the solvers must invert is singular or nearly so: a
    T-Sylvester operator (the dense QZ solver), a sparse matrix whose LU
    fails, or a low-rank-shifted coefficient whose Sherman-Morrison-Woodbury
    capacitance is singular."""
