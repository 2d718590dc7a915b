"""Exception types shared across the package."""


class TRiccatiError(Exception):
    """Base class for numerical failures raised by this package."""


class SingularOperatorError(TRiccatiError):
    """The linear operator of a T-Sylvester equation is singular or nearly so.

    Carries the reciprocal condition estimate that triggered the failure.
    """

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class ConvergenceError(TRiccatiError):
    """An eigenvalue or spectral-radius iteration failed to converge."""


class BasisBreakdownError(TRiccatiError):
    """The Krylov seed gave no direction: every candidate column was
    dropped, or their W image collapsed."""


class SingularCapacitanceError(TRiccatiError):
    """The small capacitance system of a low-rank-corrected solve is singular."""
