"""Exception types shared across the package."""


class TRiccatiError(Exception):
    """Base class for numerical failures raised by this package."""


class SingularOperatorError(TRiccatiError):
    """The operator of a T-Sylvester equation is singular or nearly so."""


class ConvergenceError(TRiccatiError):
    """An eigenvalue or spectral-radius iteration failed to converge."""


class BasisBreakdownError(TRiccatiError):
    """The Krylov seed gave no direction: every candidate column was
    dropped, or their W image collapsed."""


class SingularCapacitanceError(TRiccatiError):
    """The small capacitance system of a low-rank-corrected solve is singular."""
