"""Exception types shared across the package."""


class TRiccatiError(Exception):
    """Base class for numerical failures raised by this package."""


class SingularOperatorError(TRiccatiError):
    """An operator the solvers must invert is singular or nearly so: a
    T-Sylvester operator (dense QZ solver or Kronecker oracle), a sparse
    matrix whose LU fails, or a low-rank-shifted coefficient whose
    Sherman-Morrison-Woodbury capacitance is singular."""


class BasisBreakdownError(TRiccatiError):
    """The Krylov seed gave no direction: every candidate column was
    dropped, or their W image collapsed."""
