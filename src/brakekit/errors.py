"""Exception taxonomy shared across the package."""


class BrakekitError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(BrakekitError):
    """An iterative solve (Newton, descent, shooting) ran out of iterations."""


class BlowUp(BrakekitError):
    """A trajectory reached the state-norm ceiling during integration."""


class SingularMass(BrakekitError):
    """The fiber Hessian L_vv is numerically singular where it must be inverted."""


class SingularP(SingularMass):
    """The kinetic coefficient matrix P(t) is singular at a grid node."""


class GridMismatch(BrakekitError):
    """Two discretized objects live on incompatible grids."""


class SymmetryViolation(BrakekitError):
    """A reflected brake extension fails to solve the equations of motion."""


class EndpointMismatch(BrakekitError):
    """Concatenation of two path segments whose endpoints do not meet."""


class TooFar(BrakekitError):
    """Requested a geodesic between points farther apart than the injectivity radius."""


class SpeedTooHigh(BrakekitError):
    """An orbit moves faster than the modification threshold T allows."""


class InfeasibleParams(BrakekitError):
    """The modification constants cannot satisfy their defining inequalities."""


class IllConditionedCrossing(BrakekitError):
    """A crossing form stayed singular after the perturbation rule was applied."""


class NonSymplectic(BrakekitError):
    """An integrated fundamental solution drifted off the symplectic group."""


class PreconditionViolated(BrakekitError):
    """An input violates a documented precondition; carries a witness sample."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Unsupported(BrakekitError):
    """Requested a configuration outside the implemented scope."""


class MalformedRecord(BrakekitError):
    """A stored orbit record is not valid JSON or lacks a well-formed field."""
