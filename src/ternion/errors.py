"""Exception types shared across the package."""


class TernionError(Exception):
    """Base class for all package-specific errors."""


class SingularNumber(TernionError):
    """A ternary number with (numerically) vanishing cubic norm; not invertible."""


class DomainError(TernionError):
    """Input outside the domain where the requested formula is defined."""


class NumericalBreakdown(TernionError):
    """A closed form left the float range, or finite-difference estimates
    disagree beyond the declared tolerance."""


class QuadratureFailure(TernionError):
    """Adaptive quadrature could not meet the tolerance within its budget."""


class SingularOnPath(TernionError):
    """The integrand hit the singular set while integrating along a curve/surface."""


class NotHolomorphic(TernionError):
    """Operation requires a field that passes the first holomorphy test."""


class OnSingularSet(TernionError):
    """Field evaluation requested on or too close to the singular set."""


class _Stopped(TernionError):
    """An integration stop.  trajectory holds the samples accepted before
    the stop; its final_state() is the last good state."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class SingularApproach(_Stopped):
    """Trajectory approached the singular set; carries the partial trajectory."""


class StepFailure(_Stopped):
    """The step controller stalled, used up its budget or left the float range."""


class NoSecondSolution(TernionError):
    """The asymptote equation has no solution besides the trivial one."""


class RootFindingFailure(TernionError):
    """No bracket found, or the bracketed solve did not meet its residual."""


class PoleOnRange(TernionError):
    """A pole of the integrand lies inside the requested range."""


class JacobianSingular(TernionError):
    """The scattering Jacobian is numerically singular."""
