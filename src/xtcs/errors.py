"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An argument or parameter set violates a documented precondition.

    The message always names the offending field or argument.
    """


class ResolutionError(RuntimeError):
    """A grid is too coarse for the requested operation."""


class QuadratureError(RuntimeError):
    """A quadrature result failed its convergence / truncation estimate."""


class NonFiniteError(RuntimeError):
    """A computed quantity came out NaN or infinite; the message names the stage."""


class AttractiveCouplingWarning(UserWarning):
    """Emitted for 0 < coupling < 1, where the two-body interaction is attractive."""
