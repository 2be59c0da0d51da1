"""Exception types shared across the package."""


class McjError(ValueError):
    """Base class for all domain errors raised by this package."""


class ArityMismatchError(McjError):
    """Two polynomials (or a polynomial and a point) disagree on the number of variables."""


class WeightMismatchError(McjError):
    """Dominance comparison requested for partitions of different weight."""


class ParameterError(McjError):
    """Parameters violate a precondition (zero Pochhammer divisor, bad exponent, ...)."""


class GammaPoleError(McjError):
    """An argument of the cone gamma function hit a pole."""


class VandermondeZeroError(McjError):
    """Coincident evaluation points make a Vandermonde denominator vanish."""


class SingularPointError(McjError):
    """Evaluation requested exactly at a singular point of the weight function."""


class InvariantError(McjError):
    """An exact computation left a nonzero remainder where its algebra guarantees none."""
