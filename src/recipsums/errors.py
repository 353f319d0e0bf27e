"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all recipsums errors."""


class NotPrime(Error):
    """The modulus failed the deterministic primality check."""


class NotInvertible(Error):
    """Attempted a reciprocal of an integer divisible by the modulus."""


class FieldMismatch(Error):
    """Two operands belong to different prime fields."""


class NonPositiveU(Error):
    """The tuple length computed from (beta, k) would be < 1."""


class EmptyBase(Error):
    """Fewer primes below the height bound than the tuple length requires."""


class Stalled(Error):
    """A growth step left the set unchanged below the target size."""


class IterationCap(Error):
    """An iteration limit was reached before the stopping condition."""


class NonPositiveTheta(Error):
    """A growth exponent must be > 0."""


class NonPositiveBeta(Error):
    """A height exponent must be > 0."""


class BoundViolated(Error):
    """The bilinear sum bound failed; indicates an implementation bug."""


class Unreachable(Error):
    """An exhaustive search reached its term cap without covering a residue."""
