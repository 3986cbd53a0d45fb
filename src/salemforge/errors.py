"""Exception types shared across the package."""


class SalemforgeError(Exception):
    """Base class for all package-specific errors."""


class NoRealRoot(SalemforgeError):
    """Root isolation was asked for a polynomial without real roots."""


class EndpointIsRoot(SalemforgeError):
    """A Sturm count was requested on an interval whose endpoint is a root."""


class NotIsolating(SalemforgeError):
    """An interval does not isolate exactly one simple root of its polynomial."""


class NoSplitPoint(SalemforgeError):
    """No interior point of an interval avoids the roots of the given polynomials."""


class InvalidOrbitData(SalemforgeError):
    """Orbit data is not integral or violates d >= 1, n_i >= 1 or m <= 2d-1."""


class StructureViolation(SalemforgeError):
    """A structural matrix identity failed; signals an implementation bug."""


class IndexClash(SalemforgeError):
    """The three indices of a quadratic generator are not distinct/in range."""


class NotAnIsometry(SalemforgeError):
    """A matrix handed to the Weyl machinery does not preserve the form."""


class RankTooSmall(SalemforgeError, ValueError):
    """Weyl membership needs lattice rank n >= 3, a matrix of size >= 4."""


class InvalidKey(SalemforgeError):
    """A spectrum key violates the preconditions of the requested operation."""


class BoundTooSmall(SalemforgeError):
    """Enumeration ran out of candidates below the entry bound."""


class ToleranceNotReached(SalemforgeError):
    """Limit verification could not certify the requested gap."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class CensusContradiction(SalemforgeError):
    """A census reported outside != 1 where theory forces exactly one."""


class ModulusMismatch(SalemforgeError):
    """Residue operands live in different residue contexts."""


class NotInvertible(SalemforgeError):
    """A residue element shares a factor with the modulus, so no inverse."""


class StoreCorrupt(SalemforgeError):
    """A cache record could not be parsed (corrupt line)."""
