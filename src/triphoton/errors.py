"""Exception types shared across the package."""


class TriphotonError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TriphotonError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedModePair(DomainError):
    """Two temporal modes have no closed-form overlap (their Gaussian widths differ)."""


class TriadPhaseUndefined(TriphotonError):
    """The cyclic overlap product is too small for its argument to be meaningful."""


class NumericalInconsistency(TriphotonError):
    """A quantity that must be real/bounded came out outside tolerance."""


class SizeLimit(TriphotonError):
    """A request exceeds an exact-evaluation cap: photons, or the oracle's codes or step size."""


class ConfigError(TriphotonError):
    """A run configuration failed validation."""
