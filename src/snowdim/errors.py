"""Exception types raised by the library.

Every error carries enough context in its message to reproduce the failing
call; none of them are ever swallowed internally.
"""


class SnowdimError(Exception):
    """Base class for all library errors."""


class EmptyInput(SnowdimError):
    """Operation needs at least two points (or one, where documented)."""


class DuplicatePoints(SnowdimError):
    """Two input points coincide, so the minimum distance is undefined."""


class UnknownKind(SnowdimError):
    """Unrecognised synthetic generator kind."""


class BadParams(SnowdimError, ValueError):
    """Parameter combination violates a documented precondition."""


class PaddingUnachievable(SnowdimError):
    """Monte Carlo padding audit failed after all retries.

    Signals that the partition diameter bound is too small relative to
    pad_radius times the doubling dimension; the caller should enlarge it.
    """


class NotEuclidean(SnowdimError):
    """Distance matrix is not realisable in l2 (Gram spectrum too negative)."""


class ClusterTooLarge(SnowdimError):
    """Cut decomposition refused a point set past its box cap."""


class ExtensionDidNotConverge(SnowdimError):
    """Cyclic ball projections ran out of iterations."""


class DuplicateSources(SnowdimError):
    """Extension anchors contain coincident source points."""


class HeaderMismatch(SnowdimError):
    """Serialized artifact header disagrees with expected magic/version."""
