"""Exception types shared across the package."""


class ProxFrameError(Exception):
    """Base class for all proxframe errors."""


class RankDeficient(ProxFrameError):
    """Matrix is not injective: smallest singular value below the rank tolerance."""


class DimensionMismatch(ProxFrameError):
    """Operands have incompatible shapes."""


class NonPositiveLambda(ProxFrameError):
    """Shrinkage scale must be strictly positive and finite."""


class NotParsevalRow(ProxFrameError):
    """Matrix rows are not orthonormal (T T* differs from the identity)."""


class NotConverged(ProxFrameError):
    """Iterative evaluation hit the iteration cap before reaching tolerance, or left the float64 range."""
