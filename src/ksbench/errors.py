"""Exception types shared across the package."""


class MeshError(ValueError):
    """Invalid mesh data or geometric query outside the domain."""


class ResonanceError(ValueError):
    """A parameter sits (within tolerance) on a degenerate value.

    `which`, set by `topology.indices`, names the offending condition:
    "rho" (multiple of 4*pi), "beta" (eigenvalue hit) or "shifted"
    (beta - rho/|Omega| eigenvalue hit).
    """

    def __init__(self, message, which=None):
        super().__init__(message)
        self.which = which


class RefinementNeededError(RuntimeError):
    """The mesh is too coarse to resolve the requested profile scale."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge."""


class NotConcentratedError(ValueError):
    """A density is not captured by any admissible atom family."""


class NotInLowSublevelError(RuntimeError):
    """Neither the concentration nor the projection branch applies."""


class EmptySpaceError(ValueError):
    """K = I = 0: the model space is empty (coercive regime)."""
