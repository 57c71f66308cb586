"""Exception types shared across the package."""


class DecoyLinkError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DecoyLinkError, ValueError):
    """A parameter value or configuration is invalid."""


class DegenerateInputError(DecoyLinkError, ValueError):
    """A denominator quantity (yield or gain) is zero for these inputs."""


class ModelDomainError(DecoyLinkError, ValueError):
    """Inputs fall outside the regime covered by the single-order afterpulse model."""


class EstimationInfeasibleError(DecoyLinkError, ValueError):
    """Decoy estimation produced no positive single-photon yield bound."""


class NoSolutionError(DecoyLinkError, ValueError):
    """The optimal-intensity condition has no root for these parameters."""
