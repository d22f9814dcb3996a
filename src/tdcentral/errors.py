"""Exception types shared across the package."""


class DomainError(ValueError):
    """Evaluation requested outside a function's declared domain."""


class ParseError(ValueError):
    """Malformed scalar-function expression text."""


class ToleranceNotMet(RuntimeError):
    """Adaptive quadrature hit its subdivision limit before converging."""


class StepLimitExceeded(RuntimeError):
    """ODE integration exceeded the configured step budget."""


class UnknownPreset(KeyError):
    """Requested preset name is not in the registry."""


class InvalidParameters(ValueError):
    """Preset or model parameters violate a validity constraint."""


class ConfigError(ValueError):
    """Bad or missing key in a run configuration."""
