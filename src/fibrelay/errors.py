"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value; the message names the offending key."""


class ValidationOnlyModelError(ValueError):
    """A validation-only coefficient model was passed to a production operation."""


class UnbracketableError(RuntimeError):
    """Gain expansion found no sign change of the growth-rate estimate."""


class NumericalError(ArithmeticError):
    """A recursion state left double range."""
