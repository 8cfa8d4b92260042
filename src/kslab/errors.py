"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible lengths or shapes."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or unattainable."""


class TrainingDiverged(ArithmeticError):
    """A training loss became NaN or infinite."""
