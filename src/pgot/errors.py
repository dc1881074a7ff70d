"""Error taxonomy shared across modules; the CLI maps these to exit codes."""


class ConfigError(ValueError):
    """Invalid configuration or incompatible config/data dimensions. Exit 2."""


class DataError(ValueError):
    """Bad input data or on-disk format violation. Exit 3."""


class BadMagicError(DataError):
    """File does not start with the expected magic bytes."""


class VersionError(DataError):
    """File format version is not supported."""


class TruncatedError(DataError):
    """File ends before the declared payload is complete."""


class NumericalError(RuntimeError):
    """NaN/Inf encountered during forward or optimization. Exit 4."""

    def __init__(self, message: str, layer: int | None = None, param: str | None = None):
        super().__init__(message)
        self.layer = layer
        self.param = param


class MetricError(ValueError):
    """Metric undefined for the given inputs (zero norm, total ties)."""
