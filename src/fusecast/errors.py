"""Exception types shared across the engine.

The CLI maps these onto stable exit codes: ConfigError and ShapeError -> 2
(a config whose shapes do not match the checkpoint is a config error, and
so is a MemoryError, which a smaller batch fixes), NumericalError -> 3,
IngestionError and OSError -> 4 (a corrupt or truncated checkpoint is an
IngestionError).
"""


class ShapeError(ValueError):
    """Tensor dimensions do not line up for the requested operation."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class IngestionError(ValueError):
    """An input file could not be parsed; message carries the location."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where the computation requires finite ones."""
