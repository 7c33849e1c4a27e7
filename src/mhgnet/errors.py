"""Exception types shared across the package."""


class MhgnetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MhgnetError, ValueError):
    """Tensor dimensions do not line up for the requested operation."""


class FormatError(MhgnetError, ValueError):
    """A binary or text artifact does not conform to its declared layout.

    ``offset`` is the byte position at which decoding failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(MhgnetError, ValueError):
    """Invalid or inconsistent configuration."""


class MetricsError(MhgnetError, ValueError):
    """Metrics are undefined for the given inputs (e.g. fully masked)."""


class DivergenceError(MhgnetError, RuntimeError):
    """Training diverged (a non-finite loss, parameter or val MAE); carries diagnostic context."""


class GraphReleasedError(MhgnetError, RuntimeError):
    """A backward walk reached a graph that an earlier walk already consumed."""
