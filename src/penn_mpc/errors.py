"""Exception hierarchy shared across the toolkit."""


class PennMpcError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PennMpcError):
    """Invalid configuration: bad sizes, unknown keys, out-of-range values."""


class ShapeError(PennMpcError):
    """Array dimensions do not match the declared layer/window sizes."""


class TrainingError(PennMpcError):
    """Training aborted: non-finite gradients or loss, empty dataset."""


class ModelError(PennMpcError):
    """Model misuse or non-finite model output (e.g. ensemble call on a
    deterministic checkpoint)."""


class CheckpointError(PennMpcError):
    """Checkpoint file is corrupt, truncated, or has an unknown version."""


class DataError(PennMpcError):
    """Dataset files are malformed or inconsistent with the requested use."""


class GeometryError(PennMpcError):
    """Track segment specification does not close into a loop."""


class ControlError(PennMpcError):
    """Controller cannot produce a meaningful update (e.g. every rollout
    was invalid)."""
