"""Exception types shared across the pipeline stages."""


class ProfileBenchError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(ProfileBenchError):
    """A configuration value fails validation before any work starts."""


class IoFailure(ProfileBenchError):
    """A read or write of a pipeline artifact failed."""


class SubsetMismatch(ProfileBenchError):
    """A profile outside a subset label space was mapped into it."""


class UnknownTemplate(ProfileBenchError):
    """A text template id is not present in the template bank."""


class IndexOutOfRange(ProfileBenchError, IndexError):
    """A step or window index lies outside the session bounds."""


class TargetTooSmall(ProfileBenchError):
    """A balancing target is below the window count of a single game."""


class DimensionMismatch(ProfileBenchError):
    """Array shapes disagree with the model parameter shapes."""


class SchemaMismatch(ProfileBenchError):
    """Feature schema versions of sample and checkpoint disagree."""


class NonFiniteLoss(ProfileBenchError):
    """Training produced a NaN or infinite loss (divergence)."""


class EmptySplit(ProfileBenchError):
    """A train or validation split contains no samples."""


class EmptyTestSet(ProfileBenchError):
    """An evaluation was requested on zero samples."""


class SpaceMismatch(ProfileBenchError):
    """Model label space and experiment label space disagree."""


class ZeroFrequency(ProfileBenchError):
    """A frequency vector passed to the neutral correction contains zeros."""


class DegenerateData(ProfileBenchError):
    """Data cannot be used as given: a constant baseline feature column, or
    a hashed-text count that does not fit in a feature file's int8."""
