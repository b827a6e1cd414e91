"""Exception taxonomy shared by all tajweed modules.

Each family maps to one CLI exit code (see cli.EXIT_CODES), so errors must
stay within their family tree.
"""


class TajweedError(Exception):
    """Base class for every error raised by this package."""


# --- audio ---------------------------------------------------------------

class AudioError(TajweedError):
    pass


class NotFound(AudioError):
    pass


class UnsupportedFormat(AudioError):
    pass


class CorruptHeader(AudioError):
    pass


class InvalidRate(AudioError):
    pass


# --- features ------------------------------------------------------------

class FeatureError(TajweedError):
    pass


class WrongRate(FeatureError):
    pass


class TooFewVectors(FeatureError):
    pass


# --- svm -----------------------------------------------------------------

class SvmError(TajweedError):
    pass


class DimensionMismatch(SvmError):
    pass


class SingleClass(SvmError):
    pass


class TooFewSamples(SvmError):
    pass


class NoConvergence(SvmError):
    """Solver ran out of iterations. Carries the best iterate as .model."""

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model


# --- detection -----------------------------------------------------------

class DetectionError(TajweedError):
    pass


class EmptyNegatives(DetectionError):
    pass


# --- dataset -------------------------------------------------------------

class DatasetError(TajweedError):
    pass


class ParseError(DatasetError):
    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class StratumTooSmall(DatasetError):
    pass


class MissingStratum(DatasetError):
    pass


class UnknownRecord(DatasetError):
    pass


class InvalidTransition(DatasetError):
    pass


# --- persistence / shared IO ----------------------------------------------

class PersistenceError(TajweedError):
    pass


class VersionMismatch(PersistenceError):
    def __init__(self, found, expected):
        super().__init__(f"model format version {found} not readable (expected {expected})")
        self.found = found
        self.expected = expected


class SchemaError(PersistenceError):
    pass


class IoError(TajweedError):
    """Filesystem failure while reading or writing corpora, manifests,
    verdicts, review queues or model files. The CLI maps a bare OSError
    from opening an input file to this family's exit code."""
