"""Exception taxonomy shared by all tajweed modules.

Each family carries the CLI exit code of every error in its tree as
exit_code, so errors must stay within their family tree.
"""


class TajweedError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


# --- audio ---------------------------------------------------------------

class AudioError(TajweedError):
    exit_code = 3


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
    exit_code = 4


class WrongRate(FeatureError):
    pass


class TooFewVectors(FeatureError):
    pass


# --- svm -----------------------------------------------------------------

class SvmError(TajweedError):
    exit_code = 5


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
    exit_code = 6


class EmptyNegatives(DetectionError):
    pass


# --- dataset -------------------------------------------------------------

class DatasetError(TajweedError):
    exit_code = 7


class ParseError(DatasetError):
    """Malformed input; with a line number the message begins `path:line: `."""

    def __init__(self, message, line_number=None, path=None):
        where = ":".join(str(part) for part in (path, line_number) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)
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
    exit_code = 8


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

    exit_code = 9
