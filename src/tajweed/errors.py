"""Exception taxonomy shared by all tajweed modules.

One class per CLI exit code: each family carries the exit code of every
error in its tree as exit_code, so errors must stay within their family tree.
A leaf exists only where its raise sites share a message format
(ParseError); otherwise a raise site raises its family, and tests tell its
cases apart by message, which is what an operator sees.
"""


class TajweedError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class AudioError(TajweedError):
    exit_code = 3


class FeatureError(TajweedError):
    exit_code = 4


class SvmError(TajweedError):
    exit_code = 5


class DetectionError(TajweedError):
    exit_code = 6


class DatasetError(TajweedError):
    exit_code = 7


class ParseError(DatasetError):
    """Malformed input; with a line number the message begins `path:line: `."""

    def __init__(self, message, line_number=None, path=None):
        where = ":".join(str(part) for part in (path, line_number) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)


class PersistenceError(TajweedError):
    exit_code = 8


class IoError(TajweedError):
    """Filesystem failure while reading or writing corpora, manifests,
    verdicts, review queues or model files. The CLI maps a bare OSError
    from opening an input file to this family's exit code."""

    exit_code = 9
