"""Every exception psygat raises.

Domain errors derive from PsygatError, which the CLI maps to exit codes:
ConfigError to 2, every other PsygatError to 1. ShapeError and UsageError
flag programming mistakes and stay outside the hierarchy, so a bug still
shows a traceback.
"""


class PsygatError(Exception):
    pass


class ConfigError(PsygatError, ValueError):
    pass


class DataError(PsygatError, ValueError):
    pass


class NumericalError(PsygatError, FloatingPointError):
    pass


class CorpusError(DataError):
    pass


class CheckpointError(DataError):
    pass


class SchemaError(DataError):
    pass


class FormatError(DataError):
    pass


class EmptySessionError(DataError):
    pass


class ShapeError(ValueError):
    pass


class UsageError(RuntimeError):
    pass
