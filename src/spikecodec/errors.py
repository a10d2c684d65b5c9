"""Exception hierarchy. The CLI maps these onto stable exit codes:
config errors -> 2, input/output errors -> 3, numeric failures -> 4.
"""


class SpikeCodecError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpikeCodecError):
    """Invalid configuration (CLI exit code 2)."""


class InvalidConfig(ConfigError):
    pass


class InputError(SpikeCodecError):
    """File and format problems (CLI exit code 3)."""


class UnsupportedFormat(InputError):
    pass


class CorruptFile(InputError):
    pass


class IoError(InputError):
    pass


class NumericError(SpikeCodecError):
    """Violated numeric contracts (CLI exit code 4)."""


class DimensionMismatch(NumericError):
    pass


class LengthTooSmall(NumericError):
    pass


class ShiftOutOfRange(NumericError):
    pass


class CodeOutOfBounds(NumericError):
    pass


class ZeroIntensity(NumericError):
    pass


class ShapeMismatch(NumericError):
    pass


class DegenerateData(NumericError):
    pass
