"""The package's errors, one class per CLI exit code: `cli.main` exits 2 on
InvalidConfig, 3 on IoError and 4 on NumericError or a bare SpikeCodecError.
"""


class SpikeCodecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(SpikeCodecError):
    """An invalid setting (exit code 2)."""


class IoError(SpikeCodecError):
    """A file that cannot be read or written, or holds bad data (exit code 3)."""


class NumericError(SpikeCodecError):
    """A violated numeric contract (exit code 4)."""
