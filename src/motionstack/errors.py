"""Exception types shared across the package.

Every class doubles as a ValueError (or LookupError) so callers that do not
care about the precise failure can catch the built-in. Defects are told
apart by message, not by subclass: every bad PPM frame is a ``PpmError``.
"""


class MotionStackError(Exception):
    """Base class for all package-specific errors."""


class TensorFormatError(MotionStackError, ValueError):
    """Malformed tensor container: bad magic, bad header, or payload size mismatch."""


class PpmError(MotionStackError, ValueError):
    """A PPM frame that is not binary P6 with maxval 255, or whose header or payload is cut short."""


class FrameLookupError(MotionStackError, LookupError):
    """Requested target frame index is absent from the frame source."""


class DataValidationError(MotionStackError, ValueError):
    """An input file violates its schema; ``jsonio`` checks every JSON and JSON-lines file."""
