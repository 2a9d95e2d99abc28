"""Exception types shared across the package.

Every class doubles as a ValueError (or LookupError) so callers that do not
care about the precise failure can catch the built-in, while tests and the
CLI can distinguish conditions by type.
"""


class MotionStackError(Exception):
    """Base class for all package-specific errors."""


class TensorFormatError(MotionStackError, ValueError):
    """Malformed tensor container: bad magic, bad header, or payload size mismatch."""


class PpmError(MotionStackError, ValueError):
    """Base class for PPM decode failures."""


class UnsupportedPpmFormat(PpmError):
    """File is not a binary (P6) PPM image."""


class MalformedPpmHeader(PpmError):
    """PPM header tokens are missing or not numeric."""


class UnsupportedPpmMaxval(PpmError):
    """PPM maxval is not 255."""


class TruncatedPpmPayload(PpmError):
    """PPM pixel payload is shorter than the header promises."""


class FrameIndexParseError(MotionStackError, ValueError):
    """File stem contains no decimal digits to derive a frame index from."""


class FrameLookupError(MotionStackError, LookupError):
    """Requested target frame index is absent from the frame source."""


class DataValidationError(MotionStackError, ValueError):
    """An input file violates its schema; ``jsonio`` checks every JSON and JSON-lines file."""
