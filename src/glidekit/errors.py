"""Domain errors with stable machine-readable codes (used by the CLI)."""


class GlidekitError(ValueError):
    """Base class for all domain errors raised by this package."""

    code = "domain-error"


class InvalidCompositionError(GlidekitError):
    code = "invalid-composition"


class LengthMismatchError(GlidekitError):
    code = "length-mismatch"


class OutOfRangeError(GlidekitError):
    code = "out-of-range"


class NotQuasisymmetricError(GlidekitError):
    code = "not-quasisymmetric"


class NotInCSetError(GlidekitError):
    code = "not-in-c-set"


class NotGrassmannianError(GlidekitError):
    code = "not-grassmannian"


class UnknownLabelError(GlidekitError):
    code = "unknown-label"


class SizeMismatchError(GlidekitError):
    code = "size-mismatch"


class InputFileError(GlidekitError):
    code = "input-unreadable"


class MalformedInputError(GlidekitError):
    code = "malformed-input"
