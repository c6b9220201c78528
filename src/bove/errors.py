"""Exception types shared across the package."""


class BoveError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(BoveError):
    """Operand shapes do not agree."""


class ConllParseError(BoveError):
    """Malformed CoNLL input, located as "<path> line <N>: ", or "line <N>: "
    without a path."""

    def __init__(self, message, line_number=None, path=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
            if path is not None:
                message = "%s %s" % (path, message)
        super().__init__(message)
        self.line_number = line_number


class VocabularyError(BoveError):
    """Vocabulary construction or lookup failure."""


class ModelFormatError(BoveError):
    """Model file is not in the expected binary format."""


class ModelVersionError(ModelFormatError):
    """Model file has an unsupported format version."""


class ModelTruncatedError(ModelFormatError):
    """Model file ended before the expected payload."""


class ModelChecksumError(ModelFormatError):
    """Model file payload fails its CRC check."""


class SingularSystemError(BoveError):
    """A least-squares system is singular and no ridge term was given."""


class DivergenceError(BoveError):
    """Training produced non-finite values."""


class ConfigError(BoveError):
    """Bad pipeline configuration."""
