"""Exception types, mapped onto CLI exit codes by cbtcode.cli."""


class CbtCodeError(Exception):
    """Base class for all cbtcode errors."""

    exit_code = 1


class ValidationError(CbtCodeError):
    """Invalid input data, configuration, or arguments."""

    exit_code = 2


class ParseError(ValidationError):
    """Malformed record in an input file; message names the offending line."""


class MissingLabelsError(ValidationError):
    """Sessions that the label source gives no scores for."""


class MissingArtifactError(CbtCodeError):
    """A required file (corpus, model, matrix) is absent."""

    exit_code = 3


class NumericalError(CbtCodeError):
    """Optimization failure or non-finite values inside a numerical routine."""

    exit_code = 4
