"""Exception hierarchy shared by every module in the package."""

import math


class SpdAlignError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SpdAlignError):
    """Operands have incompatible shapes, or a square matrix was expected."""


class ParameterError(SpdAlignError):
    """A numeric parameter lies outside its documented range.

    ``name`` is the parameter's field name when the raise site knows it, so
    that the run-config reader can report the line that set it.
    """

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        self.name = name


def check_finite(**values: float | None) -> None:
    """Raise ParameterError naming the first value that is NaN or infinite; None passes."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}", name=name)


def check_seed(seed: int) -> None:
    """Raise ParameterError unless ``seed`` is nonnegative, as numpy's generators require."""
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}", name="seed")


class SingularityError(SpdAlignError):
    """Strict positive definiteness was required but not met.

    Batched kernels set ``index`` to the position of the first failing item in
    their stack, so that the caller can name the class it belongs to.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NumericalError(SpdAlignError):
    """An iterative numerical routine failed or produced non-finite output."""


class DivergenceError(NumericalError):
    """Training hit a non-finite loss. ``step`` is the offending step index."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


class LabelError(SpdAlignError):
    """A class label is outside the declared class count."""


class EmptyClassError(SpdAlignError):
    """Statistics were requested for a class with no samples."""


class ConfigError(SpdAlignError):
    """A run-configuration file failed to parse or validate.

    ``line`` carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(SpdAlignError):
    """A data file does not conform to its documented layout."""
