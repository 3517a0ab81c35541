"""Exception hierarchy shared by every module in the package, and the numeric-parameter rules.

Each range rule of a numeric parameter is stated once, here, and every entry
point that takes such a parameter calls it: :func:`check_at_least` for counts
and seeds (whole numbers with a minimum), :func:`check_finite`,
:func:`check_nonnegative` and :func:`check_positive` for real values, and
:func:`whole_numbers` for a sequence of ids. Each raises ``ParameterError``
with the parameter's name as its ``name``. Array input at the public entry
points goes through :func:`real_array`, which raises ``DimensionError``
unless it is an array of real numbers.
"""

import math
import numbers
import operator

import numpy as np


class SpdAlignError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SpdAlignError):
    """Operands have incompatible shapes, or a square matrix was expected."""


class ParameterError(SpdAlignError):
    """A parameter is not of its documented type or lies outside its range.

    ``name`` is the parameter's name, so that the run-config reader can
    report the line that set it.
    """

    def __init__(self, message: str, name: str):
        super().__init__(message)
        self.name = name


def check_finite(**values: float | None) -> None:
    """Raise ParameterError naming the first value that is NaN or infinite; None passes."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}", name=name)


def check_nonnegative(**values: float) -> None:
    """Raise ParameterError naming the first value that is not finite, then the first below zero."""
    check_finite(**values)
    for name, value in values.items():
        if value < 0:
            raise ParameterError(f"{name} must be nonnegative, got {value}", name=name)


def check_positive(**values: float | None) -> None:
    """Raise ParameterError naming the first value that is not finite, then the first not above zero.

    None passes, as it does :func:`check_finite`.
    """
    check_finite(**values)
    for name, value in values.items():
        if value is not None and value <= 0:
            raise ParameterError(f"{name} must be positive, got {value}", name=name)


def check_at_least(minimum: int, **values: int) -> None:
    """Raise ParameterError naming the first value that is not a whole number of at least ``minimum``."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ParameterError(f"{name} must be a whole number, got {value!r}", name=name)
        if value < minimum:
            rule = "nonnegative" if minimum == 0 else f"at least {minimum}"
            raise ParameterError(f"{name} must be {rule}, got {value}", name=name)


def check_seed(seed: int) -> None:
    """Raise ParameterError unless ``seed`` is a nonnegative whole number, as numpy's generators require."""
    check_at_least(0, seed=seed)


def whole_numbers(name: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of ints; raise ParameterError unless it is a sequence of whole numbers."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ParameterError(f"{name} must be a sequence of whole numbers, got {values!r}",
                             name=name) from None


def real_array(name: str, value, as_float: bool = True) -> np.ndarray:
    """``value`` as a numpy array of real numbers, converted to float64 when ``as_float``.

    Booleans, integers and floats pass. Ragged nesting, strings, complex
    numbers and object arrays (``None`` entries among them) raise
    ``DimensionError`` naming ``name``, instead of numpy's ``ValueError`` or a
    ``ComplexWarning`` that drops the imaginary part.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise DimensionError(f"{name} must be a rectangular array of real numbers") from None
    if arr.dtype.kind not in "biuf":
        raise DimensionError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False) if as_float else arr


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
