"""Exception hierarchy shared by every module in the package, and the numeric-parameter rules.

Each range rule of a numeric parameter is stated once, here, and every entry
point that takes such a parameter calls it: :func:`check_at_least` for counts
and seeds (whole numbers with a minimum), :func:`check_finite`,
:func:`check_nonnegative` and :func:`check_positive` for real values, and
:func:`whole_numbers` for a sequence of ids. Each raises ``ParameterError``
with the parameter's name as its ``name``. Array input at the public entry
points goes through :func:`real_array`, which raises ``DimensionError``
unless it is an array of real numbers; blocks of feature columns go through
:func:`column_blocks`, which adds the shape and finiteness rule they share,
and the weights and bias of a layer go through :func:`layer_arrays`, the
rule that the encoder and the classifier share.
Batched kernels check each stage's output with :func:`check_finite_stack`,
which raises ``NumericalError`` at the first stack item that overflowed.
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
    """Raise ParameterError naming the first value that is not a whole number of at least ``minimum``.

    A ``bool`` is a ``numbers.Integral``, but numpy refuses it as a size, so
    it is refused here too.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
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


def column_blocks(what: str, *values) -> list[np.ndarray]:
    """``values`` as float64 column matrices that share one row count and hold finite entries.

    Each value goes through :func:`real_array`; a value that is not 2-d, a
    row count that differs from the others' and a NaN or infinite entry raise
    ``DimensionError``, in that order, with ``what`` naming the blocks.
    """
    blocks = [real_array(what, value) for value in values]
    if any(block.ndim != 2 for block in blocks):
        raise DimensionError(f"{what} must be 2-d column matrices")
    rows = sorted({block.shape[0] for block in blocks})
    if len(rows) > 1:
        raise DimensionError(f"{what} differ in row count: {rows}")
    if not all(np.isfinite(block).all() for block in blocks):
        raise DimensionError(f"{what} contain non-finite entries")
    return blocks


def layer_arrays(what: str, weights, bias, axes: tuple[str, str],
                 output_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """A layer's ``weights`` and ``bias`` as float64 arrays that meet the layer rule.

    Both go through :func:`real_array`. ``axes`` names the two axes of the
    weights, and ``output_axis`` is the one that counts the layer's outputs.
    Weights that are not 2-d or a bias without one entry per output, no
    output at all, and a NaN or infinite entry raise ``DimensionError``, in
    that order, with ``what`` naming the layer.
    """
    weights, bias = real_array(f"{what} weights", weights), real_array(f"{what} bias", bias)
    outputs = axes[output_axis]
    if weights.ndim != 2 or bias.shape != (weights.shape[output_axis],):
        raise DimensionError(f"{what} weights {weights.shape} and bias {bias.shape} are not a "
                             f"({', '.join(axes)}) matrix and a ({outputs},) vector")
    if bias.size == 0:
        raise DimensionError(f"{what} {outputs} must be at least 1")
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise DimensionError(f"{what} parameters contain non-finite entries")
    return weights, bias


def check_finite_stack(what: str, stack: np.ndarray) -> None:
    """Raise ``NumericalError`` at the first item of ``stack`` that holds a non-finite entry.

    Items run along axis 0. The error's ``index`` is that item's position,
    and its message says that ``what`` overflows float64.
    """
    finite = np.isfinite(stack.reshape(stack.shape[0], -1)).all(axis=1)
    if not finite.all():
        raise NumericalError(f"{what} overflows float64", index=int(np.argmin(finite)))


class SingularityError(SpdAlignError):
    """Strict positive definiteness was required but not met.

    Batched kernels set ``index`` to the position of the first failing item in
    their stack, so that the caller can name the class it belongs to.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NumericalError(SpdAlignError):
    """An iterative numerical routine failed or produced non-finite output.

    As for ``SingularityError``, batched kernels set ``index`` to the position
    of the first failing item in their stack.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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
