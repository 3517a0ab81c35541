"""Per-class feature statistics and the chain rules from scatter space to features.

Scatter matrices use the population convention: S = (1/N) sum phi phi^T - mu mu^T.
The gradient of any scatter-space quantity G pulls back to the feature columns as
(2/N) G (Phi - mu 1^T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyClassError, LabelError, real_array
from .spd import symmetric_part

# perfbench/tracing.py wraps this binding by name; the scatter builder does not call it.
from .spd import symmetrize  # noqa: F401


@dataclass(frozen=True)
class FeatureBlock:
    """Column-major feature block: a (dim, count) matrix with one label per column.

    ``columns`` is stored in Fortran order, so each column is contiguous and a
    gather or scatter of whole columns moves contiguous memory. Column-major
    float64 input is kept as it is; any other layout or dtype is copied once
    into a new array, never aliased. Labels are nonnegative class ids. A block
    may be empty (count 0); each consumer states what it needs of a block
    through :meth:`check`.
    """

    columns: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        cols = np.asarray(real_array("columns", self.columns, as_float=False), np.float64, order="F")
        labels = real_array("labels", self.labels, as_float=False)
        if labels.dtype.kind == "f" and not (np.isfinite(labels) & (labels == np.trunc(labels))).all():
            raise DimensionError("labels must be finite whole numbers")
        if labels.dtype.kind in "fu" and labels.size and np.abs(labels).max() >= 2**63:
            raise DimensionError("labels must fit in a 64-bit integer")
        labels = labels.astype(np.int64, copy=False)
        if cols.ndim != 2:
            raise DimensionError(f"columns must be a 2-d matrix, got shape {cols.shape}")
        if cols.shape[0] < 1:
            raise DimensionError("feature dimension must be at least 1")
        if labels.ndim != 1 or labels.shape[0] != cols.shape[1]:
            raise DimensionError(
                f"need one label per column: {labels.shape} labels for {cols.shape[1]} columns"
            )
        if cols.size and not np.isfinite(cols).all():
            raise DimensionError("feature columns contain non-finite entries")
        if labels.size and labels.min() < 0:
            raise DimensionError("labels must be nonnegative")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    def check(self, name: str, class_count: int, dim: int) -> None:
        """Raise unless the block is nonempty, ``dim``-dimensional and labelled below ``class_count``.

        These are the rules of every block consumer; ``name`` is the block's
        role ("source", "test", ...) and leads each message.
        """
        if self.count == 0:
            raise EmptyClassError(f"{name} block has no columns")
        if self.dim != dim:
            raise DimensionError(f"{name} block has dimension {self.dim}, its consumer takes {dim}")
        if self.labels.max() >= class_count:
            raise LabelError(f"{name} label {int(self.labels.max())} outside class count {class_count}")


def mean_and_scatter(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population scatters (1/N) sum phi phi^T - mu mu^T.

    ``columns`` is (..., d, N): one class's N columns, or a stack of classes
    that share N. Returns the (..., d) means and the exactly symmetric
    (..., d, d) scatters, positive semidefinite up to rounding.
    """
    columns = real_array("columns", columns)
    if columns.ndim < 2:
        raise DimensionError(f"columns must be at least 2-d, got shape {columns.shape}")
    count = columns.shape[-1]
    if count == 0:
        raise EmptyClassError("cannot compute statistics of an empty class")
    means = columns.mean(axis=-1)
    centered = columns - means[..., None]
    scatters = centered @ np.swapaxes(centered, -1, -2) / count
    return means, symmetric_part(scatters)


def _feature_grad(grad_sigma: np.ndarray, columns: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(2/N) grad_sigma (columns - mean 1^T), for one class or a stack of them."""
    count = columns.shape[-1]
    return (2.0 / count) * grad_sigma @ (columns - mean[..., None])
