"""Per-class feature statistics and the chain rules from scatter space to features.

Scatter matrices use the population convention: S = (1/N) sum phi phi^T - mu mu^T.
The gradient of any scatter-space quantity G pulls back to the feature columns as
(2/N) G (Phi - mu 1^T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyClassError
from .spd import SymMatrix, symmetrize


@dataclass(frozen=True)
class FeatureBlock:
    """Column-major feature block: a (dim, count) matrix with one label per column.

    Labels are nonnegative class ids; validation against a declared class count
    happens where that count is known (classifier and container code). A block
    may be empty (count 0); statistics then raise ``EmptyClassError``.
    """

    columns: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
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


@dataclass(frozen=True)
class ClassStats:
    """Mean vector and (population) scatter matrix of one class's columns.

    The scatter is positive semidefinite up to rounding (smallest eigenvalue
    >= -1e-9 in practice); this is asserted by tests, not re-checked here.
    """

    mean: np.ndarray
    scatter: SymMatrix
    count: int


def mean_and_scatter(block: FeatureBlock) -> ClassStats:
    """Column mean and population scatter (1/N) sum phi phi^T - mu mu^T."""
    if block.count == 0:
        raise EmptyClassError("cannot compute statistics of an empty class")
    mu = block.columns.mean(axis=1)
    centered = block.columns - mu[:, None]
    scatter = symmetrize(centered @ centered.T / block.count)
    return ClassStats(mean=mu, scatter=scatter, count=block.count)


def _feature_grad(grad_sigma: np.ndarray, columns: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(2/N) grad_sigma (columns - mean 1^T), for one class or a stack of them."""
    count = columns.shape[-1]
    return (2.0 / count) * grad_sigma @ (columns - mean[..., None])


def grad_wrt_features(grad_sigma: SymMatrix, block: FeatureBlock, stats: ClassStats) -> np.ndarray:
    """Pull a scatter-space gradient back to the feature columns.

    Returns (2/N) * grad_sigma @ (columns - mean 1^T), shaped like ``block.columns``.
    """
    if grad_sigma.side != block.dim:
        raise DimensionError(
            f"scatter gradient side {grad_sigma.side} does not match feature dim {block.dim}"
        )
    if stats.mean.shape[0] != block.dim:
        raise DimensionError(
            f"stats mean length {stats.mean.shape[0]} does not match feature dim {block.dim}"
        )
    if block.count == 0:
        raise EmptyClassError("cannot back-propagate into an empty class")
    return _feature_grad(grad_sigma.entries, block.columns, stats.mean)


def mean_align(stats_s: ClassStats, stats_t: ClassStats) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared distance of the two means, plus its per-column gradients.

    Returns (loss, g_source, g_target) where ``loss = ||mu - mu*||^2``, every
    source column receives gradient 2 (mu - mu*) / N, and every target column
    receives -2 (mu - mu*) / N*. Both signs check out against central finite
    differences of the loss.
    """
    if stats_s.mean.shape != stats_t.mean.shape:
        raise DimensionError(
            f"mean dimension mismatch: {stats_s.mean.shape} vs {stats_t.mean.shape}"
        )
    diff = stats_s.mean - stats_t.mean
    loss = float(diff @ diff)
    grad_source = 2.0 * diff / stats_s.count
    grad_target = -2.0 * diff / stats_t.count
    return loss, grad_source, grad_target
