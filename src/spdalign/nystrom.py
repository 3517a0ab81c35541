"""The linear-kernel feature map and the exact isometric self-projection of feature columns.

With pivots equal to the data and a linear kernel, the feature map collapses to
Pi(X) = (X^T X)^{1/2}: a reduction from ambient dimension d to d' = (number of
columns) that preserves all pairwise inner products exactly, hence every
rotation-invariant distance between the scatter matrices built on either side.
The map stays exact when d < N + N*: the "reduced" dimension is then larger
than the ambient one, but the column geometry is still reproduced exactly.
The matching row-orthonormal projector Zbar = (X^T X)^{-1/2} X^T is what
gradients are pushed back through; it may be treated as a constant when
differentiating the reduced pipeline.

Every inverse Gram root here comes from :func:`gram_roots`, with its one rank
policy: no jitter, and eigenvalues at rounding level count as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, real_array
from .spd import symmetric_part

# perfbench/tracing.py counts calls through this binding; nothing here calls it.
from .spd import symmetrize  # noqa: F401


@dataclass(frozen=True)
class Projection:
    """Row-orthonormal reduction map Zbar of shape (reduced_dim, ambient_dim)."""

    projector: np.ndarray

    @property
    def reduced_dim(self) -> int:
        return self.projector.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.projector.shape[1]


def nystrom_map(pivots: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Linear-kernel feature map K_ZZ^{-1/2} K_ZX of ``data`` against ``pivots``.

    The kernel blocks are plain inner products, K_ZX = Z^T X, and K_ZZ^{-1/2}
    is the inverse root of :func:`gram_roots`, so rank-deficient pivots get its
    pseudo-inverse. With pivots == data the Gram matrix of the result
    reproduces the kernel matrix to rounding, at any column scale.
    """
    pivots = real_array("pivots", pivots)
    data = real_array("data", data)
    if pivots.ndim != 2 or data.ndim != 2:
        raise DimensionError("pivots and data must be 2-d column matrices")
    if pivots.shape[0] != data.shape[0]:
        raise DimensionError(
            f"pivot dimension {pivots.shape[0]} does not match data dimension {data.shape[0]}"
        )
    if pivots.shape[1] < 1:
        raise DimensionError("need at least one pivot column")
    if not (np.isfinite(pivots).all() and np.isfinite(data).all()):
        raise DimensionError("pivots or data contain non-finite entries")
    return gram_roots(pivots[None])[1][0] @ (pivots.T @ data)


def gram_roots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``(X^T X)^{1/2}`` and ``(X^T X)^{-1/2}`` of a (G, d, k) column stack.

    One symmetric eigendecomposition of each small k x k Gram matrix gives
    both. The square root is the exact reduction: its columns have the same
    pairwise inner products as those of X, whatever the order of d and k, so
    with ``d < k`` the reduced problem is larger than the ambient one but
    still exact. A reduced-space gradient G pushes back to the columns of X as
    ``X @ (inverse_root @ G)``, so the k x d projector never needs forming.

    Rank-deficient X is tolerated, and with ``d < k`` it always is: Gram
    eigenvalues below ``max(d, k) * machine epsilon * largest eigenvalue`` are
    rounding residue of column dependencies, and both roots treat them as
    exactly zero (the inverse root is then a pseudo-inverse). Kept, their
    square roots would add components of relative size 1e-8 to the reduced
    columns and their inverse square roots would blow up rounding noise.
    """
    gram = x.transpose(0, 2, 1) @ x
    values, vectors = np.linalg.eigh(symmetric_part(gram))
    cutoff = max(x.shape[1], x.shape[2]) * np.finfo(np.float64).eps * values[:, -1:]
    kept = values > cutoff
    roots = np.sqrt(np.where(kept, values, 0.0))
    inverse_roots = np.where(kept, 1.0 / np.where(kept, roots, 1.0), 0.0)
    vectors_t = vectors.transpose(0, 2, 1)
    root = (vectors * roots[:, None, :]) @ vectors_t
    inverse_root = (vectors * inverse_roots[:, None, :]) @ vectors_t
    return symmetric_part(root), inverse_root


def isometric_project(
    phi_s: np.ndarray, phi_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Projection]:
    """Joint exact reduction of source and target columns.

    Stacks X = [phi_s, phi_t], computes Y = (X^T X)^{1/2} and returns Y split
    back into the source part (first N columns), the target part, and the
    projector Zbar = (X^T X)^{-1/2} X^T. Pairwise inner products of the reduced
    columns equal those of the originals. This is the one-class case of
    :func:`gram_roots`, which the alignment objective runs batched.
    """
    phi_s = real_array("phi_s", phi_s)
    phi_t = real_array("phi_t", phi_t)
    if phi_s.ndim != 2 or phi_t.ndim != 2:
        raise DimensionError("feature blocks must be 2-d column matrices")
    if phi_s.shape[0] != phi_t.shape[0]:
        raise DimensionError(
            f"stream dimensions differ: {phi_s.shape[0]} vs {phi_t.shape[0]}"
        )
    n_source = phi_s.shape[1]
    x = np.concatenate([phi_s, phi_t], axis=1)
    if x.shape[1] < 1:
        raise DimensionError("need at least one column across the two streams")
    if not np.isfinite(x).all():
        raise DimensionError("feature blocks contain non-finite entries")
    root, inverse_root = gram_roots(x[None])
    projector = inverse_root[0] @ x.T
    return root[0, :, :n_source], root[0, :, n_source:], Projection(projector=projector)


def backproject_grad(p: Projection, grad_reduced: np.ndarray) -> np.ndarray:
    """Push a reduced-space feature gradient back to ambient space: Zbar^T grad."""
    grad_reduced = real_array("grad_reduced", grad_reduced)
    if grad_reduced.ndim != 2 or grad_reduced.shape[0] != p.reduced_dim:
        raise DimensionError(
            f"gradient rows {grad_reduced.shape} do not match reduced dimension {p.reduced_dim}"
        )
    return p.projector.T @ grad_reduced
