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

Every Gram root here comes from :func:`spectral_roots`, with its one rank
policy: no jitter, and eigenvalues at rounding level count as zero. The
alignment kernel forms each class's Gram matrix once, with
:func:`column_gram`, and reduces no columns: the Frobenius and JBLD terms are
functions of its centred part, and AIRM takes :func:`spectral_roots` of that
centred part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, check_finite_stack, column_blocks, real_array
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
    is the inverse root of :func:`roots_of_gram`, so rank-deficient pivots get
    its pseudo-inverse. With pivots == data the Gram matrix of the result
    reproduces the kernel matrix to rounding, at any column scale. Both
    blocks follow :func:`~spdalign.errors.column_blocks`.
    """
    pivots, data = column_blocks("pivots and data", pivots, data)
    if pivots.shape[1] < 1:
        raise DimensionError("need at least one pivot column")
    return roots_of_gram(column_gram(pivots[None]), pivots.shape[0])[1][0] @ (pivots.T @ data)


def column_gram(x: np.ndarray) -> np.ndarray:
    """Batched Gram matrices ``X^T X`` of a (G, d, k) column stack.

    A Gram matrix that overflows float64 raises ``NumericalError`` whose
    ``index`` is its position in the stack.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x.transpose(0, 2, 1) @ x
    check_finite_stack("Gram matrix of the columns", gram)
    return gram


def roots_of_gram(gram: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``K^{1/2}`` and ``K^{-1/2}`` of a (G, k, k) stack of Gram matrices of ``dim``-row columns.

    One symmetric eigendecomposition of each small k x k Gram matrix gives
    both (:func:`spectral_roots`). The square root is the exact reduction:
    its columns have the same pairwise inner products as those of X,
    whatever the order of d and k, so with ``d < k`` the reduced problem is
    larger than the ambient one but still exact. A reduced-space gradient G
    pushes back to the columns of X as ``X @ (inverse_root @ G)``, so the k
    x d projector never needs forming.
    """
    vectors, roots, inverse_roots = spectral_roots(gram, dim)
    root, inverse_root = ((vectors * r[:, None, :]) @ vectors.transpose(0, 2, 1)
                          for r in (roots, inverse_roots))
    return symmetric_part(root), inverse_root


def spectral_roots(gram: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(V, r, r^+)``: the (G, k, k) eigenvectors of a stack of Gram matrices of ``dim``-row columns,
    and the (G, k) square roots of their eigenvalues and the pseudo-inverses of those.

    This is the package's one rank policy for Gram matrices. Rank-deficient X
    is tolerated, and with ``d < k`` it always is: eigenvalues below ``max(d,
    k) * machine epsilon * largest eigenvalue`` are rounding residue of
    column dependencies, and both roots are exactly zero there. Kept, their
    square roots would add components of relative size 1e-8 to the reduced
    columns and their inverse square roots would blow up rounding noise.
    ``diag(r) V^T`` is a square root of ``K`` in the eigenbasis, whose rows
    for those eigenvalues are exactly zero.
    """
    values, vectors = np.linalg.eigh(symmetric_part(gram))
    kept = values > max(dim, gram.shape[-1]) * np.finfo(np.float64).eps * values[:, -1:]
    roots = np.sqrt(np.where(kept, values, 0.0))
    return vectors, roots, np.where(kept, 1.0 / np.where(kept, roots, 1.0), 0.0)


def isometric_project(
    phi_s: np.ndarray, phi_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Projection]:
    """Joint exact reduction of source and target columns.

    Stacks X = [phi_s, phi_t], computes Y = (X^T X)^{1/2} and returns Y split
    back into the source part (first N columns), the target part, and the
    projector Zbar = (X^T X)^{-1/2} X^T. Pairwise inner products of the reduced
    columns equal those of the originals. This is the one-class case of
    :func:`roots_of_gram` of :func:`column_gram`. Both blocks follow
    :func:`~spdalign.errors.column_blocks`.
    """
    phi_s, phi_t = column_blocks("feature blocks", phi_s, phi_t)
    n_source = phi_s.shape[1]
    x = np.concatenate([phi_s, phi_t], axis=1)
    if x.shape[1] < 1:
        raise DimensionError("need at least one column across the two streams")
    root, inverse_root = roots_of_gram(column_gram(x[None]), x.shape[0])
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
