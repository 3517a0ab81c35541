"""Symmetric-matrix primitives: regularization, eigendecomposition, spectral functions.

Everything here works on exactly symmetric float64 matrices. ``SymMatrix`` is a
thin validated carrier; build one with :func:`symmetrize` (or directly, if the
array is already exactly symmetric). All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError, NumericalError, ParameterError, SingularityError, check_positive, real_array,
)

# Spectral functions refuse to evaluate below this eigenvalue. This turns the
# infinite-value/infinite-gradient regime of the non-Euclidean distances on
# semidefinite matrices into an explicit error path instead of silent Inf.
EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Square symmetric real matrix with side length ``side``.

    The constructor enforces finite entries and exact entrywise symmetry, so
    downstream spectral code never sees an Inf or NaN, or drift between
    ``entries[i, j]`` and ``entries[j, i]``.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = real_array("entries", self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionError("matrix side must be at least 1")
        if not np.isfinite(arr).all():
            raise DimensionError("matrix contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise DimensionError("entries are not exactly symmetric; use symmetrize()")
        object.__setattr__(self, "entries", arr)

    @property
    def side(self) -> int:
        return self.entries.shape[0]


def symmetric_part(stack: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 of every matrix in a (..., k, k) array.

    IEEE addition is commutative, so each result is exactly symmetric.
    """
    return (stack + np.swapaxes(stack, -1, -2)) / 2.0


def symmetrize(m) -> SymMatrix:
    """Return the symmetric part (m + m^T) / 2 of a square matrix."""
    arr = real_array("matrix", m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"cannot symmetrize non-square input of shape {arr.shape}")
    return SymMatrix(symmetric_part(arr))


def regularize(s: SymMatrix, eps: float) -> SymMatrix:
    """Add ``eps`` to the diagonal, shifting the whole spectrum up by ``eps``.

    A diagonal entry that overflows float64 raises ``NumericalError``.
    """
    check_positive(eps=eps)
    out = s.entries.copy()
    diagonal = np.diag_indices_from(out)
    with np.errstate(over="ignore"):
        out[diagonal] += eps
    if not np.isfinite(out[diagonal]).all():
        raise NumericalError(f"regularizing by eps={eps:g} overflows the diagonal")
    return SymMatrix(out)


def eig_sym(s: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition: ascending eigenvalues, then eigenvectors in columns.

    The result is numpy's ``eigh`` pair; unpack it as ``values, vectors``.
    """
    try:
        return np.linalg.eigh(s.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigendecomposition did not converge: {exc}") from exc


_SPECTRAL_FNS = {
    "sqrt": np.sqrt,
    "invsqrt": lambda x: 1.0 / np.sqrt(x),
    "log": np.log,
    "inv": lambda x: 1.0 / x,
}


def spd_fn(s: SymMatrix, f: str) -> SymMatrix:
    """Apply a spectral function f in {sqrt, invsqrt, log, inv} to an SPD matrix.

    Computes V diag(f(lambda)) V^T through the eigendecomposition. Every
    eigenvalue must exceed ``EIGENVALUE_FLOOR``; regularize first if needed.
    """
    if f not in _SPECTRAL_FNS:
        raise ParameterError(f"unknown spectral function {f!r}; expected one of {sorted(_SPECTRAL_FNS)}",
                             name="f")
    values, vectors = eig_sym(s)
    smallest = float(values[0])
    if smallest <= EIGENVALUE_FLOOR:
        raise SingularityError(
            f"spectral function {f!r} needs eigenvalues above {EIGENVALUE_FLOOR:g}; "
            f"smallest eigenvalue is {smallest:.6e}"
        )
    mapped = _SPECTRAL_FNS[f](values)
    return symmetrize((vectors * mapped) @ vectors.T)


def logdet(s: SymMatrix) -> float:
    """Log-determinant of a strictly positive definite matrix.

    Equals the sum of log eigenvalues; evaluated through a Cholesky factor,
    which also certifies positive definiteness.
    """
    try:
        chol = np.linalg.cholesky(s.entries)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "logdet needs a matrix that is positive definite to working precision"
        ) from exc
    # Cholesky of a finite matrix succeeds only with factor diagonals in
    # (0, sqrt(largest a_jj)], so every log, and their sum, is finite.
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
