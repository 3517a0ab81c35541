"""Squared distances between SPD matrices and their analytic gradients.

Three kinds are supported:

* Frobenius:  ||A - B||_F^2
* JBLD:       logdet((A + B) / 2) - logdet(A B) / 2
* AIRM:       ||log(A^{-1/2} B A^{-1/2})||_F^2

All three are invariant under rotations, so scatter matrices built after the
exact reduction of :mod:`spdalign.nystrom` have the same distances as the
ambient ones, including when the ambient dimension d is below N + N* and the
reduced side is the larger one.

:func:`batch_dist_sq` evaluates a whole stack of pairs with one batched
LAPACK call per stage; :func:`dist_sq` and :func:`grad_dist_sq` are its
one-pair case. JBLD takes its value and both gradients from three Cholesky
factors. AIRM goes through the Cholesky factors and one singular value
decomposition ``L_A^{-1} L_B = U diag(sigma) V^T`` rather than the congruence
sandwich ``A^{-1/2} B A^{-1/2}``: the sandwich loses all relative accuracy on
its small eigenvalues once the operand spectra span many orders of magnitude
(as they do for epsilon-padded scatter matrices), while the triangular-solve
route perturbs singular values only multiplicatively. The same factors give
the gradients ``-4 L_A^{-T} U diag(log sigma) U^T L_A^{-1}`` and
``+4 L_B^{-T} V diag(log sigma) V^T L_B^{-1}``.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.linalg import solve as _solve

from .errors import DimensionError, ParameterError, SingularityError
from .spd import SymMatrix, symmetric_part

# perfbench/tracing.py counts calls through these bindings; nothing here calls them.
from scipy.linalg import solve_triangular  # noqa: F401
from .spd import logdet, spd_fn, symmetrize  # noqa: F401


class DistanceKind(enum.Enum):
    FROBENIUS = "frobenius"
    JBLD = "jbld"
    AIRM = "airm"

    @classmethod
    def parse(cls, name: str) -> "DistanceKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ParameterError(
                f"unknown distance kind {name!r}; expected one of "
                f"{[k.value for k in cls]}", name="kind"
            ) from None

    @classmethod
    def check(cls, kind) -> None:
        """Raise ParameterError unless ``kind`` is a member; every consumer of a kind calls this."""
        if not isinstance(kind, cls):
            raise ParameterError(f"kind must be a DistanceKind, got {kind!r}", name="kind")


def _check_pair(a: SymMatrix, b: SymMatrix):
    if a.side != b.side:
        raise DimensionError(f"side mismatch: {a.side} vs {b.side}")


def _cholesky(stack: np.ndarray, pairs: int) -> np.ndarray:
    """Lower Cholesky factors of a stack that holds ``pairs``-long blocks of operands.

    On failure, the error's ``index`` is the lowest pair position holding a
    matrix that is not positive definite.
    """
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        for position in sorted(range(stack.shape[0]), key=lambda p: p % pairs):
            try:
                np.linalg.cholesky(stack[position])
            except np.linalg.LinAlgError:
                smallest = float(np.linalg.eigvalsh(stack[position])[0])
                raise SingularityError(
                    "matrix must be strictly positive definite; "
                    f"smallest eigenvalue is {smallest:.6e}",
                    index=position % pairs,
                ) from exc
        raise SingularityError("matrix must be strictly positive definite") from exc


def _lower_solve(lower: np.ndarray, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
    """``L^{-1} rhs`` (or ``L^{-T} rhs``) for a stack of lower-triangular factors."""
    return _solve(lower, rhs, assume_a="lower triangular", transposed=transposed,
                  check_finite=False)


def batch_dist_sq(
    kind: DistanceKind, a: np.ndarray, b: np.ndarray, with_grad: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Squared distances of a stack of pairs, plus their gradients.

    ``a`` and ``b`` are (G, k, k) stacks of exactly symmetric matrices. Returns
    the (G,) values and the (G, k, k) gradients with respect to ``a`` and to
    ``b``, each exactly symmetric, or ``None`` for both when ``with_grad`` is
    false. A ``SingularityError`` carries the position of the failing pair.
    """
    DistanceKind.check(kind)
    pairs = a.shape[0]
    if kind is DistanceKind.FROBENIUS:
        diff = a - b
        values = np.einsum("gij,gij->g", diff, diff)
        if not with_grad:
            return values, None, None
        return values, 2.0 * diff, -2.0 * diff
    if kind is DistanceKind.JBLD:
        chol = _cholesky(np.concatenate([a, b, (a + b) / 2.0]), pairs)
        logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        values = logdets[2 * pairs:] - 0.5 * (logdets[:pairs] + logdets[pairs:2 * pairs])
        if not np.isfinite(values).all():
            raise SingularityError(
                "logdet overflowed; matrix is numerically singular",
                index=int(np.argmin(np.isfinite(values))),
            )
        # Mathematically >= 0 for SPD operands; clamp rounding residue at zero.
        values = np.maximum(values, 0.0)
        if not with_grad:
            return values, None, None
        inv_factor = _lower_solve(chol, np.eye(a.shape[1]))
        inverse = inv_factor.transpose(0, 2, 1) @ inv_factor
        inv_a, inv_b, inv_mid = inverse[:pairs], inverse[pairs:2 * pairs], inverse[2 * pairs:]
        return values, symmetric_part(inv_mid - inv_a) / 2.0, symmetric_part(inv_mid - inv_b) / 2.0
    # AIRM
    chol = _cholesky(np.concatenate([a, b]), pairs)
    w = _lower_solve(chol[:pairs], chol[pairs:])
    if with_grad:
        u, sigma, vt = np.linalg.svd(w)
    else:
        sigma = np.linalg.svd(w, compute_uv=False)
    if not (sigma[:, -1] > 0.0).all():
        raise SingularityError(
            "AIRM operand pair is numerically singular",
            index=int(np.argmin(sigma[:, -1] > 0.0)),
        )
    # Eigenvalues of A^{-1/2} B A^{-1/2} are sigma^2, so ||log(.)||_F^2
    # is the sum of (2 log sigma)^2.
    logs = np.log(sigma)
    values = 4.0 * np.einsum("gi,gi->g", logs, logs)
    if not with_grad:
        return values, None, None
    m = _lower_solve(chol, np.concatenate([u, vt.transpose(0, 2, 1)]), transposed=True)
    scaled = m * np.concatenate([logs, logs])[:, None, :]
    grads = scaled @ m.transpose(0, 2, 1)
    return values, symmetric_part(-4.0 * grads[:pairs]), symmetric_part(4.0 * grads[pairs:])


def dist_sq(kind: DistanceKind, a: SymMatrix, b: SymMatrix) -> float:
    """Squared distance d^2(a, b) for the given kind. Nonnegative."""
    _check_pair(a, b)
    values, _, _ = batch_dist_sq(kind, a.entries[None], b.entries[None], with_grad=False)
    return float(values[0])


def grad_dist_sq(kind: DistanceKind, a: SymMatrix, b: SymMatrix) -> tuple[SymMatrix, SymMatrix]:
    """Gradients (d d^2 / d a, d d^2 / d b), each an exactly symmetric matrix.

    Frobenius: 2(a - b) and -2(a - b).
    JBLD:      (a + b)^{-1} - a^{-1}/2, and the same with b in the second slot.
    AIRM:      -2 a^{-1/2} log(a^{-1/2} b a^{-1/2}) a^{-1/2}, and its argument
               swap (the distance is symmetric in a and b); evaluated through
               the Cholesky-SVD factors described in the module docstring.
    """
    _check_pair(a, b)
    _, grad_a, grad_b = batch_dist_sq(kind, a.entries[None], b.entries[None])
    return SymMatrix(grad_a[0]), SymMatrix(grad_b[0])
