"""Squared distances between SPD matrices and their analytic gradients.

Three kinds are supported:

* Frobenius:  ||A - B||_F^2
* JBLD:       logdet((A + B) / 2) - logdet(A B) / 2
* AIRM:       ||log(A^{-1/2} B A^{-1/2})||_F^2

All three are invariant under rotations, so scatter matrices built after the
exact reduction of :mod:`spdalign.nystrom` have the same distances as the
ambient ones, including when the ambient dimension d is below N + N* and the
reduced side is the larger one.

:func:`batch_dist_sq` evaluates a whole stack of pairs at once: one batched
numpy Cholesky factorization or SVD per stage, and triangular solves by
:func:`solve_triangular`, a numpy substitution over the whole stack;
:func:`dist_sq` and :func:`grad_dist_sq` are its one-pair case. JBLD takes its
value and both gradients from three Cholesky factors, through
:func:`_cholesky_logdets`, the one Cholesky stage of the package, which the
alignment objective's Gram-form JBLD terms share. AIRM goes through the
Cholesky factors and one singular value decomposition
``L_A^{-1} L_B = U diag(sigma) V^T`` rather than the congruence sandwich
``A^{-1/2} B A^{-1/2}``: the sandwich loses all relative accuracy on its small
eigenvalues once the operand spectra span many orders of magnitude (as they do
for epsilon-padded scatter matrices), while the triangular-solve route
perturbs singular values only multiplicatively, because substitution, in any
summation order, is componentwise backward stable. The same factors give the
gradients ``-4 L_A^{-T} U diag(log sigma) U^T L_A^{-1}`` and
``+4 L_B^{-T} V diag(log sigma) V^T L_B^{-1}``.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError, SingularityError
from .spd import SymMatrix, symmetric_part

# perfbench/tracing.py counts calls through these bindings; nothing here calls them.
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
                raise SingularityError(
                    "matrix is not positive definite to working precision", index=position % pairs
                ) from exc
        raise SingularityError("matrix is not positive definite to working precision") from exc


def _cholesky_logdets(
    stack: np.ndarray, pairs: int, with_inverse: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Log-determinants of a stack of SPD matrices, and their inverses when ``with_inverse``.

    ``stack`` is (M, n, n), in ``pairs``-long blocks as :func:`_cholesky`
    takes it, whose ``SingularityError`` this raises. One batched factor gives
    ``logdet = 2 sum log diag L`` and, through :func:`solve_triangular`, the
    inverse ``L^{-T} L^{-1}``. A factor of a finite matrix has its diagonal
    in (0, sqrt(max a_jj)], so every log-determinant of a finite stack is
    finite.
    """
    chol = _cholesky(stack, pairs)
    logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    if not with_inverse:
        return logdets, None
    inv_factor = solve_triangular(chol, np.eye(stack.shape[-1]))
    return logdets, inv_factor.transpose(0, 2, 1) @ inv_factor


# Factors up to this many rows are solved by substitution; larger ones are split in two.
_SUBSTITUTION_ROWS = 32


def solve_triangular(lower: np.ndarray, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
    """``L^{-1} rhs`` (or ``L^{-T} rhs``) for a stack of lower-triangular factors.

    ``lower`` is (..., n, n) with a nonzero diagonal, and only its lower
    triangle is read; ``rhs`` is (..., n, m), and the two stacks broadcast.
    Neither input is modified: the result is a new float64 array. A solution
    beyond float64's range comes back as Inf or NaN entries, without a numpy
    warning, for the caller to check.
    """
    shape = np.broadcast_shapes(lower.shape[:-2], rhs.shape[:-2]) + rhs.shape[-2:]
    solution = np.array(np.broadcast_to(rhs, shape), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        _solve_in_place(lower, solution, transposed)
    return solution


def _solve_in_place(lower: np.ndarray, x: np.ndarray, transposed: bool) -> None:
    """Overwrite ``x`` with ``L^{-1} x`` (or ``L^{-T} x``).

    Up to ``_SUBSTITUTION_ROWS`` rows, substitution solves one row per step
    across the whole stack. A larger factor splits into two diagonal blocks,
    solved in turn and joined by one matrix-product update, so the bulk of the
    work stays in matrix products.
    """
    rows = x.shape[-2]
    if rows > _SUBSTITUTION_ROWS:
        half = rows // 2
        head, tail = x[..., :half, :], x[..., half:, :]
        coupling = lower[..., half:, :half]
        if transposed:
            _solve_in_place(lower[..., half:, half:], tail, True)
            head -= np.swapaxes(coupling, -1, -2) @ tail
            _solve_in_place(lower[..., :half, :half], head, True)
        else:
            _solve_in_place(lower[..., :half, :half], head, False)
            tail -= coupling @ head
            _solve_in_place(lower[..., half:, half:], tail, False)
        return
    factor = np.swapaxes(lower, -1, -2) if transposed else lower
    diagonal = np.diagonal(lower, axis1=-2, axis2=-1)
    for i in range(rows - 1, -1, -1) if transposed else range(rows):
        known = slice(i + 1, rows) if transposed else slice(0, i)
        row = x[..., i, :]
        row -= (factor[..., i:i + 1, known] @ x[..., known, :])[..., 0, :]
        row /= diagonal[..., i, None]


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
        logdets, inverse = _cholesky_logdets(np.concatenate([a, b, a / 2.0 + b / 2.0]), pairs, with_grad)
        # Mathematically >= 0 for SPD operands; clamp rounding residue at zero.
        values = np.maximum(logdets[2 * pairs:] - 0.5 * (logdets[:pairs] + logdets[pairs:2 * pairs]), 0.0)
        if not with_grad:
            return values, None, None
        inv_a, inv_b, inv_mid = inverse[:pairs], inverse[pairs:2 * pairs], inverse[2 * pairs:]
        return values, symmetric_part(inv_mid - inv_a) / 2.0, symmetric_part(inv_mid - inv_b) / 2.0
    # AIRM
    chol = _cholesky(np.concatenate([a, b]), pairs)
    w = solve_triangular(chol[:pairs], chol[pairs:])
    # An operand ratio beyond float64's range overflows w here, or underflows sigma to 0 below.
    finite = np.isfinite(w).all(axis=(1, 2))
    if not finite.all():
        raise SingularityError("AIRM operand pair is numerically singular", index=int(np.argmin(finite)))
    if with_grad:
        u, sigma, vt = np.linalg.svd(w)
    else:
        sigma = np.linalg.svd(w, compute_uv=False)
    positive = (sigma > 0.0).all(axis=1)
    if not positive.all():
        raise SingularityError("AIRM operand pair is numerically singular", index=int(np.argmin(positive)))
    # Eigenvalues of A^{-1/2} B A^{-1/2} are sigma^2, so ||log(.)||_F^2
    # is the sum of (2 log sigma)^2.
    logs = np.log(sigma)
    values = 4.0 * np.einsum("gi,gi->g", logs, logs)
    if not with_grad:
        return values, None, None
    m = solve_triangular(chol, np.concatenate([u, vt.transpose(0, 2, 1)]), transposed=True)
    scaled = m * np.concatenate([logs, logs])[:, None, :]
    grads = scaled @ m.transpose(0, 2, 1)
    return values, symmetric_part(-4.0 * grads[:pairs]), symmetric_part(4.0 * grads[pairs:])


def _one_pair(kind: DistanceKind, a: SymMatrix, b: SymMatrix, with_grad: bool):
    """:func:`batch_dist_sq` of one pair, without numpy warnings.

    A value or gradient that overflows float64 raises ``NumericalError``
    instead of coming back as Inf or NaN.
    """
    _check_pair(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        results = batch_dist_sq(kind, a.entries[None], b.entries[None], with_grad)
    if not all(np.isfinite(part).all() for part in results if part is not None):
        raise NumericalError(f"squared {kind.value} distance or its gradient overflows float64")
    return results


def dist_sq(kind: DistanceKind, a: SymMatrix, b: SymMatrix) -> float:
    """Squared distance d^2(a, b) for the given kind. Nonnegative and finite."""
    values, _, _ = _one_pair(kind, a, b, with_grad=False)
    return float(values[0])


def grad_dist_sq(kind: DistanceKind, a: SymMatrix, b: SymMatrix) -> tuple[SymMatrix, SymMatrix]:
    """Gradients (d d^2 / d a, d d^2 / d b), each an exactly symmetric matrix.

    Frobenius: 2(a - b) and -2(a - b).
    JBLD:      (a + b)^{-1} - a^{-1}/2, and the same with b in the second slot.
    AIRM:      -2 a^{-1/2} log(a^{-1/2} b a^{-1/2}) a^{-1/2}, and its argument
               swap (the distance is symmetric in a and b); evaluated through
               the Cholesky-SVD factors described in the module docstring.
    """
    _, grad_a, grad_b = _one_pair(kind, a, b, with_grad=True)
    return SymMatrix(grad_a[0]), SymMatrix(grad_b[0])
