"""The two-stream objective: classification, classifier proximity, and alignment.

The total objective is

    ce(W, source) + ce(W*, target) + eta ||W - W*||_F^2
      + (sigma1 / C) sum_c d^2(S_c, S*_c) + (sigma2 / C) sum_c ||mu_c - mu*_c||^2

where S_c, S*_c are the per-class population scatters of the source and
target columns, each regularized by eps. The three distances are invariant
under isometries of the columns, so every one is a function of the class's
centred Gram matrix ``Kc = B^T K B``, with ``K = X^T X`` and ``B`` the
centring basis. All three are evaluated from ``Kc`` (:func:`class_terms`):
Frobenius by trace identities, JBLD by Sylvester's determinant identity,
taking its log-determinants from the one Cholesky stage of
:mod:`spdalign.distances`, and AIRM on a square root of ``Kc``, which holds
the centred columns in an orthonormal basis of their span; that basis is a
constant in the differentiation. No ambient d x d scatter is built here: the
one path that builds them, ``regularize`` and ``dist_sq`` on
:func:`~spdalign.scatter.mean_and_scatter`, is the naive reference of
:mod:`spdalign.bench` and of the gradient suite's ``scatter/<kind>`` check.

One kernel, :func:`class_terms`, evaluates the alignment terms of a stack of
classes that share a ``(N_c, N*_c)`` shape, with batched numpy calls over the
whole stack at every stage. Its feature gradient is one product ``x @ M`` with
a small per-class operator, so the d-dimensional columns are read three
times: by the Gram matrices, the mean gaps and that product. The objective
gathers every shape group of its two batches into a stack and adds the
stack's feature gradients back with one indexed add per group; feature
blocks are column-major, so both move whole contiguous columns. The
positions of those gathers depend only on the two label vectors, which a
training run repeats at every step, so they are derived once per distinct
pair of label vectors and cached (:func:`_batch_layout`).

:func:`total_objective` returns the five terms as one :class:`ObjectiveParts`;
its ``total`` is the one place they are summed, and it is the objective's
value. The trainer keeps those parts, step by step, as its loss history.
Each of its gradients accumulates in the one array that holds it: the
softmax gradients of each stream (:func:`softmax_ce`) take the proximity
gradient and the alignment gradients in place, so a call allocates one
feature-sized gradient per stream and no second one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distances import DistanceKind, _cholesky_logdets, batch_dist_sq
from .errors import (
    DimensionError, LabelError, NumericalError, SingularityError, check_at_least, check_finite_stack,
    check_nonnegative, check_positive, column_blocks, layer_arrays,
)
from .nystrom import column_gram, spectral_roots
from .scatter import FeatureBlock
from .spd import symmetric_part

# perfbench/tracing.py wraps these bindings by name; the batched kernel does not call them.
from .distances import dist_sq, grad_dist_sq  # noqa: F401
from .nystrom import backproject_grad, isometric_project  # noqa: F401
from .scatter import _feature_grad  # noqa: F401
from .spd import regularize, symmetrize  # noqa: F401

if TYPE_CHECKING:  # real definition lives in trainer; only the classifiers are used here
    from .trainer import TwoStreamModel


@dataclass(frozen=True)
class AlignConfig:
    """Hyper-parameters of the objective.

    ``eps`` keeps every scatter strictly positive definite before a
    non-Euclidean distance sees it. The feature-norm cap is not one of them:
    it belongs to the model (``TwoStreamModel.feature_cap``).
    """

    sigma1: float
    sigma2: float
    eta: float
    kind: DistanceKind
    class_count: int
    eps: float = 1e-6

    def __post_init__(self):
        DistanceKind.check(self.kind)
        check_nonnegative(sigma1=self.sigma1, sigma2=self.sigma2, eta=self.eta)
        check_positive(eps=self.eps)
        check_at_least(1, class_count=self.class_count)


@dataclass(frozen=True)
class Classifier:
    """Linear classifier: logits = weights^T phi + bias.

    ``weights`` is stored column-major, one contiguous column per class, like
    the feature blocks it is applied to; any other input layout is copied once.
    """

    weights: np.ndarray  # (feature_dim, class_count)
    bias: np.ndarray  # (class_count,)

    def __post_init__(self):
        weights, bias = layer_arrays("classifier", self.weights, self.bias, ("feature_dim", "class_count"), 1)
        object.__setattr__(self, "weights", np.asfortranarray(weights))
        object.__setattr__(self, "bias", bias)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def class_count(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class SoftmaxResult:
    loss: float
    grad_weights: np.ndarray
    grad_bias: np.ndarray
    grad_columns: np.ndarray


def softmax_ce(classifier: Classifier, block: FeatureBlock) -> SoftmaxResult:
    """Mean softmax cross-entropy over the block, with all three gradients."""
    block.check("feature", classifier.class_count, classifier.feature_dim)
    logits = classifier.weights.T @ block.columns + classifier.bias[:, None]
    logits -= logits.max(axis=0, keepdims=True)
    exp = np.exp(logits)
    totals = exp.sum(axis=0)
    n = block.count
    truth = (block.labels, np.arange(n))
    picked = logits[truth] - np.log(totals)
    loss = float(-picked.mean())
    # The probabilities become the logit gradient in place: (probs - onehot) / n.
    dlogits = np.divide(exp, totals, out=exp)
    dlogits[truth] -= 1.0
    dlogits /= n
    return SoftmaxResult(
        loss=loss,
        # Both matrix gradients are computed transposed, so that each comes out
        # column-major like the array it is the gradient of.
        grad_weights=(dlogits @ block.columns.T).T,
        grad_bias=dlogits.sum(axis=1),
        grad_columns=(dlogits.T @ classifier.weights.T).T,
    )


def proximity(w: Classifier, w_star: Classifier, eta: float) -> tuple[float, np.ndarray]:
    """eta ||W - W*||_F^2 and its gradient ``2 eta (W - W*)`` with respect to ``W``. Biases excluded.

    The gradient with respect to ``W*`` is the exact negation of the one
    returned, so a caller subtracts it rather than adding a second array.
    """
    if w.weights.shape != w_star.weights.shape:
        raise DimensionError(
            f"classifier shapes differ: {w.weights.shape} vs {w_star.weights.shape}"
        )
    diff = w.weights - w_star.weights
    value = float(eta * np.sum(diff * diff))
    diff *= 2.0 * eta
    return value, diff


@dataclass(frozen=True)
class AlignmentResult:
    """Alignment loss split into its scatter and mean parts, plus feature gradients.

    ``grads_source[c]`` / ``grads_target[c]`` match the shapes of the class-c
    column blocks that were passed in (zeros for skipped classes).
    """

    loss: float
    scatter_term: float
    mean_term: float
    grads_source: list[np.ndarray]
    grads_target: list[np.ndarray]


def class_terms(
    x: np.ndarray, n_source: int, config: AlignConfig, with_grad: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Scatter and mean terms of a stack of classes that share one (N, N*) shape.

    ``x`` is (G, d, N + N*): each class's N source columns, then its N*
    target columns. Returns the (G,) squared distances between the
    eps-regularized scatters, the (G,) squared gaps between the ambient means,
    and the (G, d, N + N*) feature gradients of
    ``sigma1 / C * scatter + sigma2 / C * mean`` (``None`` without
    ``with_grad``). A term whose weight is zero is neither computed nor
    differentiated.

    The scatter term starts from the (G, k, k) Gram matrices ``K = X^T X``
    (k = N + N*), without reducing the columns. ``B`` (:func:`_centring_basis`)
    maps the k slots to k - 2 centred directions, so that ``Z = X B`` holds
    columns whose outer products sum to the two scatters: ``S = Z_s Z_s^T``
    and ``S* = Z_t Z_t^T``. Their Gram matrix is ``Kc = B^T K B``. Let ``s``
    be +1 on source directions and -1 on target directions, and ``D =
    diag(s)``.

    * Frobenius: ``||S - S*||_F^2 = sum_ij s_i s_j Kc_ij^2`` by trace
      identities, and its gradient with respect to ``Z`` is ``Z W`` with
      ``W = 4 D Kc D``.
    * JBLD: the ``log eps`` parts of the three log-determinants cancel, so the
      term is ``L(Z, 2 eps) - (L(Z_s, eps) + L(Z_t, eps)) / 2`` with
      ``L(F, c) = logdet(I + F F^T / c)``, in any embedding of the columns.
      By Sylvester's determinant identity, ``L(F, c)`` is also
      ``logdet(I + F^T F / c)``, a function of a block of ``Kc``.
      :func:`_jbld_terms` takes each of the three on its smaller side.
    * AIRM: a square root ``R`` of ``Kc`` holds the centred columns in an
      orthonormal basis of their span, and :func:`_airm_terms` takes the
      distance between ``eps I + R_s R_s^T`` and ``eps I + R_t R_t^T``.

    Both gradients are linear maps of the columns, so they are summed as one
    (G, k, k) operator ``M`` and the gradient is ``x @ M``: the scatter part
    is ``B W B^T``, the mean part is ``2 c c^T`` with ``c`` = 1/N on source
    slots and -1/N* on target slots. The d-dimensional data is read only by
    the Gram matrices, the mean gaps ``x @ c`` and that product. (Where d <
    k - 2, JBLD may return its scatter gradient itself in place of ``W``,
    which is added to ``x @ M``.) The gradient's memory is laid out as (G, k,
    d), so each class's gradient columns are contiguous.

    A ``SingularityError`` carries the position in the stack of the first
    failing class, and so does the ``NumericalError`` raised when a Gram
    matrix or centred Gram matrix, a regularized scatter or Sylvester matrix,
    a term, the gradient operator or the feature gradient overflows float64.
    """
    count, dim, width = x.shape
    direct = None
    scatter = np.zeros(count)
    mean = np.zeros(count)
    operator = np.zeros((count, width, width))
    c_norm = float(config.class_count)
    with np.errstate(over="ignore", invalid="ignore"):
        if config.sigma1 != 0.0:
            helmert, scale, basis = _centring_basis(n_source, width)
            centred = (helmert.T @ column_gram(x) @ helmert) * np.outer(scale, scale)
            if config.kind is DistanceKind.JBLD:
                scatter, weight, direct = _jbld_terms(x, centred, helmert, scale, basis, n_source - 1,
                                                      config.eps, with_grad)
            elif config.kind is DistanceKind.AIRM:
                scatter, weight, direct = _airm_terms(centred, n_source - 1, dim, config.eps, with_grad)
            else:
                side = np.arange(width - 2) >= n_source - 1
                signed = np.where(side[:, None] == side[None, :], centred, -centred)
                scatter = np.einsum("gij,gij->g", signed, centred)
                check_finite_stack("squared frobenius distance", scatter)
                weight = 4.0 * signed if with_grad else None
            if weight is not None:
                operator += config.sigma1 / c_norm * (basis @ weight @ basis.T)
        if config.sigma2 != 0.0:
            gap = np.repeat([1.0 / n_source, -1.0 / (width - n_source)], [n_source, width - n_source])
            diff = x @ gap
            mean = np.einsum("gi,gi->g", diff, diff)
            check_finite_stack("squared mean gap", mean)
            if with_grad:
                operator += 2.0 * config.sigma2 / c_norm * np.outer(gap, gap)
    if not with_grad:
        return scatter, mean, None
    check_finite_stack("gradient operator", operator)
    grad = (operator.transpose(0, 2, 1) @ x.transpose(0, 2, 1)).transpose(0, 2, 1)
    if direct is not None:
        grad += config.sigma1 / c_norm * direct
        check_finite_stack("feature gradient", grad)
    return scatter, mean, grad


def _jbld_terms(
    x: np.ndarray, centred: np.ndarray, helmert: np.ndarray, scale: np.ndarray, basis: np.ndarray,
    split: int, eps: float, with_grad: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """JBLD values, and either the gradient weight ``W`` on the centred directions or the gradient.

    ``centred`` is ``Kc``, ``(helmert, scale, basis)`` is the centring basis
    of :func:`_centring_basis`, and ``split`` is the number of source
    directions. Each of the three parts,
    pooled (``Z``, ``c = 2 eps``), source and target (``Z_s``, ``Z_t``,
    ``c = eps``), takes the smaller side of Sylvester's identity: ``I + F^T F
    / c`` from its block of ``Kc`` where ``F`` has at most d columns that are
    not exactly zero, else ``I + F F^T / c`` from ``F``. That side is full
    rank for generic columns, so no null direction of the other side, whose
    rounding the ``1 / eps`` would amplify, enters a log-determinant. The
    pooled matrix and the block-diagonal source-target matrix, padded with
    the identity to one size, share one call of the Cholesky stage,
    :func:`~spdalign.distances._cholesky_logdets`, which gives their
    log-determinants and, for the gradient, their inverses.

    The gradient of ``L(F, c)`` with respect to ``F`` is ``(2 / c) F (I +
    F^T F / c)^{-1}`` on the Gram side and ``(2 / c) (I + F F^T / c)^{-1} F``
    on the other. Where every part is on the Gram side (always when d is at
    least k - 2), they add up to ``Z W``. Otherwise the gradient with respect
    to ``X``, ``sum (dL / dF) B_F^T``, is returned, formed from ``Z``, so
    that a centred column that is exactly zero contributes exactly zero.
    """
    count, dim, _ = x.shape
    width = centred.shape[-1]
    # (centred directions, c, sign): pooled, source, target.
    parts = ((slice(0, width), 2.0 * eps, 1.0), (slice(0, split), eps, -1.0),
             (slice(split, width), eps, -1.0))
    # An exactly zero direction adds an exact identity row on the Gram side; only
    # the others count against d.
    live = np.diagonal(centred, axis1=1, axis2=2) != 0.0
    gram_side = [int(live[:, cols].sum(axis=1).max()) <= dim for cols, _, _ in parts]
    z = None if all(gram_side) else (x @ helmert) * scale
    blocks = [centred[:, cols, cols] / c if on_gram else
              z[:, :, cols] @ z[:, :, cols].transpose(0, 2, 1) / c
              for (cols, c, _), on_gram in zip(parts, gram_side)]
    # The pooled matrix is layer 0; source and target share layer 1, block-diagonally.
    places = [(0, 0), (1, 0), (1, blocks[1].shape[-1])]
    size = max(blocks[0].shape[-1], blocks[1].shape[-1] + blocks[2].shape[-1])
    stack = np.zeros((2, count, size, size))
    stack[:, :] = np.eye(size)
    for (layer, offset), block in zip(places, blocks):
        stack[layer, :, offset:offset + block.shape[-1], offset:offset + block.shape[-1]] += block
    check_finite_stack("regularized Sylvester matrix", stack.transpose(1, 0, 2, 3))
    logdets, inverse = _cholesky_logdets(stack.reshape(2 * count, size, size), count, with_grad)
    # Finite, since the stack is; mathematically >= 0, so rounding residue clamps at zero.
    values = np.maximum(logdets[:count] - 0.5 * logdets[count:], 0.0)
    if not with_grad:
        return values, None, None
    inverse = inverse.reshape(2, count, size, size)
    scaled = [sign / eps * inverse[layer, :, offset:offset + block.shape[-1],
                                   offset:offset + block.shape[-1]]
              for (_, _, sign), (layer, offset), block in zip(parts, places, blocks)]
    if z is None:
        weight = np.zeros((count, width, width))
        for (cols, _, _), inv in zip(parts, scaled):
            weight[:, cols, cols] += inv
        return values, weight, None
    grad = np.zeros(x.shape)
    for (cols, _, _), on_gram, inv in zip(parts, gram_side, scaled):
        factor = z[:, :, cols]
        grad += (factor @ inv if on_gram else inv @ factor) @ basis[:, cols].T
    return values, None, grad


def _airm_terms(
    centred: np.ndarray, split: int, dim: int, eps: float, with_grad: bool
) -> tuple[np.ndarray, np.ndarray | None, None]:
    """AIRM values, the gradient weight ``W`` on the centred directions, and ``None`` for the gradient.

    ``centred`` is ``Kc`` of ``dim``-row columns and ``split`` is the number
    of source directions. With the eigendecomposition ``Kc = V diag(r^2)
    V^T`` and its rank policy (:func:`~spdalign.nystrom.spectral_roots`),
    ``R = diag(r) V^T`` is a square root of ``Kc`` (``R^T R = Kc``), and
    ``Q = Z V diag(r^+)`` is an orthonormal basis of the span of the centred
    columns in which ``Z = Q R``. So the scatters are ``S = Q R_s R_s^T Q^T``
    and ``S* = Q R_t R_t^T Q^T``, with ``R_s`` and ``R_t`` the source and
    target columns of ``R``. Outside that span both regularized scatters are
    ``eps I``, where the log-ratio of AIRM is 0, so the term is exactly
    :func:`batch_dist_sq` of ``eps I + R_s R_s^T`` and ``eps I + R_t R_t^T``
    on the k - 2 centred directions. The rows of ``R`` for eigenvalues at
    rounding level are exactly zero, so both operands are exactly ``eps I``
    there too. With ``Q`` held constant, the distance gradients ``G_A, G_B``
    pull back to ``Z W`` with ``W = V diag(r^+) [2 G_A R_s, 2 G_B R_t]``.
    """
    check_finite_stack("centred Gram matrix", centred)
    vectors, roots, inverse_roots = spectral_roots(centred, dim)
    root = roots[:, :, None] * vectors.transpose(0, 2, 1)
    parts = (root[:, :, :split], root[:, :, split:])
    operands = [symmetric_part(part @ part.transpose(0, 2, 1)) + eps * np.eye(part.shape[1]) for part in parts]
    check_finite_stack("regularized scatter", np.stack(operands, axis=1))
    # Every value is finite: batch_dist_sq refuses a singular value that is not finite and positive.
    values, grad_a, grad_b = batch_dist_sq(DistanceKind.AIRM, *operands, with_grad=with_grad)
    if not with_grad:
        return values, None, None
    pulled = np.concatenate([2.0 * grad_a @ parts[0], 2.0 * grad_b @ parts[1]], axis=2)
    return values, (vectors * inverse_roots[:, None, :]) @ pulled, None


@functools.lru_cache(maxsize=64)
def _centring_basis(n_source: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, s, H * s): the (k, k - 2) centring basis from the k column slots to the scatter directions.

    Block-diagonal, with ``H_n * s_n`` for each side's n slots: the Helmert
    basis, n - 1 orthonormal columns orthogonal to the ones vector, so that
    ``(H_n s_n)(H_n s_n)^T = (I - 11^T / n) / n`` is the scatter's centring
    and scaling. ``H`` holds the Helmert columns' integer entries (1 and -j)
    and ``s`` their scales, with the ``1 / sqrt(n)`` folded in, so that
    products with ``H`` take exact differences: two equal first columns of a
    side give an exactly zero centred direction. Using a basis in place of
    the projector keeps the two constant directions, which no scatter sees,
    out of every matrix that is factored. A training run meets few class
    shapes, so the three arrays are cached, read-only.
    """
    helmert = np.zeros((width, width - 2))
    scale = np.zeros(width - 2)
    for rows, cols, n in ((slice(0, n_source), slice(0, n_source - 1), n_source),
                          (slice(n_source, width), slice(n_source - 1, width - 2), width - n_source)):
        steps = np.arange(1, n)
        block = (np.arange(n)[:, None] < steps).astype(float)
        block[steps, steps - 1] = -steps
        helmert[rows, cols] = block
        scale[cols] = 1.0 / np.sqrt(steps * (steps + 1.0) * n)
    basis = helmert * scale
    for array in (helmert, scale, basis):
        array.setflags(write=False)
    return helmert, scale, basis


@functools.lru_cache(maxsize=32)
def _batch_layout(
    labels_s: bytes, labels_t: bytes, class_count: int
) -> tuple[tuple[np.ndarray, int, np.ndarray, np.ndarray], ...]:
    """The shape groups of two batches, from the bytes of their int64 label vectors.

    One ``(classes, N, source positions, target positions)`` entry per
    ``(N_c, N*_c)`` shape, in ascending order of shape: the group's classes in
    ascending order, their common source count N, and the (G, N) and (G, N*)
    column positions of each class in its batch, in batch order. Classes
    missing from either batch belong to no group. A training run repeats its
    label vectors at every step, so the layouts are cached; every array is
    read-only.
    """
    labels_s, labels_t = (np.frombuffer(labels, np.int64) for labels in (labels_s, labels_t))
    counts_s = np.bincount(labels_s, minlength=class_count)
    counts_t = np.bincount(labels_t, minlength=class_count)
    order_s = np.argsort(labels_s, kind="stable")
    order_t = np.argsort(labels_t, kind="stable")
    starts_s = np.cumsum(counts_s) - counts_s
    starts_t = np.cumsum(counts_t) - counts_t
    active = np.flatnonzero((counts_s > 0) & (counts_t > 0))
    shape_keys = counts_s[active] * (counts_t.max() + 1) + counts_t[active]
    keys, group_of = np.unique(shape_keys, return_inverse=True)
    layout = []
    for group in range(keys.size):
        classes = active[group_of == group]
        n_s, n_t = int(counts_s[classes[0]]), int(counts_t[classes[0]])
        idx_s = order_s[starts_s[classes, None] + np.arange(n_s)]
        idx_t = order_t[starts_t[classes, None] + np.arange(n_t)]
        for array in (classes, idx_s, idx_t):
            array.setflags(write=False)
        layout.append((classes, n_s, idx_s, idx_t))
    return tuple(layout)


def _alignment(
    block_s: FeatureBlock, block_t: FeatureBlock, config: AlignConfig, grad_s: np.ndarray,
    grad_t: np.ndarray,
) -> tuple[float, float]:
    """Weighted scatter and mean terms of two labelled batches; their feature gradients are added in place.

    Classes present in both streams are grouped by their (N_c, N*_c) shape
    (:func:`_batch_layout`). Each group's columns are gathered into one (G,
    k, d) stack, contiguous because the blocks are column-major, and handed
    to :func:`class_terms` as its (G, d, k) transpose; the gradient columns
    it returns are added into ``grad_s`` and ``grad_t``, column-major arrays
    shaped like the two batches, the same way. A column position belongs to
    at most one group, so each indexed add is exact. Classes missing from
    either stream add nothing. Every label is below ``config.class_count``:
    both callers ensure it.
    """
    scatter_sum = 0.0
    mean_sum = 0.0
    layout = _batch_layout(block_s.labels.tobytes(), block_t.labels.tobytes(), config.class_count)
    for classes, n_s, idx_s, idx_t in layout:
        rows = np.concatenate([block_s.columns.T[idx_s], block_t.columns.T[idx_t]], axis=1)
        try:
            scatter, mean, grad = class_terms(rows.transpose(0, 2, 1), n_s, config)
        except (SingularityError, NumericalError) as exc:
            if exc.index is None:
                raise
            raise type(exc)(f"class {int(classes[exc.index])}: {exc}") from exc
        scatter_sum += float(scatter.sum())
        mean_sum += float(mean.sum())
        grad_rows = grad.transpose(0, 2, 1)
        grad_s.T[idx_s] += grad_rows[:, :n_s]
        grad_t.T[idx_t] += grad_rows[:, n_s:]
    c_norm = float(config.class_count)
    return config.sigma1 / c_norm * scatter_sum, config.sigma2 / c_norm * mean_sum


def alignment_loss(
    per_class: Sequence[tuple[np.ndarray, np.ndarray]], config: AlignConfig
) -> AlignmentResult:
    """Scatter- and mean-alignment loss over per-class (source, target) column pairs.

    Classes where either stream is empty are skipped; they contribute zero while
    the 1/C normalizer keeps the declared class count. For each contributing
    class the distance between its eps-regularized scatters and its mean term
    are accumulated (:func:`class_terms`). All blocks follow
    :func:`~spdalign.errors.column_blocks`: 2-d, one feature dimension,
    finite entries.
    """
    if len(per_class) != config.class_count:
        raise DimensionError(
            f"got {len(per_class)} class entries for class_count {config.class_count}"
        )
    blocks = column_blocks("class blocks", *(pair[side] for side in (0, 1) for pair in per_class))
    streams = (blocks[:config.class_count], blocks[config.class_count:])
    counts = [[block.shape[1] for block in stream] for stream in streams]
    labels = np.arange(config.class_count)
    block_s, block_t = (
        FeatureBlock(np.concatenate(stream, axis=1), np.repeat(labels, count))
        for stream, count in zip(streams, counts)
    )
    grad_s, grad_t = (np.zeros_like(block.columns) for block in (block_s, block_t))
    scatter_term, mean_term = _alignment(block_s, block_t, config, grad_s, grad_t)
    return AlignmentResult(
        loss=scatter_term + mean_term,
        scatter_term=scatter_term,
        mean_term=mean_term,
        grads_source=np.split(grad_s, np.cumsum(counts[0])[:-1], axis=1),
        grads_target=np.split(grad_t, np.cumsum(counts[1])[:-1], axis=1),
    )


@dataclass(frozen=True)
class ObjectiveParts:
    """The five terms of one objective evaluation; :attr:`total` is their sum."""

    ce_source: float
    ce_target: float
    proximity: float
    scatter: float
    mean: float

    @property
    def total(self) -> float:
        return self.ce_source + self.ce_target + self.proximity + (self.scatter + self.mean)


@dataclass(frozen=True)
class ObjectiveGrads:
    weights_source: np.ndarray
    bias_source: np.ndarray
    weights_target: np.ndarray
    bias_target: np.ndarray
    features_source: np.ndarray
    features_target: np.ndarray


@dataclass(frozen=True)
class ObjectiveResult:
    parts: ObjectiveParts
    grads: ObjectiveGrads

    @property
    def value(self) -> float:
        """The objective's value, :attr:`ObjectiveParts.total`."""
        return self.parts.total


def group_columns_by_class(
    batch_s: FeatureBlock, batch_t: FeatureBlock, class_count: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split two batches into per-class (source columns, target columns) pairs.

    The objective gathers classes by shape instead; this per-class split
    remains the input of the loop reference that tests compare it against.
    """
    for block in (batch_s, batch_t):
        if block.count and block.labels.max() >= class_count:
            raise LabelError(
                f"label {int(block.labels.max())} outside class count {class_count}"
            )
    return [
        (batch_s.columns[:, batch_s.labels == c], batch_t.columns[:, batch_t.labels == c])
        for c in range(class_count)
    ]


def total_objective(
    model: "TwoStreamModel", batch_s: FeatureBlock, batch_t: FeatureBlock, config: AlignConfig
) -> ObjectiveResult:
    """Full objective value and gradients, with feature columns as the leaves.

    The batches hold already-encoded feature vectors; gradients with respect to
    them are what the trainer chains through its encoders. Each batch must meet
    its classifier's block rules (:meth:`FeatureBlock.check`). The alignment
    terms normalize by ``config.class_count``, so both classifiers must have
    that many classes; otherwise a :class:`DimensionError` names all three
    counts.

    The gradients of :func:`softmax_ce` become the result's: the proximity
    gradient is added into the source weight gradient and subtracted from the
    target's, and :func:`_alignment` adds its feature gradients into the two
    feature gradients, all in place.
    """
    clf_s = model.classifier_source
    clf_t = model.classifier_target
    if not config.class_count == clf_s.class_count == clf_t.class_count:
        raise DimensionError(
            f"objective class count {config.class_count} does not match the classifiers' "
            f"class counts: source {clf_s.class_count}, target {clf_t.class_count}"
        )
    # The block checks of softmax_ce ensure _alignment's precondition: every label is below C.
    ce_s = softmax_ce(clf_s, batch_s)
    ce_t = softmax_ce(clf_t, batch_t)
    prox_value, prox_grad = proximity(clf_s, clf_t, config.eta)
    np.add(ce_s.grad_weights, prox_grad, out=ce_s.grad_weights)
    np.subtract(ce_t.grad_weights, prox_grad, out=ce_t.grad_weights)
    scatter_term, mean_term = _alignment(batch_s, batch_t, config, ce_s.grad_columns, ce_t.grad_columns)

    parts = ObjectiveParts(
        ce_source=ce_s.loss,
        ce_target=ce_t.loss,
        proximity=prox_value,
        scatter=scatter_term,
        mean=mean_term,
    )
    grads = ObjectiveGrads(
        weights_source=ce_s.grad_weights,
        bias_source=ce_s.grad_bias,
        weights_target=ce_t.grad_weights,
        bias_target=ce_t.grad_bias,
        features_source=ce_s.grad_columns,
        features_target=ce_t.grad_columns,
    )
    return ObjectiveResult(parts=parts, grads=grads)
