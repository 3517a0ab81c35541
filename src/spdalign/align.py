"""The two-stream objective: classification, classifier proximity, and alignment.

The total objective is

    ce(W, source) + ce(W*, target) + eta ||W - W*||_F^2
      + (sigma1 / C) sum_c d^2(S_c, S*_c) + (sigma2 / C) sum_c ||mu_c - mu*_c||^2

where the per-class scatters S_c, S*_c are built in the jointly reduced space
(exact isometric projection of that class's source and target columns) and
regularized by eps on both sides. Feature gradients of the scatter term travel
distance gradient -> feature chain rule -> projector transpose; the projector
is a constant in this differentiation.

One kernel, :func:`class_terms`, evaluates the alignment terms of a stack of
classes that share a ``(N_c, N*_c)`` shape, with batched numpy calls over the
whole stack at every stage. Its feature gradient is one product ``x @ M`` with
a small per-class operator, so the d-dimensional columns are read three
times: by the Gram matrices, the mean gaps and that product. The objective
sorts each batch by label once, gathers every shape group into a stack, and
writes the stack's feature gradients back with one indexed assignment per
group; feature blocks are column-major, so both move whole contiguous
columns.

:func:`total_objective` returns the five terms as one :class:`ObjectiveParts`;
its ``total`` is the one place they are summed, and it is the objective's
value. The trainer keeps those parts, step by step, as its loss history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distances import DistanceKind, batch_dist_sq
from .errors import (
    DimensionError, LabelError, NumericalError, SingularityError, check_at_least, check_nonnegative,
    check_positive, real_array,
)
from .nystrom import gram_roots
from .scatter import FeatureBlock, _feature_grad, mean_and_scatter

# perfbench/tracing.py wraps these bindings by name; the batched kernel does not call them.
from .distances import dist_sq, grad_dist_sq  # noqa: F401
from .nystrom import backproject_grad, isometric_project  # noqa: F401
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
        weights = real_array("weights", self.weights)
        bias = real_array("bias", self.bias)
        if weights.ndim != 2:
            raise DimensionError(f"weights must be 2-d, got shape {weights.shape}")
        if bias.ndim != 1 or bias.shape[0] != weights.shape[1]:
            raise DimensionError(
                f"bias length {bias.shape} does not match class count {weights.shape[1]}"
            )
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise DimensionError("classifier parameters contain non-finite entries")
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
    probs = exp / totals
    n = block.count
    picked = logits[block.labels, np.arange(n)] - np.log(totals)
    loss = float(-picked.mean())
    dlogits = probs.copy()
    dlogits[block.labels, np.arange(n)] -= 1.0
    dlogits /= n
    return SoftmaxResult(
        loss=loss,
        # Both matrix gradients are computed transposed, so that each comes out
        # column-major like the array it is the gradient of.
        grad_weights=(dlogits @ block.columns.T).T,
        grad_bias=dlogits.sum(axis=1),
        grad_columns=(dlogits.T @ classifier.weights.T).T,
    )


def proximity(w: Classifier, w_star: Classifier, eta: float) -> tuple[float, np.ndarray, np.ndarray]:
    """eta ||W - W*||_F^2 with gradients to both weight matrices. Biases excluded."""
    if w.weights.shape != w_star.weights.shape:
        raise DimensionError(
            f"classifier shapes differ: {w.weights.shape} vs {w_star.weights.shape}"
        )
    diff = w.weights - w_star.weights
    value = float(eta * np.sum(diff * diff))
    return value, 2.0 * eta * diff, -2.0 * eta * diff


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
    target columns. Returns the (G,) squared distances between the reduced,
    eps-regularized scatters, the (G,) squared gaps between the ambient means,
    and the (G, d, N + N*) feature gradients of
    ``sigma1 / C * scatter + sigma2 / C * mean`` (``None`` without
    ``with_grad``). A term whose weight is zero is neither computed nor
    differentiated.

    Both gradients are linear maps of the columns, so they are summed as one
    (G, k, k) operator ``M`` (k = N + N*) and the gradient is ``x @ M``: the
    scatter part is ``inverse_root @ chained`` from the reduction, the mean
    part ``2 c c^T`` with ``c`` = 1/N on source slots and -1/N* on target
    slots. The d-dimensional data is read only by the Gram matrices, the mean
    gaps ``x @ c`` and that product. The gradient's memory is laid out as
    (G, k, d), so each class's gradient columns are contiguous.

    A ``SingularityError`` carries the position in the stack of the first
    failing class, and so does the ``NumericalError`` raised when a Gram
    matrix, a regularized scatter, a term or the gradient operator overflows
    float64.
    """
    count, _, width = x.shape
    scatter = np.zeros(count)
    mean = np.zeros(count)
    operator = np.zeros((count, width, width))
    c_norm = float(config.class_count)
    with np.errstate(over="ignore", invalid="ignore"):
        if config.sigma1 != 0.0:
            root, inverse_root = gram_roots(x)
            part_s, part_t = root[:, :, :n_source], root[:, :, n_source:]
            center_s, sigma_s = mean_and_scatter(part_s)
            center_t, sigma_t = mean_and_scatter(part_t)
            shift = config.eps * np.eye(width)
            sigma_s += shift
            sigma_t += shift
            _check_overflow("regularized scatter", np.stack([sigma_s, sigma_t], axis=1))
            scatter, grad_a, grad_b = batch_dist_sq(config.kind, sigma_s, sigma_t, with_grad=with_grad)
            _check_overflow(f"squared {config.kind.value} distance", scatter)
            if with_grad:
                chained = np.concatenate([
                    _feature_grad(grad_a, part_s, center_s),
                    _feature_grad(grad_b, part_t, center_t),
                ], axis=2)
                operator += config.sigma1 / c_norm * (inverse_root @ chained)
        if config.sigma2 != 0.0:
            gap = np.repeat([1.0 / n_source, -1.0 / (width - n_source)], [n_source, width - n_source])
            diff = x @ gap
            mean = np.einsum("gi,gi->g", diff, diff)
            _check_overflow("squared mean gap", mean)
            if with_grad:
                operator += 2.0 * config.sigma2 / c_norm * np.outer(gap, gap)
    if not with_grad:
        return scatter, mean, None
    _check_overflow("gradient operator", operator)
    return scatter, mean, (operator.transpose(0, 2, 1) @ x.transpose(0, 2, 1)).transpose(0, 2, 1)


def _check_overflow(what: str, stack: np.ndarray) -> None:
    """Raise ``NumericalError`` at the first item of ``stack`` that holds a non-finite entry."""
    finite = np.isfinite(stack.reshape(stack.shape[0], -1)).all(axis=1)
    if not finite.all():
        raise NumericalError(f"{what} overflows float64", index=int(np.argmin(finite)))


def _alignment(
    block_s: FeatureBlock, block_t: FeatureBlock, config: AlignConfig
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Weighted scatter and mean terms of two labelled batches, with feature gradients.

    Each batch is sorted by label once. Classes present in both streams are
    grouped by their (N_c, N*_c) shape. Each group's columns are gathered
    into one (G, k, d) stack, contiguous because the blocks are column-major,
    and handed to :func:`class_terms` as its (G, d, k) transpose; the
    gradient columns it returns are written back the same way. Classes
    missing from either stream contribute zero. Gradients come back shaped
    and laid out like the two batches. Every label is below
    ``config.class_count``: both callers ensure it.
    """
    grad_s = np.zeros_like(block_s.columns)
    grad_t = np.zeros_like(block_t.columns)
    counts_s = np.bincount(block_s.labels, minlength=config.class_count)
    counts_t = np.bincount(block_t.labels, minlength=config.class_count)
    order_s = np.argsort(block_s.labels, kind="stable")
    order_t = np.argsort(block_t.labels, kind="stable")
    starts_s = np.cumsum(counts_s) - counts_s
    starts_t = np.cumsum(counts_t) - counts_t
    active = np.flatnonzero((counts_s > 0) & (counts_t > 0))
    shape_keys = counts_s[active] * (counts_t.max() + 1) + counts_t[active]
    keys, group_of = np.unique(shape_keys, return_inverse=True)
    scatter_sum = 0.0
    mean_sum = 0.0
    for group in range(keys.size):
        classes = active[group_of == group]
        n_s, n_t = int(counts_s[classes[0]]), int(counts_t[classes[0]])
        idx_s = order_s[starts_s[classes, None] + np.arange(n_s)]
        idx_t = order_t[starts_t[classes, None] + np.arange(n_t)]
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
        grad_s.T[idx_s] = grad_rows[:, :n_s]
        grad_t.T[idx_t] = grad_rows[:, n_s:]
    c_norm = float(config.class_count)
    return config.sigma1 / c_norm * scatter_sum, config.sigma2 / c_norm * mean_sum, grad_s, grad_t


def alignment_loss(
    per_class: Sequence[tuple[np.ndarray, np.ndarray]], config: AlignConfig
) -> AlignmentResult:
    """Scatter- and mean-alignment loss over per-class (source, target) column pairs.

    Classes where either stream is empty are skipped; they contribute zero while
    the 1/C normalizer keeps the declared class count. For each contributing
    class the source and target columns are jointly projected to dimension
    N_c + N*_c, both reduced scatters are regularized by eps, and the distance
    plus ambient mean term are accumulated. All blocks share one feature
    dimension.
    """
    if len(per_class) != config.class_count:
        raise DimensionError(
            f"got {len(per_class)} class entries for class_count {config.class_count}"
        )
    streams = [[real_array("class block", pair[side]) for pair in per_class] for side in (0, 1)]
    if any(block.ndim != 2 for stream in streams for block in stream):
        raise DimensionError("class blocks must be 2-d column matrices")
    dims = {block.shape[0] for stream in streams for block in stream}
    if len(dims) != 1:
        raise DimensionError(f"stream dimensions differ: {sorted(dims)}")
    counts = [[block.shape[1] for block in stream] for stream in streams]
    labels = np.arange(config.class_count)
    block_s, block_t = (
        FeatureBlock(np.concatenate(stream, axis=1), np.repeat(labels, count))
        for stream, count in zip(streams, counts)
    )
    scatter_term, mean_term, grad_s, grad_t = _alignment(block_s, block_t, config)
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
    value: float
    parts: ObjectiveParts
    grads: ObjectiveGrads


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
    prox_value, prox_gw, prox_gw_star = proximity(clf_s, clf_t, config.eta)
    scatter_term, mean_term, align_s, align_t = _alignment(batch_s, batch_t, config)
    # Each gradient sum is written into one of its fresh operands; no feature-sized temporary.
    np.add(align_s, ce_s.grad_columns, out=align_s)
    np.add(align_t, ce_t.grad_columns, out=align_t)
    np.add(ce_s.grad_weights, prox_gw, out=ce_s.grad_weights)
    np.add(ce_t.grad_weights, prox_gw_star, out=ce_t.grad_weights)

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
        features_source=align_s,
        features_target=align_t,
    )
    return ObjectiveResult(value=parts.total, parts=parts, grads=grads)
