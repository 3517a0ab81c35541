"""Desk-scale two-stream training on synthetic domain-shifted data.

Encoders are a single linear map with optional elementwise tanh; the source and
target streams each own an encoder and a linear classifier, trained jointly by
plain SGD on the full objective. Single-stream softmax baselines (source-only,
target-only, source+target) train one encoder and classifier, initialized,
batched and capped exactly as the source stream of the full objective, so
accuracy gaps come from the alignment terms alone. Both trainers take their SGD
steps through the same per-stream update. The loss history of :func:`train` is
the objective's own :class:`~spdalign.align.ObjectiveParts`, one per step.

Everything is deterministic given the seeds: each step draws one uniform key
per column from ``default_rng([seed, step])``, all source keys before any
target keys, and each class keeps its columns with the lowest keys. A class
contributes ``min(count, cap)`` columns at every step, grouped by ascending
class, so each stream's batch labels, and with them the objective's batch
layout, are fixed for the whole run; only the columns within a class change.

The feature-norm cap has one home, :attr:`TwoStreamModel.feature_cap`. A model
that arrives without one gets it fixed once, before the first step, from the
source stream's step-1 batch (:func:`_first_batch_cap`).

Values are checked once: the model, blocks and schedule where a trainer is
entered, and each step's features, loss and updated parameters for
finiteness, the one rule that training can break. The batch blocks,
encoders and classifiers a step builds from those checked values are built
without a second pass (:func:`_built`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .align import AlignConfig, Classifier, ObjectiveParts, softmax_ce, total_objective
from .distances import DistanceKind
from .errors import (
    DimensionError, DivergenceError, NumericalError, ParameterError, SingularityError, check_at_least,
    check_finite, check_nonnegative, check_seed, layer_arrays,
)
from .scatter import FeatureBlock

# Batch policy: every class contributes min(available, cap) samples per step.
SOURCE_BATCH_CAP = 10
TARGET_BATCH_CAP = 3


@dataclass(frozen=True)
class Encoder:
    """Linear map plus optional elementwise tanh: phi = tanh(W x + b).

    Construction converts both arrays with ``real_array`` and checks the
    layer rule (:func:`~spdalign.errors.layer_arrays`): a (feature_dim,
    input_dim) matrix, a (feature_dim,) bias, at least one output, and finite
    entries. An array edited in place after construction is outside the rule.
    """

    weights: np.ndarray  # (feature_dim, input_dim)
    bias: np.ndarray  # (feature_dim,)
    nonlinear: bool = True

    def __post_init__(self):
        weights, bias = layer_arrays("encoder", self.weights, self.bias, ("feature_dim", "input_dim"), 0)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class TwoStreamModel:
    """Source and target encoders with their classifiers.

    ``feature_cap`` is the squared-norm ceiling applied to every encoder output
    column; ``None`` means no cap has been fixed yet (training fixes it). A
    fixed cap is finite and nonnegative; zero is legal, since a first batch
    whose encoder outputs are all zero yields it.

    Each encoder and classifier checks its own layer rule where it is built.
    :meth:`check` states only what couples the fields: each encoder's width
    equals its classifier's, and the cap rule. Construction, :func:`train`,
    :func:`evaluate` and :func:`~spdalign.io.write_model` run it, since a
    field may be replaced after construction.
    """

    encoder_source: Encoder
    encoder_target: Encoder
    classifier_source: Classifier
    classifier_target: Classifier
    feature_cap: float | None = None

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """DimensionError unless each encoder feeds its classifier; ParameterError for a bad cap."""
        if self.feature_cap is not None:
            check_nonnegative(feature_cap=self.feature_cap)
        for enc, clf in (
            (self.encoder_source, self.classifier_source),
            (self.encoder_target, self.classifier_target),
        ):
            if enc.feature_dim != clf.feature_dim:
                raise DimensionError(
                    f"encoder output dim {enc.feature_dim} does not match "
                    f"classifier input dim {clf.feature_dim}"
                )


def _built(cls, **fields):
    """An instance of ``cls`` holding ``fields``, without running its checks.

    For values that already meet every rule of ``cls``, in the form its
    ``__post_init__`` stores: the batch blocks, encoders and classifiers
    that the trainers build each step from checked values, and the blocks
    of :func:`synth_domain_pair`. Every field must be given. The tests run
    the checked constructor beside each call, which must accept the same
    fields and store the same arrays.
    """
    built = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(built, name, value)
    return built


def _cap_columns(raw: np.ndarray, cap: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise norm clipping; returns (clipped columns, per-column scale)."""
    if cap is None:
        return raw, np.ones(raw.shape[1])
    sq = np.einsum("ij,ij->j", raw, raw)
    scale = np.where(sq > cap, np.sqrt(cap / np.maximum(sq, 1e-300)), 1.0)
    return raw * scale, scale


@dataclass
class EncoderTape:
    """Intermediates recorded by a forward pass, consumed by the backward pass.

    ``scale`` is each column's cap factor: 1 where the cap did not clip the
    column, and everywhere when there is no cap.
    """

    inputs: np.ndarray
    pre_cap: np.ndarray
    scale: np.ndarray


def encoder_forward(enc: Encoder, inputs: np.ndarray, cap: float | None) -> tuple[np.ndarray, EncoderTape]:
    # Computed transposed so that the pre-activation comes out column-major, the layout of
    # FeatureBlock; the bias and tanh then go into it in place.
    u = (inputs.T @ enc.weights.T).T
    u += enc.bias[:, None]
    if enc.nonlinear:
        # tanh would turn an overflowed pre-activation into a finite +-1; as NaN it stays NaN.
        if not np.isfinite(u).all():
            u[~np.isfinite(u)] = np.nan
        np.tanh(u, out=u)
    phi, scale = _cap_columns(u, cap)
    return phi, EncoderTape(inputs=inputs, pre_cap=u, scale=scale)


def encoder_backward(enc: Encoder, tape: EncoderTape, grad_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d loss / d weights, d loss / d bias) given d loss / d phi."""
    u = tape.pre_cap
    # Clipped columns: phi = s u with s = sqrt(cap)/||u||, whose Jacobian is
    # s (I - u u^T / ||u||^2). Unclipped columns have s = 1 and pass through.
    grad_u = grad_phi * tape.scale
    clipped = tape.scale < 1.0
    if clipped.any():
        sq = np.einsum("ij,ij->j", u, u)
        dots = np.einsum("ij,ij->j", u, grad_phi)
        grad_u = grad_u - u * np.where(clipped, tape.scale * dots / np.maximum(sq, 1e-300), 0.0)
    grad_z = grad_u * (1.0 - u * u) if enc.nonlinear else grad_u
    return grad_z @ tape.inputs.T, grad_z.sum(axis=1)


def init_encoder(input_dim: int, feature_dim: int, rng: np.random.Generator, nonlinear: bool = True) -> Encoder:
    weights = rng.normal(scale=1.0 / np.sqrt(input_dim), size=(feature_dim, input_dim))
    return Encoder(weights=weights, bias=np.zeros(feature_dim), nonlinear=nonlinear)


def init_two_stream(
    input_dim: int, feature_dim: int, class_count: int, seed: int, nonlinear: bool = True
) -> TwoStreamModel:
    """Fresh model with seeded encoder weights and zero classifiers."""
    check_at_least(1, input_dim=input_dim, feature_dim=feature_dim, class_count=class_count)
    check_seed(seed)
    rng = np.random.default_rng([seed, 0xE0])
    zero_clf = Classifier(weights=np.zeros((feature_dim, class_count)), bias=np.zeros(class_count))
    return TwoStreamModel(
        encoder_source=init_encoder(input_dim, feature_dim, rng, nonlinear),
        encoder_target=init_encoder(input_dim, feature_dim, rng, nonlinear),
        classifier_source=zero_clf,
        classifier_target=zero_clf,
    )


# ---------------------------------------------------------------------------
# Synthetic domain-shifted data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainShift:
    """Transform pushing source-distribution draws into the target domain.

    Targets are ``scale * R(rotation_deg) x + translation * t_hat + noise * g``
    with R a rotation in the plane of the first two coordinates and t_hat the
    first axis orthogonal to that plane (falling back to the last axis in one
    or two input dimensions), so the translation lifts target clusters out of
    the class-separating plane. Every field must be finite, and ``noise``
    nonnegative.
    """

    rotation_deg: float = 0.0
    translation: float = 0.0
    scale: float = 1.0
    noise: float = 0.0

    def __post_init__(self):
        check_finite(**vars(self))
        check_nonnegative(noise=self.noise)


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic benchmark layout: class clusters on a circle, then shifted."""

    class_count: int
    input_dim: int
    source_per_class: int
    target_train_per_class: int = 3
    target_test_per_class: int = 10
    shift: DomainShift = DomainShift()
    seed: int = 0

    def __post_init__(self):
        # Every field but the shift and the seed is a count.
        check_at_least(1, **{k: v for k, v in vars(self).items() if k not in ("shift", "seed")})
        check_seed(self.seed)


_CIRCLE_RADIUS = 6.0
_CLUSTER_STD_RANGE = (0.25, 0.45)


def _rotation_matrix(dim: int, degrees: float) -> np.ndarray:
    rot = np.eye(dim)
    if dim >= 2:
        theta = np.deg2rad(degrees)
        c, s = np.cos(theta), np.sin(theta)
        rot[0, 0] = c
        rot[0, 1] = -s
        rot[1, 0] = s
        rot[1, 1] = c
    return rot


def synth_domain_pair(spec: SynthSpec) -> tuple[FeatureBlock, FeatureBlock, FeatureBlock]:
    """Generate (source, target-train, target-test) blocks for one seed.

    Per class, sources come from an anisotropic Gaussian whose mean sits on a
    circle in the first two coordinates; target draws come from the same
    Gaussian pushed through the shift transform. A 30-degree rotation moves
    clusters past their angular neighbors once the class count exceeds twelve,
    which is what makes the source-only baseline collapse. A shift whose
    target draws overflow float64 (for example ``scale = 1e308``) raises
    ``ParameterError`` with ``name`` "shift", without numpy warnings.
    """
    rng = np.random.default_rng(spec.seed)
    d, c_count = spec.input_dim, spec.class_count
    angles = 2.0 * np.pi * np.arange(c_count) / c_count
    # All class separation lives in the rotated plane; the other coordinates
    # carry only within-class spread, so the shift really does destroy the
    # source-trained decision rule.
    means = np.zeros((c_count, d))
    means[:, 0] = _CIRCLE_RADIUS * np.cos(angles)
    if d >= 2:
        means[:, 1] = _CIRCLE_RADIUS * np.sin(angles)
    stds = rng.uniform(*_CLUSTER_STD_RANGE, size=(c_count, d))
    t_dir = np.zeros(d)
    t_dir[2 if d >= 3 else d - 1] = 1.0
    rot = _rotation_matrix(d, spec.shift.rotation_deg)
    offset = spec.shift.translation * t_dir

    noisy = spec.shift.noise > 0.0
    counts = (spec.source_per_class, spec.target_train_per_class, spec.target_test_per_class)
    # Each class draws in turn its source columns, then each target split's
    # columns followed by that split's noise (when noise > 0). One draw holds
    # them all in that order; each piece is a (class, d, count) slice of it.
    sizes = [counts[0]] + [n for n in counts[1:] for _ in range(1 + noisy)]
    normal = rng.normal(size=(c_count, d * sum(sizes)))
    pieces = (piece.reshape(c_count, d, n) for piece, n in
              zip(np.split(normal, d * np.cumsum(sizes)[:-1], axis=1), sizes))

    def draw() -> np.ndarray:
        return means[:, :, None] + stds[:, :, None] * next(pieces)

    def shift(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            y = spec.shift.scale * (rot @ x) + offset[:, None]
            if noisy:
                y = y + spec.shift.noise * next(pieces)
        if not np.isfinite(y).all():
            raise ParameterError(f"{spec.shift} overflows float64 on the target draws", name="shift")
        return y

    draws = (draw(), shift(draw()), shift(draw()))
    # (class, d, count) -> (d, class * count), class by class, column-major; the
    # shift checked the target draws, and the source draws are finite by construction.
    return tuple(
        _built(FeatureBlock, columns=x.transpose(0, 2, 1).reshape(-1, d).T,
               labels=np.repeat(np.arange(c_count), count))
        for x, count in zip(draws, counts)
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _class_runs(labels: bytes, cap: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...], int]:
    """How :func:`_sample_batch` picks from a block, given the bytes of its int64 labels.

    Classes with the same column count n form one run: the (G, n) positions
    of each class's columns in block order, the (G, 1) offsets of its rows
    in the flattened positions, and the (G, min(n, cap)) places of its picks
    in the batch, which holds each class's picks in ascending class order.
    Returns the runs and the batch size. A block's labels do not change, so
    the runs are derived once per block and cap and cached, read-only.
    """
    labels = np.frombuffer(labels, np.int64)
    counts = np.bincount(labels)
    kept = np.minimum(counts, cap)
    by_class = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    places = np.cumsum(kept) - kept
    runs = []
    for n in np.unique(counts[counts > 0]):
        classes = np.flatnonzero(counts == n)
        run = (by_class[starts[classes, None] + np.arange(n)],
               np.arange(0, classes.size * n, n)[:, None],
               places[classes, None] + np.arange(min(int(n), cap)))
        for array in run:
            array.setflags(write=False)
        runs.append(run)
    return tuple(runs), int(kept.sum())


def _sample_batch(block: FeatureBlock, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Positions of each class's min(available, cap) columns without replacement, by ascending class.

    Every column gets one uniform key; a class keeps its ``cap`` lowest keys,
    in ascending order of key (ties in block order). The class of every
    position is the same for every ``rng``, so a run's batch labels are
    fixed. The caller slices its already checked block at these positions.
    """
    keys = rng.random(block.count)
    runs, size = _class_runs(block.labels.tobytes(), cap)
    chosen = np.empty(size, np.intp)
    for positions, rows, places in runs:
        ranked = np.argsort(keys[positions], axis=1, kind="stable")[:, :places.shape[1]]
        chosen[places] = positions.ravel()[ranked + rows]
    return chosen


def _check_schedule(steps: int, lr: float):
    """The rules of ``steps`` and the learning rate; errors carry the run-config key."""
    check_at_least(1, steps=steps)
    check_nonnegative(learning_rate=lr)


def _first_batch_cap(enc: Encoder, block: FeatureBlock, seed: int) -> float:
    """Mean squared norm of the uncapped encoder outputs on step 1's source batch.

    A stand-in for a reference-corpus norm statistic. Only the source stream
    feeds it, which keeps the streams decoupled when all couplings are zero.
    A statistic that overflows float64 is a divergence of the run at step 1.
    """
    chosen = _sample_batch(block, SOURCE_BATCH_CAP, np.random.default_rng([seed, 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        raw, _ = encoder_forward(enc, block.columns[:, chosen], None)
        cap = float(np.einsum("ij,ij->j", raw, raw).mean())
    if not math.isfinite(cap):
        raise DivergenceError(1, "feature cap became non-finite at step 1: the mean squared norm "
                                 "of the step-1 source features overflows float64")
    return cap


def _encoded_batch(
    enc: Encoder, block: FeatureBlock, batch_cap: int, feature_cap: float,
    rng: np.random.Generator, step: int,
) -> tuple[FeatureBlock, EncoderTape]:
    """One stream's step-``step`` batch drawn from ``rng``, encoded and capped, as a labelled block.

    Non-finite features are a divergence of the run, not malformed input.
    The encoder emits column-major float64 features, and the labels come from
    the checked block, so the batch block is built without a second check.
    """
    chosen = _sample_batch(block, batch_cap, rng)
    phi, tape = encoder_forward(enc, block.columns[:, chosen], feature_cap)
    if not np.isfinite(phi).all():
        raise DivergenceError(step, f"features became non-finite at step {step}")
    return _built(FeatureBlock, columns=phi, labels=block.labels[chosen]), tape


def _sgd_step(
    enc: Encoder, clf: Classifier, tape: EncoderTape, grads: tuple, lr: float, step: int
) -> tuple[Encoder, Classifier]:
    """Backward pass and SGD update of one stream; returns its new (encoder, classifier).

    ``grads`` are the loss gradients with respect to the classifier weights,
    the classifier bias and the encoder outputs. A zero ``lr`` leaves the
    stream as it is. The finiteness check is the one rule an update can
    break, so the new encoder and classifier are built without a second check;
    the updates keep the arrays' float64 dtype, shapes and column-major
    classifier weights.
    """
    if lr == 0.0:
        return enc, clf
    grad_w, grad_b, grad_phi = grads
    grad_enc_w, grad_enc_b = encoder_backward(enc, tape, grad_phi)
    clf_w, clf_b = clf.weights - lr * grad_w, clf.bias - lr * grad_b
    enc_w, enc_b = enc.weights - lr * grad_enc_w, enc.bias - lr * grad_enc_b
    if not all(np.isfinite(arr).all() for arr in (clf_w, clf_b, enc_w, enc_b)):
        raise DivergenceError(step, f"parameters became non-finite after step {step}")
    return (_built(Encoder, weights=enc_w, bias=enc_b, nonlinear=enc.nonlinear),
            _built(Classifier, weights=clf_w, bias=clf_b))


def train(
    model: TwoStreamModel,
    data: tuple[FeatureBlock, FeatureBlock],
    config: AlignConfig,
    steps: int,
    lr: float,
    seed: int,
) -> tuple[TwoStreamModel, list[ObjectiveParts]]:
    """SGD on the full objective. Returns a trained copy and its loss history.

    The history holds the objective's parts of every step: entry ``i`` is step
    ``i + 1``. ``data`` is (source block, target training block) of raw
    inputs; ``config.class_count`` must equal the model's class count. A model
    without a feature cap gets the one :func:`_first_batch_cap` derives, held
    fixed for the whole run; a model with one keeps it. The input model is
    left as it was.

    A step whose values overflow raises :class:`DivergenceError` from the
    feature, loss and parameter finiteness checks rather than emitting numpy
    warnings; :func:`train_single_stream` does the same. A singular or
    overflowing alignment term raises the objective's ``SingularityError`` or
    ``NumericalError``, its message led by the step and the class.
    """
    _check_schedule(steps, lr)
    check_seed(seed)
    source, target = data
    model.check()
    source.check("source", config.class_count, model.encoder_source.input_dim)
    target.check("target", config.class_count, model.encoder_target.input_dim)
    cap = model.feature_cap
    if cap is None:
        cap = _first_batch_cap(model.encoder_source, source, seed)
    model = dataclasses.replace(model, feature_cap=cap)
    history: list[ObjectiveParts] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            rng = np.random.default_rng([seed, step])
            batch_s, tape_s = _encoded_batch(model.encoder_source, source, SOURCE_BATCH_CAP, cap, rng, step)
            batch_t, tape_t = _encoded_batch(model.encoder_target, target, TARGET_BATCH_CAP, cap, rng, step)
            try:
                result = total_objective(model, batch_s, batch_t, config)
            except (SingularityError, NumericalError) as exc:
                raise type(exc)(f"step {step}: {exc}") from exc
            if not np.isfinite(result.value):
                raise DivergenceError(step, f"loss became non-finite at step {step}")
            history.append(result.parts)
            g = result.grads
            model.encoder_source, model.classifier_source = _sgd_step(
                model.encoder_source, model.classifier_source, tape_s,
                (g.weights_source, g.bias_source, g.features_source), lr, step,
            )
            model.encoder_target, model.classifier_target = _sgd_step(
                model.encoder_target, model.classifier_target, tape_t,
                (g.weights_target, g.bias_target, g.features_target), lr, step,
            )
    return model, history


@dataclass(frozen=True)
class EvalReport:
    """Top-1 accuracy overall plus one (class, accuracy, count) row per class present."""

    overall: float
    per_class: list[tuple[int, float, int]]


def evaluate(model: TwoStreamModel, test: FeatureBlock) -> EvalReport:
    """Target-stream top-1 accuracy: target encoder into target classifier.

    Finite parameters can still overflow on the test columns; non-finite
    target logits raise :class:`NumericalError` instead of numpy warnings and
    a top-1 taken from them.
    """
    model.check()
    test.check("test", model.classifier_target.class_count, model.encoder_target.input_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        phi, _ = encoder_forward(model.encoder_target, test.columns, model.feature_cap)
        logits = model.classifier_target.weights.T @ phi
        logits += model.classifier_target.bias[:, None]
    if not np.isfinite(logits).all():
        raise NumericalError(
            "target logits are non-finite: the target stream overflows on the test columns"
        )
    predicted = logits.argmax(axis=0)
    hits = predicted == test.labels
    # One pass over the labels: each present class's column count, and its hits as weights.
    counts = np.bincount(test.labels)
    correct = np.bincount(test.labels, weights=hits)
    present = np.flatnonzero(counts)
    rows = list(zip(present.tolist(), (correct[present] / counts[present]).tolist(),
                    counts[present].tolist()))
    return EvalReport(overall=float(hits.mean()), per_class=rows)


# ---------------------------------------------------------------------------
# Single-stream baselines
# ---------------------------------------------------------------------------

def train_single_stream(
    block: FeatureBlock,
    class_count: int,
    feature_dim: int,
    steps: int,
    lr: float,
    seed: int,
    nonlinear: bool = True,
) -> TwoStreamModel:
    """Plain softmax training of one encoder and classifier on one data block.

    Only one stream is trained. Its initialization, batches and feature cap
    are those of the source stream of :func:`train` with all couplings zero,
    so its parameters equal that stream's bit for bit. The result aliases both
    streams of a TwoStreamModel to it only so that :func:`evaluate` applies.
    The size rules of ``class_count`` and ``feature_dim`` are those of
    :func:`init_two_stream`, which builds that stream.
    """
    init = init_two_stream(block.dim, feature_dim, class_count, seed, nonlinear)
    _check_schedule(steps, lr)
    block.check("source", class_count, init.encoder_source.input_dim)
    enc, clf = init.encoder_source, init.classifier_source
    cap = _first_batch_cap(enc, block, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            rng = np.random.default_rng([seed, step])
            batch, tape = _encoded_batch(enc, block, SOURCE_BATCH_CAP, cap, rng, step)
            ce = softmax_ce(clf, batch)
            if not np.isfinite(ce.loss):
                raise DivergenceError(step, f"loss became non-finite at step {step}")
            enc, clf = _sgd_step(enc, clf, tape, (ce.grad_weights, ce.grad_bias, ce.grad_columns), lr, step)
    return TwoStreamModel(enc, enc, clf, clf, feature_cap=cap)


def concat_blocks(a: FeatureBlock, b: FeatureBlock) -> FeatureBlock:
    if a.dim != b.dim:
        raise DimensionError(f"cannot concatenate blocks of dim {a.dim} and {b.dim}")
    return FeatureBlock(
        np.concatenate([a.columns, b.columns], axis=1),
        np.concatenate([a.labels, b.labels]),
    )


# ---------------------------------------------------------------------------
# The designed shift benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkOutcome:
    """Mean target top-1 per method over the benchmark seeds."""

    aligned: list[float]
    source_only: list[float]
    target_only: list[float]
    source_plus_target: list[float]

    def means(self) -> dict[str, float]:
        return {
            "aligned_jbld": float(np.mean(self.aligned)),
            "source_only": float(np.mean(self.source_only)),
            "target_only": float(np.mean(self.target_only)),
            "source_plus_target": float(np.mean(self.source_plus_target)),
        }


def run_adaptation_benchmark(
    seeds: list[int],
    class_count: int = 20,
    input_dim: int = 16,
    feature_dim: int = 32,
    source_per_class: int = 30,
    rotation_deg: float = 30.0,
    translation: float = 1.0,
    steps: int = 2000,
    sigma1: float = 0.5,
    sigma2: float = 1.0,
) -> BenchmarkOutcome:
    """Aligned-JBLD model vs the three single-stream baselines on the shift task.

    Every seed draws 3 target training and 20 target test columns per class,
    and every training runs at learning rate 0.25; the aligned model uses
    classifier proximity ``eta = 1``. An empty ``seeds`` raises
    ``ParameterError`` before any training.
    """
    if len(seeds) == 0:
        raise ParameterError("seeds must name at least one seed, got none", name="seeds")
    lr = 0.25
    config = AlignConfig(sigma1=sigma1, sigma2=sigma2, eta=1.0, kind=DistanceKind.JBLD,
                         class_count=class_count)
    aligned, s_only, t_only, st = [], [], [], []
    for seed in seeds:
        spec = SynthSpec(
            class_count=class_count,
            input_dim=input_dim,
            source_per_class=source_per_class,
            target_train_per_class=3,
            target_test_per_class=20,
            shift=DomainShift(rotation_deg=rotation_deg, translation=translation,
                              scale=1.0, noise=0.05),
            seed=seed,
        )
        source, target_train, target_test = synth_domain_pair(spec)
        model = init_two_stream(input_dim, feature_dim, class_count, seed)
        model, _ = train(model, (source, target_train), config, steps, lr, seed)
        aligned.append(evaluate(model, target_test).overall)
        for results, block in (
            (s_only, source), (t_only, target_train), (st, concat_blocks(source, target_train)),
        ):
            baseline = train_single_stream(block, class_count, feature_dim, steps, lr, seed)
            results.append(evaluate(baseline, target_test).overall)
    return BenchmarkOutcome(
        aligned=aligned, source_only=s_only, target_only=t_only, source_plus_target=st
    )
