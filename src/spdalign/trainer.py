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
target keys, and each class keeps its columns with the lowest keys.

The feature-norm cap has one home, :attr:`TwoStreamModel.feature_cap`. A model
that arrives without one gets it fixed once, before the first step, from the
source stream's step-1 batch (:func:`_first_batch_cap`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .align import AlignConfig, Classifier, ObjectiveParts, softmax_ce, total_objective
from .distances import DistanceKind
from .errors import (
    DimensionError, DivergenceError, SingularityError, check_at_least, check_finite, check_nonnegative,
    check_seed,
)
from .scatter import FeatureBlock

# Batch policy: every class contributes min(available, cap) samples per step.
SOURCE_BATCH_CAP = 10
TARGET_BATCH_CAP = 3


@dataclass
class Encoder:
    """Linear map plus optional elementwise tanh: phi = tanh(W x + b)."""

    weights: np.ndarray  # (feature_dim, input_dim)
    bias: np.ndarray  # (feature_dim,)
    nonlinear: bool = True

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

    :meth:`check` states the shape rule of each stream, the rule that encoder
    parameters are finite (:class:`Classifier` checks its own), and the cap
    rule. Construction, :func:`train` and :func:`evaluate` run it, since a
    field may be replaced after construction; :class:`Encoder` itself checks
    nothing, since every SGD step builds a new one.
    """

    encoder_source: Encoder
    encoder_target: Encoder
    classifier_source: Classifier
    classifier_target: Classifier
    feature_cap: float | None = None

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """DimensionError unless each encoder is finite and feeds its classifier; ParameterError for a bad cap."""
        if self.feature_cap is not None:
            check_nonnegative(feature_cap=self.feature_cap)
        for enc, clf in (
            (self.encoder_source, self.classifier_source),
            (self.encoder_target, self.classifier_target),
        ):
            if np.ndim(enc.weights) != 2 or np.shape(enc.bias) != (enc.feature_dim,):
                raise DimensionError(
                    f"encoder weights {np.shape(enc.weights)} and bias {np.shape(enc.bias)} "
                    "are not a (feature_dim, input_dim) matrix and a (feature_dim,) vector"
                )
            if not (np.isfinite(enc.weights).all() and np.isfinite(enc.bias).all()):
                raise DimensionError("encoder parameters contain non-finite entries")
            if enc.feature_dim != clf.feature_dim:
                raise DimensionError(
                    f"encoder output dim {enc.feature_dim} does not match "
                    f"classifier input dim {clf.feature_dim}"
                )


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
    z = enc.weights @ inputs + enc.bias[:, None]
    u = np.tanh(z) if enc.nonlinear else z
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
    which is what makes the source-only baseline collapse.
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

    def draw(c: int, n: int) -> np.ndarray:
        return (means[c][:, None] + stds[c][:, None] * rng.normal(size=(d, n)))

    def shift(x: np.ndarray) -> np.ndarray:
        y = spec.shift.scale * (rot @ x) + offset[:, None]
        if spec.shift.noise > 0.0:
            y = y + spec.shift.noise * rng.normal(size=y.shape)
        return y

    src_cols, tt_cols, te_cols = [], [], []
    src_labels, tt_labels, te_labels = [], [], []
    for c in range(c_count):
        src_cols.append(draw(c, spec.source_per_class))
        src_labels.extend([c] * spec.source_per_class)
        tt_cols.append(shift(draw(c, spec.target_train_per_class)))
        tt_labels.extend([c] * spec.target_train_per_class)
        te_cols.append(shift(draw(c, spec.target_test_per_class)))
        te_labels.extend([c] * spec.target_test_per_class)
    return (
        FeatureBlock(np.concatenate(src_cols, axis=1), np.array(src_labels)),
        FeatureBlock(np.concatenate(tt_cols, axis=1), np.array(tt_labels)),
        FeatureBlock(np.concatenate(te_cols, axis=1), np.array(te_labels)),
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _sample_batch(block: FeatureBlock, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Positions of each class's min(available, cap) columns without replacement, by ascending class.

    Every column gets one uniform key; a class keeps its ``cap`` lowest keys.
    The caller slices its already checked block at these positions.
    """
    order = np.lexsort((rng.random(block.count), block.labels))
    labels = block.labels[order]
    # A sorted column's rank in its class is its position minus the class's first position.
    return order[np.arange(order.size) - np.searchsorted(labels, labels) < cap]


def _check_schedule(steps: int, lr: float):
    """The rules of ``steps`` and the learning rate; errors carry the run-config key."""
    check_at_least(1, steps=steps)
    check_nonnegative(learning_rate=lr)


def _first_batch_cap(enc: Encoder, block: FeatureBlock, seed: int) -> float:
    """Mean squared norm of the uncapped encoder outputs on step 1's source batch.

    A stand-in for a reference-corpus norm statistic. Only the source stream
    feeds it, which keeps the streams decoupled when all couplings are zero.
    """
    chosen = _sample_batch(block, SOURCE_BATCH_CAP, np.random.default_rng([seed, 1]))
    raw, _ = encoder_forward(enc, block.columns[:, chosen], None)
    return float(np.einsum("ij,ij->j", raw, raw).mean())


def _encoded_batch(
    enc: Encoder, block: FeatureBlock, batch_cap: int, feature_cap: float,
    rng: np.random.Generator, step: int,
) -> tuple[FeatureBlock, EncoderTape]:
    """One stream's step-``step`` batch drawn from ``rng``, encoded and capped, as a labelled block.

    Non-finite features are a divergence of the run, not malformed input.
    """
    chosen = _sample_batch(block, batch_cap, rng)
    phi, tape = encoder_forward(enc, block.columns[:, chosen], feature_cap)
    if not np.isfinite(phi).all():
        raise DivergenceError(step, f"features became non-finite at step {step}")
    return FeatureBlock(phi, block.labels[chosen]), tape


def _sgd_step(
    enc: Encoder, clf: Classifier, tape: EncoderTape, grads: tuple, lr: float, step: int
) -> tuple[Encoder, Classifier]:
    """Backward pass and SGD update of one stream; returns its new (encoder, classifier).

    ``grads`` are the loss gradients with respect to the classifier weights,
    the classifier bias and the encoder outputs. A zero ``lr`` leaves the
    stream as it is.
    """
    if lr == 0.0:
        return enc, clf
    grad_w, grad_b, grad_phi = grads
    grad_enc_w, grad_enc_b = encoder_backward(enc, tape, grad_phi)
    clf_w, clf_b = clf.weights - lr * grad_w, clf.bias - lr * grad_b
    enc_w, enc_b = enc.weights - lr * grad_enc_w, enc.bias - lr * grad_enc_b
    if not all(np.isfinite(arr).all() for arr in (clf_w, clf_b, enc_w, enc_b)):
        raise DivergenceError(step, f"parameters became non-finite after step {step}")
    return Encoder(enc_w, enc_b, enc.nonlinear), Classifier(weights=clf_w, bias=clf_b)


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
    warnings; :func:`train_single_stream` does the same.
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
            except SingularityError as exc:
                raise SingularityError(f"step {step}: {exc}") from exc
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
    """Target-stream top-1 accuracy: target encoder into target classifier."""
    model.check()
    test.check("test", model.classifier_target.class_count, model.encoder_target.input_dim)
    phi, _ = encoder_forward(model.encoder_target, test.columns, model.feature_cap)
    logits = model.classifier_target.weights.T @ phi + model.classifier_target.bias[:, None]
    predicted = logits.argmax(axis=0)
    hits = predicted == test.labels
    rows = []
    for c in np.unique(test.labels):
        mask = test.labels == c
        rows.append((int(c), float(hits[mask].mean()), int(mask.sum())))
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
    classifier proximity ``eta = 1``.
    """
    lr = 0.25
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
        config = AlignConfig(
            sigma1=sigma1, sigma2=sigma2, eta=1.0,
            kind=DistanceKind.JBLD, class_count=class_count,
        )
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
