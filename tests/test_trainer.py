"""Synthetic data generation, two-stream training, and evaluation."""

import copy
import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdalign import trainer
from spdalign.align import AlignConfig, Classifier, ObjectiveParts
from spdalign.distances import DistanceKind
from spdalign.errors import (
    DimensionError,
    DivergenceError,
    EmptyClassError,
    LabelError,
    NumericalError,
    ParameterError,
    SingularityError,
)
from spdalign.runconfig import parse_run_config
from spdalign.scatter import FeatureBlock
from spdalign.trainer import (
    _cap_columns,
    _class_runs,
    _sample_batch,
    DomainShift,
    Encoder,
    SynthSpec,
    TwoStreamModel,
    concat_blocks,
    encoder_backward,
    encoder_forward,
    evaluate,
    init_two_stream,
    synth_domain_pair,
    train,
    train_single_stream,
)


def small_spec(seed=0, **overrides):
    params = dict(
        class_count=4,
        input_dim=6,
        source_per_class=12,
        target_train_per_class=3,
        target_test_per_class=8,
        shift=DomainShift(rotation_deg=25.0, translation=0.8, scale=1.0, noise=0.05),
        seed=seed,
    )
    params.update(overrides)
    return SynthSpec(**params)


def capped(model, cap):
    """``model`` with a fixed feature cap, as ``spdalign train`` builds it from a run config's ``tau``."""
    return dataclasses.replace(model, feature_cap=cap)


def singular_class(block, label, scale=1e6):
    """``block`` with class ``label``'s columns alternating between its first two, times ``scale``."""
    columns = block.columns.copy()
    where = np.flatnonzero(block.labels == label)
    columns[:, where] = scale * columns[:, where[np.arange(where.size) % 2]]
    return FeatureBlock(columns, block.labels)


def small_config(**overrides):
    params = dict(sigma1=0.3, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=4)
    params.update(overrides)
    return AlignConfig(**params)


def overflowing_target_model(nonlinear=True):
    """(model, test block): every target encoder weight is a finite 1e308, so ``W x`` overflows."""
    model = init_two_stream(16, 32, 20, seed=0, nonlinear=nonlinear)
    model.encoder_target = Encoder(np.full((32, 16), 1e308), model.encoder_target.bias, nonlinear)
    model.feature_cap = 1.0
    _, _, test = synth_domain_pair(SynthSpec(class_count=20, input_dim=16, source_per_class=1))
    return model, test


def loop_synth_domain_pair(spec):
    """(columns, labels) of each split, drawn class by class: the generator's reference.

    Per class, in turn: the source draws, then each target split's draws pushed
    through the shift, followed by that split's noise draws when noise > 0.
    """
    rng = np.random.default_rng(spec.seed)
    d, c_count = spec.input_dim, spec.class_count
    angles = 2.0 * np.pi * np.arange(c_count) / c_count
    means = np.zeros((c_count, d))
    means[:, 0] = 6.0 * np.cos(angles)
    if d >= 2:
        means[:, 1] = 6.0 * np.sin(angles)
    stds = rng.uniform(0.25, 0.45, size=(c_count, d))
    t_dir = np.zeros(d)
    t_dir[2 if d >= 3 else d - 1] = 1.0
    rot = np.eye(d)
    if d >= 2:
        theta = np.deg2rad(spec.shift.rotation_deg)
        rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    splits = ((spec.source_per_class, False), (spec.target_train_per_class, True),
              (spec.target_test_per_class, True))
    cols = [[] for _ in splits]
    for c in range(c_count):
        for split, (count, shifted) in enumerate(splits):
            x = means[c][:, None] + stds[c][:, None] * rng.normal(size=(d, count))
            if shifted:
                x = spec.shift.scale * (rot @ x) + (spec.shift.translation * t_dir)[:, None]
                if spec.shift.noise > 0.0:
                    x = x + spec.shift.noise * rng.normal(size=x.shape)
            cols[split].append(x)
    return [(np.concatenate(blocks, axis=1), np.repeat(np.arange(c_count), count))
            for blocks, (count, _) in zip(cols, splits)]


class TestSynthDomainPair:
    @pytest.mark.parametrize("dim", [1, 2, 3, 16])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("counts", [(1, 1, 1), (7, 3, 5)], ids=["single", "ragged"])
    def test_equals_per_class_loop(self, dim, noise, counts):
        spec = SynthSpec(class_count=5, input_dim=dim, source_per_class=counts[0],
                         target_train_per_class=counts[1], target_test_per_class=counts[2],
                         shift=DomainShift(rotation_deg=30.0, translation=0.8, scale=1.3,
                                           noise=noise), seed=9)
        for block, (columns, labels) in zip(synth_domain_pair(spec), loop_synth_domain_pair(spec)):
            assert block.columns.flags.f_contiguous and block.columns.dtype == np.float64
            assert block.labels.dtype == np.int64
            assert block.columns.shape == columns.shape
            assert np.ascontiguousarray(block.columns).tobytes() == columns.tobytes()
            assert np.array_equal(block.labels, labels)

    @pytest.mark.parametrize("dim", [1, 2, 16])
    @pytest.mark.parametrize("field", ["scale", "noise"])
    def test_overflowing_shift_is_typed_without_warnings(self, dim, field):
        spec = small_spec(input_dim=dim, shift=DomainShift(**{field: 1e308}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="overflows float64 on the target draws$") as info:
                synth_domain_pair(spec)
        assert info.value.name == "shift"

    def test_determinism_bit_identical(self):
        a = synth_domain_pair(small_spec())
        b = synth_domain_pair(small_spec())
        for x, y in zip(a, b):
            assert np.array_equal(x.columns, y.columns)
            assert np.array_equal(x.labels, y.labels)

    def test_null_shift_clusters_coincide(self):
        spec = small_spec(
            shift=DomainShift(rotation_deg=0.0, translation=0.0, scale=1.0, noise=0.0),
            source_per_class=200,
            target_test_per_class=200,
        )
        source, _, target_test = synth_domain_pair(spec)
        for c in range(spec.class_count):
            mu_s = source.columns[:, source.labels == c].mean(axis=1)
            mu_t = target_test.columns[:, target_test.labels == c].mean(axis=1)
            # same Gaussian, independent draws: means agree statistically
            assert np.linalg.norm(mu_s - mu_t) < 0.25

    def test_shift_moves_clusters(self):
        source, _, target_test = synth_domain_pair(small_spec())
        mu_s = source.columns[:, source.labels == 0].mean(axis=1)
        mu_t = target_test.columns[:, target_test.labels == 0].mean(axis=1)
        assert np.linalg.norm(mu_s - mu_t) > 1.0

    def test_counts_and_labels(self):
        spec = small_spec()
        source, target_train, target_test = synth_domain_pair(spec)
        assert source.count == spec.class_count * spec.source_per_class
        assert target_train.count == spec.class_count * spec.target_train_per_class
        assert target_test.count == spec.class_count * spec.target_test_per_class
        assert set(source.labels) == set(range(spec.class_count))

    def test_rejects_zero_counts(self):
        with pytest.raises(ParameterError):
            small_spec(source_per_class=0)


class TestCapColumns:
    """Columnwise rescaling onto the ball ||v||^2 <= tau.

    A negative or non-finite tau never reaches it: ``TwoStreamModel.check``
    rejects such a cap (``TestParameterHomes`` below), and a run config's
    ``tau`` must be positive (``tests/test_io_config.py``).
    """

    def test_zero_vector(self):
        capped, scale = _cap_columns(np.zeros((3, 1)), 1.0)
        assert np.abs(capped).max() == 0.0
        assert scale.tolist() == [1.0]

    def test_boundary_unchanged(self):
        v = np.array([[1.0], [0.0]])
        assert _cap_columns(v, 1.0)[0] == pytest.approx(v)

    def test_rescales_to_sphere(self):
        out = _cap_columns(np.array([[3.0], [4.0]]), 1.0)[0][:, 0]
        assert out == pytest.approx(np.array([0.6, 0.8]))
        assert out @ out == pytest.approx(1.0)

    def test_inside_untouched(self, rng):
        v = rng.normal(size=(4, 1)) * 0.01
        assert _cap_columns(v, 1.0)[0] == pytest.approx(v)


class TestEncoder:
    def test_forward_shapes_and_cap(self, rng):
        enc = Encoder(rng.normal(size=(5, 3)), np.zeros(5))
        x = rng.normal(size=(3, 7)) * 10.0
        phi, _ = encoder_forward(enc, x, cap=0.5)
        norms = np.einsum("ij,ij->j", phi, phi)
        assert norms.max() <= 0.5 + 1e-12

    def test_cap_matches_columnwise_clip(self, rng):
        def clip(column, tau):
            sq = float(column @ column)
            return column if sq <= tau else column * np.sqrt(tau / sq)

        enc = Encoder(rng.normal(size=(4, 3)), rng.normal(size=4))
        x = rng.normal(size=(3, 6)) * 3.0
        phi, _ = encoder_forward(enc, x, cap=0.8)
        raw, _ = encoder_forward(enc, x, cap=None)
        for j in range(6):
            assert phi[:, j] == pytest.approx(clip(raw[:, j], 0.8))

    def test_backward_matches_finite_differences(self, rng):
        from spdalign.checks import central_difference, relative_gap

        enc = Encoder(rng.normal(size=(4, 3)), rng.normal(size=4))
        x = rng.normal(size=(3, 5))
        cap = 0.9  # some columns clip, some do not
        downstream = rng.normal(size=(4, 5))

        def loss_of(weights, bias):
            phi, _ = encoder_forward(Encoder(weights, bias), x, cap)
            return float(np.sum(phi * downstream))

        phi, tape = encoder_forward(enc, x, cap)
        gw, gb = encoder_backward(enc, tape, downstream)
        fd_w = central_difference(lambda w: loss_of(w.reshape(4, 3), enc.bias), enc.weights)
        fd_b = central_difference(lambda b: loss_of(enc.weights, b), enc.bias)
        assert relative_gap(gw, fd_w) < 1e-5
        assert relative_gap(gb, fd_b) < 1e-5

    @pytest.mark.parametrize("value", [
        [[1.0, 2.0, 3.0], [4.0]],
        np.ones((2, 3), dtype=object),
        "abc",
        np.ones((2, 3)) * 1j,
    ], ids=["ragged-list", "object", "string", "complex"])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    def test_non_real_array_is_typed(self, part, value):
        params = {"weights": np.ones((2, 3)), "bias": np.zeros(2)}
        params[part] = value
        with pytest.raises(DimensionError, match=f"^encoder {part} must "):
            Encoder(params["weights"], params["bias"])

    def test_real_lists_become_float_arrays(self):
        enc = Encoder([[1, 2, 3], [4, 5, 6]], [0, 0])
        assert enc.weights.dtype == enc.bias.dtype == np.float64
        clf = Classifier(np.zeros((2, 4)), np.zeros(4))
        assert TwoStreamModel(enc, enc, clf, clf).encoder_source.feature_dim == 2

    def test_overflowed_pre_activation_stays_non_finite(self):
        # 1e308 * 6 overflows, so W x reads inf or NaN although its exact value is 0;
        # tanh(inf) would pass for a finite 1.
        enc = Encoder(np.full((1, 2), 1e308), np.zeros(1))
        with np.errstate(over="ignore", invalid="ignore"):
            phi, _ = encoder_forward(enc, np.array([[6.0], [-6.0]]), cap=None)
        assert np.isnan(phi).all()

    @pytest.mark.parametrize("call", ["evaluate", "train"])
    def test_bias_length_mismatch_is_typed_before_the_call(self, rng, call):
        # The model is rejected where it is built, so neither call reaches numpy.
        spec = small_spec(input_dim=3)
        source, target_train, target_test = synth_domain_pair(spec)
        runs = {
            "evaluate": lambda model: evaluate(model, target_test),
            "train": lambda model: train(model, (source, target_train), small_config(),
                                         steps=1, lr=0.1, seed=0),
        }
        clf = Classifier(rng.normal(size=(2, 4)), np.zeros(4))
        with pytest.raises(DimensionError, match=r"bias \(5,\)"):
            bad = Encoder(np.ones((2, 3)), np.zeros(5))
            runs[call](TwoStreamModel(bad, bad, clf, clf))

    @pytest.mark.parametrize("field", ["encoder_source", "encoder_target"])
    @pytest.mark.parametrize("call", ["evaluate", "train"])
    def test_field_replaced_after_construction_is_typed(self, call, field):
        # The model is mutable, so each consumer runs the coupling rule again.
        model = init_two_stream(3, 2, 4, seed=0)
        setattr(model, field, Encoder(np.ones((5, 3)), np.zeros(5)))
        block = FeatureBlock(np.ones((3, 4)), np.arange(4))
        config = AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=4)
        runs = {
            "evaluate": lambda: evaluate(model, block),
            "train": lambda: train(model, (block, block), config, steps=1, lr=0.1, seed=0),
        }
        with pytest.raises(DimensionError, match=r"^encoder output dim 5 does not match classifier input dim 2$"):
            runs[call]()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    @pytest.mark.parametrize("field", ["encoder_source", "encoder_target"])
    def test_non_finite_encoder_parameter_is_typed(self, field, part, value):
        model = init_two_stream(3, 2, 4, seed=0)
        enc = getattr(model, field)
        params = {"weights": enc.weights.copy(), "bias": enc.bias.copy()}
        params[part].flat[0] = value
        # The encoder is refused where it is built, before any model holds it.
        with pytest.raises(DimensionError, match=r"^encoder parameters contain non-finite entries$"):
            dataclasses.replace(model, **{field: Encoder(params["weights"], params["bias"], enc.nonlinear)})

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_zero_width_model_is_refused(self, kind):
        # A model without features once trained to a loss of 2 ln 2 and scored a top-1 of 0.5.
        spec = small_spec(input_dim=3, class_count=2)
        source, target_train, _ = synth_domain_pair(spec)
        clf = Classifier(np.zeros((0, 2)), np.zeros(2))
        with pytest.raises(DimensionError, match="^encoder feature_dim must be at least 1$"):
            enc = Encoder(np.zeros((0, 3)), np.zeros(0))
            train(TwoStreamModel(enc, enc, clf, clf), (source, target_train),
                  small_config(kind=kind, class_count=2), steps=2, lr=0.1, seed=0)

    def test_is_frozen(self):
        enc = init_two_stream(3, 2, 4, seed=0).encoder_source
        with pytest.raises(dataclasses.FrozenInstanceError):
            enc.weights = np.ones((2, 3))


@pytest.fixture
def checked_built(monkeypatch):
    """Run the checked constructor beside every ``trainer._built`` call; returns the classes built.

    The constructor must accept the fields and store the same arrays bit for
    bit, with the same dtype, shape and strides, and the same other values.
    """
    built_classes = []
    unchecked = trainer._built

    def built(cls, **fields):
        fast, checked = unchecked(cls, **fields), cls(**fields)
        for name in fields:
            got, want = getattr(fast, name), getattr(checked, name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides), name
                assert got.tobytes() == want.tobytes(), name
            else:
                assert got == want, name
        built_classes.append(cls)
        return fast

    monkeypatch.setattr(trainer, "_built", built)
    return built_classes


class TestBuiltPremise:
    """``_built`` skips the checks only of values that would pass them."""

    @pytest.mark.parametrize("cap", [None, 2.0], ids=["derived-cap", "fixed-cap"])
    @pytest.mark.parametrize("nonlinear", [True, False], ids=["tanh", "linear"])
    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_train(self, checked_built, kind, nonlinear, cap):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = capped(init_two_stream(spec.input_dim, 8, spec.class_count, seed=1, nonlinear=nonlinear), cap)
        checked_built.clear()
        train(model, (source, target_train), small_config(kind=kind), steps=3, lr=0.1, seed=1)
        assert set(checked_built) == {FeatureBlock, Encoder, Classifier}

    @pytest.mark.parametrize("nonlinear", [True, False], ids=["tanh", "linear"])
    def test_train_single_stream(self, checked_built, nonlinear):
        spec = small_spec()
        block, _, _ = synth_domain_pair(spec)
        checked_built.clear()
        train_single_stream(block, spec.class_count, 8, steps=3, lr=0.1, seed=1, nonlinear=nonlinear)
        assert set(checked_built) == {FeatureBlock, Encoder, Classifier}

    @pytest.mark.parametrize("dim", [1, 2, 6])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_synth_domain_pair(self, checked_built, dim, noise):
        synth_domain_pair(small_spec(input_dim=dim, shift=DomainShift(rotation_deg=25.0, noise=noise)))
        assert checked_built == [FeatureBlock] * 3


class TestTrain:
    @pytest.mark.parametrize("config_classes", [3, 5])
    def test_config_class_count_must_match_the_model(self, config_classes):
        # Every label sits below both counts, so only the objective's check can catch it.
        spec = small_spec(class_count=3)
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, 4, seed=0)
        with pytest.raises(DimensionError, match=(
            rf"^objective class count {config_classes} does not match the classifiers' "
            r"class counts: source 4, target 4$"
        )):
            train(model, (source, target_train), small_config(class_count=config_classes),
                  steps=2, lr=0.1, seed=0)

    def test_zero_learning_rate_is_noop(self):
        # batch caps exceed the per-class counts, so every step sees the whole
        # dataset and the recorded loss is exactly flat
        spec = small_spec(source_per_class=8)
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        trained, history = train(model, (source, target_train), small_config(),
                                 steps=5, lr=0.0, seed=1)
        assert np.array_equal(trained.encoder_source.weights, model.encoder_source.weights)
        assert np.array_equal(trained.classifier_target.weights, model.classifier_target.weights)
        assert all(isinstance(parts, ObjectiveParts) for parts in history)
        totals = [parts.total for parts in history]
        assert totals == pytest.approx([totals[0]] * 5)

    def test_determinism_bit_identical_parameters(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)

        def run():
            model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=3)
            return train(model, (source, target_train), small_config(), steps=20, lr=0.2, seed=3)

        one, hist_one = run()
        two, hist_two = run()
        assert np.array_equal(one.encoder_target.weights, two.encoder_target.weights)
        assert np.array_equal(one.classifier_source.weights, two.classifier_source.weights)
        assert hist_one == hist_two

    def test_training_reduces_loss(self):
        # loss at step 500 is below the loss at step 1, across 10 seeds
        for seed in range(10):
            spec = small_spec(seed=seed)
            source, target_train, _ = synth_domain_pair(spec)
            model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=seed)
            _, history = train(model, (source, target_train), small_config(),
                               steps=500, lr=0.2, seed=seed)
            assert len(history) == 500
            assert history[499].total < history[0].total

    def test_decoupled_source_stream_ignores_target_data(self):
        spec = small_spec()
        source, target_a, _ = synth_domain_pair(spec)
        _, target_b, _ = synth_domain_pair(small_spec(seed=99))
        config = small_config(sigma1=0.0, sigma2=0.0, eta=0.0)

        def source_weights(target):
            model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=5)
            trained, _ = train(model, (source, target), config, steps=15, lr=0.2, seed=5)
            return trained.encoder_source.weights, trained.classifier_source.weights

        enc_a, clf_a = source_weights(target_a)
        enc_b, clf_b = source_weights(target_b)
        assert np.array_equal(enc_a, enc_b)
        assert np.array_equal(clf_a, clf_b)

    def test_decoupled_target_stream_ignores_source_data(self):
        # with a fixed cap there is no shared derived statistic at all
        spec = small_spec()
        source_a, target, _ = synth_domain_pair(spec)
        source_b, _, _ = synth_domain_pair(small_spec(seed=77))
        config = small_config(sigma1=0.0, sigma2=0.0, eta=0.0)

        def target_weights(source):
            model = capped(init_two_stream(spec.input_dim, 8, spec.class_count, seed=5), 5.0)
            trained, _ = train(model, (source, target), config, steps=15, lr=0.2, seed=5)
            return trained.classifier_target.weights

        assert np.array_equal(target_weights(source_a), target_weights(source_b))

    def test_couplings_make_source_stream_depend_on_target(self):
        spec = small_spec()
        source, target_a, _ = synth_domain_pair(spec)
        _, target_b, _ = synth_domain_pair(small_spec(seed=99))
        config = small_config()

        def source_weights(target):
            model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=5)
            trained, _ = train(model, (source, target), config, steps=15, lr=0.2, seed=5)
            return trained.classifier_source.weights

        assert not np.array_equal(source_weights(target_a), source_weights(target_b))

    @pytest.mark.parametrize("scale", [1e153, 1e160])
    def test_overflowing_derived_cap_diverges_at_step_1(self, scale):
        # Linear features of inputs at these scales are finite, but the mean of their
        # squared norms overflows float64: at 1e153 only in the sum of the mean, at
        # 1e160 in each squared norm already.
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        huge = FeatureBlock(scale * source.columns, source.labels)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=0, nonlinear=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="^feature cap became non-finite at step 1: ") as err:
                train(model, (huge, target_train), small_config(), steps=3, lr=0.1, seed=0)
        assert err.value.step == 1

    def test_divergence_reports_step(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        with pytest.raises(DivergenceError) as err:
            train(model, (source, target_train), small_config(), steps=50, lr=1e9, seed=1)
        assert err.value.step >= 1

    def test_empty_target_block_is_typed(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        empty = FeatureBlock(np.empty((spec.input_dim, 0)), np.empty(0, dtype=int))
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        with pytest.raises(EmptyClassError, match="target"):
            train(model, (source, empty), small_config(), steps=2, lr=0.1, seed=1)

    def test_labels_outside_class_count_are_typed(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        shifted = FeatureBlock(target_train.columns, target_train.labels + spec.class_count)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        with pytest.raises(LabelError, match="target label 7 outside class count 4"):
            train(model, (source, shifted), small_config(), steps=2, lr=0.1, seed=1)

    @pytest.mark.parametrize("kind", [DistanceKind.JBLD], ids=str)
    def test_singular_scatter_names_step_and_class(self, kind):
        # Class 2's source inputs alternate between two columns scaled by 1e6, so
        # every batch holds pairs of equal columns whose centred span is one
        # direction: the class's scatter is singular from step 1 on, and the
        # rounding of its null directions, about 1e-16 * 1e12, exceeds eps = 1e-6.
        # The other classes stay at scale 1.
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1, nonlinear=False)
        with pytest.raises(SingularityError, match=r"^step 1: class 2: "):
            train(capped(model, 1e14), (singular_class(source, 2), target_train),
                  small_config(kind=kind), steps=2, lr=0.1, seed=1)

    def test_airm_trains_through_a_singular_scatter(self):
        # The run of the test above under AIRM. Its root of the centred Gram matrix
        # counts eigenvalues at rounding level as zero, and its scatters are exactly
        # eps I in those directions, so no operand is indefinite and both steps get
        # a value. Class 2's scatter reaches 19 orders above eps, so its step-1 term
        # is only within 3 % of the exact value there.
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1, nonlinear=False)
        _, history = train(capped(model, 1e14), (singular_class(source, 2), target_train),
                           small_config(kind=DistanceKind.AIRM), steps=2, lr=0.1, seed=1)
        assert len(history) == 2
        assert all(np.isfinite(dataclasses.astuple(parts)).all() for parts in history)

    def test_overflowing_distance_names_step_and_class(self):
        # Linear encoders on target inputs scaled by 1e100: the Frobenius distance between
        # scatters of order 1e200 overflows float64.
        spec = small_spec(shift=DomainShift(scale=1e100))
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1, nonlinear=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^step 1: class \d: squared frobenius "):
                train(capped(model, 1e300), (source, target_train),
                      small_config(kind=DistanceKind.FROBENIUS), steps=2, lr=0.1, seed=1)

    def test_eps_near_float64_max_trains(self):
        # (S + eps I) + (S* + eps I) overflows at eps = 1.7e308, but JBLD's midpoint is formed
        # from halves, and eps swamps both scatters, so the scatter term is exactly 0.
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = train(model, (source, target_train), small_config(eps=1.7e308), steps=2,
                               lr=0.1, seed=1)
        assert [parts.scatter for parts in history] == [0.0, 0.0]

    def test_divergence_is_typed_under_warnings_as_errors(self):
        run = parse_run_config("learning_rate = 1000\n")
        source, target_train, _ = synth_domain_pair(run.synth)
        model = init_two_stream(run.synth.input_dim, run.feature_dim, run.synth.class_count,
                                run.synth.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                train(model, (source, target_train), run.align, run.steps, run.learning_rate,
                      run.synth.seed)
        assert err.value.step == 44

    def test_parameter_overflow_reports_step(self):
        spec = SynthSpec(class_count=4, input_dim=5, source_per_class=6)
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="^parameters became non-finite after step 1$") as err:
                train(model, (source, target_train), small_config(), steps=5, lr=1e308, seed=0)
        assert err.value.step == 1

    def test_overflowing_tanh_encoder_reports_step(self):
        # The target encoder's W x overflows; tanh would have hidden it behind finite +-1 features.
        model, _ = overflowing_target_model()
        source, target_train, _ = synth_domain_pair(
            SynthSpec(class_count=20, input_dim=16, source_per_class=1)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="^features became non-finite at step 1$"):
                train(model, (source, target_train), small_config(class_count=20),
                      steps=2, lr=0.1, seed=0)

    def test_tau_from_config_is_respected(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        run = parse_run_config("tau = 0.123\n")
        model = capped(init_two_stream(spec.input_dim, 8, spec.class_count, seed=1), run.tau)
        trained, _ = train(model, (source, target_train), small_config(), steps=2, lr=0.1, seed=1)
        assert trained.feature_cap == 0.123

    def test_fixed_cap_is_kept_and_applied(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = capped(init_two_stream(spec.input_dim, 8, spec.class_count, seed=1), 0.05)
        trained, _ = train(model, (source, target_train), small_config(), steps=3, lr=0.1, seed=1)
        assert trained.feature_cap == 0.05
        derived, _ = train(capped(model, None), (source, target_train), small_config(),
                           steps=3, lr=0.1, seed=1)
        assert derived.feature_cap > 0.05
        assert not np.array_equal(trained.classifier_source.weights, derived.classifier_source.weights)

    @pytest.mark.parametrize("cap", [None, 2.0])
    def test_input_model_is_untouched(self, cap):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = capped(init_two_stream(spec.input_dim, 8, spec.class_count, seed=1), cap)
        fields = dict(vars(model))
        snapshot = copy.deepcopy(model)
        train(model, (source, target_train), small_config(), steps=3, lr=0.1, seed=1)
        assert model.feature_cap is cap
        for name, part in fields.items():
            assert getattr(model, name) is part
            if name != "feature_cap":
                assert np.array_equal(part.weights, getattr(snapshot, name).weights)
                assert np.array_equal(part.bias, getattr(snapshot, name).bias)

    @pytest.mark.parametrize("part", ["weights", "bias"])
    @pytest.mark.parametrize("field", [
        "encoder_source", "encoder_target", "classifier_source", "classifier_target"])
    @pytest.mark.parametrize("cap", [None, 2.0], ids=["derived-cap", "fixed-cap"])
    def test_layer_edited_in_place_diverges_at_step_1(self, cap, field, part):
        # An array edited in place after construction is outside the layer rule;
        # the run still ends typed, without numpy warnings.
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = capped(init_two_stream(spec.input_dim, 8, spec.class_count, seed=1), cap)
        model.classifier_target = Classifier(np.zeros((8, spec.class_count)), np.zeros(spec.class_count))
        getattr(getattr(model, field), part).flat[0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                train(model, (source, target_train), small_config(), steps=3, lr=0.1, seed=1)
        assert err.value.step == 1

    def test_tau_derived_from_first_batch(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        trained, _ = train(model, (source, target_train), small_config(),
                           steps=2, lr=0.1, seed=1)
        assert trained.feature_cap is not None and trained.feature_cap > 0


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self, rng):
        c, d = 5, 3
        enc = Encoder(np.zeros((d, d)), np.zeros(d), nonlinear=False)
        clf = Classifier(np.zeros((d, c)), np.array([10.0, 0, 0, 0, 0]))
        model = TwoStreamModel(enc, enc, clf, clf)
        test = FeatureBlock(rng.normal(size=(d, 5 * 8)), np.repeat(np.arange(c), 8))
        report = evaluate(model, test)
        assert report.overall == pytest.approx(1.0 / c)

    def test_perfectly_separable_case(self):
        spec = small_spec(shift=DomainShift(0.0, 0.0, 1.0, 0.0))
        source, target_train, target_test = synth_domain_pair(spec)
        model = train_single_stream(source, spec.class_count, 8, steps=300, lr=0.3, seed=0)
        assert evaluate(model, target_test).overall == 1.0

    def test_per_class_rows_only_for_present_classes(self, rng):
        d, c = 3, 4
        enc = Encoder(np.eye(d), np.zeros(d), nonlinear=False)
        clf = Classifier(rng.normal(size=(d, c)), np.zeros(c))
        model = TwoStreamModel(enc, enc, clf, clf)
        test = FeatureBlock(rng.normal(size=(d, 6)), np.array([0, 0, 2, 2, 2, 3]))
        report = evaluate(model, test)
        assert [row[0] for row in report.per_class] == [0, 2, 3]
        assert sum(row[2] for row in report.per_class) == 6

    def test_per_class_rows_equal_each_class_mean(self, rng):
        d, c = 4, 12
        enc = Encoder(np.eye(d), np.zeros(d), nonlinear=False)
        clf = Classifier(rng.normal(size=(d, c)), np.zeros(c))
        model = TwoStreamModel(enc, enc, clf, clf)
        labels = rng.permutation(np.repeat(np.arange(c), rng.integers(0, 9, c)))
        test = FeatureBlock(rng.normal(size=(d, labels.size)), labels)
        report = evaluate(model, test)
        phi, _ = encoder_forward(enc, test.columns, None)
        hits = (clf.weights.T @ phi + clf.bias[:, None]).argmax(axis=0) == labels
        # The same float64 count over the same integer, class by class, bit for bit.
        assert report.per_class == [
            (int(k), float(hits[labels == k].mean()), int((labels == k).sum())) for k in np.unique(labels)
        ]
        assert all(type(v) in (int, float) for row in report.per_class for v in row)

    def test_feature_dimension_mismatch_names_both_sizes(self, rng):
        model = init_two_stream(16, 8, 3, seed=0)
        test = FeatureBlock(rng.normal(size=(8, 4)), np.zeros(4, dtype=int))
        with pytest.raises(DimensionError, match="dimension 8, .* takes 16"):
            evaluate(model, test)

    def test_label_outside_class_count_is_typed(self, rng):
        model = init_two_stream(3, 4, 3, seed=0)
        test = FeatureBlock(rng.normal(size=(3, 4)), np.array([0, 1, 2, 3]))
        with pytest.raises(LabelError, match="test label 3 outside class count 3"):
            evaluate(model, test)

    @pytest.mark.parametrize("nonlinear", [True, False], ids=["tanh", "linear"])
    def test_overflowing_target_stream_is_typed(self, nonlinear):
        model, test = overflowing_target_model(nonlinear)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=(
                "^target logits are non-finite: the target stream overflows on the test columns$"
            )):
                evaluate(model, test)

    @pytest.mark.parametrize("part", ["weights", "bias"])
    @pytest.mark.parametrize("field", ["encoder_target", "classifier_target"])
    def test_target_layer_edited_in_place_is_typed(self, field, part):
        # The evaluated stream's arrays, edited in place after construction.
        spec = small_spec()
        _, _, test = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        getattr(getattr(model, field), part).flat[0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^target logits are non-finite"):
                evaluate(model, test)


class TestSingleStream:
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_matches_source_stream_of_decoupled_train(self, nonlinear):
        spec = small_spec()
        block, _, _ = synth_domain_pair(spec)
        baseline = train_single_stream(block, spec.class_count, 8, steps=15, lr=0.2, seed=5,
                                       nonlinear=nonlinear)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=5, nonlinear=nonlinear)
        config = small_config(sigma1=0.0, sigma2=0.0, eta=0.0)
        trained, _ = train(model, (block, block), config, steps=15, lr=0.2, seed=5)
        for got, want in [
            (baseline.encoder_source.weights, trained.encoder_source.weights),
            (baseline.encoder_source.bias, trained.encoder_source.bias),
            (baseline.classifier_source.weights, trained.classifier_source.weights),
            (baseline.classifier_source.bias, trained.classifier_source.bias),
        ]:
            assert np.array_equal(got, want)
        assert baseline.feature_cap == trained.feature_cap
        assert baseline.encoder_source.nonlinear is nonlinear
        assert baseline.encoder_target is baseline.encoder_source
        assert baseline.classifier_target is baseline.classifier_source

    def test_divergence_is_typed_under_warnings_as_errors(self):
        # Step 2 overflows at this rate; numpy must not warn before the typed error.
        block, _, _ = synth_domain_pair(SynthSpec(class_count=4, input_dim=5, source_per_class=6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="^loss became non-finite at step 2$") as err:
                train_single_stream(block, 4, 8, steps=50, lr=3e307, seed=0, nonlinear=False)
        assert err.value.step == 2

    @pytest.mark.parametrize("scale", [1e153, 1e160])
    def test_overflowing_derived_cap_diverges_at_step_1(self, scale):
        # The blocks and encoder of TestTrain's cases: the same error at the same step.
        spec = small_spec()
        source, _, _ = synth_domain_pair(spec)
        huge = FeatureBlock(scale * source.columns, source.labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="^feature cap became non-finite at step 1: ") as err:
                train_single_stream(huge, spec.class_count, 8, steps=3, lr=0.1, seed=0, nonlinear=False)
        assert err.value.step == 1

    @pytest.mark.parametrize("overrides, error, message", [
        (dict(class_count=0), ParameterError, "class_count must be at least 1, got 0"),
        (dict(steps=0), ParameterError, "steps must be at least 1, got 0"),
        (dict(lr=-1), ParameterError, "learning_rate must be nonnegative, got -1"),
        (dict(block="empty"), EmptyClassError, "source block has no columns"),
        (dict(block="shifted"), LabelError, "source label 7 outside class count 4"),
    ], ids=["class_count", "steps", "lr", "empty_block", "label"])
    def test_invalid_input_is_typed(self, overrides, error, message):
        spec = small_spec()
        source, _, _ = synth_domain_pair(spec)
        blocks = {
            "source": source,
            "empty": FeatureBlock(np.empty((spec.input_dim, 0)), np.empty(0, dtype=int)),
            "shifted": FeatureBlock(source.columns, source.labels + spec.class_count),
        }
        args = dict(block="source", class_count=spec.class_count, feature_dim=8,
                    steps=2, lr=0.1, seed=1)
        args.update(overrides)
        args["block"] = blocks[args["block"]]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            train_single_stream(**args)


def lexsort_sample_batch(block, cap, rng):
    """The batch policy by one lexsort of (key, label): :func:`_sample_batch`'s reference."""
    order = np.lexsort((rng.random(block.count), block.labels))
    labels = block.labels[order]
    return order[np.arange(order.size) - np.searchsorted(labels, labels) < cap]


class TestSampleBatch:
    """The batch policy: positions of min(available, cap) columns per class, without replacement."""

    SIZES = (0, 2, 3, 5, 30)  # columns of classes 0-4; class 0 has none

    def ragged_block(self):
        rng = np.random.default_rng(7)
        labels = rng.permutation(np.repeat(np.arange(len(self.SIZES)), self.SIZES))
        return FeatureBlock(rng.normal(size=(2, labels.size)), labels)

    @pytest.mark.parametrize("cap", [1, 3, 10, 40])
    def test_per_class_counts_and_order(self, cap):
        block = self.ragged_block()
        chosen = _sample_batch(block, cap, np.random.default_rng([5, 1]))
        labels = block.labels[chosen]
        assert (np.diff(labels) >= 0).all()
        for c, size in enumerate(self.SIZES):
            picked = chosen[labels == c]
            assert picked.size == min(size, cap)
            assert np.unique(picked).size == picked.size

    def test_columns_and_labels_come_from_the_chosen_positions(self):
        # The trainers slice their checked block at the positions, so they must index it.
        block = self.ragged_block()
        chosen = _sample_batch(block, 4, np.random.default_rng([5, 1]))
        assert chosen.dtype.kind == "i" and chosen.ndim == 1
        assert ((0 <= chosen) & (chosen < block.count)).all()
        assert block.columns[:, chosen].shape == (block.dim, chosen.size)

    def test_repeats_for_the_same_generator_state(self):
        block = self.ragged_block()
        a = _sample_batch(block, 4, np.random.default_rng([5, 1]))
        b = _sample_batch(block, 4, np.random.default_rng([5, 1]))
        assert np.array_equal(a, b)

    def test_another_step_draws_another_subset(self):
        block = self.ragged_block()
        subsets = [
            set(chosen[block.labels[chosen] == 4])
            for chosen in (_sample_batch(block, 10, np.random.default_rng([5, step])) for step in (1, 2))
        ]
        assert subsets[0] != subsets[1]

    @settings(max_examples=80, deadline=None)
    @given(counts=st.lists(st.integers(0, 15), min_size=1, max_size=8).filter(any),
           cap=st.integers(1, 12), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4),
           shuffle=st.integers(0, 2**32 - 1))
    def test_labels_are_the_same_for_every_generator(self, counts, cap, seeds, shuffle):
        # Ragged counts, absent classes (count 0) and classes below the cap: the labels of
        # the batch are each class's min(count, cap) copies, by ascending class, whatever
        # the generator, and the positions are those of the lexsort reference.
        labels = np.random.default_rng(shuffle).permutation(np.repeat(np.arange(len(counts)), counts))
        block = FeatureBlock(np.zeros((1, labels.size)), labels)
        expected = np.repeat(np.arange(len(counts)), np.minimum(counts, cap))
        for seed in seeds:
            chosen = _sample_batch(block, cap, np.random.default_rng(seed))
            assert np.array_equal(block.labels[chosen], expected)
            assert np.array_equal(chosen, lexsort_sample_batch(block, cap, np.random.default_rng(seed)))

    def test_cached_runs_are_read_only(self):
        block = self.ragged_block()
        runs, size = _class_runs(block.labels.tobytes(), 3)
        assert size == sum(min(n, 3) for n in self.SIZES)
        for run in runs:
            for array in run:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_selection_is_uniform(self):
        # Each of 30 columns is kept with probability 1/3 per draw of 10; over
        # 20,000 draws its frequency has standard deviation sqrt(2/9 / 20000),
        # about 0.0033. Five of those bound every column's deviation.
        draws, size, cap = 20_000, 30, 10
        block = FeatureBlock(np.arange(size, dtype=float)[None], np.zeros(size, dtype=int))
        rng = np.random.default_rng(11)
        hits = np.zeros(size)
        for _ in range(draws):
            hits[_sample_batch(block, cap, rng)] += 1
        p = cap / size
        bound = 5.0 * np.sqrt(p * (1.0 - p) / draws)
        assert np.abs(hits / draws - p).max() < bound


class TestParameterHomes:
    """Rules whose only home is the receiving type or trainer entry point."""

    @pytest.mark.parametrize("name", ["rotation_deg", "translation", "scale", "noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_shift_rejects_non_finite(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got {value}$") as info:
            DomainShift(**{name: value})
        assert info.value.name == name

    def test_shift_rejects_negative_noise(self):
        with pytest.raises(ParameterError, match=r"^noise must be nonnegative, got -0\.1$") as info:
            DomainShift(noise=-0.1)
        assert info.value.name == "noise"

    def test_spec_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="^seed must be nonnegative, got -1$") as info:
            small_spec(seed=-1)
        assert info.value.name == "seed"

    def test_train_rejects_negative_seed(self):
        source, target_train, _ = synth_domain_pair(small_spec())
        model = init_two_stream(6, 8, 4, seed=0)
        with pytest.raises(ParameterError, match="^seed must be nonnegative, got -2$"):
            train(model, (source, target_train), small_config(), steps=2, lr=0.1, seed=-2)

    def test_single_stream_rejects_negative_seed(self):
        source, _, _ = synth_domain_pair(small_spec())
        with pytest.raises(ParameterError, match="^seed must be nonnegative, got -1$"):
            train_single_stream(source, 4, 8, steps=2, lr=0.1, seed=-1)

    @pytest.mark.parametrize("cap, message", [
        (-1.0, r"nonnegative, got -1\.0"),
        (float("nan"), "finite, got nan"),
        (float("inf"), "finite, got inf"),
    ])
    def test_model_rejects_bad_feature_cap(self, cap, message):
        model = init_two_stream(3, 2, 4, seed=0)
        with pytest.raises(ParameterError, match=f"^feature_cap must be {message}$") as info:
            TwoStreamModel(model.encoder_source, model.encoder_target,
                           model.classifier_source, model.classifier_target, feature_cap=cap)
        assert info.value.name == "feature_cap"
        # A cap set after construction is caught where the model is consumed.
        model.feature_cap = cap
        with pytest.raises(ParameterError, match="^feature_cap must be "):
            evaluate(model, FeatureBlock(np.ones((3, 4)), np.arange(4)))

    def test_zero_feature_cap_is_legal(self):
        model = init_two_stream(3, 2, 4, seed=0)
        model.feature_cap = 0.0
        report = evaluate(model, FeatureBlock(np.ones((3, 4)), np.arange(4)))
        assert report.overall == 0.25

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_train_rejects_non_finite_learning_rate(self, lr):
        source, target_train, _ = synth_domain_pair(small_spec())
        model = init_two_stream(6, 8, 4, seed=0)
        with pytest.raises(ParameterError, match=f"^learning_rate must be finite, got {lr}$"):
            train(model, (source, target_train), small_config(), steps=2, lr=lr, seed=0)


class TestAdaptationDirection:
    def test_source_only_below_aligned_small_case(self):
        # C = 5, rotation 30, translation 1.0: aligned strictly beats source-only
        spec = small_spec(
            class_count=5,
            input_dim=8,
            source_per_class=20,
            target_test_per_class=12,
            shift=DomainShift(rotation_deg=30.0, translation=1.0, scale=1.0, noise=0.05),
            seed=0,
        )
        source, target_train, target_test = synth_domain_pair(spec)
        config = AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0,
                             kind=DistanceKind.JBLD, class_count=5)
        model = init_two_stream(spec.input_dim, 16, 5, seed=0)
        model, _ = train(model, (source, target_train), config, steps=250, lr=0.25, seed=0)
        aligned = evaluate(model, target_test).overall
        source_only = evaluate(
            train_single_stream(source, 5, 16, steps=250, lr=0.25, seed=0), target_test
        ).overall
        assert source_only < aligned


class TestConcatBlocks:
    def test_concat(self, rng):
        a = FeatureBlock(rng.normal(size=(3, 2)), np.array([0, 1]))
        b = FeatureBlock(rng.normal(size=(3, 1)), np.array([2]))
        merged = concat_blocks(a, b)
        assert merged.count == 3
        assert list(merged.labels) == [0, 1, 2]
