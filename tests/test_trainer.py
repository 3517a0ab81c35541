"""Synthetic data generation, two-stream training, and evaluation."""

import copy
import dataclasses
import re
import warnings

import numpy as np
import pytest

from spdalign.align import AlignConfig, Classifier, ObjectiveParts
from spdalign.distances import DistanceKind
from spdalign.errors import (
    DimensionError,
    DivergenceError,
    EmptyClassError,
    LabelError,
    ParameterError,
    SingularityError,
)
from spdalign.runconfig import parse_run_config
from spdalign.scatter import FeatureBlock
from spdalign.trainer import (
    _cap_columns,
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


def small_config(**overrides):
    params = dict(sigma1=0.3, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=4)
    params.update(overrides)
    return AlignConfig(**params)


class TestSynthDomainPair:
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
        bad = Encoder(np.ones((2, 3)), np.zeros(5))
        clf = Classifier(rng.normal(size=(2, 4)), np.zeros(4))
        with pytest.raises(DimensionError, match=r"bias \(5,\)"):
            runs[call](TwoStreamModel(bad, bad, clf, clf))

    @pytest.mark.parametrize("field", ["encoder_source", "encoder_target"])
    @pytest.mark.parametrize("call", ["evaluate", "train"])
    def test_field_replaced_after_construction_is_typed(self, call, field):
        # The model is mutable, so each consumer runs the shape rule again.
        model = init_two_stream(3, 2, 4, seed=0)
        setattr(model, field, Encoder(np.ones((2, 3)), np.zeros(5)))
        block = FeatureBlock(np.ones((3, 4)), np.arange(4))
        config = AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=4)
        runs = {
            "evaluate": lambda: evaluate(model, block),
            "train": lambda: train(model, (block, block), config, steps=1, lr=0.1, seed=0),
        }
        with pytest.raises(DimensionError, match=r"^encoder weights \(2, 3\) and bias \(5,\) "):
            runs[call]()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    @pytest.mark.parametrize("field", ["encoder_source", "encoder_target"])
    def test_non_finite_encoder_parameter_is_typed(self, field, part, value):
        model = init_two_stream(3, 2, 4, seed=0)
        enc = getattr(model, field)
        params = {"weights": enc.weights.copy(), "bias": enc.bias.copy()}
        params[part].flat[0] = value
        bad = Encoder(params["weights"], params["bias"], enc.nonlinear)
        with pytest.raises(DimensionError, match=r"^encoder parameters contain non-finite entries$"):
            dataclasses.replace(model, **{field: bad})
        # A field replaced after construction is caught where the model is used.
        setattr(model, field, bad)
        with pytest.raises(DimensionError, match=r"^encoder parameters contain non-finite entries$"):
            evaluate(model, FeatureBlock(np.ones((3, 4)), np.arange(4)))


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

    @pytest.mark.parametrize("kind", [DistanceKind.JBLD, DistanceKind.AIRM])
    def test_singular_scatter_names_step_and_class(self, kind):
        # Linear encoders on target inputs scaled by 1e6: with eps = 1e-6 the
        # rounding in the reduced target scatters leaves them indefinite.
        spec = small_spec(shift=DomainShift(scale=1e6))
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1, nonlinear=False)
        with pytest.raises(SingularityError, match=r"^step 1: class \d: "):
            train(capped(model, 1e14), (source, target_train), small_config(kind=kind),
                  steps=2, lr=0.1, seed=1)

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
