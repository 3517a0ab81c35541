"""Synthetic data generation, two-stream training, and evaluation."""

import re

import numpy as np
import pytest

from spdalign.align import AlignConfig, Classifier
from spdalign.distances import DistanceKind
from spdalign.errors import (
    DimensionError,
    DivergenceError,
    EmptyClassError,
    LabelError,
    ParameterError,
    SingularityError,
)
from spdalign.scatter import FeatureBlock
from spdalign.trainer import (
    _cap_columns,
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

    A tau <= 0 never reaches it: AlignConfig and the baselines reject it (the
    ``tau`` case of ``TestSingleStream::test_invalid_input_is_typed`` below).
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


class TestTrain:
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
        totals = [rec.total for rec in history]
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
        assert [r.total for r in hist_one] == [r.total for r in hist_two]

    def test_training_reduces_loss(self):
        # loss at step 500 is below the loss at step 1, across 10 seeds
        for seed in range(10):
            spec = small_spec(seed=seed)
            source, target_train, _ = synth_domain_pair(spec)
            model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=seed)
            _, history = train(model, (source, target_train), small_config(),
                               steps=500, lr=0.2, seed=seed)
            assert history[499].step == 500
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
        # with an explicit tau there is no shared derived statistic at all
        spec = small_spec()
        source_a, target, _ = synth_domain_pair(spec)
        source_b, _, _ = synth_domain_pair(small_spec(seed=77))
        config = small_config(sigma1=0.0, sigma2=0.0, eta=0.0, tau=5.0)

        def target_weights(source):
            model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=5)
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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
        config = small_config(kind=kind, tau=1e14)
        with pytest.raises(SingularityError, match=r"^step 1: class \d: "):
            train(model, (source, target_train), config, steps=2, lr=0.1, seed=1)

    def test_tau_from_config_is_respected(self):
        spec = small_spec()
        source, target_train, _ = synth_domain_pair(spec)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=1)
        trained, _ = train(model, (source, target_train), small_config(tau=0.123),
                           steps=2, lr=0.1, seed=1)
        assert trained.feature_cap == 0.123

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
    @pytest.mark.parametrize("tau", [None, 0.5])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_matches_source_stream_of_decoupled_train(self, tau, nonlinear):
        spec = small_spec()
        block, _, _ = synth_domain_pair(spec)
        baseline = train_single_stream(block, spec.class_count, 8, steps=15, lr=0.2, seed=5,
                                       nonlinear=nonlinear, tau=tau)
        model = init_two_stream(spec.input_dim, 8, spec.class_count, seed=5, nonlinear=nonlinear)
        config = small_config(sigma1=0.0, sigma2=0.0, eta=0.0, tau=tau)
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

    @pytest.mark.parametrize("overrides, error, message", [
        (dict(class_count=0), ParameterError, "class_count must be at least 1, got 0"),
        (dict(tau=0), ParameterError, "tau must be positive, got 0"),
        (dict(steps=0), ParameterError, "steps must be at least 1, got 0"),
        (dict(lr=-1), ParameterError, "learning rate must be nonnegative, got -1"),
        (dict(block="empty"), EmptyClassError, "source block has no columns"),
        (dict(block="shifted"), LabelError, "source label 7 outside class count 4"),
    ], ids=["class_count", "tau", "steps", "lr", "empty_block", "label"])
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
