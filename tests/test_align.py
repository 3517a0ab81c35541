"""Objective components: cross-entropy, proximity, alignment."""

import re
import warnings

import numpy as np
import pytest

from spdalign.align import (
    _centring_basis,
    AlignConfig,
    Classifier,
    alignment_loss,
    group_columns_by_class,
    proximity,
    softmax_ce,
    total_objective,
)
from spdalign.checks import (
    _random_objective_instance,
    central_difference,
    random_rotation,
    relative_gap,
)
from spdalign.distances import DistanceKind, dist_sq
from spdalign.errors import DimensionError, LabelError, ParameterError, SpdAlignError
from spdalign.scatter import FeatureBlock, mean_and_scatter
from spdalign.spd import SymMatrix, regularize


def config_for(kind=DistanceKind.JBLD, c=1, sigma1=1.0, sigma2=1.0, eta=1.0, eps=1e-6):
    return AlignConfig(sigma1=sigma1, sigma2=sigma2, eta=eta, kind=kind,
                       class_count=c, eps=eps)


class TestAlignConfig:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError, match="sigma1"):
            AlignConfig(sigma1=-0.1, sigma2=0, eta=0, kind=DistanceKind.JBLD, class_count=1)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ParameterError, match="eps"):
            AlignConfig(sigma1=0, sigma2=0, eta=0, kind=DistanceKind.JBLD,
                        class_count=1, eps=0.0)

    def test_rejects_zero_classes(self):
        with pytest.raises(ParameterError, match="class_count"):
            AlignConfig(sigma1=0, sigma2=0, eta=0, kind=DistanceKind.JBLD, class_count=0)

    @pytest.mark.parametrize("name", ["sigma1", "sigma2", "eta", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, name, value):
        params = dict(sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=2)
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got {value}$") as info:
            AlignConfig(**{**params, name: value})
        assert info.value.name == name

    def test_range_error_names_field(self):
        with pytest.raises(ParameterError) as info:
            AlignConfig(sigma1=0, sigma2=-1, eta=0, kind=DistanceKind.JBLD, class_count=1)
        assert info.value.name == "sigma2"


class TestSoftmaxCE:
    def test_uniform_logits_give_log_c(self, rng):
        c, d, n = 4, 3, 6
        clf = Classifier(np.zeros((d, c)), np.zeros(c))
        block = FeatureBlock(rng.normal(size=(d, n)), rng.integers(0, c, size=n))
        out = softmax_ce(clf, block)
        assert out.loss == pytest.approx(np.log(c), abs=1e-12)

    def test_loss_decreases_as_true_bias_grows(self):
        d, c = 2, 3
        block = FeatureBlock(np.ones((d, 1)), np.array([1]))
        losses = []
        for bias in (0.0, 1.0, 2.0, 5.0, 10.0):
            clf = Classifier(np.zeros((d, c)), np.array([0.0, bias, 0.0]))
            losses.append(softmax_ce(clf, block).loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_scalar_hand_value(self):
        clf = Classifier(np.array([[1.0, -1.0]]), np.zeros(2))
        block = FeatureBlock(np.array([[1.0]]), np.array([0]))
        out = softmax_ce(clf, block)
        assert out.loss == pytest.approx(np.log(1 + np.e ** -2), abs=1e-12)

    def test_label_out_of_range(self):
        clf = Classifier(np.zeros((2, 3)), np.zeros(3))
        block = FeatureBlock(np.ones((2, 1)), np.array([3]))
        with pytest.raises(LabelError):
            softmax_ce(clf, block)

    def test_gradients_match_finite_differences(self, rng):
        d, c, n = 3, 4, 5
        clf = Classifier(rng.normal(size=(d, c)), rng.normal(size=c))
        cols = rng.normal(size=(d, n))
        labels = rng.integers(0, c, size=n)
        out = softmax_ce(clf, FeatureBlock(cols, labels))

        fd_w = central_difference(
            lambda w: softmax_ce(Classifier(w.reshape(d, c), clf.bias),
                                 FeatureBlock(cols, labels)).loss,
            clf.weights,
        )
        fd_b = central_difference(
            lambda b: softmax_ce(Classifier(clf.weights, b), FeatureBlock(cols, labels)).loss,
            clf.bias,
        )
        fd_x = central_difference(
            lambda x: softmax_ce(clf, FeatureBlock(x.reshape(d, n), labels)).loss, cols
        )
        assert relative_gap(out.grad_weights, fd_w) < 1e-5
        assert relative_gap(out.grad_bias, fd_b) < 1e-5
        assert relative_gap(out.grad_columns, fd_x) < 1e-5


class TestProximity:
    def test_equal_weights(self, rng):
        w = Classifier(rng.normal(size=(3, 2)), np.zeros(2))
        value, gw = proximity(w, w, 1.0)
        assert value == 0.0
        assert np.abs(gw).max() == 0.0

    def test_eta_zero_switches_off(self, rng):
        a = Classifier(rng.normal(size=(3, 2)), np.zeros(2))
        b = Classifier(rng.normal(size=(3, 2)), np.zeros(2))
        value, gw = proximity(a, b, 0.0)
        assert value == 0.0 and np.abs(gw).max() == 0.0

    def test_scalar_hand_value(self):
        a = Classifier(np.array([[2.0]]), np.zeros(1))
        b = Classifier(np.array([[0.0]]), np.zeros(1))
        value, gw = proximity(a, b, 1.0)
        assert value == pytest.approx(4.0)
        assert gw == pytest.approx(np.array([[4.0]]))
        # The gradient with respect to W* is its negation: swapping the sides negates it.
        assert proximity(b, a, 1.0)[1] == pytest.approx(np.array([[-4.0]]))

    def test_bias_excluded(self):
        a = Classifier(np.zeros((1, 1)), np.array([7.0]))
        b = Classifier(np.zeros((1, 1)), np.array([-7.0]))
        value, _ = proximity(a, b, 1.0)
        assert value == 0.0

    def test_shape_mismatch(self):
        a = Classifier(np.zeros((1, 2)), np.zeros(2))
        b = Classifier(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            proximity(a, b, 1.0)


class TestAlignmentLoss:
    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_identical_streams_give_zero(self, kind, rng):
        cols = rng.normal(size=(3, 4))
        result = alignment_loss([(cols, cols.copy())], config_for(kind=kind))
        assert result.loss == pytest.approx(0.0, abs=1e-9)
        assert np.abs(result.grads_source[0]).max() < 1e-7
        assert np.abs(result.grads_target[0]).max() < 1e-7

    # Equal target columns have no spread, so the exact scatter gradient on them is
    # zero; at dim 2 the JBLD pooled part is taken on its d x d side.
    @pytest.mark.parametrize("kind", [DistanceKind.FROBENIUS, DistanceKind.JBLD])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_side_without_spread_gets_exactly_zero_gradient(self, kind, dim, rng):
        cols_s = 100.0 * rng.normal(size=(dim, 5))
        cols_t = np.repeat(100.0 * rng.normal(size=(dim, 1)), 2, axis=1)
        result = alignment_loss([(cols_s, cols_t)], config_for(kind=kind, sigma2=0.0))
        assert result.scatter_term > 0.0
        assert not result.grads_target[0].any()

    def test_switched_off(self, rng):
        cols_s = rng.normal(size=(3, 4))
        cols_t = rng.normal(size=(3, 4))
        result = alignment_loss([(cols_s, cols_t)], config_for(sigma1=0.0, sigma2=0.0))
        assert result.loss == 0.0
        assert np.abs(result.grads_source[0]).max() == 0.0

    def test_mean_only_hand_value(self):
        # means 2 and 1, one class: loss = sigma2/C * ||2-1||^2 = 1
        result = alignment_loss(
            [(np.array([[1.0, 3.0]]), np.array([[0.0, 2.0]]))],
            config_for(kind=DistanceKind.FROBENIUS, sigma1=0.0, sigma2=1.0),
        )
        assert result.loss == pytest.approx(1.0)
        assert result.mean_term == pytest.approx(1.0)
        assert result.scatter_term == 0.0

    def test_empty_class_skipped(self, rng):
        cols = rng.normal(size=(3, 4))
        result = alignment_loss(
            [(cols, np.empty((3, 0))), (cols, cols.copy())], config_for(c=2)
        )
        assert np.isfinite(result.loss)
        assert result.grads_target[0].shape == (3, 0)

    def test_class_count_mismatch(self, rng):
        with pytest.raises(DimensionError):
            alignment_loss([(np.ones((2, 1)), np.ones((2, 1)))], config_for(c=2))

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_reduced_equals_ambient_per_class(self, kind, rng):
        # scatter term through the projection equals the ambient-dimension term
        eps = 1e-6
        for _ in range(5):
            cols_s = rng.normal(size=(24, 5))
            cols_t = rng.normal(size=(24, 4))
            result = alignment_loss(
                [(cols_s, cols_t)], config_for(kind=kind, sigma1=1.0, sigma2=0.0, eps=eps)
            )

            def ambient_scatter(cols):
                return regularize(SymMatrix(mean_and_scatter(cols)[1]), eps)

            ambient = dist_sq(kind, ambient_scatter(cols_s), ambient_scatter(cols_t))
            assert abs(result.scatter_term - ambient) <= 1e-7 * max(abs(ambient), 1e-30)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_rotation_invariance_of_alignment(self, kind, rng):
        cols_s = rng.normal(size=(6, 4))
        cols_t = rng.normal(size=(6, 3))
        config = config_for(kind=kind, sigma1=0.7, sigma2=0.3)
        base = alignment_loss([(cols_s, cols_t)], config).loss
        rot = random_rotation(rng, 6)
        moved = alignment_loss([(rot @ cols_s, rot @ cols_t)], config).loss
        assert abs(base - moved) <= 1e-8 * max(abs(base), 1e-30)

    def test_gradient_matches_finite_differences(self, rng):
        for kind in DistanceKind:
            eps = 0.05
            cols_s = rng.normal(size=(5, 4))
            cols_t = rng.normal(size=(5, 3))
            config = config_for(kind=kind, sigma1=0.8, sigma2=0.5, eps=eps)
            result = alignment_loss([(cols_s, cols_t)], config)

            def loss_at(s, t):
                return alignment_loss([(s, t)], config).loss

            fd_s = central_difference(
                lambda flat: loss_at(flat.reshape(5, 4), cols_t), cols_s
            )
            fd_t = central_difference(
                lambda flat: loss_at(cols_s, flat.reshape(5, 3)), cols_t
            )
            assert relative_gap(result.grads_source[0], fd_s) < 1e-4
            assert relative_gap(result.grads_target[0], fd_t) < 1e-4


class TestCentringBasis:
    """The cached basis ``H * s`` beside ``H`` and ``s``, all three read-only."""

    @pytest.mark.parametrize("n_s, n_t", [(1, 4), (4, 1), (10, 3)], ids=["N=1", "N*=1", "10,3"])
    def test_cached_basis_is_the_product_and_read_only(self, n_s, n_t):
        helmert, scale, basis = _centring_basis(n_s, n_s + n_t)
        assert basis.shape == (n_s + n_t, n_s + n_t - 2)
        assert np.array_equal(basis, helmert * scale)
        # Each side's block of B B^T is that side's centring, scaled by 1 / n.
        for rows, n in ((slice(0, n_s), n_s), (slice(n_s, None), n_t)):
            block = basis[rows] @ basis[rows].T
            np.testing.assert_allclose(block, (np.eye(n) - 1.0 / n) / n, atol=1e-15)
        for array in (helmert, scale, basis):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


class TestTotalObjective:
    def test_identical_setup_reduces_to_double_ce(self, rng):
        model, phi_s, labels_s, _, _, config = _random_objective_instance(
            rng, DistanceKind.JBLD
        )
        # same weights on both streams, identical batches
        from spdalign.checks import _ClassifierPair

        twin = _ClassifierPair(model.classifier_source, model.classifier_source)
        block = FeatureBlock(phi_s, labels_s)
        result = total_objective(twin, block, block, config)
        ce = softmax_ce(model.classifier_source, block).loss
        assert result.value == pytest.approx(2.0 * ce, abs=1e-9)
        assert result.parts.proximity == 0.0
        assert result.parts.scatter == pytest.approx(0.0, abs=1e-9)
        assert result.parts.mean == pytest.approx(0.0, abs=1e-12)

    def test_decoupled_value_is_sum_of_cross_entropies(self, rng):
        model, phi_s, labels_s, phi_t, labels_t, _ = _random_objective_instance(
            rng, DistanceKind.JBLD
        )
        config = AlignConfig(sigma1=0.0, sigma2=0.0, eta=0.0, kind=DistanceKind.JBLD,
                             class_count=_class_count(labels_s, labels_t))
        block_s = FeatureBlock(phi_s, labels_s)
        block_t = FeatureBlock(phi_t, labels_t)
        result = total_objective(model, block_s, block_t, config)
        expected = (
            softmax_ce(model.classifier_source, block_s).loss
            + softmax_ce(model.classifier_target, block_t).loss
        )
        assert result.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_value_is_the_parts_total(self, kind, rng):
        model, phi_s, labels_s, phi_t, labels_t, config = _random_objective_instance(rng, kind)
        result = total_objective(model, FeatureBlock(phi_s, labels_s), FeatureBlock(phi_t, labels_t),
                                 config)
        parts = result.parts
        assert result.value == parts.total
        assert parts.total == (
            parts.ce_source + parts.ce_target + parts.proximity + (parts.scatter + parts.mean)
        )

    @pytest.mark.parametrize("source, target, config_classes",
                             [(6, 6, 4), (6, 6, 8), (6, 5, 6)], ids=["fewer", "more", "streams"])
    def test_class_count_must_match_classifiers(self, rng, source, target, config_classes):
        # Every label sits below every count, so no label rule can catch the mismatch.
        from spdalign.checks import _ClassifierPair

        model = _ClassifierPair(
            Classifier(rng.normal(size=(3, source)), np.zeros(source)),
            Classifier(rng.normal(size=(3, target)), np.zeros(target)),
        )
        block = FeatureBlock(rng.normal(size=(3, 8)), np.arange(8) % 4)
        message = (f"objective class count {config_classes} does not match the classifiers' "
                   f"class counts: source {source}, target {target}")
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            total_objective(model, block, block, config_for(c=config_classes))

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_descent_direction(self, kind, rng):
        # one small gradient step on the leaves decreases the objective
        for _ in range(17):
            model, phi_s, labels_s, phi_t, labels_t, config = _random_objective_instance(rng, kind)
            block_s = FeatureBlock(phi_s, labels_s)
            block_t = FeatureBlock(phi_t, labels_t)
            base = total_objective(model, block_s, block_t, config)
            lr = 1e-4
            from spdalign.checks import _ClassifierPair

            stepped = _ClassifierPair(
                Classifier(
                    model.classifier_source.weights - lr * base.grads.weights_source,
                    model.classifier_source.bias - lr * base.grads.bias_source,
                ),
                Classifier(
                    model.classifier_target.weights - lr * base.grads.weights_target,
                    model.classifier_target.bias - lr * base.grads.bias_target,
                ),
            )
            after = total_objective(
                stepped,
                FeatureBlock(phi_s - lr * base.grads.features_source, labels_s),
                FeatureBlock(phi_t - lr * base.grads.features_target, labels_t),
                config,
            )
            assert after.value < base.value

    def test_group_columns_rejects_bad_labels(self, rng):
        block = FeatureBlock(rng.normal(size=(2, 3)), np.array([0, 1, 5]))
        with pytest.raises(LabelError):
            group_columns_by_class(block, block, 3)


class TestOverflowingFeatures:
    """Features whose Gram matrices, scatters or terms leave float64's range."""

    # At 1e100 the JBLD Gram form computes only finite quantities, and the exact
    # value (test_oracle.py); AIRM's scatters, formed from the root of the centred
    # Gram matrix, are lost to rounding there.
    @pytest.mark.parametrize("scale, kind", [
        (scale, kind) for scale in (1e100, 1e155, 1e300) for kind in DistanceKind
        if (scale, kind) != (1e100, DistanceKind.JBLD)
    ])
    def test_typed_error_names_the_class(self, kind, scale, rng):
        from spdalign.checks import _ClassifierPair

        # 8-dim features, 2 classes, 3 source and 2 target columns per class.
        block_s = FeatureBlock(scale * rng.normal(size=(8, 6)), np.repeat([0, 1], 3))
        block_t = FeatureBlock(scale * rng.normal(size=(8, 4)), np.repeat([0, 1], 2))
        zero = Classifier(np.zeros((8, 2)), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpdAlignError, match=r"^class [01]: "):
                total_objective(_ClassifierPair(zero, zero), block_s, block_t,
                                config_for(kind, c=2))

    # Gram entries of 2.5e307 are finite, and so is the centred Gram matrix, 2.5e307
    # in its one source direction. Past it, each kind overflows at a stage of its own
    # route: the Frobenius term squares 2.5e307; the JBLD Sylvester matrix divides it
    # by eps = 1e-300; the AIRM source scatter of 2.5e307 plus eps = 1.7e308 is not
    # finite. With sigma2 = 1.7e308, 2 sigma2 / C overflows, so the mean part of the
    # gradient operator does.
    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("stages", [
        {DistanceKind.FROBENIUS: ({"eps": 1.7e308}, "squared frobenius distance"),
         DistanceKind.JBLD: ({"eps": 1e-300}, "regularized Sylvester matrix"),
         DistanceKind.AIRM: ({"eps": 1.7e308}, "regularized scatter")},
        dict.fromkeys(DistanceKind, ({"sigma1": 0.0, "sigma2": 1.7e308}, "gradient operator")),
    ], ids=["scatter", "operator"])
    def test_overflow_past_the_gram_names_the_class(self, kind, stages):
        from spdalign.checks import _ClassifierPair

        config, message = stages[kind]

        block_s = FeatureBlock(5e153 * np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros(2, int))
        block_t = FeatureBlock(np.array([[0.0], [1.0]]), np.zeros(1, int))
        zero = Classifier(np.zeros((2, 1)), np.zeros(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpdAlignError, match=f"^class 0: {message} overflows float64$"):
                total_objective(_ClassifierPair(zero, zero), block_s, block_t,
                                config_for(kind, **config))


def _class_count(labels_s, labels_t):
    return int(max(labels_s.max(), labels_t.max())) + 1
