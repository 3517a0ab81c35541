"""Objective components: cross-entropy, proximity, alignment."""

import numpy as np
import pytest

from spdalign.align import (
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
from spdalign.errors import DimensionError, LabelError, ParameterError
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
        value, gw, gw_star = proximity(w, w, 1.0)
        assert value == 0.0
        assert np.abs(gw).max() == 0.0 and np.abs(gw_star).max() == 0.0

    def test_eta_zero_switches_off(self, rng):
        a = Classifier(rng.normal(size=(3, 2)), np.zeros(2))
        b = Classifier(rng.normal(size=(3, 2)), np.zeros(2))
        value, gw, gw_star = proximity(a, b, 0.0)
        assert value == 0.0 and np.abs(gw).max() == 0.0

    def test_scalar_hand_value(self):
        a = Classifier(np.array([[2.0]]), np.zeros(1))
        b = Classifier(np.array([[0.0]]), np.zeros(1))
        value, gw, gw_star = proximity(a, b, 1.0)
        assert value == pytest.approx(4.0)
        assert gw == pytest.approx(np.array([[4.0]]))
        assert gw_star == pytest.approx(np.array([[-4.0]]))

    def test_bias_excluded(self):
        a = Classifier(np.zeros((1, 1)), np.array([7.0]))
        b = Classifier(np.zeros((1, 1)), np.array([-7.0]))
        value, _, _ = proximity(a, b, 1.0)
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


def _class_count(labels_s, labels_t):
    return int(max(labels_s.max(), labels_t.max())) + 1
