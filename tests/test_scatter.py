"""Feature blocks, the scatter builder, the feature-space chain rule, and the mean term."""

import warnings

import numpy as np
import pytest

from spdalign.align import AlignConfig, alignment_loss
from spdalign.checks import central_difference, relative_gap
from spdalign.distances import DistanceKind, dist_sq, grad_dist_sq
from spdalign.errors import DimensionError, EmptyClassError
from spdalign.scatter import FeatureBlock, _feature_grad, mean_and_scatter
from spdalign.spd import SymMatrix, regularize


def regularized_scatter(columns, eps):
    return regularize(SymMatrix(mean_and_scatter(columns)[1]), eps)


class TestFeatureBlock:
    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DimensionError):
            FeatureBlock(np.ones((2, 3)), np.zeros(2, dtype=int))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            FeatureBlock(np.array([[1.0, np.nan]]), np.zeros(2, dtype=int))

    def test_rejects_negative_labels(self):
        with pytest.raises(DimensionError):
            FeatureBlock(np.ones((1, 1)), np.array([-1]))

    def test_rejects_fractional_labels(self):
        for labels in ([0.5, 1.7], [0.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(DimensionError, match="whole numbers"):
                FeatureBlock(np.ones((1, 2)), np.array(labels))

    def test_rejects_labels_beyond_int64(self):
        for labels in (np.array([1e30, 0.0]), np.array([-1e30, 0.0]), np.array([2.0**63, 0.0]),
                       np.array([2**63, 0], dtype=np.uint64)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DimensionError, match="64-bit"):
                    FeatureBlock(np.ones((1, 2)), labels)

    def test_accepts_integral_float_labels(self):
        block = FeatureBlock(np.ones((1, 2)), np.array([1.0, 0.0]))
        assert block.labels.dtype == np.int64
        assert block.labels.tolist() == [1, 0]


class TestMeanAndScatter:
    def test_single_column_has_zero_scatter(self):
        v = np.array([[1.0], [2.0], [3.0]])
        mean, scatter = mean_and_scatter(v)
        assert np.allclose(mean, [1.0, 2.0, 3.0])
        assert np.abs(scatter).max() == 0.0

    def test_one_dimensional_hand_value(self):
        # (1 + 9)/2 - 2^2 = 1
        mean, scatter = mean_and_scatter(np.array([[1.0, 3.0]]))
        assert mean == pytest.approx([2.0])
        assert scatter == pytest.approx(np.array([[1.0]]))

    def test_identical_columns_give_zero_scatter(self):
        _, scatter = mean_and_scatter(np.array([[2.0, 2.0], [5.0, 5.0]]))
        assert np.abs(scatter).max() == 0.0

    def test_empty_class_errors(self):
        with pytest.raises(EmptyClassError):
            mean_and_scatter(np.empty((3, 0)))
        with pytest.raises(EmptyClassError):
            mean_and_scatter(np.empty((2, 3, 0)))

    def test_population_normalization(self, rng):
        cols = rng.normal(size=(3, 5))
        _, scatter = mean_and_scatter(cols)
        mu = cols.mean(axis=1)
        expected = cols @ cols.T / 5 - np.outer(mu, mu)
        assert np.abs(scatter - expected).max() < 1e-12

    def test_scatter_is_psd_up_to_rounding(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            _, scatter = mean_and_scatter(rng.normal(size=(d, n)))
            assert np.array_equal(scatter, scatter.T)
            assert np.linalg.eigvalsh(scatter)[0] >= -1e-9

    def test_translation_covariance(self, rng):
        cols = rng.normal(size=(4, 6))
        shift = rng.normal(size=4)
        base_mean, base_scatter = mean_and_scatter(cols)
        moved_mean, moved_scatter = mean_and_scatter(cols + shift[:, None])
        assert np.abs(base_scatter - moved_scatter).max() < 1e-10
        assert moved_mean == pytest.approx(base_mean + shift)

    def test_stack_slices_equal_single_class_calls(self, rng):
        # The kernel builds a whole shape group at once; each class must get
        # bit for bit what a call on that class alone gives, views included.
        for _ in range(25):
            g, d, n = (int(v) for v in rng.integers(1, 9, size=3))
            scale = 10.0 ** rng.uniform(-3, 3)
            for stack in (rng.normal(size=(g, d, n)) * scale,
                          (rng.normal(size=(g, d, n + 3)) * scale)[:, :, 2:-1]):
                means, scatters = mean_and_scatter(stack)
                assert means.shape == (g, d) and scatters.shape == (g, d, d)
                assert np.array_equal(scatters, np.swapaxes(scatters, 1, 2))
                for i in range(g):
                    mean, scatter = mean_and_scatter(stack[i])
                    assert np.array_equal(means[i], mean)
                    assert np.array_equal(scatters[i], scatter)

    def test_rejects_a_single_vector(self):
        with pytest.raises(DimensionError):
            mean_and_scatter(np.ones(3))


class TestGradWrtFeatures:
    """The chain rule (2/N) G (Phi - mu 1^T) that the alignment kernel runs."""

    def test_zero_gradient_propagates_zero(self):
        cols = np.ones((2, 3))
        out = _feature_grad(np.zeros((2, 2)), cols, mean_and_scatter(cols)[0])
        assert np.abs(out).max() == 0.0

    def test_single_column_centering_annihilates(self, rng):
        cols = rng.normal(size=(3, 1))
        out = _feature_grad(np.eye(3), cols, mean_and_scatter(cols)[0])
        assert np.abs(out).max() < 1e-15

    def test_one_dimensional_hand_value(self):
        cols = np.array([[1.0, 3.0]])
        out = _feature_grad(np.array([[1.0]]), cols, mean_and_scatter(cols)[0])
        assert out == pytest.approx(np.array([[-1.0, 1.0]]))

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_end_to_end_feature_gradient(self, kind, rng):
        # Composite Phi -> d^2(S(Phi)+eps I, fixed) checked per kind, d<=8, N<=6.
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(2, 7))
            eps = float(10.0 ** rng.uniform(-3, -1))
            phi = rng.normal(size=(d, n))
            fixed = regularized_scatter(rng.normal(size=(d, n + d)), eps)

            def value(cols):
                return dist_sq(kind, regularized_scatter(cols, eps), fixed)

            ga, _ = grad_dist_sq(kind, regularized_scatter(phi, eps), fixed)
            analytic = _feature_grad(ga.entries, phi, mean_and_scatter(phi)[0])
            fd = central_difference(lambda flat: value(flat.reshape(d, n)), phi)
            worst = max(worst, relative_gap(analytic, fd))
        assert worst < 1e-4


class TestMeanAlign:
    """The mean term of :func:`alignment_loss`, ||mu - mu*||^2 per class."""

    config = AlignConfig(sigma1=0.0, sigma2=1.0, eta=0.0, kind=DistanceKind.FROBENIUS,
                         class_count=1)

    def test_hand_value_with_counts(self):
        # mean 2 over N = 2 source columns, mean 0 over N* = 1 target column
        result = alignment_loss([(np.array([[1.0, 3.0]]), np.array([[0.0]]))], self.config)
        assert result.mean_term == pytest.approx(4.0)
        assert result.grads_source[0] == pytest.approx(np.array([[2.0, 2.0]]))
        assert result.grads_target[0] == pytest.approx(np.array([[-4.0]]))

    def test_swapping_streams_negates_gradients(self, rng):
        # With equal counts, each slot's gradient flips sign under a swap.
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        ab = alignment_loss([(a, b)], self.config)
        ba = alignment_loss([(b, a)], self.config)
        assert ab.mean_term == pytest.approx(ba.mean_term)
        assert ab.grads_source[0] == pytest.approx(-ba.grads_source[0])
        assert ab.grads_target[0] == pytest.approx(-ba.grads_target[0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            alignment_loss([(np.ones((2, 2)), np.ones((3, 2)))], self.config)
