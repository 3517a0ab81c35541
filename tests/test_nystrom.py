"""Feature maps, the exact isometric reduction, and gradient back-projection."""

import numpy as np
import pytest

from spdalign.bench import projected_distance_eval
from spdalign.checks import central_difference, projected_distance_grads, relative_gap
from spdalign.distances import DistanceKind, dist_sq
from spdalign.errors import DimensionError
from spdalign.nystrom import Projection, backproject_grad, isometric_project, nystrom_map
from spdalign.scatter import mean_and_scatter
from spdalign.spd import SymMatrix, regularize


def scatter_of(columns):
    return SymMatrix(mean_and_scatter(columns)[1])


class TestNystromMap:
    def test_orthonormal_pivots_give_identity(self):
        z = np.eye(2)
        out = nystrom_map(z, z)
        assert np.abs(out - np.eye(2)).max() < 1e-9

    def test_self_pivots_reproduce_gram_exactly(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, d + 1))
            x = rng.normal(size=(d, n))
            mapped = nystrom_map(x, x)
            assert np.abs(mapped.T @ mapped - x.T @ x).max() <= 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
    def test_self_pivots_reproduce_gram_at_every_scale(self, scale, rng):
        # Relative to the Gram matrix, so that an absolute error floor shows at small scales.
        for _ in range(25):
            d = int(rng.integers(2, 12))
            x = scale * rng.normal(size=(d, int(rng.integers(1, d + 4))))
            mapped = nystrom_map(x, x)
            gram = x.T @ x
            assert np.abs(mapped.T @ mapped - gram).max() <= 1e-12 * np.abs(gram).max()

    def test_single_pivot_hand_value(self):
        z = np.array([[1.0], [0.0]])
        x = np.eye(2)
        out = nystrom_map(z, x)
        assert out == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-9)

    def test_duplicate_pivots_take_the_pseudo_inverse(self):
        z = np.ones((3, 2))
        x = np.eye(3)
        out = nystrom_map(z, x)
        assert np.isfinite(out).all()
        assert np.abs(out.T @ out - (z.T @ x).T @ np.linalg.pinv(z.T @ z) @ (z.T @ x)).max() < 1e-12

    def test_singular_pivots_reproduce_their_gram(self):
        # K_ZZ = 1e16 * ones((2, 2)) has an exactly zero eigenvalue.
        z = np.array([[1e8, 1e8]])
        mapped = nystrom_map(z, z)
        assert np.abs(mapped.T @ mapped - z.T @ z).max() <= 1e-12 * 1e16

    def test_empty_pivots_rejected(self):
        with pytest.raises(DimensionError, match="^need at least one pivot column$"):
            nystrom_map(np.ones((2, 0)), np.ones((2, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nystrom_map(np.ones((2, 1)), np.ones((3, 1)))

    @pytest.mark.parametrize("pivots, data", [
        (np.ones((2, 1)), np.array([[np.inf], [1.0]])),
        (np.array([[np.nan], [1.0]]), np.ones((2, 1))),
    ], ids=["inf-data", "nan-pivot"])
    def test_non_finite_input_rejected(self, pivots, data):
        with pytest.raises(DimensionError, match="^pivots or data contain non-finite entries$"):
            nystrom_map(pivots, data)


class TestIsometricProject:
    def test_orthonormal_columns_give_identity_gram(self):
        phi_s = np.array([[1.0], [0.0], [0.0]])
        phi_t = np.array([[0.0], [1.0], [0.0]])
        red_s, red_t, proj = isometric_project(phi_s, phi_t)
        assert red_s == pytest.approx(np.array([[1.0], [0.0]]), abs=1e-12)
        assert red_t == pytest.approx(np.array([[0.0], [1.0]]), abs=1e-12)
        assert proj.reduced_dim == 2 and proj.ambient_dim == 3

    def test_gram_preserved(self, rng):
        for _ in range(25):
            d = int(rng.integers(4, 40))
            n_s = int(rng.integers(1, 5))
            n_t = int(rng.integers(1, 5))
            phi_s = rng.normal(size=(d, n_s))
            phi_t = rng.normal(size=(d, n_t))
            red_s, red_t, _ = isometric_project(phi_s, phi_t)
            x = np.concatenate([phi_s, phi_t], axis=1)
            y = np.concatenate([red_s, red_t], axis=1)
            assert np.abs(y.T @ y - x.T @ x).max() < 1e-9 * max(1.0, np.abs(x.T @ x).max())

    def test_single_column_reduces_to_norm(self, rng):
        v = rng.normal(size=(7, 1))
        red_s, red_t, _ = isometric_project(v, np.empty((7, 0)))
        assert red_s == pytest.approx(np.array([[np.linalg.norm(v)]]))
        assert red_t.shape == (1, 0)

    def test_projector_rows_orthonormal(self, rng):
        for _ in range(10):
            d = 64
            phi_s = rng.normal(size=(d, 5))
            phi_t = rng.normal(size=(d, 3))
            _, _, proj = isometric_project(phi_s, phi_t)
            gram = proj.projector @ proj.projector.T
            assert np.abs(gram - np.eye(proj.reduced_dim)).max() < 1e-7

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("stream", ["source", "target"])
    def test_non_finite_input_rejected(self, stream, value):
        bad = np.array([[1.0, value], [0.0, 1.0]])
        phi_s, phi_t = (bad, np.eye(2)) if stream == "source" else (np.eye(2), bad)
        with pytest.raises(DimensionError, match="^feature blocks contain non-finite entries$"):
            isometric_project(phi_s, phi_t)

    def test_rank_deficient_duplicate_columns(self):
        v = np.array([[1.0], [2.0]])
        phi_s = np.concatenate([v, v], axis=1)  # duplicated column
        red_s, red_t, proj = isometric_project(phi_s, np.empty((2, 0)))
        x = phi_s
        assert np.abs(red_s.T @ red_s - x.T @ x).max() < 1e-9
        assert np.isfinite(proj.projector).all()

    def test_isometry_of_distances_high_dimension(self, rng):
        # d = 512, N = 12, N* = 8, same eps on both sides, all three kinds.
        eps = 1e-6
        for _ in range(3):
            phi_s = rng.normal(size=(512, 12))
            phi_t = rng.normal(size=(512, 8))
            red_s, red_t, _ = isometric_project(phi_s, phi_t)
            for kind in DistanceKind:
                ambient = dist_sq(
                    kind,
                    regularize(scatter_of(phi_s), eps),
                    regularize(scatter_of(phi_t), eps),
                )
                reduced = dist_sq(
                    kind,
                    regularize(scatter_of(red_s), eps),
                    regularize(scatter_of(red_t), eps),
                )
                assert abs(ambient - reduced) <= 1e-7 * max(abs(ambient), abs(reduced))


class TestBackprojectGrad:
    def test_zero_gradient(self, rng):
        _, _, proj = isometric_project(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        out = backproject_grad(proj, np.zeros((4, 2)))
        assert np.abs(out).max() == 0.0

    def test_identity_projector_passthrough(self, rng):
        grad = rng.normal(size=(3, 4))
        proj = Projection(projector=np.eye(3))
        assert backproject_grad(proj, grad) == pytest.approx(grad)

    def test_dimension_mismatch(self, rng):
        _, _, proj = isometric_project(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        with pytest.raises(DimensionError):
            backproject_grad(proj, np.zeros((5, 2)))

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_full_pipeline_matches_finite_differences(self, kind, rng):
        worst = 0.0
        for _ in range(5):
            d = int(rng.integers(6, 12))
            n_s, n_t = 3, 2
            eps = float(10.0 ** rng.uniform(-3, -1))
            phi_s = rng.normal(size=(d, n_s))
            phi_t = rng.normal(size=(d, n_t))
            grad_s, grad_t = projected_distance_grads(kind, phi_s, phi_t, eps)
            fd_s = central_difference(
                lambda flat: projected_distance_eval(flat.reshape(d, n_s), phi_t, kind, eps), phi_s
            )
            fd_t = central_difference(
                lambda flat: projected_distance_eval(phi_s, flat.reshape(d, n_t), kind, eps), phi_t
            )
            worst = max(worst, relative_gap(grad_s, fd_s), relative_gap(grad_t, fd_t))
        assert worst < 1e-4
