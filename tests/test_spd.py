"""Symmetric-matrix primitives against hand values and independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdalign.checks import random_spd
from spdalign.distances import DistanceKind, dist_sq
from spdalign.errors import DimensionError, ParameterError, SingularityError
from spdalign.spd import SymMatrix, eig_sym, logdet, regularize, spd_fn, symmetrize


def cofactor_det(m: np.ndarray) -> float:
    """Independent determinant oracle: recursive cofactor expansion."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * cofactor_det(minor)
    return total


class TestSymmetrize:
    def test_identity_fixed_point(self):
        out = symmetrize(np.eye(3))
        assert np.array_equal(out.entries, np.eye(3))

    def test_upper_triangular(self):
        out = symmetrize([[0.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(out.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_mixed_entries(self):
        out = symmetrize([[1.0, 5.0], [3.0, 1.0]])
        assert np.array_equal(out.entries, [[1.0, 4.0], [4.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            symmetrize(np.ones((2, 3)))

    def test_constructor_rejects_asymmetry(self):
        with pytest.raises(DimensionError):
            SymMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_constructor_rejects_non_finite(self, value):
        # NaN != NaN, so without this rule a NaN matrix fails as "not exactly symmetric".
        with pytest.raises(DimensionError, match="^matrix contains non-finite entries$"):
            SymMatrix(np.array([[1.0, value], [value, 1.0]]))

    def test_distance_to_infinite_matrix_is_typed(self):
        with pytest.raises(DimensionError, match="non-finite entries"):
            dist_sq(DistanceKind.FROBENIUS, SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, np.inf])))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_exact_symmetry_for_random_matrices(self, seed):
        m = np.random.default_rng(seed).normal(size=(5, 5))
        out = symmetrize(m).entries
        assert np.array_equal(out, out.T)
        # idempotent on its own output
        assert np.array_equal(symmetrize(out).entries, out)


class TestRegularize:
    def test_zero_matrix(self):
        out = regularize(symmetrize(np.zeros((2, 2))), 1e-6)
        assert np.array_equal(out.entries, 1e-6 * np.eye(2))

    def test_identity(self):
        out = regularize(symmetrize(np.eye(2)), 0.5)
        assert np.array_equal(out.entries, 1.5 * np.eye(2))

    def test_diagonal(self):
        out = regularize(symmetrize(np.diag([1.0, 0.0])), 1e-6)
        assert np.array_equal(out.entries, np.diag([1.0 + 1e-6, 1e-6]))

    @pytest.mark.parametrize("eps", [0.0, -1e-3])
    def test_rejects_nonpositive_eps(self, eps):
        with pytest.raises(ParameterError, match=f"^eps must be positive, got {eps}$") as info:
            regularize(symmetrize(np.eye(2)), eps)
        assert info.value.name == "eps"

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ParameterError, match=f"^eps must be finite, got {eps}$") as info:
            regularize(symmetrize(np.eye(2)), eps)
        assert info.value.name == "eps"

    def test_makes_psd_strictly_positive(self, rng):
        for _ in range(20):
            cols = rng.normal(size=(4, 2))
            psd = symmetrize(cols @ cols.T)  # rank <= 2, so singular
            out = regularize(psd, 1e-6)
            assert np.linalg.eigvalsh(out.entries)[0] > 0


class TestEigSym:
    def test_diagonal(self):
        values, vectors = eig_sym(symmetrize(np.diag([2.0, 5.0])))
        assert np.allclose(values, [2.0, 5.0])
        # eigenvectors are signed permutations of identity columns
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_identity(self):
        values, _ = eig_sym(symmetrize(np.eye(4)))
        assert np.allclose(values, np.ones(4))

    def test_two_by_two_hand_value(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 -> l in {1, 3}
        values, _ = eig_sym(symmetrize([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(values, [1.0, 3.0], atol=1e-12)

    def test_invariants_on_random_spd(self, rng):
        for _ in range(30):
            side = int(rng.integers(2, 65))
            s = random_spd(rng, side)
            values, vectors = eig_sym(s)
            assert np.all(np.diff(values) >= 0)
            gram = vectors.T @ vectors
            assert np.abs(gram - np.eye(side)).max() < 1e-10
            rebuilt = (vectors * values) @ vectors.T
            rel = np.linalg.norm(rebuilt - s.entries) / np.linalg.norm(s.entries)
            assert rel < 1e-9


class TestSpdFn:
    def test_sqrt_of_scaled_identity(self):
        out = spd_fn(symmetrize(4.0 * np.eye(2)), "sqrt")
        assert np.allclose(out.entries, 2.0 * np.eye(2), atol=1e-12)

    def test_log_scalar(self):
        out = spd_fn(symmetrize([[np.e]]), "log")
        assert np.allclose(out.entries, [[1.0]], atol=1e-12)

    def test_inverse_by_adjugate(self):
        out = spd_fn(symmetrize([[2.0, 1.0], [1.0, 2.0]]), "inv")
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.abs(out.entries - expected).max() < 1e-12

    def test_sqrt_roundtrip(self, rng):
        for _ in range(20):
            side = int(rng.integers(2, 65))
            s = random_spd(rng, side)
            root = spd_fn(s, "sqrt")
            rebuilt = root.entries @ root.entries
            rel = np.linalg.norm(rebuilt - s.entries) / np.linalg.norm(s.entries)
            assert rel < 1e-8

    def test_invsqrt_whitens(self, rng):
        for _ in range(20):
            side = int(rng.integers(2, 65))
            s = random_spd(rng, side)
            w = spd_fn(s, "invsqrt")
            assert np.abs(w.entries @ s.entries @ w.entries - np.eye(side)).max() < 1e-8

    def test_floor_raises_singularity(self):
        nearly_singular = symmetrize(np.diag([1.0, 1e-13]))
        with pytest.raises(SingularityError, match="smallest eigenvalue is .*e-1[34]"):
            spd_fn(nearly_singular, "sqrt")

    def test_unknown_function_name(self):
        with pytest.raises(ParameterError):
            spd_fn(symmetrize(np.eye(2)), "exp")

    def test_result_exactly_symmetric(self, rng):
        s = random_spd(rng, 7)
        out = spd_fn(s, "invsqrt").entries
        assert np.array_equal(out, out.T)


class TestLogdet:
    def test_identity(self):
        assert logdet(symmetrize(np.eye(5))) == 0.0

    def test_diagonal(self):
        assert abs(logdet(symmetrize(np.diag([2.0, 3.0]))) - np.log(6.0)) < 1e-12

    def test_scalar(self):
        assert abs(logdet(symmetrize([[np.e ** 2]])) - 2.0) < 1e-12

    def test_matches_cofactor_oracle(self, rng):
        for _ in range(40):
            side = int(rng.integers(1, 5))
            s = random_spd(rng, side)
            expected = np.log(cofactor_det(s.entries))
            assert abs(logdet(s) - expected) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(SingularityError):
            logdet(symmetrize(np.diag([1.0, -1.0])))

    def test_rejects_singular(self):
        with pytest.raises(SingularityError):
            logdet(symmetrize(np.diag([1.0, 0.0])))
