"""Distance values, gradients, and the invariances the three kinds promise."""

import warnings

import mpmath
import numpy as np
import pytest

from spdalign.checks import (
    central_difference,
    random_rotation,
    random_spd,
    relative_gap,
)
from spdalign.distances import (
    DistanceKind, _cholesky_logdets, batch_dist_sq, dist_sq, grad_dist_sq, solve_triangular,
)
from spdalign.errors import DimensionError, NumericalError, ParameterError, SingularityError
from spdalign.spd import SymMatrix, regularize, spd_fn, symmetrize

ALL_KINDS = list(DistanceKind)
CURVED_KINDS = [DistanceKind.JBLD, DistanceKind.AIRM]


def one_by_one(x):
    return symmetrize([[float(x)]])


class TestParse:
    def test_names_are_case_and_space_insensitive(self):
        assert DistanceKind.parse(" JBLD ") is DistanceKind.JBLD

    def test_unknown_name_is_typed(self):
        with pytest.raises(ParameterError, match="unknown distance kind 'euclid'; expected one of"):
            DistanceKind.parse("euclid")


class TestValues:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identical_arguments_give_zero(self, kind):
        eye = symmetrize(np.eye(3))
        assert dist_sq(kind, eye, eye) == pytest.approx(0.0, abs=1e-12)

    def test_frobenius_single_entry(self):
        a = symmetrize(np.diag([3.0, 1.0]))
        assert dist_sq(DistanceKind.FROBENIUS, a, symmetrize(np.eye(2))) == 4.0

    def test_jbld_scalar_closed_form(self):
        value = dist_sq(DistanceKind.JBLD, one_by_one(1.0), one_by_one(4.0))
        assert value == pytest.approx(np.log(2.5) - 0.5 * np.log(4.0), abs=1e-12)
        assert value == pytest.approx(0.22314355, abs=1e-8)

    def test_airm_scalar_closed_form(self):
        value = dist_sq(DistanceKind.AIRM, one_by_one(1.0), one_by_one(np.e ** 2))
        assert value == pytest.approx(4.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonnegative_and_symmetric_in_arguments(self, kind, rng):
        for _ in range(25):
            side = int(rng.integers(2, 9))
            a = random_spd(rng, side)
            b = random_spd(rng, side)
            dab = dist_sq(kind, a, b)
            dba = dist_sq(kind, b, a)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-10 * max(1.0, abs(dab))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_side_mismatch(self, kind):
        with pytest.raises(DimensionError):
            dist_sq(kind, symmetrize(np.eye(2)), symmetrize(np.eye(3)))

    @pytest.mark.parametrize("kind", CURVED_KINDS)
    def test_singular_input_rejected(self, kind):
        singular = symmetrize(np.diag([1.0, 0.0]))
        with pytest.raises(SingularityError):
            dist_sq(kind, singular, symmetrize(np.eye(2)))


class TestGradients:
    def test_frobenius_scalar(self):
        ga, gb = grad_dist_sq(DistanceKind.FROBENIUS, one_by_one(2.0), one_by_one(1.0))
        assert ga.entries == pytest.approx(np.array([[2.0]]))
        assert gb.entries == pytest.approx(np.array([[-2.0]]))

    @pytest.mark.parametrize("kind", CURVED_KINDS)
    def test_zero_at_coincidence(self, kind, rng):
        s = random_spd(rng, 4)
        ga, gb = grad_dist_sq(kind, s, s)
        assert np.abs(ga.entries).max() < 1e-12
        assert np.abs(gb.entries).max() < 1e-12

    def test_jbld_scalar_value_frozen_from_fd_oracle(self):
        # Central differences of the scalar JBLD value at (1, 4):
        #   d/da [log((a+4)/2) - log(4a)/2] = 1/(a+4) - 1/(2a) = -0.3
        # (computed with the oracle below before freezing).
        ga, _ = grad_dist_sq(DistanceKind.JBLD, one_by_one(1.0), one_by_one(4.0))
        fd = central_difference(
            lambda v: dist_sq(DistanceKind.JBLD, one_by_one(v[0, 0]), one_by_one(4.0)),
            np.array([[1.0]]),
        )
        assert ga.entries == pytest.approx(np.array([[-0.3]]), abs=1e-12)
        assert fd == pytest.approx(np.array([[-0.3]]), abs=1e-8)

    def test_jbld_grad_b_scalar(self):
        _, gb = grad_dist_sq(DistanceKind.JBLD, one_by_one(1.0), one_by_one(4.0))
        assert gb.entries == pytest.approx(np.array([[1.0 / 5.0 - 1.0 / 8.0]]), abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradients_are_exactly_symmetric(self, kind, rng):
        a = random_spd(rng, 5)
        b = random_spd(rng, 5)
        ga, gb = grad_dist_sq(kind, a, b)
        assert np.array_equal(ga.entries, ga.entries.T)
        assert np.array_equal(gb.entries, gb.entries.T)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind, rng):
        # 100 random pairs, side <= 16, eigenvalues in [0.1, 10], step 1e-5.
        worst = 0.0
        for _ in range(100):
            side = int(rng.integers(2, 17))
            a = random_spd(rng, side)
            b = random_spd(rng, side)
            ga, gb = grad_dist_sq(kind, a, b)
            fd_a = central_difference(
                lambda flat: dist_sq(kind, symmetrize(flat.reshape(side, side)), b), a.entries
            )
            fd_b = central_difference(
                lambda flat: dist_sq(kind, a, symmetrize(flat.reshape(side, side))), b.entries
            )
            worst = max(worst, relative_gap(ga.entries, fd_a), relative_gap(gb.entries, fd_b))
        assert worst < 1e-4


class TestInvariances:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rotation_invariance(self, kind, rng):
        for _ in range(50):
            side = int(rng.integers(2, 9))
            a = random_spd(rng, side)
            b = random_spd(rng, side)
            rot = random_rotation(rng, side)
            base = dist_sq(kind, a, b)
            moved = dist_sq(
                kind,
                symmetrize(rot @ a.entries @ rot.T),
                symmetrize(rot @ b.entries @ rot.T),
            )
            assert abs(base - moved) <= 1e-8 * max(abs(base), 1e-30)

    @pytest.mark.parametrize("kind", CURVED_KINDS)
    def test_affine_invariance(self, kind, rng):
        for _ in range(50):
            side = int(rng.integers(2, 9))
            a = random_spd(rng, side)
            b = random_spd(rng, side)
            m = random_spd(rng, side, lo=0.5, hi=2.0).entries
            base = dist_sq(kind, a, b)
            moved = dist_sq(kind, symmetrize(m @ a.entries @ m.T), symmetrize(m @ b.entries @ m.T))
            assert abs(base - moved) <= 1e-7 * max(abs(base), 1e-30)

    @pytest.mark.parametrize("kind", CURVED_KINDS)
    def test_inversion_invariance(self, kind, rng):
        for _ in range(50):
            side = int(rng.integers(2, 9))
            a = random_spd(rng, side)
            b = random_spd(rng, side)
            base = dist_sq(kind, a, b)
            flipped = dist_sq(kind, spd_fn(a, "inv"), spd_fn(b, "inv"))
            assert abs(base - flipped) <= 1e-7 * max(abs(base), 1e-30)

    def test_airm_triangle_inequality_fuzz(self, rng):
        worst = -np.inf
        for _ in range(1000):
            side = int(rng.integers(2, 7))
            a = random_spd(rng, side)
            b = random_spd(rng, side)
            c = random_spd(rng, side)
            dab = np.sqrt(dist_sq(DistanceKind.AIRM, a, b))
            dbc = np.sqrt(dist_sq(DistanceKind.AIRM, b, c))
            dac = np.sqrt(dist_sq(DistanceKind.AIRM, a, c))
            worst = max(worst, dac - (dab + dbc))
        assert worst <= 1e-9


HUGE = SymMatrix(1.7e308 * np.eye(2))
SUBNORMAL = SymMatrix(5e-324 * np.eye(2))

# Finite operands whose distance, gradient or regularized diagonal leaves float64:
# (error, message start, call).
OVERFLOWS = {
    "frobenius-value": (NumericalError, "squared frobenius distance or its gradient overflows",
                        lambda: dist_sq(DistanceKind.FROBENIUS, HUGE, SymMatrix(-HUGE.entries))),
    "frobenius-grad": (NumericalError, "squared frobenius distance or its gradient overflows",
                       lambda: grad_dist_sq(DistanceKind.FROBENIUS, HUGE, SymMatrix(-HUGE.entries))),
    # SUBNORMAL^{-1} is beyond float64, so its gradient overflows; the value is finite.
    "jbld-grad": (NumericalError, "squared jbld distance or its gradient overflows",
                  lambda: grad_dist_sq(DistanceKind.JBLD, HUGE, SUBNORMAL)),
    "airm-grad": (NumericalError, "squared airm distance or its gradient overflows",
                  lambda: grad_dist_sq(DistanceKind.AIRM, HUGE, SUBNORMAL)),
    "airm-value-reversed": (SingularityError, "AIRM operand pair is numerically singular",
                            lambda: dist_sq(DistanceKind.AIRM, SUBNORMAL, HUGE)),
    "airm-grad-reversed": (SingularityError, "AIRM operand pair is numerically singular",
                           lambda: grad_dist_sq(DistanceKind.AIRM, SUBNORMAL, HUGE)),
    "regularize": (NumericalError, r"regularizing by eps=1\.7e\+308 overflows the diagonal$",
                   lambda: regularize(HUGE, 1.7e308)),
}


class TestOverflow:
    @pytest.mark.parametrize("mode", ["error", "always"], ids=["warnings-as-errors", "recorded"])
    @pytest.mark.parametrize("case", list(OVERFLOWS))
    def test_overflow_is_typed_without_warnings(self, case, mode):
        error, message, call = OVERFLOWS[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(mode)
            with pytest.raises(error, match=f"^{message}"):
                call()
        assert caught == []

    @pytest.mark.parametrize("mode", ["error", "always"], ids=["warnings-as-errors", "recorded"])
    def test_jbld_of_equal_huge_operands_is_zero(self, mode):
        # HUGE + HUGE overflows, but the midpoint is formed as HUGE / 2 + HUGE / 2.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(mode)
            value = dist_sq(DistanceKind.JBLD, HUGE, HUGE)
            grad_a, grad_b = grad_dist_sq(DistanceKind.JBLD, HUGE, HUGE)
        assert caught == []
        assert value == 0.0
        assert not grad_a.entries.any() and not grad_b.entries.any()

    def test_airm_batch_names_the_overflowing_pair(self):
        # L_A^{-1} L_B overflows for the second pair only; SVD of it used to raise numpy's LinAlgError.
        a = np.stack([np.eye(2), SUBNORMAL.entries])
        b = np.stack([2.0 * np.eye(2), HUGE.entries])
        with pytest.raises(SingularityError, match="^AIRM operand pair is numerically singular$") as info:
            batch_dist_sq(DistanceKind.AIRM, a, b)
        assert info.value.index == 1

    def test_airm_value_of_extreme_pair_is_finite(self):
        # Both eigenvalues of HUGE^-1 SUBNORMAL are 5e-324 / 1.7e308, below float64's range.
        value = dist_sq(DistanceKind.AIRM, HUGE, SUBNORMAL)
        assert value == pytest.approx(2.0 * (np.log(5e-324) - np.log(1.7e308)) ** 2, rel=1e-9)


class TestCholeskyStage:
    """The one Cholesky stage that JBLD's batched value and the objective's Gram-form JBLD share."""

    def test_matches_slogdet_and_inverse(self, rng):
        # Spectra in [0.01, 100]: condition number 1e4, so float64 inverses carry
        # errors near 1e4 * 1.1e-16 of their largest entry; 1e-10 leaves a wide margin.
        stack = np.stack([random_spd(rng, side=5, lo=0.01, hi=100.0).entries for _ in range(6)])
        logdets, inverses = _cholesky_logdets(stack, 3, with_inverse=True)
        signs, reference = np.linalg.slogdet(stack)
        assert (signs == 1.0).all()
        np.testing.assert_allclose(logdets, reference, rtol=1e-12, atol=1e-12)
        expected = np.linalg.inv(stack)
        np.testing.assert_allclose(inverses, expected, rtol=0, atol=1e-10 * np.abs(expected).max())
        bare, no_inverse = _cholesky_logdets(stack, 3, with_inverse=False)
        assert np.array_equal(bare, logdets) and no_inverse is None

    def test_failing_matrix_reports_its_pair_position(self):
        stack = np.stack([np.eye(3)] * 6)
        stack[4] = -np.eye(3)  # the second block of three, pair position 1
        with pytest.raises(SingularityError, match="^matrix is not positive definite") as info:
            _cholesky_logdets(stack, 3, with_inverse=True)
        assert info.value.index == 1


UNIT_ROUNDOFF = 2.0 ** -53


def graded_factor(rng, n, by_rows):
    """Lower-triangular factor whose diagonal spans 1e-8 to 1e8, shuffled.

    It is ``D M`` (``by_rows``) or ``M D``, with ``M`` unit lower triangular
    with N(0, 1/n^2) entries below the diagonal and ``D`` the graded diagonal.
    """
    diagonal = np.geomspace(1e-8, 1e8, n)[rng.permutation(n)]
    unit = np.eye(n) + np.tril(rng.normal(size=(n, n)) / n, -1)
    return diagonal[:, None] * unit if by_rows else unit * diagonal[None, :]


def solve_errors(lower, rhs, solution, transposed):
    """(componentwise backward error, componentwise forward error) of ``solution``, at 40 digits.

    The backward error is the largest ``|rhs - op(L) x|_i / (|op(L)| |x|)_i``
    over the entries (a zero denominator needs a zero residual); the forward
    error is the largest ``|x_i - x*_i| / |x*_i|`` against the solution x* that
    substitution at 40 digits computes (a zero x*_i needs a zero x_i).
    """
    op = lower.T if transposed else lower
    n = op.shape[0]
    order = range(n - 1, -1, -1) if transposed else range(n)
    backward = forward = 0.0
    with mpmath.mp.workdps(40):
        mp_op = mpmath.matrix(op.tolist())
        for column in range(rhs.shape[1]):
            b = [mpmath.mpf(v) for v in rhs[:, column]]
            x = [mpmath.mpf(v) for v in solution[:, column]]
            for i in range(n):
                residual = abs(b[i] - mpmath.fsum(mp_op[i, j] * x[j] for j in range(n)))
                scale = mpmath.fsum(abs(mp_op[i, j] * x[j]) for j in range(n))
                assert scale != 0 or residual == 0
                if scale != 0:
                    backward = max(backward, float(residual / scale))
            exact = [mpmath.mpf(0)] * n
            for i in order:
                known = range(i + 1, n) if transposed else range(i)
                exact[i] = (b[i] - mpmath.fsum(mp_op[i, j] * exact[j] for j in known)) / mp_op[i, i]
            for i in range(n):
                assert exact[i] != 0 or x[i] == 0
                if exact[i] != 0:
                    forward = max(forward, float(abs(x[i] - exact[i]) / abs(exact[i])))
    return backward, forward


class TestSolveTriangular:
    """Substitution, in any summation order, is componentwise backward stable
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 8): the
    computed x solves ``(L + dL) x = b`` with ``|dL| <= n u |L|`` to first order.
    AIRM's triangular route relies on that bound. Row scaling leaves the
    componentwise forward error unchanged, so the row-graded ``D M``, whose
    ``M`` is well conditioned, also gets forward errors of order ``n u``."""

    @pytest.mark.parametrize("transposed", [False, True], ids=["plain", "transposed"])
    @pytest.mark.parametrize("n", [1, 2, 13, 32, 33, 80])
    @pytest.mark.parametrize("by_rows", [True, False], ids=["row-graded", "column-graded"])
    def test_matches_high_precision_reference(self, n, transposed, by_rows):
        rng = np.random.default_rng([n, transposed, by_rows])
        lower = graded_factor(rng, n, by_rows)
        rhs = rng.normal(size=(n, 3))
        backward, forward = solve_errors(lower, rhs, solve_triangular(lower, rhs, transposed),
                                         transposed)
        assert backward <= 2 * n * UNIT_ROUNDOFF
        if by_rows:
            assert forward <= 4 * n * UNIT_ROUNDOFF

    @pytest.mark.parametrize("transposed", [False, True], ids=["plain", "transposed"])
    def test_stack_with_broadcast_identity_is_left_unchanged(self, transposed):
        rng = np.random.default_rng(7)
        lower = np.stack([graded_factor(rng, 13, by_rows) for by_rows in (True, False, True)])
        lower_before = lower.copy()
        rhs = np.broadcast_to(np.eye(13), lower.shape)
        assert not rhs.flags.writeable
        inverses = solve_triangular(lower, rhs, transposed)
        assert np.array_equal(lower, lower_before)
        assert np.array_equal(rhs, np.broadcast_to(np.eye(13), lower.shape))
        assert inverses.shape == lower.shape and inverses.flags.writeable
        for factor, inverse in zip(lower, inverses):
            backward, _ = solve_errors(factor, np.eye(13), inverse, transposed)
            assert backward <= 2 * 13 * UNIT_ROUNDOFF

    @pytest.mark.parametrize("transposed", [False, True], ids=["plain", "transposed"])
    def test_overflowing_solution_is_non_finite_without_warnings(self, transposed):
        lower = np.array([[1e-300, 0.0], [1.0, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_triangular(lower, np.full((2, 1), 1e300), transposed)
        assert not np.isfinite(solution).all()
