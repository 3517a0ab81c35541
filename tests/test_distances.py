"""Distance values, gradients, and the invariances the three kinds promise."""

import warnings

import numpy as np
import pytest

from spdalign.checks import (
    central_difference,
    random_rotation,
    random_spd,
    relative_gap,
)
from spdalign.distances import DistanceKind, batch_dist_sq, dist_sq, grad_dist_sq
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
    "jbld-value": (SingularityError, "logdet overflowed", lambda: dist_sq(DistanceKind.JBLD, HUGE, HUGE)),
    "jbld-grad": (SingularityError, "logdet overflowed",
                  lambda: grad_dist_sq(DistanceKind.JBLD, HUGE, HUGE)),
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
