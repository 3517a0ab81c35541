"""The trial harness behind gradcheck and invariance: no PASS without evidence."""

import numpy as np
import pytest

from spdalign import checks
from spdalign.align import AlignConfig, alignment_loss
from spdalign.checks import (
    check_coincidence,
    check_distance_gradients,
    check_objective,
    check_rotation_invariance,
    check_scatter_chain,
    check_triangle_inequality,
    relative_gap,
    run_gradient_checks,
    run_invariance_checks,
)
from spdalign.distances import DistanceKind
from spdalign.errors import NumericalError, ParameterError


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("check", [
    lambda n, rng: check_distance_gradients(DistanceKind.JBLD, n, rng),
    lambda n, rng: check_scatter_chain(DistanceKind.FROBENIUS, n, rng),
    lambda n, rng: check_objective(DistanceKind.AIRM, n, rng),
    lambda n, rng: check_rotation_invariance(DistanceKind.AIRM, n, rng),
    lambda n, rng: check_triangle_inequality(n, rng),
    lambda n, rng: check_coincidence(DistanceKind.FROBENIUS, n, rng),
], ids=["distance", "scatter", "objective", "rotation", "triangle", "coincidence"])
def test_count_below_one_is_rejected(check, count):
    with pytest.raises(ParameterError, match=f"trial count must be at least 1, got {count}"):
        check(count, np.random.default_rng(0))


@pytest.mark.parametrize("run", [
    lambda: run_gradient_checks([DistanceKind.JBLD], trials=0, seed=0),
    lambda: run_gradient_checks(list(DistanceKind), trials=-5, seed=0),
    lambda: run_invariance_checks(trials=0, seed=0, triples=0),
    lambda: run_invariance_checks(trials=1, seed=0, triples=0),
], ids=["gradcheck-zero", "gradcheck-negative", "invariance-zero", "triples-zero"])
def test_suites_reject_empty_runs(run):
    with pytest.raises(ParameterError, match="trial count must be at least 1"):
        run()


def test_central_difference_of_a_quadratic(rng):
    # f(x) = <x, A x> / 2 + <c, x> has gradient sym(A) x + c; central differences are exact
    # on a quadratic up to roundoff.
    a = rng.normal(size=(6, 6))
    c = rng.normal(size=(2, 3))
    x = rng.normal(size=(2, 3))
    before = x.copy()
    grad = checks.central_difference(lambda y: 0.5 * y.ravel() @ a @ y.ravel() + np.sum(c * y), x)
    np.testing.assert_array_equal(x, before)
    np.testing.assert_allclose(grad, (0.5 * (a + a.T) @ x.ravel()).reshape(2, 3) + c, rtol=0, atol=1e-8)


def test_slot_differences_hold_the_other_slots_fixed(rng):
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 2))
    fd_a, fd_b = checks._slot_differences(lambda x, y: float(np.sum(x * y)), [a, b])
    np.testing.assert_allclose(fd_a, b, rtol=0, atol=1e-9)
    np.testing.assert_allclose(fd_b, a, rtol=0, atol=1e-9)


def test_nan_gap_fails_its_component(monkeypatch, rng):
    monkeypatch.setattr(
        checks, "central_difference", lambda f, x, step=checks.FD_STEP: np.full(np.shape(x), np.nan)
    )
    report = check_scatter_chain(DistanceKind.JBLD, 2, rng)
    assert np.isnan(report.max_gap)
    assert not report.passed


def test_nan_deviation_is_not_stepped_over(monkeypatch, rng):
    monkeypatch.setattr(checks, "_rel_dev", lambda x, y: np.nan)
    report = check_rotation_invariance(DistanceKind.FROBENIUS, 3, rng)
    assert np.isnan(report.max_gap)
    assert not report.passed


def test_negative_deviations_report_zero(rng):
    # The triangle check reports violations; a satisfied inequality reads +0.
    report = check_triangle_inequality(5, rng)
    assert report.max_gap == 0.0 and not np.signbit(report.max_gap)
    assert report.passed


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_analytic_gradient_is_typed(value):
    with pytest.raises(NumericalError, match="^analytic gradient contains non-finite entries$"):
        relative_gap(np.array([1.0, value]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("kind", list(DistanceKind))
@pytest.mark.parametrize("sigma1, sigma2", [(1.0, 0.0), (0.0, 1.0), (0.7, 0.4)],
                         ids=["sigma1", "sigma2", "both"])
@pytest.mark.parametrize("dim, n_s, n_t",
                         [(8, 3, 2), (3, 5, 4), (6, 1, 3), (2, 1, 5), (6, 3, 1), (2, 5, 1)],
                         ids=["d>k-2", "d<k-2", "N=1", "N=1,d<k-2", "N*=1", "N*=1,d<k-2"])
def test_one_class_grads_equal_the_adapter(kind, sigma1, sigma2, dim, n_s, n_t, rng):
    """The stack of one that gradcheck hands the kernel gives alignment_loss's gradients."""
    config = AlignConfig(sigma1=sigma1, sigma2=sigma2, eta=0.0, kind=kind, class_count=1, eps=1e-2)
    phi_s, phi_t = rng.normal(size=(dim, n_s)), rng.normal(size=(dim, n_t))
    grad_s, grad_t = checks._one_class_grads(config, phi_s, phi_t)
    result = alignment_loss([(phi_s, phi_t)], config)
    assert np.array_equal(grad_s, result.grads_source[0])
    assert np.array_equal(grad_t, result.grads_target[0])
