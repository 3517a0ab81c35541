"""The trial harness behind gradcheck and invariance: no PASS without evidence."""

import numpy as np
import pytest

from spdalign import checks
from spdalign.checks import (
    check_coincidence,
    check_distance_gradients,
    check_objective,
    check_rotation_invariance,
    check_scatter_chain,
    check_triangle_inequality,
    run_gradient_checks,
    run_invariance_checks,
)
from spdalign.distances import DistanceKind
from spdalign.errors import ParameterError


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("check", [
    lambda n, rng: check_distance_gradients(DistanceKind.JBLD, n, rng),
    lambda n, rng: check_scatter_chain(DistanceKind.FROBENIUS, n, rng, corrupt="scatter/frobenius"),
    lambda n, rng: check_objective(DistanceKind.AIRM, n, rng),
    lambda n, rng: check_rotation_invariance(DistanceKind.AIRM, n, rng),
    lambda n, rng: check_triangle_inequality(n, rng),
    lambda n, rng: check_coincidence(DistanceKind.FROBENIUS, n, rng),
], ids=["distance", "scatter-corrupt", "objective", "rotation", "triangle", "coincidence"])
def test_count_below_one_is_rejected(check, count):
    with pytest.raises(ParameterError, match=f"trial count must be at least 1, got {count}"):
        check(count, np.random.default_rng(0))


@pytest.mark.parametrize("run", [
    lambda: run_gradient_checks([DistanceKind.JBLD], trials=0, seed=0),
    lambda: run_gradient_checks(list(DistanceKind), trials=-5, seed=0, corrupt="scatter/jbld"),
    lambda: run_invariance_checks(trials=0, seed=0, triples=0),
    lambda: run_invariance_checks(trials=1, seed=0, triples=0),
], ids=["gradcheck-zero", "gradcheck-negative-corrupt", "invariance-zero", "triples-zero"])
def test_suites_reject_empty_runs(run):
    with pytest.raises(ParameterError, match="trial count must be at least 1"):
        run()


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
