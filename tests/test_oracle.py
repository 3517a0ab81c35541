"""High-precision reference for the alignment kernel's values and feature gradients.

The reference works in the ambient dimension at 40 significant digits (more
where the spectra span more): it builds both eps-regularized scatters,
evaluates the distance with the textbook formulas, and pulls the matrix
gradient back to the columns with (2/N) G (Phi - mu 1^T). No part of the
kernel's route is involved (the centred Gram matrix, its root for AIRM, and
the Cholesky-SVD of AIRM), so agreement checks that route for every kind.
"""

import mpmath
import numpy as np
import pytest

from spdalign.align import AlignConfig, alignment_loss
from spdalign.distances import DistanceKind

mp = mpmath.mp

DIGITS = 40
TOLERANCE = 1e-8
EPS = 1e-6


def _scatter(columns, eps):
    n = columns.cols
    mean = mpmath.matrix([sum(columns[i, j] for j in range(n)) / n for i in range(columns.rows)])
    centered = columns.copy()
    for i in range(columns.rows):
        for j in range(n):
            centered[i, j] -= mean[i]
    scatter = centered * centered.T / n
    for i in range(columns.rows):
        scatter[i, i] += eps
    return scatter, centered


def _spectral(matrix, fn):
    values, vectors = mp.eigsy(matrix)
    return vectors * mpmath.diag([fn(v) for v in values]) * vectors.T


def _reference(kind, phi_s, phi_t, eps=EPS, digits=DIGITS):
    """(value, gradient wrt source columns, gradient wrt target columns) at ``digits`` digits."""
    with mp.workdps(digits):
        cols_s = mpmath.matrix(phi_s.tolist())
        cols_t = mpmath.matrix(phi_t.tolist())
        a, cen_s = _scatter(cols_s, eps)
        b, cen_t = _scatter(cols_t, eps)
        if kind is DistanceKind.FROBENIUS:
            diff = a - b
            value = sum(diff[i, j] ** 2 for i in range(diff.rows) for j in range(diff.cols))
            grad_a, grad_b = 2 * diff, -2 * diff
        elif kind is DistanceKind.JBLD:
            mid = (a + b) / 2
            value = mpmath.log(mp.det(mid)) - (mpmath.log(mp.det(a)) + mpmath.log(mp.det(b))) / 2
            mid_inv = mid ** -1
            grad_a = (mid_inv - a ** -1) / 2
            grad_b = (mid_inv - b ** -1) / 2
        else:
            # S = A^{-1/2} B A^{-1/2} = Q diag(s) Q^T; d^2 = sum(log^2 s),
            # grad_A = -2 A^{-1/2} log(S) A^{-1/2}, grad_B = 2 A^{-1/2} log(S) S^{-1} A^{-1/2}.
            a_inv_root = _spectral(a, lambda v: 1 / mpmath.sqrt(v))
            values, vectors = mp.eigsy(a_inv_root * b * a_inv_root)
            value = sum(mpmath.log(v) ** 2 for v in values)

            def spectral_of_s(fn):
                inner = vectors * mpmath.diag([fn(v) for v in values]) * vectors.T
                return a_inv_root * inner * a_inv_root

            grad_a = -2 * spectral_of_s(mpmath.log)
            grad_b = 2 * spectral_of_s(lambda v: mpmath.log(v) / v)
        feat_s = grad_a * cen_s * 2 / cols_s.cols
        feat_t = grad_b * cen_t * 2 / cols_t.cols
        as_array = lambda m: np.array(m.tolist(), dtype=float)  # noqa: E731
        return float(value), as_array(feat_s), as_array(feat_t)


def _relative(actual, expected):
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


@pytest.fixture(scope="module")
def one_class():
    rng = np.random.default_rng(1802)
    return rng.normal(size=(32, 10)), rng.normal(size=(32, 3))


def _check_kernel(kind, phi_s, phi_t, digits=DIGITS):
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=kind, class_count=1, eps=EPS)
    result = alignment_loss([(phi_s, phi_t)], config)
    value, grad_s, grad_t = _reference(kind, phi_s, phi_t, digits=digits)
    assert abs(result.scatter_term - value) <= TOLERANCE * abs(value)
    assert _relative(result.grads_source[0], grad_s) <= TOLERANCE
    assert _relative(result.grads_target[0], grad_t) <= TOLERANCE


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_kernel_matches_high_precision_reference(kind, one_class):
    _check_kernel(kind, *one_class)


def _tanh_block(spread):
    """32-dim class columns ``tanh(3 b + spread * noise)``, 10 source then 3 target.

    The shared per-row offset ``b`` makes the columns nearly collinear as the
    spread shrinks: cond(X) is 1.7e2, 1.8e3, 6.8e3 and 2.1e4 at the spreads
    below, the regime of trained tanh features.
    """
    rng = np.random.default_rng(1802)
    offset = rng.normal(size=(32, 1))
    columns = np.tanh(3.0 * offset + spread * rng.normal(size=(32, 13)))
    return columns[:, :10], columns[:, 10:]


@pytest.mark.parametrize("kind", list(DistanceKind))
@pytest.mark.parametrize("spread", [0.5, 0.1, 0.03, 0.01])
def test_gram_form_matches_reference_on_nearly_collinear_columns(kind, spread):
    _check_kernel(kind, *_tanh_block(spread))


# Column scale 1e4 puts the scatter spectra 14 orders above eps, 1e100 puts them 206
# orders above it, which the reference needs 250 digits to resolve.
@pytest.mark.parametrize("kind, scale, digits", [
    (DistanceKind.FROBENIUS, 1e4, DIGITS),
    (DistanceKind.JBLD, 1e4, DIGITS),
    (DistanceKind.JBLD, 1e100, 250),
])
def test_gram_form_matches_reference_at_large_scale(kind, scale, digits, one_class):
    phi_s, phi_t = one_class
    _check_kernel(kind, scale * phi_s, scale * phi_t, digits)


# With fewer ambient dimensions than centred directions (d < N + N* - 2), the
# Gram-side matrices of JBLD are singular up to rounding, which 1 / eps
# amplifies; the kernel takes those log-determinants on their d x d side.
@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("scale", [1e2, 1e4])
def test_jbld_matches_reference_below_the_gram_dimension(dim, scale):
    rng = np.random.default_rng(1802)
    _check_kernel(DistanceKind.JBLD, scale * rng.normal(size=(dim, 10)),
                  scale * rng.normal(size=(dim, 3)))


def test_jbld_matches_reference_with_equal_columns():
    # Each side's first two columns are equal: their centred direction is exactly
    # zero, which the Gram side holds exactly and the singular d x d side would not.
    rng = np.random.default_rng(1802)
    phi_s, phi_t = 300.0 * rng.normal(size=(3, 3)), 300.0 * rng.normal(size=(3, 3))
    phi_s[:, 1] = phi_s[:, 0]
    phi_t[:, 1] = phi_t[:, 0]
    _check_kernel(DistanceKind.JBLD, phi_s, phi_t)
