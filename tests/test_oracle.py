"""High-precision reference for the alignment kernel's values and feature gradients.

The reference works in the ambient dimension at 40 significant digits: it
builds both eps-regularized scatters, evaluates the distance with the textbook
formulas, and pulls the matrix gradient back to the columns with
(2/N) G (Phi - mu 1^T). Neither the reduction nor the Cholesky-SVD route is
involved, so agreement checks both.
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


def _scatter(columns):
    n = columns.cols
    mean = mpmath.matrix([sum(columns[i, j] for j in range(n)) / n for i in range(columns.rows)])
    centered = columns.copy()
    for i in range(columns.rows):
        for j in range(n):
            centered[i, j] -= mean[i]
    scatter = centered * centered.T / n
    for i in range(columns.rows):
        scatter[i, i] += EPS
    return scatter, centered


def _spectral(matrix, fn):
    values, vectors = mp.eigsy(matrix)
    return vectors * mpmath.diag([fn(v) for v in values]) * vectors.T


def _reference(kind, phi_s, phi_t):
    """(value, gradient wrt source columns, gradient wrt target columns) at DIGITS digits."""
    with mp.workdps(DIGITS):
        cols_s = mpmath.matrix(phi_s.tolist())
        cols_t = mpmath.matrix(phi_t.tolist())
        a, cen_s = _scatter(cols_s)
        b, cen_t = _scatter(cols_t)
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


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_kernel_matches_high_precision_reference(kind, one_class):
    phi_s, phi_t = one_class
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=kind, class_count=1, eps=EPS)
    result = alignment_loss([(phi_s, phi_t)], config)
    value, grad_s, grad_t = _reference(kind, phi_s, phi_t)
    assert abs(result.scatter_term - value) <= TOLERANCE * abs(value)
    assert _relative(result.grads_source[0], grad_s) <= TOLERANCE
    assert _relative(result.grads_target[0], grad_t) <= TOLERANCE
