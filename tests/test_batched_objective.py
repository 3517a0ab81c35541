"""The batched objective against the per-class loop it replaced.

``loop_total_objective`` is that loop, kept as the reference: one pair of
scatters and one distance per class, and one masked gradient update per class
and stream. For Frobenius and JBLD the scatters are built on the joint
reduction of the class's columns. For AIRM the loop runs, one class at a time
and with its own centring basis, the formula the kernel uses: the root of the
centred Gram matrix holds the centred columns, and AIRM is taken between
``eps I`` plus the outer products of its source and of its target columns.
The property below requires the batched ``total_objective`` to agree with it
on awkward inputs. Tolerances were fixed before the comparison was run: values
within 1e-10 relative, Frobenius and JBLD feature gradients within 1e-8
relative in the Frobenius norm. AIRM gradients are judged by the
high-precision oracle in ``test_oracle.py`` instead, because this reference
shares their formula.

The batched kernel evaluates Frobenius and JBLD from the Gram matrix, not
through the reduction, so the two round differently. On some draws the
reference itself misses the truth by more than the tolerance: rounding noise
where the true gradient is zero (equal columns, or a single class whose
softmax gradient vanishes), and eps-padded directions of rank-deficient or
large-scale classes. Where the two disagree, the 40-digit reference of
``test_oracle.py`` decides, at the same tolerances.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdalign.align import (
    AlignConfig,
    Classifier,
    _batch_layout,
    group_columns_by_class,
    proximity,
    softmax_ce,
    total_objective,
)
from spdalign.checks import _ClassifierPair
from spdalign.distances import DistanceKind, dist_sq, grad_dist_sq
from spdalign.errors import SingularityError, SpdAlignError
from spdalign.nystrom import backproject_grad, isometric_project
from spdalign.scatter import FeatureBlock, _feature_grad
from spdalign.spd import regularize, symmetrize
from test_oracle import DIGITS, _reference

VALUE_TOL = 1e-10
GRAD_TOL = 1e-8


def _helmert(n):
    """The (n, n - 1) Helmert columns with integer entries, and their scales with 1 / sqrt(n) folded in."""
    columns = np.zeros((n, n - 1))
    for j in range(1, n):
        columns[:j, j - 1] = 1.0
        columns[j, j - 1] = -j
    return columns, np.array([1.0 / np.sqrt(j * (j + 1.0) * n) for j in range(1, n)])


def loop_airm(cols_s, cols_t, eps):
    """(AIRM term, source feature grads, target feature grads) of one class, from its centred Gram matrix.

    ``Kc = B^T (X^T X) B = V diag(lambda) V^T`` is the Gram matrix of the N -
    1 + N* - 1 centred, scaled columns ``Z = X B``, eigenvalues at rounding
    level counting as zero. ``R = diag(lambda)^{1/2} V^T`` is a root of
    ``Kc`` (``R^T R = Kc``); the term is AIRM
    between ``eps I + R_s R_s^T`` and ``eps I + R_t R_t^T``, and its feature
    gradient is ``X B V diag(lambda)^{-1/2} [2 G_A R_s, 2 G_B R_t] B^T``.
    """
    n_s, n_t = cols_s.shape[1], cols_t.shape[1]
    if n_s + n_t == 2:
        return 0.0, np.zeros_like(cols_s), np.zeros_like(cols_t)
    x = np.concatenate([cols_s, cols_t], axis=1)
    (helmert_s, scale_s), (helmert_t, scale_t) = _helmert(n_s), _helmert(n_t)
    helmert = np.zeros((n_s + n_t, n_s + n_t - 2))
    helmert[:n_s, :n_s - 1] = helmert_s
    helmert[n_s:, n_s - 1:] = helmert_t
    scale = np.concatenate([scale_s, scale_t])
    basis = helmert * scale
    centred = (helmert.T @ (x.T @ x) @ helmert) * np.outer(scale, scale)
    values, vectors = np.linalg.eigh((centred + centred.T) / 2.0)
    kept = values > max(x.shape[0], centred.shape[0]) * np.finfo(float).eps * values[-1]
    roots = np.sqrt(np.where(kept, values, 0.0))
    root = roots[:, None] * vectors.T
    root_s, root_t = root[:, :n_s - 1], root[:, n_s - 1:]
    a, b = (regularize(symmetrize(part @ part.T), eps) for part in (root_s, root_t))
    ga, gb = grad_dist_sq(DistanceKind.AIRM, a, b)
    pulled = np.concatenate([2.0 * ga.entries @ root_s, 2.0 * gb.entries @ root_t], axis=1)
    grad = x @ basis @ (vectors * np.where(kept, 1.0 / np.where(kept, roots, 1.0), 0.0)) @ pulled @ basis.T
    return dist_sq(DistanceKind.AIRM, a, b), grad[:, :n_s], grad[:, n_s:]


def loop_alignment(per_class, config):
    """(scatter term, mean term, per-class source grads, per-class target grads)."""
    scatter_sum = 0.0
    mean_sum = 0.0
    grads_source, grads_target = [], []
    c_norm = float(config.class_count)
    for cols_s, cols_t in per_class:
        gs = np.zeros_like(cols_s)
        gt = np.zeros_like(cols_t)
        if cols_s.shape[1] and cols_t.shape[1]:
            if config.sigma1 != 0.0 and config.kind is DistanceKind.AIRM:
                value, airm_s, airm_t = loop_airm(cols_s, cols_t, config.eps)
                scatter_sum += value
                gs += config.sigma1 / c_norm * airm_s
                gt += config.sigma1 / c_norm * airm_t
            elif config.sigma1 != 0.0:
                red_s, red_t, proj = isometric_project(cols_s, cols_t)
                mu_s = red_s.mean(axis=1)
                mu_t = red_t.mean(axis=1)
                cen_s = red_s - mu_s[:, None]
                cen_t = red_t - mu_t[:, None]
                sig_s = regularize(symmetrize(cen_s @ cen_s.T / red_s.shape[1]), config.eps)
                sig_t = regularize(symmetrize(cen_t @ cen_t.T / red_t.shape[1]), config.eps)
                scatter_sum += dist_sq(config.kind, sig_s, sig_t)
                ga, gb = grad_dist_sq(config.kind, sig_s, sig_t)
                weight = config.sigma1 / c_norm
                gs += weight * backproject_grad(proj, _feature_grad(ga.entries, red_s, mu_s))
                gt += weight * backproject_grad(proj, _feature_grad(gb.entries, red_t, mu_t))
            if config.sigma2 != 0.0:
                diff = cols_s.mean(axis=1) - cols_t.mean(axis=1)
                mean_sum += float(diff @ diff)
                weight = config.sigma2 / c_norm
                gs += weight * (2.0 / cols_s.shape[1]) * diff[:, None]
                gt += weight * (-2.0 / cols_t.shape[1]) * diff[:, None]
        grads_source.append(gs)
        grads_target.append(gt)
    return (config.sigma1 / c_norm * scatter_sum, config.sigma2 / c_norm * mean_sum,
            grads_source, grads_target)


def loop_total_objective(model, batch_s, batch_t, config):
    """(value, [weight and bias grads..., feature grads of both streams])."""
    clf_s, clf_t = model.classifier_source, model.classifier_target
    ce_s = softmax_ce(clf_s, batch_s)
    ce_t = softmax_ce(clf_t, batch_t)
    prox_value, prox_gw = proximity(clf_s, clf_t, config.eta)
    prox_gw_star = -prox_gw
    scatter, mean, grads_s, grads_t = loop_alignment(
        group_columns_by_class(batch_s, batch_t, config.class_count), config
    )
    feat_s = ce_s.grad_columns.copy()
    feat_t = ce_t.grad_columns.copy()
    for c in range(config.class_count):
        mask_s = batch_s.labels == c
        if mask_s.any():
            feat_s[:, mask_s] += grads_s[c]
        mask_t = batch_t.labels == c
        if mask_t.any():
            feat_t[:, mask_t] += grads_t[c]
    value = ce_s.loss + ce_t.loss + prox_value + (scatter + mean)
    grads = [ce_s.grad_weights + prox_gw, ce_s.grad_bias,
             ce_t.grad_weights + prox_gw_star, ce_t.grad_bias, feat_s, feat_t]
    return value, grads


def oracle_total_objective(model, batch_s, batch_t, config, digits=DIGITS):
    """``loop_total_objective`` with the scatter term and its feature gradients to ``digits`` digits."""
    value, grads = loop_total_objective(model, batch_s, batch_t, dataclasses.replace(config, sigma1=0.0))
    weight = config.sigma1 / config.class_count
    for c, (cols_s, cols_t) in enumerate(group_columns_by_class(batch_s, batch_t, config.class_count)):
        if weight and cols_s.shape[1] and cols_t.shape[1]:
            term, grad_s, grad_t = _reference(config.kind, cols_s, cols_t, eps=config.eps, digits=digits)
            value += weight * term
            grads[4][:, batch_s.labels == c] += weight * grad_s
            grads[5][:, batch_t.labels == c] += weight * grad_t
    return value, grads


@st.composite
def objective_inputs(draw, exponents=(-3.0, 3.0)):
    """Ragged per-class counts (zero in either stream allowed), shuffled batches,
    optional duplicate columns, features spanning ``10 ** exponents`` in scale
    (1e-3 to 1e3 by default), and alignment weights that may be zero."""
    kind = draw(st.sampled_from(list(DistanceKind)))
    dim = draw(st.integers(1, 10))
    classes = draw(st.integers(1, 5))
    n_source = draw(st.lists(st.integers(0, 5), min_size=classes, max_size=classes))
    n_target = draw(st.lists(st.integers(0, 4), min_size=classes, max_size=classes))
    if sum(n_source) == 0:
        n_source[0] = 1
    if sum(n_target) == 0:
        n_target[-1] = 1
    scale = 10.0 ** draw(st.floats(*exponents))
    duplicate = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def block(counts):
        labels = rng.permutation(np.repeat(np.arange(classes), counts))
        columns = scale * rng.normal(size=(dim, labels.size))
        if duplicate:
            for c in range(classes):
                where = np.flatnonzero(labels == c)
                if where.size >= 2:
                    columns[:, where[1]] = columns[:, where[0]]
        return FeatureBlock(columns, labels)

    # Either alignment weight may be zero, so each term also runs on its own.
    weighted = draw(st.tuples(st.booleans(), st.booleans()))
    config = AlignConfig(
        sigma1=float(rng.uniform(0.1, 1.0)) * weighted[0],
        sigma2=float(rng.uniform(0.1, 1.0)) * weighted[1],
        eta=float(rng.uniform(0.1, 1.0)), kind=kind, class_count=classes,
        eps=float(10.0 ** rng.uniform(-6, -2)),
    )
    model = _ClassifierPair(
        Classifier(rng.normal(size=(dim, classes)), rng.normal(size=classes)),
        Classifier(rng.normal(size=(dim, classes)), rng.normal(size=classes)),
    )
    return model, block(n_source), block(n_target), config


def _gap(actual, expected):
    return float(np.linalg.norm(actual - expected)) / max(float(np.linalg.norm(expected)), 1e-300)


def assert_agrees_with_loop(result, reference, inputs):
    """``total_objective``'s ``result`` against the loop reference's (value, grads) ``reference``.

    ``inputs`` are the (model, source batch, target batch, config) of both;
    where the two disagree, the 40-digit reference decides.
    """
    value, grads = reference
    batched = result.grads
    names = ["weights_source", "bias_source", "weights_target", "bias_target"]
    for name, expected in zip(names, grads[:4]):
        assert np.array_equal(getattr(batched, name), expected), name
    config = inputs[3]
    features = [] if config.kind is DistanceKind.AIRM else [batched.features_source,
                                                            batched.features_target]
    if abs(result.value - value) <= VALUE_TOL * abs(value) and all(
            _gap(actual, expected) <= GRAD_TOL for actual, expected in zip(features, grads[4:])):
        return
    truth, truth_grads = oracle_total_objective(*inputs)
    assert abs(result.value - truth) <= VALUE_TOL * abs(truth)
    for actual, exact in zip(features, truth_grads[4:]):
        assert _gap(actual, exact) <= GRAD_TOL


@settings(max_examples=150, deadline=None)
@given(objective_inputs())
def test_batched_objective_equals_loop_reference(inputs):
    model, batch_s, batch_t, config = inputs
    try:
        reference = loop_total_objective(model, batch_s, batch_t, config)
    except SingularityError:
        with pytest.raises(SingularityError):
            total_objective(model, batch_s, batch_t, config)
        return
    assert_agrees_with_loop(total_objective(model, batch_s, batch_t, config), reference, inputs)


@settings(max_examples=150, deadline=None)
@given(objective_inputs(exponents=(-8.0, 6.0)))
def test_objective_is_finite_or_typed_at_every_column_scale(inputs):
    # Scatters from far below eps to 1e12 above it: every draw gives a finite value
    # and finite gradients, or a typed error, and never a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = total_objective(*inputs)
        except SpdAlignError:
            return
    assert np.isfinite(result.value)
    assert all(np.isfinite(grad).all() for grad in dataclasses.astuple(result.grads))


def _bits(result):
    """Every output of an objective evaluation, as bytes."""
    values = np.array([result.value, *dataclasses.astuple(result.parts)])
    return [values.tobytes()] + [np.ascontiguousarray(g).tobytes()
                                 for g in dataclasses.astuple(result.grads)]


@pytest.mark.parametrize("kind", list(DistanceKind), ids=str)
def test_reused_layouts_do_not_go_stale(kind):
    # One process evaluates a sequence of batch pairs, so the cached layout of an
    # earlier pair is reused wherever the labels repeat. Each result must equal
    # the one computed with no cached layout, bit for bit, and the loop reference.
    rng = np.random.default_rng(23)
    dim, classes = 6, 4
    model = _ClassifierPair(
        Classifier(rng.normal(size=(dim, classes)), rng.normal(size=classes)),
        Classifier(rng.normal(size=(dim, classes)), rng.normal(size=classes)),
    )
    config = AlignConfig(sigma1=0.7, sigma2=0.4, eta=0.3, kind=kind, class_count=classes)
    labels_s = np.repeat(np.arange(classes), 4)
    labels_t = np.repeat(np.arange(classes), 2)
    label_pairs = [
        (labels_s, labels_t),
        (labels_s, labels_t),  # the same labels with new columns
        (labels_s, labels_t[labels_t != 2]),  # class 2 missing from the target
        (np.repeat(np.arange(classes), [5, 2, 3, 1]), np.repeat(np.arange(classes), [1, 3, 2, 2])),
        (rng.permutation(labels_s), rng.permutation(labels_t)),  # a permuted label order
        (labels_s[labels_s != 0], labels_t),  # class 0 missing from the source
        (labels_s, labels_t),  # the first labels again, with new columns
    ]
    batches = [tuple(FeatureBlock(rng.normal(size=(dim, labels.size)), labels) for labels in pair)
               for pair in label_pairs]
    _batch_layout.cache_clear()
    reused = [total_objective(model, batch_s, batch_t, config) for batch_s, batch_t in batches]
    assert _batch_layout.cache_info().hits >= 2
    for (batch_s, batch_t), result in zip(batches, reused):
        _batch_layout.cache_clear()
        fresh = total_objective(model, batch_s, batch_t, config)
        assert _bits(result) == _bits(fresh)
        inputs = (model, batch_s, batch_t, config)
        assert_agrees_with_loop(result, loop_total_objective(*inputs), inputs)
        for classes_of, n_source, positions_s, positions_t in _batch_layout(
                batch_s.labels.tobytes(), batch_t.labels.tobytes(), classes):
            for array in (classes_of, positions_s, positions_t):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
            assert (batch_s.labels[positions_s] == classes_of[:, None]).all()
            assert (batch_t.labels[positions_t] == classes_of[:, None]).all()
            assert positions_s.shape == (classes_of.size, n_source)


def test_singular_class_is_named():
    # The JBLD Gram form takes class 1's columns at scale 1e6 exactly; it fails once
    # the class holds two pairs of equal columns, whose centred Gram matrix is singular
    # with rounding of about 1e-16 * 1e12, far beyond -eps.
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(3), 4)
    cols = rng.normal(size=(8, 12))
    cols[:, labels == 1] *= 1e6
    repeated = cols.copy()
    repeated[:, [5, 7]] = repeated[:, [4, 6]]
    block_t = FeatureBlock(rng.normal(size=(8, 6)), np.repeat(np.arange(3), 2))
    model = _ClassifierPair(Classifier(np.zeros((8, 3)), np.zeros(3)),
                            Classifier(np.zeros((8, 3)), np.zeros(3)))
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=DistanceKind.JBLD, class_count=3)
    with pytest.raises(SingularityError, match="^class 1: "):
        total_objective(model, FeatureBlock(repeated, labels), block_t, config)


def test_airm_takes_a_class_at_scale_1e6_exactly():
    # The input of the test above without the equal columns, which the old AIRM
    # route refused as singular. AIRM works on a square root of the centred Gram
    # matrix, whose columns hold the class's centred columns in a basis of their
    # span. Class 1's scatter reaches 18 orders above eps, which an 80-digit
    # reference resolves.
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(3), 4)
    cols = rng.normal(size=(8, 12))
    cols[:, labels == 1] *= 1e6
    block_t = FeatureBlock(rng.normal(size=(8, 6)), np.repeat(np.arange(3), 2))
    model = _ClassifierPair(Classifier(np.zeros((8, 3)), np.zeros(3)),
                            Classifier(np.zeros((8, 3)), np.zeros(3)))
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=DistanceKind.AIRM, class_count=3)
    inputs = (model, FeatureBlock(cols, labels), block_t, config)
    result = total_objective(*inputs)
    truth, truth_grads = oracle_total_objective(*inputs, digits=80)
    assert abs(result.value - truth) <= VALUE_TOL * abs(truth)
    for actual, exact in zip([result.grads.features_source, result.grads.features_target],
                             truth_grads[4:]):
        assert _gap(actual, exact) <= GRAD_TOL


def test_singular_class_message_does_not_name_an_eigenvalue():
    # The JBLD input of the test above at seed 0: the Sylvester matrix that fails
    # its Cholesky has eigvalsh's smallest eigenvalue at 1.0, within the rounding
    # of its norm, so a message naming it would contradict the failure.
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3), 4)
    cols = rng.normal(size=(8, 12))
    cols[:, labels == 1] *= 1e6
    cols[:, [5, 7]] = cols[:, [4, 6]]
    block_t = FeatureBlock(rng.normal(size=(8, 6)), np.repeat(np.arange(3), 2))
    model = _ClassifierPair(Classifier(np.zeros((8, 3)), np.zeros(3)),
                            Classifier(np.zeros((8, 3)), np.zeros(3)))
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=DistanceKind.JBLD, class_count=3)
    with pytest.raises(SingularityError,
                       match="^class 1: matrix is not positive definite to working precision$"):
        total_objective(model, FeatureBlock(cols, labels), block_t, config)
