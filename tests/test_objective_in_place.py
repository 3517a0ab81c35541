"""Gradients that accumulate in place: the same bits as the composition they replace, in less memory.

``composed_objective`` is that composition, written out: the two ``softmax_ce``
results, the proximity gradient ``2 eta (W - W*)`` and its negation, and
alignment feature gradients scattered into zero-filled arrays at the batch
positions, each sum formed from fresh operands. ``total_objective`` adds the
same operands into the softmax gradients instead; IEEE addition commutes and
``x + (-g)`` is ``x - g``, so every gradient must come out equal. The only
bit that may differ is a zero's sign: ``0.0 + (-0.0)`` is ``0.0``, whereas a
column that no alignment gradient reaches keeps the softmax gradient's own
``-0.0``; ``np.array_equal`` counts the two zeros as equal.

The memory bounds use ``tracemalloc``, which numpy reports its array buffers
to: what a call allocates, beyond what it returns, relative to the feature
data it is given.
"""

import tracemalloc

import numpy as np
import pytest

from spdalign.align import (
    AlignConfig, Classifier, _batch_layout, class_terms, softmax_ce, total_objective,
)
from spdalign.distances import DistanceKind
from spdalign.io import read_feature_container, write_feature_container
from spdalign.scatter import FeatureBlock
from spdalign.trainer import init_two_stream


def composed_objective(model, batch_s, batch_t, config):
    """(value, six gradients) as separate terms summed from fresh arrays."""
    clf_s, clf_t = model.classifier_source, model.classifier_target
    ce_s, ce_t = softmax_ce(clf_s, batch_s), softmax_ce(clf_t, batch_t)
    diff = clf_s.weights - clf_t.weights
    prox_value = float(config.eta * np.sum(diff * diff))
    align_s, align_t = np.zeros_like(batch_s.columns), np.zeros_like(batch_t.columns)
    scatter_sum = mean_sum = 0.0
    layout = _batch_layout(batch_s.labels.tobytes(), batch_t.labels.tobytes(), config.class_count)
    for _, n_s, idx_s, idx_t in layout:
        rows = np.concatenate([batch_s.columns.T[idx_s], batch_t.columns.T[idx_t]], axis=1)
        scatter, mean, grad = class_terms(rows.transpose(0, 2, 1), n_s, config)
        scatter_sum += float(scatter.sum())
        mean_sum += float(mean.sum())
        align_s.T[idx_s] = grad.transpose(0, 2, 1)[:, :n_s]
        align_t.T[idx_t] = grad.transpose(0, 2, 1)[:, n_s:]
    c_norm = float(config.class_count)
    value = ce_s.loss + ce_t.loss + prox_value + (
        config.sigma1 / c_norm * scatter_sum + config.sigma2 / c_norm * mean_sum)
    grads = [ce_s.grad_weights + 2.0 * config.eta * diff, ce_s.grad_bias,
             ce_t.grad_weights + -2.0 * config.eta * diff, ce_t.grad_bias,
             align_s + ce_s.grad_columns, align_t + ce_t.grad_columns]
    return value, grads


def _grads(result):
    g = result.grads
    return [g.weights_source, g.bias_source, g.weights_target, g.bias_target,
            g.features_source, g.features_target]


def _model(rng, dim, classes):
    model = init_two_stream(1, dim, classes, 0)
    for attr in ("classifier_source", "classifier_target"):
        setattr(model, attr, Classifier(rng.normal(scale=0.1, size=(dim, classes)),
                                        rng.normal(size=classes)))
    return model


def _blocks(rng, dim, n_source, n_target):
    """Shuffled tanh-of-Gaussian batches with ``n_source[c]`` and ``n_target[c]`` columns of class c."""
    return [FeatureBlock(np.tanh(rng.normal(size=(dim, labels.size))), labels)
            for labels in (rng.permutation(np.repeat(np.arange(len(counts)), counts))
                           for counts in (n_source, n_target))]


def ragged_layout(rng, dim, classes):
    """The paper-scale layout: 1..10 source and 0..3 target columns, dealt to the classes in a random order."""
    index, order = np.arange(classes), rng.permutation(classes)
    return _blocks(rng, dim, (1 + index % 10)[order], ((index // 10) % 4)[order])


def _config(kind, classes):
    return AlignConfig(sigma1=0.5, sigma2=1.0, eta=0.7, kind=kind, class_count=classes)


@pytest.mark.parametrize("kind", list(DistanceKind))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_batches_reproduce_the_composition(kind, seed):
    rng = np.random.default_rng([seed, 1])
    classes, dim = 5, 6
    batch_s, batch_t = _blocks(rng, dim, [10] * classes, [3] * classes)
    model = _model(rng, dim, classes)
    result = total_objective(model, batch_s, batch_t, _config(kind, classes))
    value, grads = composed_objective(model, batch_s, batch_t, _config(kind, classes))
    assert result.value == value
    assert all(np.array_equal(got, want) for got, want in zip(_grads(result), grads))


@pytest.mark.parametrize("kind", list(DistanceKind))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ragged_batches_reproduce_the_composition(kind, seed):
    rng = np.random.default_rng([seed, 2])
    classes, dim = 24, 40
    batch_s, batch_t = ragged_layout(rng, dim, classes)
    # A class with target columns loses its source columns, so both streams hold columns that no
    # class term reaches.
    missing = batch_t.labels[0]
    batch_s = FeatureBlock(batch_s.columns[:, batch_s.labels != missing],
                           batch_s.labels[batch_s.labels != missing])
    assert set(range(classes)) - set(batch_t.labels.tolist())
    model = _model(rng, dim, classes)
    result = total_objective(model, batch_s, batch_t, _config(kind, classes))
    value, grads = composed_objective(model, batch_s, batch_t, _config(kind, classes))
    assert result.value == value
    assert all(np.array_equal(got, want) for got, want in zip(_grads(result), grads))


def _traced_peak(call):
    """(result, bytes allocated at the peak of ``call`` beyond what was live before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_objective_transient_memory_is_bounded(kind):
    rng = np.random.default_rng(3)
    classes, dim = 40, 1024
    batch_s, batch_t = ragged_layout(rng, dim, classes)
    model = _model(rng, dim, classes)
    config = _config(kind, classes)
    # The first call caches the batch layout, which a training run derives once.
    total_objective(model, batch_s, batch_t, config)
    result, peak = _traced_peak(lambda: total_objective(model, batch_s, batch_t, config))
    returned = sum(array.nbytes for array in _grads(result))
    # No second feature-sized gradient per stream: the transient stays well below the feature data.
    assert peak - returned < 0.5 * (batch_s.columns.nbytes + batch_t.columns.nbytes)


def test_feature_container_io_holds_the_data_once(tmp_path):
    rng = np.random.default_rng(4)
    block = FeatureBlock(rng.normal(size=(256, 2000)), rng.integers(0, 20, 2000))
    path = tmp_path / "features.bin"
    _, written = _traced_peak(lambda: write_feature_container(path, block, 20))
    # The labels are converted to u32; the column data is written from its own memory.
    assert written < 0.1 * block.columns.nbytes
    (read, class_count), peak = _traced_peak(lambda: read_feature_container(path))
    assert class_count == 20
    assert np.array_equal(read.columns, block.columns) and np.array_equal(read.labels, block.labels)
    # The data itself, its labels and the finiteness mask of FeatureBlock; no second copy.
    assert peak < 1.25 * block.columns.nbytes
