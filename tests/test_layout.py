"""Feature columns are column-major: ``FeatureBlock`` stores them so, and every producer emits them so.

The objective gathers and writes back whole columns; in Fortran order each
column is one contiguous run of memory. Classifier weights and their
gradients share that layout, so their sums and updates never transpose.
"""

import numpy as np
import pytest

from spdalign.align import AlignConfig, Classifier, softmax_ce, total_objective
from spdalign.checks import _ClassifierPair
from spdalign.distances import DistanceKind
from spdalign.io import read_feature_container, write_feature_container
from spdalign.scatter import FeatureBlock
from spdalign.trainer import (
    SynthSpec, encoder_forward, init_encoder, init_two_stream, synth_domain_pair, train,
    train_single_stream,
)

LABELS = np.array([0, 1, 2, 0, 1, 2, 0])


def _is_column_major(array):
    return array.flags.f_contiguous and array.dtype == np.float64


def _layouts(rng):
    base = rng.normal(size=(5, 2 * LABELS.size))
    return {
        "row-major": np.ascontiguousarray(base[:, :LABELS.size]),
        "column-major": np.asfortranarray(base[:, :LABELS.size]),
        "strided": base[:, ::2],
        "integer": np.arange(5 * LABELS.size).reshape(5, LABELS.size),
    }


@pytest.mark.parametrize("layout", ["row-major", "column-major", "strided", "integer"])
def test_block_stores_column_major_float64(layout, rng):
    columns = _layouts(rng)[layout]
    block = FeatureBlock(columns, LABELS)
    assert _is_column_major(block.columns)
    assert np.array_equal(block.columns, columns)


def test_column_major_input_is_kept_and_row_major_input_copied(rng):
    column_major = np.asfortranarray(rng.normal(size=(5, LABELS.size)))
    assert np.shares_memory(FeatureBlock(column_major, LABELS).columns, column_major)
    row_major = np.ascontiguousarray(column_major)
    assert not np.shares_memory(FeatureBlock(row_major, LABELS).columns, row_major)


@pytest.mark.parametrize("nonlinear", [True, False])
@pytest.mark.parametrize("cap", [None, 0.5])
def test_encoder_output_is_column_major(nonlinear, cap, rng):
    enc = init_encoder(4, 6, rng, nonlinear=nonlinear)
    for inputs in (rng.normal(size=(4, 9)), np.asfortranarray(rng.normal(size=(4, 9)))):
        phi, _ = encoder_forward(enc, inputs, cap)
        assert _is_column_major(phi)


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_softmax_and_objective_gradients_are_column_major(kind, rng):
    dim, classes = 6, 3
    model = _ClassifierPair(
        Classifier(rng.normal(size=(dim, classes)), rng.normal(size=classes)),
        Classifier(rng.normal(size=(dim, classes)), rng.normal(size=classes)),
    )
    block_s = FeatureBlock(rng.normal(size=(dim, LABELS.size)), LABELS)
    block_t = FeatureBlock(rng.normal(size=(dim, 5)), np.array([2, 1, 0, 1, 2]))
    ce = softmax_ce(model.classifier_source, block_s)
    assert _is_column_major(ce.grad_columns)
    assert _is_column_major(ce.grad_weights)
    config = AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=kind, class_count=classes)
    grads = total_objective(model, block_s, block_t, config).grads
    for name in ("features_source", "features_target", "weights_source", "weights_target"):
        assert _is_column_major(getattr(grads, name)), name


def test_classifier_stores_column_major_weights(rng):
    row_major = rng.normal(size=(6, 3))
    weights = Classifier(row_major, np.zeros(3)).weights
    assert _is_column_major(weights)
    assert np.array_equal(weights, row_major)
    column_major = np.asfortranarray(row_major)
    assert Classifier(column_major, np.zeros(3)).weights is column_major


@pytest.mark.parametrize("nonlinear", [True, False])
def test_trained_classifiers_stay_column_major(nonlinear):
    # The trainers build each step's classifiers without Classifier's conversion,
    # so the SGD update itself must keep the weights column-major.
    source, target, _ = synth_domain_pair(SynthSpec(class_count=3, input_dim=4, source_per_class=5))
    config = AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=3)
    model = init_two_stream(4, 6, 3, seed=0, nonlinear=nonlinear)
    trained, _ = train(model, (source, target), config, steps=3, lr=0.1, seed=0)
    single = train_single_stream(source, 3, 6, steps=3, lr=0.1, seed=0, nonlinear=nonlinear)
    for clf in (trained.classifier_source, trained.classifier_target, single.classifier_source):
        assert _is_column_major(clf.weights)


def test_container_columns_are_column_major(tmp_path, rng):
    path = tmp_path / "features.bin"
    written = FeatureBlock(rng.normal(size=(5, LABELS.size)), LABELS)
    write_feature_container(path, written, 3)
    block, _ = read_feature_container(path)
    assert _is_column_major(block.columns)
    assert np.array_equal(block.columns, written.columns)
