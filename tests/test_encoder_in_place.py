"""The encoder and the evaluated logits, formed in place: the same bits as the composition they replace.

``composed_forward`` and ``composed_report`` are that composition, written
out: each step (``W x``, ``+ b``, ``tanh``, the NaN for an overflowed
pre-activation, the logit bias) forms a fresh array. ``encoder_forward`` and
``evaluate`` apply the same IEEE operations to one array, so every entry must
come out equal, NaN where the pre-activation overflowed; and neither call may
write into the columns or the model it is given.
"""

import warnings

import numpy as np
import pytest

from spdalign.align import Classifier
from spdalign.scatter import FeatureBlock
from spdalign.trainer import (
    EvalReport, Encoder, _cap_columns, encoder_forward, evaluate, init_two_stream,
)


def composed_forward(enc, x, cap):
    """(phi, pre-cap features, scale) with every step in a fresh array."""
    z = (x.T @ enc.weights.T).T + enc.bias[:, None]
    u = np.tanh(z) if enc.nonlinear else z
    if enc.nonlinear:
        u = np.where(np.isfinite(z), u, np.nan)
    phi, scale = _cap_columns(u, cap)
    return phi, u, scale


def composed_report(model, test):
    """The target stream's top-1 report from ``W.T @ phi + b``, class by class."""
    phi, _, _ = composed_forward(model.encoder_target, test.columns, model.feature_cap)
    clf = model.classifier_target
    hits = (clf.weights.T @ phi + clf.bias[:, None]).argmax(axis=0) == test.labels
    rows = [(int(k), float(hits[test.labels == k].mean()), int((test.labels == k).sum()))
            for k in np.unique(test.labels)]
    return EvalReport(overall=float(hits.mean()), per_class=rows)


def _encoder(rng, nonlinear, overflow=False):
    weights = rng.normal(size=(6, 4))
    if overflow:
        weights[0, :2] = 1e308  # W x overflows in row 0 wherever |x_0 + x_1| is large
    return Encoder(weights, rng.normal(size=6), nonlinear)


def _cap(enc, x, clips):
    """No cap, or one that clips about half of the columns."""
    if not clips:
        return None
    _, u, _ = composed_forward(enc, x, None)
    return float(np.median(np.einsum("ij,ij->j", u, u)))


def _snapshot(*arrays):
    return [a.copy() for a in arrays]


def _unchanged(before, *arrays):
    return all(np.array_equal(b, a) for b, a in zip(before, arrays, strict=True))


@pytest.mark.parametrize("clips", [False, True], ids=["no-cap", "cap-clips"])
@pytest.mark.parametrize("nonlinear", [True, False], ids=["tanh", "linear"])
def test_forward_equals_the_composition(rng, nonlinear, clips):
    enc = _encoder(rng, nonlinear)
    x = rng.normal(size=(4, 40)) * 2.0
    cap = _cap(enc, x, clips)
    before = _snapshot(x, enc.weights, enc.bias)
    phi, tape = encoder_forward(enc, x, cap)
    want_phi, want_u, want_scale = composed_forward(enc, x, cap)
    assert np.array_equal(phi, want_phi)
    assert np.array_equal(tape.pre_cap, want_u)
    assert np.array_equal(tape.scale, want_scale)
    assert tape.inputs is x
    assert (tape.scale < 1.0).any() == clips
    assert _unchanged(before, x, enc.weights, enc.bias)


@pytest.mark.parametrize("clips", [False, True], ids=["no-cap", "cap-clips"])
@pytest.mark.parametrize("nonlinear", [True, False], ids=["tanh", "linear"])
def test_overflowed_forward_equals_the_composition(rng, nonlinear, clips):
    enc = _encoder(rng, nonlinear, overflow=True)
    x = rng.normal(size=(4, 40)) * 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x.T @ enc.weights.T).T + enc.bias[:, None]
        cap = 1.0 if clips else None
        before = _snapshot(x, enc.weights, enc.bias)
        phi, tape = encoder_forward(enc, x, cap)
        want_phi, want_u, want_scale = composed_forward(enc, x, cap)
    overflowed = ~np.isfinite(z)
    assert overflowed.any() and not overflowed.all()
    assert np.array_equal(phi, want_phi, equal_nan=True)
    assert np.array_equal(tape.pre_cap, want_u, equal_nan=True)
    assert np.array_equal(tape.scale, want_scale, equal_nan=True)
    if nonlinear:
        # still NaN where z overflowed, not tanh's finite +-1
        assert np.isnan(phi[overflowed]).all() and np.isfinite(phi[~overflowed]).all()
    assert _unchanged(before, x, enc.weights, enc.bias)


@pytest.mark.parametrize("clips", [False, True], ids=["no-cap", "cap-clips"])
@pytest.mark.parametrize("nonlinear", [True, False], ids=["tanh", "linear"])
def test_evaluate_equals_the_composition(rng, nonlinear, clips):
    model = init_two_stream(4, 6, 5, seed=3, nonlinear=nonlinear)
    model.classifier_target = Classifier(rng.normal(size=(6, 5)), rng.normal(size=5))
    labels = rng.permutation(np.repeat(np.arange(5), 12))
    test = FeatureBlock(rng.normal(size=(4, labels.size)) * 2.0, labels)
    model.feature_cap = _cap(model.encoder_target, test.columns, clips)
    layers = (model.encoder_target, model.classifier_target)
    arrays = [test.columns, test.labels] + [a for layer in layers for a in (layer.weights, layer.bias)]
    before = _snapshot(*arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate(model, test)
    assert report == composed_report(model, test)
    assert _unchanged(before, *arrays)
