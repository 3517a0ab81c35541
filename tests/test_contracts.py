"""Data contracts at the library's entry points.

Each contract is stated once in the code: the block rules of every consumer on
``FeatureBlock.check``, each binary header as one ``struct.Struct``, the range
rules of numeric parameters (counts, seeds, nonnegative and positive values),
the conversion of array input (``real_array``), the column-block rule of
the one-class adapters (``column_blocks``) and the layer rule of ``Encoder``
and ``Classifier`` (``layer_arrays``) in ``errors``, and the
distance kind in ``DistanceKind.check``. These tests pin
the errors and bytes that those single statements produce, at every entry
point that takes a count or a seed, and AST guards keep the range rules'
wording out of every other module and the kind rule's in one place.
"""

import ast
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

import spdalign
from spdalign.align import AlignConfig, Classifier, alignment_loss, softmax_ce, total_objective
from spdalign.bench import run_bench
from spdalign.checks import run_gradient_checks, run_invariance_checks
from spdalign.distances import DistanceKind, batch_dist_sq, dist_sq
from spdalign.errors import (
    ConfigError, DimensionError, EmptyClassError, FormatError, LabelError, ParameterError,
)
from spdalign.io import (
    MODEL_HEADER, read_feature_container, read_model, write_feature_container, write_model,
)
from spdalign.metrics import (
    RankedCase, avg_top_kk, factor_masks, hit_ranks, load_cases, sweep_ranks, top_k, top_k_n,
)
from spdalign.nystrom import Projection, backproject_grad, isometric_project, nystrom_map
from spdalign.runconfig import RunConfig, load_run_config
from spdalign.scatter import FeatureBlock, mean_and_scatter
from spdalign.spd import SymMatrix, regularize, symmetrize
from spdalign.trainer import (
    DomainShift, Encoder, SynthSpec, TwoStreamModel, concat_blocks, evaluate, init_two_stream,
    run_adaptation_benchmark, synth_domain_pair, train, train_single_stream,
)

INPUT_DIM, FEATURE_DIM, CLASSES = 3, 4, 3


def _block(dim, labels=(0, 1, 2, 0, 1, 2)):
    return FeatureBlock(np.random.default_rng(0).normal(size=(dim, len(labels))), np.array(labels))


def _config():
    return AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=CLASSES)


def _model():
    return init_two_stream(INPUT_DIM, FEATURE_DIM, CLASSES, seed=0)


# consumer id: (block name in messages, dimension the consumer takes, call with the block)
CONSUMERS = {
    "train/source": ("source", INPUT_DIM, lambda b: train(
        _model(), (b, _block(INPUT_DIM)), _config(), steps=2, lr=0.1, seed=0)),
    "train/target": ("target", INPUT_DIM, lambda b: train(
        _model(), (_block(INPUT_DIM), b), _config(), steps=2, lr=0.1, seed=0)),
    "train_single_stream": ("source", INPUT_DIM, lambda b: train_single_stream(
        b, CLASSES, FEATURE_DIM, steps=2, lr=0.1, seed=0)),
    "evaluate": ("test", INPUT_DIM, lambda b: evaluate(_model(), b)),
    "softmax_ce": ("feature", FEATURE_DIM, lambda b: softmax_ce(
        Classifier(np.zeros((FEATURE_DIM, CLASSES)), np.zeros(CLASSES)), b)),
    "total_objective/source": ("feature", FEATURE_DIM, lambda b: total_objective(
        _model(), b, _block(FEATURE_DIM), _config())),
    "total_objective/target": ("feature", FEATURE_DIM, lambda b: total_objective(
        _model(), _block(FEATURE_DIM), b, _config())),
}


def _fault(kind, dim):
    """(faulty block, error type, message template over the block name and consumer dimension)."""
    if kind == "empty":
        return (FeatureBlock(np.empty((dim, 0)), np.empty(0, dtype=int)), EmptyClassError,
                "{name} block has no columns")
    if kind == "dimension":
        return (_block(dim + 1), DimensionError,
                f"{{name}} block has dimension {dim + 1}, its consumer takes {dim}")
    return (_block(dim, (0, 1, CLASSES + 2)), LabelError,
            f"{{name}} label {CLASSES + 2} outside class count {CLASSES}")


# train_single_stream sizes its encoder from the block, so no block has the wrong dimension.
BLOCK_CASES = [
    (consumer, fault) for consumer in CONSUMERS for fault in ("empty", "dimension", "label")
    if (consumer, fault) != ("train_single_stream", "dimension")
]


class TestBlockRules:
    @pytest.mark.parametrize("consumer, fault", BLOCK_CASES,
                             ids=[f"{c}-{f}" for c, f in BLOCK_CASES])
    def test_consumer_rejects_fault(self, consumer, fault):
        name, dim, call = CONSUMERS[consumer]
        block, error, template = _fault(fault, dim)
        with pytest.raises(error, match=f"^{re.escape(template.format(name=name))}$"):
            call(block)

    def test_valid_block_passes(self):
        _block(INPUT_DIM).check("source", CLASSES, INPUT_DIM)


class TestHeaderBytes:
    def test_feature_container(self, tmp_path):
        block = FeatureBlock(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([0, 2, 1]))
        path = tmp_path / "features.bin"
        write_feature_container(path, block, class_count=3)
        expected = (
            b"OMICFEAT"
            + struct.pack("<I", 1) + struct.pack("<I", 2) + struct.pack("<I", 3)
            + struct.pack("<I", 3)
            + struct.pack("<3I", 0, 2, 1)
            + struct.pack("<6d", 1.0, 4.0, 2.0, 5.0, 3.0, 6.0)
        )
        assert path.read_bytes() == expected
        loaded, class_count = read_feature_container(path)
        assert class_count == 3
        assert np.array_equal(loaded.columns, block.columns)
        assert np.array_equal(loaded.labels, block.labels)

    @pytest.mark.parametrize("nonlinear, cap", [(True, 1.5), (False, None)],
                             ids=["tanh-capped", "linear-uncapped"])
    def test_model_dump(self, tmp_path, nonlinear, cap):
        # input_dim 3, feature_dim 2, class_count 2; the target stream negates the source.
        def stream(sign):
            return (
                Encoder(sign * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                        sign * np.array([0.5, -0.5]), nonlinear),
                Classifier(sign * np.array([[7.0, 8.0], [9.0, 10.0]]), sign * np.array([0.25, -0.25])),
            )

        (enc_s, clf_s), (enc_t, clf_t) = stream(1.0), stream(-1.0)
        model = TwoStreamModel(enc_s, enc_t, clf_s, clf_t, feature_cap=cap)
        path = tmp_path / "model.bin"
        write_model(path, model)

        def stream_bytes(sign):
            return (
                struct.pack("<6d", *(sign * v for v in (1.0, 4.0, 2.0, 5.0, 3.0, 6.0)))
                + struct.pack("<2d", sign * 0.5, sign * -0.5)
                + struct.pack("<4d", *(sign * v for v in (7.0, 9.0, 8.0, 10.0)))
                + struct.pack("<2d", sign * 0.25, sign * -0.25)
            )

        header = (
            b"OMICMODL"
            + struct.pack("<I", 1)
            + struct.pack("<3I", 3, 2, 2)
            + struct.pack("<I", 1 if nonlinear else 0)
            + struct.pack("<I", 0 if cap is None else 1)
            + struct.pack("<d", 0.0 if cap is None else cap)
        )
        assert len(header) == MODEL_HEADER.size == 40
        assert path.read_bytes() == header + stream_bytes(1.0) + stream_bytes(-1.0)
        loaded = read_model(path)
        assert loaded.feature_cap == cap
        assert loaded.encoder_target.nonlinear is nonlinear
        for got, want in [
            (loaded.encoder_source.weights, enc_s.weights), (loaded.encoder_source.bias, enc_s.bias),
            (loaded.classifier_source.weights, clf_s.weights), (loaded.classifier_source.bias, clf_s.bias),
            (loaded.encoder_target.weights, enc_t.weights), (loaded.encoder_target.bias, enc_t.bias),
            (loaded.classifier_target.weights, clf_t.weights), (loaded.classifier_target.bias, clf_t.bias),
        ]:
            assert np.array_equal(got, want)


# entry id: call with the seed
SEED_ENTRY_POINTS = {
    "init_two_stream": lambda seed: init_two_stream(INPUT_DIM, FEATURE_DIM, CLASSES, seed=seed),
    "SynthSpec": lambda seed: SynthSpec(class_count=2, input_dim=2, source_per_class=2, seed=seed),
    "train": lambda seed: train(_model(), (_block(INPUT_DIM), _block(INPUT_DIM)), _config(),
                                steps=1, lr=0.1, seed=seed),
    "train_single_stream": lambda seed: train_single_stream(_block(INPUT_DIM), CLASSES, FEATURE_DIM,
                                                            steps=1, lr=0.1, seed=seed),
    "run_bench": lambda seed: run_bench(d=8, n=3, nstar=2, reps=3, kind=DistanceKind.JBLD, seed=seed),
    "run_gradient_checks": lambda seed: run_gradient_checks(
        kinds=[DistanceKind.FROBENIUS], trials=1, seed=seed),
    "run_invariance_checks": lambda seed: run_invariance_checks(trials=1, seed=seed),
}


@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_negative_seed_is_typed(entry):
    with pytest.raises(ParameterError, match="^seed must be nonnegative, got -1$") as info:
        SEED_ENTRY_POINTS[entry](-1)
    assert info.value.name == "seed"


@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_fractional_seed_is_typed(entry):
    with pytest.raises(ParameterError, match=r"^seed must be a whole number, got 1\.5$") as info:
        SEED_ENTRY_POINTS[entry](1.5)
    assert info.value.name == "seed"


@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_boolean_seed_is_typed(entry):
    with pytest.raises(ParameterError, match="^seed must be a whole number, got True$") as info:
        SEED_ENTRY_POINTS[entry](True)
    assert info.value.name == "seed"


def _spec(**counts):
    return SynthSpec(**{"class_count": 2, "input_dim": 2, "source_per_class": 2, **counts})


def _run_config(steps=2, feature_dim=FEATURE_DIM):
    return RunConfig(synth=_spec(), align=_config(), steps=steps, learning_rate=0.1,
                     feature_dim=feature_dim, nonlinear=True)


def _cases():
    return [RankedCase((1, 2, 3), (2,)), RankedCase((4, 5, 6), (6, 4))]


def _train(**given):
    args = {"config": _config(), "steps": 1, "lr": 0.1, "seed": 0, **given}
    return train(_model(), (_block(INPUT_DIM), _block(INPUT_DIM)), **args)


def _single_stream(**counts):
    args = {"class_count": CLASSES, "feature_dim": FEATURE_DIM, "steps": 1, **counts}
    return train_single_stream(_block(INPUT_DIM), lr=0.1, seed=0, **args)


def _write_features(class_count):
    with tempfile.TemporaryDirectory() as tmp:
        write_feature_container(Path(tmp) / "features.bin", _block(FEATURE_DIM), class_count)


def _bench(**counts):
    return run_bench(**{"d": 8, "n": 3, "nstar": 2, "reps": 3, **counts}, kind=DistanceKind.JBLD)


# entry id: (parameter name in the error, minimum, call with the value)
COUNT_ENTRY_POINTS = {
    "AlignConfig.class_count": ("class_count", 1, lambda v: AlignConfig(
        sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=v)),
    **{f"SynthSpec.{name}": (name, 1, lambda v, name=name: _spec(**{name: v})) for name in (
        "class_count", "input_dim", "source_per_class", "target_train_per_class",
        "target_test_per_class")},
    "RunConfig.steps": ("steps", 1, lambda v: _run_config(steps=v)),
    "RunConfig.feature_dim": ("feature_dim", 1, lambda v: _run_config(feature_dim=v)),
    "train.steps": ("steps", 1, lambda v: _train(steps=v)),
    **{f"train_single_stream.{name}": (name, 1, lambda v, name=name: _single_stream(**{name: v}))
       for name in ("class_count", "feature_dim", "steps")},
    **{f"init_two_stream.{name}": (name, 1, lambda v, name=name: init_two_stream(**{
        "input_dim": INPUT_DIM, "feature_dim": FEATURE_DIM, "class_count": CLASSES, name: v},
        seed=0)) for name in ("input_dim", "feature_dim", "class_count")},
    "write_feature_container.class_count": ("class_count", 1, lambda v: _write_features(v)),
    "run_bench.reps": ("reps", 3, lambda v: _bench(reps=v)),
    **{f"run_bench.{name}": (name, 1, lambda v, name=name: _bench(**{name: v}))
       for name in ("d", "n", "nstar")},
    "run_gradient_checks.trials": ("distance/frobenius: trial count", 1, lambda v: run_gradient_checks(
        kinds=[DistanceKind.FROBENIUS], trials=v, seed=0)),
    "run_invariance_checks.trials": ("rotation/frobenius: trial count", 1,
                                     lambda v: run_invariance_checks(trials=v, seed=0)),
    "run_invariance_checks.triples": ("triangle/airm: trial count", 1,
                                      lambda v: run_invariance_checks(trials=1, seed=0, triples=v)),
    "hit_ranks.depth": ("depth", 1, lambda v: hit_ranks(_cases(), v)),
    "sweep_ranks.k_max": ("k_max", 1, lambda v: sweep_ranks(_cases(), v)),
    "avg_top_kk.k_max": ("k_max", 1, lambda v: avg_top_kk(_cases(), v)),
    "top_k.k": ("k", 1, lambda v: top_k(_cases(), v)),
    "top_k_n.k": ("k", 1, lambda v: top_k_n(_cases(), v, 1)),
    "top_k_n.n": ("n", 1, lambda v: top_k_n(_cases(), 1, v)),
}


class TestCountRules:
    @pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
    def test_below_minimum_is_typed(self, entry):
        name, minimum, call = COUNT_ENTRY_POINTS[entry]
        message = f"{name} must be at least {minimum}, got {minimum - 1}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$") as info:
            call(minimum - 1)
        assert info.value.name == name

    @pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
    def test_fraction_is_typed(self, entry):
        name, minimum, call = COUNT_ENTRY_POINTS[entry]
        message = f"{name} must be a whole number, got {minimum + 1.5}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$") as info:
            call(minimum + 1.5)
        assert info.value.name == name

    @pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
    def test_boolean_is_typed(self, entry):
        # bool is a numbers.Integral, but numpy refuses it as a size.
        name, _, call = COUNT_ENTRY_POINTS[entry]
        message = f"{name} must be a whole number, got True"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$") as info:
            call(True)
        assert info.value.name == name


# Inputs that used to escape as a raw TypeError, a RuntimeWarning, an empty model or an
# Inf matrix, and empty input: (parameter name in the error, call).
PARAMETER_FAULTS = {
    "train-steps-2.5": ("steps", lambda: _train(steps=2.5)),
    "train-seed-1.5": ("seed", lambda: _train(seed=1.5)),
    "train-class_count-3.5": ("class_count", lambda: _train(config=AlignConfig(
        sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=3.5))),
    "synth_domain_pair-class_count-2.5": ("class_count", lambda: synth_domain_pair(
        _spec(class_count=2.5))),
    "run_bench-d-4.5": ("d", lambda: _bench(d=4.5)),
    "run_gradient_checks-trials-2.5": ("distance/frobenius: trial count", lambda: run_gradient_checks(
        kinds=[DistanceKind.FROBENIUS], trials=2.5, seed=0)),
    "hit_ranks-1.5": ("depth", lambda: hit_ranks(_cases(), 1.5)),
    "top_k-1.5": ("k", lambda: top_k(_cases(), 1.5)),
    "regularize-inf": ("eps", lambda: regularize(SymMatrix(np.eye(2)), float("inf"))),
    "init_two_stream-input_dim-0": ("input_dim", lambda: init_two_stream(0, 4, 3, 0)),
    "init_two_stream-feature_dim-0": ("feature_dim", lambda: init_two_stream(3, 0, 3, 0)),
    "factor_masks-no-cases": ("cases", lambda: list(factor_masks([]))),
    "run_adaptation_benchmark-no-seeds": ("seeds", lambda: run_adaptation_benchmark([])),
    "run_adaptation_benchmark-class_count-True": ("class_count", lambda: run_adaptation_benchmark(
        [0], class_count=True)),
    **{f"synth_domain_pair-{field}-1e308": ("shift", lambda field=field: synth_domain_pair(
        _spec(shift=DomainShift(**{field: 1e308})))) for field in ("scale", "noise")},
}


@pytest.mark.parametrize("fault", list(PARAMETER_FAULTS))
def test_parameter_fault_is_typed(fault):
    name, call = PARAMETER_FAULTS[fault]
    with pytest.raises(ParameterError) as info:
        call()
    assert info.value.name == name


def _classifier(feature_dim):
    return Classifier(np.zeros((feature_dim, CLASSES)), np.zeros(CLASSES))


def _alignment_loss(source, target):
    return alignment_loss([(source, target)], AlignConfig(
        sigma1=1.0, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=1))


# Arrays of real numbers whose shape or values break an entry point's rule:
# (anchored message of the DimensionError, call).
SHAPE_FAULTS = {
    "Classifier-weights-1d": (r"classifier weights \(3,\) and bias \(3,\) are not a "
                              r"\(feature_dim, class_count\) matrix and a \(class_count,\) vector",
                              lambda: Classifier(np.zeros(3), np.zeros(3))),
    "Classifier-bias-length": (r"classifier weights \(2, 3\) and bias \(2,\) are not a "
                               r"\(feature_dim, class_count\) matrix and a \(class_count,\) vector",
                               lambda: Classifier(np.zeros((2, 3)), np.zeros(2))),
    "Classifier-no-outputs": ("classifier class_count must be at least 1",
                              lambda: Classifier(np.zeros((2, 0)), np.zeros(0))),
    "Classifier-non-finite": ("classifier parameters contain non-finite entries",
                              lambda: Classifier(np.array([[np.inf]]), np.zeros(1))),
    "Encoder-weights-1d": (r"encoder weights \(3,\) and bias \(3,\) are not a "
                           r"\(feature_dim, input_dim\) matrix and a \(feature_dim,\) vector",
                           lambda: Encoder(np.zeros(3), np.zeros(3))),
    "Encoder-bias-length": (r"encoder weights \(2, 3\) and bias \(3,\) are not a "
                            r"\(feature_dim, input_dim\) matrix and a \(feature_dim,\) vector",
                            lambda: Encoder(np.zeros((2, 3)), np.zeros(3))),
    "Encoder-no-outputs": ("encoder feature_dim must be at least 1",
                           lambda: Encoder(np.zeros((0, 3)), np.zeros(0))),
    "Encoder-non-finite": ("encoder parameters contain non-finite entries",
                           lambda: Encoder(np.zeros((2, 3)), np.array([0.0, np.nan]))),
    "alignment_loss-1d-block": ("class blocks must be 2-d column matrices",
                                lambda: _alignment_loss(np.zeros(2), np.eye(2))),
    "alignment_loss-dimension": (r"class blocks differ in row count: \[2, 3\]",
                                 lambda: _alignment_loss(np.eye(2), np.eye(3))),
    "alignment_loss-non-finite": ("class blocks contain non-finite entries",
                                  lambda: _alignment_loss(np.eye(2), np.array([[1.0], [np.nan]]))),
    "nystrom_map-1d": ("pivots and data must be 2-d column matrices",
                       lambda: nystrom_map(np.eye(2), np.zeros(2))),
    "nystrom_map-dimension": (r"pivots and data differ in row count: \[2, 3\]",
                              lambda: nystrom_map(np.eye(2), np.eye(3))),
    "nystrom_map-non-finite": ("pivots and data contain non-finite entries",
                               lambda: nystrom_map(np.eye(2), np.array([[1.0], [np.inf]]))),
    "isometric_project-1d": ("feature blocks must be 2-d column matrices",
                             lambda: isometric_project(np.zeros(2), np.eye(2))),
    "isometric_project-dimension": (r"feature blocks differ in row count: \[2, 3\]",
                                    lambda: isometric_project(np.eye(2), np.eye(3))),
    "isometric_project-non-finite": ("feature blocks contain non-finite entries",
                                     lambda: isometric_project(np.array([[np.nan], [1.0]]), np.eye(2))),
    "isometric_project-no-columns": ("need at least one column across the two streams",
                                     lambda: isometric_project(np.empty((2, 0)), np.empty((2, 0)))),
    "FeatureBlock-1d": (r"columns must be a 2-d matrix, got shape \(2,\)",
                        lambda: FeatureBlock(np.zeros(2), np.array([0, 1]))),
    "FeatureBlock-no-dimension": ("feature dimension must be at least 1",
                                  lambda: FeatureBlock(np.empty((0, 2)), np.array([0, 1]))),
    "SymMatrix-non-square": (r"expected a square matrix, got shape \(2, 3\)",
                             lambda: SymMatrix(np.zeros((2, 3)))),
    "SymMatrix-empty": ("matrix side must be at least 1", lambda: SymMatrix(np.empty((0, 0)))),
    "TwoStreamModel-feature-dim": (
        f"encoder output dim {FEATURE_DIM} does not match classifier input dim {FEATURE_DIM + 1}",
        lambda: TwoStreamModel(_model().encoder_source, _model().encoder_target,
                               _classifier(FEATURE_DIM + 1), _classifier(FEATURE_DIM + 1))),
    "concat_blocks-dimension": ("cannot concatenate blocks of dim 2 and 3",
                                lambda: concat_blocks(_block(2), _block(3))),
}


@pytest.mark.parametrize("fault", list(SHAPE_FAULTS))
def test_shape_fault_is_typed(fault):
    message, call = SHAPE_FAULTS[fault]
    with pytest.raises(DimensionError, match=f"^{message}$"):
        call()


# Phrases that state a numeric range rule; only errors.py may put them in a ParameterError.
_RANGE_RULE = re.compile(r"must (all )?be (at least|nonnegative|positive|a whole number)")
_PACKAGE = Path(spdalign.__file__).parent


def _message_text(node):
    """The literal text of a message expression, f-string parts included."""
    return "".join(
        part.value for part in ast.walk(node)
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    )


def test_range_rules_are_stated_only_in_errors():
    offenders = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ParameterError"
                    and node.args and _RANGE_RULE.search(_message_text(node.args[0]))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"range rules written outside errors.py: {offenders}"


class TestDistanceKind:
    def test_rule_is_stated_once(self):
        sites = []
        for path in sorted(_PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ParameterError"
                        and node.args and "must be a DistanceKind" in _message_text(node.args[0])):
                    sites.append(f"{path.name}:{node.lineno}")
        assert len(sites) == 1, sites

    @pytest.mark.parametrize("kind", ["jbld", None, 1])
    def test_align_config_rejects_non_member(self, kind):
        with pytest.raises(ParameterError, match="^kind must be a DistanceKind, got ") as info:
            AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=kind, class_count=2)
        assert info.value.name == "kind"

    def test_dist_sq_rejects_non_member(self):
        eye = SymMatrix(np.eye(2))
        with pytest.raises(ParameterError, match="^kind must be a DistanceKind, got 'jbld'$"):
            dist_sq("jbld", eye, eye)

    def test_batch_dist_sq_rejects_non_member(self):
        stack = np.eye(2)[None]
        with pytest.raises(ParameterError, match="^kind must be a DistanceKind, got 'airm'$"):
            batch_dist_sq("airm", stack, stack, with_grad=False)


class TestTextReaders:
    def test_case_file_not_utf8(self, tmp_path):
        path = tmp_path / "cases.txt"
        path.write_bytes(b"pred:1,2|truth:1\n\xff\xfe\n")
        with pytest.raises(FormatError, match=r"cases\.txt: not UTF-8 text \("):
            load_cases(path)

    def test_run_config_not_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"steps = 2\n\xff\xfe\n")
        with pytest.raises(ConfigError, match=r"run\.cfg: not UTF-8 text \("):
            load_run_config(path)


# entry point: (dimensions of the array it is given, call with that array)
ARRAY_ENTRY_POINTS = {
    "FeatureBlock.columns": (2, lambda x: FeatureBlock(x, np.array([0, 1]))),
    "FeatureBlock.labels": (1, lambda x: FeatureBlock(np.eye(2), x)),
    "Classifier.weights": (2, lambda x: Classifier(x, np.zeros(2))),
    "Classifier.bias": (1, lambda x: Classifier(np.eye(2), x)),
    "SymMatrix": (2, SymMatrix),
    "symmetrize": (2, symmetrize),
    "nystrom_map": (2, lambda x: nystrom_map(np.eye(2), x)),
    "isometric_project": (2, lambda x: isometric_project(x, np.eye(2))),
    "backproject_grad": (2, lambda x: backproject_grad(Projection(np.eye(2)), x)),
    "mean_and_scatter": (2, mean_and_scatter),
    "alignment_loss": (2, lambda x: alignment_loss([(x, np.eye(2))], AlignConfig(
        sigma1=1.0, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=1))),
}

# input kind: (1-d input, 2-d input); none of them is an array of real numbers
ARRAY_FAULTS = {
    "string": (["a", "b"], [["a", "b"], ["b", "a"]]),
    "ragged": ([0.0, [1.0, 2.0]], [[1.0, 0.0], [0.0]]),
    "complex": (np.array([0.0, 1.0 + 1.0j]), np.array([[1.0, 1.0j], [-1.0j, 1.0]])),
    "object-none": (np.array([0.0, None], dtype=object),
                    np.array([[1.0, None], [None, 1.0]], dtype=object)),
}


@pytest.mark.parametrize("fault", list(ARRAY_FAULTS))
@pytest.mark.parametrize("entry", list(ARRAY_ENTRY_POINTS))
def test_non_real_array_is_typed(entry, fault):
    # Under filterwarnings = error a ComplexWarning fails this test as well.
    ndim, call = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(DimensionError, match="real numbers"):
        call(ARRAY_FAULTS[fault][ndim - 1])
