"""Seeded mutations of the three other inputs that users hand the package.

Each property starts from one valid input and applies a few byte or text
edits: a feature container read by ``spdalign eval``, a case file read by
``spdalign metrics``, and run-config text read by ``parse_run_config`` and
trained on by ``spdalign train``. The CLI must exit 0 with its tables, 1 with
``error: `` or 2 with ``numerical error: ``, with no traceback and no numpy
warning; the config parser must return a ``RunConfig`` or raise a
``ConfigError``. The model-dump reader has its own property in
``test_model_dump_mutations``.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdalign.align import Classifier
from spdalign.cli import main
from spdalign.errors import ConfigError
from spdalign.io import FEATURE_HEADER, write_feature_container, write_model
from spdalign.metrics import format_case
from spdalign.runconfig import RunConfig, default_config_text, parse_run_config
from spdalign.trainer import SynthSpec, init_two_stream, synth_domain_pair
from test_metrics import random_cases

# Container of the target-test block: 4 classes x 3 columns of dimension 6; the
# feature data follow the header and one u32 label per column.
_DIM, _COUNT = 6, 12
_DATA = FEATURE_HEADER.size + 4 * _COUNT
_CONTAINER_BYTES = _DATA + 8 * _DIM * _COUNT


def _cli(argv) -> tuple[int, str, str]:
    """``spdalign argv`` in-process with warnings as errors: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code: int, out: str, err: str, header: str):
    """Exit 0 with tables that start with ``header``, or one typed error line."""
    if code == 0:
        assert err == "" and out.startswith(header)
    else:
        prefix = {1: "error: ", 2: "numerical error: "}[code]
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1


def _mutate_bytes(raw: bytes, mutations) -> bytes:
    out = bytearray(raw)
    for op, *args in mutations:
        if op == "flip":
            position, bit = args
            out[position % len(out)] ^= 1 << bit
        elif op == "set":
            position, value = args
            out[position % len(out)] = value
        elif op == "insert":
            position, text = args
            out[position % (len(out) + 1):position % (len(out) + 1)] = text
        elif op == "delete":
            start, length = args
            del out[start % len(out):start % len(out) + length]
        else:  # "huge": a run of +-1e308 feature values
            start, length, sign = args
            for slot in range(start, min(start + length, (len(out) - _DATA) // 8)):
                struct.pack_into("<d", out, _DATA + 8 * slot, sign * 1e308)
        if not out:
            break
    return bytes(out)


_edits = [
    st.tuples(st.just("flip"), st.integers(0, 10**4), st.integers(0, 7)),
    st.tuples(st.just("set"), st.integers(0, 10**4), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 10**4), st.integers(1, 12)),
]


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    """Directory of a model ``model.bin`` and a valid feature container ``valid.bin`` for it."""
    model = init_two_stream(_DIM, 8, 4, seed=0)
    model.feature_cap = 1.0
    rng = np.random.default_rng(3)
    model.classifier_target = Classifier(rng.normal(size=(8, 4)), rng.normal(size=4))
    _, _, test = synth_domain_pair(SynthSpec(class_count=4, input_dim=_DIM, source_per_class=1,
                                             target_test_per_class=3))
    directory = tmp_path_factory.mktemp("containers")
    write_model(directory / "model.bin", model)
    write_feature_container(directory / "valid.bin", test, class_count=4)
    assert (directory / "valid.bin").stat().st_size == _CONTAINER_BYTES
    return directory


_container_mutations = st.lists(st.one_of(
    *_edits,
    st.tuples(st.just("insert"), st.integers(0, 10**4), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("huge"), st.integers(0, _DIM * _COUNT - 1), st.integers(1, 80),
              st.sampled_from([1.0, -1.0])),
), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutations=_container_mutations)
def test_mutated_feature_container_evaluates_or_fails_typed(eval_dir, mutations):
    path = eval_dir / "features.bin"
    path.write_bytes(_mutate_bytes((eval_dir / "valid.bin").read_bytes(), mutations))
    result = _cli(["eval", str(eval_dir / "model.bin"), str(path)])
    _assert_clean_exit(*result, header="scope,top1,count\noverall,")


@pytest.fixture(scope="module")
def case_file(tmp_path_factory):
    """A valid case file of 20 tagged cases."""
    cases = random_cases(np.random.default_rng(5), 20, k_max=3)
    path = tmp_path_factory.mktemp("cases") / "valid.txt"
    path.write_text("".join(format_case(c) + "\n" for c in cases), encoding="utf-8")
    return path


# Text that the case reader's rules are about: separators, signs, spaces, long or non-ASCII digits.
_CASE_TOKENS = [b"|", b":", b",", b"\n", b"-", b"+", b" ", b"_", b"0", b"9" * 30, b"pred:",
                b"truth:", b"factors:", b"a+b", "٣".encode(), b"\xff"]
_case_mutations = st.lists(st.one_of(
    *_edits,
    st.tuples(st.just("insert"), st.integers(0, 10**4), st.sampled_from(_CASE_TOKENS)),
), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutations=_case_mutations)
def test_mutated_case_file_reports_or_fails_typed(case_file, mutations):
    path = case_file.with_name("cases.txt")
    path.write_bytes(_mutate_bytes(case_file.read_bytes(), mutations))
    result = _cli(["metrics", str(path), "--kmax", "3", "--breakdown"])
    _assert_clean_exit(*result, header="measure,k,n,value\n")


# Values that sit on or past a rule of some key, and text that is no value at all.
_CONFIG_VALUES = ["0", "-1", "1.5", "1e308", "-1e308", "1e-320", "1e999", "nan", "-inf", "none",
                  "linear", "airm", "", "abc", "9" * 5000, "1_0", "٣"]
_config_mutations = st.lists(st.one_of(
    st.tuples(st.just("value"), st.integers(0, 19), st.sampled_from(_CONFIG_VALUES)),
    st.tuples(st.just("duplicate"), st.integers(0, 19)),
    st.tuples(st.just("drop"), st.integers(0, 19)),
    st.tuples(st.just("insert"), st.integers(0, 10**4), st.sampled_from(["=", "#", "\n", " ", "x"])),
), min_size=1, max_size=4)


def _mutate_config(text: str, mutations) -> str:
    for op, *args in mutations:
        lines = text.splitlines(keepends=True)
        if op == "value" and lines:
            index, value = args[0] % len(lines), args[1]
            lines[index] = lines[index].partition("=")[0] + f"= {value}\n"
        elif op == "duplicate" and lines:
            lines.append(lines[args[0] % len(lines)])
        elif op == "drop" and lines:
            del lines[args[0] % len(lines)]
        elif op == "insert":
            position = args[0] % (len(text) + 1)
            lines = [text[:position], args[1], text[position:]]
        text = "".join(lines)
    return text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=_config_mutations)
def test_mutated_run_config_parses_or_fails_typed(mutations):
    text = _mutate_config(default_config_text(), mutations)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(parse_run_config(text), RunConfig)
        except ConfigError:
            pass


def _with_steps(text: str, steps: int) -> str:
    """``text`` with its ``steps`` lines dropped and ``steps = <steps>`` appended."""
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() != "steps"]
    return "\n".join([*kept, f"steps = {steps}", ""])


def _counts(run: RunConfig) -> list[int]:
    """The count keys of a run: they size every array that training allocates."""
    synth = run.synth
    return [synth.class_count, synth.input_dim, synth.source_per_class,
            synth.target_train_per_class, synth.target_test_per_class, run.feature_dim]


_DEFAULT_COUNTS = _counts(parse_run_config(""))


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("train")


# Values that parse for some keys and sit on or past a rule, so that most mutants reach training.
_TRAIN_VALUES = ["0", "1", "2", "200", "-1", "1.5", "1e308", "-1e308", "1e-320", "1e-300", "1e6",
                 "none", "linear", "airm", "frobenius"]
_train_mutations = st.lists(
    st.tuples(st.just("value"), st.integers(0, 19), st.sampled_from(_TRAIN_VALUES)),
    min_size=1, max_size=3,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=_train_mutations, steps=st.integers(1, 2))
def test_mutated_run_config_trains_or_fails_typed(train_dir, mutations, steps):
    text = _with_steps(_mutate_config(default_config_text(), mutations), steps)
    try:
        counts = _counts(parse_run_config(text))
    except ConfigError:
        counts = _DEFAULT_COUNTS
    # A mutant that would allocate arrays far beyond the defaults' is not trained.
    assume(all(count <= 10 * default for count, default in zip(counts, _DEFAULT_COUNTS)))
    config = train_dir / "run.cfg"
    config.write_text(text, encoding="utf-8")
    result = _cli(["train", "--config", str(config), "--out", str(train_dir / "out")])
    _assert_clean_exit(*result, header="final loss ")
