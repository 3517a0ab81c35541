"""Seeded mutations of a valid model dump: every outcome is a report or a typed error.

Each example flips bits, overwrites bytes or writes runs of +-1e308 (finite
values that overflow ``W x``) into the header and payload of one dump. The
reader and ``evaluate`` must return a report or raise a ``SpdAlignError``, and
``spdalign eval`` must exit 0 with a report, 1 with ``error: `` or 2 with
``numerical error: ``: never a traceback, never a numpy warning.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdalign.align import Classifier
from spdalign.cli import main
from spdalign.errors import SpdAlignError
from spdalign.io import (
    MODEL_HEADER, read_feature_container, read_model, write_feature_container, write_model,
)
from spdalign.trainer import SynthSpec, evaluate, init_two_stream, synth_domain_pair

# Sizes (input, feature, class) = (16, 32, 20): 2 streams of 32*16 + 32 + 32*20 + 20 slots.
_SLOTS = 2 * (32 * 16 + 32 + 32 * 20 + 20)
_DUMP_BYTES = MODEL_HEADER.size + 8 * _SLOTS
# Payload slot of the first target encoder weight.
_TARGET_ENCODER = _SLOTS // 2

_positions = st.one_of(
    st.integers(0, MODEL_HEADER.size - 1), st.integers(MODEL_HEADER.size, _DUMP_BYTES - 1)
)
_mutations = st.lists(st.one_of(
    st.tuples(st.just("flip"), _positions, st.integers(0, 7)),
    st.tuples(st.just("set"), _positions, st.integers(0, 255)),
    st.tuples(st.just("huge"), st.integers(0, _SLOTS - 1), st.integers(1, 600), st.sampled_from([1.0, -1.0])),
), min_size=1, max_size=4)


def mutate(raw: bytes, mutations) -> bytes:
    out = bytearray(raw)
    for op, *args in mutations:
        if op == "flip":
            position, bit = args
            out[position] ^= 1 << bit
        elif op == "set":
            position, value = args
            out[position] = value
        else:
            start, length, sign = args
            for slot in range(start, min(start + length, _SLOTS)):
                struct.pack_into("<d", out, MODEL_HEADER.size + 8 * slot, sign * 1e308)
    return bytes(out)


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    """Directory of a valid dump ``valid.bin`` and its feature container ``test.bin``.

    Only the path reaches the property, so a failing example's report stays short.
    """
    model = init_two_stream(16, 32, 20, seed=0)
    model.feature_cap = 1.0
    rng = np.random.default_rng(7)
    model.classifier_target = Classifier(rng.normal(size=(32, 20)), rng.normal(size=20))
    _, _, test = synth_domain_pair(SynthSpec(class_count=20, input_dim=16, source_per_class=1))
    directory = tmp_path_factory.mktemp("dumps")
    write_model(directory / "valid.bin", model)
    write_feature_container(directory / "test.bin", test, class_count=20)
    assert (directory / "valid.bin").stat().st_size == _DUMP_BYTES
    return directory


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=_mutations)
# Every target encoder weight 1e308: W x overflows on every test column.
@example(mutations=[("huge", _TARGET_ENCODER, 32 * 16, 1.0)])
def test_mutated_dump_is_a_report_or_a_typed_error(dump_dir, mutations):
    path, features = dump_dir / "model.bin", dump_dir / "test.bin"
    path.write_bytes(mutate((dump_dir / "valid.bin").read_bytes(), mutations))
    test, _ = read_feature_container(features)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            evaluate(read_model(path), test)
        except SpdAlignError:
            pass
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", str(path), str(features)])
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("scope,top1,count\noverall,")
    else:
        prefix = {1: "error: ", 2: "numerical error: "}[code]
        assert out.getvalue() == ""
        assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1
