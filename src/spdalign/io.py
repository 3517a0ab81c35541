"""Binary file formats: feature containers and trained-model dumps.

Both formats are little-endian: integers unsigned 32-bit, floats IEEE float64,
matrices column-major. Each header is one ``struct.Struct`` that its writer
packs and its reader unpacks.

Feature container, header ``FEATURE_HEADER`` (24 bytes)::

    bytes 0..7    magic "OMICFEAT"
    u32           version (1)
    u32           d   feature dimension
    u32           n   column count
    u32           c   class count
    u32 * n       labels
    f64 * d*n     feature data, column-major

Total length is 24 + 4 n + 8 d n bytes.

Model dump, header ``MODEL_HEADER`` (40 bytes)::

    bytes 0..7    magic "OMICMODL"
    u32           version (1)
    u32           input_dim, feature_dim, class_count
    u32           nonlinear flag (1 for tanh encoders)
    u32           cap flag (1 when a feature cap is set)
    f64           cap value (0 without a cap)

then, for the source stream and then the target stream, the four matrices of
``_stream_shapes``: encoder weights and bias, classifier weights and bias.
The reader rejects a flag other than 0 or 1, and a nonzero cap value under
cap flag 0.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .align import Classifier
from .errors import DimensionError, FormatError, check_at_least
from .scatter import FeatureBlock
from .trainer import Encoder, TwoStreamModel

FEATURE_MAGIC = b"OMICFEAT"
MODEL_MAGIC = b"OMICMODL"
VERSION = 1
# Magic, version, d, n, c.
FEATURE_HEADER = struct.Struct("<8s4I")
# Magic, version, input_dim, feature_dim, class_count, nonlinear flag, cap flag, cap value.
MODEL_HEADER = struct.Struct("<8s6Id")


def write_feature_container(path, block: FeatureBlock, class_count: int):
    """Serialize a feature block; every label must sit below ``class_count``.

    ``class_count`` is a whole number from 1 to 2**32 - 1, the range of its
    u32 header field. Every rule is checked before the file is opened.
    """
    check_at_least(1, class_count=class_count)
    if class_count >= 2**32:
        raise FormatError(f"class count {class_count} does not fit the header's u32 field")
    if block.count and int(block.labels.max()) >= class_count:
        raise FormatError(
            f"label {int(block.labels.max())} outside class count {class_count}"
        )
    with open(path, "wb") as handle:
        handle.write(FEATURE_HEADER.pack(FEATURE_MAGIC, VERSION, block.dim, block.count, class_count))
        handle.write(block.labels.astype("<u4").tobytes())
        # The block is column-major, so its transpose is C-contiguous: the column memory, written as it is.
        handle.write(block.columns.astype("<f8", copy=False).T)


def read_feature_container(path) -> tuple[FeatureBlock, int]:
    """Read a feature container back; returns (block, class_count).

    The header is read and checked first, the file's length is taken from
    the open file, and the labels and the column data are then read straight
    into their arrays, so the data is held once.
    """
    with open(path, "rb") as handle:
        header = handle.read(FEATURE_HEADER.size)
        if len(header) < FEATURE_HEADER.size or header[:8] != FEATURE_MAGIC:
            raise FormatError(f"{path}: not a feature container (bad magic)")
        _, version, d, n, c = FEATURE_HEADER.unpack(header)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        expected = FEATURE_HEADER.size + 4 * n + 8 * d * n
        size = os.fstat(handle.fileno()).st_size
        if size != expected:
            raise FormatError(f"{path}: expected {expected} bytes, found {size}")
        labels = np.fromfile(handle, dtype="<u4", count=n).astype(np.int64)
        if n and labels.max() >= c:
            raise FormatError(f"{path}: label {int(labels.max())} outside class count {c}")
        data = np.fromfile(handle, dtype="<f8", count=d * n)
    return FeatureBlock(data.reshape((d, n), order="F"), labels), c


def _stream_shapes(input_dim: int, feature_dim: int, class_count: int) -> tuple[tuple[int, int], ...]:
    """One stream's matrix shapes in file order: encoder weights, bias; classifier weights, bias."""
    return (feature_dim, input_dim), (feature_dim, 1), (feature_dim, class_count), (class_count, 1)


def write_model(path, model: TwoStreamModel):
    """Serialize a two-stream model (encoders, classifiers, feature cap).

    The header holds one encoder kind and one set of sizes for both streams.
    A model that breaks :meth:`TwoStreamModel.check`, whose streams differ in
    encoder kind or sizes, or whose arrays hold a NaN or infinite entry (an
    array edited in place after construction) is rejected before the file is
    opened, so that :func:`read_model` accepts every dump written.
    """
    model.check()
    streams = (
        (model.encoder_source, model.classifier_source),
        (model.encoder_target, model.classifier_target),
    )
    source, target = (
        (enc.nonlinear, enc.input_dim, enc.feature_dim, clf.class_count) for enc, clf in streams
    )
    if source != target:
        raise FormatError(
            "model streams differ in (nonlinear, input_dim, feature_dim, class_count): "
            f"source {source}, target {target}"
        )
    nonlinear, *sizes = source
    shapes = _stream_shapes(*sizes)
    payload = [
        np.reshape(array, shape).astype("<f8")
        for enc, clf in streams
        for array, shape in zip((enc.weights, enc.bias, clf.weights, clf.bias), shapes)
    ]
    if not all(np.isfinite(array).all() for array in payload):
        raise DimensionError("model parameters contain non-finite entries")
    cap = model.feature_cap
    with open(path, "wb") as handle:
        handle.write(MODEL_HEADER.pack(
            MODEL_MAGIC, VERSION, *sizes, 1 if nonlinear else 0, cap is not None, cap or 0.0
        ))
        handle.writelines(array.tobytes(order="F") for array in payload)


def read_model(path) -> TwoStreamModel:
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:8] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a model dump (bad magic)")
    if len(raw) < MODEL_HEADER.size:
        raise FormatError(
            f"{path}: truncated model header: {len(raw)} of {MODEL_HEADER.size} bytes"
        )
    _, version, *sizes, nonlinear, has_cap, cap_value = MODEL_HEADER.unpack_from(raw)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    for field, flag in (("nonlinear flag", nonlinear), ("cap flag", has_cap)):
        if flag not in (0, 1):
            raise FormatError(f"{path}: {field} must be 0 or 1, found {flag}")
    if not has_cap and cap_value != 0.0:
        raise FormatError(f"{path}: cap value must be 0 under cap flag 0, found {cap_value!r}")
    shapes = _stream_shapes(*sizes) * 2
    counts = [rows * cols for rows, cols in shapes]
    expected = MODEL_HEADER.size + 8 * sum(counts)
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", count=sum(counts), offset=MODEL_HEADER.size)
    arrays = [
        part.reshape(shape, order="F").copy()
        for part, shape in zip(np.split(values, np.cumsum(counts)[:-1]), shapes)
    ]
    (enc_s, clf_s), (enc_t, clf_t) = (
        (Encoder(enc_w, enc_b[:, 0], bool(nonlinear)), Classifier(clf_w, clf_b[:, 0]))
        for enc_w, enc_b, clf_w, clf_b in (arrays[:4], arrays[4:])
    )
    return TwoStreamModel(enc_s, enc_t, clf_s, clf_t, feature_cap=cap_value if has_cap else None)
