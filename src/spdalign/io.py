"""Binary file formats: feature containers and trained-model dumps.

Feature container layout (all integers little-endian unsigned 32-bit, floats
little-endian IEEE float64, matrices column-major)::

    bytes 0..7    magic "OMICFEAT"
    u32           version (1)
    u32           d   feature dimension
    u32           n   column count
    u32           c   class count
    u32 * n       labels
    f64 * d*n     feature data, column-major

Total length is 8 + 16 + 4 n + 8 d n bytes. Model dumps use the same float
conventions under the magic "OMICMODL".
"""

from __future__ import annotations

import struct

import numpy as np

from .align import Classifier
from .errors import FormatError
from .scatter import FeatureBlock
from .trainer import Encoder, TwoStreamModel

FEATURE_MAGIC = b"OMICFEAT"
MODEL_MAGIC = b"OMICMODL"
# Magic, five u32 sizes and flags, the u32 cap flag, and the f64 cap value.
MODEL_HEADER_BYTES = 40
VERSION = 1


def write_feature_container(path, block: FeatureBlock, class_count: int):
    """Serialize a feature block; every label must sit below ``class_count``."""
    if block.count and int(block.labels.max()) >= class_count:
        raise FormatError(
            f"label {int(block.labels.max())} outside class count {class_count}"
        )
    with open(path, "wb") as handle:
        handle.write(FEATURE_MAGIC)
        handle.write(struct.pack("<4I", VERSION, block.dim, block.count, class_count))
        handle.write(block.labels.astype("<u4").tobytes())
        handle.write(block.columns.astype("<f8").tobytes(order="F"))


def read_feature_container(path) -> tuple[FeatureBlock, int]:
    """Read a feature container back; returns (block, class_count)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < 24 or raw[:8] != FEATURE_MAGIC:
        raise FormatError(f"{path}: not a feature container (bad magic)")
    version, d, n, c = struct.unpack_from("<4I", raw, 8)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    expected = 24 + 4 * n + 8 * d * n
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=24).astype(np.int64)
    if n and labels.max() >= c:
        raise FormatError(f"{path}: label {int(labels.max())} outside class count {c}")
    data = np.frombuffer(raw, dtype="<f8", count=d * n, offset=24 + 4 * n)
    columns = data.reshape((d, n), order="F").copy()
    return FeatureBlock(columns, labels), c


def _pack_matrix(arr: np.ndarray) -> bytes:
    return np.asarray(arr, dtype=np.float64).astype("<f8").tobytes(order="F")


def _unpack_matrix(raw: bytes, offset: int, rows: int, cols: int) -> tuple[np.ndarray, int]:
    count = rows * cols
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return flat.reshape((rows, cols), order="F").copy(), offset + 8 * count


def write_model(path, model: TwoStreamModel):
    """Serialize a two-stream model (encoders, classifiers, feature cap).

    The header holds one encoder kind and one set of sizes for both streams,
    so streams that differ in either are rejected before the file is opened.
    """
    enc = model.encoder_source
    clf = model.classifier_source
    enc_t, clf_t = model.encoder_target, model.classifier_target
    source = (enc.nonlinear, enc.input_dim, enc.feature_dim, clf.class_count)
    target = (enc_t.nonlinear, enc_t.input_dim, enc_t.feature_dim, clf_t.class_count)
    if source != target:
        raise FormatError(
            "model streams differ in (nonlinear, input_dim, feature_dim, class_count): "
            f"source {source}, target {target}"
        )
    with open(path, "wb") as handle:
        handle.write(MODEL_MAGIC)
        handle.write(
            struct.pack(
                "<5I",
                VERSION,
                enc.input_dim,
                enc.feature_dim,
                clf.class_count,
                1 if enc.nonlinear else 0,
            )
        )
        cap = model.feature_cap
        handle.write(struct.pack("<I", 0 if cap is None else 1))
        handle.write(struct.pack("<d", 0.0 if cap is None else cap))
        for stream_enc, stream_clf in (
            (model.encoder_source, model.classifier_source),
            (model.encoder_target, model.classifier_target),
        ):
            handle.write(_pack_matrix(stream_enc.weights))
            handle.write(_pack_matrix(stream_enc.bias[:, None]))
            handle.write(_pack_matrix(stream_clf.weights))
            handle.write(_pack_matrix(stream_clf.bias[:, None]))


def read_model(path) -> TwoStreamModel:
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < 8 or raw[:8] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a model dump (bad magic)")
    if len(raw) < MODEL_HEADER_BYTES:
        raise FormatError(
            f"{path}: truncated model header: {len(raw)} of {MODEL_HEADER_BYTES} bytes"
        )
    version, input_dim, feature_dim, class_count, nonlinear = struct.unpack_from("<5I", raw, 8)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    (has_cap,) = struct.unpack_from("<I", raw, 28)
    (cap_value,) = struct.unpack_from("<d", raw, 32)
    offset = MODEL_HEADER_BYTES
    streams = []
    per_stream = 8 * (feature_dim * input_dim + feature_dim + feature_dim * class_count + class_count)
    if len(raw) != offset + 2 * per_stream:
        raise FormatError(f"{path}: expected {offset + 2 * per_stream} bytes, found {len(raw)}")
    for _ in range(2):
        enc_w, offset = _unpack_matrix(raw, offset, feature_dim, input_dim)
        enc_b, offset = _unpack_matrix(raw, offset, feature_dim, 1)
        clf_w, offset = _unpack_matrix(raw, offset, feature_dim, class_count)
        clf_b, offset = _unpack_matrix(raw, offset, class_count, 1)
        streams.append(
            (
                Encoder(weights=enc_w, bias=enc_b[:, 0], nonlinear=bool(nonlinear)),
                Classifier(weights=clf_w, bias=clf_b[:, 0]),
            )
        )
    return TwoStreamModel(
        encoder_source=streams[0][0],
        encoder_target=streams[1][0],
        classifier_source=streams[0][1],
        classifier_target=streams[1][1],
        feature_cap=cap_value if has_cap else None,
    )
