"""Binary containers, model dumps, and run-config parsing."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from spdalign.align import Classifier
from spdalign.distances import DistanceKind
from spdalign.errors import ConfigError, DimensionError, FormatError, ParameterError
from spdalign.io import (
    FEATURE_HEADER,
    MODEL_HEADER,
    MODEL_MAGIC,
    read_feature_container,
    read_model,
    write_feature_container,
    write_model,
)
from spdalign.runconfig import _KEYS, RunConfig, default_config_text, parse_run_config
from spdalign.scatter import FeatureBlock
from spdalign.trainer import Encoder, TwoStreamModel, init_two_stream


class TestFeatureContainer:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        block = FeatureBlock(rng.normal(size=(7, 13)), rng.integers(0, 4, size=13))
        path = tmp_path / "features.bin"
        write_feature_container(path, block, class_count=4)
        loaded, class_count = read_feature_container(path)
        assert class_count == 4
        assert np.array_equal(loaded.columns, block.columns)
        assert np.array_equal(loaded.labels, block.labels)

    def test_length_formula(self, rng, tmp_path):
        d, n = 3, 5
        block = FeatureBlock(rng.normal(size=(d, n)), np.zeros(n, dtype=int))
        path = tmp_path / "features.bin"
        write_feature_container(path, block, class_count=1)
        assert path.stat().st_size == 8 + 16 + 4 * n + 8 * d * n

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_feature_container(path)

    def test_truncated_file(self, rng, tmp_path):
        block = FeatureBlock(rng.normal(size=(3, 5)), np.zeros(5, dtype=int))
        path = tmp_path / "features.bin"
        write_feature_container(path, block, class_count=1)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="bytes"):
            read_feature_container(path)

    def test_label_outside_class_count(self, rng, tmp_path):
        block = FeatureBlock(rng.normal(size=(2, 3)), np.array([0, 1, 2]))
        with pytest.raises(FormatError, match="label"):
            write_feature_container(tmp_path / "x.bin", block, class_count=2)

    # Header fields: magic, version, d, n, class count.
    @pytest.mark.parametrize("field, value, message", [
        (1, 2, "unsupported container version 2"),
        (4, 2, "label 2 outside class count 2"),
    ], ids=["version", "label"])
    def test_bad_header_field_on_read(self, tmp_path, field, value, message):
        block = FeatureBlock(np.ones((2, 3)), np.array([0, 2, 1]))
        path = tmp_path / "x.bin"
        write_feature_container(path, block, class_count=3)
        raw = bytearray(path.read_bytes())
        fields = list(FEATURE_HEADER.unpack_from(raw))
        fields[field] = value
        FEATURE_HEADER.pack_into(raw, 0, *fields)
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_feature_container(path)

    @pytest.mark.parametrize("class_count, error, message", [
        (2**32, FormatError, "class count 4294967296 does not fit the header's u32 field"),
        (3.5, ParameterError, "class_count must be a whole number, got 3.5"),
        (0, ParameterError, "class_count must be at least 1, got 0"),
    ], ids=["above-u32", "fraction", "zero"])
    def test_bad_class_count_leaves_no_file(self, rng, tmp_path, class_count, error, message):
        block = FeatureBlock(rng.normal(size=(2, 3)), np.array([0, 1, 0]))
        path = tmp_path / "x.bin"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            write_feature_container(path, block, class_count=class_count)
        assert not path.exists()

    def test_largest_class_count_is_written(self, rng, tmp_path):
        block = FeatureBlock(rng.normal(size=(2, 3)), np.array([0, 1, 0]))
        path = tmp_path / "x.bin"
        write_feature_container(path, block, class_count=2**32 - 1)
        assert read_feature_container(path)[1] == 2**32 - 1


def write_zero_width_dump(path, input_dim=3, class_count=2):
    """A tanh model dump of feature_dim 0 with cap 1: each stream stores only its zero classifier bias."""
    header = MODEL_HEADER.pack(MODEL_MAGIC, 1, input_dim, 0, class_count, 1, 1, 1.0)
    path.write_bytes(header + bytes(8 * 2 * class_count))


class TestModelDump:
    def test_zero_width_dump_is_refused(self, tmp_path):
        path = tmp_path / "model.bin"
        write_zero_width_dump(path)
        with pytest.raises(DimensionError, match="^encoder feature_dim must be at least 1$"):
            read_model(path)

    def test_roundtrip(self, rng, tmp_path):
        model = TwoStreamModel(
            encoder_source=Encoder(rng.normal(size=(4, 3)), rng.normal(size=4)),
            encoder_target=Encoder(rng.normal(size=(4, 3)), rng.normal(size=4)),
            classifier_source=Classifier(rng.normal(size=(4, 5)), rng.normal(size=5)),
            classifier_target=Classifier(rng.normal(size=(4, 5)), rng.normal(size=5)),
            feature_cap=2.5,
        )
        path = tmp_path / "model.bin"
        write_model(path, model)
        loaded = read_model(path)
        assert np.array_equal(loaded.encoder_source.weights, model.encoder_source.weights)
        assert np.array_equal(loaded.encoder_target.bias, model.encoder_target.bias)
        assert np.array_equal(loaded.classifier_target.weights, model.classifier_target.weights)
        assert loaded.feature_cap == 2.5
        assert loaded.encoder_source.nonlinear is True

    def test_roundtrip_without_cap_linear(self, rng, tmp_path):
        model = TwoStreamModel(
            encoder_source=Encoder(rng.normal(size=(2, 2)), np.zeros(2), nonlinear=False),
            encoder_target=Encoder(rng.normal(size=(2, 2)), np.zeros(2), nonlinear=False),
            classifier_source=Classifier(rng.normal(size=(2, 3)), np.zeros(3)),
            classifier_target=Classifier(rng.normal(size=(2, 3)), np.zeros(3)),
        )
        path = tmp_path / "model.bin"
        write_model(path, model)
        loaded = read_model(path)
        assert loaded.feature_cap is None
        assert loaded.encoder_source.nonlinear is False

    @pytest.mark.parametrize("target", [
        dict(nonlinear=False), dict(input_dim=3), dict(class_count=4),
    ], ids=["kind", "input_dim", "class_count"])
    def test_mixed_streams_rejected_before_writing(self, rng, tmp_path, target):
        # The header stores one kind and one set of sizes for both streams.
        layout = dict(input_dim=2, feature_dim=3, class_count=5, nonlinear=True)

        def stream(input_dim, feature_dim, class_count, nonlinear):
            return (
                Encoder(rng.normal(size=(feature_dim, input_dim)), np.zeros(feature_dim), nonlinear),
                Classifier(rng.normal(size=(feature_dim, class_count)), np.zeros(class_count)),
            )

        enc_s, clf_s = stream(**layout)
        enc_t, clf_t = stream(**{**layout, **target})
        model = TwoStreamModel(enc_s, enc_t, clf_s, clf_t, feature_cap=1.0)
        path = tmp_path / "model.bin"
        with pytest.raises(FormatError, match="model streams differ"):
            write_model(path, model)
        assert not path.exists()

    def test_array_that_does_not_fit_is_rejected_before_writing(self, rng, tmp_path):
        # The dataclass does not stop a field from being replaced after construction.
        enc = Encoder(rng.normal(size=(2, 3)), np.zeros(2))
        clf = Classifier(rng.normal(size=(2, 4)), np.zeros(4))
        model = TwoStreamModel(enc, enc, clf, clf)
        model.encoder_target = Encoder(np.ones((5, 3)), np.zeros(5))
        path = tmp_path / "model.bin"
        with pytest.raises(DimensionError, match="^encoder output dim 5 does not match classifier input dim 2$"):
            write_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["encoder_source", "encoder_target"])
    def test_non_finite_encoder_is_rejected_before_writing(self, tmp_path, field):
        # An array edited in place after construction is outside the layer rule;
        # the writer refuses it rather than write a dump that read_model rejects.
        model = init_two_stream(3, 2, 4, seed=0)
        getattr(model, field).weights[1, 2] = np.nan
        path = tmp_path / "model.bin"
        with pytest.raises(DimensionError, match="^model parameters contain non-finite entries$"):
            write_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    @pytest.mark.parametrize("field", ["classifier_source", "classifier_target"])
    def test_non_finite_classifier_is_rejected_before_writing(self, rng, tmp_path, field, part, value):
        streams = [(Encoder(rng.normal(size=(2, 3)), np.zeros(2)),
                    Classifier(rng.normal(size=(2, 4)), np.zeros(4))) for _ in range(2)]
        (enc_s, clf_s), (enc_t, clf_t) = streams
        model = TwoStreamModel(enc_s, enc_t, clf_s, clf_t)
        getattr(getattr(model, field), part).flat[0] = value
        path = tmp_path / "model.bin"
        with pytest.raises(DimensionError, match="^model parameters contain non-finite entries$"):
            write_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: b"NOTMODEL" + raw[8:], "not a model dump (bad magic)"),
        (lambda raw: raw[:8] + struct.pack("<I", 7) + raw[12:], "unsupported model version 7"),
        (lambda raw: raw + bytes(8), "expected 696 bytes, found 704"),
    ], ids=["magic", "version", "length"])
    def test_corrupt_dump_on_read(self, tmp_path, corrupt, message):
        path = tmp_path / "model.bin"
        write_model(path, init_two_stream(3, 4, 5, seed=0))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_model(path)

    # Header offsets: nonlinear flag at byte 24, cap flag at 28, cap value at 32.
    @pytest.mark.parametrize("fmt, offset, value, message", [
        ("<I", 24, 7, "nonlinear flag must be 0 or 1, found 7"),
        ("<I", 28, 2, "cap flag must be 0 or 1, found 2"),
        ("<d", 32, 3.5, "cap value must be 0 under cap flag 0, found 3.5"),
        ("<d", 32, float("nan"), "cap value must be 0 under cap flag 0, found nan"),
    ], ids=["nonlinear-flag", "cap-flag", "cap-value", "nan-cap-value"])
    def test_bad_header_flag_on_read(self, tmp_path, fmt, offset, value, message):
        path = tmp_path / "model.bin"
        write_model(path, init_two_stream(3, 4, 5, seed=0))  # no cap: cap flag 0, cap value 0
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_model(path)

    @pytest.mark.parametrize("length", [12, 30, 38])
    def test_truncated_header(self, tmp_path, length):
        path = tmp_path / "model.bin"
        write_model(path, init_two_stream(3, 4, 5, seed=0))
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(FormatError, match="truncated model header"):
            read_model(path)


class TestRunConfig:
    def test_defaults_parse(self):
        run = parse_run_config(default_config_text())
        assert run.synth.class_count == 20
        assert run.align.kind is DistanceKind.JBLD
        assert run.tau is None
        assert run.nonlinear is True

    def test_partial_config_gets_defaults(self):
        run = parse_run_config("steps = 10\nseed = 7\n")
        assert run.steps == 10
        assert run.synth.seed == 7
        assert run.synth.class_count == 20

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*mystery"):
            parse_run_config("steps = 10\nmystery = 1\n")

    def test_negative_sigma_rejected_names_key(self):
        with pytest.raises(ConfigError, match="sigma1"):
            parse_run_config("sigma1 = -0.5\n")

    def test_malformed_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_run_config("steps = 10\nseed = 1\nnot a config line\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_run_config("steps = 10\nsteps = 20\n")

    def test_comments_and_blanks_skipped(self):
        run = parse_run_config("# comment\n\nsteps = 11\n")
        assert run.steps == 11

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError, match="line 1.*steps"):
            parse_run_config("steps = abc\n")

    @pytest.mark.parametrize("key, value, accepts", [
        ("steps", "1_0", "an integer"),
        ("steps", "٣", "an integer"),
        ("sigma1", "٠.٥", "a number"),
        ("tau", "1_0", "a number or 'none'"),
    ])
    def test_underscores_and_non_ascii_digits_rejected(self, key, value, accepts):
        # int() and float() accept both; the case-file reader rejects them too.
        rejects_at_line_2(key, value, f"key {key!r} needs {accepts}, got {value!r}")

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_run_config("kind = euclid\n")

    def test_explicit_tau(self):
        run = parse_run_config("tau = 3.5\n")
        assert run.tau == 3.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_tau_rejects_non_finite(self, value):
        fields = vars(parse_run_config(""))
        with pytest.raises(ParameterError, match=f"^tau must be finite, got {value}$") as info:
            RunConfig(**{**fields, "tau": value})
        assert info.value.name == "tau"

    def test_linear_encoder(self):
        run = parse_run_config("encoder = linear\n")
        assert run.nonlinear is False


SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth_default.cfg"

# A valid value different from the default, for every key.
NON_DEFAULT = {
    "class_count": "5", "input_dim": "7", "source_per_class": "9",
    "target_train_per_class": "2", "target_test_per_class": "4", "rotation_deg": "10",
    "translation": "0.5", "scale": "2", "noise": "0", "seed": "3", "sigma1": "0.1",
    "sigma2": "0.2", "eta": "0.3", "tau": "2.5", "eps": "1e-4", "kind": "airm",
    "steps": "7", "learning_rate": "0.1", "feature_dim": "5", "encoder": "linear",
}


def rejects_at_line_2(key, value, message):
    """``key = value`` on line 2, below a comment, fails with exactly ``line 2: message``."""
    with pytest.raises(ConfigError, match=f"^{re.escape(f'line 2: {message}')}$"):
        parse_run_config(f"# run\n{key} = {value}\n")


class TestRunConfigKeys:
    def test_shipped_config_is_default(self):
        assert SHIPPED_CONFIG.read_bytes() == default_config_text().encode("utf-8")

    def test_non_default_table_covers_every_key(self):
        assert set(NON_DEFAULT) == set(_KEYS)

    @pytest.mark.parametrize("key", list(_KEYS))
    def test_every_key_reaches_run_config(self, key):
        default = parse_run_config("")
        assert parse_run_config(f"{key} = {NON_DEFAULT[key]}\n") != default

    @pytest.mark.parametrize("key, value, message", [
        ("sigma1", "-0.5", "sigma1 must be nonnegative, got -0.5"),
        ("sigma2", "-1", "sigma2 must be nonnegative, got -1.0"),
        ("eta", "-1", "eta must be nonnegative, got -1.0"),
        ("tau", "0", "tau must be positive, got 0.0"),
        ("eps", "0", "eps must be positive, got 0.0"),
        ("class_count", "0", "class_count must be at least 1, got 0"),
        ("input_dim", "0", "input_dim must be at least 1, got 0"),
        ("source_per_class", "0", "source_per_class must be at least 1, got 0"),
        ("target_train_per_class", "0", "target_train_per_class must be at least 1, got 0"),
        ("target_test_per_class", "-2", "target_test_per_class must be at least 1, got -2"),
        ("noise", "-0.1", "noise must be nonnegative, got -0.1"),
        ("seed", "-1", "seed must be nonnegative, got -1"),
        ("steps", "0", "steps must be at least 1, got 0"),
        ("learning_rate", "-1", "learning_rate must be nonnegative, got -1.0"),
        ("feature_dim", "0", "feature_dim must be at least 1, got 0"),
    ])
    def test_range_rule_reports_line(self, key, value, message):
        rejects_at_line_2(key, value, message)

    @pytest.mark.parametrize("key", [
        "sigma1", "sigma2", "eta", "eps", "tau", "learning_rate",
        "rotation_deg", "translation", "scale", "noise",
    ])
    def test_non_finite_rejected_with_line(self, key):
        for value in ("nan", "inf", "-inf"):
            rejects_at_line_2(key, value, f"{key} must be finite, got {value}")

    @pytest.mark.parametrize("key, value, accepts", [
        ("steps", "abc", "an integer"),
        ("seed", "1.5", "an integer"),
        ("noise", "lots", "a number"),
        ("tau", "auto", "a number or 'none'"),
        ("kind", "euclid", "one of frobenius, jbld, airm"),
        ("encoder", "relu", "'tanh' or 'linear'"),
    ])
    def test_parse_failure_names_key_and_line(self, key, value, accepts):
        rejects_at_line_2(key, value, f"key {key!r} needs {accepts}, got {value!r}")
