"""Line-based ``key = value`` run configuration for the train command.

Blank lines and ``#`` comments are skipped. Every key has a default; unknown
and duplicate keys are rejected outright. This module only parses: each range
rule lives in the type the value feeds (``SynthSpec`` and ``DomainShift`` for
the data, ``AlignConfig`` for the objective, ``RunConfig`` for the schedule,
feature width and feature cap), and a value that breaks one is reported at the
line that set it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .align import AlignConfig
from .distances import DistanceKind
from .errors import ConfigError, ParameterError, check_at_least, check_positive
from .trainer import DomainShift, SynthSpec, _check_schedule


@dataclass(frozen=True)
class RunConfig:
    """One training run. ``tau`` is the model's feature cap; ``None`` lets training derive it."""

    synth: SynthSpec
    align: AlignConfig
    steps: int
    learning_rate: float
    feature_dim: int
    nonlinear: bool
    tau: float | None = None

    def __post_init__(self):
        _check_schedule(self.steps, self.learning_rate)
        check_at_least(1, feature_dim=self.feature_dim)
        check_positive(tau=self.tau)


def _plain(text: str) -> str:
    """``text`` unless it holds ``_`` or a non-ASCII character, which ``int`` and ``float`` accept."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


def _int(text: str) -> int:
    return int(_plain(text))


def _number(text: str) -> float:
    return float(_plain(text))


def _tau(text: str) -> float | None:
    return None if text.lower() == "none" else _number(text)


def _nonlinear(text: str) -> bool:
    return {"tanh": True, "linear": False}[text]


_INT = (_int, "an integer")
_NUMBER = (_number, "a number")

# key: (default text, parser, what the parser accepts)
_KEYS = {
    "class_count": ("20", *_INT),
    "input_dim": ("16", *_INT),
    "source_per_class": ("30", *_INT),
    "target_train_per_class": ("3", *_INT),
    "target_test_per_class": ("20", *_INT),
    "rotation_deg": ("30.0", *_NUMBER),
    "translation": ("1.0", *_NUMBER),
    "scale": ("1.0", *_NUMBER),
    "noise": ("0.05", *_NUMBER),
    "seed": ("0", *_INT),
    "sigma1": ("0.5", *_NUMBER),
    "sigma2": ("1.0", *_NUMBER),
    "eta": ("1.0", *_NUMBER),
    "tau": ("none", _tau, "a number or 'none'"),
    "eps": ("1e-6", *_NUMBER),
    "kind": ("jbld", DistanceKind.parse, "one of " + ", ".join(k.value for k in DistanceKind)),
    "steps": ("400", *_INT),
    "learning_rate": ("0.25", *_NUMBER),
    "feature_dim": ("32", *_INT),
    "encoder": ("tanh", _nonlinear, "'tanh' or 'linear'"),
}


def default_config_text() -> str:
    """The shipped default configuration, one key per line."""
    return "".join(f"{key} = {default}\n" for key, (default, _, _) in _KEYS.items())


def _build(cls, values: dict, **given):
    """``cls`` with each field not ``given`` read from the parsed key of the same name."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name not in given}, **given)


def parse_run_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError with a line number on failure."""
    texts: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in texts:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        texts[key], lines[key] = value.strip(), lineno

    parsed = {}
    for key, (default, parse, accepts) in _KEYS.items():
        value = texts.get(key, default)
        try:
            parsed[key] = parse(value)
        except (ValueError, KeyError, ParameterError):
            raise ConfigError(f"key {key!r} needs {accepts}, got {value!r}", lines.get(key)) from None

    try:
        synth = _build(SynthSpec, parsed, shift=_build(DomainShift, parsed))
        return _build(RunConfig, parsed, synth=synth, align=_build(AlignConfig, parsed),
                      nonlinear=parsed["encoder"])
    except ParameterError as exc:
        raise ConfigError(str(exc), lines.get(exc.name)) from None


def load_run_config(path) -> RunConfig:
    """Read and parse a UTF-8 configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_run_config(text)
