"""Line-based ``key = value`` run configuration for the train command.

Blank lines and ``#`` comments are skipped. Every key has a default; unknown
keys are rejected outright, and range violations name the offending key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import AlignConfig
from .distances import DistanceKind
from .errors import ConfigError, ParameterError
from .trainer import DomainShift, SynthSpec


@dataclass(frozen=True)
class RunConfig:
    synth: SynthSpec
    align: AlignConfig
    steps: int
    learning_rate: float
    feature_dim: int
    nonlinear: bool


_DEFAULTS: dict[str, str] = {
    "class_count": "20",
    "input_dim": "16",
    "source_per_class": "30",
    "target_train_per_class": "3",
    "target_test_per_class": "20",
    "rotation_deg": "30.0",
    "translation": "1.0",
    "scale": "1.0",
    "noise": "0.05",
    "seed": "0",
    "sigma1": "0.5",
    "sigma2": "1.0",
    "eta": "1.0",
    "tau": "none",
    "eps": "1e-6",
    "kind": "jbld",
    "steps": "400",
    "learning_rate": "0.25",
    "feature_dim": "32",
    "encoder": "tanh",
}

_INT_KEYS = {
    "class_count", "input_dim", "source_per_class", "target_train_per_class",
    "target_test_per_class", "seed", "steps", "feature_dim",
}
_FLOAT_KEYS = {
    "rotation_deg", "translation", "scale", "noise",
    "sigma1", "sigma2", "eta", "eps", "learning_rate",
}


def default_config_text() -> str:
    """The shipped default configuration, one key per line."""
    return "\n".join(f"{key} = {value}" for key, value in _DEFAULTS.items()) + "\n"


def _parse_scalar(key: str, text: str, line: int):
    if key in _INT_KEYS:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"key {key!r} needs an integer, got {text!r}", line) from None
    if key in _FLOAT_KEYS:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"key {key!r} needs a number, got {text!r}", line) from None
    if key == "tau":
        if text.lower() == "none":
            return None
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"key 'tau' needs a number or 'none', got {text!r}", line) from None
    if key == "kind":
        try:
            return DistanceKind.parse(text)
        except ParameterError as exc:
            raise ConfigError(str(exc), line) from None
    if key == "encoder":
        if text not in ("tanh", "linear"):
            raise ConfigError(f"key 'encoder' must be 'tanh' or 'linear', got {text!r}", line)
        return text
    raise AssertionError(f"unhandled key {key}")


def parse_run_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError with a line number on failure."""
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        values[key] = value
        lines[key] = lineno
    merged = {**_DEFAULTS, **values}
    parsed = {key: _parse_scalar(key, merged[key], lines.get(key)) for key in merged}

    nonneg = ["sigma1", "sigma2", "eta", "noise"]
    for key in nonneg:
        if parsed[key] < 0:
            raise ConfigError(f"key {key!r} must be nonnegative, got {parsed[key]}", lines.get(key))
    if parsed["eps"] <= 0:
        raise ConfigError(f"key 'eps' must be positive, got {parsed['eps']}", lines.get("eps"))
    if parsed["tau"] is not None and parsed["tau"] <= 0:
        raise ConfigError(f"key 'tau' must be positive, got {parsed['tau']}", lines.get("tau"))
    if parsed["learning_rate"] < 0:
        raise ConfigError(
            f"key 'learning_rate' must be nonnegative, got {parsed['learning_rate']}",
            lines.get("learning_rate"),
        )
    for key in ("class_count", "input_dim", "source_per_class", "target_train_per_class",
                "target_test_per_class", "steps", "feature_dim"):
        if parsed[key] < 1:
            raise ConfigError(f"key {key!r} must be at least 1, got {parsed[key]}", lines.get(key))

    try:
        synth = SynthSpec(
            class_count=parsed["class_count"],
            input_dim=parsed["input_dim"],
            source_per_class=parsed["source_per_class"],
            target_train_per_class=parsed["target_train_per_class"],
            target_test_per_class=parsed["target_test_per_class"],
            shift=DomainShift(
                rotation_deg=parsed["rotation_deg"],
                translation=parsed["translation"],
                scale=parsed["scale"],
                noise=parsed["noise"],
            ),
            seed=parsed["seed"],
        )
        align = AlignConfig(
            sigma1=parsed["sigma1"],
            sigma2=parsed["sigma2"],
            eta=parsed["eta"],
            kind=parsed["kind"],
            class_count=parsed["class_count"],
            tau=parsed["tau"],
            eps=parsed["eps"],
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        synth=synth,
        align=align,
        steps=parsed["steps"],
        learning_rate=parsed["learning_rate"],
        feature_dim=parsed["feature_dim"],
        nonlinear=parsed["encoder"] == "tanh",
    )


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_run_config(handle.read())
