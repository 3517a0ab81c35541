"""``scripts/rounding_sensitivity.py`` at tiny settings."""

import importlib.util
from pathlib import Path

from spdalign.distances import DistanceKind

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rounding_sensitivity.py"
_spec = importlib.util.spec_from_file_location("rounding_sensitivity", _SCRIPT)
script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(script)


def test_prints_one_line_per_kind(capsys):
    assert script.main(["--seeds", "0", "1", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["kind", "mean", "seed", "sd", "min", "max", "ulp", "mean", "ulp", "max"]
    assert [line.split()[0] for line in lines[1:4]] == [kind.value for kind in DistanceKind]
    for line in lines[1:4]:
        mean, sd, low, high, ulp_mean, ulp_max = map(float, line.split()[1:])
        assert 0.0 <= low <= mean <= high <= 1.0 and sd >= 0.0
        assert 0.0 <= ulp_mean <= ulp_max <= 1.0
    assert lines[4].startswith("2 seeds of 2 steps")

