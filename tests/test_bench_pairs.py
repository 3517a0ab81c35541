"""The summary that the paired-benchmark script prints, on fixed numbers."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _result(setup, rate, failed=0, attempted=10):
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": {
        "setup_s": {"value": setup, "unit": "s"},
        "throughput_per_s": {"value": rate, "unit": "1/s"},
    }}


def test_quartiles_inclusive():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_direction_and_ties_count_for_neither():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [12.0, 9.0, 10.0, 11.0]
    assert pairs.change_wins(parent, change, "higher") == 2
    assert pairs.change_wins(parent, change, "lower") == 1


def test_summary_lines():
    parent = [_result(0.8, 10.0), _result(0.9, 9.0, failed=1), _result(0.7, 11.0)]
    change = [_result(0.8, 13.0), _result(0.6, 12.0), _result(1.0, 10.5, attempted=12)]
    lines = pairs.summary_lines(parent, change, END_TO_END)
    assert lines[1].split() == ["setup_s", "0.8", "[0.75,", "0.85]", "0.8", "[0.7,", "0.9]",
                                "1/3", "(lower", "is", "better)"]
    assert lines[2].split() == ["throughput_per_s", "10", "[9.5,", "10.5]", "12", "[11.25,",
                                "12.5]", "2/3", "(higher", "is", "better)"]
    assert lines[3:] == ["parent failed/attempted: 1/30", "change failed/attempted: 0/32"]
