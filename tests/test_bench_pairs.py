"""The summary that the paired-benchmark script prints, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

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
                                "1/3", "(lower", "is", "better)", "within", "bound"]
    assert lines[2].split() == ["throughput_per_s", "10", "[9.5,", "10.5]", "12", "[11.25,",
                                "12.5]", "2/3", "(higher", "is", "better)", "within", "bound"]
    assert lines[3:] == ["parent failed/attempted: 1/30", "change failed/attempted: 0/32"]


PER_LAYER = [
    {"name": "metrics.load_cases_s", "unit": "s", "better": "lower"},
    {"name": "trainer.encoder_forward_s", "unit": "s", "better": "lower"},
    {"name": "io.bytes_read", "unit": "B", "better": "lower"},
]


def _traced(load, forward, read, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed, "metrics": {
        "metrics.load_cases_s": {"value": load, "unit": "s"},
        "trainer.encoder_forward_s": {"value": forward, "unit": "s"},
        "io.bytes_read": {"value": read, "unit": "B"},
    }}


def test_layer_lines_list_the_nonzero_metrics_without_a_verdict():
    # encoder_forward is 0 in every run and is left out; bytes_read is nonzero in one run only.
    parent = [_traced(0.009, 0.0, 0.0), _traced(0.010, 0.0, 0.0), _traced(0.008, 0.0, 0.0, failed=2)]
    change = [_traced(0.007, 0.0, 0.0), _traced(0.011, 0.0, 64.0), _traced(0.006, 0.0, 0.0)]
    lines = pairs.layer_lines(parent, change, PER_LAYER)
    assert lines[0].split() == ["metric", "parent", "median", "[q1,", "q3]", "change", "median",
                                "[q1,", "q3]", "change", "wins"]
    assert lines[1].split() == ["metrics.load_cases_s", "0.009", "[0.0085,", "0.0095]", "0.007",
                                "[0.0065,", "0.009]", "2/3", "(lower", "is", "better)"]
    assert lines[2].split() == ["io.bytes_read", "0", "[0,", "0]", "0", "[0,", "32]", "0/3",
                                "(lower", "is", "better)"]
    assert lines[3:] == ["parent failed/attempted: 2/30", "change failed/attempted: 0/30"]
    # The name column is as wide as the longest name shown.
    assert lines[2].startswith("io.bytes_read".ljust(len("metrics.load_cases_s")) + " ")


RATE, SETUP = END_TO_END[1], END_TO_END[0]
TEN = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]  # quartiles 9.9 and 10.075


@pytest.mark.parametrize("parent, change, metric, expected", [
    # 10/10 wins and a median 2.0 above the parent's, whose interquartile range is 0.175.
    (TEN, [v + 2.0 for v in TEN], RATE, "gain"),
    # 9/10 wins is enough; the 9.0 loses its pair.
    (TEN, [v + 2.0 for v in TEN[:9]] + [9.0], RATE, "gain"),
    # 8/10 wins is not, and the median gain of 2.0 is inside the 25 % bound.
    (TEN, [v + 2.0 for v in TEN[:8]] + [9.0, 9.0], RATE, "within bound"),
    # 10/10 wins by 0.1, less than the interquartile range.
    (TEN, [v + 0.1 for v in TEN], RATE, "within bound"),
    # The median falls from 10 to 7: 30 % worse, beyond the 25 % bound.
    (TEN, [v - 3.0 for v in TEN], RATE, "regression"),
    # Set-up is worse when higher: 0.8 -> 1.05 s is 31 % worse.
    ([0.8, 0.8, 0.8], [1.05, 1.05, 1.05], SETUP, "regression"),
    ([0.8, 0.8, 0.8], [0.95, 0.95, 0.95], SETUP, "within bound"),
    # A parent interquartile range of 3 exceeds the bound of 2.5, and the sides overlap.
    ([4.0, 10.0, 10.0, 16.0], [11.0, 9.0, 12.0, 10.0], RATE, "unresolved"),
    # The same spread, with every change run above every parent run: the medians differ by 6.25.
    ([4.0, 10.0, 10.0, 16.0], [16.1, 16.2, 16.3, 16.4], RATE, "gain"),
    # 3/4 wins and one overlap leave it open.
    ([4.0, 10.0, 10.0, 16.0], [17.0, 17.0, 3.0, 17.0], RATE, "unresolved"),
    # Spread 2.525 exceeds the bound, but every change run beats every parent run, by less than it.
    ([0.0, 10.0, 10.0, 10.1], [10.2, 10.2, 10.2, 10.2], RATE, "within bound"),
])
def test_verdict(parent, change, metric, expected):
    assert pairs.verdict(parent, change, metric) == expected
