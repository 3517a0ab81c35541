"""The load-time harness of ``scripts/case_load_time.py``, on small files."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spdalign.errors import FormatError
from spdalign.metrics import hit_ranks, load_cases

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "case_load_time.py"
_spec = importlib.util.spec_from_file_location("case_load_time", _SCRIPT)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_files_differ_only_where_described(tmp_path):
    paths = harness.write_case_files(tmp_path, count=800)
    assert list(paths) == ["clean", "one-wide", "wide-every-400", "malformed-last"]
    clean = load_cases(paths["clean"])
    assert len(clean) == 800
    for name, rows in (("one-wide", [400]), ("wide-every-400", [399, 799])):
        # Each widened case predicts one more id, first, that is in no truth list.
        table = load_cases(paths[name])
        extra = np.diff(table.predicted_offsets) - np.diff(clean.predicted_offsets)
        assert np.flatnonzero(extra).tolist() == rows and set(extra[rows]) == {1}
        shifted = np.minimum(hit_ranks(clean, 5) + extra[:, None], 6)
        assert np.array_equal(hit_ranks(table, 5), shifted)
    with pytest.raises(FormatError, match=r"line 800: non-decimal id"):
        load_cases(paths["malformed-last"])


def test_load_time_measures_every_file(tmp_path):
    for path in harness.write_case_files(tmp_path, count=40).values():
        assert 0 <= harness.load_time(path, rounds=2, loads=2) < 60
