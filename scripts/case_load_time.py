"""Time ``load_cases`` on four 5000-case files that differ only in a few lines.

Usage::

    PYTHONPATH=src python scripts/case_load_time.py

From a fixed seed the script writes, in a temporary directory, four files of
the same 5000 cases (five predictions and one to three truth labels out of
100 ids, and up to five factor tags each):

- ``clean``: every line in the form ``format_case`` writes;
- ``one-wide``: the middle case also predicts ``2**64 + 1``, an id outside
  int64, first;
- ``wide-every-400``: so does every 400th case;
- ``malformed-last``: the last line holds a non-decimal id, so the load
  raises ``FormatError`` after reading the whole file.

For each file it prints the median, over 7 rounds, of the process time of
one load averaged over 10 loads, in milliseconds.
"""

from __future__ import annotations

import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spdalign.errors import FormatError
from spdalign.metrics import RankedCase, format_case, load_cases

_WIDE_ID = 2**64 + 1
_TAGS = ("blr", "clt", "lgt", "ocl", "scl")


def case_lines(count: int, seed: int = 0) -> list[str]:
    """``count`` random cases in the written form, one line each."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        predicted = rng.sample(range(100), 5)
        truth = rng.sample(range(100), rng.randint(1, 3))
        tags = frozenset(tag for tag in _TAGS if rng.random() < 0.3)
        lines.append(format_case(RankedCase(predicted, truth, tags)))
    return lines


def write_case_files(directory: Path, count: int = 5000) -> dict[str, Path]:
    """The four files of the module docstring, by name, written into ``directory``."""
    lines = case_lines(count)

    def widen(rows: set[int]) -> list[str]:
        return [line.replace("pred:", f"pred:{_WIDE_ID},", 1) if at in rows else line
                for at, line in enumerate(lines)]

    variants = {
        "clean": lines,
        "one-wide": widen({count // 2}),
        "wide-every-400": widen(set(range(399, count, 400))),
        "malformed-last": lines[:-1] + [lines[-1].replace("pred:", "pred:x", 1)],
    }
    paths = {}
    for name, text in variants.items():
        paths[name] = directory / f"{name}.txt"
        paths[name].write_text("\n".join(text) + "\n", encoding="utf-8")
    return paths


def load_time(path: Path, rounds: int = 7, loads: int = 10) -> float:
    """Median over ``rounds`` of the mean process time, in seconds, of ``loads`` loads of ``path``.

    A load that raises ``FormatError`` counts as a load.
    """
    means = []
    for _ in range(rounds):
        start = time.process_time()
        for _ in range(loads):
            try:
                load_cases(path)
            except FormatError:
                pass
        means.append((time.process_time() - start) / loads)
    return statistics.median(means)


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        for name, path in write_case_files(Path(directory)).items():
            print(f"{name:16s} {1e3 * load_time(path):7.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
