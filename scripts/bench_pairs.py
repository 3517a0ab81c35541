"""Alternating benchmark pairs between two checkouts, summarised per end-to-end metric.

Usage (from any directory)::

    python scripts/bench_pairs.py PARENT CHANGE --workload eval_report --seed 11 --pairs 10

PARENT and CHANGE are checkouts of the repository. Each pair runs the
benchmark command of BENCHMARK.json (``python3 perfbench/run.py``) once in
each checkout, with ``--workload``, ``--seed``, ``--trace 0`` and the file's
``run_seconds``, one run at a time. Pairs 1, 3, 5, ... run the parent
first and pairs 2, 4, 6, ... the change, so that a slow spell of the
machine does not always fall on the same side. BENCHMARK.json is read from
the change checkout.

Each run's last output line is its JSON result. One line per run shows its
end-to-end metrics as it finishes. The summary then gives, for every
end-to-end metric, each side's median and quartiles and the number of pairs
in which the change is better (the direction is the metric's ``better``;
ties count for neither side), and each side's failed and attempted
operations. The script only runs the benchmark; it writes nothing but the
benchmark's own output directory in each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once in ``checkout`` and return its last output line as JSON."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: {' '.join(argv)} in {checkout} exited {done.returncode} without a "
                 f"JSON result\n{done.stderr}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better; ``better`` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def summary_lines(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """The summary of paired results: one line per end-to-end metric, then the failures."""
    lines = [f"{'metric':18s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}  "
             f"change wins"]
    for metric in end_to_end:
        name = metric["name"]
        sides = []
        for results in (parent, change):
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            sides.append((values, f"{median:.6g} [{q1:.6g}, {q3:.6g}]"))
        wins = change_wins(sides[0][0], sides[1][0], metric["better"])
        lines.append(f"{name:18s} {sides[0][1]:>30s} {sides[1][1]:>30s}  "
                     f"{wins}/{len(parent)} ({metric['better']} is better)")
    for side, results in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        lines.append(f"{side} failed/attempted: {failed}/{attempted}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.pairs < 1:
        parser.error("--seed must be nonnegative and --pairs at least 1")

    with open(args.change / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [m["name"] for m in benchmark["end_to_end"]]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = run_once(checkout, benchmark["command"], args.workload, args.seed,
                              benchmark["run_seconds"])
            results[side].append(result)
            values = " ".join(f"{n}={result['metrics'][n]['value']:.6g}" for n in names)
            print(f"pair {pair + 1} {side}: {values} failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
    print(f"== {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{benchmark['run_seconds']} s runs")
    for line in summary_lines(results["parent"], results["change"], benchmark["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
