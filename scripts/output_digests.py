"""Print one line per output that a change meant to keep results unchanged must keep.

Usage::

    PYTHONPATH=CHECKOUT/src python scripts/output_digests.py [--steps 400] > digests.txt

Run it once against each of two checkouts and ``diff`` the two files; any
differing line names the output that changed. The lines are:

- ``train/<kind>/tau=<tau>/<encoder>/<file> <sha256>`` for ``model.bin``,
  ``loss_history.csv`` and ``eval_report.csv`` of ``spdalign train`` on
  ``configs/synth_default.cfg`` with ``--steps`` steps, for every distance
  kind, ``tau`` of ``none`` and ``3.5`` and encoder ``tanh`` and ``linear``
  (12 runs);
- ``gradcheck/<component> <repr of max_gap>`` from
  ``run_gradient_checks(all kinds, trials=4, seed=5)``;
- ``invariance/<component> <repr of max_gap>`` from
  ``run_invariance_checks(trials=20, seed=3, triples=200)``;
- ``shift/<method> <repr of mean>`` from
  ``run_adaptation_benchmark([3], steps=25).means()``.

Training runs in-process through ``spdalign.cli.main`` in a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

from spdalign.checks import run_gradient_checks, run_invariance_checks
from spdalign.cli import main as spdalign_main
from spdalign.distances import DistanceKind
from spdalign.trainer import run_adaptation_benchmark

_DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synth_default.cfg"
_ARTIFACTS = ("model.bin", "loss_history.csv", "eval_report.csv")


def run_config(overrides: dict[str, str]) -> str:
    """The default config with ``overrides`` replacing (or adding) their keys."""
    kept = [line for line in _DEFAULT_CONFIG.read_text(encoding="utf-8").splitlines()
            if line.split("=")[0].strip() not in overrides]
    return "\n".join(kept + [f"{key} = {value}" for key, value in overrides.items()]) + "\n"


def training_lines(steps: int, workdir: Path) -> list[str]:
    lines = []
    for kind, tau, encoder in itertools.product(DistanceKind, ("none", "3.5"), ("tanh", "linear")):
        name = f"{kind.value}/tau={tau}/{encoder}"
        run_dir = workdir / name.replace("/", "_")
        config = workdir / f"{run_dir.name}.cfg"
        config.write_text(run_config(
            {"kind": kind.value, "tau": tau, "encoder": encoder, "steps": str(steps)}
        ), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = spdalign_main(["train", "--config", str(config), "--out", str(run_dir)])
        if code != 0:
            sys.exit(f"error: spdalign train exited {code} on {name}")
        for artifact in _ARTIFACTS:
            digest = hashlib.sha256((run_dir / artifact).read_bytes()).hexdigest()
            lines.append(f"train/{name}/{artifact} {digest}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=400, help="training steps per run (default 400)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = training_lines(args.steps, Path(tmp))
    for suite, report in (
        ("gradcheck", run_gradient_checks(list(DistanceKind), trials=4, seed=5)),
        ("invariance", run_invariance_checks(trials=20, seed=3, triples=200)),
    ):
        lines.extend(f"{suite}/{c.component} {c.max_gap!r}" for c in report.components)
    means = run_adaptation_benchmark([3], steps=25).means()
    lines.extend(f"shift/{method} {value!r}" for method, value in means.items())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
