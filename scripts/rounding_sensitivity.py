"""Measure how far a one-ulp change of one weight moves each kind's target top-1.

Usage::

    PYTHONPATH=src python scripts/rounding_sensitivity.py [--seeds 0 1 ... 7] [--steps N]
        [--config configs/synth_default.cfg]

For every distance kind and seed, the script trains the run that ``spdalign
train`` trains on the config, with the seed and kind replaced, and evaluates
its target top-1. It then trains the same run again from a model whose target
encoder weight ``[0, 0]`` has moved up by one ulp (``np.nextafter``), and
evaluates that. One line per kind gives the spread of top-1 over the seeds
(mean, standard deviation, minimum and maximum) and the mean and largest
absolute change that the one-ulp move caused. A change as large as the seed
spread means that the reported accuracy of one run is as much rounding as
method. ``--steps`` replaces the config's step count; the defaults, 8 seeds of
the default config's 400 steps, run in under 2 minutes on one core.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from spdalign.distances import DistanceKind
from spdalign.runconfig import RunConfig, load_run_config
from spdalign.trainer import Encoder, evaluate, init_two_stream, synth_domain_pair, train

_DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synth_default.cfg"


def top1_pair(run: RunConfig) -> tuple[float, float]:
    """Target top-1 of ``run``, and of the same run with one target encoder weight moved up by one ulp."""
    source, target_train, target_test = synth_domain_pair(run.synth)
    model = dataclasses.replace(
        init_two_stream(run.synth.input_dim, run.feature_dim, run.synth.class_count,
                        run.synth.seed, run.nonlinear),
        feature_cap=run.tau,
    )
    weights = model.encoder_target.weights.copy()
    weights[0, 0] = np.nextafter(weights[0, 0], np.inf)
    moved = dataclasses.replace(
        model, encoder_target=Encoder(weights, model.encoder_target.bias, run.nonlinear)
    )
    return tuple(
        evaluate(train(start, (source, target_train), run.align, steps=run.steps,
                       lr=run.learning_rate, seed=run.synth.seed)[0], target_test).overall
        for start in (model, moved)
    )


def measure(base: RunConfig, seeds: list[int]) -> dict[DistanceKind, list[tuple[float, float]]]:
    """``top1_pair`` of ``base`` for every kind and seed, by kind, in seed order."""
    return {
        kind: [top1_pair(dataclasses.replace(
            base, synth=dataclasses.replace(base.synth, seed=seed),
            align=dataclasses.replace(base.align, kind=kind)))
            for seed in seeds]
        for kind in DistanceKind
    }


def table(pairs: dict[DistanceKind, list[tuple[float, float]]]) -> str:
    """One line per kind: top-1 mean, seed sd, min and max, then mean and max one-ulp change."""
    lines = [f"{'kind':10s} {'mean':>6s} {'seed sd':>7s} {'min':>6s} {'max':>6s} "
             f"{'ulp mean':>8s} {'ulp max':>7s}"]
    for kind, runs in pairs.items():
        top1, moved = np.array(runs).T
        change = np.abs(moved - top1)
        lines.append(f"{kind.value:10s} {top1.mean():6.3f} {top1.std():7.3f} {top1.min():6.3f} "
                     f"{top1.max():6.3f} {change.mean():8.3f} {change.max():7.3f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8)))
    parser.add_argument("--steps", type=int)
    parser.add_argument("--config", type=Path, default=_DEFAULT_CONFIG)
    args = parser.parse_args(argv)

    start = time.time()
    base = load_run_config(args.config)
    if args.steps is not None:
        base = dataclasses.replace(base, steps=args.steps)
    print(table(measure(base, args.seeds)))
    print(f"{len(args.seeds)} seeds of {base.steps} steps, {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
