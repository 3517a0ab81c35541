"""Run the synthetic shift benchmark: aligned two-stream model vs baselines.

Usage: python scripts/run_shift_benchmark.py [--seeds 0 1 2 3 4] [--steps N]

A flag left out keeps the default of ``run_adaptation_benchmark``.
"""

import argparse
import sys
import time

import numpy as np

from spdalign.trainer import run_adaptation_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--steps", type=int)
    parser.add_argument("--rotation", dest="rotation_deg", type=float, metavar="DEG")
    parser.add_argument("--translation", type=float)
    parser.add_argument("--sigma1", type=float)
    parser.add_argument("--sigma2", type=float)
    args = vars(parser.parse_args())

    start = time.time()
    seeds = args.pop("seeds")
    outcome = run_adaptation_benchmark(
        seeds, **{name: value for name, value in args.items() if value is not None}
    )
    means = outcome.means()
    print(f"{'method':22s} {'mean':>7s} {'min':>7s} {'max':>7s}")
    for name, values in (
        ("aligned (JBLD)", outcome.aligned),
        ("source only", outcome.source_only),
        ("target only", outcome.target_only),
        ("source + target", outcome.source_plus_target),
    ):
        print(f"{name:22s} {np.mean(values):7.3f} {min(values):7.3f} {max(values):7.3f}")
    print(f"\naligned - source_only     = {means['aligned_jbld'] - means['source_only']:+.3f}")
    print(f"aligned - source_plus_tgt = {means['aligned_jbld'] - means['source_plus_target']:+.3f}")
    print(f"elapsed {time.time() - start:.0f}s over {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
