"""Wall-clock comparison: ambient-dimension scatter distance vs reduced pipeline.

Both paths start from the same raw feature columns and end at the same scalar.
The naive path builds d x d scatters and runs the distance there; the projected
path works from the centred (N + N* - 2)-square Gram matrix of the columns
(and, for AIRM, a square root of it). Timing uses the
monotonic clock, discards warmup repetitions, and runs strictly serially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .align import AlignConfig, class_terms
from .distances import DistanceKind, dist_sq
from .errors import check_at_least, check_seed
from .scatter import mean_and_scatter
from .spd import SymMatrix, regularize

# perfbench/tracing.py wraps these bindings by name; neither path calls them any more.
from .nystrom import isometric_project  # noqa: F401
from .spd import symmetrize  # noqa: F401

WARMUP_REPS = 2


def ambient_distance_eval(phi_s: np.ndarray, phi_t: np.ndarray, kind: DistanceKind, eps: float) -> float:
    """Distance between the two regularized scatters built in ambient dimension."""
    sig_s = regularize(SymMatrix(mean_and_scatter(phi_s)[1]), eps)
    sig_t = regularize(SymMatrix(mean_and_scatter(phi_t)[1]), eps)
    return dist_sq(kind, sig_s, sig_t)


def projected_distance_eval(phi_s: np.ndarray, phi_t: np.ndarray, kind: DistanceKind, eps: float) -> float:
    """Same quantity from the (N + N*)-square Gram matrix of the columns.

    This is the alignment kernel of training, run on one class for its value:
    every kind is evaluated from the centred Gram matrix, AIRM through a
    square root of it.
    """
    config = AlignConfig(sigma1=1.0, sigma2=0.0, eta=0.0, kind=kind, class_count=1, eps=eps)
    x = np.concatenate([phi_s, phi_t], axis=1)[None]
    scatter, _, _ = class_terms(x, phi_s.shape[1], config, with_grad=False)
    return float(scatter[0])


@dataclass(frozen=True)
class BenchResult:
    naive_mean: float
    naive_std: float
    projected_mean: float
    projected_std: float
    naive_value: float
    projected_value: float

    @property
    def speedup(self) -> float:
        return self.naive_mean / self.projected_mean


def _time_fn(fn, reps: int) -> tuple[float, float, float]:
    for _ in range(WARMUP_REPS):
        value = fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - start)
    return float(np.mean(samples)), float(np.std(samples)), value


def run_bench(
    d: int,
    n: int,
    nstar: int,
    reps: int,
    kind: DistanceKind,
    seed: int = 0,
) -> BenchResult:
    """Time both evaluation paths on one random instance of the given sizes.

    Both paths regularize with the objective's default ``AlignConfig.eps``.
    """
    check_at_least(3, reps=reps)
    check_at_least(1, d=d, n=n, nstar=nstar)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    phi_s = rng.normal(size=(d, n))
    phi_t = rng.normal(size=(d, nstar))
    naive_mean, naive_std, naive_value = _time_fn(
        lambda: ambient_distance_eval(phi_s, phi_t, kind, AlignConfig.eps), reps
    )
    proj_mean, proj_std, proj_value = _time_fn(
        lambda: projected_distance_eval(phi_s, phi_t, kind, AlignConfig.eps), reps
    )
    return BenchResult(
        naive_mean=naive_mean, naive_std=naive_std,
        projected_mean=proj_mean, projected_std=proj_std,
        naive_value=naive_value, projected_value=proj_value,
    )
