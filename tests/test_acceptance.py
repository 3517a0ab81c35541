"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The criterion lines are printed outside pytest's capture so they appear in any
run, including plain ``pytest -v``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from spdalign.bench import run_bench
from spdalign.checks import (
    check_mean_alignment,
    check_objective,
    check_projected_chain,
    check_scatter_chain,
    run_invariance_checks,
)
from spdalign.cli import main as cli_main
from spdalign.distances import DistanceKind, dist_sq
from spdalign.metrics import avg_top_kk, top_k, top_k_n
from spdalign.nystrom import isometric_project, nystrom_map
from spdalign.scatter import mean_and_scatter
from spdalign.spd import SymMatrix, regularize

from test_metrics import oracle_avg_top_kk, oracle_top_k, oracle_top_k_n, random_cases

pytestmark = pytest.mark.acceptance

ACCEPT_SEED = 1207


def _report(capfd, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"[ACCEPTANCE] {name}: {status} ({detail})")


def test_gradient_suite(capfd):
    """Scatter chain, projected chain, mean alignment, and full objective:
    analytic vs central differences (step 1e-5) within 1e-4 relative,
    >= 100 random instances per component, under 2 minutes."""
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    components = []
    for kind in DistanceKind:
        components.append(check_scatter_chain(kind, 100, rng))
        components.append(check_projected_chain(kind, 100, rng))
    components.append(check_mean_alignment(100, rng))
    for kind in DistanceKind:
        components.append(check_objective(kind, 100, rng))
    elapsed = time.perf_counter() - start
    worst = max(c.max_gap for c in components)
    passed = all(c.passed for c in components) and elapsed < 120.0
    _report(capfd, "gradient-suite", passed, f"max_rel={worst:.2e}, {elapsed:.1f}s")
    for c in components:
        assert c.passed, f"{c.component}: {c.max_gap:.3e} >= {c.tolerance}"
    assert elapsed < 120.0


def test_isometry_suite(capfd):
    """Reduced-space vs ambient-space distance equality within 1e-7 relative,
    100 instances at d = 512, d' = 20, eps = 1e-6 on both sides, under 1 minute."""
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    eps = 1e-6
    d, n_s, n_t = 512, 12, 8

    def reg_scatter(cols):
        return regularize(SymMatrix(mean_and_scatter(cols)[1]), eps)

    worst = 0.0
    for _ in range(100):
        phi_s = rng.normal(size=(d, n_s))
        phi_t = rng.normal(size=(d, n_t))
        red_s, red_t, proj = isometric_project(phi_s, phi_t)
        assert proj.reduced_dim == 20
        for kind in DistanceKind:
            ambient = dist_sq(kind, reg_scatter(phi_s), reg_scatter(phi_t))
            reduced = dist_sq(kind, reg_scatter(red_s), reg_scatter(red_t))
            worst = max(worst, abs(ambient - reduced) / max(abs(ambient), abs(reduced)))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-7 and elapsed < 60.0
    _report(capfd, "isometry-suite", passed, f"max_rel={worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-7
    assert elapsed < 60.0


def test_nystrom_exactness(capfd):
    """Self-pivot feature maps reproduce the Gram matrix to 1e-9 max-abs
    on 100 random full-rank instances."""
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 41))
        n = int(rng.integers(1, d + 1))
        x = rng.normal(size=(d, n))
        mapped = nystrom_map(x, x)
        worst = max(worst, float(np.abs(mapped.T @ mapped - x.T @ x).max()))
    passed = worst < 1e-9
    _report(capfd, "nystrom-exactness", passed, f"max_abs={worst:.2e}")
    assert worst < 1e-9


def test_invariance_suite(capfd):
    """Rotation invariance (all kinds, 1e-8 rel), affine and inversion
    invariance (JBLD/AIRM, 1e-7 rel), AIRM triangle fuzz over 1000 triples
    (violations below 1e-9), and value/gradient zero at coincidence."""
    report = run_invariance_checks(trials=100, seed=ACCEPT_SEED + 3, triples=1000)
    worst = max(c.max_gap for c in report.components)
    _report(capfd, "invariance-suite", report.passed, f"max_dev={worst:.2e}")
    for c in report.components:
        assert c.passed, f"{c.component}: {c.max_gap:.3e} >= {c.tolerance}"


def test_speedup_ordering(capfd):
    """Projected JBLD at d = 4096, d' = 33 runs at least 20x faster than the
    naive ambient evaluation, and the whole benchmark finishes under 5 minutes."""
    start = time.perf_counter()
    result = run_bench(d=4096, n=30, nstar=3, reps=3, kind=DistanceKind.JBLD,
                       seed=ACCEPT_SEED + 4)
    elapsed = time.perf_counter() - start
    value_gap = abs(result.naive_value - result.projected_value) / abs(result.naive_value)
    passed = result.speedup >= 20.0 and elapsed < 300.0 and value_gap < 1e-7
    _report(
        capfd, "speedup-ordering", passed,
        f"speedup={result.speedup:.0f}x, naive={result.naive_mean:.2f}s, "
        f"projected={result.projected_mean * 1e3:.2f}ms, value_gap={value_gap:.1e}, "
        f"{elapsed:.0f}s total",
    )
    assert result.speedup >= 20.0
    assert elapsed < 300.0
    assert value_gap < 1e-7


def test_synthetic_adaptation_direction(capfd):
    """Aligned-JBLD mean target top-1 over 5 seeds beats source-only by >= 10
    points and source+target by >= 2 points on the fixed shift benchmark
    (C = 20, rotation 30 degrees, translation 1.0), under 10 minutes."""
    from spdalign.trainer import run_adaptation_benchmark

    start = time.perf_counter()
    outcome = run_adaptation_benchmark(seeds=[0, 1, 2, 3, 4])
    elapsed = time.perf_counter() - start
    means = outcome.means()
    gap_s = means["aligned_jbld"] - means["source_only"]
    gap_st = means["aligned_jbld"] - means["source_plus_target"]
    passed = gap_s >= 0.10 and gap_st >= 0.02 and elapsed < 600.0
    _report(
        capfd, "synthetic-adaptation", passed,
        f"aligned={means['aligned_jbld']:.3f}, S={means['source_only']:.3f}, "
        f"T={means['target_only']:.3f}, S+T={means['source_plus_target']:.3f}, "
        f"{elapsed:.0f}s",
    )
    assert gap_s >= 0.10
    assert gap_st >= 0.02
    assert elapsed < 600.0


def test_metric_oracle(capfd):
    """top-k, top-k-n, and avg top-k-k agree exactly with the brute-force
    intersection oracle on 10,000 fuzzed cases; monotonicity and the n = 1
    reduction hold on the same corpus."""
    rng = np.random.default_rng(ACCEPT_SEED + 5)
    cases = random_cases(rng, 10_000)
    exact = True
    for k in range(1, 6):
        exact &= top_k(cases, k) == oracle_top_k(cases, k)
        for n in range(1, 6):
            exact &= top_k_n(cases, k, n) == oracle_top_k_n(cases, k, n)
    exact &= avg_top_kk(cases, 5) == oracle_avg_top_kk(cases, 5)

    grid = {(k, n): top_k_n(cases, k, n) for k in range(1, 6) for n in range(1, 6)}
    monotone = all(
        grid[(k, n)] <= grid[(k2, n2)]
        for k in range(1, 6) for n in range(1, 6)
        for k2 in range(k, 6) for n2 in range(n, 6)
    )
    reduction = all(top_k_n(cases, k, 1) == top_k(cases, k) for k in range(1, 6))
    passed = exact and monotone and reduction
    _report(capfd, "metric-oracle", passed,
            f"exact={exact}, monotone={monotone}, n1_reduction={reduction}")
    assert exact and monotone and reduction


def test_train_determinism(tmp_path, capfd):
    """Two runs of the train command with the shipped default config produce
    byte-identical loss CSVs."""
    config = Path(__file__).resolve().parent.parent / "configs" / "synth_default.cfg"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["train", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli_main(["train", "--config", str(config), "--out", str(out_b)]) == 0
    capfd.readouterr()
    bytes_a = (out_a / "loss_history.csv").read_bytes()
    bytes_b = (out_b / "loss_history.csv").read_bytes()
    passed = bytes_a == bytes_b
    _report(capfd, "train-determinism", passed, f"{len(bytes_a)} byte CSV")
    assert passed
