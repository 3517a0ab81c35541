"""Self-tests of the benchmark harness, on small inputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import functools
import json

import numpy as np
import pytest

import run

run._import_package()

import harness  # noqa: E402
import workloads  # noqa: E402
from spdalign.errors import SingularityError  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Every end-to-end metric the benchmark prints by name, per workload.
NAMED = {
    "train_synth": {f"train_steps_per_s.{k}": "steps/s" for k in workloads.KINDS},
    "shift_seed": {"shift_seed_s": "s", "shift_aligned_top1": "fraction"},
    "paper_scale": {f"paper_objective_per_s.{k}": "calls/s" for k in workloads.KINDS},
    "eval_report": {"eval_report_s": "s"},
}
COMMON = {"setup_s": "s", "failed_frac": "fraction", "peak_rss_mb": "MiB"}

SMALL = {
    "train_synth": lambda: workloads.TrainSynth(run.ROOT, steps=3),
    "shift_seed": lambda: workloads.ShiftSeed(steps=3),
    "paper_scale": lambda: workloads.PaperScale(d=48, classes=12),
    "eval_report": lambda: workloads.EvalReport(cases=200, columns_per_class=5),
}


def _raise_singular():
    raise SingularityError("forced")


def test_forced_typed_error_is_one_failed_op():
    ledger = harness.Ledger()
    ops = [harness.Op("bad", _raise_singular), harness.Op("good", lambda: 1)]
    samples, rounds = harness.measure(ops, ledger, lambda s: None, rounds=1)
    assert (ledger.attempted, ledger.failed, ledger.failed_typed) == (2, 1, 1)
    assert ledger.failures[0].error_type == "SingularityError"
    assert [s.ok for s in samples] == [False, True]
    assert harness.calibrated_rate(samples, "bad") == 0.0


def test_untyped_error_is_failed_but_kept_apart():
    ledger = harness.Ledger()
    ok, exc = ledger.attempt("raw", lambda: 1 / 0)
    assert not ok and isinstance(exc, ZeroDivisionError)
    assert (ledger.failed, ledger.failed_typed) == (1, 0)


@pytest.mark.parametrize("name", ["train_synth", "paper_scale", "eval_report"])
def test_traced_and_untraced_runs_agree(tmp_path, name):
    wl = SMALL[name]().prepare(3, tmp_path)
    ledger = harness.Ledger()
    harness.measure(wl.ops(), ledger, wl.after, rounds=1)
    untraced = wl.digests()
    tracer = Tracer()
    with tracer.installed():
        harness.measure(wl.ops(), ledger, wl.after, rounds=1)
    assert tracer.spans
    assert wl.digests() == untraced
    # Tiny trainings miss the top-1 floors; only the run-to-run comparisons count here.
    assert not [p for p in wl.problems() if "differ" in p]


def test_tracer_restores_bindings():
    from spdalign import align, trainer

    before = (align.total_objective, trainer.total_objective)
    with Tracer().installed():
        assert align.total_objective is not before[0]
    assert (align.total_objective, trainer.total_objective) == before


def test_calibration_loop_stays_out_of_the_trace():
    tracer = Tracer()
    with tracer.installed():
        harness.reference_seconds()
    assert not tracer.counts and not tracer.spans


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0), ("inner", 5.0, 6.0, 0)]
    table = tracer.layer_table()
    assert table["outer"]["self_s"] == pytest.approx(6.0)
    assert table["inner"]["calls"] == 2 and table["inner"]["self_s"] == pytest.approx(4.0)


def test_paper_scale_failures_name_the_class(tmp_path):
    wl = SMALL["paper_scale"]().prepare(0, tmp_path)
    failures = [harness.Failure("airm", True, "SingularityError", "forced")]
    wl.annotate(failures)
    assert set(failures[0].context) == {"class", "failing_classes"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = run.run_workload(name, SMALL[name], 0, 0.01, bool(trace))
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    named = {k: v["unit"] for k, v in result["named_metrics"].items()}
    assert {**NAMED[name], **COMMON}.items() <= named.items()


def test_declared_workloads_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == workloads.WORKLOADS


HOG_MIB = 128


class _HoggingEvalReport(workloads.EvalReport):
    """A small eval_report that also holds HOG_MIB of touched memory."""

    def prepare(self, seed, workdir):
        self.hog = np.ones(HOG_MIB * 2**20 // 8)
        return super().prepare(seed, workdir)


def test_isolated_workloads_report_their_own_peak():
    small = {"cases": 200, "columns_per_class": 5}
    first = run.run_isolated("eval_report", functools.partial(_HoggingEvalReport, **small),
                             0, 0.01, False)
    second = run.run_isolated("eval_report", functools.partial(workloads.EvalReport, **small),
                              0, 0.01, False)
    assert first["correct"] and second["correct"]
    peaks = [r["metrics"]["peak_rss_mb"]["value"] for r in (first, second)]
    assert peaks[0] - peaks[1] > 0.8 * HOG_MIB
