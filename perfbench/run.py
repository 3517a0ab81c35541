"""spdalign benchmark: one caller, closed loop, one BLAS thread.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (BENCHMARK.json says why each was chosen):

* ``train_synth``: ``spdalign train`` on ``configs/synth_default.cfg`` with
  the workload seed and 20 steps, once per distance kind per round.
* ``shift_seed``: one seed of ``run_adaptation_benchmark``, 25 steps per
  training (one aligned training and three single-stream baselines).
* ``paper_scale``: ``total_objective`` at d = 4096, C = 100 with ragged
  classes, each kind in turn. Typed errors (today every AIRM call) are
  failed ops.
* ``eval_report``: write a model dump and a feature container, then
  ``spdalign eval`` and ``spdalign metrics --breakdown``.

Ops repeat in rounds until ``--seconds`` of wall time have passed; each op
and each set-up is timed in CPU seconds, which leave out the time other
tenants of the machine take. ``--workload all`` runs each workload in a fresh
interpreter of its own, so that its peak memory is its own. With
``--trace 0`` the last output line carries the end-to-end metrics:
``setup_s`` (median CPU time of five set-ups: imports in a fresh interpreter,
config, inputs, files, warm-up; calibrated by the run's median loop time),
``throughput_per_s`` (work units per calibrated second of a round made of
the median op of each kind: training steps, seeds, successful objective calls
or reports) and ``peak_rss_mb``. A calibrated time is an op's CPU time scaled
by a fixed calibration loop timed right before it (``harness.REFERENCE_S``),
so that the host's drift in speed cancels out. The lines above it give the
uncalibrated median round rate, the calibration loop's median time,
each op's timing and the per-workload figures (``train_steps_per_s.<kind>``,
``shift_seed_s``, ``shift_aligned_top1``, ``paper_objective_per_s.<kind>``,
``eval_report_s``, ``failed_frac``), with the environment and the inputs.

With ``--trace 1`` the ops run untraced, then the same number of rounds again
with wrappers around the package's functions. The last line carries the
per-layer metrics (seconds and counts per step: training step, objective call
or report), the per-kind rates and the uncalibrated round rate of the
untraced ops, and the tracing overhead: traced minus untraced CPU time, and
the calibrated slowdown as a fraction. ``spdalign.checks`` is a verification suite on
no user path, so it is not measured.

Exit code 0 when every output check passes, 1 when one fails, 2 when the
package is not found beside this directory. Full results, failures and spans
go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# One BLAS thread: the package works on small matrices, where extra BLAS
# threads add contention, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_package():
    """Import spdalign from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "spdalign" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import spdalign

    if Path(spdalign.__file__).resolve().parent != (src / "spdalign").resolve():
        return None
    return spdalign


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer, bench_tracer, steps: int, overhead_s: float, overhead_frac: float,
                      named: dict):
    """Per-layer metrics of one traced run: seconds and counts per step.

    The span and counter names come from the tracer's bindings. A
    ``distances`` span gives its seconds, calls and typed failures per kind; a
    ``bench`` span gives its median seconds per kind with an ambient check.
    """
    from tracing import COUNT_BINDINGS, HOOK_COUNTERS, SPAN_BINDINGS
    from workloads import AMBIENT_CHECK_KINDS, KINDS

    table = tracer.layer_table()
    bench_table = bench_tracer.layer_table()

    def total(name, key="total_s"):
        return table.get(name, {}).get(key, 0) / steps

    out = {}
    for _, _, name, suffix in SPAN_BINDINGS:
        if suffix is None:
            out[name + "_s"] = _metric(total(name), "s")
        elif name.startswith("bench."):
            for kind in AMBIENT_CHECK_KINDS:
                row = bench_table.get(f"{name}.{kind}", {})
                out[f"{name}_s.{kind}"] = _metric(row.get("median_s", 0.0), "s")
        else:
            for kind in KINDS:
                out[f"{name}_s.{kind}"] = _metric(total(f"{name}.{kind}"), "s")
                out[f"{name}_calls.{kind}"] = _metric(total(f"{name}.{kind}", "calls"), "count")
                out[f"{name}_failed.{kind}"] = _metric(total(f"{name}.{kind}", "failed"), "count")
    for name in ("trainer.train", "align.alignment_loss", "cli.main"):
        out[name + "_self_s"] = _metric(total(name, "self_s"), "s")
    out["nystrom.isometric_project_calls"] = _metric(
        total("nystrom.isometric_project", "calls"), "count")
    units = {name: "count" for _, _, name in COUNT_BINDINGS} | HOOK_COUNTERS
    for name, unit in units.items():
        out[name] = _metric(tracer.counts[name] / steps, unit)
    for kind in KINDS:
        for name, unit in ((f"train_steps_per_s.{kind}", "steps/s"),
                           (f"paper_objective_per_s.{kind}", "calls/s")):
            out[name] = named.get(name, _metric(0.0, unit))
    out["raw_throughput_per_s"] = named["raw_throughput_per_s"]
    out["trace.overhead_s"] = _metric(overhead_s, "s")
    out["trace.overhead_frac"] = _metric(overhead_frac, "fraction")
    return out


def run_workload(name: str, make, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; ``make()`` builds a fresh instance."""
    import harness
    from tracing import Tracer

    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setup_samples, wl = harness.timed_setup(
            lambda: make().prepare(seed, workdir), ROOT, repeats)
        ledger = harness.Ledger()
        samples, rounds = harness.measure(wl.ops(), ledger, wl.after, seconds=seconds)
        rss = harness.peak_rss_mb()
        # Set-up runs once per repeat, too seldom to pair each with a loop of
        # its own; the run's median loop time calibrates it.
        reference_s = statistics.median(s.ref_seconds for s in samples)
        setup_s = statistics.median(setup_samples) * harness.REFERENCE_S / reference_s
        result = {"workload": name, "seed": seed, "trace": int(trace),
                  "environment": harness.environment(), "inputs": wl.inputs(),
                  "setup_samples_s": setup_samples, "rounds": rounds}
        op_seconds = {}
        for s in samples:
            op_seconds.setdefault(s.label, []).append(s.seconds)
        named = {n: _metric(v, u) for n, v, u in wl.named_metrics(samples) + [
            ("throughput_per_s", harness.calibrated_rate(samples), "1/s"),
            ("raw_throughput_per_s", statistics.median(harness.round_rates(samples)), "1/s"),
            ("reference_s", reference_s, "s"),
            ("failed_frac", ledger.failed / ledger.attempted, "fraction"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MiB"),
        ]}
        layers = None
        if trace:
            tracer, bench_tracer = Tracer(), Tracer()
            with tracer.installed():
                traced, _ = harness.measure(wl.ops(), ledger, wl.after, rounds=rounds)
            with bench_tracer.installed():
                problems = wl.final_check(traced=True)
            overhead = sum(s.seconds for s in traced) - sum(s.seconds for s in samples)
            # Totals carry the machine's drift; calibrated rates do not.
            slowdown = harness.calibrated_rate(samples) / harness.calibrated_rate(traced) - 1.0
            steps = sum(s.steps for s in traced)
            metrics = per_layer_metrics(tracer, bench_tracer, steps, overhead, slowdown, named)
            layers = {**tracer.layer_table(), **bench_tracer.layer_table()}
            result["layers"] = layers
            result["counts"] = dict(tracer.counts)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"{name}.seed{seed}.spans.jsonl")
        else:
            problems = wl.final_check()
            metrics = {k: named[k] for k in ("setup_s", "throughput_per_s", "peak_rss_mb")}
        if hasattr(wl, "annotate"):
            wl.annotate(ledger.failures)
        problems = problems + wl.problems()
        result.update(
            correct=not problems, problems=problems, attempted=ledger.attempted,
            failed=ledger.failed, failed_typed=ledger.failed_typed,
            failed_other=ledger.failed - ledger.failed_typed,
            failures=[vars(f) for f in ledger.failures],
            named_metrics=named,
            op_timings={label: harness.timing_summary(seconds) for label, seconds in op_seconds.items()},
            op_seconds=op_seconds,
            digests=wl.digests(), metrics=metrics,
        )
        _print_result(result, layers)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{name}.seed{seed}.trace{int(trace)}.json", "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, default=str)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_child(conn, name, make, seed, seconds, trace):
    _import_package()
    conn.send(run_workload(name, make, seed, seconds, trace))
    conn.close()


def run_isolated(name: str, make, seed: int, seconds: float, trace: bool) -> dict:
    """``run_workload`` in a fresh interpreter, so that its peak memory is its own.

    ``make`` must pickle (a module-level class or a ``functools.partial`` of one).
    """
    context = multiprocessing.get_context("spawn")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_run_child, args=(send, name, make, seed, seconds, trace))
    sys.stdout.flush()
    child.start()
    send.close()
    try:
        result = receive.recv()
    except EOFError:
        result = None
    finally:
        receive.close()
        child.join()
    if result is None:
        raise RuntimeError(f"{name}: the workload process ended with code {child.exitcode}")
    return result


def _print_result(result: dict, layers: dict | None):
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("environment " + json.dumps(result["environment"]))
    print("inputs " + json.dumps(result["inputs"]))
    for label, text in result["op_timings"].items():
        print(f"op {label:12s} {text}")
    for name, m in result["named_metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    failures = {}
    for f in result["failures"]:
        key = (f["label"], "typed" if f["typed"] else "untyped", f["error_type"],
               json.dumps(f["context"]))
        failures[key] = failures.get(key, 0) + 1
    for (label, typed, error_type, context), count in failures.items():
        print(f"failed {count}x {label} {typed} {error_type} {context}")
    if layers:
        print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'median_s':>10s}  high")
        for name, row in layers.items():
            high = f"p{row['high_pct']:g} {row['high_s']:.3e}" if "high_pct" in row else "-"
            print(f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f} "
                  f"{row['median_s']:10.3e}  {high}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("checks " + ("passed" if result["correct"] else "FAILED"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if _import_package() is None or not (ROOT / "configs" / "synth_default.cfg").is_file():
        print(f"error: no spdalign checkout (src/spdalign, configs/) under {ROOT}", file=sys.stderr)
        return 2
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of {workloads.WORKLOADS} or all")

    if len(names) == 1:
        results = [run_workload(names[0], functools.partial(workloads.build, names[0], ROOT),
                                args.seed, args.seconds, bool(args.trace))]
    else:
        results = [run_isolated(n, functools.partial(workloads.build, n, ROOT), args.seed,
                                args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
